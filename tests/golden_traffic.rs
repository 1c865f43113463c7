//! The byte-identity fence: modeled traffic and checkpoint wire formats
//! pinned against committed values, so a refactor that changes one
//! modeled message or one checkpoint byte fails here rather than in the
//! out-of-tree benchmark.
//!
//! * `fixtures/golden_traffic.txt` — messages and bytes per [`OpClass`]
//!   plus retained history bytes for every application × protocol × page
//!   size at a small fixed scale, and the three lazy ablations on LI.
//! * `fixtures/lrck.hex` — a checkpoint of one deterministic script on
//!   the lazy engine, hex-encoded.
//!
//! A fixture changes only together with a deliberate change to the
//! traffic model or a wire format, never as a side effect.

use lrc::core::{CheckpointError, EngineCheckpoint, LrcEngine, Policy};
use lrc::sim::{run_trace, EngineParams, ProtocolKind, RunReport, SimOptions};
use lrc::simnet::OpClass;
use lrc::sync::{BarrierId, LockId};
use lrc::vclock::ProcId;
use lrc::workloads::{AppKind, Scale};

const PAGES: [usize; 2] = [512, 4096];

fn scale() -> Scale {
    Scale {
        procs: 8,
        units: 20,
        seed: 1992,
    }
}

fn row(app: AppKind, variant: &str, report: &RunReport) -> String {
    let mut line = format!(
        "{app} {} {} {variant}",
        report.kind.label(),
        report.page_bytes
    );
    for class in OpClass::ALL {
        let c = report.class(class);
        line.push_str(&format!(" {}={}/{}", class.label(), c.msgs, c.bytes));
    }
    match report.history_bytes {
        Some(h) => line.push_str(&format!(" hist={h}")),
        None => line.push_str(" hist=-"),
    }
    line
}

/// Every (application, protocol, page size) cell at stock settings, then
/// the three lazy ablations on LI.
fn traffic_table() -> Vec<String> {
    let ablations = [
        (
            "gc_at_barriers",
            SimOptions {
                gc_at_barriers: true,
                ..SimOptions::fast()
            },
        ),
        (
            "no_piggyback",
            SimOptions {
                piggyback_notices: false,
                ..SimOptions::fast()
            },
        ),
        (
            "full_page_misses",
            SimOptions {
                full_page_misses: true,
                ..SimOptions::fast()
            },
        ),
    ];
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        let trace = app.generate(&scale());
        for page in PAGES {
            for kind in ProtocolKind::ALL {
                let report = run_trace(&trace, kind, page, &SimOptions::fast()).unwrap();
                rows.push(row(app, "stock", &report));
            }
            for (name, options) in &ablations {
                let report =
                    run_trace(&trace, ProtocolKind::LazyInvalidate, page, options).unwrap();
                rows.push(row(app, name, &report));
            }
        }
    }
    rows
}

#[test]
fn modeled_traffic_matches_the_committed_table() {
    let expected: Vec<&str> = include_str!("fixtures/golden_traffic.txt")
        .lines()
        .collect();
    let actual = traffic_table();
    assert_eq!(
        actual.len(),
        expected.len(),
        "row count changed; the table now reads:\n{}",
        actual.join("\n")
    );
    for (got, want) in actual.iter().zip(&expected) {
        assert_eq!(got, want, "modeled traffic changed");
    }
}

// ---- checkpoint wire format ----

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert_eq!(digits.len() % 2, 0, "odd hex digit count");
    digits
        .chunks(2)
        .map(|pair| {
            let s = std::str::from_utf8(pair).unwrap();
            u8::from_str_radix(s, 16).expect("hex digit")
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes
        .chunks(32)
        .map(|line| line.iter().map(|b| format!("{b:02x}")).collect::<String>())
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_bytes_eq(what: &str, got: &[u8], want: &[u8]) {
    assert!(
        got == want,
        "{what} differs from its fixture; it now encodes as:\n{}",
        hex(got)
    );
}

fn fixture_engine() -> LrcEngine {
    let params = EngineParams {
        n_procs: 3,
        mem_bytes: 1 << 12,
        page_bytes: 256,
        n_locks: 2,
        n_barriers: 1,
        gc_at_barriers: true,
        ..EngineParams::default()
    };
    LrcEngine::new(Policy::Invalidate, &params).unwrap()
}

fn p(i: u16) -> ProcId {
    ProcId::new(i)
}

/// One committed round of lock-protected work over pages 0, 1, 2 and 4.
fn phase(e: &mut LrcEngine, salt: u64) {
    let (l0, l1) = (LockId::new(0), LockId::new(1));
    e.acquire(p(0), l0).unwrap();
    e.write(p(0), 8, &(100 + salt).to_le_bytes());
    e.write(p(0), 520, &(200 + salt).to_le_bytes());
    e.release(p(0), l0).unwrap();
    e.acquire(p(1), l0).unwrap();
    let mut seen = [0u8; 8];
    e.read_into(p(1), 8, &mut seen);
    e.write(p(1), 1032, &(u64::from_le_bytes(seen) + salt).to_le_bytes());
    e.release(p(1), l0).unwrap();
    e.acquire(p(2), l1).unwrap();
    e.write(p(2), 264, &(300 + salt).to_le_bytes());
    e.release(p(2), l1).unwrap();
}

/// Runs the script up to the first cut: a phase, a barrier (a garbage
/// collection, so the owner table is populated), another phase, and a
/// bare lock hand-off that leaves unapplied notices at p2.
fn run_to_first_cut(e: &mut LrcEngine) {
    phase(e, 1);
    for i in 0..3 {
        e.barrier(p(i), BarrierId::new(0)).unwrap();
    }
    phase(e, 2);
    e.acquire(p(2), LockId::new(0)).unwrap();
    e.release(p(2), LockId::new(0)).unwrap();
}

#[test]
fn lazy_checkpoint_encodes_byte_identically() {
    let lrck = unhex(include_str!("fixtures/lrck.hex"));

    let mut live = fixture_engine();
    run_to_first_cut(&mut live);
    let base = live.checkpoint();
    assert!(!base.owners.is_empty(), "owners populated");
    assert!(base.store.interval_count() > 0, "store populated");
    assert_bytes_eq("the live LRCK cut", &base.encode(), &lrck);

    // Fixture → decode → re-encode.
    let decoded = EngineCheckpoint::decode(&lrck).expect("LRCK fixture decodes");
    assert_bytes_eq("the re-encoded LRCK fixture", &decoded.encode(), &lrck);

    // Fixture → restore into a fresh engine → cut again. The episode
    // counter is engine statistics, not restored state.
    let mut fresh = fixture_engine();
    fresh.restore(&decoded).expect("same-shape restore");
    let mut again = fresh.checkpoint();
    assert_eq!(again.episode, 0);
    again.episode = base.episode;
    assert_bytes_eq("the cut of the restored engine", &again.encode(), &lrck);
}

// ---- a cut that travels is refused at the door ----
//
// Each of these decoded fine before and panicked later, inside a restore
// or the first miss after it. Offsets into `fixtures/lrck.hex`: the store
// opens with interval p0:2, whose first diff is one run at byte 8 of page
// 0; the second entry is interval p1:2.

const FIRST_DIFF_PAGE_AT: usize = 94;
const FIRST_RUN_OFFSET_AT: usize = 106;
const SECOND_ENTRY_ID_AT: usize = 144;

/// Decodes the LRCK fixture with `patch` written over the bytes at `at`,
/// which must currently hold `was`.
fn decode_patched_lrck(at: usize, was: &[u8], patch: &[u8]) -> Result<EngineCheckpoint, String> {
    let mut lrck = unhex(include_str!("fixtures/lrck.hex"));
    assert_eq!(&lrck[at..at + was.len()], was, "fixture layout moved");
    lrck[at..at + patch.len()].copy_from_slice(patch);
    EngineCheckpoint::decode(&lrck).map_err(|e| match e {
        CheckpointError::Corrupt(why) => why,
        other => panic!("expected Corrupt, got {other:?}"),
    })
}

#[test]
fn a_store_diff_naming_a_page_out_of_range_is_corrupt() {
    let page0 = 0u32.to_le_bytes();
    // The fixture engine has 16 pages: 15 is the last one that exists.
    assert!(decode_patched_lrck(FIRST_DIFF_PAGE_AT, &page0, &15u32.to_le_bytes()).is_ok());
    let why = decode_patched_lrck(FIRST_DIFF_PAGE_AT, &page0, &16u32.to_le_bytes()).unwrap_err();
    assert!(why.contains("names page 16"), "{why}");
}

#[test]
fn a_store_diff_running_past_the_page_is_corrupt() {
    let offset8 = 8u32.to_le_bytes();
    // A one-byte run: byte 255 is the last of a 256-byte page.
    assert!(decode_patched_lrck(FIRST_RUN_OFFSET_AT, &offset8, &255u32.to_le_bytes()).is_ok());
    let why =
        decode_patched_lrck(FIRST_RUN_OFFSET_AT, &offset8, &256u32.to_le_bytes()).unwrap_err();
    assert!(why.contains("ends at byte 257"), "{why}");
}

/// An interval id (processor u16, sequence u32) and its three-entry stamp,
/// as the store section lays them out back to back.
fn id_and_stamp(proc: u16, seq: u32, stamp: [u32; 3]) -> Vec<u8> {
    let mut out = proc.to_le_bytes().to_vec();
    for word in [seq].iter().chain(&stamp) {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out
}

#[test]
fn store_intervals_out_of_sequence_order_are_corrupt() {
    let p1_2 = id_and_stamp(1, 2, [2, 2, 1]);
    let second_entry_as = |proc, seq, stamp| {
        decode_patched_lrck(SECOND_ENTRY_ID_AT, &p1_2, &id_and_stamp(proc, seq, stamp))
    };
    // p0:3 after p0:2 is in order; p0:2 again, or p0:1 after it, is not.
    assert!(second_entry_as(0, 3, [3, 2, 1]).is_ok());
    for seq in [2, 1] {
        let why = second_entry_as(0, seq, [seq, 2, 1]).unwrap_err();
        assert!(why.contains("out of sequence order"), "{why}");
    }
    // And an interval whose stamp is not its own never reaches the store.
    let why = second_entry_as(0, 3, [2, 2, 1]).unwrap_err();
    assert!(why.contains("carries another sequence number"), "{why}");
}

/// Reads every page at every live processor, then runs one barrier
/// episode: what a restored or rejoined engine must survive.
fn exercise(e: &mut LrcEngine) -> Result<(), String> {
    let mut page = [0u8; 256];
    for i in 0..3 {
        for g in 0..16u64 {
            e.read_into(p(i), g * 256, &mut page);
        }
    }
    for i in 0..3 {
        e.barrier(p(i), BarrierId::new(0))
            .map_err(|e| format!("barrier refused: {e}"))?;
    }
    Ok(())
}

/// What one decoded mutant of the fixture does: restored into a fresh
/// engine, and p2 rejoined from it on a live one. A refusal is a typed
/// error; anything else must leave an engine that runs.
fn restore_and_rejoin(ckpt: &EngineCheckpoint) -> Result<(), String> {
    let mut fresh = fixture_engine();
    match fresh.restore(ckpt) {
        Ok(()) => exercise(&mut fresh)?,
        Err(CheckpointError::Corrupt(why)) => return Err(format!("restore said Corrupt: {why}")),
        Err(_) => {}
    }
    let mut live = fixture_engine();
    run_to_first_cut(&mut live);
    live.declare_dead(p(2));
    if live.rejoin(p(2), ckpt).is_ok() {
        exercise(&mut live)?;
    }
    Ok(())
}

#[test]
fn every_single_byte_mutant_of_the_fixture_is_refused_or_runs() {
    let lrck = unhex(include_str!("fixtures/lrck.hex"));
    let (mut refused, mut ran, mut faults) = (0, 0, Vec::new());
    for at in 0..lrck.len() {
        for mask in [0x01u8, 0x02, 0x04, 0x10, 0x80, 0xff] {
            let mut mutant = lrck.clone();
            mutant[at] ^= mask;
            let Ok(ckpt) = EngineCheckpoint::decode(&mutant) else {
                refused += 1;
                continue;
            };
            let outcome = std::panic::catch_unwind(|| restore_and_rejoin(&ckpt));
            match outcome {
                Ok(Ok(())) => ran += 1,
                Ok(Err(why)) => faults.push(format!("byte {at} ^ {mask:#04x}: {why}")),
                Err(_) => faults.push(format!("byte {at} ^ {mask:#04x}: panicked")),
            }
        }
    }
    assert!(
        faults.is_empty(),
        "{} mutants:\n{}",
        faults.len(),
        faults.join("\n")
    );
    // The sweep reaches both sides of the door.
    assert!(refused > 1000 && ran > 5000, "{refused} refused, {ran} ran");
}

/// The offset of a field of the fixture's processor section (see the
/// store offsets above): p1's frame of page 2 is cold, flags 0, with one
/// pending notice; p0's frame of page 0 is resident and valid, flags 3,
/// with none; p2's frame of page 0 notices p0:2.
const N_PAGES_AT: usize = 12;
const P0_FRAME_G0_FLAGS_AT: usize = 266;
const P1_FRAME_G2_FLAGS_AT: usize = 1077;
const P2_FRAME_G0_NOTICE_PROC_AT: usize = 1378;

/// Restores `ckpt` into a fresh fixture engine, and rejoins p2 from it on
/// a live one, expecting both refused as incompatible.
fn assert_incompatible(ckpt: &EngineCheckpoint, what: &str) {
    let refused = |got: Result<(), CheckpointError>| match got {
        Err(CheckpointError::Incompatible(why)) => assert!(why.contains(what), "{why}"),
        other => panic!("expected Incompatible ({what}), got {other:?}"),
    };
    refused(fixture_engine().restore(ckpt));
    let mut live = fixture_engine();
    run_to_first_cut(&mut live);
    live.declare_dead(p(2));
    refused(live.rejoin(p(2), ckpt));
}

#[test]
fn a_header_claiming_four_billion_pages_allocates_nothing_for_them() {
    let all = u32::MAX.to_le_bytes();
    let ckpt = decode_patched_lrck(N_PAGES_AT, &16u32.to_le_bytes(), &all).unwrap();
    assert_eq!(ckpt.n_pages, u32::MAX as usize);
    assert_incompatible(&ckpt, "engine is 3×256B×16");
}

#[test]
fn a_frame_valid_without_contents_is_corrupt_or_incompatible() {
    let why = decode_patched_lrck(P1_FRAME_G2_FLAGS_AT, &[0], &[2]).unwrap_err();
    assert!(
        why.contains("frame of pg2 is valid without contents"),
        "{why}"
    );

    let mut live = fixture_engine();
    run_to_first_cut(&mut live);
    let mut ckpt = live.checkpoint();
    let frame = &mut ckpt.procs[1].frames[1];
    assert_eq!((frame.page.index(), frame.contents.is_none()), (2, true));
    frame.valid = true;
    assert_incompatible(&ckpt, "valid without contents");
}

#[test]
fn a_resident_frame_stale_with_nothing_pending_is_corrupt() {
    let why = decode_patched_lrck(P0_FRAME_G0_FLAGS_AT, &[3], &[1]).unwrap_err();
    assert!(
        why.contains("frame of pg0 is stale with nothing pending"),
        "{why}"
    );
}

#[test]
fn a_pending_notice_of_an_unknown_processor_is_corrupt_or_incompatible() {
    let p0 = 0u16.to_le_bytes();
    // p2 exists (the notice then names no recorded diff, which restore
    // refuses); p3 does not.
    let at = P2_FRAME_G0_NOTICE_PROC_AT;
    assert!(decode_patched_lrck(at, &p0, &2u16.to_le_bytes()).is_ok());
    let why = decode_patched_lrck(at, &p0, &3u16.to_le_bytes()).unwrap_err();
    assert!(
        why.contains("notices an interval of an unknown processor"),
        "{why}"
    );

    let mut live = fixture_engine();
    run_to_first_cut(&mut live);
    let mut ckpt = live.checkpoint();
    let interval = &mut ckpt.procs[2].frames[0].pending[0];
    *interval = lrc::vclock::IntervalId::new(p(7), interval.seq());
    assert_incompatible(&ckpt, "unknown processor");
}

#[test]
fn a_clock_that_reopens_a_recorded_interval_is_incompatible() {
    let mut live = fixture_engine();
    run_to_first_cut(&mut live);
    let mut ckpt = live.checkpoint();
    // p0 recorded p0:2; a clock that opens 2 again would close it twice.
    ckpt.procs[0].clock.set(p(0), 2);
    assert_incompatible(&ckpt, "clock of p0 opens 2");
}
