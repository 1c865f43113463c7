//! The byte-identity fence: modeled traffic and checkpoint wire formats
//! pinned against committed values, so a refactor that changes one
//! modeled message or one checkpoint byte fails here rather than in the
//! out-of-tree benchmark.
//!
//! * `fixtures/golden_traffic.txt` — messages and bytes per [`OpClass`]
//!   plus retained history bytes for every application × protocol × page
//!   size at a small fixed scale, and the three lazy ablations on LI.
//! * `fixtures/{lrck,lrcd,erck}.hex` — a lazy checkpoint, a lazy delta and
//!   an eager checkpoint of one deterministic script, hex-encoded.
//!
//! A fixture changes only together with a deliberate change to the
//! traffic model or a wire format, never as a side effect.

use lrc::core::{CheckpointDelta, CheckpointError, EngineCheckpoint};
use lrc::sim::{
    run_trace, AnyCheckpoint, AnyEngine, EngineParams, ProtocolKind, RunReport, SimOptions,
};
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

// ---- checkpoint wire formats ----

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

fn fixture_engine(kind: ProtocolKind) -> AnyEngine {
    let params = EngineParams {
        n_procs: 3,
        mem_bytes: 1 << 12,
        page_bytes: 256,
        n_locks: 2,
        n_barriers: 1,
        gc_at_barriers: true,
        ..EngineParams::default()
    };
    AnyEngine::build(kind, &params).unwrap()
}

fn p(i: u16) -> ProcId {
    ProcId::new(i)
}

/// One committed round of lock-protected work over pages 0, 1, 2 and 4.
fn phase(e: &AnyEngine, salt: u64) {
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

/// Runs the script up to the first cut: a phase, a barrier (under the lazy
/// engine a garbage collection, so the owner table is populated), another
/// phase, and a bare lock hand-off that leaves unapplied notices at p2.
fn run_to_first_cut(e: &AnyEngine) {
    phase(e, 1);
    for i in 0..3 {
        e.barrier(p(i), BarrierId::new(0)).unwrap();
    }
    phase(e, 2);
    e.acquire(p(2), LockId::new(0)).unwrap();
    e.release(p(2), LockId::new(0)).unwrap();
}

fn lazy_cut(e: &AnyEngine) -> EngineCheckpoint {
    match e.checkpoint() {
        AnyCheckpoint::Lazy(c) => c,
        AnyCheckpoint::Eager(_) => panic!("lazy engine cut an eager checkpoint"),
    }
}

#[test]
fn lazy_checkpoint_and_delta_encode_byte_identically() {
    let lrck = unhex(include_str!("fixtures/lrck.hex"));
    let lrcd = unhex(include_str!("fixtures/lrcd.hex"));

    let live = fixture_engine(ProtocolKind::LazyInvalidate);
    run_to_first_cut(&live);
    let base = lazy_cut(&live);
    assert!(base.owners.iter().any(Option::is_some), "owners populated");
    assert!(!base.store.is_empty(), "store populated");
    assert_bytes_eq(
        "the live LRCK cut",
        &AnyCheckpoint::Lazy(base.clone()).encode(),
        &lrck,
    );

    phase(&live, 3);
    let next = lazy_cut(&live);
    let delta = next.delta_since(&base).unwrap();
    assert!(!delta.store_replaced, "same era: an additive delta");
    assert_bytes_eq(
        "the live LRCD delta",
        &delta.encode(base.page_bytes, base.n_pages),
        &lrcd,
    );

    // Fixture → decode → re-encode, and the delta rebuilds the next cut.
    let decoded = AnyCheckpoint::decode(&lrck).expect("LRCK fixture decodes");
    assert_bytes_eq("the re-encoded LRCK fixture", &decoded.encode(), &lrck);
    let decoded_delta = CheckpointDelta::decode(&lrcd).expect("LRCD fixture decodes");
    assert_bytes_eq(
        "the re-encoded LRCD fixture",
        &decoded_delta.encode(base.page_bytes, base.n_pages),
        &lrcd,
    );
    assert_eq!(decoded_delta.apply_to(&base).unwrap(), next);

    // Fixture → restore into a fresh engine → cut again. The episode
    // counter is engine statistics, not restored state.
    let fresh = fixture_engine(ProtocolKind::LazyInvalidate);
    fresh.restore(&decoded).expect("same-shape restore");
    let mut again = lazy_cut(&fresh);
    assert_eq!(again.episode, 0);
    again.episode = base.episode;
    assert_bytes_eq(
        "the cut of the restored engine",
        &AnyCheckpoint::Lazy(again).encode(),
        &lrck,
    );
}

#[test]
fn eager_checkpoint_encodes_byte_identically() {
    let erck = unhex(include_str!("fixtures/erck.hex"));

    let live = fixture_engine(ProtocolKind::EagerInvalidate);
    run_to_first_cut(&live);
    assert_bytes_eq("the live ERCK cut", &live.checkpoint().encode(), &erck);

    let decoded = AnyCheckpoint::decode(&erck).expect("ERCK fixture decodes");
    assert_bytes_eq("the re-encoded ERCK fixture", &decoded.encode(), &erck);

    let fresh = fixture_engine(ProtocolKind::EagerInvalidate);
    fresh.restore(&decoded).expect("same-shape restore");
    assert_bytes_eq(
        "the cut of the restored engine",
        &fresh.checkpoint().encode(),
        &erck,
    );
}

// ---- a cut that travels is refused at the door ----
//
// Each of these decoded fine before and panicked later, inside a restore
// or the first miss after it. Offsets into `fixtures/lrck.hex`: the store
// opens with interval p0:2, whose first diff is one run at byte 8 of page
// 0; the second entry is interval p1:2.

const FIRST_DIFF_PAGE_AT: usize = 95;
const FIRST_RUN_OFFSET_AT: usize = 107;
const SECOND_ENTRY_ID_AT: usize = 145;

/// Decodes the LRCK fixture with `patch` written over the bytes at `at`,
/// which must currently hold `was`.
fn decode_patched_lrck(at: usize, was: &[u8], patch: &[u8]) -> Result<AnyCheckpoint, String> {
    let mut lrck = unhex(include_str!("fixtures/lrck.hex"));
    assert_eq!(&lrck[at..at + was.len()], was, "fixture layout moved");
    lrck[at..at + patch.len()].copy_from_slice(patch);
    AnyCheckpoint::decode(&lrck).map_err(|e| match e {
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
