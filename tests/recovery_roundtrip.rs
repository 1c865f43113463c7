//! Checkpoint/restore round trips at the runtime level: a checkpoint cut
//! from a live [`Dsm`], serialized, decoded, and restored into a fresh
//! runtime must resume *identically* — under both lazy protocols, the
//! only ones with a checkpoint — and the automatic checkpointer's newest
//! cut must be exactly the live state at its episode.

use std::time::Duration;

use lrc::core::{CheckpointError, EngineCheckpoint, FrameCheckpoint};
use lrc::dsm::{Dsm, DsmBuilder};
use lrc::pagemem::PageId;
use lrc::sim::ProtocolKind;
use lrc::sync::{BarrierId, LockId};
use lrc::vclock::ProcId;

const PAGE: usize = 256;
const MEM: u64 = 1 << 13;

fn build(kind: ProtocolKind) -> Dsm {
    DsmBuilder::new(kind, 2, MEM)
        .page_size(PAGE)
        .locks(1)
        .build()
        .unwrap()
}

/// A committed phase of work: every write is published by a release
/// before the phase ends, so a checkpoint cut afterwards captures it.
fn committed_phase(dsm: &Dsm, salt: u64) {
    let lock = LockId::new(0);
    let mut a = dsm.handle(ProcId::new(0));
    let mut b = dsm.handle(ProcId::new(1));
    a.acquire(lock).unwrap();
    a.write_u64(8, 100 + salt);
    a.write_u64(520, 200 + salt);
    a.release(lock).unwrap();
    b.acquire(lock).unwrap();
    let seen = b.read_u64(8);
    b.write_u64(1032, seen + salt);
    b.release(lock).unwrap();
}

/// Full-space read-back as `p`, inside the lock (the happens-before edge
/// that makes the read protocol-legal on every engine).
fn read_all(dsm: &Dsm, p: ProcId) -> Vec<u8> {
    let lock = LockId::new(0);
    let mut h = dsm.handle(p);
    h.acquire(lock).unwrap();
    let mut mem = vec![0u8; MEM as usize];
    for (i, chunk) in mem.chunks_mut(PAGE).enumerate() {
        h.read_bytes(i as u64 * PAGE as u64, chunk);
    }
    h.release(lock).unwrap();
    mem
}

/// Checkpoint → encode → decode → restore into a fresh runtime, then run
/// the same continuation on both: final memory must be byte-identical,
/// under either lazy policy.
#[test]
fn restored_runtime_resumes_identically_under_both_lazy_kinds() {
    for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate] {
        let original = build(kind);
        committed_phase(&original, 1);

        let ckpt = original.checkpoint();
        let bytes = ckpt.encode();
        let decoded = EngineCheckpoint::decode(&bytes).expect("round trip");
        assert_eq!(decoded, ckpt, "{kind}: codec round trip");

        let restored = build(kind);
        restored.restore(&decoded).expect("same-shape restore");

        // The same continuation on both runtimes...
        committed_phase(&original, 2);
        committed_phase(&restored, 2);

        // ...ends in the same bytes, from either processor's view.
        for p in [ProcId::new(0), ProcId::new(1)] {
            assert_eq!(
                read_all(&original, p),
                read_all(&restored, p),
                "{kind}: memory diverges after restore (as {p})"
            );
        }
    }
}

/// A checkpoint cut mid-interval captures only *committed* state: a write
/// still sitting in an open interval (no release yet) contributes the
/// page's twin, not the dirty bytes.
#[test]
fn mid_interval_checkpoint_captures_committed_state_only() {
    let lock = LockId::new(0);
    let dsm = build(ProtocolKind::LazyInvalidate);
    committed_phase(&dsm, 1); // addr 8 now holds 101, committed

    let mut a = dsm.handle(ProcId::new(0));
    a.acquire(lock).unwrap();
    a.write_u64(8, 0xDEAD); // dirty, interval still open
    let ckpt = dsm.checkpoint();
    a.release(lock).unwrap();

    let restored = build(ProtocolKind::LazyInvalidate);
    restored.restore(&ckpt).expect("same-shape restore");
    let mut r = restored.handle(ProcId::new(0));
    assert_eq!(
        r.read_u64(8),
        101,
        "the uncommitted write must not appear in the checkpoint"
    );

    // After the release commits it, a fresh checkpoint carries it.
    let after = dsm.checkpoint();
    let restored2 = build(ProtocolKind::LazyInvalidate);
    restored2.restore(&after).expect("same-shape restore");
    let mut r2 = restored2.handle(ProcId::new(0));
    assert_eq!(r2.read_u64(8), 0xDEAD, "the committed write is captured");
}

/// Shape mismatches are rejected, and corrupt bytes are reported as
/// corrupt — never misdecoded.
#[test]
fn incompatible_and_corrupt_checkpoints_are_rejected() {
    let lazy = build(ProtocolKind::LazyInvalidate);
    committed_phase(&lazy, 1);
    let from_lazy = lazy.checkpoint();

    // Shape mismatches are refused: a 4-processor runtime cannot swallow
    // a 2-processor checkpoint.
    let wider = DsmBuilder::new(ProtocolKind::LazyInvalidate, 4, MEM)
        .page_size(PAGE)
        .build()
        .unwrap();
    assert!(matches!(
        wider.restore(&from_lazy),
        Err(CheckpointError::Incompatible(_))
    ));

    // Truncated and magic-mangled bytes are corrupt, loudly.
    let mut bytes = from_lazy.encode();
    assert!(matches!(
        EngineCheckpoint::decode(&bytes[..bytes.len() - 3]),
        Err(CheckpointError::Corrupt(_))
    ));
    bytes[0] = 9; // not the `LRCK` magic
    assert!(matches!(
        EngineCheckpoint::decode(&bytes),
        Err(CheckpointError::Corrupt(_))
    ));
    assert!(matches!(
        EngineCheckpoint::decode(&[]),
        Err(CheckpointError::Corrupt(_))
    ));
}

/// A decodable checkpoint whose pending notice names no diff its store
/// records for the notice's page is refused by both restore and rejoin
/// with the typed error, and neither leaves anything of it behind: the
/// runtime takes a good checkpoint afterwards, and the rejoining
/// processor stays dead until one does.
#[test]
fn a_pending_notice_naming_no_recorded_diff_is_refused() {
    let (live, dead) = (ProcId::new(0), ProcId::new(1));
    let dsm = build(ProtocolKind::LazyInvalidate);
    committed_phase(&dsm, 1);
    let good = dsm.checkpoint();

    // A real pending notice, moved to the last page, which nobody wrote.
    let (noticed, on) = good
        .procs
        .iter()
        .flat_map(|proc| &proc.frames)
        .find_map(|frame| Some((*frame.pending.first()?, frame.page)))
        .expect("a processor has a pending notice after the phase");
    let last = PageId::new((MEM / PAGE as u64) as u32 - 1);
    assert!(on < last, "the notice's own page is another one");
    let mut bad = good.clone();
    bad.procs[dead.index()].frames.push(FrameCheckpoint {
        page: last,
        contents: None,
        valid: false,
        pending: vec![noticed],
    });
    let bad = EngineCheckpoint::decode(&bad.encode()).expect("the bad cut decodes");

    let fresh = build(ProtocolKind::LazyInvalidate);
    let untouched = fresh.checkpoint();
    match fresh.restore(&bad) {
        Err(CheckpointError::Incompatible(why)) => {
            assert!(why.contains("no recorded diff"), "{why}");
        }
        other => panic!("expected Incompatible for the bad cut, got {other:?}"),
    }
    assert_eq!(
        fresh.checkpoint(),
        untouched,
        "a refused restore changes nothing"
    );
    fresh
        .restore(&good)
        .expect("the good cut restores after the refusal");
    assert_eq!(
        fresh.checkpoint(),
        good,
        "the good cut, and nothing of the bad"
    );
    assert_eq!(
        read_all(&fresh, dead),
        read_all(&dsm, dead),
        "the restored notices fetch the diffs they name"
    );

    dsm.declare_dead(dead);
    assert!(matches!(
        dsm.rejoin(dead, &bad),
        Err(CheckpointError::Incompatible(_))
    ));
    assert!(
        dsm.is_dead(dead),
        "a refused rejoin leaves the processor dead"
    );
    dsm.rejoin(dead, &good).expect("the good cut rejoins");
    assert_eq!(read_all(&dsm, dead), read_all(&dsm, live));
}

/// Both processors arrive at barrier 0 (the second from its own thread),
/// completing one episode.
fn barrier_both(dsm: &Dsm) {
    let other = dsm.clone();
    let arriving = std::thread::spawn(move || {
        other
            .handle(ProcId::new(1))
            .barrier(BarrierId::new(0))
            .unwrap();
    });
    dsm.handle(ProcId::new(0))
        .barrier(BarrierId::new(0))
        .unwrap();
    arriving.join().unwrap();
}

/// The death-lease arc, end to end: a dead processor's lease defers GC
/// (bounded, counted), its expiry lets GC advance the store era, a stale
/// pre-death checkpoint is then refused with the *typed*
/// [`CheckpointError::LeaseExpired`], and automatic revival falls back to
/// a cold join from a fresh post-GC cut.
#[test]
fn expired_lease_forces_a_cold_join_from_a_post_gc_cut() {
    let dead = ProcId::new(1);
    // Episode cuts are effectively off (period 100): the newest cut is
    // the death cut, from the pre-GC era — exactly the staleness the
    // cold-join fallback exists for.
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, MEM)
        .page_size(PAGE)
        .locks(1)
        .barriers(1)
        .gc_at_barriers()
        .death_lease(2)
        .checkpoint_every(100)
        .wait_timeout(Duration::from_secs(30))
        .build()
        .unwrap();

    committed_phase(&dsm, 1);
    barrier_both(&dsm);
    let stale = dsm.checkpoint(); // pre-death, pre-GC era
    dsm.declare_dead(dead); // takes the automatic death cut

    // The survivor drives episodes alone. The first completions defer GC
    // (the lease is live); once two episodes pass, the lease expires, GC
    // runs, and the store era advances.
    let mut survivor = dsm.handle(ProcId::new(0));
    for salt in 0..6 {
        survivor.acquire(LockId::new(0)).unwrap();
        survivor.write_u64(8, 1000 + salt);
        survivor.release(LockId::new(0)).unwrap();
        survivor.barrier(BarrierId::new(0)).unwrap();
    }
    let counters = dsm.engine().core().counters();
    assert!(
        counters.gc_deferrals >= 1,
        "the live lease must defer at least one GC round, got {}",
        counters.gc_deferrals
    );
    assert!(
        counters.checkpoints_cut >= 2,
        "baseline and death cuts must have been taken, got {}",
        counters.checkpoints_cut
    );

    // The pre-death cut now belongs to a collected era.
    match dsm.rejoin(dead, &stale) {
        Err(CheckpointError::LeaseExpired(why)) => {
            assert!(
                why.contains("garbage-collected"),
                "the refusal should say why: {why}"
            );
        }
        other => panic!("expected LeaseExpired for the stale cut, got {other:?}"),
    }

    // Automatic revival notices the newest cut is just as stale, cuts
    // fresh post-GC state, and cold-joins from that.
    assert!(dsm.try_revive(dead), "cold join must revive the processor");
    assert!(!dsm.is_dead(dead));

    // The revived processor is fully usable.
    committed_phase(&dsm, 2);
    let mut back = dsm.handle(dead);
    back.acquire(LockId::new(0)).unwrap();
    assert_eq!(
        back.read_u64(8),
        102,
        "revived processor sees committed state"
    );
    back.release(LockId::new(0)).unwrap();
}

/// A two-processor LI runtime whose automatic checkpointer cuts every
/// `every` barrier episodes.
fn auto_checkpointed(every: u64) -> Dsm {
    DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, MEM)
        .page_size(PAGE)
        .locks(1)
        .barriers(1)
        .checkpoint_every(every)
        .wait_timeout(Duration::from_secs(30))
        .build()
        .unwrap()
}

/// The automatic checkpointer's newest cut (one per episode, cut by each
/// episode's closing arrival) is exactly the state a direct cut sees —
/// through the public API only.
#[test]
fn the_latest_automatic_cut_is_the_live_state() {
    let dsm = auto_checkpointed(1);

    // Several committed phases, each sealed by a barrier episode whose
    // closing arrival cuts.
    for salt in 1..=5 {
        committed_phase(&dsm, salt);
        barrier_both(&dsm);
    }

    let latest = dsm.latest_checkpoint().expect("cuts have been taken");
    assert_eq!(
        latest,
        dsm.checkpoint(),
        "the newest automatic cut must equal a direct cut of the live engine"
    );
    let counters = dsm.engine().core().counters();
    assert_eq!(counters.checkpoints_cut, 5, "one cut per episode");
    assert!(counters.checkpoint_bytes > 0, "cut bytes must be metered");
}

/// A period of 3 over 7 episodes cuts at episodes 1 (the first cut is
/// always due), 4 and 7 — and the newest is the live state at 7.
#[test]
fn the_checkpoint_period_skips_episodes_between_cuts() {
    let dsm = auto_checkpointed(3);

    for salt in 1..=7 {
        committed_phase(&dsm, salt);
        barrier_both(&dsm);
    }

    assert_eq!(dsm.engine().core().counters().checkpoints_cut, 3);
    let latest = dsm.latest_checkpoint().expect("cuts have been taken");
    assert_eq!(latest.episode, 7);
    assert_eq!(latest, dsm.checkpoint());
}

/// A refused second death declaration leaves the pre-death cut alone: it
/// panics before cutting, so the cut still holds the committed page only
/// the dead processor had, and revival reads it back.
#[test]
fn a_refused_second_declare_dead_keeps_the_pre_death_cut() {
    let lock = LockId::new(0);
    let dead = ProcId::new(1);
    let dsm = auto_checkpointed(1);

    // Page 1's home is p1: only p1 holds the committed copy of this word.
    let word = PAGE as u64 + 8;
    let mut writer = dsm.handle(dead);
    writer.acquire(lock).unwrap();
    writer.write_u64(word, 0x5eed);
    writer.release(lock).unwrap();
    barrier_both(&dsm);
    dsm.declare_dead(dead);
    let pre_death = dsm.latest_checkpoint().expect("the death cut");

    let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dsm.declare_dead(dead);
    }));
    assert!(again.is_err(), "a second declaration must be refused");
    assert_eq!(
        dsm.latest_checkpoint().expect("the death cut"),
        pre_death,
        "the refused declaration must not cut"
    );

    assert!(dsm.try_revive(dead), "revival from the pre-death cut");
    let mut back = dsm.handle(dead);
    back.acquire(lock).unwrap();
    assert_eq!(back.read_u64(word), 0x5eed, "the revived p1 reads its word");
    back.release(lock).unwrap();
}
