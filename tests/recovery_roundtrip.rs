//! Checkpoint/restore round trips at the runtime level: a checkpoint cut
//! from a live [`Dsm`], serialized, decoded, and restored into a fresh
//! runtime must resume *identically* — under every protocol family — and
//! incremental deltas between barrier-episode checkpoints must
//! reconstruct the full snapshot exactly.

use std::time::Duration;

use lrc::core::CheckpointError;
use lrc::dsm::{CheckpointPolicy, Dsm, DsmBuilder};
use lrc::sim::{AnyCheckpoint, ProtocolKind};
use lrc::sync::{BarrierId, LockId};
use lrc::vclock::ProcId;
use proptest::prelude::*;

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
/// for every protocol family.
#[test]
fn restored_runtime_resumes_identically_across_all_kinds() {
    for kind in ProtocolKind::ALL {
        let original = build(kind);
        committed_phase(&original, 1);

        let ckpt = original.checkpoint();
        let bytes = ckpt.encode();
        let decoded = AnyCheckpoint::decode(&bytes).expect("round trip");
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

/// Deltas between successive checkpoints reconstruct the full snapshot
/// exactly, round-trip through their codec, and stay smaller than the
/// full checkpoint — the incremental-between-barriers claim.
#[test]
fn incremental_deltas_reconstruct_the_full_checkpoint() {
    let dsm = build(ProtocolKind::LazyInvalidate);
    committed_phase(&dsm, 1);
    let AnyCheckpoint::Lazy(base) = dsm.checkpoint() else {
        panic!("lazy runtime cuts lazy checkpoints");
    };
    committed_phase(&dsm, 2);
    let AnyCheckpoint::Lazy(full) = dsm.checkpoint() else {
        panic!("lazy runtime cuts lazy checkpoints");
    };

    let delta = full.delta_since(&base).expect("same run, same era");
    assert_eq!(
        delta.apply_to(&base).expect("delta applies to its base"),
        full,
        "base + delta must equal the full checkpoint"
    );

    let delta_bytes = delta.encode(full.page_bytes, full.n_pages);
    let decoded = lrc::core::CheckpointDelta::decode(&delta_bytes).expect("delta round trip");
    assert_eq!(decoded, delta);
    assert!(
        delta_bytes.len() < full.encode().len(),
        "a one-phase delta ({}B) should undercut the full checkpoint ({}B)",
        delta_bytes.len(),
        full.encode().len()
    );
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

/// Rejoin is a lazy-engine feature: asking an eager runtime to rejoin a
/// processor is refused with the *typed* [`CheckpointError::Unsupported`]
/// — a property of the engine, distinct from [`CheckpointError::Incompatible`]
/// (a property of the checkpoint), so callers can tell "retry with a
/// better checkpoint" apart from "this engine has no crash story".
#[test]
fn rejoin_on_an_eager_engine_is_a_typed_unsupported_error() {
    for kind in [ProtocolKind::EagerInvalidate, ProtocolKind::EagerUpdate] {
        let dsm = build(kind);
        committed_phase(&dsm, 1);
        let ckpt = dsm.checkpoint();
        match dsm.rejoin(ProcId::new(1), &ckpt) {
            Err(CheckpointError::Unsupported(why)) => assert!(
                why.contains("lazy"),
                "{kind}: the refusal should name the supported family, got: {why}"
            ),
            other => panic!("{kind}: expected Unsupported, got {other:?}"),
        }
        // The refusal is a clean no-op: the runtime stays fully usable.
        committed_phase(&dsm, 2);
    }

    // The complementary confusion — a lazy engine offered an eager-family
    // checkpoint — is the checkpoint's fault, not the engine's.
    let lazy = build(ProtocolKind::LazyInvalidate);
    let eager = build(ProtocolKind::EagerInvalidate);
    committed_phase(&eager, 1);
    assert!(matches!(
        lazy.rejoin(ProcId::new(1), &eager.checkpoint()),
        Err(CheckpointError::Incompatible(_))
    ));
}

/// Family and shape mismatches are rejected, and corrupt bytes are
/// reported as corrupt — never misdecoded.
#[test]
fn incompatible_and_corrupt_checkpoints_are_rejected() {
    let lazy = build(ProtocolKind::LazyInvalidate);
    let eager = build(ProtocolKind::EagerInvalidate);
    committed_phase(&lazy, 1);
    committed_phase(&eager, 1);

    // Cross-family restores are refused.
    let from_lazy = lazy.checkpoint();
    let from_eager = eager.checkpoint();
    assert!(matches!(
        eager.restore(&from_lazy),
        Err(CheckpointError::Incompatible(_))
    ));
    assert!(matches!(
        lazy.restore(&from_eager),
        Err(CheckpointError::Incompatible(_))
    ));

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

    // Truncated and tag-mangled bytes are corrupt, loudly.
    let mut bytes = from_lazy.encode();
    assert!(matches!(
        AnyCheckpoint::decode(&bytes[..bytes.len() - 3]),
        Err(CheckpointError::Corrupt(_))
    ));
    bytes[0] = 9; // unknown family tag
    assert!(matches!(
        AnyCheckpoint::decode(&bytes),
        Err(CheckpointError::Corrupt(_))
    ));
    assert!(matches!(
        AnyCheckpoint::decode(&[]),
        Err(CheckpointError::Corrupt(_))
    ));
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
    // Episode cuts are effectively off (period 100): the shipped chain is
    // the baseline + death cut, both from the pre-GC era — exactly the
    // staleness the cold-join fallback exists for.
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, MEM)
        .page_size(PAGE)
        .locks(1)
        .barriers(1)
        .gc_at_barriers()
        .death_lease(2)
        .checkpoint_policy(CheckpointPolicy::every_episodes(100))
        .wait_timeout(Duration::from_secs(30))
        .build()
        .unwrap();

    committed_phase(&dsm, 1);
    barrier_both(&dsm);
    let stale = dsm.checkpoint(); // pre-death, pre-GC era
    dsm.declare_dead(dead); // ships the automatic death cut

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
        "baseline and death cuts must have shipped, got {}",
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

    // Automatic revival notices the shipped chain is just as stale, cuts
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

/// The automatic checkpointer's shipped chain (full cut + deltas, cut by
/// each episode's closing arrival) reconstructs exactly the state a
/// direct cut sees — through the public API only.
#[test]
fn auto_checkpoint_chain_reconstructs_the_live_state() {
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, MEM)
        .page_size(PAGE)
        .locks(1)
        .barriers(1)
        .checkpoint_policy(CheckpointPolicy::every_episodes(1).rebase_after(3))
        .wait_timeout(Duration::from_secs(30))
        .build()
        .unwrap();

    // Several committed phases, each sealed by a barrier episode: the
    // closing arrivals cut a baseline full plus deltas (rebasing after 3).
    for salt in 1..=5 {
        committed_phase(&dsm, salt);
        barrier_both(&dsm);
    }

    let (latest, _) = dsm.latest_checkpoint().expect("cuts have shipped");
    assert_eq!(
        latest,
        dsm.checkpoint(),
        "the folded sink chain must equal a direct cut of the live engine"
    );
    let counters = dsm.engine().core().counters();
    assert!(
        counters.checkpoints_cut >= 5,
        "one cut per episode, got {}",
        counters.checkpoints_cut
    );
    assert!(counters.delta_bytes > 0, "cut traffic must be metered");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// For any sequence of committed phases, the chain of per-phase deltas
    /// folded onto the original base reconstructs the final full cut
    /// exactly — and every link survives its codec round trip.
    #[test]
    fn delta_chains_fold_back_to_the_full_cut(salts in prop::collection::vec(0u64..50, 1..6)) {
        let dsm = build(ProtocolKind::LazyInvalidate);
        committed_phase(&dsm, 99);
        let AnyCheckpoint::Lazy(origin) = dsm.checkpoint() else {
            panic!("lazy runtime cuts lazy checkpoints");
        };
        let mut base = origin.clone();
        let mut chain = Vec::new();
        for &salt in &salts {
            committed_phase(&dsm, salt);
            let AnyCheckpoint::Lazy(full) = dsm.checkpoint() else {
                panic!("lazy runtime cuts lazy checkpoints");
            };
            let delta = full.delta_since(&base).expect("same run, same era");
            let bytes = delta.encode(full.page_bytes, full.n_pages);
            let decoded = lrc::core::CheckpointDelta::decode(&bytes).expect("delta round trip");
            prop_assert_eq!(&decoded, &delta);
            chain.push(delta);
            base = full;
        }
        let mut folded = origin;
        for delta in &chain {
            folded = delta.apply_to(&folded).expect("chain link applies");
        }
        prop_assert_eq!(folded, base, "folded chain must equal the final cut");
    }
}
