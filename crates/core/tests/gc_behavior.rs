//! Tests of barrier-time garbage collection — the TreadMarks-style answer
//! to the unbounded consistency-history problem the paper leaves open.

use lrc_core::{EngineParams, LrcEngine, Policy};
use lrc_sync::{BarrierId, LockId};
use lrc_vclock::ProcId;

fn p(i: u16) -> ProcId {
    ProcId::new(i)
}

fn params(gc_at_barriers: bool) -> EngineParams {
    EngineParams {
        n_procs: 4,
        mem_bytes: 16 * 512,
        page_bytes: 512,
        gc_at_barriers,
        ..EngineParams::default()
    }
}

fn engine(policy: Policy) -> LrcEngine {
    LrcEngine::new(policy, &params(true)).unwrap()
}

#[test]
fn gc_empties_the_store_at_every_barrier() {
    let dsm = engine(Policy::Invalidate);
    for round in 0..5u64 {
        for i in 0..4u16 {
            dsm.acquire(p(i), LockId::new(0)).unwrap();
            dsm.write_u64(p(i), 8 * i as u64, round * 10 + i as u64 + 1);
            dsm.release(p(i), LockId::new(0)).unwrap();
        }
        assert!(
            dsm.store().interval_count() > 0,
            "history accumulates between barriers"
        );
        for i in 0..4u16 {
            dsm.barrier(p(i), BarrierId::new(0)).unwrap();
        }
        assert_eq!(
            dsm.store().interval_count(),
            0,
            "round {round}: history collected"
        );
        assert_eq!(dsm.store().diff_count(), 0);
        assert_eq!(dsm.store().diff_bytes(), 0);
    }
    assert_eq!(dsm.counters().gc_rounds, 5);
}

#[test]
fn without_gc_the_store_grows_unboundedly() {
    let mut with = engine(Policy::Invalidate);
    let mut without = LrcEngine::new(Policy::Invalidate, &params(false)).unwrap();
    for dsm in [&mut with, &mut without] {
        for round in 0..10u64 {
            for i in 0..4u16 {
                dsm.acquire(p(i), LockId::new(0)).unwrap();
                dsm.write_u64(p(i), 8 * i as u64, round + 2);
                dsm.release(p(i), LockId::new(0)).unwrap();
            }
            for i in 0..4u16 {
                dsm.barrier(p(i), BarrierId::new(0)).unwrap();
            }
        }
    }
    assert_eq!(with.store().interval_count(), 0);
    assert!(
        without.store().interval_count() >= 40,
        "un-collected history keeps every interval"
    );
}

#[test]
fn values_survive_collection() {
    // Writes before the GC barrier must be readable after it, even though
    // their diffs are gone: resident copies were validated and cold misses
    // fall back to the post-GC owner.
    for policy in [Policy::Invalidate, Policy::Update] {
        let dsm = engine(policy);
        dsm.acquire(p(1), LockId::new(0)).unwrap();
        dsm.write_u64(p(1), 0, 111);
        dsm.write_u64(p(1), 520, 222); // second page
        dsm.release(p(1), LockId::new(0)).unwrap();
        for i in 0..4u16 {
            dsm.barrier(p(i), BarrierId::new(0)).unwrap();
        }
        // p2 cached nothing before the barrier: cold miss after GC.
        assert_eq!(dsm.read_u64(p(2), 0), 111, "{policy}: cold read after GC");
        assert_eq!(dsm.read_u64(p(2), 520), 222, "{policy}");
        // p3 likewise, via the other access path (write-miss).
        dsm.acquire(p(3), LockId::new(0)).unwrap();
        dsm.write_u64(p(3), 8, 333);
        assert_eq!(
            dsm.read_u64(p(3), 0),
            111,
            "{policy}: base preserved under write"
        );
        dsm.release(p(3), LockId::new(0)).unwrap();
    }
}

#[test]
fn chains_across_gc_rounds_stay_consistent() {
    let dsm = engine(Policy::Invalidate);
    let lock = LockId::new(1);
    let mut expected = 0u64;
    for round in 0..6u64 {
        for i in 0..4u16 {
            dsm.acquire(p(i), lock).unwrap();
            let v = dsm.read_u64(p(i), 256);
            assert_eq!(v, expected, "round {round}, proc {i}");
            expected += 1;
            dsm.write_u64(p(i), 256, expected);
            dsm.release(p(i), lock).unwrap();
        }
        for i in 0..4u16 {
            dsm.barrier(p(i), BarrierId::new(0)).unwrap();
        }
    }
    assert_eq!(dsm.read_u64(p(0), 256), 24);
}

#[test]
fn gc_validates_invalid_resident_copies() {
    let dsm = engine(Policy::Invalidate);
    // p2 caches page 0; p1's locked write invalidates it via notices.
    dsm.read_u64(p(2), 0);
    dsm.acquire(p(1), LockId::new(0)).unwrap();
    dsm.write_u64(p(1), 0, 7);
    dsm.release(p(1), LockId::new(0)).unwrap();
    dsm.acquire(p(2), LockId::new(0)).unwrap();
    dsm.release(p(2), LockId::new(0)).unwrap();
    assert!(!dsm.page_valid(p(2), dsm.space().page_of(0)));
    for i in 0..4u16 {
        dsm.barrier(p(i), BarrierId::new(0)).unwrap();
    }
    assert!(
        dsm.page_valid(p(2), dsm.space().page_of(0)),
        "GC brings resident copies up to date"
    );
    assert!(dsm.counters().gc_validated_pages >= 1);
    // And the content is right, with no further traffic.
    let before = dsm.net().snapshot();
    assert_eq!(dsm.read_u64(p(2), 0), 7);
    assert_eq!(dsm.net().stats().since(&before).total().msgs, 0);
}
