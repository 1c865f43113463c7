//! Tests of barrier-time garbage collection — the TreadMarks-style answer
//! to the unbounded consistency-history problem the paper leaves open.

use lrc_core::{EngineParams, LrcEngine, Miss, Policy};
use lrc_pagemem::Diff;
use lrc_sync::{BarrierId, LockId};
use lrc_vclock::{IntervalId, ProcId};
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

/// A collecting engine whose dead processors' leases expire at once, so
/// the episode a death completes collects.
fn zero_lease_engine(n_procs: usize) -> LrcEngine {
    let params = EngineParams {
        n_procs,
        death_lease_episodes: Some(0),
        ..params(true)
    };
    LrcEngine::new(Policy::Invalidate, &params).unwrap()
}

#[test]
fn gc_empties_the_store_at_every_barrier() {
    let mut dsm = engine(Policy::Invalidate);
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
        let mut dsm = engine(policy);
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
    let mut dsm = engine(Policy::Invalidate);
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
    let mut dsm = engine(Policy::Invalidate);
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

/// Only a collection rewrites the history, and none can run while a live
/// processor's miss sits between its plan and its apply. A death can
/// land there: it completes the barrier, the collection runs, and the
/// miss resumes against a new era. The death dropped the miss, so the
/// finish reports that instead of applying a stale plan, and installs
/// nothing into the dead processor's reset frame.
#[test]
fn a_miss_resumed_across_its_own_death_fails_loudly() {
    let mut dsm = zero_lease_engine(3);
    let (lock, barrier) = (LockId::new(0), BarrierId::new(0));
    let page = dsm.space().page_of(0);
    // p1 writes the page and p0 learns of it, so p0's miss plans a diff
    // the collection below discards.
    dsm.acquire(p(1), lock).unwrap();
    dsm.write_u64(p(1), 0, 7);
    dsm.release(p(1), lock).unwrap();
    dsm.acquire(p(0), lock).unwrap();

    // p0's cold miss stops between its halves, as a stalled fetch does.
    let Miss::Fetching(ticket) = dsm.begin_miss(p(0), page) else {
        panic!("p0's cold miss fetches");
    };
    dsm.barrier(p(1), barrier).unwrap();
    dsm.barrier(p(2), barrier).unwrap();
    let report = dsm.declare_dead(p(0));
    assert_eq!(report.completed_episodes.len(), 1);
    assert_eq!(dsm.counters().gc_rounds, 1, "the death collected");
    assert!(
        !dsm.finish_miss(ticket),
        "the death dropped the miss: its plan is not applied"
    );
    assert!(
        dsm.shard(p(0)).pages[page.index()].copy.is_none(),
        "the dead frame stays without a copy"
    );
}

/// A lease-expired collection re-homes each page whose post-GC owner is
/// dead onto a live frame, one of two ways: (a) a live processor's
/// resident copy, just validated, becomes the owner and nothing is
/// installed; (b) with no resident copy, the page is rebuilt in the
/// fallback frame — the lowest live processor's — from the death escrow
/// plus this era's diff chain in happened-before order. Either way a
/// third processor's cold read returns the dead writer's last value.
#[test]
fn dead_writers_pages_rehome_from_a_resident_copy_or_the_escrow() {
    // p0 writes and dies, p1 is the fallback, p2 may cache the page, and
    // p3 reads it cold after the collection.
    let (writer, fallback, cacher, reader) = (p(0), p(1), p(2), p(3));
    let (lock, barrier) = (LockId::new(0), BarrierId::new(0));
    // Two words of page 2: the first is written only before the first
    // collection, so after it only the escrow remembers it.
    let (first, second) = (2 * 512, 2 * 512 + 8);
    for resident_copy in [true, false] {
        let case = if resident_copy { "(a)" } else { "(b)" };
        let mut dsm = zero_lease_engine(4);
        let page = dsm.space().page_of(first);
        let locked_write = |dsm: &mut LrcEngine, addr: u64, value: u64| -> IntervalId {
            dsm.acquire(writer, lock).unwrap();
            let interval = IntervalId::new(writer, dsm.clock(writer).get(writer));
            dsm.write_u64(writer, addr, value);
            dsm.release(writer, lock).unwrap();
            interval
        };

        // Era 0: the collection makes the writer the page's owner.
        locked_write(&mut dsm, first, 11);
        for i in 0..4 {
            dsm.barrier(p(i), barrier).unwrap();
        }
        if resident_copy {
            assert_eq!(dsm.read_u64(cacher, first), 11, "{case}");
        }
        // Era 1: two diffs on one word, then the writer dies while the
        // others wait at the barrier, and its death completes the episode.
        let chain: Vec<Diff> = [
            locked_write(&mut dsm, second, 21),
            locked_write(&mut dsm, second, 22),
        ]
        .into_iter()
        .map(|iv| dsm.store().diff(iv, page).expect("recorded").clone())
        .collect();
        for r in [fallback, cacher, reader] {
            dsm.barrier(r, barrier).unwrap();
        }
        dsm.declare_dead(writer);
        assert_eq!(dsm.counters().gc_rounds, 2, "{case}");

        let installed = dsm.shard(fallback).pages[page.index()].copy.clone();
        if resident_copy {
            assert!(installed.is_none(), "{case}: nothing installed");
            assert!(dsm.page_valid(cacher, page), "{case}");
        } else {
            let mut rebuilt = installed.expect("(b): rebuilt in the fallback frame");
            assert!(dsm.page_valid(fallback, page), "{case}");
            assert_eq!(rebuilt.read_u64(8), 22, "{case}");
            // The order matters: newest-first leaves the older value.
            for diff in chain.iter().rev() {
                diff.apply_to(&mut rebuilt);
            }
            assert_eq!(rebuilt.read_u64(8), 21, "{case}: newest-first");
        }
        assert_eq!(dsm.read_u64(reader, first), 11, "{case}");
        assert_eq!(dsm.read_u64(reader, second), 22, "{case}");
    }
}
