//! Regression tests for protocol bugs found in the engine's slow paths:
//! the cold-miss base copy leaking a supplier's *uncommitted* open-interval
//! writes, and a failed (contended) acquire mutating interval state.

use lrc_core::{EngineParams, LrcEngine, Policy};
use lrc_sync::{LockError, LockId};
use lrc_vclock::ProcId;

fn p(i: u16) -> ProcId {
    ProcId::new(i)
}

fn l(i: u32) -> LockId {
    LockId::new(i)
}

/// 4 procs, 16 pages of 512 bytes.
fn engine(policy: Policy) -> LrcEngine {
    let params = EngineParams {
        n_procs: 4,
        mem_bytes: 16 * 512,
        page_bytes: 512,
        ..EngineParams::default()
    };
    LrcEngine::new(policy, &params).unwrap()
}

/// A cold miss whose base copy ships from a processor with an *open*
/// (unreleased) interval on the page must not observe that interval's
/// writes: the supplier serves its twin — the last committed contents —
/// not its live copy. Before the fix, the reader here saw 42.
#[test]
fn cold_miss_does_not_leak_unreleased_writes() {
    for policy in [Policy::Invalidate, Policy::Update] {
        let dsm = engine(policy);
        // Page 0's home is p0, so p0 both writes it and supplies the base.
        dsm.write_u64(p(0), 8, 42); // open interval: twin is the zero page
        assert_eq!(
            dsm.read_u64(p(1), 8),
            0,
            "{policy}: p1's cold fetch must see the committed (initial) \
             contents, not p0's unreleased write"
        );
        // Once p0 releases and p1 synchronizes, the write must flow.
        dsm.acquire(p(0), l(0)).unwrap();
        dsm.release(p(0), l(0)).unwrap(); // closes p0's interval
        dsm.acquire(p(1), l(0)).unwrap(); // notice arrives at p1
        assert_eq!(
            dsm.read_u64(p(1), 8),
            42,
            "{policy}: released writes must still propagate normally"
        );
        dsm.release(p(1), l(0)).unwrap();
    }
}

/// Same leak through the warm path of a *diff-supplying* target: the
/// supplier's committed diff must arrive, but the uncommitted writes of its
/// current open interval must not ride along on the base page.
#[test]
fn cold_miss_base_from_diff_supplier_excludes_open_interval() {
    let dsm = engine(Policy::Invalidate);
    // p1 commits a write to page 0 (home p0, but p1 becomes the first
    // diff target for p3's miss below).
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.write_u64(p(1), 0, 7);
    dsm.release(p(1), l(0)).unwrap();
    // p3 learns of p1's interval through the lock.
    dsm.acquire(p(3), l(0)).unwrap();
    // Meanwhile p1 starts a new, unreleased interval on the same page
    // (false sharing: a different word).
    dsm.write_u64(p(1), 16, 99);
    // p3's cold miss fetches base + diff from p1. The committed 7 must
    // arrive; the uncommitted 99 must not.
    assert_eq!(dsm.read_u64(p(3), 0), 7, "committed diff applies");
    assert_eq!(
        dsm.read_u64(p(3), 16),
        0,
        "open-interval write must not leak"
    );
    dsm.release(p(3), l(0)).unwrap();
}

/// A contended acquire fails with `HeldByOther` — the blocking runtime
/// retries it in a loop. The failed attempt must leave interval state
/// completely untouched: no interval close, no clock movement. Before the
/// fix, `close_interval` ran ahead of the lock-table check, so every retry
/// of a blocked acquirer with dirty pages closed an interval.
#[test]
fn failed_contended_acquire_has_no_side_effects() {
    let dsm = engine(Policy::Invalidate);
    dsm.acquire(p(0), l(0)).unwrap();

    // p1 has an open interval with real modifications.
    dsm.write_u64(p(1), 512, 5);
    let clock_before = dsm.clock(p(1));
    let counters_before = dsm.counters();
    let intervals_before = dsm.store().interval_count();

    for _ in 0..3 {
        assert!(matches!(
            dsm.acquire(p(1), l(0)),
            Err(LockError::HeldByOther { .. })
        ));
    }

    assert_eq!(
        dsm.clock(p(1)),
        clock_before,
        "failed acquires must not advance the clock"
    );
    assert_eq!(dsm.store().interval_count(), intervals_before);
    let counters = dsm.counters();
    assert_eq!(
        counters.intervals_closed, counters_before.intervals_closed,
        "failed acquires must not close intervals"
    );
    assert_eq!(counters.acquires, counters_before.acquires);

    // The eventual successful acquire closes exactly one interval.
    dsm.release(p(0), l(0)).unwrap();
    dsm.acquire(p(1), l(0)).unwrap();
    assert_eq!(
        dsm.counters().intervals_closed,
        counters_before.intervals_closed + 1
    );
    dsm.release(p(1), l(0)).unwrap();
}

/// The same invariant under the *update* policy, where acquire-time side
/// effects are heavier (diff pulls for every cached page): a contended
/// acquire must change nothing — no clock movement, no interval, no
/// traffic. Before the acquire-before-`close_interval` fix, every retry
/// with dirty pages closed an interval here too.
#[test]
fn failed_contended_acquire_is_side_effect_free_under_update_policy() {
    let dsm = engine(Policy::Update);
    dsm.acquire(p(0), l(0)).unwrap();

    dsm.write_u64(p(1), 512, 5); // p1 has an open interval
    let clock_before = dsm.clock(p(1));
    let counters_before = dsm.counters();
    let intervals_before = dsm.store().interval_count();
    let net_before = dsm.net().stats();

    for _ in 0..3 {
        assert!(matches!(
            dsm.acquire(p(1), l(0)),
            Err(LockError::HeldByOther { .. })
        ));
    }

    assert_eq!(dsm.clock(p(1)), clock_before);
    assert_eq!(dsm.store().interval_count(), intervals_before);
    let counters = dsm.counters();
    assert_eq!(counters.intervals_closed, counters_before.intervals_closed);
    assert_eq!(counters.updates, counters_before.updates);
    assert_eq!(
        dsm.net().stats(),
        net_before,
        "failed acquires must put nothing on the wire"
    );

    dsm.release(p(0), l(0)).unwrap();
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.release(p(1), l(0)).unwrap();
}

/// A failed acquire must not *split* the open interval. Before the fix,
/// the first failed retry closed the interval mid-stream, so writes
/// before and after the retries landed in two intervals — observable as
/// an extra write notice at the next processor's acquire (and extra
/// notice bytes on the wire).
#[test]
fn retried_acquire_does_not_split_the_open_interval() {
    let dsm = engine(Policy::Invalidate);
    dsm.acquire(p(0), l(0)).unwrap();

    dsm.write_u64(p(1), 512, 1); // open interval, first write
    for _ in 0..2 {
        assert!(dsm.acquire(p(1), l(0)).is_err());
    }
    dsm.write_u64(p(1), 520, 2); // same page, same (still-open) interval

    dsm.release(p(0), l(0)).unwrap();
    dsm.acquire(p(1), l(0)).unwrap(); // closes exactly one interval
    dsm.release(p(1), l(0)).unwrap();
    assert_eq!(
        dsm.store().interval_count(),
        1,
        "both writes belong to one interval"
    );

    // The next acquirer learns p1's modifications as ONE notice: the
    // interval was never split.
    let before = dsm.counters().notices_received;
    dsm.acquire(p(2), l(0)).unwrap();
    assert_eq!(
        dsm.counters().notices_received - before,
        1,
        "one interval, one write notice for the page"
    );
    dsm.release(p(2), l(0)).unwrap();
}

/// A double acquire (`AlreadyHeld`) is misuse, and must be side-effect
/// free for the same reason.
#[test]
fn double_acquire_has_no_side_effects() {
    let dsm = engine(Policy::Invalidate);
    dsm.acquire(p(2), l(1)).unwrap();
    dsm.write_u64(p(2), 1024, 9);
    let clock_before = dsm.clock(p(2));
    assert!(matches!(
        dsm.acquire(p(2), l(1)),
        Err(LockError::AlreadyHeld { .. })
    ));
    assert_eq!(dsm.clock(p(2)), clock_before);
    assert_eq!(dsm.store().interval_count(), 0);
}

/// A release of an unheld lock must not close the open interval either.
#[test]
fn failed_release_has_no_side_effects() {
    let dsm = engine(Policy::Invalidate);
    dsm.write_u64(p(1), 512, 5);
    let clock_before = dsm.clock(p(1));
    assert!(dsm.release(p(1), l(0)).is_err());
    assert_eq!(dsm.clock(p(1)), clock_before);
    assert_eq!(dsm.store().interval_count(), 0);
}
