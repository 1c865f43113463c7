//! Regression tests for eager-engine protocol bugs: the cold-miss copy
//! leaking a supplier's *unflushed* epoch writes — the eager analogue of
//! the lazy engine's twin-leak bug (`crates/core/tests/regressions.rs`).
//! The eager leak is masked in most runs because releases flush eagerly,
//! but a cold miss that lands *mid-epoch* under false sharing observed the
//! supplier's live copy before the fix.

use lrc_core::{EngineParams, Policy};
use lrc_eager::EagerEngine;
use lrc_sync::{BarrierId, LockId};
use lrc_vclock::ProcId;

fn p(i: u16) -> ProcId {
    ProcId::new(i)
}

fn l(i: u32) -> LockId {
    LockId::new(i)
}

/// 4 procs, 16 pages of 512 bytes (the lazy regression suite's geometry).
fn engine(policy: Policy) -> EagerEngine {
    let params = EngineParams {
        n_procs: 4,
        mem_bytes: 16 * 512,
        page_bytes: 512,
        ..EngineParams::default()
    };
    EagerEngine::new(policy, &params).unwrap()
}

/// A cold miss served by a processor with an *unflushed* epoch on the page
/// must receive the last reconciled contents (the supplier's twin), never
/// the live copy. Before the fix, the reader here saw 42 mid-epoch.
#[test]
fn cold_miss_does_not_leak_unflushed_epoch_writes() {
    for policy in [Policy::Invalidate, Policy::Update] {
        let mut dsm = engine(policy);
        // Page 0's home is p0, so p0 both writes it and supplies the copy.
        dsm.acquire(p(0), l(0)).unwrap();
        dsm.write_u64(p(0), 8, 42); // open epoch: twin is the zero page
        assert_eq!(
            dsm.read_u64(p(1), 8),
            0,
            "{policy}: p1's cold fetch must see the reconciled (initial) \
             contents, not p0's unflushed write"
        );
        // The release flushes to all cachers (p1 now caches the page):
        // updates apply directly under EU; EI invalidates and the re-read
        // refetches the reconciled copy.
        dsm.release(p(0), l(0)).unwrap();
        assert_eq!(
            dsm.read_u64(p(1), 8),
            42,
            "{policy}: flushed writes must still propagate normally"
        );
    }
}

/// EI barrier completion must crown the holder of the *authoritative*
/// copy. When a release inside the episode already reconciled the page
/// (writebacks into the releaser, buffered writers invalidated), the old
/// code still picked the highest-numbered *buffered* writer — a stale,
/// already-invalidated copy — dropping the releaser's writes, including
/// its own barrier-published data. Found by the recorded-history checker
/// (`tests/hist_threaded.rs`, seed 22); this is the single-threaded
/// reproduction, which fails before the fix.
#[test]
fn barrier_winner_is_the_reconciled_copy_not_a_stale_buffered_writer() {
    let mut dsm = engine(Policy::Invalidate);
    let b = BarrierId::new(0);
    // p1 writes word A of page 0 and arrives: its diff is buffered for
    // episode-end resolution, its twin is consumed.
    dsm.write_u64(p(1), 8, 111);
    dsm.barrier(p(1), b).unwrap();
    // p2 writes word B of the same page (false sharing) and flushes it at
    // a *release*: p2 becomes the reconciled copy holder and directory
    // owner; p1's copy is invalidated without a writeback (its epoch
    // already sits in the barrier buffer).
    dsm.write_u64(p(2), 16, 222);
    dsm.acquire(p(2), l(0)).unwrap();
    dsm.release(p(2), l(0)).unwrap();
    // The remaining processors arrive; the last arrival completes the
    // episode and resolves page 0: p1's buffered diff must merge into
    // p2's reconciled copy — not the other way around.
    dsm.barrier(p(0), b).unwrap();
    dsm.barrier(p(3), b).unwrap();
    dsm.barrier(p(2), b).unwrap();
    assert_eq!(
        dsm.read_u64(p(2), 16),
        222,
        "the releaser's own write must survive barrier resolution"
    );
    assert_eq!(dsm.read_u64(p(2), 8), 111, "the buffered diff must merge");
    assert_eq!(dsm.read_u64(p(0), 8), 111);
    assert_eq!(dsm.read_u64(p(0), 16), 222);
}

/// Same leak through the 3-hop path: the *owner* (not the home) supplies
/// the copy, and its current epoch's writes must not ride along.
#[test]
fn cold_miss_from_dirty_owner_serves_reconciled_contents() {
    let mut dsm = engine(Policy::Invalidate);
    // p0 takes ownership of page 1 (home p1) with a flushed write.
    dsm.acquire(p(0), l(0)).unwrap();
    dsm.write_u64(p(0), 512, 7);
    // The release invalidates the home's copy and makes p0 the owner.
    dsm.release(p(0), l(0)).unwrap();
    // p0 starts a new, unflushed epoch on the same page (false sharing:
    // a different word).
    dsm.acquire(p(0), l(0)).unwrap();
    dsm.write_u64(p(0), 512 + 16, 99);
    // p3's cold miss forwards through the home to the dirty owner p0. The
    // flushed 7 must arrive; the unflushed 99 must not.
    assert_eq!(dsm.read_u64(p(3), 512), 7, "reconciled write applies");
    assert_eq!(
        dsm.read_u64(p(3), 512 + 16),
        0,
        "open-epoch write must not leak"
    );
    dsm.release(p(0), l(0)).unwrap();
}
