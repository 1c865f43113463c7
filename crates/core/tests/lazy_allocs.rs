//! Allocation fence for the lazy engine's bookkeeping, counted by a global
//! allocator. Interval records, diffs, stamps and pending notices live in
//! per-processor buffers that a collection truncates and keeps: once a
//! round of lock hand-offs and a collecting barrier has run, the next
//! round makes no allocation call at all. Without collection the history
//! grows, and its buffers double as it does, so a thousand rounds make a
//! logarithmic number of calls. A fresh engine's shards are built with
//! room for their slow paths' lists, so even its first round allocates
//! little beyond the pages it touches. The binary holds a single test, so
//! no other test thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lrc_core::{EngineParams, LrcEngine, Miss, Policy};
use lrc_sync::{BarrierId, LockId};
use lrc_vclock::ProcId;
use parking_lot::lockdep::{self, Mode};

/// `System` plus a counter of allocation calls (`realloc` included, so a
/// growing buffer counts every step). `Relaxed` suffices: the counter
/// publishes no other data.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning how many allocation calls it made.
fn counted(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

const PAGE: u64 = 512;

fn p(i: u16) -> ProcId {
    ProcId::new(i)
}

/// One round on pages `0..k`, which p0 wrote last: p1 acquires the lock
/// from p0, carrying notices of p0's writes, writes every page — a copy
/// it holds, brought up to date at the acquire under LU and by a warm
/// miss under LI — and releases; p0 acquires from p1 and reads every page
/// back through a warm miss under LI, then writes it; then both meet at
/// the barrier, which collects if the engine does.
fn round(dsm: &mut LrcEngine, k: u64, value: u64) {
    let lock = LockId::new(0);
    dsm.acquire(p(1), lock).unwrap();
    for g in 0..k {
        dsm.write_u64(p(1), g * PAGE, value);
    }
    dsm.release(p(1), lock).unwrap();
    dsm.acquire(p(0), lock).unwrap();
    for g in 0..k {
        assert_eq!(dsm.read_u64(p(0), g * PAGE), value, "p1's write");
        dsm.write_u64(p(0), g * PAGE + 8, value);
    }
    dsm.release(p(0), lock).unwrap();
    for i in 0..2 {
        dsm.barrier(p(i), BarrierId::new(0)).unwrap();
    }
}

/// A two-processor engine over eight pages that has run nothing.
fn fresh(policy: Policy, gc: bool) -> LrcEngine {
    let params = EngineParams {
        n_procs: 2,
        mem_bytes: 8 * PAGE,
        page_bytes: PAGE as usize,
        gc_at_barriers: gc,
        ..EngineParams::default()
    };
    LrcEngine::new(policy, &params).unwrap()
}

/// A two-processor engine in which p0 has written pages `0..k` under the
/// lock and p1 has read them, so that both hold copies, and both have
/// passed the barrier.
fn engine(policy: Policy, gc: bool, k: u64) -> LrcEngine {
    let mut dsm = fresh(policy, gc);
    let lock = LockId::new(0);
    dsm.acquire(p(0), lock).unwrap();
    for g in 0..k {
        dsm.write_u64(p(0), g * PAGE + 8, 1);
        dsm.read_u64(p(1), g * PAGE);
    }
    dsm.release(p(0), lock).unwrap();
    for i in 0..2 {
        dsm.barrier(p(i), BarrierId::new(0)).unwrap();
    }
    dsm
}

/// One more round on a warmed-up collecting engine, with p0's warm miss
/// on page 0 called apart, as the runtime calls it: the allocation calls
/// of the begin/finish pair alone.
fn split_miss_allocs(policy: Policy) -> u64 {
    let mut dsm = engine(policy, true, 1);
    round(&mut dsm, 1, 1);
    round(&mut dsm, 1, 2);
    let lock = LockId::new(0);
    dsm.acquire(p(1), lock).unwrap();
    dsm.write_u64(p(1), 0, 3);
    dsm.release(p(1), lock).unwrap();
    dsm.acquire(p(0), lock).unwrap();
    let page = dsm.space().page_of(0);
    let allocs = counted(|| match dsm.begin_miss(p(0), page) {
        Miss::Fetching(ticket) => assert!(dsm.finish_miss(ticket)),
        other => panic!("{policy:?}: a warm miss fetches, not {other:?}"),
    });
    assert_eq!(dsm.read_u64(p(0), 0), 3, "{policy:?}: p1's write");
    dsm.release(p(0), lock).unwrap();
    allocs
}

#[test]
fn a_collected_lazy_round_makes_no_allocation_calls() {
    // The lock-order verifier allocates as it tracks locks; the fence
    // counts the engine's own calls, so the engine's locks are built
    // untracked even where `LRC_LOCKDEP` is set.
    lockdep::set_mode(Mode::Disabled);
    for policy in [Policy::Invalidate, Policy::Update] {
        for k in [1, 3] {
            let at = format!("{policy:?}, {k} pages");

            // A fresh engine's first round allocates what holds the pages
            // and the first buffers of lists the engine core grows on
            // demand, and nothing for the lazy slow paths' notices, plans
            // or sizing. Per page: a frame at each processor's cold miss
            // or first write (2) and a twin at each processor's first
            // write (2). Per processor: the first buffer of its dirty list
            // and of its spare-twin list (2 × 2). Once: the collection's
            // weight table (1). The interval logs were allocated with the
            // engine.
            let mut dsm = fresh(policy, true);
            let ceiling = 2 * k + 2 * k + 2 * 2 + 1;
            let first = counted(|| round(&mut dsm, k, 1));
            assert!(
                first <= ceiling,
                "{at}: {first} calls in a fresh engine's first round"
            );

            let mut dsm = engine(policy, true, k);
            let warm_up = counted(|| round(&mut dsm, k, 1));
            assert!(warm_up > 0, "{at}: the first round warms up");
            for value in 2..5 {
                let calls = counted(|| round(&mut dsm, k, value));
                assert_eq!(calls, 0, "{at}: round {value} after a collection");
            }
            assert_eq!(dsm.counters().gc_rounds, 5, "{at}");
            assert_eq!(dsm.store().interval_count(), 0, "{at}");

            // No collection: the history of a thousand rounds stays, and
            // each buffer holding it doubles as it grows. The two
            // processors' four log buffers may each double log2(1 000)
            // times; a call per round would make a thousand.
            let mut dsm = engine(policy, false, k);
            round(&mut dsm, k, 1);
            let rounds = 1000;
            let calls = counted(|| {
                for value in 2..2 + rounds {
                    round(&mut dsm, k, value);
                }
            });
            assert!(dsm.store().interval_count() >= 2 * rounds as usize, "{at}");
            let doublings = 2.0 * 4.0 * (rounds as f64).log2();
            assert!(
                calls as f64 <= doublings,
                "{at}: {calls} calls in {rounds} rounds"
            );
        }
    }

    // A warm miss called in its two halves allocates nothing either. (LU
    // brings p0's copy up to date at the acquire, so only LI misses.)
    assert_eq!(
        split_miss_allocs(Policy::Invalidate),
        0,
        "a warm split miss"
    );
}
