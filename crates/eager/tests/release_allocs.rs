//! Allocation fence for eager releases and misses, counted by a global
//! allocator: once a processor has released once, its next release of as
//! many pages makes no allocation call at all, however many processors
//! cache the pages — its flush list, diff buffers and twins are the
//! shard's own, refilled — and a miss into a frame that holds a stale copy
//! refills that copy. The binary holds a single test, so no other test
//! thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lrc_core::{EngineParams, Miss, Policy};
use lrc_eager::EagerEngine;
use lrc_pagemem::PageId;
use lrc_simnet::MsgKind;
use lrc_sync::LockId;
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

/// What two releases in a row cost: the allocation calls of each, and of
/// each warm miss after them, the last one's two halves called apart.
struct Counts {
    releases: [u64; 2],
    warm_misses: Vec<u64>,
}

/// p0 releases, twice, an 8-byte write to each of pages `0..pages` after
/// processors `1..=k` have cached them. Page `g`'s home is `p(g)`, so
/// every cacher but p0 is one of the `k`. Under EI each release
/// invalidates the cachers, and each re-reads its pages after it: a warm
/// miss into a frame that still holds the stale copy.
fn two_releases(policy: Policy, pages: u64, k: u16) -> Counts {
    let params = EngineParams {
        n_procs: 16,
        mem_bytes: 16 * PAGE,
        page_bytes: PAGE as usize,
        ..EngineParams::default()
    };
    let mut dsm = EagerEngine::new(policy, &params).unwrap();
    let (p0, lock) = (ProcId::new(0), LockId::new(0));
    let cachers = || (1..=k).map(ProcId::new);
    for r in cachers() {
        for g in 0..pages {
            dsm.read_u64(r, g * PAGE);
        }
    }
    let mut counts = Counts {
        releases: [0; 2],
        warm_misses: Vec::new(),
    };
    for round in 0..2 {
        dsm.acquire(p0, lock).unwrap();
        for g in 0..pages {
            dsm.write_u64(p0, g * PAGE, round + 1);
        }
        let before = dsm.net().snapshot();
        counts.releases[round as usize] = counted(|| dsm.release(p0, lock).unwrap());
        let delta = dsm.net().stats().since(&before);
        let kind = match policy {
            Policy::Update => MsgKind::ReleaseUpdate,
            Policy::Invalidate => MsgKind::ReleaseInvalidate,
        };
        assert_eq!(
            delta.kind(kind).msgs,
            u64::from(k),
            "one message per cacher"
        );
        if policy == Policy::Invalidate {
            for r in cachers() {
                for g in 0..pages {
                    let page = PageId::new(g as u32);
                    assert!(!dsm.page_valid(r, page), "invalidated");
                    let mut word = 0;
                    let allocs = if r == ProcId::new(k) && g == pages - 1 {
                        // The runtime's way: begin, fetch, finish.
                        let allocs = counted(|| match dsm.begin_miss(r, page) {
                            Miss::Fetching(ticket) => assert!(dsm.finish_miss(ticket)),
                            other => panic!("a warm miss fetches, not {other:?}"),
                        });
                        word = dsm.read_u64(r, g * PAGE);
                        allocs
                    } else {
                        counted(|| word = dsm.read_u64(r, g * PAGE))
                    };
                    assert_eq!(word, round + 1, "the released write");
                    counts.warm_misses.push(allocs);
                }
            }
        }
    }
    counts
}

#[test]
fn a_second_eager_release_and_a_warm_miss_make_no_allocation_calls() {
    // The lock-order verifier allocates as it tracks locks; the fence
    // counts the engine's own calls, so the engines' locks are built
    // untracked even where `LRC_LOCKDEP` is set.
    lockdep::set_mode(Mode::Disabled);
    for policy in [Policy::Update, Policy::Invalidate] {
        for pages in [1, 2] {
            for k in [1, 3, 15] {
                let at = format!("{policy:?}, {pages} pages, {k} other cachers");
                let counts = two_releases(policy, pages, k);
                assert!(counts.releases[0] > 0, "{at}: the first release warms up");
                assert_eq!(counts.releases[1], 0, "{at}: second release");
                let warm = &counts.warm_misses;
                assert!(warm.iter().all(|&n| n == 0), "{at}: warm misses {warm:?}");
            }
        }
    }
}
