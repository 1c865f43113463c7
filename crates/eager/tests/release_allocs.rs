//! Allocation fence for an eager release, counted by a global allocator:
//! an EU release of one write makes the same number of allocation calls
//! however many processors cache the page, because the flush finds its
//! destinations from the copyset bits instead of building a list per
//! destination. The binary holds a single test, so no other test thread
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lrc_core::{EngineParams, Policy};
use lrc_eager::EagerEngine;
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

/// Allocation calls of p0's EU release of one 8-byte write to page 0
/// (home p0) after `k` other processors have cached the page.
fn release_allocs(k: u16) -> u64 {
    let params = EngineParams {
        n_procs: 16,
        mem_bytes: 16 * 512,
        page_bytes: 512,
        ..EngineParams::default()
    };
    let dsm = EagerEngine::new(Policy::Update, &params).unwrap();
    let (p0, lock) = (ProcId::new(0), LockId::new(0));
    for r in 1..=k {
        dsm.read_u64(ProcId::new(r), 0);
    }
    dsm.acquire(p0, lock).unwrap();
    dsm.write_u64(p0, 0, u64::MAX);
    let before = dsm.net().snapshot();
    let allocs = counted(|| dsm.release(p0, lock).unwrap());
    let updates = dsm
        .net()
        .stats()
        .since(&before)
        .kind(MsgKind::ReleaseUpdate)
        .msgs;
    assert_eq!(updates, u64::from(k), "one update per other cacher");
    allocs
}

#[test]
fn an_eu_release_allocates_the_same_for_any_number_of_cachers() {
    // The lock-order verifier allocates as it tracks locks; the fence
    // counts the engine's own calls, so the engines' locks are built
    // untracked even where `LRC_LOCKDEP` is set.
    lockdep::set_mode(Mode::Disabled);
    // A debug build's twin close checks its diff against a whole-page
    // diff, one more allocation.
    let expected = if cfg!(debug_assertions) { 7 } else { 6 };
    for k in [1, 3, 15] {
        assert_eq!(release_allocs(k), expected, "{k} other cachers");
    }
}
