//! Counting global allocator: how many heap allocations, and how many
//! bytes, a stretch of code asked for. The counts back the `alloc.*`
//! per-layer metrics ("fresh `Vec` per frame, copy-out decode" become
//! numbers a later claim can rest on). They are exact on single-threaded
//! stages because nothing else in the process allocates meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System` plus two statistics counters. `Relaxed` suffices: the
/// counters publish no other data.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and requested bytes since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

impl std::ops::AddAssign for Snapshot {
    fn add_assign(&mut self, other: Snapshot) {
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }
}

impl Snapshot {
    /// What was allocated between `earlier` and `self`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
