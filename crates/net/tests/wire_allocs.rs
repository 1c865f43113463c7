//! Allocation fence for the wire codec, counted by a global allocator:
//! encoding a frame is one exact-size allocation, validating a frame
//! borrows its body, and decoding a message that owns no bytes allocates
//! nothing. The binary holds a single test, so no other test thread
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lrc_core::EngineOp;
use lrc_net::{Frame, NoticeBatch, NoticeInterval, WireCtx, WireDiff, WireKind, WireMsg};
use lrc_pagemem::{Diff, PageBuf, PageId, PageSize};
use lrc_sync::{BarrierId, LockId};
use lrc_vclock::{IntervalId, ProcId, VectorClock};

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

/// Runs `f`, returning how many allocation calls it made and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

const N: usize = 3;

fn clock() -> VectorClock {
    let mut vc = VectorClock::new(N);
    vc.set(ProcId::new(0), 4);
    vc.set(ProcId::new(2), 9);
    vc
}

/// One message of every kind, each with non-empty lists and payloads
/// where the kind has them, so a buffer that grows would show.
fn one_of_each_kind() -> Vec<WireMsg> {
    let notices = NoticeBatch {
        intervals: vec![NoticeInterval {
            id: IntervalId::new(ProcId::new(1), 7),
            stamp_entry: 7,
            pages: vec![PageId::new(0), PageId::new(5)],
        }],
    };
    let size = PageSize::new(256).expect("valid page size");
    let twin = PageBuf::zeroed(size);
    let mut cur = twin.clone();
    cur.write(8, &[3; 5]);
    cur.write(100, &[4; 40]);
    let diff = WireDiff {
        page: PageId::new(5),
        stamp: 7,
        diff: Diff::between(&twin, &cur),
    };
    vec![
        WireMsg::Hello {
            node: 1,
            procs: vec![ProcId::new(1), ProcId::new(2)],
        },
        WireMsg::Shutdown,
        WireMsg::OpRequest {
            proc: ProcId::new(1),
            op: EngineOp::Write {
                addr: 640,
                data: vec![1; 4096],
            },
        },
        WireMsg::OpReply {
            result: Ok(vec![9; 4096]),
        },
        WireMsg::LockRequest {
            lock: LockId::new(3),
            acquirer: ProcId::new(1),
            clock: clock(),
        },
        WireMsg::LockForward {
            lock: LockId::new(3),
            acquirer: ProcId::new(1),
            clock: clock(),
        },
        WireMsg::LockGrant {
            lock: LockId::new(3),
            clock: clock(),
            notices: notices.clone(),
            diffs: vec![diff.clone(), diff.clone()],
        },
        WireMsg::BarrierArrival {
            barrier: BarrierId::new(0),
            proc: ProcId::new(2),
            clock: clock(),
            notices: notices.clone(),
        },
        WireMsg::BarrierExit {
            barrier: BarrierId::new(0),
            clock: clock(),
            notices: notices.clone(),
        },
        WireMsg::MissRequest {
            page: PageId::new(5),
            wanted: vec![(IntervalId::new(ProcId::new(1), 7), PageId::new(5))],
            want_base: true,
        },
        WireMsg::MissReply {
            page: PageId::new(5),
            base: Some(vec![0; 256]),
            diffs: vec![diff],
        },
        WireMsg::Notices {
            clock: clock(),
            notices,
        },
        WireMsg::RejoinRequest {
            node: 2,
            proc: ProcId::new(1),
            checkpoint: vec![7; 300],
        },
        WireMsg::RejoinReply {
            result: Err("incompatible checkpoint: store era changed".into()),
        },
    ]
}

#[test]
fn encoding_is_one_allocation_and_decoding_borrows() {
    let msgs = one_of_each_kind();
    let kinds: Vec<WireKind> = msgs.iter().map(WireMsg::kind).collect();
    assert_eq!(
        kinds,
        WireKind::ALL,
        "one message of every kind, in tag order"
    );

    for msg in &msgs {
        let kind = msg.kind();
        let (allocs, bytes) = counted(|| msg.encode_frame(1, 0, 7).encode());
        assert_eq!(allocs, 1, "encoding a {kind} frame");
        let (allocs, validated) =
            counted(|| Frame::decode(&bytes).map(|(frame, used)| (frame.kind, used)));
        assert_eq!(allocs, 0, "validating a {kind} frame");
        assert_eq!(validated, Ok((kind, bytes.len())));
    }

    let ctx = WireCtx { n_procs: N };
    for op in [
        EngineOp::Acquire(LockId::new(3)),
        EngineOp::Release(LockId::new(3)),
        EngineOp::Read { addr: 64, len: 8 },
    ] {
        let msg = WireMsg::OpRequest {
            proc: ProcId::new(1),
            op,
        };
        let bytes = msg.encode_frame(1, 0, 7).encode();
        let (frame, _) = Frame::decode(&bytes).expect("a valid frame");
        let (allocs, decoded) = counted(|| WireMsg::decode(frame.kind, frame.body, &ctx));
        assert_eq!(allocs, 0, "decoding {msg:?}");
        assert_eq!(decoded, Ok(msg));
    }
}
