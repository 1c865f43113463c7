//! Would-fail-under-the-old-design regressions for the retired engine-wide
//! `protocol` mutex: a miss stalled inside its fetch phase must not block
//! an acquire of an unrelated lock or a miss on a different page.
//!
//! The proof is structural, not timing-based: a *blocking* fetch hook
//! parks processor 1's miss on page A mid-resolution, and only after the
//! independent slow paths (unrelated lock, page-B miss) have **completed
//! and joined** is the stalled miss released. Under the pre-split design —
//! every slow path serialized on one engine mutex — the independent
//! worker would park behind the stalled miss and the join below would
//! deadline instead of completing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use lrc::dsm::DsmBuilder;
use lrc::pagemem::PageId;
use lrc::sim::ProtocolKind;
use lrc::sync::LockId;
use lrc::vclock::ProcId;

/// Generous deadline: reached only on a real regression (a slow path
/// blocked behind the stalled miss), failing the test instead of hanging.
const DEADLINE: Duration = Duration::from_secs(60);

const PAGE_BYTES: usize = 256;

fn addr_of_page(page: u32) -> u64 {
    page as u64 * PAGE_BYTES as u64
}

/// A fetch hook that parks exactly one (proc, page) miss until released,
/// and reports when the victim has entered its fetch phase.
struct StallHook {
    entered_rx: mpsc::Receiver<()>,
    release_tx: mpsc::Sender<()>,
}

fn stall_hook(victim_proc: ProcId, victim_page: PageId) -> (lrc::core::FetchHook, StallHook) {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = std::sync::Mutex::new(release_rx);
    let hook: lrc::core::FetchHook = Box::new(move |p, page| {
        if p == victim_proc && page == victim_page {
            entered_tx.send(()).expect("test alive");
            release_rx
                .lock()
                .expect("hook mutex")
                .recv_timeout(DEADLINE)
                .expect("stalled miss must be released by the test");
        }
    });
    (
        hook,
        StallHook {
            entered_rx,
            release_tx,
        },
    )
}

/// Lazy engine: while p1's miss on page A is stalled inside its fetch
/// phase, p2 acquires an unrelated lock, resolves a miss on page B, and
/// releases — to completion. Verified by joining p2 *before* releasing
/// the stalled miss, and by the engine's contention counters.
#[test]
fn lazy_stalled_miss_blocks_neither_unrelated_lock_nor_other_page() {
    let page_a = PageId::new(2); // page B is page 5, read via addr_of_page
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 3, 1 << 14)
        .page_size(PAGE_BYTES)
        .wait_timeout(DEADLINE)
        .build()
        .expect("valid config");
    let (hook, stall) = stall_hook(ProcId::new(1), page_a);
    dsm.engine().set_fetch_hook(hook);

    let victim_done = Arc::new(AtomicBool::new(false));
    let (p2_done_tx, p2_done_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let dsm_victim = dsm.clone();
        let victim_done_flag = Arc::clone(&victim_done);
        scope.spawn(move || {
            let mut p1 = dsm_victim.handle(ProcId::new(1));
            // Cold miss on page A: parks in the fetch hook.
            let _ = p1.read_u64(addr_of_page(2));
            victim_done_flag.store(true, Ordering::SeqCst);
        });
        stall
            .entered_rx
            .recv_timeout(DEADLINE)
            .expect("p1 reaches its fetch phase");

        // p1 is now mid-miss. An unrelated lock and a different page must
        // flow through the engine regardless.
        let dsm_indep = dsm.clone();
        scope.spawn(move || {
            let mut p2 = dsm_indep.handle(ProcId::new(2));
            p2.acquire(LockId::new(3)).expect("unrelated lock is free");
            let _ = p2.read_u64(addr_of_page(5)); // miss on page B
            p2.write_u64(addr_of_page(5), 7);
            p2.release(LockId::new(3)).expect("held");
            p2_done_tx.send(()).expect("test alive");
        });
        p2_done_rx.recv_timeout(DEADLINE).expect(
            "independent slow paths must complete while the page-A miss \
             is stalled — under the old global protocol mutex this join \
             deadlines",
        );
        assert!(
            !victim_done.load(Ordering::SeqCst),
            "the page-A miss must still be stalled when the independent \
             worker finishes"
        );
        stall.release_tx.send(()).expect("victim waiting");
    });

    let counters = dsm.engine().core().counters();
    assert!(
        counters.miss_inflight_peak >= 2,
        "page-B miss must have been in flight concurrently with the \
         stalled page-A miss (peak = {})",
        counters.miss_inflight_peak
    );
    assert_eq!(
        counters.slow_waits, 0,
        "disjoint locks and pages must not serialize against each other"
    );
    assert!(
        counters.slow_waits_avoided >= 1,
        "overlapping independent slow paths are exactly the waits the old \
         protocol mutex imposed (avoided = {})",
        counters.slow_waits_avoided
    );
    assert_eq!(
        counters.snapshot_retries, 0,
        "no GC ran: no stale snapshots"
    );
}

/// Eager engine parity: a stalled directory miss on page A blocks neither
/// an unrelated acquire nor a page-B miss.
#[test]
fn eager_stalled_miss_blocks_neither_unrelated_lock_nor_other_page() {
    let page_a = PageId::new(2);
    let dsm = DsmBuilder::new(ProtocolKind::EagerInvalidate, 3, 1 << 14)
        .page_size(PAGE_BYTES)
        .wait_timeout(DEADLINE)
        .build()
        .expect("valid config");
    let (hook, stall) = stall_hook(ProcId::new(1), page_a);
    dsm.engine().set_fetch_hook(hook);

    let (p2_done_tx, p2_done_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let dsm_victim = dsm.clone();
        scope.spawn(move || {
            let mut p1 = dsm_victim.handle(ProcId::new(1));
            let _ = p1.read_u64(addr_of_page(2));
        });
        stall
            .entered_rx
            .recv_timeout(DEADLINE)
            .expect("p1 reaches its fetch phase");

        let dsm_indep = dsm.clone();
        scope.spawn(move || {
            let mut p2 = dsm_indep.handle(ProcId::new(2));
            p2.acquire(LockId::new(3)).expect("unrelated lock is free");
            let _ = p2.read_u64(addr_of_page(5));
            p2.release(LockId::new(3)).expect("held");
            p2_done_tx.send(()).expect("test alive");
        });
        p2_done_rx.recv_timeout(DEADLINE).expect(
            "independent slow paths must complete while the page-A miss \
             is stalled",
        );
        stall.release_tx.send(()).expect("victim waiting");
    });

    let counters = dsm.engine().core().counters();
    assert!(
        counters.miss_inflight_peak >= 2,
        "concurrent misses in flight (peak = {})",
        counters.miss_inflight_peak
    );
    assert_eq!(
        counters.slow_waits, 0,
        "disjoint locks and pages must not serialize against each other"
    );
    assert!(counters.slow_waits_avoided >= 1);
}

/// Same-page followers serialize on the resolver (the in-flight-miss
/// table), not on the engine: two processors missing the *same* page both
/// resolve — the counters see the wait — while the data stays correct.
#[test]
fn same_page_followers_wait_on_the_resolver_and_still_resolve() {
    let page_a = PageId::new(3);
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 3, 1 << 14)
        .page_size(PAGE_BYTES)
        .wait_timeout(DEADLINE)
        .build()
        .expect("valid config");
    let (hook, stall) = stall_hook(ProcId::new(1), page_a);
    dsm.engine().set_fetch_hook(hook);

    // Publish a value on page A so both misses must really fetch.
    {
        let mut p0 = dsm.handle(ProcId::new(0));
        p0.acquire(LockId::new(0)).expect("free");
        p0.write_u64(addr_of_page(3), 42);
        p0.release(LockId::new(0)).expect("held");
    }
    std::thread::scope(|scope| {
        let dsm_victim = dsm.clone();
        scope.spawn(move || {
            let mut p1 = dsm_victim.handle(ProcId::new(1));
            p1.acquire(LockId::new(0)).expect("free");
            assert_eq!(p1.read_u64(addr_of_page(3)), 42, "p1 reads the publish");
            p1.release(LockId::new(0)).expect("held");
        });
        stall
            .entered_rx
            .recv_timeout(DEADLINE)
            .expect("p1 reaches its fetch phase");
        // p2 misses the same page: it must wait for p1's resolution (the
        // gate), then resolve on its own — never skip.
        let dsm_follower = dsm.clone();
        let follower = scope.spawn(move || {
            let mut p2 = dsm_follower.handle(ProcId::new(2));
            p2.acquire(LockId::new(1)).expect("free");
            let _ = p2.read_u64(addr_of_page(3));
            p2.release(LockId::new(1)).expect("held");
        });
        // Release the resolver; the follower can only finish afterwards.
        stall.release_tx.send(()).expect("victim waiting");
        follower.join().expect("follower completes");
    });

    let counters = dsm.engine().core().counters();
    assert!(
        counters.misses() >= 2,
        "both processors resolved their own miss (misses = {})",
        counters.misses()
    );
}
