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
//!
//! The last three tests put a death or a panic where the mutex is let
//! go — a processor declared dead while its own miss fetches or while
//! it waits, and a fetch hook that panics — and require a value
//! (`DsmError::Dead`) or a surfaced panic, and no page left busy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lrc::core::EngineOp;
use lrc::dsm::{Dsm, DsmBuilder, DsmError};
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
        // Release the resolver once p2 has found the page busy (its miss
        // counts one slow wait, and parks in the same hold of the
        // runtime's mutex); the follower can only finish afterwards.
        let start = Instant::now();
        while dsm.engine().core().counters().slow_waits == 0 {
            assert!(start.elapsed() < DEADLINE, "p2 never found the page busy");
            std::thread::yield_now();
        }
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

/// Spins until some processor's miss has found its page busy (it counts
/// one slow wait, and parks in the same hold of the runtime's mutex).
fn await_a_busy_follower(dsm: &Dsm) {
    let start = Instant::now();
    while dsm.engine().core().counters().slow_waits == 0 {
        assert!(start.elapsed() < DEADLINE, "no miss found the page busy");
        std::thread::yield_now();
    }
}

/// A processor declared dead while its own miss fetches. The death drops
/// the miss, so a follower parked on the page goes on at once; the
/// victim's operation, once its fetch returns, ends with
/// `DsmError::Dead` and installs nothing into its reset frame. Run cold
/// under both lazy protocols, and warm (a copy the victim held, then
/// invalidated) under LI.
#[test]
fn a_death_during_the_victims_own_fetch_is_a_value() {
    for (kind, warm) in [
        (ProtocolKind::LazyInvalidate, false),
        (ProtocolKind::LazyInvalidate, true),
        (ProtocolKind::LazyUpdate, false),
    ] {
        let (victim, writer, follower) = (ProcId::new(0), ProcId::new(1), ProcId::new(2));
        let page = PageId::new(1);
        let addr = addr_of_page(1);
        let dsm = DsmBuilder::new(kind, 3, 1 << 14)
            .page_size(PAGE_BYTES)
            .wait_timeout(DEADLINE)
            .build()
            .expect("valid config");
        if warm {
            dsm.handle(victim).read_u64(addr);
        }
        let (hook, stall) = stall_hook(victim, page);
        dsm.engine().set_fetch_hook(hook);
        // The writer publishes under both locks: lock 0 for the victim,
        // lock 1 for the follower.
        let mut w = dsm.handle(writer);
        for lock in [LockId::new(0), LockId::new(1)] {
            w.acquire(lock).expect("free");
            w.write_u64(addr, 42);
            w.release(lock).expect("held");
        }
        std::thread::scope(|scope| {
            let victim_op = scope.spawn(|| {
                let mut h = dsm.handle(victim);
                h.acquire(LockId::new(0))?;
                h.apply(&EngineOp::Read { addr, len: 8 })
            });
            stall
                .entered_rx
                .recv_timeout(DEADLINE)
                .expect("the victim's miss fetches");
            let following = scope.spawn(|| {
                let mut h = dsm.handle(follower);
                h.acquire(LockId::new(1))?;
                let value = h.read_u64(addr);
                h.release(LockId::new(1))?;
                Ok::<_, DsmError>(value)
            });
            await_a_busy_follower(&dsm);
            dsm.declare_dead(victim);
            // Joined while the victim's fetch is still stalled.
            assert_eq!(
                following.join().expect("the follower goes on"),
                Ok(42),
                "{kind} warm={warm}"
            );
            stall.release_tx.send(()).expect("victim waiting");
            assert_eq!(
                victim_op.join().expect("a death is a value, not a panic"),
                Err(DsmError::Dead(victim)),
                "{kind} warm={warm}"
            );
        });
        let cut = dsm.checkpoint();
        assert!(
            cut.procs[victim.index()]
                .frames
                .iter()
                .all(|f| f.contents.is_none() && !f.valid),
            "{kind} warm={warm}: the dead frames stay reset: {:?}",
            cut.procs[victim.index()].frames
        );
    }
}

/// A processor parked on a lock another holds, declared dead: the death
/// wakes it, and it gets `DsmError::Dead` while the lock is still held.
/// The death may land before the park (the entry check refuses the
/// acquire) or after it (the wake-up's check ends the wait); both give
/// the value.
#[test]
fn a_processor_declared_dead_while_parked_gets_dead() {
    for death_first in [true, false] {
        let (victim, holder) = (ProcId::new(0), ProcId::new(1));
        let lock = LockId::new(0);
        let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14)
            .page_size(PAGE_BYTES)
            .wait_timeout(Duration::from_secs(10))
            .build()
            .expect("valid config");
        let mut h = dsm.handle(holder);
        h.acquire(lock).expect("free");
        if death_first {
            dsm.declare_dead(victim);
        }
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| dsm.handle(victim).acquire(lock));
            if !death_first {
                // Long enough for the victim to park behind the holder.
                std::thread::sleep(Duration::from_millis(200));
                dsm.declare_dead(victim);
            }
            assert_eq!(
                parked.join().expect("a death is a value, not a panic"),
                Err(DsmError::Dead(victim)),
                "death_first={death_first}"
            );
        });
        h.release(lock).expect("the holder kept its lock");
    }
}

/// A fetch hook that panics: the panic reaches whoever joins the missing
/// processor's thread, and the miss still ends as it unwinds, so a
/// follower parked on the page goes on well before the wait deadline
/// instead of finding the page busy until then.
#[test]
fn a_panicking_fetch_hook_surfaces_and_frees_its_page() {
    const WAIT: Duration = Duration::from_secs(2);
    let (victim, writer, follower) = (ProcId::new(0), ProcId::new(1), ProcId::new(2));
    let addr = addr_of_page(1);
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 3, 1 << 14)
        .page_size(PAGE_BYTES)
        .wait_timeout(WAIT)
        .build()
        .expect("valid config");
    let (entered_tx, entered_rx) = mpsc::channel();
    let (fail_tx, fail_rx) = mpsc::channel::<()>();
    let fail_rx = std::sync::Mutex::new(fail_rx);
    dsm.engine().set_fetch_hook(Box::new(move |p, _| {
        if p == victim {
            entered_tx.send(()).expect("test alive");
            let go = fail_rx.lock().expect("hook mutex").recv_timeout(DEADLINE);
            go.expect("the test lets the fetch fail");
            panic!("planted fetch failure");
        }
    }));
    let mut w = dsm.handle(writer);
    w.acquire(LockId::new(1)).expect("free");
    w.write_u64(addr, 42);
    w.release(LockId::new(1)).expect("held");
    std::thread::scope(|scope| {
        let victim_read = scope.spawn(|| dsm.handle(victim).read_u64(addr));
        entered_rx
            .recv_timeout(DEADLINE)
            .expect("the victim's miss fetches");
        let following = scope.spawn(|| {
            let mut h = dsm.handle(follower);
            h.acquire(LockId::new(1))?;
            let value = h.read_u64(addr);
            h.release(LockId::new(1))?;
            Ok::<_, DsmError>(value)
        });
        await_a_busy_follower(&dsm);
        let failed_at = Instant::now();
        fail_tx.send(()).expect("hook waiting");
        let panic = victim_read
            .join()
            .expect_err("the hook's panic reaches the joiner");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"planted fetch failure"));
        assert_eq!(following.join().expect("the follower goes on"), Ok(42));
        assert!(
            failed_at.elapsed() < WAIT / 2,
            "the follower waited {:?} for a page nobody fetched",
            failed_at.elapsed()
        );
    });
}
