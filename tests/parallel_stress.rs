//! Multi-threaded stress tests of the sharded runtime: repeated
//! `Dsm::parallel` runs hammering contended locks, reused barriers, and
//! mixed fast-path traffic, to shake out lost wake-ups and ordering bugs
//! in the per-shard locking. Each run also checks an end-to-end
//! correctness invariant (lock-protected counters must not lose
//! increments), so a protocol-level race shows up as a wrong value, not
//! just a hang.
//!
//! Every blocking wait is bounded by [`DEADLINE`]: a lost wake-up fails
//! the test with a stuck-waiter report (processor, lock/barrier, current
//! holder or episode) instead of hanging CI until the harness timeout.

use std::sync::{mpsc, Mutex};
use std::time::Duration;

use lrc::dsm::{DsmBuilder, DsmError};
use lrc::pagemem::PageId;
use lrc::sim::ProtocolKind;
use lrc::sync::{BarrierArrival, BarrierId, LockId};
use lrc::vclock::ProcId;

/// Generous for the slowest CI runner, but finite: a wait this long means
/// a wake-up was lost, and the runtime panics with a diagnostic naming
/// the stuck waiter.
const DEADLINE: Duration = Duration::from_secs(60);

/// Contended-lock stress: every processor increments every lock-guarded
/// counter; no increment may be lost and no waiter may sleep through a
/// release. Repeated runs vary thread interleavings.
#[test]
fn contended_lock_counters_lose_no_increments() {
    const PROCS: usize = 4;
    const LOCKS: u32 = 3;
    const ROUNDS: u64 = 40;
    const REPEATS: usize = 5;
    for kind in ProtocolKind::ALL {
        for repeat in 0..REPEATS {
            let dsm = DsmBuilder::new(kind, PROCS, 1 << 16)
                .page_size(512)
                .wait_timeout(DEADLINE)
                .locks(LOCKS as usize)
                .build()
                .unwrap();
            dsm.parallel(|proc| {
                for round in 0..ROUNDS {
                    let lock = LockId::new((round % LOCKS as u64) as u32);
                    // Each lock guards its own page: no false sharing
                    // between critical sections, plenty within one.
                    let addr = 512 * (lock.raw() as u64 + 1);
                    proc.acquire(lock)?;
                    let v = proc.read_u64(addr);
                    proc.write_u64(addr, v + 1);
                    proc.release(lock)?;
                }
                Ok(())
            })
            .unwrap();
            // Read the final counters under their locks (so the reader is
            // properly synchronized with the last writer).
            let mut reader = dsm.handle(ProcId::new(0));
            for lock in 0..LOCKS {
                reader.acquire(LockId::new(lock)).unwrap();
                let got = reader.read_u64(512 * (lock as u64 + 1));
                let rounds_on_lock = (0..ROUNDS)
                    .filter(|r| r % LOCKS as u64 == lock as u64)
                    .count();
                let expected = PROCS as u64 * rounds_on_lock as u64;
                assert_eq!(
                    got, expected,
                    "{kind} repeat {repeat} lock {lock}: lost increments"
                );
                reader.release(LockId::new(lock)).unwrap();
            }
        }
    }
}

/// Multi-lock contention: disjoint pairs of processors contend on
/// *different* locks simultaneously, then every processor sweeps every
/// lock in a proc-dependent rotation. With per-lock wait queues a release
/// wakes only its own lock's waiters; this test fails (lost increments or
/// a hang) if a wake-up is misrouted or lost, and under the old global
/// condvar it measured the spurious-wakeup storm it replaces.
#[test]
fn disjoint_and_rotating_multi_lock_contention() {
    const PROCS: usize = 4;
    const LOCKS: u32 = 4;
    const ROUNDS: u64 = 60;
    for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate] {
        let dsm = DsmBuilder::new(kind, PROCS, 1 << 16)
            .page_size(512)
            .wait_timeout(DEADLINE)
            .locks(LOCKS as usize)
            .build()
            .unwrap();
        dsm.parallel(|proc| {
            let me = proc.proc().index() as u64;
            // Phase 1: procs {0,1} hammer lock 0 while {2,3} hammer lock 1
            // — two independent wait queues active at once.
            let pair_lock = LockId::new((me / 2) as u32);
            let pair_addr = 512 * (pair_lock.raw() as u64 + 1);
            for _ in 0..ROUNDS {
                proc.acquire(pair_lock)?;
                let v = proc.read_u64(pair_addr);
                proc.write_u64(pair_addr, v + 1);
                proc.release(pair_lock)?;
            }
            // Phase 2: every processor sweeps every lock, each starting at
            // a different offset so all queues stay contended.
            for round in 0..ROUNDS {
                let lock = LockId::new(((me + round) % LOCKS as u64) as u32);
                let addr = 512 * (lock.raw() as u64 + 1) + 8;
                proc.acquire(lock)?;
                let v = proc.read_u64(addr);
                proc.write_u64(addr, v + 1);
                proc.release(lock)?;
            }
            Ok(())
        })
        .unwrap();
        let mut reader = dsm.handle(ProcId::new(0));
        for lock in 0..LOCKS {
            reader.acquire(LockId::new(lock)).unwrap();
            let pair = reader.read_u64(512 * (lock as u64 + 1));
            let sweep = reader.read_u64(512 * (lock as u64 + 1) + 8);
            reader.release(LockId::new(lock)).unwrap();
            if lock < 2 {
                assert_eq!(
                    pair,
                    2 * ROUNDS,
                    "{kind} lock {lock}: pair-phase lost increments"
                );
            } else {
                assert_eq!(
                    pair, 0,
                    "{kind} lock {lock}: pair phase never used this lock"
                );
            }
            assert_eq!(
                sweep,
                PROCS as u64 * ROUNDS / LOCKS as u64,
                "{kind} lock {lock}: sweep-phase lost increments"
            );
        }
    }
}

/// Barrier stress: many episodes of the same two barriers back to back.
/// A lost episode wake-up deadlocks the test (caught by the harness
/// timeout); an ordering bug trips the read assertions.
#[test]
fn repeated_barrier_episodes_complete() {
    const PROCS: usize = 4;
    const ROUNDS: u64 = 50;
    for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::EagerInvalidate] {
        let dsm = DsmBuilder::new(kind, PROCS, 1 << 16)
            .page_size(512)
            .wait_timeout(DEADLINE)
            .barriers(2)
            .build()
            .unwrap();
        dsm.parallel(|proc| {
            let me = proc.proc().index() as u64;
            for round in 0..ROUNDS {
                proc.write_u64(8 * me, round);
                proc.barrier(BarrierId::new((round % 2) as u32))?;
                for other in 0..PROCS as u64 {
                    assert_eq!(proc.read_u64(8 * other), round, "{kind}: stale phase data");
                }
                proc.barrier(BarrierId::new(((round + 1) % 2) as u32))?;
            }
            Ok(())
        })
        .unwrap();
    }
}

/// Mixed stress: private fast-path traffic interleaved with contended
/// locks and barriers, repeatedly, on one shared `Dsm`. This is the
/// closest to a real workload: most operations never leave the shard,
/// while the slow paths constantly rearrange shared state underneath.
#[test]
fn mixed_fast_and_slow_paths_stay_consistent() {
    const PROCS: usize = 4;
    const ROUNDS: u64 = 30;
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, PROCS, 1 << 18)
        .page_size(1024)
        .wait_timeout(DEADLINE)
        .locks(2)
        .barriers(1)
        .build()
        .unwrap();
    let shared = 0u64; // page 0: lock-guarded
    let lock = LockId::new(0);
    for _run in 0..3 {
        dsm.parallel(|proc| {
            let me = proc.proc().index() as u64;
            let private = (16 + me) * 1024; // one private page each
            for round in 0..ROUNDS {
                // Fast path: hammer the private page.
                for i in 0..32 {
                    proc.write_u64(private + 8 * (i % 16), round * 1000 + i);
                    let v = proc.read_u64(private + 8 * (i % 16));
                    assert_eq!(v, round * 1000 + i, "private data corrupted");
                }
                // Slow path: bump the shared counter.
                proc.acquire(lock)?;
                let v = proc.read_u64(shared);
                proc.write_u64(shared, v + 1);
                proc.release(lock)?;
                if round % 10 == 9 {
                    proc.barrier(BarrierId::new(0))?;
                }
            }
            Ok(())
        })
        .unwrap();
    }
    let mut reader = dsm.handle(ProcId::new(0));
    reader.acquire(lock).unwrap();
    assert_eq!(
        reader.read_u64(shared),
        3 * PROCS as u64 * ROUNDS,
        "shared counter lost increments across runs"
    );
    reader.release(lock).unwrap();
}

/// Runs `wait` on its own thread and returns the message it panics with.
/// The panic must come within 30 s: the result is relayed over a channel
/// so that a waiter that never gives up fails the test instead of hanging
/// it.
fn stuck_waiter_report(wait: impl FnOnce() -> Result<(), DsmError> + Send + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(std::thread::spawn(wait).join());
    });
    let panic = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the waiter must hit its deadline within 30 s, not hang")
        .expect_err("the waiter must panic, not return");
    panic
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

/// The deadline machinery itself: a genuinely stuck waiter (the holder
/// never releases, a processor never arrives) must fail within the bound,
/// and the panic message must name the waiter and what it waits for — the
/// stuck-waiter report this suite relies on instead of hanging. The
/// deadline holds under suspicion too: a failure-detector period far
/// longer than the deadline must not postpone it.
#[test]
fn exceeded_deadline_reports_the_stuck_waiter() {
    let deadline = Duration::from_millis(100);
    let lock = LockId::new(1);
    let builders = [
        DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14).wait_timeout(deadline),
        DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14)
            .wait_timeout(deadline)
            .holder_timeout(Duration::from_secs(3600)),
    ];
    for builder in builders {
        let dsm = builder.page_size(512).build().unwrap();
        let mut holder = dsm.handle(ProcId::new(0));
        holder.acquire(lock).unwrap(); // never released
        let mut waiter = dsm.handle(ProcId::new(1));
        let message = stuck_waiter_report(move || waiter.acquire(lock));
        assert!(message.contains("deadline exceeded"), "{message}");
        assert!(message.contains("p1"), "names the waiter: {message}");
        assert!(message.contains("lk1"), "names the lock: {message}");
        assert!(
            message.contains("held by p0"),
            "names the holder: {message}"
        );
        holder.release(lock).unwrap();
    }

    // A barrier waiter: one episode completes, then p0 never arrives for
    // the second.
    let barrier = BarrierId::new(1);
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14)
        .page_size(512)
        .wait_timeout(deadline)
        .build()
        .unwrap();
    dsm.parallel(|p| p.barrier(barrier)).unwrap();
    let mut waiter = dsm.handle(ProcId::new(1));
    let message = stuck_waiter_report(move || waiter.barrier(barrier));
    assert!(message.contains("deadline exceeded"), "{message}");
    assert!(message.contains("p1"), "names the waiter: {message}");
    assert!(message.contains("br1"), "names the barrier: {message}");
    assert!(
        message.contains("episode 1"),
        "names the episode: {message}"
    );

    // A miss on a page another processor is fetching: p1's fetch of page
    // 3 never returns (its hook waits on a gate the test opens at the
    // end), and p2 misses the same page. Such a wait has nobody to
    // suspect, and its empty suspicion rounds must not postpone the
    // deadline.
    let (page, addr) = (PageId::new(3), 3 * 512);
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 3, 1 << 14)
        .page_size(512)
        .wait_timeout(deadline)
        .holder_timeout(Duration::from_millis(10))
        .build()
        .unwrap();
    let (entered_tx, entered_rx) = mpsc::channel();
    let (open_tx, open_rx) = mpsc::channel::<()>();
    let open_rx = Mutex::new(open_rx);
    dsm.engine().set_fetch_hook(Box::new(move |p, missed| {
        if p == ProcId::new(1) && missed == page {
            entered_tx.send(()).expect("the test waits for the fetch");
            let _ = open_rx.lock().expect("gate").recv();
        }
    }));
    // Publish a value on the page, so that p1's miss really fetches.
    let mut publisher = dsm.handle(ProcId::new(0));
    publisher.acquire(lock).unwrap();
    publisher.write_u64(addr, 7);
    publisher.release(lock).unwrap();
    let mut fetcher = dsm.handle(ProcId::new(1));
    let fetching = std::thread::spawn(move || {
        fetcher.acquire(lock).unwrap();
        let value = fetcher.read_u64(addr);
        fetcher.release(lock).unwrap();
        value
    });
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("p1 reaches its fetch");
    let mut follower = dsm.handle(ProcId::new(2));
    let message = stuck_waiter_report(move || {
        follower.read_u64(addr);
        Ok(())
    });
    assert!(message.contains("deadline exceeded"), "{message}");
    assert!(message.contains("p2"), "names the waiter: {message}");
    assert!(message.contains("pg3"), "names the page: {message}");
    open_tx.send(()).expect("p1 is still fetching");
    assert_eq!(fetching.join().expect("p1 finishes its miss"), 7);
}

/// A release and a closing barrier arrival made through `Dsm::engine`
/// wake a processor blocked in `ProcHandle::acquire` and
/// `ProcHandle::barrier`: they run the runtime's own release and
/// arrival, not the engine's alone.
#[test]
fn engine_releases_and_arrivals_wake_blocked_handles() {
    let (lock, barrier) = (LockId::new(0), BarrierId::new(0));
    let (p0, p1) = (ProcId::new(0), ProcId::new(1));
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14)
        .page_size(512)
        .wait_timeout(Duration::from_secs(5))
        .build()
        .unwrap();
    dsm.engine().acquire(p0, lock).unwrap();
    let mut waiter = dsm.handle(p1);
    let (done_tx, done) = mpsc::channel();
    std::thread::spawn(move || {
        waiter.acquire(lock).unwrap();
        done_tx.send("acquired").unwrap();
        waiter.release(lock).unwrap();
        waiter.barrier(barrier).unwrap();
        done_tx.send("passed the barrier").unwrap();
    });
    // Give p1 time to park; were it not parked yet, it would simply
    // find the lock free or the episode complete.
    std::thread::sleep(Duration::from_millis(100));
    dsm.engine().release(p0, lock).unwrap();
    let step = done.recv_timeout(Duration::from_secs(30));
    assert_eq!(step, Ok("acquired"), "the release woke p1");
    std::thread::sleep(Duration::from_millis(100));
    let arrival = dsm.engine().barrier(p0, barrier).unwrap();
    assert!(matches!(arrival, BarrierArrival::Complete { .. }));
    let step = done.recv_timeout(Duration::from_secs(30));
    assert_eq!(step, Ok("passed the barrier"), "the arrival woke p1");
}
