use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use lrc_core::{
    CheckpointError, DeathReport, EngineCheckpoint, EngineCounters, FetchHook, LrcEngine, Miss,
};
use lrc_hist::HistoryRecorder;
use lrc_sim::{AddrSpace, AnyEngine, PageId, ProtocolKind};
use lrc_simnet::NetStats;
use lrc_sync::{BarrierArrival, BarrierError, BarrierId, LockError, LockId};
use lrc_vclock::ProcId;
use parking_lot::lockdep::classes;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::RefMut;

use crate::ProcHandle;

/// Errors surfaced by the runtime API.
///
/// Lock contention is *not* an error — [`ProcHandle::acquire`] blocks — so
/// what remains is genuine misuse: unknown ids, double acquires, releasing
/// an unheld lock, a dispatched access outside the shared space.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DsmError {
    /// A lock operation was invalid.
    Lock(LockError),
    /// A barrier operation was invalid.
    Barrier(BarrierError),
    /// A request dispatched through [`ProcHandle::apply`] named bytes
    /// outside the shared space.
    OutOfRange {
        /// Start address of the refused access.
        addr: u64,
        /// Its length in bytes.
        len: usize,
    },
}

impl fmt::Display for DsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsmError::Lock(e) => write!(f, "lock error: {e}"),
            DsmError::Barrier(e) => write!(f, "barrier error: {e}"),
            DsmError::OutOfRange { addr, len } => {
                write!(
                    f,
                    "access of {len} bytes at {addr:#x} is outside the shared space"
                )
            }
        }
    }
}

impl Error for DsmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DsmError::Lock(e) => Some(e),
            DsmError::Barrier(e) => Some(e),
            DsmError::OutOfRange { .. } => None,
        }
    }
}

impl From<LockError> for DsmError {
    fn from(e: LockError) -> Self {
        DsmError::Lock(e)
    }
}

impl From<BarrierError> for DsmError {
    fn from(e: BarrierError) -> Self {
        DsmError::Barrier(e)
    }
}

/// One synchronization object's wait queue: a generation counter plus
/// the condvar its waiters sleep on. Each lock and each barrier has its
/// own, so an event wakes only the waiters of *that* object.
///
/// A slot advances on a release of its lock, on the closing arrival of
/// its barrier's episode, and when a death declaration force-releases
/// the lock or completes the episode. A waiter captures the generation
/// *before* it calls the engine and parks until the generation moves, so
/// an event that slips in between the engine call and the park is never
/// lost.
pub(crate) struct WaitSlot {
    generation: parking_lot::Mutex<u64>,
    moved: parking_lot::Condvar,
}

impl WaitSlot {
    fn new() -> WaitSlot {
        WaitSlot {
            generation: parking_lot::Mutex::new_in(0, classes::DSM_WAIT_SLOT),
            moved: parking_lot::Condvar::new(),
        }
    }

    /// The current generation.
    fn generation(&self) -> u64 {
        *self.generation.lock()
    }

    /// The slot with its current generation, captured before an engine
    /// call.
    pub(crate) fn capture(&self) -> (&WaitSlot, u64) {
        (self, self.generation())
    }

    /// Moves the generation on and wakes every waiter.
    pub(crate) fn advance(&self) {
        *self.generation.lock() += 1;
        self.moved.notify_all();
    }
}

/// The engine, held for one operation.
pub(crate) type EngineGuard<'a> = MutexGuard<'a, AnyEngine>;

/// The lazy engine inside `engine`, which alone has checkpoints, deaths
/// and rejoins.
///
/// # Panics
///
/// Panics on an eager engine. No option reaches this there —
/// [`crate::DsmBuilder::build`] refuses every lazy-only one — so only a
/// direct crash-tolerance call on an eager [`Dsm`] does.
pub(crate) fn lazy(engine: &AnyEngine) -> RefMut<'_, LrcEngine> {
    engine.as_lazy().expect(
        "crash tolerance is a lazy-protocol feature: the eager baseline \
         has no checkpoint, restore, rejoin or declare_dead",
    )
}

/// Shared state of the runtime: the protocol engine behind one mutex,
/// plus a wait queue per lock and per barrier.
///
/// Every operation takes the engine once and runs to completion with it,
/// except a miss, which releases it for its fetch: the engine plans the
/// miss ([`AnyEngine::begin_miss`]), the fetch hook runs with the
/// mutex released, and the engine applies the fetch
/// ([`AnyEngine::finish_miss`]). So a stalled fetch blocks nobody
/// else's operations. A miss on a page another processor is fetching
/// waits on `settled` until that miss finishes. Lock and barrier waits
/// happen outside the engine, in the wait slots.
pub(crate) struct Cluster {
    pub(crate) engine: Mutex<AnyEngine>,
    /// Notified whenever a miss finishes: a miss told its page is busy
    /// waits here, with the engine released, and asks again.
    settled: Condvar,
    /// The modeled network fetch every miss runs between its halves.
    fetch_hook: OnceLock<FetchHook>,
    /// The engine's address space, which never changes: range checks
    /// read it without the lock.
    space: AddrSpace,
    n_procs: usize,
    /// Per-lock wait queues, indexed by lock id.
    pub(crate) lock_slots: Vec<WaitSlot>,
    /// Per-barrier wait queues, indexed by barrier id.
    pub(crate) barrier_slots: Vec<WaitSlot>,
    /// Deadline for every blocking wait (lock hand-offs and barrier
    /// episodes), suspicion or not. `None` waits forever; tests set a
    /// bound so a lost wake-up fails with a stuck-waiter report instead
    /// of hanging CI.
    wait_timeout: Option<Duration>,
    /// Failure-detector period: a waiter blocked this long without
    /// progress suspects the processors it waits on and declares them
    /// dead (lazy engines only), then again after every further period.
    /// `None` disables suspicion.
    holder_timeout: Option<Duration>,
    /// Serializes concurrent suspicions of the same processor: the engine
    /// panics on a double `declare_dead`, so check-and-declare must be
    /// atomic across waiters.
    pub(crate) suspicion: Mutex<()>,
    /// The automatic checkpointer, when
    /// [`crate::DsmBuilder::checkpoint_every`] is set: closing barrier
    /// arrivals and death declarations feed it, and revival reads its
    /// newest cut.
    pub(crate) recovery: Option<Arc<crate::recovery::AutoCheckpointer>>,
}

impl Cluster {
    /// Takes the engine.
    pub(crate) fn lock(&self) -> EngineGuard<'_> {
        self.engine.lock()
    }

    /// Number of processors.
    pub(crate) fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// The shared address space.
    pub(crate) fn space(&self) -> AddrSpace {
        self.space
    }

    /// Reads `buf.len()` bytes at `addr` as `p`, resolving misses.
    pub(crate) fn read(&self, p: ProcId, addr: u64, buf: &mut [u8]) {
        let mut engine = self.lock();
        while let Err(page) = engine.try_read(p, addr, buf) {
            engine = self.resolve_miss(engine, p, page);
        }
    }

    /// Writes `data` at `addr` as `p`, resolving misses.
    pub(crate) fn write(&self, p: ProcId, addr: u64, data: &[u8]) {
        let mut engine = self.lock();
        while let Err(page) = engine.try_write(p, addr, data) {
            engine = self.resolve_miss(engine, p, page);
        }
    }

    /// Makes `page` valid at `p`: begins the miss, runs the fetch hook
    /// with the engine released, and finishes the miss — or, while
    /// another processor fetches the page, waits for that miss to finish
    /// and begins again. Returns the engine, held again, with the page
    /// valid.
    // Out of line: the miss path stays out of every access's frame.
    #[inline(never)]
    fn resolve_miss<'a>(
        &'a self,
        mut engine: EngineGuard<'a>,
        p: ProcId,
        page: PageId,
    ) -> EngineGuard<'a> {
        loop {
            match engine.begin_miss(p, page) {
                Miss::Ready => break,
                Miss::Fetching(ticket) => {
                    drop(engine);
                    if let Some(hook) = self.fetch_hook.get() {
                        hook(p, page);
                    }
                    engine = self.lock();
                    engine.finish_miss(ticket);
                    self.settled.notify_all();
                    break;
                }
                Miss::Busy => self.settled.wait(&mut engine),
            }
        }
        debug_assert!(
            engine.page_valid(p, page),
            "a resolved miss leaves {page} valid at {p}"
        );
        engine
    }

    /// Whether `p` is declared dead (always `false` on eager engines).
    pub(crate) fn is_dead(&self, p: ProcId) -> bool {
        self.lock().as_lazy().is_some_and(|e| e.is_dead(p))
    }

    /// Installs the fetch hook every miss runs between its halves.
    ///
    /// # Panics
    ///
    /// Panics if a hook is already installed.
    pub(crate) fn set_fetch_hook(&self, hook: FetchHook) {
        assert!(
            self.fetch_hook.set(hook).is_ok(),
            "a fetch hook is already installed"
        );
    }

    /// Blocks until `slot`'s generation moves past `captured`.
    ///
    /// After every `holder_timeout` without movement it suspects each
    /// processor `suspects` names. Once `wait_timeout` passes without
    /// movement it panics with the stuck-waiter `report`, suspicion or
    /// not.
    // Out of line: inlined into `apply`, the wait loop and its stuck-waiter
    // diagnostics bloat that function's frame and tax every operation the
    // node runtime dispatches (measured: +9% on the benchmark's `round_us`).
    #[inline(never)]
    pub(crate) fn wait_moved(
        &self,
        slot: &WaitSlot,
        captured: u64,
        suspects: &dyn Fn() -> Vec<ProcId>,
        report: &dyn Fn() -> String,
    ) {
        let start = Instant::now();
        let deadline = self.wait_timeout.map(|limit| start + limit);
        let mut next_suspicion = self.holder_timeout.map(|period| start + period);
        let mut generation = slot.generation.lock();
        while *generation == captured {
            let Some(wake) = deadline.into_iter().chain(next_suspicion).min() else {
                slot.moved.wait(&mut generation);
                continue;
            };
            let now = Instant::now();
            if now < wake {
                slot.moved.wait_for(&mut generation, wake - now);
                continue;
            }
            drop(generation);
            if deadline.is_some_and(|d| now >= d) {
                panic!(
                    "DSM wait deadline exceeded after {:?}: {}",
                    now - start,
                    report()
                );
            }
            // Failure-detector path: whoever this waiter waits on has been
            // silent for a whole period and is presumed crashed. Declaring
            // it dead force-releases its locks and completes its barrier
            // episodes, which advances the slot.
            for p in suspects() {
                self.suspect(slot, captured, p);
            }
            next_suspicion = self.holder_timeout.map(|period| now + period);
            generation = slot.generation.lock();
        }
    }

    /// Declares `p` dead on behalf of a waiter that timed out while
    /// `slot` sat at generation `captured` — unless the grievance went
    /// stale while the waiter assembled it. Between the waiter's timeout
    /// and this call the lock may have been handed off or the episode
    /// completed (a concurrent death declaration can do either), and the
    /// waiter's suspect list may describe the lock's next holder or the
    /// barrier's next episode, whose processors are merely not there yet.
    /// Declaring on stale evidence would kill a healthy processor, so the
    /// generation is re-checked under the suspicion lock, atomically with
    /// the declaration.
    fn suspect(&self, slot: &WaitSlot, captured: u64, p: ProcId) {
        let _serialized = self.suspicion.lock();
        if slot.generation() == captured && !self.is_dead(p) {
            self.declare_dead(p);
        }
    }

    /// Declares `p` dead in the engine and propagates the consequences
    /// into the runtime's blocking layer: the slot of every lock the
    /// engine force-released and of every barrier episode it completed on
    /// `p`'s behalf advances, so their waiters retry or fall through.
    pub(crate) fn declare_dead(&self, p: ProcId) -> DeathReport {
        // Cut *before* the engine processes the death: declaring `p` dead
        // resets its frames, and committed contents only `p` held would
        // vanish from every later cut — a revival would then cold-miss
        // into the page home's zeros. Captured pre-death, the cut holds
        // `p`'s committed pages (twin-first, so its still-open interval
        // leaks nothing), and the flush below lands in the interval store
        // where rejoin's catch-up delivery finds it. A refused
        // declaration must not cut: a second one would replace the
        // pre-death cut with one of the dead window.
        let guard = self.lock();
        let mut engine = lazy(&guard);
        assert!(!engine.is_dead(p), "processor {p} is already dead");
        if let Some(auto) = self.recovery.as_ref() {
            auto.cut_now(&mut engine);
        }
        let report = engine.declare_dead(p);
        drop(engine);
        drop(guard);
        for &lock in &report.released {
            self.lock_slots[lock.index()].advance();
        }
        for &(barrier, _) in &report.completed_episodes {
            self.barrier_slots[barrier.index()].advance();
        }
        report
    }
}

/// A running DSM: `n` simulated processors sharing a paged address space
/// under one of the four protocols of the paper.
///
/// Spawn work with [`Dsm::parallel`] (one thread per processor) or drive
/// processors manually via [`Dsm::handle`]. All protocol traffic is
/// metered; read it back with [`Dsm::net_stats`].
///
/// See the [crate docs](crate) for an example.
#[derive(Clone)]
pub struct Dsm {
    cluster: Arc<Cluster>,
    kind: ProtocolKind,
}

impl Dsm {
    pub(crate) fn from_engine(
        engine: AnyEngine,
        kind: ProtocolKind,
        wait_timeout: Option<Duration>,
        holder_timeout: Option<Duration>,
        recovery: Option<Arc<crate::recovery::AutoCheckpointer>>,
    ) -> Self {
        let core = engine.core();
        let params = core.params();
        let lock_slots = (0..params.n_locks).map(|_| WaitSlot::new()).collect();
        let barrier_slots = (0..params.n_barriers).map(|_| WaitSlot::new()).collect();
        let (space, n_procs) = (core.space(), params.n_procs);
        drop(core);
        let cluster = Arc::new(Cluster {
            engine: Mutex::new_in(engine, classes::DSM_ENGINE),
            settled: Condvar::new(),
            fetch_hook: OnceLock::new(),
            space,
            n_procs,
            lock_slots,
            barrier_slots,
            wait_timeout,
            holder_timeout,
            suspicion: Mutex::new_in((), classes::DSM_SUSPICION),
            recovery,
        });
        Dsm { cluster, kind }
    }

    /// Attaches a history recorder to the underlying engine: every
    /// processor's reads (with observed bytes), writes, and
    /// synchronization operations are logged for conformance checking
    /// with `lrc-hist`. Attach before spawning work.
    ///
    /// # Panics
    ///
    /// Panics if a recorder is already attached or its processor count
    /// differs from the engine's.
    pub fn attach_recorder(&self, recorder: Arc<HistoryRecorder>) {
        self.cluster.lock().core_mut().attach_recorder(recorder);
    }

    /// The shared protocol engine — for inspection (counters, fabric
    /// stats, fetch hooks) by tests and benches, and for driving it
    /// without the runtime's *blocking* (lock wait queues, barrier
    /// parking). Each call takes the engine's mutex once; misses resolve
    /// as a [`ProcHandle`]'s do.
    pub fn engine(&self) -> SharedEngine<'_> {
        SharedEngine(&self.cluster)
    }

    /// Number of processors.
    pub(crate) fn n_procs(&self) -> usize {
        self.cluster.n_procs()
    }

    /// The protocol in use.
    pub(crate) fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// A handle for driving processor `p` from the current thread.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn handle(&self, p: ProcId) -> ProcHandle {
        assert!(p.index() < self.n_procs(), "processor {p} out of range");
        ProcHandle::new(Arc::clone(&self.cluster), p)
    }

    /// Runs `body` once per processor, each on its own OS thread, and
    /// joins them all. The closure receives that processor's handle.
    ///
    /// # Errors
    ///
    /// Returns the first processor's [`DsmError`], if any fails.
    ///
    /// # Panics
    ///
    /// Propagates panics from the worker threads.
    pub fn parallel<F>(&self, body: F) -> Result<(), DsmError>
    where
        F: Fn(&mut ProcHandle) -> Result<(), DsmError> + Send + Sync,
    {
        let results: Vec<Result<(), DsmError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.n_procs())
                .map(|i| {
                    let mut proc = self.handle(ProcId::new(i as u16));
                    let body = &body;
                    scope.spawn(move || body(&mut proc))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("DSM worker thread panicked"))
                .collect()
        });
        results.into_iter().collect()
    }

    /// Snapshot of the accumulated network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.cluster.lock().net_stats()
    }

    // ---- crash tolerance ----

    /// Captures a checkpoint of the engine (lazy protocols only — see
    /// [`lrc_core::LrcEngine::checkpoint`]). Call at a synchronization
    /// point — right after a barrier episode, before any processor's next
    /// operation — so the cut is consistent.
    ///
    /// # Panics
    ///
    /// Panics if the protocol is eager.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        lazy(&self.cluster.lock()).checkpoint()
    }

    /// Restores a checkpoint into this (freshly built, idle) runtime
    /// (lazy protocols only).
    ///
    /// # Errors
    ///
    /// Propagates [`CheckpointError`].
    ///
    /// # Panics
    ///
    /// Panics if the protocol is eager.
    pub fn restore(&self, ckpt: &EngineCheckpoint) -> Result<(), CheckpointError> {
        lazy(&self.cluster.lock()).restore(ckpt)
    }

    /// Declares processor `p` dead on the survivors' behalf (lazy
    /// protocols only — see [`lrc_core::LrcEngine::declare_dead`]): `p`'s
    /// open interval is flushed, its locks force-released (their waiters
    /// woken to retry and win), and any barrier episode waiting only on
    /// `p` completes (parked survivors fall through). The caller must
    /// ensure `p`'s driving thread has stopped issuing operations.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range, already dead, or the protocol is
    /// eager.
    pub fn declare_dead(&self, p: ProcId) -> DeathReport {
        self.cluster.declare_dead(p)
    }

    /// Whether `p` is declared dead (always `false` on eager engines).
    pub fn is_dead(&self, p: ProcId) -> bool {
        self.cluster.is_dead(p)
    }

    /// Rejoins dead processor `p` from a checkpoint of this run (lazy
    /// protocols only — see [`lrc_core::LrcEngine::rejoin`]). After a
    /// successful rejoin, `p`'s handle is usable again; the application
    /// must resynchronize (acquire or barrier) before trusting shared
    /// data.
    ///
    /// # Errors
    ///
    /// Propagates [`CheckpointError`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or the protocol is eager.
    pub fn rejoin(&self, p: ProcId, ckpt: &EngineCheckpoint) -> Result<(), CheckpointError> {
        lazy(&self.cluster.lock()).rejoin(p, ckpt)
    }

    // ---- self-healing runtime ----

    /// The automatic checkpointer's newest cut. `None` without
    /// [`crate::DsmBuilder::checkpoint_every`] or before the first cut.
    pub fn latest_checkpoint(&self) -> Option<EngineCheckpoint> {
        self.cluster.recovery.as_ref()?.latest()
    }

    /// Attempts automatic revival of `p`: rejoin from the newest
    /// automatic cut, cold-joining from a fresh post-GC cut if that one
    /// was invalidated by lease expiry. Returns whether `p` is alive
    /// afterwards (`false` without an automatic checkpointer or before
    /// any cut). This is what the node server calls when a reconnecting
    /// spoke re-announces a processor that was declared dead; local
    /// applications call it to hand a crashed processor back to a new
    /// driving thread.
    pub fn try_revive(&self, p: ProcId) -> bool {
        self.cluster.try_revive(p)
    }
}

impl fmt::Debug for Dsm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let engine = self.cluster.lock();
        let core = engine.core();
        let params = core.params();
        write!(
            f,
            "Dsm({} procs, {}, {} locks, {} barriers)",
            params.n_procs, self.kind, params.n_locks, params.n_barriers
        )
    }
}

/// The runtime's engine as [`Dsm::engine`] hands it out: each call takes
/// the engine's mutex once and releases it before returning. Accesses
/// resolve their misses as a [`ProcHandle`]'s do, fetch hook included;
/// synchronization operations do not block — a held lock is a
/// [`LockError::HeldByOther`], a barrier arrival returns at once — and
/// wake no waiter.
#[derive(Clone, Copy)]
pub struct SharedEngine<'a>(&'a Cluster);

impl<'a> SharedEngine<'a> {
    /// Reads bytes as `p`, resolving misses.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the shared space.
    pub fn read_into(&self, p: ProcId, addr: u64, buf: &mut [u8]) {
        self.0.read(p, addr, buf);
    }

    /// Writes bytes as `p`, resolving misses.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the shared space.
    pub fn write(&self, p: ProcId, addr: u64, data: &[u8]) {
        self.0.write(p, addr, data);
    }

    /// Acquires `lock` for `p` if it is free.
    ///
    /// # Errors
    ///
    /// Propagates [`LockError`], [`LockError::HeldByOther`] included.
    pub fn acquire(&self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        self.0.lock().acquire(p, lock)
    }

    /// Releases `lock` held by `p`.
    ///
    /// # Errors
    ///
    /// Propagates [`LockError`].
    pub fn release(&self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        self.0.lock().release(p, lock)
    }

    /// Arrives at `barrier` as `p`, without waiting for the episode.
    ///
    /// # Errors
    ///
    /// Propagates [`BarrierError`].
    pub fn barrier(&self, p: ProcId, barrier: BarrierId) -> Result<BarrierArrival, BarrierError> {
        self.0.lock().barrier(p, barrier)
    }

    /// Installs the miss-fetch instrumentation hook (see [`FetchHook`]):
    /// every miss runs it between its halves, with the engine released.
    /// Tests use a blocking hook to *prove* that a stalled fetch blocks
    /// nothing else; benches use a sleeping one to model network latency.
    ///
    /// # Panics
    ///
    /// Panics if a hook is already installed.
    pub fn set_fetch_hook(&self, hook: FetchHook) {
        self.0.set_fetch_hook(hook);
    }

    /// What the engine's protocol-independent core reports.
    pub fn core(&self) -> CoreView<'a> {
        CoreView(self.0)
    }
}

/// What [`SharedEngine::core`] shows of the engine's
/// [`EngineCore`](lrc_core::EngineCore): each call takes the engine's
/// mutex once.
#[derive(Clone, Copy)]
pub struct CoreView<'a>(&'a Cluster);

impl CoreView<'_> {
    /// Snapshot of the protocol event counters.
    pub fn counters(&self) -> EngineCounters {
        self.0.lock().core().counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsmBuilder;

    #[test]
    fn debug_and_accessors() {
        let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14)
            .build()
            .unwrap();
        assert_eq!(dsm.n_procs(), 2);
        assert_eq!(format!("{dsm:?}"), "Dsm(2 procs, LI, 16 locks, 4 barriers)");
        assert_eq!(dsm.net_stats().total().msgs, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn handle_validates_proc() {
        let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14)
            .build()
            .unwrap();
        dsm.handle(ProcId::new(5));
    }
}
