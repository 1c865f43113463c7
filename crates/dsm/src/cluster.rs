use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lrc_core::{CheckpointError, DeathReport, EngineCheckpoint, LrcEngine, Threads};
use lrc_hist::HistoryRecorder;
use lrc_sim::{AnyEngine, ProtocolKind};
use lrc_simnet::NetStats;
use lrc_sync::{BarrierError, LockError};
use lrc_vclock::ProcId;
use parking_lot::lockdep::classes;

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

/// Shared state of the runtime: the (internally synchronized) protocol
/// engine, plus a wait queue per lock and per barrier.
///
/// The engine shards its own state per processor, so the runtime adds no
/// global lock of its own: ordinary reads and writes go straight to the
/// engine and contend only on the accessed processor's shard. The runtime
/// keeps just enough state to *block*.
pub(crate) struct Cluster {
    pub(crate) engine: AnyEngine<Threads>,
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
    pub(crate) suspicion: parking_lot::Mutex<()>,
    /// The automatic checkpointer, when
    /// [`crate::DsmBuilder::checkpoint_every`] is set: closing barrier
    /// arrivals and death declarations feed it, and revival reads its
    /// newest cut.
    pub(crate) recovery: Option<Arc<crate::recovery::AutoCheckpointer>>,
}

impl Cluster {
    /// The lazy engine, which alone has checkpoints, deaths and rejoins.
    ///
    /// # Panics
    ///
    /// Panics on an eager runtime. No option reaches this there —
    /// [`crate::DsmBuilder::build`] refuses every lazy-only one — so only
    /// a direct crash-tolerance call on an eager [`Dsm`] does.
    pub(crate) fn lazy(&self) -> &LrcEngine {
        self.engine.as_lazy().expect(
            "crash tolerance is a lazy-protocol feature: the eager baseline \
             has no checkpoint, restore, rejoin or declare_dead",
        )
    }

    /// Number of processors.
    pub(crate) fn n_procs(&self) -> usize {
        self.engine.core().params().n_procs
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
        if slot.generation() == captured && !self.engine.is_dead(p) {
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
        let engine = self.lazy();
        assert!(!engine.is_dead(p), "processor {p} is already dead");
        if let Some(auto) = self.recovery.as_ref() {
            auto.cut_now(engine);
        }
        let report = engine.declare_dead(p);
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
        engine: AnyEngine<Threads>,
        kind: ProtocolKind,
        wait_timeout: Option<Duration>,
        holder_timeout: Option<Duration>,
        recovery: Option<Arc<crate::recovery::AutoCheckpointer>>,
    ) -> Self {
        let params = engine.core().params();
        let lock_slots = (0..params.n_locks).map(|_| WaitSlot::new()).collect();
        let barrier_slots = (0..params.n_barriers).map(|_| WaitSlot::new()).collect();
        let cluster = Arc::new(Cluster {
            engine,
            lock_slots,
            barrier_slots,
            wait_timeout,
            holder_timeout,
            suspicion: parking_lot::Mutex::new_in((), classes::DSM_SUSPICION),
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
        self.cluster.engine.core().attach_recorder(recorder);
    }

    /// The shared protocol engine — for inspection (counters, fabric
    /// stats, fetch hooks) by tests and benches. The engine is internally
    /// synchronized; calling its methods directly bypasses only the
    /// runtime's *blocking* (lock wait queues, barrier parking), never its
    /// correctness.
    pub fn engine(&self) -> &AnyEngine<Threads> {
        &self.cluster.engine
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
        self.cluster.engine.net_stats()
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
        self.cluster.lazy().checkpoint()
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
        self.cluster.lazy().restore(ckpt)
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
        self.cluster.engine.is_dead(p)
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
        self.cluster.lazy().rejoin(p, ckpt)
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
        let params = self.cluster.engine.core().params();
        write!(
            f,
            "Dsm({} procs, {}, {} locks, {} barriers)",
            params.n_procs, self.kind, params.n_locks, params.n_barriers
        )
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
