use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use lrc_core::{CheckpointError, DeathReport, EngineCheckpoint, LrcEngine};
use lrc_hist::HistoryRecorder;
use lrc_sim::{AnyEngine, ProtocolKind};
use lrc_simnet::NetStats;
use lrc_sync::{BarrierError, BarrierId, LockError, LockId};
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

/// One lock's wait queue: a release generation plus the condvar its
/// waiters sleep on. Per-lock queues mean a release wakes only *that*
/// lock's waiters — under heavy multi-lock contention the old global
/// generation woke every waiter of every lock on every release.
pub(crate) struct LockSlot {
    /// Bumped on every release of this lock; waiters re-try their acquire
    /// when it moves. Capturing the generation *before* the acquire
    /// attempt and re-checking it under the mutex closes the lost-wakeup
    /// window.
    pub(crate) generation: parking_lot::Mutex<u64>,
    /// Woken when this lock is released.
    pub(crate) released: parking_lot::Condvar,
}

/// Shared state of the runtime: the (internally synchronized) protocol
/// engine, plus condition variables for lock hand-off and barrier episodes.
///
/// The engine shards its own state per processor, so the runtime adds no
/// global lock of its own: ordinary reads and writes go straight to the
/// engine and contend only on the accessed processor's shard. The runtime
/// keeps just enough state to *block* — a wait queue per lock and an
/// episode counter per barrier.
pub(crate) struct Cluster {
    pub(crate) engine: AnyEngine,
    /// Per-lock wait queues, indexed by lock id.
    pub(crate) lock_slots: Vec<LockSlot>,
    /// Woken when a barrier episode completes.
    pub(crate) barrier_cv: parking_lot::Condvar,
    /// Completed episodes per barrier, advanced by the closing arrival.
    pub(crate) episodes: parking_lot::Mutex<Vec<u64>>,
    pub(crate) n_procs: usize,
    /// Deadline for every blocking wait (lock hand-offs and barrier
    /// episodes). `None` waits forever; tests set a bound so a lost
    /// wake-up fails with a stuck-waiter report instead of hanging CI.
    pub(crate) wait_timeout: Option<Duration>,
    /// Failure-detector deadline: a lock waiter blocked this long
    /// suspects the holder crashed and declares it dead (lazy engines
    /// only). `None` disables suspicion.
    pub(crate) holder_timeout: Option<Duration>,
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

    /// Declares `p` dead on behalf of a lock waiter that timed out while
    /// the release generation of `lock` sat at `generation` — unless the
    /// grievance went stale while the waiter assembled it. Between the
    /// waiter's timeout and this call the hand-off may have happened (the
    /// generation moved) or the holder may have changed; declaring on
    /// stale evidence would kill a healthy processor, so both are
    /// re-checked under the suspicion lock, atomically with the
    /// declaration. Returns whether this call declared the death.
    pub(crate) fn suspect_lock_holder(&self, lock: LockId, generation: u64, p: ProcId) -> bool {
        let _serialized = self.suspicion.lock();
        let current = *self.lock_slots[lock.index()].generation.lock();
        if current != generation || self.engine.core().lock_holder(lock) != Some(p) {
            return false;
        }
        if self.engine.is_dead(p) {
            return false;
        }
        self.declare_dead(p);
        true
    }

    /// Declares `p` dead on behalf of a barrier waiter stuck on
    /// `barrier`'s episode `target` — unless that episode completed while
    /// the waiter assembled its suspicion. A concurrent death declaration
    /// can complete the stuck episode between the waiter's timeout and
    /// its absentee scan, in which case the scan describes the *next*
    /// episode, whose processors are merely not there yet — not dead. The
    /// episode counter is re-checked under the suspicion lock, atomically
    /// with the declaration. Returns whether this call declared the
    /// death.
    pub(crate) fn suspect_barrier_absentee(
        &self,
        barrier: BarrierId,
        target: u64,
        p: ProcId,
    ) -> bool {
        let _serialized = self.suspicion.lock();
        if self.episodes.lock()[barrier.index()] >= target {
            return false;
        }
        if self.engine.is_dead(p) {
            return false;
        }
        self.declare_dead(p);
        true
    }

    /// Declares `p` dead in the engine and propagates the consequences
    /// into the runtime's blocking layer: every lock the engine
    /// force-released gets its generation bumped (so its waiters retry
    /// and win), and every barrier episode completed on `p`'s behalf
    /// advances the runtime's episode counter (so parked arrivals fall
    /// through).
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
            if let Some(slot) = self.lock_slots.get(lock.index()) {
                *slot.generation.lock() += 1;
                slot.released.notify_all();
            }
        }
        if !report.completed_episodes.is_empty() {
            let mut episodes = self.episodes.lock();
            for &(barrier, _) in &report.completed_episodes {
                if let Some(done) = episodes.get_mut(barrier.index()) {
                    *done += 1;
                }
            }
            drop(episodes);
            self.barrier_cv.notify_all();
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
    n_locks: usize,
    n_barriers: usize,
}

impl Dsm {
    pub(crate) fn from_engine(
        engine: AnyEngine,
        kind: ProtocolKind,
        wait_timeout: Option<Duration>,
        holder_timeout: Option<Duration>,
        recovery: Option<Arc<crate::recovery::AutoCheckpointer>>,
    ) -> Self {
        let params = engine.core().params();
        let (n_procs, n_locks, n_barriers) = (params.n_procs, params.n_locks, params.n_barriers);
        let cluster = Arc::new(Cluster {
            engine,
            lock_slots: (0..n_locks)
                .map(|l| LockSlot {
                    generation: parking_lot::Mutex::new_in(
                        0,
                        classes::DSM_LOCK_SLOT.with_order(l as u64),
                    ),
                    released: parking_lot::Condvar::new(),
                })
                .collect(),
            barrier_cv: parking_lot::Condvar::new(),
            episodes: parking_lot::Mutex::new_in(vec![0; n_barriers], classes::DSM_EPISODES),
            n_procs,
            wait_timeout,
            holder_timeout,
            suspicion: parking_lot::Mutex::new_in((), classes::DSM_SUSPICION),
            recovery,
        });
        Dsm {
            cluster,
            kind,
            n_locks,
            n_barriers,
        }
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
    pub fn engine(&self) -> &AnyEngine {
        &self.cluster.engine
    }

    /// Number of processors.
    pub(crate) fn n_procs(&self) -> usize {
        self.cluster.n_procs
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
        assert!(
            p.index() < self.cluster.n_procs,
            "processor {p} out of range"
        );
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
            let handles: Vec<_> = (0..self.cluster.n_procs)
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
        write!(
            f,
            "Dsm({} procs, {}, {} locks, {} barriers)",
            self.cluster.n_procs, self.kind, self.n_locks, self.n_barriers
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
