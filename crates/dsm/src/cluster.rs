use std::error::Error;
use std::fmt;
use std::panic::resume_unwind;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use lrc_core::{
    CheckpointError, DeathReport, EngineCheckpoint, EngineCounters, FetchHook, LrcEngine, Miss,
    MissTicket,
};
use lrc_hist::HistoryRecorder;
use lrc_sim::{AddrSpace, AnyEngine, PageId, ProtocolKind};
use lrc_simnet::NetStats;
use lrc_sync::{BarrierArrival, BarrierError, BarrierId, LockError, LockId};
use lrc_vclock::ProcId;
use parking_lot::lockdep::classes;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::RefMut;

use crate::recovery::AutoCheckpointer;
use crate::ProcHandle;

/// Errors surfaced by the runtime API.
///
/// Lock contention is *not* an error — [`ProcHandle::acquire`] blocks — so
/// what remains is genuine misuse (unknown ids, double acquires, releasing
/// an unheld lock, a dispatched access outside the shared space) and a
/// death.
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
    /// The processor was declared dead ([`Dsm::declare_dead`]) before or
    /// during the operation, and has not rejoined.
    Dead(ProcId),
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
            DsmError::Dead(p) => write!(f, "operation by dead processor {p}"),
        }
    }
}

impl Error for DsmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DsmError::Lock(e) => Some(e),
            DsmError::Barrier(e) => Some(e),
            DsmError::OutOfRange { .. } | DsmError::Dead(_) => None,
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

/// Everything the runtime shares, behind its one mutex.
pub(crate) struct Shared {
    pub(crate) engine: AnyEngine,
    /// Per barrier, one past the index of its newest completed episode
    /// (0 before any): an arrival that waits in episode `e` parks until
    /// this passes `e`. Set by the closing arrival and by a death
    /// declaration that completes an episode.
    pub(crate) episodes_done: Vec<u64>,
    /// The automatic checkpointer, when
    /// [`crate::DsmBuilder::checkpoint_every`] is set: closing barrier
    /// arrivals and death declarations feed it, and revival reads its
    /// newest cut.
    pub(crate) recovery: Option<AutoCheckpointer>,
}

/// The shared state, held for one operation.
pub(crate) type EngineGuard<'a> = MutexGuard<'a, Shared>;

/// `Err(Dead(p))` if `p` is declared dead (never on an eager engine).
fn live(s: &Shared, p: ProcId) -> Result<(), DsmError> {
    match s.engine.as_lazy() {
        Some(engine) if engine.is_dead(p) => Err(DsmError::Dead(p)),
        _ => Ok(()),
    }
}

/// Unwraps an access's outcome. The accessors that return no error
/// ([`ProcHandle::read_bytes`], [`SharedEngine::write`], ...) report a
/// death by panicking with its message.
pub(crate) fn or_panic(result: Result<(), DsmError>) {
    result.unwrap_or_else(|dead| panic!("{dead}"));
}

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

/// The runtime: its shared state behind one mutex, and the condvars of
/// that mutex that every wait parks on.
///
/// Every operation takes the mutex once and runs to completion with it,
/// except a miss, which releases it for its fetch: the engine plans the
/// miss ([`AnyEngine::begin_miss`]), the fetch hook runs with the
/// mutex released, and the engine applies the fetch
/// ([`AnyEngine::finish_miss`]). So a stalled fetch blocks nobody
/// else's operations.
///
/// A processor waits in three places: an acquire of a held lock, a
/// barrier arrival that does not close its episode, and a miss on a page
/// another processor is fetching. Each checks its condition and parks in
/// one hold of the mutex, in [`Cluster::wait`], so no wake-up can slip in
/// between. Whoever changes a condition does so under the mutex and then
/// notifies its condvar: a release its lock's, a closing arrival its
/// barrier's, a finished miss `settled`, and a death every one.
///
/// A death can land on its victim wherever the mutex is let go: before an
/// operation takes it, while the operation waits, and while its miss
/// fetches. The victim checks its liveness at each of those, in the same
/// hold as the engine call the check guards, and gets [`DsmError::Dead`].
pub(crate) struct Cluster {
    shared: Mutex<Shared>,
    /// Notified whenever a miss finishes: a miss told its page is busy
    /// waits here and asks again.
    settled: Condvar,
    /// Per lock, notified when the lock is released.
    pub(crate) lock_freed: Vec<Condvar>,
    /// Per barrier, notified when one of its episodes completes.
    pub(crate) episode_done: Vec<Condvar>,
    /// The modeled network fetch every miss runs between its halves.
    fetch_hook: OnceLock<FetchHook>,
    /// The engine's address space, which never changes: range checks
    /// read it without the lock.
    space: AddrSpace,
    n_procs: usize,
    /// Deadline for every wait, suspicion or not. `None` waits forever;
    /// tests set a bound so a lost wake-up fails with a stuck-waiter
    /// report instead of hanging CI.
    wait_timeout: Option<Duration>,
    /// Failure-detector period: a waiter blocked this long without
    /// progress suspects the processors it waits on and declares them
    /// dead (lazy engines only), then again after every further period.
    /// `None` disables suspicion.
    holder_timeout: Option<Duration>,
}

impl Cluster {
    /// Takes the shared state.
    pub(crate) fn lock(&self) -> EngineGuard<'_> {
        self.shared.lock()
    }

    /// Number of processors.
    pub(crate) fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// The shared address space.
    pub(crate) fn space(&self) -> AddrSpace {
        self.space
    }

    /// Takes the shared state for an operation of `p`.
    ///
    /// # Errors
    ///
    /// [`DsmError::Dead`] if `p` is declared dead.
    pub(crate) fn lock_for(&self, p: ProcId) -> Result<EngineGuard<'_>, DsmError> {
        let state = self.lock();
        live(&state, p)?;
        Ok(state)
    }

    /// Reads `buf.len()` bytes at `addr` as `p`, resolving misses.
    ///
    /// # Errors
    ///
    /// [`DsmError::Dead`] if `p` is declared dead before or during the
    /// read.
    pub(crate) fn read(&self, p: ProcId, addr: u64, buf: &mut [u8]) -> Result<(), DsmError> {
        let mut state = self.lock_for(p)?;
        while let Err(page) = state.engine.try_read(p, addr, buf) {
            state = self.resolve_miss(state, p, page)?;
        }
        Ok(())
    }

    /// Writes `data` at `addr` as `p`, resolving misses.
    ///
    /// # Errors
    ///
    /// [`DsmError::Dead`] if `p` is declared dead before or during the
    /// write.
    pub(crate) fn write(&self, p: ProcId, addr: u64, data: &[u8]) -> Result<(), DsmError> {
        let mut state = self.lock_for(p)?;
        while let Err(page) = state.engine.try_write(p, addr, data) {
            state = self.resolve_miss(state, p, page)?;
        }
        Ok(())
    }

    /// Makes `page` valid at `p`: begins the miss, runs the fetch hook
    /// with the mutex released, and finishes the miss — or, while
    /// another processor fetches the page, waits for that miss to finish
    /// and begins again. Returns the state, held again, with the page
    /// valid.
    ///
    /// # Errors
    ///
    /// [`DsmError::Dead`] if `p` is declared dead while it waits or
    /// fetches.
    // Out of line: the miss path stays out of every access's frame.
    #[inline(never)]
    fn resolve_miss<'a>(
        &'a self,
        mut state: EngineGuard<'a>,
        p: ProcId,
        page: PageId,
    ) -> Result<EngineGuard<'a>, DsmError> {
        let mut miss = state.engine.begin_miss(p, page);
        if let Miss::Busy = miss {
            state = self.wait(
                state,
                p,
                &self.settled,
                &mut |s| {
                    miss = s.engine.begin_miss(p, page);
                    !matches!(miss, Miss::Busy)
                },
                &|_| Vec::new(),
                &|_| format!("{p} waited for another processor's fetch of {page}"),
            )?;
        }
        if let Miss::Fetching(ticket) = miss {
            let mut fetch = Fetch(self, Some(ticket));
            drop(state);
            if let Some(hook) = self.fetch_hook.get() {
                hook(p, page);
            }
            state = self.lock();
            let ticket = fetch.1.take().expect("held until now");
            // A death that dropped the miss woke its followers already.
            if !state.engine.finish_miss(ticket) {
                return Err(DsmError::Dead(p));
            }
            self.settled.notify_all();
        }
        debug_assert!(
            state.engine.page_valid(p, page),
            "a resolved miss leaves {page} valid at {p}"
        );
        Ok(state)
    }

    /// Releases `lock` held by `p`, in `state`, and wakes the lock's
    /// waiters.
    pub(crate) fn release(
        &self,
        state: EngineGuard<'_>,
        p: ProcId,
        lock: LockId,
    ) -> Result<(), LockError> {
        state.engine.release(p, lock)?;
        drop(state);
        // Notified once the mutex is let go, as a woken waiter's first step
        // is to take it. A successful release implies the id is in range.
        self.lock_freed[lock.index()].notify_all();
        Ok(())
    }

    /// Arrives at `barrier` as `p`, in `state`. A closing arrival runs
    /// the checkpointer's trigger and wakes the episode's waiters. Returns
    /// the state, still held, so that a waiting arrival parks in the same
    /// hold.
    pub(crate) fn arrive<'a>(
        &'a self,
        mut state: EngineGuard<'a>,
        p: ProcId,
        barrier: BarrierId,
    ) -> Result<(EngineGuard<'a>, BarrierArrival), BarrierError> {
        let arrival = state.engine.barrier(p, barrier)?;
        if let BarrierArrival::Complete { episode } = arrival {
            let s = &mut *state;
            // Every other processor is still parked, so the cut is a
            // consistent synchronization point.
            if let Some(auto) = s.recovery.as_mut() {
                auto.maybe_cut(&mut lazy(&s.engine));
            }
            s.episodes_done[barrier.index()] = episode + 1;
            self.episode_done[barrier.index()].notify_all();
        }
        Ok((state, arrival))
    }

    /// Whether `p` is declared dead (always `false` on eager engines).
    pub(crate) fn is_dead(&self, p: ProcId) -> bool {
        live(&self.lock(), p).is_err()
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

    /// Parks `p` on `on` until `ready` holds, and returns the state held
    /// again. The caller has just found the condition false in this hold
    /// of `state`, so a wake-up cannot be lost: whoever makes the
    /// condition true does so under the same mutex and notifies `on`.
    /// `ready` runs with the state held after every wake-up; an acquire
    /// retries in it.
    ///
    /// After every wake-up, timed out or not, it first checks that `p`
    /// is alive: a death notifies every condvar, so a parked victim
    /// finds out at once.
    ///
    /// After every `holder_timeout` without a wake-up it declares each
    /// processor `suspects` names dead, in the same hold that read them.
    /// Once `wait_timeout` passes without a wake-up it panics with the
    /// stuck-waiter `report`, suspicion or not, and whether or not the
    /// condition holds by then: a condition that came true without a
    /// notify is a lost wake-up.
    ///
    /// # Errors
    ///
    /// [`DsmError::Dead`] once `p` is declared dead.
    // Out of line: inlined into `apply`, the wait loop and its stuck-waiter
    // diagnostics bloat that function's frame and tax every operation the
    // node runtime dispatches (measured: +9% on the benchmark's `round_us`).
    #[inline(never)]
    pub(crate) fn wait<'a>(
        &'a self,
        mut state: EngineGuard<'a>,
        p: ProcId,
        on: &Condvar,
        ready: &mut dyn FnMut(&Shared) -> bool,
        suspects: &dyn Fn(&Shared) -> Vec<ProcId>,
        report: &dyn Fn(&Shared) -> String,
    ) -> Result<EngineGuard<'a>, DsmError> {
        let mut start = Instant::now();
        let mut next_suspicion = self.holder_timeout.map(|period| start + period);
        loop {
            let deadline = self.wait_timeout.map(|limit| start + limit);
            match deadline.into_iter().chain(next_suspicion).min() {
                None => on.wait(&mut state),
                Some(wake) => {
                    let now = Instant::now();
                    if now < wake {
                        if on.wait_for(&mut state, wake - now).timed_out() {
                            live(&state, p)?;
                            continue;
                        }
                    } else if deadline.is_some_and(|d| now >= d) {
                        let report = report(&state);
                        drop(state);
                        panic!(
                            "DSM wait deadline exceeded after {:?}: {report}",
                            now - start
                        );
                    } else {
                        // Failure-detector path: whoever this waiter waits
                        // on has been silent for a whole period and is
                        // presumed crashed. Declaring it dead
                        // force-releases its locks and completes its
                        // barrier episodes. The condition is checked
                        // first, in the same hold, so that the suspects
                        // are the current ones.
                        if ready(&state) {
                            return Ok(state);
                        }
                        for suspect in suspects(&state) {
                            self.declare_dead_in(&mut state, suspect);
                        }
                        next_suspicion = self.holder_timeout.map(|period| now + period);
                        if ready(&state) {
                            return Ok(state);
                        }
                        continue;
                    }
                }
            }
            live(&state, p)?;
            if ready(&state) {
                return Ok(state);
            }
            // Woken without the condition: both clocks restart.
            start = Instant::now();
            next_suspicion = self.holder_timeout.map(|period| start + period);
        }
    }

    /// Declares `p` dead in the engine and wakes every waiter: those of
    /// the locks the engine force-released, of the barrier episodes it
    /// completed on `p`'s behalf and of the page whose miss it dropped
    /// retry or fall through, and `p`, if it waits, gets
    /// [`DsmError::Dead`].
    pub(crate) fn declare_dead(&self, p: ProcId) -> DeathReport {
        self.declare_dead_in(&mut self.lock(), p)
    }

    fn declare_dead_in(&self, s: &mut Shared, p: ProcId) -> DeathReport {
        // Cut *before* the engine processes the death: declaring `p` dead
        // resets its frames, and committed contents only `p` held would
        // vanish from every later cut — a revival would then cold-miss
        // into the page home's zeros. Captured pre-death, the cut holds
        // `p`'s committed pages (twin-first, so its still-open interval
        // leaks nothing), and the flush below lands in the interval store
        // where rejoin's catch-up delivery finds it. A refused
        // declaration must not cut: a second one would replace the
        // pre-death cut with one of the dead window.
        let mut engine = lazy(&s.engine);
        assert!(!engine.is_dead(p), "processor {p} is already dead");
        if let Some(auto) = s.recovery.as_mut() {
            auto.cut_now(&mut engine);
        }
        let report = engine.declare_dead(p);
        drop(engine);
        for &(barrier, episode) in &report.completed_episodes {
            s.episodes_done[barrier.index()] = episode + 1;
        }
        // Every waiter retries: `p` itself, wherever it is parked, to
        // find itself dead; the followers of the miss the death dropped;
        // and the waiters of the locks and episodes it freed.
        self.settled.notify_all();
        for freed in self.lock_freed.iter().chain(&self.episode_done) {
            freed.notify_all();
        }
        report
    }
}

/// A miss in its fetch, the mutex let go. A fetch hook that panics drops
/// it unfinished, and it finishes the miss as the panic goes on, so that
/// its page is not left busy for every same-page follower.
struct Fetch<'a>(&'a Cluster, Option<MissTicket>);

impl Drop for Fetch<'_> {
    fn drop(&mut self) {
        if let Some(ticket) = self.1.take() {
            self.0.lock().engine.finish_miss(ticket);
            self.0.settled.notify_all();
        }
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
        recovery: Option<AutoCheckpointer>,
    ) -> Self {
        let core = engine.core();
        let params = core.params();
        let (n_locks, n_barriers) = (params.n_locks, params.n_barriers);
        let (space, n_procs) = (core.space(), params.n_procs);
        drop(core);
        let shared = Shared {
            engine,
            episodes_done: vec![0; n_barriers],
            recovery,
        };
        let cluster = Arc::new(Cluster {
            shared: Mutex::new_in(shared, classes::DSM_ENGINE),
            settled: Condvar::new(),
            lock_freed: (0..n_locks).map(|_| Condvar::new()).collect(),
            episode_done: (0..n_barriers).map(|_| Condvar::new()).collect(),
            fetch_hook: OnceLock::new(),
            space,
            n_procs,
            wait_timeout,
            holder_timeout,
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
        self.cluster
            .lock()
            .engine
            .core_mut()
            .attach_recorder(recorder);
    }

    /// The shared protocol engine — for inspection (counters, fabric
    /// stats, fetch hooks) by tests and benches, and for driving it
    /// from one thread without blocking: an acquire of a held lock fails
    /// and a barrier arrival returns at once. Each call takes the
    /// runtime's mutex once; misses, releases and arrivals run as a
    /// [`ProcHandle`]'s do.
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
    /// Re-raises a body's panic, with its own payload, once every thread
    /// has finished.
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
                .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
                .collect()
        });
        results.into_iter().collect()
    }

    /// Snapshot of the accumulated network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.cluster.lock().engine.net_stats()
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
        lazy(&self.cluster.lock().engine).checkpoint()
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
        lazy(&self.cluster.lock().engine).restore(ckpt)
    }

    /// Declares processor `p` dead on the survivors' behalf (lazy
    /// protocols only — see [`lrc_core::LrcEngine::declare_dead`]): `p`'s
    /// open interval is flushed, its locks force-released (their waiters
    /// woken to retry and win), and any barrier episode waiting only on
    /// `p` completes (parked survivors fall through).
    ///
    /// `p`'s driving thread may be inside an operation. One that waits,
    /// or whose miss is fetching, ends with [`DsmError::Dead`] and
    /// installs nothing, and so does every later operation of `p` until a
    /// rejoin. The accessors without an error type
    /// ([`ProcHandle::read_bytes`], ...) panic with its message instead.
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
        lazy(&self.cluster.lock().engine).rejoin(p, ckpt)
    }

    // ---- self-healing runtime ----

    /// The automatic checkpointer's newest cut. The checkpointer keeps it
    /// beside the engine, under the runtime's one mutex, so this read
    /// never sees half of a cut. `None` without
    /// [`crate::DsmBuilder::checkpoint_every`] or before the first cut.
    pub fn latest_checkpoint(&self) -> Option<EngineCheckpoint> {
        self.cluster.lock().recovery.as_ref()?.latest()
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
        let state = self.cluster.lock();
        let core = state.engine.core();
        let params = core.params();
        write!(
            f,
            "Dsm({} procs, {}, {} locks, {} barriers)",
            params.n_procs, self.kind, params.n_locks, params.n_barriers
        )
    }
}

/// The runtime's engine as [`Dsm::engine`] hands it out: each call takes
/// the runtime's mutex once and releases it before returning. Accesses
/// resolve their misses as a [`ProcHandle`]'s do, fetch hook included,
/// and a release or a closing arrival wakes the same waiters and drives
/// the same checkpointer as a [`ProcHandle`]'s. Nothing here blocks: an
/// acquire of a held lock is a [`LockError::HeldByOther`], and a barrier
/// arrival returns at once.
#[derive(Clone, Copy)]
pub struct SharedEngine<'a>(&'a Cluster);

impl<'a> SharedEngine<'a> {
    /// Reads bytes as `p`, resolving misses.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the shared space, or with
    /// [`DsmError::Dead`]'s message if `p` is declared dead.
    pub fn read_into(&self, p: ProcId, addr: u64, buf: &mut [u8]) {
        or_panic(self.0.read(p, addr, buf));
    }

    /// Writes bytes as `p`, resolving misses.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the shared space, or with
    /// [`DsmError::Dead`]'s message if `p` is declared dead.
    pub fn write(&self, p: ProcId, addr: u64, data: &[u8]) {
        or_panic(self.0.write(p, addr, data));
    }

    /// Acquires `lock` for `p` if it is free.
    ///
    /// # Errors
    ///
    /// Propagates [`LockError`], [`LockError::HeldByOther`] included.
    ///
    /// # Panics
    ///
    /// Panics if `p` is declared dead.
    pub fn acquire(&self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        self.0.lock().engine.acquire(p, lock)
    }

    /// Releases `lock` held by `p`.
    ///
    /// # Errors
    ///
    /// Propagates [`LockError`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is declared dead.
    pub fn release(&self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        self.0.release(self.0.lock(), p, lock)
    }

    /// Arrives at `barrier` as `p`, without waiting for the episode.
    ///
    /// # Errors
    ///
    /// Propagates [`BarrierError`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is declared dead.
    pub fn barrier(&self, p: ProcId, barrier: BarrierId) -> Result<BarrierArrival, BarrierError> {
        self.0
            .arrive(self.0.lock(), p, barrier)
            .map(|(_, arrival)| arrival)
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
/// [`EngineCore`](lrc_core::EngineCore): each call takes the runtime's
/// mutex once.
#[derive(Clone, Copy)]
pub struct CoreView<'a>(&'a Cluster);

impl CoreView<'_> {
    /// Snapshot of the protocol event counters.
    pub fn counters(&self) -> EngineCounters {
        self.0.lock().engine.core().counters()
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
