//! The protocol-independent engine: everything lazy and eager release
//! consistency share, written once.
//!
//! The paper's two protocol families differ in exactly four places — what
//! an acquire pulls, what a release sends, how a miss is resolved, and
//! what a barrier exchanges. [`Protocol`] names those four points;
//! [`Engine`] owns everything else: the per-processor shards and the
//! cached read/write fast path over them, operation dispatch, and — in
//! [`EngineCore`] — the synchronization tables, slow-path gates,
//! contention accounting, fabric, counters and recorder hook.
//! Checkpointing is the lazy engine's alone
//! ([`LrcEngine::checkpoint`](crate::LrcEngine::checkpoint)).

use std::fmt;
use std::mem;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

use lrc_hist::HistoryRecorder;
use lrc_pagemem::{AddrSpace, PageBuf, PageId};
use lrc_simnet::{Fabric, Tally};
use lrc_sync::{
    AcquirePath, BarrierArrival, BarrierError, BarrierId, BarrierSet, LockError, LockId, LockTable,
};
use lrc_vclock::ProcId;
use parking_lot::lockdep::classes;

use crate::counters::{bump, CounterCells};
use crate::slowpath::{gate_lock, settle_contention, FetchHook, FetchHookCell, InFlight};
use crate::{ConfigError, EngineCounters, EngineParams, Frame, LockCell, Policy, Sharing};

/// A held gate of family `S`.
type Gate<'a, S> = <<S as Sharing>::Mutex<()> as LockCell<()>>::Guard<'a>;

/// How many gates of a flush set [`FlushGates`] holds in place; the rest
/// go to a heap list. Nearly every release of the paper's traces flushes at
/// most two pages; the larger flushes, mostly barrier arrivals, spill.
const INLINE_GATES: usize = 4;

/// The state and bookkeeping every protocol engine shares, independent of
/// the protocol: validated parameters, the lock table and barrier set,
/// the slow-path gates and in-flight gauges, the fabric meter, the event
/// counters, and the recorder and fetch-hook slots. An [`Engine`]
/// dereferences to its core, so these methods are called on the engine
/// itself.
///
/// # Concurrency
///
/// Every engine method takes `&self`, and the engine keeps its shared
/// state in the cells of its [`Sharing`] family `S`. A
/// [`Threads`](crate::Threads) engine is internally synchronized, so a
/// threaded runtime drives all processors concurrently through one
/// shared engine; a [`OneThread`](crate::OneThread) engine — the
/// trace-driven simulator's — has the same acquisition structure with
/// no locks: its mutexes are `RefCell`s, its statistics plain cells, and
/// it is not `Sync`. Everything below describes the `Threads` family;
/// under `OneThread` each "lock" is a borrow that cannot be contended,
/// and a re-entry that would deadlock a `Threads` engine panics instead.
/// State is split three ways:
///
/// * **per-processor shards** (page frames, dirty list, and the
///   protocol's per-processor extension), each behind its own mutex — the
///   only lock an ordinary access to a valid cached page takes;
/// * **shared protocol state** — the lock table and barrier set here, and
///   whatever the protocol adds (the lazy interval store, the eager
///   directory), each behind its own lock;
/// * **statistics** — the fabric meter and [`EngineCounters`] are relaxed
///   atomics (`Threads`) or plain cells (`OneThread`), aggregated on
///   read.
///
/// Slow paths do **not** share a global mutex; they serialize only on the
/// object they act on (one preamble enters the slow path, takes the
/// gates, and settles the contention counters for all of them):
///
/// * acquire and release of a lock hold that lock's **gate** (one mutex
///   per lock), so transfers of the *same* lock are totally ordered — the
///   order the lock table numbers its grants in — while unrelated locks
///   change hands concurrently;
/// * miss resolution holds the missed page's **gate** (one mutex per
///   page, the in-flight-miss table): misses on distinct pages resolve
///   concurrently, and a same-page follower waits on the resolver, not on
///   the engine. A protocol that flushes pages at a release or barrier
///   arrival ([`Protocol::FLUSHES_DIRTY`]) holds those pages' gates too,
///   taken in ascending page order — the deadlock-free order of every
///   multi-gate path;
/// * barrier arrivals serialize only on the barrier set's mutex; an
///   episode's *completion* runs on the last arriver's thread while every
///   other processor is parked by the runtime awaiting the episode, so it
///   has the engine to itself.
///
/// Lock order (the `Threads` family's; the lockdep verifier checks it):
/// lock gate → page gates (ascending) → lock-table / barrier-set mutexes
/// → protocol state (eager directory, epoch buffer | the lazy store lock)
/// → shard mutexes. No path holds two lock gates or two shard mutexes at
/// once.
///
/// Two assumptions bound the concurrency (both enforced by the `lrc-dsm`
/// runtime and trivially true single-threaded): each processor is driven
/// by one thread at a time, and a processor that arrived at a barrier
/// issues nothing until the episode completes.
#[derive(Debug)]
pub struct EngineCore<S: Sharing> {
    pub(crate) params: EngineParams,
    pub(crate) policy: Policy,
    pub(crate) space: AddrSpace,
    pub(crate) locks: S::Mutex<LockTable>,
    pub(crate) barriers: S::Mutex<BarrierSet>,
    /// Per-lock gates: acquire/release of one lock serialize here; distinct
    /// locks proceed concurrently.
    lock_gates: Vec<S::Mutex<()>>,
    /// Per-page gates (the in-flight-miss table): a miss holds its page's
    /// gate for the whole resolution, so same-page followers wait on the
    /// resolver and distinct pages resolve concurrently.
    page_gates: Vec<S::Mutex<()>>,
    /// Slow paths currently in flight (gauge behind
    /// [`EngineCounters::slow_waits_avoided`]).
    slow_inflight: S::Cell,
    /// Misses currently in flight (gauge behind
    /// [`EngineCounters::miss_inflight_peak`]).
    miss_inflight: S::Cell,
    fetch_hook: FetchHookCell,
    pub(crate) net: Fabric<S::Cell>,
    pub(crate) counters: CounterCells<S::Cell>,
    /// Optional history recorder (`lrc-hist`): when attached, every
    /// public operation logs itself — reads with the bytes they observed,
    /// synchronization operations with the engine-assigned grant/episode
    /// order. The unattached fast path costs one atomic load.
    recorder: OnceLock<Arc<HistoryRecorder>>,
}

impl<S: Sharing> EngineCore<S> {
    fn new(policy: Policy, params: &EngineParams) -> Result<Self, ConfigError> {
        let space = params.address_space()?;
        let n = params.n_procs;
        Ok(EngineCore {
            policy,
            space,
            locks: LockCell::new_in(LockTable::new(params.n_locks, n), classes::SYNC_LOCK_TABLE),
            barriers: LockCell::new_in(
                BarrierSet::new(params.n_barriers, n),
                classes::SYNC_BARRIER_SET,
            ),
            lock_gates: (0..params.n_locks)
                .map(|l| LockCell::new_in((), classes::ENGINE_LOCK_GATE.with_order(l as u64)))
                .collect(),
            page_gates: (0..space.n_pages())
                .map(|p| LockCell::new_in((), classes::ENGINE_PAGE_GATE.with_order(u64::from(p))))
                .collect(),
            slow_inflight: S::Cell::default(),
            miss_inflight: S::Cell::default(),
            fetch_hook: FetchHookCell::default(),
            net: Fabric::with_cells(n),
            counters: CounterCells::default(),
            recorder: OnceLock::new(),
            params: params.clone(),
        })
    }

    /// Attaches a history recorder: from now on every read (with its
    /// observed bytes), write, acquire, release, and barrier crossing is
    /// appended to the recorder's per-processor logs. Synchronization
    /// events carry engine-assigned orders — the lock table's per-lock
    /// grant numbers and the barrier set's episodes — so the recorded
    /// happens-before edges agree with the protocol without any global
    /// serialization. Attach before driving the engine so the history
    /// starts complete.
    ///
    /// # Panics
    ///
    /// Panics if a recorder is already attached or its processor count
    /// differs from the engine's.
    pub fn attach_recorder(&self, recorder: Arc<HistoryRecorder>) {
        assert_eq!(
            recorder.n_procs(),
            self.params.n_procs,
            "recorder processor count does not match the engine"
        );
        assert!(
            self.recorder.set(recorder).is_ok(),
            "a history recorder is already attached"
        );
    }

    /// The attached history recorder, if any.
    #[inline]
    pub(crate) fn recorder(&self) -> Option<&HistoryRecorder> {
        self.recorder.get().map(Arc::as_ref)
    }

    /// Installs the miss-fetch instrumentation hook (see [`FetchHook`]).
    /// Tests use a blocking hook to *prove* slow-path independence without
    /// timing assumptions; benches use a sleeping hook to model real
    /// network round-trip latency.
    ///
    /// # Panics
    ///
    /// Panics if a hook is already installed.
    pub fn set_fetch_hook(&self, hook: FetchHook) {
        assert!(
            self.fetch_hook.set(hook),
            "a fetch hook is already installed"
        );
    }

    /// Runs the fetch hook, if one is installed. A protocol calls this
    /// once per miss, after the miss's messages are charged and with no
    /// shared-structure lock held (only the missed page's gate).
    pub fn run_fetch_hook(&self, p: ProcId, page: PageId) {
        if let Some(hook) = self.fetch_hook.get() {
            hook(p, page);
        }
    }

    /// The parameters the engine was built from.
    pub fn params(&self) -> &EngineParams {
        &self.params
    }

    /// The data-movement policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The derived address space.
    pub fn space(&self) -> AddrSpace {
        self.space
    }

    /// The network meter.
    pub fn net(&self) -> &Fabric<S::Cell> {
        &self.net
    }

    /// Enables per-message logging on the internal fabric (for tests).
    pub fn enable_net_trace(&self) {
        self.net.enable_trace();
    }

    /// Snapshot of the protocol event counters.
    pub fn counters(&self) -> EngineCounters {
        self.counters.snapshot()
    }

    /// The live counter cells, for a protocol to [`bump`].
    pub fn tally(&self) -> &CounterCells<S::Cell> {
        &self.counters
    }

    /// The home processor of a page: the static directory manager under
    /// the eager protocols, the supplier of cold copies with no known
    /// modifier under the lazy ones.
    pub fn page_home(&self, page: PageId) -> ProcId {
        ProcId::new((page.index() % self.params.n_procs) as u16)
    }

    /// The current holder of `lock`, if any (`None` for free or unknown
    /// locks) — diagnostics for stuck-waiter reports.
    pub fn lock_holder(&self, lock: LockId) -> Option<ProcId> {
        self.locks.lock().holder(lock)
    }

    /// The live processors the current episode of `barrier` is still
    /// waiting for (empty for unknown barriers) — the failure detector's
    /// suspect list when a barrier wait times out.
    pub fn barrier_absentees(&self, barrier: BarrierId) -> Vec<ProcId> {
        self.barriers.lock().absent(barrier)
    }

    /// Records one checkpoint cut taken by the runtime's automatic
    /// checkpointer: bumps [`EngineCounters::checkpoints_cut`] and adds
    /// the cut's encoded bytes to [`EngineCounters::checkpoint_bytes`].
    /// Pure statistics — the cut itself is
    /// [`LrcEngine::checkpoint`](crate::LrcEngine::checkpoint).
    pub fn note_checkpoint(&self, encoded_bytes: u64) {
        bump(&self.counters.checkpoints_cut, 1);
        bump(&self.counters.checkpoint_bytes, encoded_bytes);
    }

    // ---- slow-path preamble ----

    /// Marks one slow path in flight. The caller takes the gates it needs
    /// and then [`SlowPath::settle`]s the entry.
    fn slow_path(&self) -> SlowPath<'_, S> {
        let (inflight, others) = InFlight::enter(&self.slow_inflight);
        SlowPath {
            core: self,
            _gate: None,
            _miss: None,
            _inflight: inflight,
            overlapped: others > 0,
            waited: false,
        }
    }

    /// Enters a slow path serialized on `lock`'s gate (an unknown lock has
    /// no gate; the lock table refuses it next). Not yet settled: a
    /// release goes on to take its flush set's page gates.
    fn with_lock_gate(&self, lock: LockId) -> SlowPath<'_, S> {
        let mut slow = self.slow_path();
        slow._gate = self
            .lock_gates
            .get(lock.index())
            .map(|g| gate_lock(g, &mut slow.waited));
        slow
    }

    /// Enters the slow path of a miss on `page`: counted in the in-flight
    /// miss gauge, serialized on the page's gate, settled.
    fn with_miss_gate(&self, page: PageId) -> SlowPath<'_, S> {
        let mut slow = self.slow_path();
        let (miss, others) = InFlight::enter(&self.miss_inflight);
        self.counters.miss_inflight_peak.raise(others + 1);
        slow._miss = Some(miss);
        slow._gate = Some(gate_lock(&self.page_gates[page.index()], &mut slow.waited));
        slow.settle();
        slow
    }

    /// Refuses a release `p` may not perform, leaving the table untouched
    /// (with the table's own error: unknown ids before wrong holder).
    fn check_holder(&self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        let mut locks = self.locks.lock();
        if locks.holder(lock) == Some(p) {
            return Ok(());
        }
        Err(locks
            .release(p, lock)
            .expect_err("release of an unheld lock must error"))
    }

    /// Hands `lock` back in the lock table as its holder `p` and records
    /// the release. The caller holds the lock's gate.
    fn finish_release(&self, p: ProcId, lock: LockId) {
        let grant = self
            .locks
            .lock()
            .release(p, lock)
            .expect("the holder releases its own lock");
        if let Some(rec) = self.recorder() {
            rec.release(p, lock, grant);
        }
        bump(&self.counters.releases, 1);
    }

    /// Releases `lock` on behalf of its crashed holder `p`, serialized
    /// with in-flight acquires of the lock like any release.
    pub(crate) fn force_release(&self, p: ProcId, lock: LockId) {
        let _gate = self.lock_gates.get(lock.index()).map(|g| g.lock());
        self.finish_release(p, lock);
    }
}

/// One slow-path entry: the RAII in-flight marks plus the gate it is
/// about. Dropping it releases the gate, then leaves the gauges.
struct SlowPath<'a, S: Sharing> {
    core: &'a EngineCore<S>,
    /// The one gate the entry is about: a lock's, or a missed page's.
    _gate: Option<Gate<'a, S>>,
    _miss: Option<InFlight<'a, S::Cell>>,
    _inflight: InFlight<'a, S::Cell>,
    /// Another slow path was in flight at entry — the overlap the retired
    /// global protocol mutex would have serialized.
    overlapped: bool,
    /// A gate was contended.
    waited: bool,
}

impl<S: Sharing> SlowPath<'_, S> {
    /// Settles the contention counters for this entry, once every gate it
    /// needs is held.
    fn settle(&self) {
        settle_contention(
            self.waited,
            self.overlapped,
            &self.core.counters.slow_waits,
            &self.core.counters.slow_waits_avoided,
        );
    }
}

/// The page gates a release or barrier arrival holds across its flush
/// ([`Protocol::FLUSHES_DIRTY`]), taken in ascending page order: the first
/// [`INLINE_GATES`] in place, the rest in a heap list. Dropping it
/// releases them.
struct FlushGates<'a, S: Sharing> {
    inline: [Option<Gate<'a, S>>; INLINE_GATES],
    spilled: Vec<Gate<'a, S>>,
}

/// One processor's private slice of the engine: its page frames, the
/// pages dirtied in the open interval or epoch, and the protocol's
/// per-processor extension. Everything an ordinary cached read or write
/// touches lives here, behind this shard's own mutex, so two processors
/// hitting valid cached pages never contend.
#[derive(Debug)]
pub struct Shard<P: Protocol> {
    /// The processor's page table.
    pub pages: Vec<Frame<P::FrameExt>>,
    /// Pages dirtied since the last interval close or flush, in the order
    /// of their first writes. A page is listed at most once: it joins
    /// when its twin is made and leaves when its twin is consumed, and
    /// only a page without a twin gets one.
    pub dirty: Vec<PageId>,
    /// Buffers of consumed twins, for the next first writes to take
    /// (`Frame::ensure_twin`, `Frame::close_twin`). A buffer returns
    /// here when its twin is consumed, so the list never holds more than
    /// the largest dirty set the shard has had.
    pub spare_twins: Vec<PageBuf>,
    /// The protocol's per-processor state.
    pub ext: P::ShardExt,
    /// `dirty`, ascending: the pages whose gates a flush holds
    /// ([`Protocol::FLUSHES_DIRTY`]). Refilled at each flush.
    flush_set: Vec<PageId>,
}

/// A release-consistency protocol, as the four points where the paper
/// says the families differ. Every hook receives the whole [`Engine`]:
/// its shards, its core, and — through [`Engine::protocol`] — the
/// protocol's own shared state.
pub trait Protocol: Sized + fmt::Debug {
    /// The sharing family the engine and this protocol's shared state are
    /// built in.
    type Family: Sharing;
    /// Per-processor state kept in each [`Shard`] next to the frames.
    type ShardExt: fmt::Debug;
    /// Per-page state kept in each [`Frame`] (every processor holds a
    /// frame for every page, so keep it small).
    type FrameExt: fmt::Debug + Default;

    /// Validates protocol-specific parameters and builds the protocol's
    /// shared state for a fresh engine.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if `core`'s parameters ask for something the
    /// protocol does not implement.
    fn new(core: &EngineCore<Self::Family>) -> Result<Self, ConfigError>;

    /// Builds processor `p`'s shard extension for a fresh engine.
    fn new_ext(core: &EngineCore<Self::Family>, p: ProcId) -> Self::ShardExt;

    /// Whether processors can be declared dead under this protocol. When
    /// set, every operation first asserts its processor is alive
    /// ([`Protocol::is_dead`]).
    const CRASH_TOLERANT: bool = false;

    /// True if the shard's processor has been declared dead.
    fn is_dead(_ext: &Self::ShardExt) -> bool {
        false
    }

    /// **What an acquire pulls.** `p` was just granted the lock along
    /// `path` (still inside the lock's gate): charge the transfer's
    /// messages and perform the protocol's acquire-time consistency
    /// actions.
    fn on_acquire(engine: &Engine<Self>, p: ProcId, path: &AcquirePath);

    /// Whether a release or barrier arrival of `p` flushes the pages `p`
    /// dirtied ([`Shard::dirty`]) to other processors. If so, the engine
    /// holds those pages' gates, taken in ascending order, across
    /// [`Protocol::on_release`] / [`Protocol::barrier_arrive`]. False for
    /// a protocol whose releases are local.
    const FLUSHES_DIRTY: bool = false;

    /// **What a release sends.** `p` holds the lock and is about to hand
    /// it back (inside the lock's gate and the flush set's page gates).
    fn on_release(engine: &Engine<Self>, p: ProcId);

    /// **What a barrier exchanges**, arrival half: `p`'s arrival has been
    /// validated but not yet counted (inside the flush set's page gates).
    fn barrier_arrive(engine: &Engine<Self>, p: ProcId, barrier: BarrierId, master: ProcId);

    /// **What a barrier exchanges**, completion half: the last processor
    /// just arrived. Runs on its thread with every other processor parked.
    fn barrier_complete(engine: &Engine<Self>, barrier: BarrierId, master: ProcId);

    /// **How a miss is resolved.** `page` is not valid at `p`; make it so.
    /// The engine holds the page's gate for the whole resolution and has
    /// re-checked validity under it. Call [`EngineCore::run_fetch_hook`] once
    /// the messages are charged.
    fn resolve_miss(engine: &Engine<Self>, p: ProcId, page: PageId);
}

/// A release-consistency engine: `n` processors, their page copies, and
/// the acquire/release/barrier/miss protocol `P`, with every message
/// charged to an internal [`Fabric`].
///
/// The engine is *data-full*: writes carry real bytes, and reads return
/// the bytes a processor of the simulated DSM would observe — which on a
/// properly-labeled program must equal sequential consistency (the
/// `lrc-sim` crate checks exactly that). It dereferences to its
/// [`EngineCore`], whose docs describe the concurrency model and the two
/// [`Sharing`] families an engine is built in (`P::Family`).
#[derive(Debug)]
pub struct Engine<P: Protocol> {
    core: EngineCore<P::Family>,
    shards: Vec<<P::Family as Sharing>::Mutex<Shard<P>>>,
    pub(crate) proto: P,
}

impl<P: Protocol> Deref for Engine<P> {
    type Target = EngineCore<P::Family>;

    fn deref(&self) -> &EngineCore<P::Family> {
        &self.core
    }
}

impl<P: Protocol> Engine<P> {
    /// Builds an engine running `policy` over `params`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the parameters do not validate.
    pub fn new(policy: Policy, params: &EngineParams) -> Result<Self, ConfigError> {
        let core = EngineCore::new(policy, params)?;
        let proto = P::new(&core)?;
        let shards = ProcId::all(params.n_procs)
            .map(|p| {
                let shard = Shard {
                    pages: (0..core.space.n_pages())
                        .map(|_| Frame::default())
                        .collect(),
                    dirty: Vec::new(),
                    spare_twins: Vec::new(),
                    ext: P::new_ext(&core, p),
                    flush_set: Vec::new(),
                };
                LockCell::new_in(shard, classes::ENGINE_SHARD)
            })
            .collect();
        Ok(Engine {
            core,
            shards,
            proto,
        })
    }

    /// The protocol's shared state.
    pub fn protocol(&self) -> &P {
        &self.proto
    }

    /// Locks processor `p`'s shard.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn shard(&self, p: ProcId) -> impl DerefMut<Target = Shard<P>> + '_ {
        self.shards[p.index()].lock()
    }

    /// True if `p` holds a valid resident copy of `page`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `page` is out of range.
    pub fn page_valid(&self, p: ProcId, page: PageId) -> bool {
        self.shard(p).pages[page.index()].valid
    }

    /// Takes the gates of the pages `p`'s release or barrier arrival
    /// flushes, if the protocol flushes ([`Protocol::FLUSHES_DIRTY`]):
    /// `p`'s dirty pages, copied into the shard's own buffer and sorted
    /// there. No shard lock is held while the gates are taken; `waited`
    /// is set if one was contended.
    fn gate_flush_set(&self, p: ProcId, waited: &mut bool) -> Option<FlushGates<'_, P::Family>> {
        if !P::FLUSHES_DIRTY {
            return None;
        }
        let mut pages = {
            let mut shard = self.shard(p);
            let Shard {
                dirty, flush_set, ..
            } = &mut *shard;
            let mut pages = mem::take(flush_set);
            pages.clear();
            pages.extend_from_slice(dirty);
            pages
        };
        pages.sort_unstable();
        debug_assert!(
            pages.windows(2).all(|w| w[0] != w[1]),
            "a page is dirty at most once"
        );
        let mut gates = FlushGates {
            inline: Default::default(),
            spilled: Vec::new(),
        };
        for (i, g) in pages.iter().enumerate() {
            let gate = gate_lock(&self.core.page_gates[g.index()], waited);
            match gates.inline.get_mut(i) {
                Some(slot) => *slot = Some(gate),
                None => gates.spilled.push(gate),
            }
        }
        self.shard(p).flush_set = pages;
        Some(gates)
    }

    fn assert_live(&self, p: ProcId, op: &str) {
        if P::CRASH_TOLERANT {
            assert!(
                !P::is_dead(&self.shard(p).ext),
                "{op} by dead processor {p}"
            );
        }
    }

    // ---- ordinary accesses ----

    /// Reads `buf.len()` bytes at `addr` as processor `p`, resolving
    /// access misses as needed. Hitting a valid cached page takes only
    /// `p`'s shard lock. An empty read touches no page: no miss, no
    /// message.
    ///
    /// # Panics
    ///
    /// Panics if the range — an empty one too — is out of bounds or `p` is
    /// out of range.
    // Out of line, like `write` and `resolve_miss`: the engine is generic,
    // so it is instantiated in its callers' crates, where LLVM otherwise
    // merges both families' copies — miss path included — into the
    // caller's loop (measured: eager trace replay 7% slower).
    #[inline(never)]
    pub fn read_into(&self, p: ProcId, addr: u64, buf: &mut [u8]) {
        let mut cursor = 0;
        for seg in self.core.space.segments(addr, buf.len()) {
            loop {
                {
                    let shard = self.shard(p);
                    assert!(!P::is_dead(&shard.ext), "read by dead processor {p}");
                    let frame = &shard.pages[seg.page.index()];
                    if frame.valid {
                        let copy = frame.copy.as_ref().expect("valid page has a copy");
                        copy.read(seg.offset, &mut buf[cursor..cursor + seg.len]);
                        break;
                    }
                }
                self.resolve_miss(p, seg.page);
            }
            cursor += seg.len;
        }
        if let Some(rec) = self.core.recorder() {
            rec.read(p, addr, buf);
        }
    }

    /// Reads `len` bytes at `addr` into a fresh vector.
    ///
    /// # Panics
    ///
    /// See [`Engine::read_into`].
    pub fn read_vec(&self, p: ProcId, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read_into(p, addr, &mut buf);
        buf
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Panics
    ///
    /// See [`Engine::read_into`].
    pub fn read_u64(&self, p: ProcId, addr: u64) -> u64 {
        let mut raw = [0u8; 8];
        self.read_into(p, addr, &mut raw);
        u64::from_le_bytes(raw)
    }

    /// Writes `data` at `addr` as processor `p`. The first write to a page
    /// in an interval twins it (§4.3.1 — both families are multiple-writer
    /// protocols); misses resolve first so the twin reflects all noticed
    /// modifications. Writing a valid cached page takes only `p`'s shard
    /// lock. An empty write touches no page: nothing is twinned, and the
    /// next release has nothing of it to close or flush.
    ///
    /// # Panics
    ///
    /// Panics if the range — an empty one too — is out of bounds or `p` is
    /// out of range.
    #[inline(never)]
    pub fn write(&self, p: ProcId, addr: u64, data: &[u8]) {
        let mut cursor = 0;
        for seg in self.core.space.segments(addr, data.len()) {
            loop {
                {
                    let mut guard = self.shard(p);
                    let shard = &mut *guard;
                    assert!(!P::is_dead(&shard.ext), "write by dead processor {p}");
                    let frame = &mut shard.pages[seg.page.index()];
                    if frame.valid {
                        if !frame.is_dirty() {
                            frame.ensure_twin(&mut shard.spare_twins);
                            shard.dirty.push(seg.page);
                        }
                        frame.write(seg.offset, &data[cursor..cursor + seg.len]);
                        break;
                    }
                }
                self.resolve_miss(p, seg.page);
            }
            cursor += seg.len;
        }
        if let Some(rec) = self.core.recorder() {
            rec.write(p, addr, data);
        }
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Panics
    ///
    /// See [`Engine::write`].
    pub fn write_u64(&self, p: ProcId, addr: u64, value: u64) {
        self.write(p, addr, &value.to_le_bytes());
    }

    /// Resolves an access miss on `page` at `p`, holding the page's gate
    /// for the whole resolution.
    #[inline(never)]
    fn resolve_miss(&self, p: ProcId, page: PageId) {
        let _slow = self.core.with_miss_gate(page);
        if self.page_valid(p, page) {
            // Resolved while this processor waited for the gate (only
            // possible through this processor's own earlier call).
            return;
        }
        P::resolve_miss(self, p, page);
    }

    // ---- special accesses ----

    /// Acquires `lock` as processor `p`: the lock table finds the path the
    /// transfer takes and numbers the grant, then the protocol charges
    /// the messages and performs its acquire-time consistency actions
    /// ([`Protocol::on_acquire`]).
    ///
    /// Serializes only on `lock`'s gate: acquires of unrelated locks, and
    /// misses on any page, proceed concurrently.
    ///
    /// # Errors
    ///
    /// Propagates [`LockError`] (held lock, unknown ids). The lock path is
    /// resolved *before* any protocol state changes, so a failed acquire —
    /// in particular a contended [`LockError::HeldByOther`] that a blocking
    /// runtime retries in a loop — has no side effects.
    pub fn acquire(&self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        self.assert_live(p, "acquire");
        let slow = self.core.with_lock_gate(lock);
        slow.settle();
        let path = self.core.locks.lock().acquire(p, lock)?;
        bump(&self.core.counters.acquires, 1);
        if let Some(rec) = self.core.recorder() {
            // The grant number was assigned by the lock table under its
            // own mutex, inside this lock's gate: the recorded order is
            // the order the lock actually changed hands in.
            rec.acquire(p, lock, path.grant_seq);
        }
        P::on_acquire(self, p, &path);
        Ok(())
    }

    /// Releases `lock`: the protocol performs its release-time
    /// consistency actions ([`Protocol::on_release`] — nothing on the wire
    /// under the lazy protocols, a flush to every cacher under the eager
    /// ones), then the lock table records `p` as the last releaser. Still
    /// inside the lock's gate throughout, so the next acquirer cannot read
    /// the releaser's knowledge before it is complete.
    ///
    /// # Errors
    ///
    /// Propagates [`LockError::NotHolder`] and range errors; an illegal
    /// release is refused before the protocol acts, so it has no effect.
    pub fn release(&self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        self.assert_live(p, "release");
        let mut slow = self.core.with_lock_gate(lock);
        if let Err(e) = self.core.check_holder(p, lock) {
            slow.settle();
            return Err(e);
        }
        // Declared after `slow`, so dropped first: the page gates go before
        // the lock's.
        let _flush = self.gate_flush_set(p, &mut slow.waited);
        slow.settle();
        P::on_release(self, p);
        self.core.finish_release(p, lock);
        Ok(())
    }

    /// Arrives at `barrier` as processor `p`: the protocol sends what an
    /// arrival carries ([`Protocol::barrier_arrive`]), the barrier set
    /// counts the arrival, and the last arriver runs the episode's
    /// completion ([`Protocol::barrier_complete`]) on its own thread while
    /// all other processors are parked awaiting the episode.
    ///
    /// # Errors
    ///
    /// Propagates [`BarrierError`] (double arrival, range errors); an
    /// illegal arrival is refused before the protocol acts.
    pub fn barrier(&self, p: ProcId, barrier: BarrierId) -> Result<BarrierArrival, BarrierError> {
        self.assert_live(p, "barrier");
        let mut slow = self.core.slow_path();
        let checked = {
            let barriers = self.core.barriers.lock();
            barriers
                .check_arrival(p, barrier)
                .map(|()| barriers.master(barrier))
        };
        let master = match checked {
            Ok(master) => master,
            Err(e) => {
                slow.settle();
                return Err(e);
            }
        };
        let _flush = self.gate_flush_set(p, &mut slow.waited);
        slow.settle();
        P::barrier_arrive(self, p, barrier, master);
        let outcome = self.core.barriers.lock().arrive(p, barrier)?;
        if let Some(rec) = self.core.recorder() {
            rec.barrier(p, barrier, outcome.episode());
        }
        if let BarrierArrival::Complete { .. } = outcome {
            P::barrier_complete(self, barrier, master);
        }
        Ok(outcome)
    }
}
