//! The protocol-independent engine: everything lazy and eager release
//! consistency share, written once.
//!
//! The paper's two protocol families differ in exactly four places — what
//! an acquire pulls, what a release sends, how a miss is resolved, and
//! what a barrier exchanges. [`Protocol`] names those four points;
//! [`Engine`] owns everything else: the per-processor shards and the
//! cached read/write fast path over them, operation dispatch, the miss
//! split, and — in [`EngineCore`] — the synchronization tables, the
//! table of misses in flight, the fabric, counters and recorder hook.
//! Checkpointing is the lazy engine's alone
//! ([`LrcEngine::checkpoint`](crate::LrcEngine::checkpoint)).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use lrc_hist::HistoryRecorder;
use lrc_pagemem::{AddrSpace, PageBuf, PageId};
use lrc_simnet::Fabric;
use lrc_sync::{
    AcquirePath, BarrierArrival, BarrierError, BarrierId, BarrierSet, LockError, LockId, LockTable,
};
use lrc_vclock::ProcId;

use crate::slowpath::{Miss, MissTable, MissTicket};
use crate::{ConfigError, EngineCounters, EngineParams, Frame, Policy};

/// The state and bookkeeping every protocol engine shares, independent of
/// the protocol: validated parameters, the lock table and barrier set,
/// the table of misses in their fetch, the fabric meter, the event
/// counters, and the recorder slot. An [`Engine`] dereferences to its
/// core, so these methods are called on the engine itself.
///
/// # Concurrency
///
/// Every engine method that changes state takes `&mut self`: the engine
/// is plain data, and whoever drives it owns it for the call. The
/// trace-driven simulator owns its engine outright. The threaded runtime
/// (`lrc-dsm`) keeps one engine behind one mutex and takes it once per
/// operation; each operation then runs to completion with the engine to
/// itself.
///
/// Only a miss leaves the engine mid-operation, because only a miss
/// waits on the network. It comes in two halves:
/// [`Engine::begin_miss`] plans the fetch and charges its messages, and
/// [`Engine::finish_miss`] applies what was fetched. Between the two the
/// runtime releases its mutex and runs the modeled fetch, so other
/// processors' operations — unrelated locks, other pages, even other
/// misses' fetches — overlap it. The plan waits in the missing
/// processor's scratch. A second processor missing the same page
/// meanwhile is told [`Miss::Busy`] and asks again once the first miss
/// finishes. The simulator calls the two halves back to back. A death
/// ([`LrcEngine::declare_dead`](crate::LrcEngine::declare_dead)) may land
/// between the halves: it drops its victim's miss, so the page is free
/// at once, and the finish reports that it installed nothing.
///
/// Two assumptions bound this (both enforced by the `lrc-dsm` runtime and
/// trivially true single-threaded): each processor is driven by one
/// thread at a time, so a processor has at most one miss open, and a
/// processor that arrived at a barrier issues nothing until the episode
/// completes.
#[derive(Debug)]
pub struct EngineCore {
    pub(crate) params: EngineParams,
    pub(crate) policy: Policy,
    pub(crate) space: AddrSpace,
    pub(crate) locks: LockTable,
    pub(crate) barriers: BarrierSet,
    /// The pages whose fetch is in progress, and the contention
    /// accounting around them.
    pub(crate) misses: MissTable,
    pub(crate) net: Fabric,
    pub(crate) counters: EngineCounters,
    /// Optional history recorder (`lrc-hist`): when attached, every
    /// public operation logs itself — reads with the bytes they observed,
    /// synchronization operations with the engine-assigned grant/episode
    /// order.
    recorder: Option<Arc<HistoryRecorder>>,
}

impl EngineCore {
    fn new(policy: Policy, params: &EngineParams) -> Result<Self, ConfigError> {
        let space = params.address_space()?;
        let n = params.n_procs;
        Ok(EngineCore {
            policy,
            space,
            locks: LockTable::new(params.n_locks, n),
            barriers: BarrierSet::new(params.n_barriers, n),
            misses: MissTable::new(space.n_pages() as usize),
            net: Fabric::new(n),
            counters: EngineCounters::default(),
            recorder: None,
            params: params.clone(),
        })
    }

    /// Attaches a history recorder: from now on every read (with its
    /// observed bytes), write, acquire, release, and barrier crossing is
    /// appended to the recorder's per-processor logs. Synchronization
    /// events carry engine-assigned orders — the lock table's per-lock
    /// grant numbers and the barrier set's episodes — so the recorded
    /// happens-before edges agree with the protocol. Attach before
    /// driving the engine so the history starts complete.
    ///
    /// # Panics
    ///
    /// Panics if a recorder is already attached or its processor count
    /// differs from the engine's.
    pub fn attach_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        assert_eq!(
            recorder.n_procs(),
            self.params.n_procs,
            "recorder processor count does not match the engine"
        );
        assert!(
            self.recorder.is_none(),
            "a history recorder is already attached"
        );
        self.recorder = Some(recorder);
    }

    /// The attached history recorder, if any.
    #[inline]
    pub(crate) fn recorder(&self) -> Option<&HistoryRecorder> {
        self.recorder.as_deref()
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
    pub fn net(&self) -> &Fabric {
        &self.net
    }

    /// Enables per-message logging on the internal fabric (for tests).
    pub fn enable_net_trace(&mut self) {
        self.net.enable_trace();
    }

    /// Snapshot of the protocol event counters.
    pub fn counters(&self) -> EngineCounters {
        self.counters
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
        self.locks.holder(lock)
    }

    /// The live processors the current episode of `barrier` is still
    /// waiting for (empty for unknown barriers) — the failure detector's
    /// suspect list when a barrier wait times out.
    pub fn barrier_absentees(&self, barrier: BarrierId) -> Vec<ProcId> {
        self.barriers.absent(barrier)
    }

    /// Records one checkpoint cut taken by the runtime's automatic
    /// checkpointer: bumps [`EngineCounters::checkpoints_cut`] and adds
    /// the cut's encoded bytes to [`EngineCounters::checkpoint_bytes`].
    /// Pure statistics — the cut itself is
    /// [`LrcEngine::checkpoint`](crate::LrcEngine::checkpoint).
    pub fn note_checkpoint(&mut self, encoded_bytes: u64) {
        self.counters.checkpoints_cut += 1;
        self.counters.checkpoint_bytes += encoded_bytes;
    }

    /// Counts one slow-path entry that overlaps a fetch in flight.
    fn enter_slow_path(&mut self) {
        self.misses.overlap(&mut self.counters);
    }

    /// Refuses a release `p` may not perform, leaving the table untouched
    /// (with the table's own error: unknown ids before wrong holder).
    fn check_holder(&mut self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        if self.locks.holder(lock) == Some(p) {
            return Ok(());
        }
        Err(self
            .locks
            .release(p, lock)
            .expect_err("release of an unheld lock must error"))
    }

    /// Hands `lock` back in the lock table as its holder `p` and records
    /// the release.
    pub(crate) fn finish_release(&mut self, p: ProcId, lock: LockId) {
        let grant = self
            .locks
            .release(p, lock)
            .expect("the holder releases its own lock");
        if let Some(rec) = self.recorder() {
            rec.release(p, lock, grant);
        }
        self.counters.releases += 1;
    }
}

/// One processor's private slice of the engine: its page frames, the
/// pages dirtied in the open interval or epoch, and the protocol's
/// per-processor extension. Everything an ordinary cached read or write
/// touches lives here.
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
}

/// A release-consistency protocol, as the four points where the paper
/// says the families differ. Every hook receives the whole [`Engine`]:
/// its core, and — through [`Engine::parts`] — its fabric, counters,
/// shards and the protocol's own shared state at once.
pub trait Protocol: Sized + fmt::Debug {
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
    fn new(core: &EngineCore) -> Result<Self, ConfigError>;

    /// Builds processor `p`'s shard extension for a fresh engine.
    fn new_ext(core: &EngineCore, p: ProcId) -> Self::ShardExt;

    /// Whether processors can be declared dead under this protocol. When
    /// set, every operation first asserts its processor is alive
    /// ([`Protocol::is_dead`]).
    const CRASH_TOLERANT: bool = false;

    /// True if the shard's processor has been declared dead.
    fn is_dead(_ext: &Self::ShardExt) -> bool {
        false
    }

    /// **What an acquire pulls.** `p` was just granted the lock along
    /// `path`: charge the transfer's messages and perform the protocol's
    /// acquire-time consistency actions.
    fn on_acquire(engine: &mut Engine<Self>, p: ProcId, path: &AcquirePath);

    /// **What a release sends.** `p` holds the lock and is about to hand
    /// it back.
    fn on_release(engine: &mut Engine<Self>, p: ProcId);

    /// **What a barrier exchanges**, arrival half: `p`'s arrival has been
    /// validated but not yet counted.
    fn barrier_arrive(engine: &mut Engine<Self>, p: ProcId, barrier: BarrierId, master: ProcId);

    /// **What a barrier exchanges**, completion half: the last processor
    /// just arrived, and every other processor is waiting for the episode.
    fn barrier_complete(engine: &mut Engine<Self>, barrier: BarrierId, master: ProcId);

    /// **How a miss is resolved**, planning half: `page` is not valid at
    /// `p`, and no other processor is fetching it. Plan the fetch into
    /// `p`'s shard and charge its messages. Returns `None` if the page
    /// was made valid locally with nothing to fetch, or else the token
    /// [`Protocol::finish_miss`] checks the plan against (the lazy
    /// store's era; eager engines have none and return 0).
    fn begin_miss(engine: &mut Engine<Self>, p: ProcId, page: PageId) -> Option<u64>;

    /// **How a miss is resolved**, applying half: the fetch that
    /// [`Protocol::begin_miss`] planned, with token `era`, is done; make
    /// `page` valid at `p`.
    fn finish_miss(engine: &mut Engine<Self>, p: ProcId, page: PageId, era: u64);
}

/// A release-consistency engine: `n` processors, their page copies, and
/// the acquire/release/barrier/miss protocol `P`, with every message
/// charged to an internal [`Fabric`].
///
/// The engine is *data-full*: writes carry real bytes, and reads return
/// the bytes a processor of the simulated DSM would observe — which on a
/// properly-labeled program must equal sequential consistency (the
/// `lrc-sim` crate checks exactly that). It dereferences to its
/// [`EngineCore`], whose docs describe how it is driven.
#[derive(Debug)]
pub struct Engine<P: Protocol> {
    pub(crate) core: EngineCore,
    pub(crate) shards: Vec<Shard<P>>,
    pub(crate) proto: P,
}

impl<P: Protocol> Deref for Engine<P> {
    type Target = EngineCore;

    fn deref(&self) -> &EngineCore {
        &self.core
    }
}

impl<P: Protocol> DerefMut for Engine<P> {
    fn deref_mut(&mut self) -> &mut EngineCore {
        &mut self.core
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
            .map(|p| Shard {
                pages: (0..core.space.n_pages())
                    .map(|_| Frame::default())
                    .collect(),
                dirty: Vec::new(),
                spare_twins: Vec::new(),
                ext: P::new_ext(&core, p),
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

    /// The engine split into the parts a protocol hook changes, for one
    /// that works on several at once: the fabric, the counters, every
    /// processor's shard (indexed by processor), and the protocol's shared
    /// state.
    pub fn parts(&mut self) -> (&mut Fabric, &mut EngineCounters, &mut [Shard<P>], &mut P) {
        let core = &mut self.core;
        (
            &mut core.net,
            &mut core.counters,
            &mut self.shards,
            &mut self.proto,
        )
    }

    /// Processor `p`'s shard.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn shard(&self, p: ProcId) -> &Shard<P> {
        &self.shards[p.index()]
    }

    /// True if `p` holds a valid resident copy of `page`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `page` is out of range.
    pub fn page_valid(&self, p: ProcId, page: PageId) -> bool {
        self.shard(p).pages[page.index()].valid
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
    /// access misses as needed, each one's two halves back to back. An
    /// empty read touches no page: no miss, no message.
    ///
    /// # Panics
    ///
    /// Panics if the range — an empty one too — is out of bounds or `p` is
    /// out of range.
    pub fn read_into(&mut self, p: ProcId, addr: u64, buf: &mut [u8]) {
        while let Err(page) = self.try_read(p, addr, buf) {
            self.resolve_miss(p, page);
        }
    }

    /// Reads `buf.len()` bytes at `addr` as processor `p` if every page
    /// of the range is valid at `p`. Otherwise returns the first page
    /// that is not, for the caller to resolve ([`Engine::begin_miss`])
    /// before it tries again; the read is then not recorded, and `buf`
    /// holds the bytes of the pages before that one.
    ///
    /// # Errors
    ///
    /// The first page of the range that is not valid at `p`.
    ///
    /// # Panics
    ///
    /// Panics if the range — an empty one too — is out of bounds or `p` is
    /// out of range.
    // Out of line, like `try_write` and `resolve_miss`: the engine is
    // generic, so it is instantiated in its callers' crates, where LLVM
    // otherwise merges both protocols' copies — miss path included — into
    // the caller's loop.
    #[inline(never)]
    pub fn try_read(&mut self, p: ProcId, addr: u64, buf: &mut [u8]) -> Result<(), PageId> {
        let shard = &self.shards[p.index()];
        assert!(!P::is_dead(&shard.ext), "read by dead processor {p}");
        let mut cursor = 0;
        for seg in self.core.space.segments(addr, buf.len()) {
            let frame = &shard.pages[seg.page.index()];
            if !frame.valid {
                return Err(seg.page);
            }
            let copy = frame.copy.as_ref().expect("valid page has a copy");
            copy.read(seg.offset, &mut buf[cursor..cursor + seg.len]);
            cursor += seg.len;
        }
        if let Some(rec) = self.core.recorder() {
            rec.read(p, addr, buf);
        }
        Ok(())
    }

    /// Reads `len` bytes at `addr` into a fresh vector.
    ///
    /// # Panics
    ///
    /// See [`Engine::read_into`].
    pub fn read_vec(&mut self, p: ProcId, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read_into(p, addr, &mut buf);
        buf
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Panics
    ///
    /// See [`Engine::read_into`].
    pub fn read_u64(&mut self, p: ProcId, addr: u64) -> u64 {
        let mut raw = [0u8; 8];
        self.read_into(p, addr, &mut raw);
        u64::from_le_bytes(raw)
    }

    /// Writes `data` at `addr` as processor `p`. The first write to a page
    /// in an interval twins it (§4.3.1 — both families are multiple-writer
    /// protocols); misses resolve first, back to back, so the twin
    /// reflects all noticed modifications. An empty write touches no
    /// page: nothing is twinned, and the next release has nothing of it
    /// to close or flush.
    ///
    /// # Panics
    ///
    /// Panics if the range — an empty one too — is out of bounds or `p` is
    /// out of range.
    pub fn write(&mut self, p: ProcId, addr: u64, data: &[u8]) {
        while let Err(page) = self.try_write(p, addr, data) {
            self.resolve_miss(p, page);
        }
    }

    /// Writes `data` at `addr` as processor `p` if every page of the
    /// range is valid at `p`; otherwise returns the first page that is
    /// not, as [`Engine::try_read`] does. The pages before it are written
    /// already; trying again writes them again, which changes nothing.
    ///
    /// # Errors
    ///
    /// The first page of the range that is not valid at `p`.
    ///
    /// # Panics
    ///
    /// Panics if the range — an empty one too — is out of bounds or `p` is
    /// out of range.
    #[inline(never)]
    pub fn try_write(&mut self, p: ProcId, addr: u64, data: &[u8]) -> Result<(), PageId> {
        let shard = &mut self.shards[p.index()];
        assert!(!P::is_dead(&shard.ext), "write by dead processor {p}");
        let mut cursor = 0;
        for seg in self.core.space.segments(addr, data.len()) {
            let frame = &mut shard.pages[seg.page.index()];
            if !frame.valid {
                return Err(seg.page);
            }
            if !frame.is_dirty() {
                frame.ensure_twin(&mut shard.spare_twins);
                shard.dirty.push(seg.page);
            }
            frame.write(seg.offset, &data[cursor..cursor + seg.len]);
            cursor += seg.len;
        }
        if let Some(rec) = self.core.recorder() {
            rec.write(p, addr, data);
        }
        Ok(())
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Panics
    ///
    /// See [`Engine::write`].
    pub fn write_u64(&mut self, p: ProcId, addr: u64, value: u64) {
        self.write(p, addr, &value.to_le_bytes());
    }

    /// Resolves an access miss on `page` at `p` with both halves back to
    /// back, as a single-threaded driver does.
    #[inline(never)]
    fn resolve_miss(&mut self, p: ProcId, page: PageId) {
        match self.begin_miss(p, page) {
            Miss::Ready => {}
            Miss::Fetching(ticket) => {
                let installed = self.finish_miss(ticket);
                debug_assert!(installed, "no death lands between back-to-back halves");
            }
            Miss::Busy => panic!(
                "{page} is being fetched by another processor: finish that miss before {p} \
                 resolves its own"
            ),
        }
    }

    // ---- the miss split ----

    /// Begins resolving an access miss on `page` at `p`.
    ///
    /// * [`Miss::Ready`] — the page is valid at `p` (or was made so with
    ///   nothing to fetch): try the access again.
    /// * [`Miss::Fetching`] — the fetch is planned and its messages are
    ///   charged; the plan waits in `p`'s shard. Run the fetch, then pass
    ///   the ticket to [`Engine::finish_miss`]. No other processor can
    ///   begin a miss on this page until then.
    /// * [`Miss::Busy`] — another processor is fetching this page: wait
    ///   until its miss finishes, then ask again.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `page` is out of range or `p` is dead.
    pub fn begin_miss(&mut self, p: ProcId, page: PageId) -> Miss {
        self.assert_live(p, "miss");
        if self.page_valid(p, page) {
            return Miss::Ready;
        }
        if !self.core.misses.admit(p, page, &mut self.core.counters) {
            return Miss::Busy;
        }
        match P::begin_miss(self, p, page) {
            None => Miss::Ready,
            Some(era) => {
                self.core.misses.start(p, page);
                Miss::Fetching(MissTicket { p, page, era })
            }
        }
    }

    /// Finishes the miss `ticket` stands for: applies its plan, making
    /// the page valid at its processor, and returns `true`. Returns
    /// `false`, installing nothing, if the processor was declared dead
    /// since [`Engine::begin_miss`]: the death dropped the miss and its
    /// plan ([`LrcEngine::declare_dead`](crate::LrcEngine::declare_dead)).
    ///
    /// # Panics
    ///
    /// Panics if the plan no longer fits the engine — the lazy store was
    /// garbage-collected since [`Engine::begin_miss`], which a live
    /// driver never brings about: a collection needs the processor's
    /// barrier arrival, and it arrives nowhere between the halves.
    pub fn finish_miss(&mut self, ticket: MissTicket) -> bool {
        let MissTicket { p, page, era } = ticket;
        if !self.core.misses.fetching(p, page) {
            return false;
        }
        self.core.misses.finish(p, page);
        P::finish_miss(self, p, page, era);
        true
    }

    // ---- special accesses ----

    /// Acquires `lock` as processor `p`: the lock table finds the path the
    /// transfer takes and numbers the grant, then the protocol charges
    /// the messages and performs its acquire-time consistency actions
    /// ([`Protocol::on_acquire`]).
    ///
    /// # Errors
    ///
    /// Propagates [`LockError`] (held lock, unknown ids). The lock path is
    /// resolved *before* any protocol state changes, so a failed acquire —
    /// in particular a contended [`LockError::HeldByOther`] that a blocking
    /// runtime retries in a loop — has no side effects.
    pub fn acquire(&mut self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        self.assert_live(p, "acquire");
        self.core.enter_slow_path();
        let path = self.core.locks.acquire(p, lock)?;
        self.core.counters.acquires += 1;
        if let Some(rec) = self.core.recorder() {
            // The grant number was assigned by the lock table in this
            // same call: the recorded order is the order the lock
            // actually changed hands in.
            rec.acquire(p, lock, path.grant_seq);
        }
        P::on_acquire(self, p, &path);
        Ok(())
    }

    /// Releases `lock`: the protocol performs its release-time
    /// consistency actions ([`Protocol::on_release`] — nothing on the wire
    /// under the lazy protocols, a flush to every cacher under the eager
    /// ones), then the lock table records `p` as the last releaser, so
    /// the next acquirer cannot read the releaser's knowledge before it
    /// is complete.
    ///
    /// # Errors
    ///
    /// Propagates [`LockError::NotHolder`] and range errors; an illegal
    /// release is refused before the protocol acts, so it has no effect.
    pub fn release(&mut self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        self.assert_live(p, "release");
        self.core.enter_slow_path();
        self.core.check_holder(p, lock)?;
        P::on_release(self, p);
        self.core.finish_release(p, lock);
        Ok(())
    }

    /// Arrives at `barrier` as processor `p`: the protocol sends what an
    /// arrival carries ([`Protocol::barrier_arrive`]), the barrier set
    /// counts the arrival, and the last arrival runs the episode's
    /// completion ([`Protocol::barrier_complete`]).
    ///
    /// # Errors
    ///
    /// Propagates [`BarrierError`] (double arrival, range errors); an
    /// illegal arrival is refused before the protocol acts.
    pub fn barrier(
        &mut self,
        p: ProcId,
        barrier: BarrierId,
    ) -> Result<BarrierArrival, BarrierError> {
        self.assert_live(p, "barrier");
        self.core.enter_slow_path();
        self.core.barriers.check_arrival(p, barrier)?;
        let master = self.core.barriers.master(barrier);
        P::barrier_arrive(self, p, barrier, master);
        let outcome = self.core.barriers.arrive(p, barrier)?;
        if let Some(rec) = self.core.recorder() {
            rec.barrier(p, barrier, outcome.episode());
        }
        if let BarrierArrival::Complete { .. } = outcome {
            P::barrier_complete(self, barrier, master);
        }
        Ok(outcome)
    }
}
