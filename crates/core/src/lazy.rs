//! The lazy release consistency protocol (§4): interval bookkeeping, write
//! notices, diff pulls, barrier-time garbage collection, and crash
//! recovery, plugged into the shared [`Engine`] at the four [`Protocol`]
//! points.

use std::collections::HashMap;
use std::sync::OnceLock;

use lrc_pagemem::{Diff, PageBuf, PageId};
use lrc_simnet::{
    notice_batch_bytes, vc_bytes, MsgKind, BARRIER_ID_BYTES, DIFF_REQUEST_ENTRY_BYTES,
    LOCK_ID_BYTES, PAGE_ID_BYTES,
};
use lrc_sync::{AcquirePath, BarrierId, LockId};
use lrc_vclock::{IntervalId, ProcId, StampedInterval, VectorClock};
use parking_lot::lockdep::classes;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};

use crate::counters::bump;
use crate::engine::{Engine, EngineCore, Protocol, Shard};
use crate::{
    CheckpointError, ConfigError, EngineCheckpoint, FetchPlan, Frame, FrameCheckpoint,
    IntervalStore, Policy, ProcCheckpoint, ProtocolMutation, WriteNotice,
};

/// The lazy protocol's shared state: the interval store plus the
/// garbage-collection and crash-recovery tables around it.
///
/// Within a gated slow path, the store's write lock is held only for the
/// brief bookkeeping steps (closing an interval, applying a fetch plan) —
/// **never across a fetch**. Plans are built against a read snapshot of
/// the store; the snapshot's [`IntervalStore::version`] is revalidated
/// under the write lock before the plan applies, and a stale plan (the
/// store was garbage-collected meanwhile) is rebuilt
/// ([`EngineCounters::snapshot_retries`](crate::EngineCounters)). A barrier
/// episode's completion has the engine to itself and holds the write lock
/// across the whole compound update, which also makes barrier-time GC
/// atomic. A shard mutex may be taken while holding the store lock, never
/// the reverse; the gc-owner map is only ever taken while the store lock
/// is held and never held across acquiring anything else; the death escrow
/// is taken last, on the death and collection paths only.
#[derive(Debug)]
pub struct Lazy {
    /// Interval records, diffs, and possession tracking (read-mostly).
    store: RwLock<IntervalStore>,
    /// After garbage collection: the processor holding the authoritative
    /// copy of each page whose diff history was discarded.
    gc_owner: Mutex<Vec<Option<ProcId>>>,
    /// Committed contents of pages whose post-GC authoritative owner
    /// died, parked at [`LrcEngine::declare_dead`] (the dead frames are
    /// reset) and consumed when a lease-expired collection re-homes the
    /// pages onto live frames.
    escrow: Mutex<HashMap<PageId, PageBuf>>,
    /// Test instrumentation, like the core's fetch hook: the broken
    /// variant [`LrcEngine::install_mutation`] selected, if any.
    mutation: OnceLock<ProtocolMutation>,
}

/// The lazy protocol's per-page state ([`Frame::ext`]): the
/// noticed-but-unapplied intervals that modified the page, in arrival
/// order. A valid frame has none; pages never cached keep accumulating
/// notices so a cold miss knows the page's full known write history.
pub type Pending = Vec<IntervalId>;

/// The lazy protocol's per-processor state, next to the frames in the
/// processor's shard.
#[derive(Debug)]
pub struct LazyShard {
    /// The processor's vector time; own entry = the *open* interval's seq.
    clock: VectorClock,
    /// True after [`LrcEngine::declare_dead`], until a rejoin. A dead
    /// processor's clock is frozen (valid knowledge — everything it closed
    /// was flushed first) but its frames are reset and every public
    /// operation on it asserts.
    dead: bool,
    /// Barrier-episode count at the moment of death — the start of the
    /// rejoin lease (see [`EngineParams::death_lease_episodes`](crate::EngineParams)).
    dead_since: u64,
    /// True once garbage collection advanced the store era while this
    /// processor's lease had expired: rejoin from any pre-collection
    /// checkpoint is refused with [`CheckpointError::LeaseExpired`]
    /// instead of the generic era mismatch, directing the node to
    /// cold-join from the latest shipped checkpoint.
    lease_expired: bool,
}

/// The lazy release consistency engine (LI under [`Policy::Invalidate`],
/// LU under [`Policy::Update`]). See the [crate docs](crate) for an
/// end-to-end example.
pub type LrcEngine = Engine<Lazy>;

/// What [`LrcEngine::declare_dead`] did on the survivors' behalf.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DeathReport {
    /// Locks the dead processor held, force-released in this order (each
    /// recorded as an ordinary release, so the history stays checkable).
    pub released: Vec<LockId>,
    /// Barrier episodes completed because the dead processor was the last
    /// arrival missing: `(barrier, episode)`.
    pub completed_episodes: Vec<(BarrierId, u64)>,
}

/// A processor's transferable knowledge: its clock with the own entry
/// lowered to the last *closed* interval.
fn knowledge_of(clock: &VectorClock, p: ProcId) -> VectorClock {
    let mut vc = clock.clone();
    let open = vc.get(p);
    vc.set(p, open - 1);
    vc
}

/// Wire size of a batch of write notices: one header per distinct
/// interval plus a page id per notice (TreadMarks-style interval
/// records). `notices` comes from [`IntervalStore::notices_missing`],
/// which lists each interval's notices contiguously.
fn notice_bytes(notices: &[WriteNotice]) -> u64 {
    let intervals = notices.chunk_by(|a, b| a.interval == b.interval).count();
    notice_batch_bytes(intervals, notices.len())
}

/// Sort key giving a linear extension of happened-before over recorded
/// intervals: stamp weight, then id.
fn hb_key(store: &IntervalStore, iv: IntervalId) -> (u64, ProcId, u32) {
    let weight = store.weight(iv).expect("planned interval recorded");
    (weight, iv.proc(), iv.seq())
}

/// Wire size of one page's chain of diffs as one processor supplies it:
/// the chain is squashed in happened-before order before shipping, so
/// overwritten modifications never cross the wire (§4.3.2's pruning of
/// intervals "in which the modification was overwritten").
///
/// Only the size is charged here, and the size of a squash depends on
/// which bytes the chain covers — not on their values, nor on the order
/// of the chain — so [`Diff::squashed_size`] reads no data byte.
fn chain_bytes<'a>(chain: impl ExactSizeIterator<Item = &'a Diff> + Clone) -> u64 {
    let size = match chain.len() {
        // A lone diff ships as it is.
        1 => chain.clone().next().map_or(0, Diff::encoded_size),
        _ => {
            let size = Diff::squashed_size(chain.clone());
            debug_assert_eq!(size, Diff::squash(chain).encoded_size());
            size
        }
    };
    size as u64
}

impl Protocol for Lazy {
    type ShardExt = LazyShard;
    type FrameExt = Pending;
    type Checkpoint = EngineCheckpoint;
    const CRASH_TOLERANT: bool = true;

    fn new(core: &EngineCore) -> Result<Self, ConfigError> {
        let n_pages = core.space.n_pages() as usize;
        Ok(Lazy {
            store: RwLock::new_in(IntervalStore::new(core.params.n_procs), classes::CORE_STORE),
            gc_owner: Mutex::new_in(vec![None; n_pages], classes::CORE_GC_OWNER),
            escrow: Mutex::new_in(HashMap::new(), classes::CORE_ESCROW),
            mutation: OnceLock::new(),
        })
    }

    fn new_ext(core: &EngineCore, p: ProcId) -> LazyShard {
        let mut clock = VectorClock::new(core.params.n_procs);
        clock.set(p, 1); // interval numbering starts at 1
        LazyShard {
            clock,
            dead: false,
            dead_since: 0,
            lease_expired: false,
        }
    }

    fn is_dead(ext: &LazyShard) -> bool {
        ext.dead
    }

    /// Finds and transfers the lock (up to 3 messages), receives
    /// piggybacked write notices for every interval performed at the
    /// grantor but not at `p`, and — under the update policy — pulls diffs
    /// to bring all cached pages up to date.
    fn on_acquire(e: &LrcEngine, p: ProcId, path: &AcquirePath) {
        e.close_interval(p);
        let q = path.grantor;
        if q == p {
            // Local re-acquire: nothing new to learn, nothing on the wire.
            return;
        }
        let n = e.params.n_procs;

        // Request and forward hops carry the acquirer's vector clock so the
        // grantor can compute the missing write notices (§4.2).
        let hop_payload = LOCK_ID_BYTES + vc_bytes(n);
        if let Some((src, dst)) = path.request {
            e.net.send(src, dst, MsgKind::LockRequest, hop_payload);
        }
        if let Some((src, dst)) = path.forward {
            e.net.send(src, dst, MsgKind::LockForward, hop_payload);
        }

        // The grantor's knowledge is safe to read here: everything it
        // closed is in the store before its clock shows it (close_interval
        // publishes under the store's write lock before bumping), so the
        // notice computation below never names an unrecorded interval.
        let mut know_q = knowledge_of(&e.shard(q).ext.clock, q);
        if e.mutation() == ProtocolMutation::StaleGrantKnowledge {
            // Mutation testing: the grantor under-reports its own latest
            // closed interval, so the acquirer never hears about the
            // grantor's most recent critical section. The history checker
            // must reject the run.
            know_q.set(q, know_q.get(q).saturating_sub(1));
        }
        let mut store = e.proto.store.read();
        let notices = {
            let mut shard = e.shard(p);
            let notices = store.notices_missing(&shard.ext.clock, &know_q);
            e.deliver_notices(&mut shard, p, &notices);
            shard.ext.clock.merge(&know_q);
            notices
        };

        // Update policy: bring every cached page up to date now. Diffs the
        // grantor holds ride the grant; the rest cost 2 messages per other
        // concurrent last modifier (Table 1's `2h`). The plan is built
        // against the read snapshot, the round trips are charged with no
        // store lock held, and the write lock is taken only to apply —
        // revalidating the snapshot version first.
        let mut grant_payload = LOCK_ID_BYTES + vc_bytes(n) + notice_bytes(&notices);
        if e.policy == Policy::Update {
            loop {
                let needed = e.needed_for_cached_pages(p);
                let mut plan = FetchPlan::build(&store, p, Some(q), &needed);
                let stale_page = e.stale_snapshot_drop(&store, &mut plan);
                let version = store.version();
                let free_payload = e.diff_payload(&store, &plan.from_free);
                let fetches: Vec<(ProcId, u64, u64)> = plan
                    .targets
                    .iter()
                    .map(|(target, diffs)| {
                        (
                            *target,
                            diffs.len() as u64 * DIFF_REQUEST_ENTRY_BYTES,
                            e.diff_payload(&store, diffs),
                        )
                    })
                    .collect();
                drop(store);
                for (target, request, reply) in fetches {
                    e.net.round_trip(
                        p,
                        target,
                        MsgKind::AcquireDiffRequest,
                        request,
                        MsgKind::AcquireDiffReply,
                        reply,
                    );
                }
                let mut wstore = e.proto.store.write();
                if wstore.version() != version
                    && e.mutation() != ProtocolMutation::StaleSnapshotApply
                {
                    // The store was reorganized between snapshot and
                    // apply: the plan may name discarded diffs. Rebuild.
                    bump(&e.counters.snapshot_retries, 1);
                    drop(wstore);
                    store = e.proto.store.read();
                    continue;
                }
                let touched = e.apply_plan(&mut wstore, p, &plan);
                bump(&e.counters.updates, touched as u64);
                drop(wstore);
                if let Some(g) = stale_page {
                    e.finalize_stale_page(p, g);
                }
                grant_payload += free_payload;
                break;
            }
        } else {
            drop(store);
        }

        if let Some((src, dst)) = path.grant {
            if e.params.piggyback_notices {
                e.net.send(src, dst, MsgKind::LockGrant, grant_payload);
            } else {
                // Ablation: the grant carries only the lock; consistency
                // data travels in a separate message.
                e.net.send(src, dst, MsgKind::LockGrant, LOCK_ID_BYTES);
                e.net
                    .send(src, dst, MsgKind::LockGrant, grant_payload - LOCK_ID_BYTES);
            }
        }
    }

    /// Purely local under LRC: the interval closes (diffs are made for
    /// dirtied pages) and **no messages are sent** (§4.2).
    fn on_release(e: &LrcEngine, p: ProcId) {
        e.close_interval(p);
    }

    /// The arrival message carries the processor's clock and fresh write
    /// notices to the master.
    fn barrier_arrive(e: &LrcEngine, p: ProcId, _barrier: BarrierId, master: ProcId) {
        e.close_interval(p);
        if p != master {
            let store = e.proto.store.read();
            let master_clock = e.shard(master).ext.clock.clone();
            let know_p = knowledge_of(&e.shard(p).ext.clock, p);
            let fresh = store.notices_missing(&master_clock, &know_p);
            let payload = BARRIER_ID_BYTES + vc_bytes(e.params.n_procs) + notice_bytes(&fresh);
            e.net.send(p, master, MsgKind::BarrierArrival, payload);
        }
    }

    fn barrier_complete(e: &LrcEngine, _barrier: BarrierId, master: ProcId) {
        e.complete_barrier(master);
    }

    /// §4.3.2/§4.3.3: pulls the needed diffs from the concurrent last
    /// modifiers (2m messages), plus a base copy if the page was never
    /// resident.
    ///
    /// No store lock is held across the fetch: the plan and its payload
    /// sizes come from a read snapshot, the round trips are charged
    /// lock-free, and the write lock is taken only to apply — after
    /// revalidating the snapshot's store version.
    fn resolve_miss(e: &LrcEngine, p: ProcId, page: PageId) {
        let gi = page.index();
        let mut first_attempt = true;
        loop {
            // Snapshot phase: pending list, plan, and payload sizes all
            // read under ONE store read guard. The pending list must not
            // be read before the guard is taken: garbage collection
            // clears pendings and the interval history together under the
            // store's write lock, so a pre-guard pending snapshot could
            // name intervals the guarded store no longer records and
            // panic `FetchPlan::build` instead of reaching the version
            // revalidation below.
            let store = e.proto.store.read();
            let (cold, needed) = {
                let shard = e.shard(p);
                let entry = &shard.pages[gi];
                let needed: Vec<(IntervalId, PageId)> =
                    entry.ext.iter().map(|&iv| (iv, page)).collect();
                (entry.copy.is_none(), needed)
            };
            if first_attempt {
                if cold {
                    bump(&e.counters.cold_misses, 1);
                } else {
                    bump(&e.counters.warm_misses, 1);
                }
            }
            let gc_owner = cold.then(|| e.proto.gc_owner.lock()[gi]).flatten();

            let mut plan = FetchPlan::build(&store, p, None, &needed);
            let stale_dropped = e.stale_snapshot_drop(&store, &mut plan);
            let version = store.version();
            debug_assert!(
                !first_attempt || stale_dropped.is_some() || cold || !plan.is_empty(),
                "warm miss without pending diffs cannot occur"
            );

            // Cold miss: "a copy of the page may have to be retrieved"
            // (§4.3.3). The base ships from the first diff supplier when
            // there is one, from the post-GC owner if the history was
            // collected, and from the page's home (the initial contents)
            // otherwise.
            let mut base: Option<PageBuf> = None;
            let mut base_trip: Option<ProcId> = None;
            if cold {
                let first_target = plan.targets.first().map(|(t, _)| *t);
                let supplier = first_target
                    .or(gc_owner)
                    .unwrap_or_else(|| e.page_home(page));
                // The supplier's *committed* contents, cloned without
                // disturbing its state; a never-touched home (and `p`
                // itself, only possible for the untouched-home case)
                // supplies the initial zero page.
                let committed = (supplier != p)
                    .then(|| e.shard(supplier).pages[gi].committed().cloned())
                    .flatten();
                base = Some(committed.unwrap_or_else(|| PageBuf::zeroed(e.space.page_size())));
                // The base rides the first diff reply when the supplier
                // is also a fetch target; otherwise it is its own round
                // trip.
                if supplier != p && first_target != Some(supplier) {
                    base_trip = Some(supplier);
                }
            }
            let page_bytes = e.space.page_size().bytes() as u64;
            // All of a miss's diffs name the missed page: each target's
            // list is one chain as it stands.
            let chain_payload = |diffs: &[(IntervalId, PageId)]| {
                let diff_of = |&(iv, _): &(IntervalId, PageId)| -> &Diff {
                    store.diff(iv, page).expect("planned diff exists")
                };
                chain_bytes(diffs.iter().map(diff_of))
            };
            let trips: Vec<(ProcId, u64, u64)> = plan
                .targets
                .iter()
                .enumerate()
                .map(|(i, (target, diffs))| {
                    let request = diffs.len() as u64 * DIFF_REQUEST_ENTRY_BYTES;
                    if cold && i == 0 {
                        // The first supplier's reply also carries the base.
                        let reply = chain_payload(diffs) + page_bytes;
                        (*target, request + PAGE_ID_BYTES, reply)
                    } else if e.params.full_page_misses {
                        // Ablation of §4.3.3: whole pages, not diffs.
                        (*target, request, page_bytes)
                    } else {
                        (*target, request, chain_payload(diffs))
                    }
                })
                .collect();
            drop(store);

            // Fetch phase: round trips with no store lock held. A stalled
            // fetch here blocks only this page's gate.
            let base_request = base_trip.map(|supplier| (supplier, PAGE_ID_BYTES, page_bytes));
            for (target, request, reply) in base_request.into_iter().chain(trips) {
                e.net.round_trip(
                    p,
                    target,
                    MsgKind::MissRequest,
                    request,
                    MsgKind::MissReply,
                    reply,
                );
            }
            e.run_fetch_hook(p, page);

            // Apply phase: revalidate the snapshot, then apply under the
            // write lock.
            let mut wstore = e.proto.store.write();
            if wstore.version() != version && e.mutation() != ProtocolMutation::StaleSnapshotApply {
                bump(&e.counters.snapshot_retries, 1);
                drop(wstore);
                first_attempt = false;
                continue;
            }
            if let Some(buf) = base {
                e.shard(p).pages[gi].copy = Some(buf);
            }
            e.apply_plan(&mut wstore, p, &plan);
            drop(wstore);
            let mut shard = e.shard(p);
            shard.pages[gi].ext.clear();
            shard.pages[gi].valid = true;
            return;
        }
    }

    fn checkpoint(e: &LrcEngine) -> EngineCheckpoint {
        let store = e.proto.store.read();
        let owners = e.proto.gc_owner.lock().clone();
        let n = e.params.n_procs;
        let mut procs = Vec::with_capacity(n);
        for p in ProcId::all(n) {
            let shard = e.shard(p);
            let mut frames = Vec::new();
            for (gi, entry) in shard.pages.iter().enumerate() {
                let frame = FrameCheckpoint {
                    page: PageId::new(gi as u32),
                    contents: entry.committed().map(|c| c.as_bytes().to_vec()),
                    valid: entry.valid,
                    pending: entry.ext.clone(),
                };
                if !frame.is_default() {
                    frames.push(frame);
                }
            }
            procs.push(ProcCheckpoint {
                clock: shard.ext.clock.clone(),
                frames,
            });
        }
        EngineCheckpoint {
            n_procs: n,
            page_bytes: e.space.page_size().bytes(),
            n_pages: e.space.n_pages() as usize,
            episode: e.counters().barrier_episodes,
            store_era: store.version(),
            owners,
            store: store.export(),
            procs,
        }
    }

    /// The interval store, owner table, and every processor's frames and
    /// clock are replaced.
    fn restore(e: &LrcEngine, ckpt: &EngineCheckpoint) -> Result<(), CheckpointError> {
        e.check_shape(ckpt)?;
        let mut store = e.proto.store.write();
        *store = IntervalStore::import(e.params.n_procs, ckpt.store_era, &ckpt.store);
        *e.proto.gc_owner.lock() = ckpt.owners.clone();
        e.proto.escrow.lock().clear();
        for p in ProcId::all(e.params.n_procs) {
            let mut shard = e.shard(p);
            shard.ext.clock = ckpt.procs[p.index()].clock.clone();
            e.reset_frames(&mut shard, &ckpt.procs[p.index()].frames);
        }
        Ok(())
    }
}

impl Engine<Lazy> {
    /// The interval/diff store (shared read access, for inspection).
    ///
    /// **Do not call any engine method while holding the guard.** Slow
    /// paths take the store's write lock for interval closes and plan
    /// application (and therefore any read or write that misses does), so
    /// a read-then-write on the same thread deadlocks; from other threads
    /// it merely blocks them. Read what you need and drop the guard.
    pub fn store(&self) -> RwLockReadGuard<'_, IntervalStore> {
        self.proto.store.read()
    }

    /// Processor `p`'s current vector time (a snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn clock(&self, p: ProcId) -> VectorClock {
        self.shard(p).ext.clock.clone()
    }

    /// Turns this engine into the deliberately-broken variant `mutation`,
    /// for mutation testing the checker stack (see [`ProtocolMutation`]).
    /// Install before driving the engine.
    ///
    /// # Panics
    ///
    /// Panics if a mutation is already installed.
    #[doc(hidden)]
    pub fn install_mutation(&self, mutation: ProtocolMutation) {
        assert!(
            self.proto.mutation.set(mutation).is_ok(),
            "a protocol mutation is already installed"
        );
    }

    /// The installed mutation; the stock protocol when none is.
    fn mutation(&self) -> ProtocolMutation {
        self.proto.mutation.get().copied().unwrap_or_default()
    }

    /// Under [`ProtocolMutation::StaleSnapshotApply`]: removes the
    /// causally-latest diff from `plan` — emulating a plan whose snapshot
    /// predates that interval's availability being applied without
    /// revalidation — and returns its page so the caller can finalize it
    /// *as if* the plan had applied completely. Stock engines return
    /// `None` and leave the plan alone.
    fn stale_snapshot_drop(&self, store: &IntervalStore, plan: &mut FetchPlan) -> Option<PageId> {
        if self.mutation() != ProtocolMutation::StaleSnapshotApply {
            return None;
        }
        let latest_free = plan
            .from_free
            .iter()
            .enumerate()
            .max_by_key(|(_, &(iv, _))| hb_key(store, iv))
            .map(|(i, &(iv, g))| (hb_key(store, iv), i, g));
        let latest_fetched = plan
            .targets
            .iter()
            .enumerate()
            .flat_map(|(ti, (_, diffs))| {
                diffs
                    .iter()
                    .enumerate()
                    .map(move |(di, &(iv, g))| (hb_key(store, iv), (ti, di), g))
            })
            .max_by_key(|&(w, _, _)| w);
        match (latest_free, latest_fetched) {
            (Some((wf, i, g)), Some((wt, _, _))) if wf >= wt => {
                plan.from_free.remove(i);
                Some(g)
            }
            (Some((_, i, g)), None) => {
                plan.from_free.remove(i);
                Some(g)
            }
            (_, Some((_, (ti, di), g))) => {
                plan.targets[ti].1.remove(di);
                if plan.targets[ti].1.is_empty() {
                    plan.targets.remove(ti);
                }
                Some(g)
            }
            (None, None) => None,
        }
    }

    /// Finalizes `page` at `p` as if a fetch plan had fully applied to it:
    /// pending notices cleared, resident copy marked valid. Only the
    /// [`ProtocolMutation::StaleSnapshotApply`] emulation calls this for a
    /// page whose newest diff was *not* applied.
    fn finalize_stale_page(&self, p: ProcId, page: PageId) {
        let mut shard = self.shard(p);
        let entry = &mut shard.pages[page.index()];
        entry.ext.clear();
        if entry.copy.is_some() {
            entry.valid = true;
        }
    }

    /// Closes `p`'s open interval: diffs every dirtied page against its
    /// twin, records the interval (if any page actually changed), and opens
    /// the next interval. The interval is published to the store *before*
    /// the clock bump (both under the store's write lock plus `p`'s shard
    /// lock), so any processor that observes the new clock value finds the
    /// interval recorded.
    fn close_interval(&self, p: ProcId) {
        let mut store = self.proto.store.write();
        let mut shard = self.shard(p);
        let Shard { pages, dirty, ext } = &mut *shard;
        let mut page_diffs = Vec::with_capacity(dirty.len());
        // Drained, not taken: the list keeps its allocation for the next
        // interval's first write.
        for g in dirty.drain(..) {
            let entry = &mut pages[g.index()];
            let twin = entry.twin.take().expect("dirty page has a twin");
            let copy = entry.copy.as_ref().expect("dirty page has a copy");
            let diff = Diff::between(&twin, copy);
            if !diff.is_empty() {
                page_diffs.push((g, diff));
            }
        }
        if self.mutation() == ProtocolMutation::SkipTwinDiff {
            // Mutation testing: the twins were consumed but their diffs
            // are discarded — this interval's writes silently never
            // propagate. The history checker must reject the run.
            return;
        }
        if page_diffs.is_empty() {
            return;
        }
        let clock = &mut ext.clock;
        let stamp = StampedInterval::new(IntervalId::new(p, clock.get(p)), clock.clone());
        store.close_interval(stamp, page_diffs);
        bump(&self.counters.intervals_closed, 1);
        clock.bump(p);
    }

    /// Delivers write notices to `p`, whose locked shard is `shard`:
    /// pending lists grow and, under the invalidate policy, resident valid
    /// copies are invalidated.
    fn deliver_notices(&self, shard: &mut Shard<Lazy>, p: ProcId, notices: &[WriteNotice]) {
        if self.mutation() == ProtocolMutation::DropNotices {
            // Mutation testing: knowledge merges but the page-level
            // notices vanish, so stale copies stay valid. The history
            // checker must reject the run.
            return;
        }
        bump(&self.counters.notices_received, notices.len() as u64);
        for n in notices {
            debug_assert_ne!(n.interval.proc(), p, "no notices for own intervals");
            let entry = &mut shard.pages[n.page.index()];
            entry.ext.push(n.interval);
            if self.policy == Policy::Invalidate && entry.valid {
                entry.valid = false;
                bump(&self.counters.invalidations, 1);
            }
        }
    }

    /// All pending diffs of pages `p` has a copy of (the update policy's
    /// working set at acquires and barriers).
    fn needed_for_cached_pages(&self, p: ProcId) -> Vec<(IntervalId, PageId)> {
        let shard = self.shard(p);
        let mut needed = Vec::new();
        for (gi, entry) in shard.pages.iter().enumerate() {
            if entry.copy.is_some() {
                let g = PageId::new(gi as u32);
                needed.extend(entry.ext.iter().map(|&iv| (iv, g)));
            }
        }
        needed
    }

    /// Wire size of a batch of diffs supplied by one processor: the sum
    /// of its pages' chains ([`chain_bytes`]), found by one sort.
    fn diff_payload(&self, store: &IntervalStore, diffs: &[(IntervalId, PageId)]) -> u64 {
        let mut by_page: Vec<(PageId, IntervalId)> = diffs.iter().map(|&(iv, g)| (g, iv)).collect();
        by_page.sort_unstable();
        let diff_of = |&(g, iv): &(PageId, IntervalId)| -> &Diff {
            store.diff(iv, g).expect("planned diff exists")
        };
        by_page
            .chunk_by(|a, b| a.0 == b.0)
            .map(|chain| chain_bytes(chain.iter().map(diff_of)))
            .sum()
    }

    /// One request/reply exchange fetching `diffs` from `target` at a
    /// barrier (the barrier paths run exclusively and may hold the store
    /// lock across the charge; the acquire and miss paths precompute
    /// payloads from their read snapshot and charge lock-free instead).
    fn barrier_fetch(
        &self,
        store: &IntervalStore,
        p: ProcId,
        target: ProcId,
        diffs: &[(IntervalId, PageId)],
    ) {
        self.net.round_trip(
            p,
            target,
            MsgKind::BarrierDiffRequest,
            diffs.len() as u64 * DIFF_REQUEST_ENTRY_BYTES,
            MsgKind::BarrierDiffReply,
            self.diff_payload(store, diffs),
        );
    }

    /// Applies every diff of a plan to `p`'s copies in happened-before
    /// order, page by page, and marks the touched pages valid. Returns the
    /// number of distinct pages touched.
    fn apply_plan(&self, store: &mut IntervalStore, p: ProcId, plan: &FetchPlan) -> usize {
        let mut all: Vec<(IntervalId, PageId)> = Vec::with_capacity(plan.diff_count());
        all.extend_from_slice(&plan.from_free);
        for (_, diffs) in &plan.targets {
            all.extend_from_slice(diffs);
        }
        all.sort_by_key(|&(iv, _)| hb_key(store, iv));
        if self.mutation() == ProtocolMutation::WrongDiffOrder {
            // Mutation testing: apply the chain newest-first, so the
            // oldest modification clobbers the newest whenever a page
            // pulls more than one diff. The history checker must reject
            // the run.
            all.reverse();
        }
        let mut shard = self.shard(p);
        let mut touched = 0;
        for (iv, g) in all {
            // The holder bit flips and the diff is applied straight out
            // of the store — no per-diff clone on the hot miss path.
            let diff = store.hold_and_diff(p, iv, g).expect("planned diff exists");
            let entry = &mut shard.pages[g.index()];
            let copy = entry.copy_mut(self.space.page_size());
            diff.apply_to(copy);
            if let Some(twin) = entry.twin.as_mut() {
                // Concurrent writer here: keep the twin in sync so this
                // processor's own diff stays minimal and correct.
                diff.apply_to(twin);
            }
            bump(&self.counters.diffs_applied, 1);
            // Every planned diff is one of its page's pending notices, so
            // a page's first diff finds the list non-empty: that is where
            // the page is counted and the list cleared.
            if !entry.ext.is_empty() {
                entry.ext.clear();
                touched += 1;
            }
            entry.valid = true;
        }
        touched
    }

    /// Completes a barrier episode at `master`: merge all knowledge, send
    /// exit messages with the notices each processor lacks, and apply the
    /// policy: `2(n-1)` messages per episode, with all consistency
    /// information piggybacked (Table 1, LI row); under the update policy
    /// each processor then pulls diffs for its cached pages (`2u`). Runs
    /// on the last arriver's thread; every other processor is parked by
    /// the runtime awaiting the episode, so the completion holds the
    /// store's write lock across the whole compound update.
    fn complete_barrier(&self, master: ProcId) {
        let n = self.params.n_procs;
        // A dead processor contributes its knowledge (its frozen clock
        // names only intervals that were flushed into the store when it
        // was declared dead) but receives nothing: no exit message, no
        // notices, no clock merge. Its frames were reset at death — the
        // catch-up happens at rejoin, against its checkpoint.
        let dead: Vec<bool> = ProcId::all(n).map(|r| self.shard(r).ext.dead).collect();
        let mut merged = VectorClock::new(n);
        for r in ProcId::all(n) {
            merged.merge(&knowledge_of(&self.shard(r).ext.clock, r));
        }
        let mut store = self.proto.store.write();
        // Compute per-processor missing notices against pre-merge clocks.
        let missing: Vec<Vec<WriteNotice>> = ProcId::all(n)
            .map(|r| {
                if dead[r.index()] {
                    return Vec::new();
                }
                let shard = self.shard(r);
                let clock = &shard.ext.clock;
                if self.mutation() == ProtocolMutation::DroppedClockMerge {
                    // Mutation testing: the master computes each
                    // processor's exit notices against that processor's
                    // OWN knowledge instead of the episode's merged clock
                    // — nobody learns what their peers wrote before the
                    // barrier. Clocks still merge below, so the loss is
                    // silent. The history checker must reject the run.
                    store.notices_missing(clock, &knowledge_of(clock, r))
                } else {
                    store.notices_missing(clock, &merged)
                }
            })
            .collect();
        let live = || ProcId::all(n).filter(|r| !dead[r.index()]);
        for r in live() {
            if r != master {
                let payload = BARRIER_ID_BYTES + vc_bytes(n) + notice_bytes(&missing[r.index()]);
                self.net.send(master, r, MsgKind::BarrierExit, payload);
            }
            let mut shard = self.shard(r);
            self.deliver_notices(&mut shard, r, &missing[r.index()]);
            shard.ext.clock.merge(&merged);
        }
        if self.policy == Policy::Update {
            // Every processor pulls the diffs for its cached pages: one
            // round trip per (cacher, modifier) pair — Table 1's `2u`.
            for r in live() {
                let touched = self.validate_cached_pages(&mut store, r);
                bump(&self.counters.updates, touched as u64);
            }
        }
        bump(&self.counters.barrier_episodes, 1);
        // Garbage collection normally pauses while any processor is down:
        // clearing the interval history would strand both the rejoin
        // catch-up (the era guard would reject the checkpoint) and cold
        // misses whose authoritative owner is the dead processor's reset
        // frame. A configured death lease bounds that pause: once every
        // dead processor has missed at least `death_lease_episodes`
        // completed episodes, its lease is marked expired and collection
        // proceeds — re-homing dead-owned pages onto live frames first —
        // after which an expired processor can only cold-join from a
        // checkpoint of the new era. Each deferred round bumps
        // `gc_deferrals`, so the stall stays observable and bounded.
        if self.params.gc_at_barriers {
            let any_dead = dead.iter().any(|&d| d);
            if !any_dead {
                self.collect_garbage(&mut store, &dead);
            } else {
                let episode = self.counters().barrier_episodes;
                let all_dead = dead.iter().all(|&d| d);
                let leases_expired = !all_dead
                    && self.params.death_lease_episodes.is_some_and(|lease| {
                        ProcId::all(n)
                            .filter(|r| dead[r.index()])
                            .all(|r| episode.saturating_sub(self.shard(r).ext.dead_since) >= lease)
                    });
                if leases_expired {
                    for r in ProcId::all(n).filter(|r| dead[r.index()]) {
                        self.shard(r).ext.lease_expired = true;
                    }
                    self.collect_garbage(&mut store, &dead);
                } else {
                    bump(&self.counters.gc_deferrals, 1);
                }
            }
        }
    }

    /// Brings every page `r` has a copy of fully up to date, charged as
    /// barrier traffic; returns the number of pages touched.
    fn validate_cached_pages(&self, store: &mut IntervalStore, r: ProcId) -> usize {
        let needed = self.needed_for_cached_pages(r);
        let plan = FetchPlan::build(store, r, None, &needed);
        for (target, diffs) in &plan.targets {
            self.barrier_fetch(store, r, *target, diffs);
        }
        self.apply_plan(store, r, &plan)
    }

    /// Barrier-time garbage collection (TreadMarks-style): every processor
    /// brings its resident pages fully up to date (charged as barrier
    /// traffic), pages never cached anywhere keep only an owner pointer,
    /// and the entire interval/diff history is discarded — bumping the
    /// store's snapshot version so any in-flight plan would revalidate.
    /// Safe exactly at barrier completion, when every interval has
    /// performed everywhere.
    fn collect_garbage(&self, store: &mut IntervalStore, dead: &[bool]) {
        let n = self.params.n_procs;
        // Validate every resident copy (the update policy already did; a
        // dead processor's frames were reset at death, so it has none).
        if self.policy == Policy::Invalidate {
            for r in ProcId::all(n).filter(|r| !dead[r.index()]) {
                let touched = self.validate_cached_pages(store, r);
                bump(&self.counters.gc_validated_pages, touched as u64);
            }
        }
        // Record the authoritative owner of every page whose history is
        // about to disappear, then drop the history and dangling notices.
        {
            let mut gc_owner = self.proto.gc_owner.lock();
            for (page, owner) in store.latest_writers() {
                gc_owner[page.index()] = Some(owner);
            }
        }
        if dead.iter().any(|&d| d) {
            self.rehome_dead_owned_pages(store, dead);
        }
        for r in ProcId::all(n) {
            for entry in &mut self.shard(r).pages {
                entry.ext.clear();
            }
        }
        store.clear();
        bump(&self.counters.gc_rounds, 1);
    }

    /// Re-homes every page whose post-GC authoritative owner is dead onto
    /// a live processor, so the history can be collected while the owner
    /// is down without losing the only committed copy (a dead processor's
    /// frames were reset at death, so it can supply nothing).
    ///
    /// Per page, in preference order: a live processor already holding a
    /// resident copy — just brought fully up to date by the collection
    /// pass — becomes the owner with no data movement; otherwise the page
    /// is materialized from the death escrow (its committed contents at
    /// the owner's death, zero if it was never written before this era)
    /// plus the current era's diff chain applied in happened-before
    /// order, and installed valid into the lowest-numbered live
    /// processor's frame. Installing valid is sound exactly here, at
    /// barrier completion: every recorded interval has performed at every
    /// live processor. The bytes come from the local escrow replica, not
    /// the fabric, so no messages are charged.
    fn rehome_dead_owned_pages(&self, store: &IntervalStore, dead: &[bool]) {
        let n = self.params.n_procs;
        let orphaned = self.pages_owned_where(|o| dead[o.index()]);
        if orphaned.is_empty() {
            return;
        }
        let fallback = ProcId::all(n)
            .find(|r| !dead[r.index()])
            .expect("re-homing requires a live processor");
        for page in orphaned {
            let resident = ProcId::all(n)
                .find(|&r| !dead[r.index()] && self.shard(r).pages[page.index()].copy.is_some());
            let new_owner = match resident {
                Some(r) => r,
                None => {
                    let mut buf = self
                        .proto
                        .escrow
                        .lock()
                        .get(&page)
                        .cloned()
                        .unwrap_or_else(|| PageBuf::zeroed(self.space.page_size()));
                    let mut chain = store.diff_intervals_of_page(page);
                    chain.sort_by_key(|&iv| hb_key(store, iv));
                    for iv in chain {
                        store
                            .diff(iv, page)
                            .expect("listed diff exists")
                            .apply_to(&mut buf);
                    }
                    {
                        let mut shard = self.shard(fallback);
                        let entry = &mut shard.pages[page.index()];
                        entry.copy = Some(buf);
                        entry.valid = true;
                    }
                    fallback
                }
            };
            self.proto.gc_owner.lock()[page.index()] = Some(new_owner);
            self.proto.escrow.lock().remove(&page);
        }
    }

    /// The pages whose post-GC authoritative owner satisfies `owned`.
    fn pages_owned_where(&self, owned: impl Fn(ProcId) -> bool) -> Vec<PageId> {
        let gc_owner = self.proto.gc_owner.lock();
        gc_owner
            .iter()
            .enumerate()
            .filter(|(_, owner)| owner.is_some_and(&owned))
            .map(|(gi, _)| PageId::new(gi as u32))
            .collect()
    }

    // ---- crash tolerance ----

    /// True if `p` has been declared dead and has not rejoined.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn is_dead(&self, p: ProcId) -> bool {
        self.shard(p).ext.dead
    }

    /// True while any processor is dead with an *unexpired* rejoin lease.
    ///
    /// This is the window in which automatic checkpoint cuts must pause:
    /// death resets the processor's frames, so a cut taken now would
    /// record empty frames under a clock that still claims knowledge of
    /// the processor's own intervals — poisoning it as a rejoin source
    /// (the catch-up delivery would skip exactly the history the frames
    /// no longer hold). The pre-death death cut stays the newest
    /// recoverable state until the processor rejoins, or its lease
    /// expires and garbage collection re-homes its pages — after which
    /// post-GC cuts are valid cold-join sources again.
    pub fn awaiting_rejoin(&self) -> bool {
        ProcId::all(self.params.n_procs).any(|p| {
            let shard = self.shard(p);
            shard.ext.dead && !shard.ext.lease_expired
        })
    }

    /// Declares `p` dead on the survivors' behalf.
    ///
    /// The crash model is a compute-client failure: engine operations are
    /// atomic, so the crash lands *between* operations. The engine first
    /// flushes `p`'s open interval (all its committed writes become one
    /// closed interval in the store — exactly what `p`'s next release
    /// would have published), then force-releases every lock `p` holds
    /// (each recorded as an ordinary release so the history stays
    /// checkable), records the crash marker, resets `p`'s frames to cold,
    /// and completes any barrier episode that was waiting only on `p`.
    ///
    /// The flush comes *before* the lock releases: the moment a
    /// force-released lock is grantable, the next acquirer reads `p`'s
    /// clock, which must already cover the flushed interval.
    ///
    /// `p`'s clock stays frozen (it is valid knowledge), its frames are
    /// discarded (a real crash loses them — rejoin restores a checkpoint
    /// instead), and every subsequent operation by `p` panics until
    /// [`LrcEngine::rejoin`].
    ///
    /// The caller (the runtime's failure detector) must ensure `p`'s
    /// driving thread has stopped issuing operations.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or already dead.
    pub fn declare_dead(&self, p: ProcId) -> DeathReport {
        {
            let mut shard = self.shard(p);
            assert!(!shard.ext.dead, "processor {p} is already dead");
            shard.ext.dead = true;
            shard.ext.dead_since = self.counters().barrier_episodes;
        }
        // Flush: every write of the open interval becomes durable history.
        self.close_interval(p);
        let released = self.locks.lock().held_by(p);
        for &lock in &released {
            self.force_release(p, lock);
        }
        if let Some(rec) = self.recorder() {
            rec.crash(p);
        }
        // Park the committed contents of every page whose post-GC
        // authoritative owner is `p`: the frames are about to be reset,
        // and a lease-expired collection must still be able to re-home
        // those pages onto live frames (cold misses would otherwise read
        // zeros). The store read lock serializes this scan with a
        // concurrent collection rewriting the owner map. Consumed by
        // `rehome_dead_owned_pages`.
        let owned = {
            let _store = self.proto.store.read();
            self.pages_owned_where(|o| o == p)
        };
        let mut shard = self.shard(p);
        if !owned.is_empty() {
            let mut escrow = self.proto.escrow.lock();
            for page in owned {
                if let Some(buf) = shard.pages[page.index()].committed() {
                    escrow.insert(page, buf.clone());
                }
            }
        }
        shard.dirty.clear();
        shard.pages.fill_with(Frame::default);
        drop(shard);
        let completed_episodes = self.barriers.lock().mark_dead(p);
        for &(barrier, _) in &completed_episodes {
            let master = self.barriers.lock().master(barrier);
            self.complete_barrier(master);
        }
        DeathReport {
            released,
            completed_episodes,
        }
    }

    /// Checks that a checkpoint describes this engine's shape.
    fn check_shape(&self, ckpt: &EngineCheckpoint) -> Result<(), CheckpointError> {
        let (n, page_bytes, n_pages) = (
            self.params.n_procs,
            self.space.page_size().bytes(),
            self.space.n_pages() as usize,
        );
        if (ckpt.n_procs, ckpt.page_bytes, ckpt.n_pages) != (n, page_bytes, n_pages)
            || ckpt.procs.len() != n
            || ckpt.owners.len() != n_pages
        {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint is {}×{}B×{} pages, engine is {n}×{page_bytes}B×{n_pages}",
                ckpt.n_procs, ckpt.page_bytes, ckpt.n_pages
            )));
        }
        for frame in ckpt.procs.iter().flat_map(|proc| &proc.frames) {
            if frame.page.index() >= n_pages {
                return Err(CheckpointError::Incompatible(format!(
                    "frame page {} out of range",
                    frame.page
                )));
            }
            if frame
                .contents
                .as_ref()
                .is_some_and(|c| c.len() != page_bytes)
            {
                return Err(CheckpointError::Incompatible(
                    "frame contents are not page-sized".into(),
                ));
            }
        }
        Ok(())
    }

    /// Replaces a (locked) shard's frames with checkpointed ones and
    /// brings the processor back to life.
    fn reset_frames(&self, shard: &mut Shard<Lazy>, frames: &[FrameCheckpoint]) {
        shard.dirty.clear();
        shard.pages.fill_with(Frame::default);
        shard.ext.dead = false;
        shard.ext.dead_since = 0;
        shard.ext.lease_expired = false;
        for frame in frames {
            let entry = &mut shard.pages[frame.page.index()];
            entry.install(
                frame.contents.as_deref(),
                frame.valid,
                self.space.page_size(),
            );
            entry.ext = frame.pending.clone();
        }
    }

    /// Rejoins dead processor `p` from a checkpoint of this run.
    ///
    /// The checkpoint's frames and clock are restored, then `p` catches up
    /// through the normal protocol: every write notice between the
    /// checkpoint's knowledge and the cluster's current knowledge (the
    /// survivors' merged clocks, plus `p`'s own intervals flushed at
    /// death) is delivered into the restored frames, and any page with
    /// unapplied notices is invalidated — under *both* policies — so the
    /// next access pulls diffs through the ordinary miss path. Diffs of
    /// `p`'s own flushed intervals are reapplied from local possession
    /// (see [`FetchPlan::build`]).
    ///
    /// After rejoin the application must resynchronize (acquire or
    /// barrier) before trusting shared data, like any release-consistent
    /// reader.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Incompatible`] if the shape mismatches, `p` is
    /// not dead, or the store has been garbage-collected since the
    /// checkpoint was captured (the catch-up history is gone — restart
    /// from a full restore instead). [`CheckpointError::LeaseExpired`]
    /// when that collection was the deliberate result of `p`'s rejoin
    /// lease running out
    /// ([`EngineParams::death_lease_episodes`](crate::EngineParams)): no
    /// pre-collection checkpoint can ever succeed again, so the node must
    /// cold-join from the latest checkpoint shipped after the collection.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn rejoin(&self, p: ProcId, ckpt: &EngineCheckpoint) -> Result<(), CheckpointError> {
        self.check_shape(ckpt)?;
        let n = self.params.n_procs;
        {
            let store = self.proto.store.read();
            if store.version() != ckpt.store_era {
                let why = format!(
                    "store era {} differs from checkpoint era {}: the \
                     catch-up history was garbage-collected",
                    store.version(),
                    ckpt.store_era
                );
                // A lease-expired processor's history was collected *on
                // purpose*: the typed error tells the runtime to cold-join
                // from the latest shipped checkpoint instead of retrying.
                return Err(if self.shard(p).ext.lease_expired {
                    CheckpointError::LeaseExpired(why)
                } else {
                    CheckpointError::Incompatible(why)
                });
            }
            // Target knowledge: the checkpoint's own view, every live
            // survivor's knowledge, and p's own flushed intervals.
            let ckpt_clock = &ckpt.procs[p.index()].clock;
            let have = knowledge_of(ckpt_clock, p);
            let mut want = have.clone();
            for r in ProcId::all(n).filter(|&r| r != p) {
                let shard_r = self.shard(r);
                if !shard_r.ext.dead {
                    want.merge(&knowledge_of(&shard_r.ext.clock, r));
                }
            }
            let latest = store.latest_seq(p);
            if want.get(p) < latest {
                want.set(p, latest);
            }
            let notices = store.notices_missing(&have, &want);

            let mut shard = self.shard(p);
            if !shard.ext.dead {
                return Err(CheckpointError::Incompatible(format!(
                    "processor {p} is not declared dead"
                )));
            }
            self.reset_frames(&mut shard, &ckpt.procs[p.index()].frames);
            // Catch-up delivery. Unlike deliver_notices this may carry
            // p's *own* post-checkpoint intervals, and it invalidates
            // under the update policy too: rejoin is not an acquire, so
            // nothing will pull for cached pages afterwards — the miss
            // path must.
            bump(&self.counters.notices_received, notices.len() as u64);
            for notice in &notices {
                let entry = &mut shard.pages[notice.page.index()];
                entry.ext.push(notice.interval);
                if entry.valid {
                    entry.valid = false;
                    bump(&self.counters.invalidations, 1);
                }
            }
            // Advance the clock past everything just delivered, so the
            // next synchronization does not re-deliver the same notices
            // (duplicate pendings would poison the fetch planner). The
            // own entry reopens past both the checkpoint's open interval
            // and the flushed history.
            let mut clock = ckpt_clock.clone();
            clock.merge(&want);
            clock.set(p, ckpt_clock.get(p).max(latest + 1));
            shard.ext.clock = clock;
        }
        self.barriers.lock().revive(p);
        Ok(())
    }
}
