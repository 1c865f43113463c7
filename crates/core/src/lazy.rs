//! The lazy release consistency protocol (§4): interval bookkeeping, write
//! notices, diff pulls and barrier-time garbage collection, plugged into
//! the shared [`Engine`] at the four [`Protocol`] points — plus
//! checkpointing and crash recovery, which only [`LrcEngine`] has.

use std::collections::HashMap;
use std::mem;
use std::ops::Deref;

use lrc_pagemem::{Diff, PageBuf, PageId};
use lrc_simnet::{
    notice_batch_bytes, vc_bytes, MsgKind, BARRIER_ID_BYTES, DIFF_REQUEST_ENTRY_BYTES,
    LOCK_ID_BYTES, PAGE_ID_BYTES,
};
use lrc_sync::{AcquirePath, BarrierId, LockId};
use lrc_vclock::{IntervalId, ProcId, StampedInterval, VectorClock};
use parking_lot::lockdep::classes;
use parking_lot::{RwLock, RwLockReadGuard};

use crate::counters::bump;
use crate::engine::{Engine, EngineCore, Protocol, Shard};
use crate::plan::{FetchPlan, Planned, Source};
use crate::{
    CheckpointError, ConfigError, EngineCheckpoint, Frame, FrameCheckpoint, IntervalStore, Policy,
    ProcCheckpoint, WriteNotice,
};

/// The lazy protocol's shared state: the interval store plus the
/// garbage-collection and crash-recovery tables around it, behind one
/// lock.
///
/// Within a gated slow path, the write lock is held only for the brief
/// bookkeeping steps (closing an interval, applying a fetch plan) —
/// **never across a fetch**: a plan is built under the read lock, the
/// fetch is charged with no lock held, and the plan applies under the
/// write lock. Only garbage collection rewrites the history, and it runs
/// where no slow path can sit between plan and apply: at a barrier
/// episode's completion, which has the engine to itself and holds the
/// write lock across the whole compound update, and at a death, whose
/// victim's thread must have stopped. The apply step asserts that the
/// store's [`IntervalStore::era`] did not move. A shard mutex may be taken
/// while holding the lock, never the reverse.
#[derive(Debug)]
pub struct Lazy {
    state: RwLock<LazyState>,
}

/// What the lazy protocol's one lock guards.
#[derive(Debug)]
struct LazyState {
    /// Interval records, diffs, and possession tracking (read-mostly).
    store: IntervalStore,
    /// After garbage collection: the processor holding the authoritative
    /// copy of each page whose diff history was discarded.
    gc_owner: Vec<Option<ProcId>>,
    /// Committed contents of pages whose post-GC authoritative owner
    /// died, parked at [`LrcEngine::declare_dead`] (the dead frames are
    /// reset) and consumed when a lease-expired collection re-homes the
    /// pages onto live frames.
    escrow: HashMap<PageId, PageBuf>,
}

impl LazyState {
    /// The pages whose post-GC authoritative owner satisfies `owned`.
    fn pages_owned_where(&self, owned: impl Fn(ProcId) -> bool) -> Vec<PageId> {
        self.gc_owner
            .iter()
            .enumerate()
            .filter(|(_, owner)| owner.is_some_and(&owned))
            .map(|(gi, _)| PageId::new(gi as u32))
            .collect()
    }
}

/// A read guard on the lazy lock that shows only the interval store.
struct StoreGuard<'a>(RwLockReadGuard<'a, LazyState>);

impl Deref for StoreGuard<'_> {
    type Target = IntervalStore;

    fn deref(&self) -> &IntervalStore {
        &self.0.store
    }
}

/// Asserts that the store's era is still `planned`, the era `p`'s slow
/// path read when it built its plan. A collection between plan and apply
/// would leave the plan naming discarded diffs, and none can happen
/// there: a barrier completes only once `p` has arrived, and a death
/// collects only with its victim's thread stopped.
fn assert_era(store: &IntervalStore, planned: u64, p: ProcId) {
    assert_eq!(
        store.era(),
        planned,
        "the interval store was collected under {p}'s slow path: {p} was \
         declared dead while its own thread was inside an operation"
    );
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
    /// cold-join from a checkpoint cut after the collection.
    lease_expired: bool,
    /// The buffers this processor's slow paths reuse.
    scratch: Scratch,
}

/// The transient lists one processor's lazy slow paths build, kept in its
/// shard so that each call refills the buffers of the last one instead of
/// allocating its own. Every user clears or rebuilds a buffer before it
/// reads it: only capacity carries over from call to call.
///
/// A slow path of `p` either uses a buffer in place, under a shard-`p`
/// lock it holds anyway (an interval close, the notice step of an
/// acquire, arrival or barrier exit), or takes the whole scratch out
/// (`mem::take`) under the first such lock and puts it back under its
/// last one, holding no lock in between. Only `p`'s own thread drives
/// `p`, and a barrier completion runs with every other processor parked,
/// so nobody else reaches for the scratch meanwhile.
#[derive(Debug, Default)]
struct Scratch {
    /// Write notices, from [`IntervalStore::notices_missing`].
    notices: Vec<WriteNotice>,
    /// The diffs a plan is built for.
    needed: Vec<(IntervalId, PageId)>,
    /// The fetch plan, with its own sort buffer.
    plan: FetchPlan,
    /// One `(target, request bytes, reply bytes)` round trip per fetch
    /// target, sized under the store lock and charged without it.
    trips: Vec<(ProcId, u64, u64)>,
    sizer: Sizer,
    /// The diffs an interval close made, on their way into the store.
    page_diffs: Vec<(PageId, Diff)>,
}

/// The buffers that sizing a diff reply works in: a multi-page reply's
/// by-page sort, and the byte ranges one chain covers.
#[derive(Debug, Default)]
struct Sizer {
    by_page: Vec<(PageId, IntervalId)>,
    ranges: Vec<(u32, u32)>,
}

impl Sizer {
    /// Wire size of a batch of diffs supplied by one processor: the sum
    /// of its pages' chains ([`chain_bytes`]), found by one sort.
    fn diff_payload(
        &mut self,
        store: &IntervalStore,
        diffs: impl Iterator<Item = (IntervalId, PageId)>,
    ) -> u64 {
        let Sizer { by_page, ranges } = self;
        by_page.clear();
        by_page.extend(diffs.map(|(iv, g)| (g, iv)));
        by_page.sort_unstable();
        let diff_of = |&(g, iv): &(PageId, IntervalId)| -> &Diff {
            store.diff(iv, g).expect("planned diff exists")
        };
        by_page
            .chunk_by(|a, b| a.0 == b.0)
            .map(|chain| chain_bytes(chain.iter().map(diff_of), ranges))
            .sum()
    }
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

/// Merges processor `r`'s transferable knowledge into `into`: `clock`,
/// `r`'s own clock, with `r`'s entry one lower — its last *closed*
/// interval, not the open one. The clock is read in place, not copied.
fn merge_knowledge(into: &mut VectorClock, clock: &VectorClock, r: ProcId) {
    let own = into.get(r);
    into.merge(clock);
    into.set(r, own.max(clock.get(r).saturating_sub(1)));
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
/// of the chain — so [`Diff::squashed_size`] reads no data byte; it
/// gathers the coverage in `ranges`. The chain is walked once.
fn chain_bytes<'a>(
    chain: impl Iterator<Item = &'a Diff> + Clone,
    ranges: &mut Vec<(u32, u32)>,
) -> u64 {
    let whole = chain.clone();
    let mut rest = chain;
    let size = match (rest.next(), rest.next()) {
        // A lone diff ships as it is.
        (Some(lone), None) => lone.encoded_size(),
        (first, second) => {
            let chain = first.into_iter().chain(second).chain(rest);
            let size = Diff::squashed_size(chain, ranges);
            debug_assert_eq!(size, Diff::squash(whole).encoded_size());
            size
        }
    };
    size as u64
}

impl Protocol for Lazy {
    type ShardExt = LazyShard;
    type FrameExt = Pending;
    const CRASH_TOLERANT: bool = true;

    fn new(core: &EngineCore) -> Result<Self, ConfigError> {
        let state = LazyState {
            store: IntervalStore::new(core.params.n_procs),
            gc_owner: vec![None; core.space.n_pages() as usize],
            escrow: HashMap::new(),
        };
        Ok(Lazy {
            state: RwLock::new_in(state, classes::CORE_STORE),
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
            scratch: Scratch::default(),
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
        // notice computation below never names an unrecorded interval. Its
        // clock is copied because no path holds two shard locks; its own
        // entry, the open interval, reads one lower where it is used.
        let grantor = e.shard(q).ext.clock.clone();
        let state = e.proto.state.read();
        let store = &state.store;
        // The notices are computed into `p`'s scratch and delivered from
        // it under the one shard lock; only their wire size leaves.
        let notice_payload = {
            let mut shard = e.shard(p);
            let Shard { pages, ext, .. } = &mut *shard;
            let notices = &mut ext.scratch.notices;
            store.notices_missing(&ext.clock, &grantor, Some(q), notices);
            e.deliver_notices(pages, p, notices);
            merge_knowledge(&mut ext.clock, &grantor, q);
            notice_bytes(notices)
        };

        // Update policy: bring every cached page up to date now. Diffs the
        // grantor holds ride the grant; the rest cost 2 messages per other
        // concurrent last modifier (Table 1's `2h`). The plan is built
        // under the read lock, the round trips are charged with no lock
        // held, and the write lock is taken only to apply.
        let mut grant_payload = LOCK_ID_BYTES + vc_bytes(n) + notice_payload;
        if e.policy == Policy::Update {
            let mut scratch = e.needed_for_cached_pages(p);
            let Scratch {
                needed,
                plan,
                trips,
                sizer,
                ..
            } = &mut scratch;
            plan.build(store, p, Some(q), needed);
            let era = store.era();
            grant_payload += sizer.diff_payload(store, plan.supplied_by(Source::Free));
            trips.clear();
            for (t, &target) in plan.targets().iter().enumerate() {
                let diffs = plan.supplied_by(Source::Target(t));
                let request = diffs.clone().count() as u64 * DIFF_REQUEST_ENTRY_BYTES;
                trips.push((target, request, sizer.diff_payload(store, diffs)));
            }
            drop(state);
            for &(target, request, reply) in trips.iter() {
                e.net.round_trip(
                    p,
                    target,
                    MsgKind::AcquireDiffRequest,
                    request,
                    MsgKind::AcquireDiffReply,
                    reply,
                );
            }
            let mut state = e.proto.state.write();
            assert_era(&state.store, era, p);
            let touched = e.apply_plan(&mut state.store, p, &mut e.shard(p), scratch);
            bump(&e.counters.updates, touched as u64);
        } else {
            drop(state);
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
            let state = e.proto.state.read();
            let master_clock = e.shard(master).ext.clock.clone();
            let notice_payload = {
                let mut shard = e.shard(p);
                let LazyShard { clock, scratch, .. } = &mut shard.ext;
                let fresh = &mut scratch.notices;
                state
                    .store
                    .notices_missing(&master_clock, clock, Some(p), fresh);
                notice_bytes(fresh)
            };
            let payload = BARRIER_ID_BYTES + vc_bytes(e.params.n_procs) + notice_payload;
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
    /// No lock is held across the fetch: the plan and its payload sizes
    /// come from the read lock, the round trips are charged lock-free, and
    /// the write lock is taken only to apply.
    fn resolve_miss(e: &LrcEngine, p: ProcId, page: PageId) {
        let gi = page.index();
        // Plan phase: pending list, plan, and payload sizes all read under
        // ONE read guard, so the pending list names only intervals the
        // store records (garbage collection clears both together). The
        // miss borrows `p`'s scratch from the pending-list read to the
        // apply.
        let state = e.proto.state.read();
        let store = &state.store;
        let (cold, mut scratch) = {
            let mut shard = e.shard(p);
            let mut scratch = mem::take(&mut shard.ext.scratch);
            let entry = &shard.pages[gi];
            scratch.needed.clear();
            scratch
                .needed
                .extend(entry.ext.iter().map(|&iv| (iv, page)));
            (entry.copy.is_none(), scratch)
        };
        if cold {
            bump(&e.counters.cold_misses, 1);
        } else {
            bump(&e.counters.warm_misses, 1);
        }
        let Scratch {
            needed,
            plan,
            trips,
            sizer,
            ..
        } = &mut scratch;
        plan.build(store, p, None, needed);
        let era = store.era();
        debug_assert!(
            cold || !plan.is_empty(),
            "warm miss without pending diffs cannot occur"
        );

        // Cold miss: "a copy of the page may have to be retrieved"
        // (§4.3.3). The base ships from the first diff supplier when there
        // is one, from the post-GC owner if the history was collected, and
        // from the page's home (the initial contents) otherwise.
        let mut base: Option<PageBuf> = None;
        let mut base_trip: Option<ProcId> = None;
        if cold {
            let first_target = plan.targets().first().copied();
            let supplier = first_target
                .or(state.gc_owner[gi])
                .unwrap_or_else(|| e.page_home(page));
            // The supplier's *committed* contents, cloned without
            // disturbing its state; a never-touched home (and `p` itself,
            // only possible for the untouched-home case) supplies the
            // initial zero page.
            let committed = (supplier != p)
                .then(|| e.shard(supplier).pages[gi].committed().cloned())
                .flatten();
            base = Some(committed.unwrap_or_else(|| PageBuf::zeroed(e.space.page_size())));
            // The base rides the first diff reply when the supplier is
            // also a fetch target; otherwise it is its own round trip.
            if supplier != p && first_target != Some(supplier) {
                base_trip = Some(supplier);
            }
        }
        let page_bytes = e.space.page_size().bytes() as u64;
        // All of a miss's diffs name the missed page: what each target
        // supplies is one chain as it stands.
        let mut chain_payload = |source: Source| {
            let diff_of = |(iv, _): (IntervalId, PageId)| -> &Diff {
                store.diff(iv, page).expect("planned diff exists")
            };
            chain_bytes(plan.supplied_by(source).map(diff_of), &mut sizer.ranges)
        };
        trips.clear();
        trips.extend(plan.targets().iter().enumerate().map(|(t, &target)| {
            let source = Source::Target(t);
            let request = plan.supplied_by(source).count() as u64 * DIFF_REQUEST_ENTRY_BYTES;
            if cold && t == 0 {
                // The first supplier's reply also carries the base.
                let reply = chain_payload(source) + page_bytes;
                (target, request + PAGE_ID_BYTES, reply)
            } else if e.params.full_page_misses {
                // Ablation of §4.3.3: whole pages, not diffs.
                (target, request, page_bytes)
            } else {
                (target, request, chain_payload(source))
            }
        }));
        drop(state);

        // Fetch phase: round trips with no lock held. A stalled fetch here
        // blocks only this page's gate.
        let base_request = base_trip.map(|supplier| (supplier, PAGE_ID_BYTES, page_bytes));
        for &(target, request, reply) in base_request.iter().chain(trips.iter()) {
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

        // Apply phase, under the write lock and one shard lock, which also
        // takes the scratch back.
        let mut state = e.proto.state.write();
        assert_era(&state.store, era, p);
        let mut shard = e.shard(p);
        if let Some(buf) = base {
            shard.pages[gi].copy = Some(buf);
        }
        e.apply_plan(&mut state.store, p, &mut shard, scratch);
        let entry = &mut shard.pages[gi];
        entry.ext.clear();
        entry.valid = true;
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
    pub fn store(&self) -> impl Deref<Target = IntervalStore> + '_ {
        StoreGuard(self.proto.state.read())
    }

    /// Processor `p`'s current vector time (a snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn clock(&self, p: ProcId) -> VectorClock {
        self.shard(p).ext.clock.clone()
    }

    /// Closes `p`'s open interval: diffs every dirtied page against its
    /// twin, records the interval (if any page actually changed), and opens
    /// the next interval. The interval is published to the store *before*
    /// the clock bump (both under the store's write lock plus `p`'s shard
    /// lock), so any processor that observes the new clock value finds the
    /// interval recorded.
    fn close_interval(&self, p: ProcId) {
        let mut state = self.proto.state.write();
        let mut shard = self.shard(p);
        let Shard {
            pages,
            dirty,
            spare_twins,
            ext,
        } = &mut *shard;
        let LazyShard { clock, scratch, .. } = ext;
        let page_diffs = &mut scratch.page_diffs;
        // Drained, not taken: the list keeps its allocation for the next
        // interval's first write, as the twins' buffers do.
        for g in dirty.drain(..) {
            let diff = pages[g.index()]
                .close_twin(spare_twins)
                .expect("dirty page has a twin");
            if !diff.is_empty() {
                page_diffs.push((g, diff));
            }
        }
        if page_diffs.is_empty() {
            return;
        }
        let stamp = StampedInterval::new(IntervalId::new(p, clock.get(p)), clock.clone());
        state.store.close_interval(stamp, page_diffs);
        bump(&self.counters.intervals_closed, 1);
        clock.bump(p);
    }

    /// Delivers write notices to `p`, whose locked shard's frames are
    /// `pages`: pending lists grow and, under the invalidate policy,
    /// resident valid copies are invalidated.
    fn deliver_notices(&self, pages: &mut [Frame<Pending>], p: ProcId, notices: &[WriteNotice]) {
        bump(&self.counters.notices_received, notices.len() as u64);
        let mut invalidated = 0;
        for n in notices {
            debug_assert_ne!(n.interval.proc(), p, "no notices for own intervals");
            let entry = &mut pages[n.page.index()];
            entry.ext.push(n.interval);
            if self.policy == Policy::Invalidate && entry.valid {
                entry.valid = false;
                invalidated += 1;
            }
        }
        bump(&self.counters.invalidations, invalidated);
    }

    /// Takes `p`'s scratch out of its shard, its `needed` list holding
    /// every pending diff of a page `p` has a copy of (the update policy's
    /// working set at acquires and barriers). [`Engine::apply_plan`] puts
    /// the scratch back.
    fn needed_for_cached_pages(&self, p: ProcId) -> Scratch {
        let mut shard = self.shard(p);
        let mut scratch = mem::take(&mut shard.ext.scratch);
        scratch.needed.clear();
        for (gi, entry) in shard.pages.iter().enumerate() {
            if entry.copy.is_some() {
                let g = PageId::new(gi as u32);
                scratch.needed.extend(entry.ext.iter().map(|&iv| (iv, g)));
            }
        }
        scratch
    }

    /// One request/reply exchange fetching `diffs` from `target` at a
    /// barrier (the barrier paths run exclusively and may hold the store
    /// lock across the charge; the acquire and miss paths size payloads
    /// under the read lock and charge lock-free instead).
    fn barrier_fetch(
        &self,
        store: &IntervalStore,
        sizer: &mut Sizer,
        p: ProcId,
        target: ProcId,
        diffs: impl Iterator<Item = (IntervalId, PageId)> + Clone,
    ) {
        self.net.round_trip(
            p,
            target,
            MsgKind::BarrierDiffRequest,
            diffs.clone().count() as u64 * DIFF_REQUEST_ENTRY_BYTES,
            MsgKind::BarrierDiffReply,
            sizer.diff_payload(store, diffs),
        );
    }

    /// Applies every diff of `scratch`'s plan to the copies in `p`'s
    /// locked `shard` in happened-before order — the order the plan lists
    /// them in — and marks the touched pages valid, then returns the
    /// scratch to the shard. Returns the number of distinct pages touched.
    fn apply_plan(
        &self,
        store: &mut IntervalStore,
        p: ProcId,
        shard: &mut Shard<Lazy>,
        scratch: Scratch,
    ) -> usize {
        let pages = &mut shard.pages;
        let mut touched = 0;
        let mut applied = 0;
        for &Planned { interval, page, .. } in scratch.plan.diffs() {
            // The holder bit flips and the diff is applied straight out
            // of the store — no per-diff clone on the hot miss path.
            let diff = store
                .hold_and_diff(p, interval, page)
                .expect("planned diff exists");
            let entry = &mut pages[page.index()];
            entry.apply(diff, self.space.page_size());
            applied += 1;
            // Every planned diff is one of its page's pending notices, so
            // a page's first diff finds the list non-empty: that is where
            // the page is counted and the list cleared.
            if !entry.ext.is_empty() {
                entry.ext.clear();
                touched += 1;
            }
            entry.valid = true;
        }
        bump(&self.counters.diffs_applied, applied);
        shard.ext.scratch = scratch;
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
            merge_knowledge(&mut merged, &self.shard(r).ext.clock, r);
        }
        let mut state = self.proto.state.write();
        let live = || ProcId::all(n).filter(|r| !dead[r.index()]);
        // The exits stream: each live processor's missing notices are
        // computed into its own scratch against its own pre-merge clock,
        // sent, delivered, and only then is its clock merged. No list
        // reads another processor's clock, so this sends what computing
        // every list first would.
        for r in live() {
            let mut shard = self.shard(r);
            let Shard { pages, ext, .. } = &mut *shard;
            let LazyShard { clock, scratch, .. } = ext;
            let missing = &mut scratch.notices;
            state.store.notices_missing(clock, &merged, None, missing);
            if r != master {
                let payload = BARRIER_ID_BYTES + vc_bytes(n) + notice_bytes(missing);
                self.net.send(master, r, MsgKind::BarrierExit, payload);
            }
            self.deliver_notices(pages, r, missing);
            clock.merge(&merged);
        }
        if self.policy == Policy::Update {
            // Every processor pulls the diffs for its cached pages: one
            // round trip per (cacher, modifier) pair — Table 1's `2u`.
            for r in live() {
                let touched = self.validate_cached_pages(&mut state.store, r);
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
                self.collect_garbage(&mut state, &dead);
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
                    self.collect_garbage(&mut state, &dead);
                } else {
                    bump(&self.counters.gc_deferrals, 1);
                }
            }
        }
    }

    /// Brings every page `r` has a copy of fully up to date, charged as
    /// barrier traffic; returns the number of pages touched.
    fn validate_cached_pages(&self, store: &mut IntervalStore, r: ProcId) -> usize {
        let mut scratch = self.needed_for_cached_pages(r);
        let Scratch {
            needed,
            plan,
            sizer,
            ..
        } = &mut scratch;
        plan.build(store, r, None, needed);
        for (t, &target) in plan.targets().iter().enumerate() {
            self.barrier_fetch(store, sizer, r, target, plan.supplied_by(Source::Target(t)));
        }
        self.apply_plan(store, r, &mut self.shard(r), scratch)
    }

    /// Barrier-time garbage collection (TreadMarks-style): every processor
    /// brings its resident pages fully up to date (charged as barrier
    /// traffic), pages never cached anywhere keep only an owner pointer,
    /// and the entire interval/diff history is discarded — advancing the
    /// store's era. Safe exactly at barrier completion, when every
    /// interval has performed everywhere.
    fn collect_garbage(&self, state: &mut LazyState, dead: &[bool]) {
        let n = self.params.n_procs;
        // Validate every resident copy (the update policy already did; a
        // dead processor's frames were reset at death, so it has none).
        if self.policy == Policy::Invalidate {
            for r in ProcId::all(n).filter(|r| !dead[r.index()]) {
                let touched = self.validate_cached_pages(&mut state.store, r);
                bump(&self.counters.gc_validated_pages, touched as u64);
            }
        }
        // Record the authoritative owner of every page whose history is
        // about to disappear, then drop the history and dangling notices.
        for (page, owner) in state.store.latest_writers() {
            state.gc_owner[page.index()] = Some(owner);
        }
        if dead.iter().any(|&d| d) {
            self.rehome_dead_owned_pages(state, dead);
        }
        for r in ProcId::all(n) {
            for entry in &mut self.shard(r).pages {
                entry.ext.clear();
            }
        }
        state.store.clear();
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
    fn rehome_dead_owned_pages(&self, state: &mut LazyState, dead: &[bool]) {
        let n = self.params.n_procs;
        let orphaned = state.pages_owned_where(|o| dead[o.index()]);
        if orphaned.is_empty() {
            return;
        }
        let fallback = ProcId::all(n)
            .find(|r| !dead[r.index()])
            .expect("re-homing requires a live processor");
        let store = &state.store;
        for page in orphaned {
            let resident = ProcId::all(n)
                .find(|&r| !dead[r.index()] && self.shard(r).pages[page.index()].copy.is_some());
            let escrowed = state.escrow.remove(&page);
            let new_owner = match resident {
                Some(r) => r,
                None => {
                    let mut buf =
                        escrowed.unwrap_or_else(|| PageBuf::zeroed(self.space.page_size()));
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
            state.gc_owner[page.index()] = Some(new_owner);
        }
    }

    // ---- crash tolerance ----

    /// Captures a checkpoint of the whole engine.
    ///
    /// Call at a synchronization point — in practice right after a barrier
    /// episode completes, before any processor issues its next operation —
    /// so the cut is consistent. The capture itself tolerates open
    /// intervals: a dirty page contributes its *twin* (the committed
    /// contents — see [`Frame::committed`]), so uncommitted writes are
    /// never checkpointed, exactly as a real crash would lose them.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let state = self.proto.state.read();
        let n = self.params.n_procs;
        let mut procs = Vec::with_capacity(n);
        for p in ProcId::all(n) {
            let shard = self.shard(p);
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
            page_bytes: self.space.page_size().bytes(),
            n_pages: self.space.n_pages() as usize,
            episode: self.counters().barrier_episodes,
            store_era: state.store.era(),
            owners: state.gc_owner.clone(),
            store: state.store.export(),
            procs,
        }
    }

    /// Restores a whole-engine checkpoint into this (freshly built)
    /// engine: the interval store, owner table, and every processor's
    /// frames and clock are replaced. Locks must be free and no barrier
    /// episode in progress — the checkpoint was cut at a synchronization
    /// point, and lock/barrier state is not checkpointed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Incompatible`] if the checkpoint describes a
    /// different engine shape.
    pub fn restore(&self, ckpt: &EngineCheckpoint) -> Result<(), CheckpointError> {
        self.check_shape(ckpt)?;
        let mut state = self.proto.state.write();
        state.store = IntervalStore::import(self.params.n_procs, ckpt.store_era, &ckpt.store);
        state.gc_owner = ckpt.owners.clone();
        state.escrow.clear();
        for p in ProcId::all(self.params.n_procs) {
            let mut shard = self.shard(p);
            shard.ext.clock = ckpt.procs[p.index()].clock.clone();
            self.reset_frames(&mut shard, &ckpt.procs[p.index()].frames);
        }
        Ok(())
    }

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
        // zeros). Consumed by `rehome_dead_owned_pages`.
        {
            let mut state = self.proto.state.write();
            let mut shard = self.shard(p);
            for page in state.pages_owned_where(|o| o == p) {
                if let Some(buf) = shard.pages[page.index()].committed() {
                    state.escrow.insert(page, buf.clone());
                }
            }
            shard.dirty.clear();
            shard.pages.fill_with(Frame::default);
        }
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
    /// `p`'s own flushed intervals are reapplied from local possession:
    /// `p` is their recorded holder, so fetching them costs no messages.
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
    /// cold-join from a checkpoint cut after the collection.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn rejoin(&self, p: ProcId, ckpt: &EngineCheckpoint) -> Result<(), CheckpointError> {
        self.check_shape(ckpt)?;
        let n = self.params.n_procs;
        {
            let state = self.proto.state.read();
            let store = &state.store;
            if store.era() != ckpt.store_era {
                let why = format!(
                    "store era {} differs from checkpoint era {}: the \
                     catch-up history was garbage-collected",
                    store.era(),
                    ckpt.store_era
                );
                // A lease-expired processor's history was collected *on
                // purpose*: the typed error tells the runtime to cold-join
                // from a post-collection checkpoint instead of retrying.
                return Err(if self.shard(p).ext.lease_expired {
                    CheckpointError::LeaseExpired(why)
                } else {
                    CheckpointError::Incompatible(why)
                });
            }
            // Target knowledge: the checkpoint's own view, every live
            // survivor's knowledge, and p's own flushed intervals.
            let ckpt_clock = &ckpt.procs[p.index()].clock;
            let mut have = ckpt_clock.clone();
            have.set(p, ckpt_clock.get(p) - 1);
            let mut want = have.clone();
            for r in ProcId::all(n).filter(|&r| r != p) {
                let shard_r = self.shard(r);
                if !shard_r.ext.dead {
                    merge_knowledge(&mut want, &shard_r.ext.clock, r);
                }
            }
            let latest = store.latest_seq(p);
            if want.get(p) < latest {
                want.set(p, latest);
            }

            let mut shard = self.shard(p);
            if !shard.ext.dead {
                return Err(CheckpointError::Incompatible(format!(
                    "processor {p} is not declared dead"
                )));
            }
            self.reset_frames(&mut shard, &ckpt.procs[p.index()].frames);
            let Shard { pages, ext, .. } = &mut *shard;
            let notices = &mut ext.scratch.notices;
            store.notices_missing(&have, &want, None, notices);
            // Catch-up delivery. Unlike deliver_notices this may carry
            // p's *own* post-checkpoint intervals, and it invalidates
            // under the update policy too: rejoin is not an acquire, so
            // nothing will pull for cached pages afterwards — the miss
            // path must.
            bump(&self.counters.notices_received, notices.len() as u64);
            for notice in notices.iter() {
                let entry = &mut pages[notice.page.index()];
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
            ext.clock = clock;
        }
        self.barriers.lock().revive(p);
        Ok(())
    }
}
