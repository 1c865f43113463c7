//! The lazy release consistency protocol (§4): interval bookkeeping, write
//! notices, diff pulls and barrier-time garbage collection, plugged into
//! the shared [`Engine`] at the four [`Protocol`] points — plus
//! checkpointing and crash recovery, which only [`LrcEngine`] has.

use std::collections::HashMap;
use std::mem;

use lrc_pagemem::{Diff, DiffView, PageBuf, PageId};
use lrc_simnet::{
    notice_batch_bytes, vc_bytes, MsgKind, BARRIER_ID_BYTES, DIFF_REQUEST_ENTRY_BYTES,
    LOCK_ID_BYTES, PAGE_ID_BYTES,
};
use lrc_sync::{AcquirePath, BarrierId, LockId};
use lrc_vclock::{IntervalId, ProcId, VectorClock};

use crate::engine::{Engine, EngineCore, Protocol, Shard};
use crate::pending::NoticeList;
use crate::plan::{FetchPlan, Planned, Source};
use crate::{
    CheckpointError, ConfigError, EngineCheckpoint, Frame, FrameCheckpoint, IntervalStore, Pending,
    Policy, ProcCheckpoint, WriteNotice,
};

/// The lazy protocol's shared state: the interval store plus the
/// garbage-collection and crash-recovery tables around it.
///
/// A miss plans against the store in [`Engine::begin_miss`] and applies
/// in [`Engine::finish_miss`], and the store may grow in between (other
/// processors close intervals), but only garbage collection rewrites the
/// history, and it runs where no miss can sit between its halves: at a
/// barrier episode's completion, which needs every live processor's
/// arrival, and at a death, which drops its victim's miss first. The
/// finish asserts that the store's era did not move.
#[derive(Debug)]
pub struct Lazy {
    /// Interval records, diffs, and possession tracking.
    store: IntervalStore,
    /// After garbage collection: the processor holding the authoritative
    /// copy of each page whose diff history was discarded.
    gc_owner: Vec<Option<ProcId>>,
    /// Working space of the collection's owner pass
    /// ([`IntervalStore::latest_writers`]): the weight of each page's
    /// latest writer.
    gc_weights: Vec<u64>,
    /// Committed contents of pages whose post-GC authoritative owner
    /// died, parked at [`LrcEngine::declare_dead`] (the dead frames are
    /// reset) and consumed when a lease-expired collection re-homes the
    /// pages onto live frames.
    escrow: HashMap<PageId, PageBuf>,
}

impl Lazy {
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

/// Asserts that the store's era is still `planned`, the era `p`'s miss
/// read when it built its plan. A collection between plan and apply
/// would leave the plan naming discarded diffs, and none can happen
/// there under a live driver: a barrier completes only once `p` has
/// arrived, and a death drops its victim's miss before it collects.
fn assert_era(store: &IntervalStore, planned: u64, p: ProcId) {
    assert_eq!(
        store.era(),
        planned,
        "the interval store was collected under {p}'s slow path: {p} \
         arrived at a barrier between the halves of its own miss"
    );
}

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
    /// The slots of every frame's [`Pending`] notices.
    pending: NoticeList,
    /// The buffers this processor's slow paths reuse.
    scratch: Scratch,
}

/// The transient lists one processor's lazy slow paths build, kept in its
/// shard so that each call refills the buffers of the last one instead of
/// allocating its own. Every user clears or rebuilds a buffer before it
/// reads it: only capacity carries over from call to call. A shard's
/// scratch is built with room ([`Scratch::new`]), so a fresh engine's
/// first slow paths do not grow it from nothing.
///
/// A miss's plan stays here between [`Engine::begin_miss`] and
/// [`Engine::finish_miss`]. Only `p`'s own thread drives `p`, so no other
/// slow path of `p` runs in between to overwrite it, and a barrier
/// completion, which uses every processor's scratch, needs `p`'s arrival
/// first. The one buffer another processor's slow path uses is the
/// master's `merged`, which no miss touches.
#[derive(Debug, Default)]
struct Scratch {
    /// Write notices, from [`IntervalStore::notices_missing`].
    notices: Vec<WriteNotice>,
    /// The diffs a plan is built for, with their handles, grouped by page
    /// in ascending page order: a miss lists one page's pending notices,
    /// and an update lists its cached pages one after another.
    needed: Vec<WriteNotice>,
    /// The fetch plan, with its own sort buffer.
    plan: FetchPlan,
    sizer: Sizer,
    /// Another processor's clock — an acquire's grantor, a barrier
    /// arrival's master — copied so that the processor's own shard can
    /// change while it is read.
    peer_clock: VectorClock,
    /// The knowledge a barrier episode completing at this processor, its
    /// master, merges from every processor.
    merged: VectorClock,
    /// A cold miss's base copy, between its plan and its apply.
    base: Option<PageBuf>,
}

/// How many notices, needed diffs and covered ranges a fresh shard's
/// scratch has room for.
const SCRATCH_ROOM: usize = 64;

impl Scratch {
    /// A scratch for one of `n` processors, with room for
    /// [`SCRATCH_ROOM`] entries in each list and `n` in each per-target
    /// or per-processor one.
    fn new(n: usize) -> Self {
        Scratch {
            notices: Vec::with_capacity(SCRATCH_ROOM),
            needed: Vec::with_capacity(SCRATCH_ROOM),
            plan: FetchPlan::with_capacity(SCRATCH_ROOM, n),
            sizer: Sizer {
                ranges: Vec::with_capacity(SCRATCH_ROOM),
            },
            peer_clock: VectorClock::new(n),
            merged: VectorClock::new(n),
            base: None,
        }
    }
}

/// The buffer that sizing a diff reply works in: the byte ranges one
/// chain covers.
#[derive(Debug, Default)]
struct Sizer {
    ranges: Vec<(u32, u32)>,
}

impl Sizer {
    /// Wire size of the diffs that `source` supplies of a plan built for
    /// `needed`: the sum of its pages' chains ([`chain_bytes`]). `needed`
    /// is grouped by page, so each group filtered by source is one chain,
    /// found with no sort.
    fn diff_payload(
        &mut self,
        store: &IntervalStore,
        needed: &[WriteNotice],
        plan: &FetchPlan,
        source: Source,
    ) -> u64 {
        debug_assert!(
            needed.is_sorted_by_key(|n| n.page),
            "needed diffs come page by page"
        );
        let mut at = 0;
        needed
            .chunk_by(|a, b| a.page == b.page)
            .map(|group| {
                let sources = &plan.sources()[at..at + group.len()];
                at += group.len();
                let chain = group
                    .iter()
                    .zip(sources)
                    .filter(|&(_, &s)| s == source)
                    .map(|(notice, _)| store.diff_at(notice));
                chain_bytes(chain, &mut self.ranges)
            })
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

/// The processors of a set given as a bitmask, one bit per processor
/// ([`MAX_PROCS`](crate::MAX_PROCS) is 64): here, the dead ones.
type ProcSet = u64;

/// True if `r`'s bit is set in `set`.
fn holds(set: ProcSet, r: ProcId) -> bool {
    set >> r.index() & 1 != 0
}

/// Wire size of a batch of write notices: one header per distinct
/// interval plus a page id per notice (TreadMarks-style interval
/// records). `notices` comes from [`IntervalStore::notices_missing`],
/// which lists each interval's notices contiguously.
fn notice_bytes(notices: &[WriteNotice]) -> u64 {
    let intervals = notices.chunk_by(|a, b| a.interval == b.interval).count();
    notice_batch_bytes(intervals, notices.len())
}

/// A checkpointed pending notice of `interval` on `page`, resolved to its
/// handle in `store`: the one place a handle is searched for.
///
/// # Errors
///
/// [`CheckpointError::Incompatible`] if `store` records no diff of
/// `interval` for `page`.
fn resolve(
    store: &IntervalStore,
    interval: IntervalId,
    page: PageId,
) -> Result<WriteNotice, CheckpointError> {
    store.locate(interval, page).ok_or_else(|| {
        CheckpointError::Incompatible(format!(
            "pending notice of {interval} names no recorded diff of {page}"
        ))
    })
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
/// intervals "in which the modification was overwritten"). An empty
/// chain ships nothing.
///
/// Only the size is charged here, and the size of a squash depends on
/// which bytes the chain covers — not on their values, nor on the order
/// of the chain — so [`Diff::squashed_size`] reads no data byte; it
/// gathers the coverage in `ranges`, and the chain may come in any
/// order. The chain is walked once.
fn chain_bytes<'a>(
    chain: impl Iterator<Item = DiffView<'a>> + Clone,
    ranges: &mut Vec<(u32, u32)>,
) -> u64 {
    let whole = chain.clone();
    let mut rest = chain;
    let size = match (rest.next(), rest.next()) {
        (None, _) => 0,
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
        Ok(Lazy {
            store: IntervalStore::new(core.params.n_procs),
            gc_owner: vec![None; core.space.n_pages() as usize],
            gc_weights: Vec::new(),
            escrow: HashMap::new(),
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
            // Room for a notice per page before the list grows: 16 bytes
            // a frame, as many as the frame saved on its own list.
            pending: NoticeList::with_capacity(core.space.n_pages() as usize),
            scratch: Scratch::new(core.params.n_procs),
        }
    }

    fn is_dead(ext: &LazyShard) -> bool {
        ext.dead
    }

    /// Finds and transfers the lock (up to 3 messages), receives
    /// piggybacked write notices for every interval performed at the
    /// grantor but not at `p`, and — under the update policy — pulls diffs
    /// to bring all cached pages up to date.
    fn on_acquire(e: &mut Engine<Self>, p: ProcId, path: &AcquirePath) {
        e.close_interval(p);
        let q = path.grantor;
        if q == p {
            // Local re-acquire: nothing new to learn, nothing on the wire.
            return;
        }
        let Engine {
            core,
            shards,
            proto,
        } = e;
        let n = core.params.n_procs;

        // Request and forward hops carry the acquirer's vector clock so the
        // grantor can compute the missing write notices (§4.2).
        let hop_payload = LOCK_ID_BYTES + vc_bytes(n);
        if let Some((src, dst)) = path.request {
            core.net.send(src, dst, MsgKind::LockRequest, hop_payload);
        }
        if let Some((src, dst)) = path.forward {
            core.net.send(src, dst, MsgKind::LockForward, hop_payload);
        }

        // The grantor's knowledge: everything it closed is in the store
        // (close_interval records before it bumps the clock), so the
        // notice computation below never names an unrecorded interval.
        // Its clock is copied into `p`'s scratch; its own entry, the open
        // interval, reads one lower where it is used.
        let mut grantor = mem::take(&mut shards[p.index()].ext.scratch.peer_clock);
        grantor.clone_from(&shards[q.index()].ext.clock);
        let store = &mut proto.store;
        let Shard { pages, ext, .. } = &mut shards[p.index()];
        // The notices are computed into `p`'s scratch and delivered from
        // it; only their wire size leaves.
        let notices = &mut ext.scratch.notices;
        store.notices_missing(&ext.clock, &grantor, Some(q), notices);
        deliver_notices(core, pages, &mut ext.pending, p, notices);
        merge_knowledge(&mut ext.clock, &grantor, q);
        ext.scratch.peer_clock = grantor;
        let notice_payload = notice_bytes(&ext.scratch.notices);

        // Update policy: bring every cached page up to date now. Diffs the
        // grantor holds ride the grant; the rest cost 2 messages per other
        // concurrent last modifier (Table 1's `2h`).
        let mut grant_payload = LOCK_ID_BYTES + vc_bytes(n) + notice_payload;
        if core.policy == Policy::Update {
            let mut scratch = needed_for_cached_pages(pages, ext);
            let Scratch {
                needed,
                plan,
                sizer,
                ..
            } = &mut scratch;
            plan.build(store, p, Some(q), needed);
            grant_payload += sizer.diff_payload(store, needed, plan, Source::Free);
            for (t, &target) in plan.targets().iter().enumerate() {
                let source = Source::Target(t);
                let request = plan.planned_by(source).count() as u64 * DIFF_REQUEST_ENTRY_BYTES;
                let reply = sizer.diff_payload(store, needed, plan, source);
                core.net.round_trip(
                    p,
                    target,
                    MsgKind::AcquireDiffRequest,
                    request,
                    MsgKind::AcquireDiffReply,
                    reply,
                );
            }
            let touched = apply_plan(core, store, p, pages, ext, scratch);
            core.counters.updates += touched as u64;
        }

        if let Some((src, dst)) = path.grant {
            if core.params.piggyback_notices {
                core.net.send(src, dst, MsgKind::LockGrant, grant_payload);
            } else {
                // Ablation: the grant carries only the lock; consistency
                // data travels in a separate message.
                core.net.send(src, dst, MsgKind::LockGrant, LOCK_ID_BYTES);
                core.net
                    .send(src, dst, MsgKind::LockGrant, grant_payload - LOCK_ID_BYTES);
            }
        }
    }

    /// Purely local under LRC: the interval closes (diffs are made for
    /// dirtied pages) and **no messages are sent** (§4.2).
    fn on_release(e: &mut Engine<Self>, p: ProcId) {
        e.close_interval(p);
    }

    /// The arrival message carries the processor's clock and fresh write
    /// notices to the master.
    fn barrier_arrive(e: &mut Engine<Self>, p: ProcId, _barrier: BarrierId, master: ProcId) {
        e.close_interval(p);
        if p != master {
            let Engine {
                core,
                shards,
                proto,
            } = e;
            let mut master_clock = mem::take(&mut shards[p.index()].ext.scratch.peer_clock);
            master_clock.clone_from(&shards[master.index()].ext.clock);
            let LazyShard { clock, scratch, .. } = &mut shards[p.index()].ext;
            let fresh = &mut scratch.notices;
            proto
                .store
                .notices_missing(&master_clock, clock, Some(p), fresh);
            scratch.peer_clock = master_clock;
            let payload =
                BARRIER_ID_BYTES + vc_bytes(core.params.n_procs) + notice_bytes(&scratch.notices);
            core.net.send(p, master, MsgKind::BarrierArrival, payload);
        }
    }

    fn barrier_complete(e: &mut Engine<Self>, _barrier: BarrierId, master: ProcId) {
        e.complete_barrier(master);
    }

    /// §4.3.2/§4.3.3, planning half: plans the pulls of the needed diffs
    /// from the concurrent last modifiers (2m messages), plus a base copy
    /// if the page was never resident, and charges them. The plan and
    /// the base wait in `p`'s scratch.
    fn begin_miss(e: &mut Engine<Self>, p: ProcId, page: PageId) -> Option<u64> {
        let gi = page.index();
        let Engine {
            core,
            shards,
            proto,
        } = e;
        let store = &proto.store;
        let Shard { pages, ext, .. } = &mut shards[p.index()];
        let cold = pages[gi].copy.is_none();
        if cold {
            core.counters.cold_misses += 1;
        } else {
            core.counters.warm_misses += 1;
        }
        let Scratch {
            needed, plan, base, ..
        } = &mut ext.scratch;
        needed.clear();
        needed.extend(ext.pending.iter(pages[gi].ext, page));
        plan.build(store, p, None, needed);
        debug_assert!(
            cold || !plan.is_empty(),
            "warm miss without pending diffs cannot occur"
        );

        // Cold miss: "a copy of the page may have to be retrieved"
        // (§4.3.3). The base ships from the first diff supplier when there
        // is one, from the post-GC owner if the history was collected, and
        // from the page's home (the initial contents) otherwise.
        let page_bytes = core.space.page_size().bytes() as u64;
        let first_target = plan.targets().first().copied();
        *base = None;
        if cold {
            let supplier = first_target
                .or(proto.gc_owner[gi])
                .unwrap_or_else(|| core.page_home(page));
            // The supplier's *committed* contents, cloned without
            // disturbing its state; a never-touched home (and `p` itself,
            // only possible for the untouched-home case) supplies the
            // initial zero page.
            let committed = (supplier != p)
                .then(|| shards[supplier.index()].pages[gi].committed().cloned())
                .flatten();
            let buf = committed.unwrap_or_else(|| PageBuf::zeroed(core.space.page_size()));
            // The base rides the first diff reply when the supplier is
            // also a fetch target; otherwise it is its own round trip.
            if supplier != p && first_target != Some(supplier) {
                core.net.round_trip(
                    p,
                    supplier,
                    MsgKind::MissRequest,
                    PAGE_ID_BYTES,
                    MsgKind::MissReply,
                    page_bytes,
                );
            }
            shards[p.index()].ext.scratch.base = Some(buf);
        }
        // All of a miss's diffs name the missed page: what each target
        // supplies is one chain as it stands.
        let Scratch { plan, sizer, .. } = &mut shards[p.index()].ext.scratch;
        for (t, &target) in plan.targets().iter().enumerate() {
            let source = Source::Target(t);
            let request = plan.planned_by(source).count() as u64 * DIFF_REQUEST_ENTRY_BYTES;
            let mut chain = || {
                let diff_of = |d: &Planned| store.diff_at(&d.notice);
                chain_bytes(plan.planned_by(source).map(diff_of), &mut sizer.ranges)
            };
            let (request, reply) = if cold && t == 0 {
                // The first supplier's reply also carries the base.
                (request + PAGE_ID_BYTES, chain() + page_bytes)
            } else if core.params.full_page_misses {
                // Ablation of §4.3.3: whole pages, not diffs.
                (request, page_bytes)
            } else {
                (request, chain())
            };
            core.net.round_trip(
                p,
                target,
                MsgKind::MissRequest,
                request,
                MsgKind::MissReply,
                reply,
            );
        }
        Some(store.era())
    }

    /// Applying half: installs the base, if the miss was cold, and
    /// applies the planned diffs in happened-before order.
    fn finish_miss(e: &mut Engine<Self>, p: ProcId, page: PageId, era: u64) {
        let Engine {
            core,
            shards,
            proto,
        } = e;
        assert_era(&proto.store, era, p);
        let Shard { pages, ext, .. } = &mut shards[p.index()];
        let entry = &mut pages[page.index()];
        if let Some(buf) = ext.scratch.base.take() {
            entry.copy = Some(buf);
        }
        let scratch = mem::take(&mut ext.scratch);
        apply_plan(core, &mut proto.store, p, pages, ext, scratch);
        let entry = &mut pages[page.index()];
        ext.pending.clear(&mut entry.ext);
        entry.valid = true;
    }
}

/// Delivers write notices to `p`, whose frames are `pages` and notice
/// slots `pending`: pending lists grow and, under the invalidate policy,
/// resident valid copies are invalidated.
fn deliver_notices(
    core: &mut EngineCore,
    pages: &mut [Frame<Pending>],
    pending: &mut NoticeList,
    p: ProcId,
    notices: &[WriteNotice],
) {
    core.counters.notices_received += notices.len() as u64;
    let mut invalidated = 0;
    for n in notices {
        debug_assert_ne!(n.interval.proc(), p, "no notices for own intervals");
        let entry = &mut pages[n.page.index()];
        pending.push(&mut entry.ext, n);
        if core.policy == Policy::Invalidate && entry.valid {
            entry.valid = false;
            invalidated += 1;
        }
    }
    core.counters.invalidations += invalidated;
}

/// Takes the scratch out of a processor's shard extension `ext`, its
/// `needed` list holding every pending diff of a page of `pages` the
/// processor has a copy of (the update policy's working set at acquires
/// and barriers). [`apply_plan`] puts the scratch back.
fn needed_for_cached_pages(pages: &[Frame<Pending>], ext: &mut LazyShard) -> Scratch {
    let mut scratch = mem::take(&mut ext.scratch);
    scratch.needed.clear();
    for (gi, entry) in pages.iter().enumerate() {
        if entry.copy.is_some() {
            let g = PageId::new(gi as u32);
            scratch.needed.extend(ext.pending.iter(entry.ext, g));
        }
    }
    scratch
}

/// Applies every diff of `scratch`'s plan to `p`'s copies (`pages`, with
/// shard extension `ext`) in happened-before order — the order the plan
/// lists them in — and marks the touched pages valid, then returns the
/// scratch to the shard. Returns the number of distinct pages touched.
fn apply_plan(
    core: &mut EngineCore,
    store: &mut IntervalStore,
    p: ProcId,
    pages: &mut [Frame<Pending>],
    ext: &mut LazyShard,
    scratch: Scratch,
) -> usize {
    let mut touched = 0;
    let mut applied = 0;
    for Planned { notice, .. } in scratch.plan.diffs() {
        // The holder bit flips and the diff is applied straight out
        // of the store — no per-diff copy on the hot miss path.
        let diff = store.hold_at(p, notice);
        let frame = &mut pages[notice.page.index()];
        frame.apply(diff, core.space.page_size());
        applied += 1;
        // Every planned diff is one of its page's pending notices, so
        // a page's first diff finds the list non-empty: that is where
        // the page is counted and the list cleared.
        if !frame.ext.is_empty() {
            ext.pending.clear(&mut frame.ext);
            touched += 1;
        }
        frame.valid = true;
    }
    core.counters.diffs_applied += applied;
    ext.scratch = scratch;
    touched
}

/// Brings every page `r` has a copy of fully up to date, charged as
/// barrier traffic: one request/reply exchange per fetch target. Returns
/// the number of pages touched.
fn validate_cached_pages(
    core: &mut EngineCore,
    store: &mut IntervalStore,
    shards: &mut [Shard<Lazy>],
    r: ProcId,
) -> usize {
    let Shard { pages, ext, .. } = &mut shards[r.index()];
    let mut scratch = needed_for_cached_pages(pages, ext);
    let Scratch {
        needed,
        plan,
        sizer,
        ..
    } = &mut scratch;
    plan.build(store, r, None, needed);
    for (t, &target) in plan.targets().iter().enumerate() {
        let source = Source::Target(t);
        let request = plan.planned_by(source).count() as u64 * DIFF_REQUEST_ENTRY_BYTES;
        let reply = sizer.diff_payload(store, needed, plan, source);
        core.net.round_trip(
            r,
            target,
            MsgKind::BarrierDiffRequest,
            request,
            MsgKind::BarrierDiffReply,
            reply,
        );
    }
    apply_plan(core, store, r, pages, ext, scratch)
}

impl Engine<Lazy> {
    /// The interval/diff store (for inspection).
    pub fn store(&self) -> &IntervalStore {
        &self.proto.store
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
    /// twin, straight into `p`'s log in the store, records the interval
    /// (if any page actually changed), and opens the next interval. The
    /// interval is recorded in the store *before* the clock bump, so any
    /// processor that observes the new clock value finds the interval
    /// recorded.
    fn close_interval(&mut self, p: ProcId) {
        let Shard {
            pages,
            dirty,
            spare_twins,
            ext,
        } = &mut self.shards[p.index()];
        let mut closing = self.proto.store.open(p);
        // Drained, not taken: the list keeps its allocation for the next
        // interval's first write, as the twins' buffers do.
        for g in dirty.drain(..) {
            let closed = pages[g.index()].close_twin(spare_twins, |twin, copy, written| {
                closing.add(g, twin, copy, written)
            });
            assert!(closed.is_some(), "dirty page has a twin");
        }
        if closing.close(&ext.clock) {
            self.core.counters.intervals_closed += 1;
            ext.clock.bump(p);
        }
    }

    /// Completes a barrier episode at `master`: merge all knowledge, send
    /// exit messages with the notices each processor lacks, and apply the
    /// policy: `2(n-1)` messages per episode, with all consistency
    /// information piggybacked (Table 1, LI row); under the update policy
    /// each processor then pulls diffs for its cached pages (`2u`). Every
    /// other processor is waiting for the episode, so the completion is
    /// free to rewrite the history.
    fn complete_barrier(&mut self, master: ProcId) {
        let n = self.core.params.n_procs;
        // A dead processor contributes its knowledge (its frozen clock
        // names only intervals that were flushed into the store when it
        // was declared dead) but receives nothing: no exit message, no
        // notices, no clock merge. Its frames were reset at death — the
        // catch-up happens at rejoin, against its checkpoint.
        let dead: ProcSet = ProcId::all(n)
            .filter(|&r| self.shard(r).ext.dead)
            .fold(0, |set, r| set | 1 << r.index());
        let Engine {
            core,
            shards,
            proto,
        } = self;
        // The merged clock is built in the master's scratch, taken out
        // while every processor's own scratch is in use below, starting
        // from the master's knowledge: its clock, its open interval's
        // entry one lower.
        let mut merged = mem::take(&mut shards[master.index()].ext.scratch.merged);
        merged.clone_from(&shards[master.index()].ext.clock);
        merged.set(master, merged.get(master).saturating_sub(1));
        for r in ProcId::all(n).filter(|&r| r != master) {
            merge_knowledge(&mut merged, &shards[r.index()].ext.clock, r);
        }
        let live = || ProcId::all(n).filter(|&r| !holds(dead, r));
        // The exits stream: each live processor's missing notices are
        // computed into its own scratch against its own pre-merge clock,
        // sent, delivered, and only then is its clock merged. No list
        // reads another processor's clock, so this sends what computing
        // every list first would.
        for r in live() {
            let Shard { pages, ext, .. } = &mut shards[r.index()];
            let LazyShard {
                clock,
                pending,
                scratch,
                ..
            } = ext;
            let missing = &mut scratch.notices;
            proto.store.notices_missing(clock, &merged, None, missing);
            if r != master {
                let payload = BARRIER_ID_BYTES + vc_bytes(n) + notice_bytes(missing);
                core.net.send(master, r, MsgKind::BarrierExit, payload);
            }
            deliver_notices(core, pages, pending, r, missing);
            clock.merge(&merged);
        }
        shards[master.index()].ext.scratch.merged = merged;
        if core.policy == Policy::Update {
            // Every processor pulls the diffs for its cached pages: one
            // round trip per (cacher, modifier) pair — Table 1's `2u`.
            for r in live() {
                let touched = validate_cached_pages(core, &mut proto.store, shards, r);
                core.counters.updates += touched as u64;
            }
        }
        core.counters.barrier_episodes += 1;
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
        if self.core.params.gc_at_barriers {
            if dead == 0 {
                self.collect_garbage(dead);
            } else {
                let episode = self.core.counters.barrier_episodes;
                let all_dead = dead.count_ones() as usize == n;
                let leases_expired = !all_dead
                    && self.core.params.death_lease_episodes.is_some_and(|lease| {
                        ProcId::all(n)
                            .filter(|&r| holds(dead, r))
                            .all(|r| episode.saturating_sub(self.shard(r).ext.dead_since) >= lease)
                    });
                if leases_expired {
                    for r in ProcId::all(n).filter(|&r| holds(dead, r)) {
                        self.shards[r.index()].ext.lease_expired = true;
                    }
                    self.collect_garbage(dead);
                } else {
                    self.core.counters.gc_deferrals += 1;
                }
            }
        }
    }

    /// Barrier-time garbage collection (TreadMarks-style): every processor
    /// brings its resident pages fully up to date (charged as barrier
    /// traffic), pages never cached anywhere keep only an owner pointer,
    /// and the entire interval/diff history is discarded — advancing the
    /// store's era. Safe exactly at barrier completion, when every
    /// interval has performed everywhere.
    fn collect_garbage(&mut self, dead: ProcSet) {
        let n = self.core.params.n_procs;
        let Engine {
            core,
            shards,
            proto,
        } = self;
        // Validate every resident copy (the update policy already did; a
        // dead processor's frames were reset at death, so it has none).
        if core.policy == Policy::Invalidate {
            for r in ProcId::all(n).filter(|&r| !holds(dead, r)) {
                let touched = validate_cached_pages(core, &mut proto.store, shards, r);
                core.counters.gc_validated_pages += touched as u64;
            }
        }
        // Record the authoritative owner of every page whose history is
        // about to disappear, then drop the history and dangling notices.
        proto
            .store
            .latest_writers(&mut proto.gc_owner, &mut proto.gc_weights);
        if dead != 0 {
            self.rehome_dead_owned_pages(dead);
        }
        for shard in &mut self.shards {
            for entry in &mut shard.pages {
                entry.ext = Pending::default();
            }
            shard.ext.pending.reset();
        }
        self.proto.store.clear();
        self.core.counters.gc_rounds += 1;
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
    fn rehome_dead_owned_pages(&mut self, dead: ProcSet) {
        let n = self.core.params.n_procs;
        let orphaned = self.proto.pages_owned_where(|o| holds(dead, o));
        if orphaned.is_empty() {
            return;
        }
        let fallback = ProcId::all(n)
            .find(|&r| !holds(dead, r))
            .expect("re-homing requires a live processor");
        let Engine {
            core,
            shards,
            proto,
        } = self;
        for page in orphaned {
            let resident = ProcId::all(n)
                .find(|&r| !holds(dead, r) && shards[r.index()].pages[page.index()].copy.is_some());
            let escrowed = proto.escrow.remove(&page);
            let new_owner = match resident {
                Some(r) => r,
                None => {
                    let store = &proto.store;
                    let mut buf =
                        escrowed.unwrap_or_else(|| PageBuf::zeroed(core.space.page_size()));
                    let mut chain = store.diff_intervals_of_page(page);
                    chain.sort_by_key(|&iv| hb_key(store, iv));
                    for iv in chain {
                        store
                            .diff(iv, page)
                            .expect("listed diff exists")
                            .apply_to(&mut buf);
                    }
                    let entry = &mut shards[fallback.index()].pages[page.index()];
                    entry.copy = Some(buf);
                    entry.valid = true;
                    fallback
                }
            };
            proto.gc_owner[page.index()] = Some(new_owner);
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
        let state = &self.proto;
        let n = self.params.n_procs;
        let mut procs = Vec::with_capacity(n);
        for p in ProcId::all(n) {
            let shard = self.shard(p);
            let notices = &shard.ext.pending;
            let mut frames = Vec::new();
            for (gi, entry) in shard.pages.iter().enumerate() {
                let page = PageId::new(gi as u32);
                let frame = FrameCheckpoint {
                    page,
                    contents: entry.committed().map(|c| c.as_bytes().to_vec()),
                    valid: entry.valid,
                    pending: notices.iter(entry.ext, page).map(|n| n.interval).collect(),
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
            owners: (state.gc_owner.iter().enumerate())
                .filter_map(|(g, owner)| owner.map(|p| (PageId::new(g as u32), p)))
                .collect(),
            store: state.store.clone(),
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
    /// [`CheckpointError::Incompatible`] if the checkpoint does not fit
    /// this engine (see [`EngineCheckpoint`]), or if a frame's pending
    /// notice names no diff the checkpoint's store records for that page.
    /// Either way the engine is left as it was.
    pub fn restore(&mut self, ckpt: &EngineCheckpoint) -> Result<(), CheckpointError> {
        self.check_shape(ckpt)?;
        // Every notice resolves before anything is replaced.
        for frame in ckpt.procs.iter().flat_map(|proc| &proc.frames) {
            for &interval in &frame.pending {
                resolve(&ckpt.store, interval, frame.page)?;
            }
        }
        let page_size = self.space.page_size();
        let Engine { shards, proto, .. } = self;
        proto.store = ckpt.store.clone();
        proto.gc_owner.fill(None);
        for &(page, owner) in &ckpt.owners {
            proto.gc_owner[page.index()] = Some(owner);
        }
        proto.escrow.clear();
        for (shard, proc) in shards.iter_mut().zip(&ckpt.procs) {
            shard.ext.clock = proc.clock.clone();
            reset_frames(&proto.store, page_size, shard, &proc.frames)?;
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
        self.shards
            .iter()
            .any(|shard| shard.ext.dead && !shard.ext.lease_expired)
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
    /// instead), and every later operation of `p` fails the engine's
    /// liveness assertion until [`LrcEngine::rejoin`]: a driver checks
    /// [`LrcEngine::is_dead`] first, as the `lrc-dsm` runtime does.
    ///
    /// `p`'s thread may be between the halves of a miss. The death drops
    /// that miss and its plan: the page is free for another processor's
    /// miss at once, and [`Engine::finish_miss`] reports the dropped miss
    /// instead of installing into the reset frames.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or already dead.
    pub fn declare_dead(&mut self, p: ProcId) -> DeathReport {
        let episodes = self.core.counters.barrier_episodes;
        let ext = &mut self.shards[p.index()].ext;
        assert!(!ext.dead, "processor {p} is already dead");
        ext.dead = true;
        ext.dead_since = episodes;
        // Flush: every write of the open interval becomes durable history.
        self.close_interval(p);
        let released = self.core.locks.held_by(p);
        for &lock in &released {
            self.core.finish_release(p, lock);
        }
        if let Some(rec) = self.recorder() {
            rec.crash(p);
        }
        // Park the committed contents of every page whose post-GC
        // authoritative owner is `p`: the frames are about to be reset,
        // and a lease-expired collection must still be able to re-home
        // those pages onto live frames (cold misses would otherwise read
        // zeros). Consumed by `rehome_dead_owned_pages`.
        let Engine { shards, proto, .. } = self;
        let shard = &mut shards[p.index()];
        for page in proto.pages_owned_where(|o| o == p) {
            if let Some(buf) = shard.pages[page.index()].committed() {
                proto.escrow.insert(page, buf.clone());
            }
        }
        shard.dirty.clear();
        shard.pages.fill_with(Frame::default);
        shard.ext.pending.reset();
        // Drop the miss `p` may be fetching, cold base and all: its next
        // miss rebuilds the rest of the plan.
        shard.ext.scratch.base = None;
        self.core.misses.drop_miss(p);
        let completed_episodes = self.core.barriers.mark_dead(p);
        for &(barrier, _) in &completed_episodes {
            let master = self.core.barriers.master(barrier);
            self.complete_barrier(master);
        }
        DeathReport {
            released,
            completed_episodes,
        }
    }

    /// Checks that a checkpoint fits this engine
    /// ([`EngineCheckpoint::fault`]), and that every processor's clock
    /// opens an interval past the ones it recorded in the checkpoint's
    /// store: the next one it closes must be new.
    fn check_shape(&self, ckpt: &EngineCheckpoint) -> Result<(), CheckpointError> {
        let (n, page_bytes) = (self.params.n_procs, self.space.page_size().bytes());
        let refuse = |why| Err(CheckpointError::Incompatible(why));
        if let Some(why) = ckpt.fault(n, page_bytes, self.space.n_pages() as usize) {
            return refuse(why);
        }
        for (p, proc) in ProcId::all(n).zip(&ckpt.procs) {
            let (open, recorded) = (proc.clock.get(p), ckpt.store.latest_seq(p));
            if open <= recorded {
                return refuse(format!(
                    "clock of {p} opens {open}, not past its recorded {recorded}"
                ));
            }
        }
        Ok(())
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
    pub fn rejoin(&mut self, p: ProcId, ckpt: &EngineCheckpoint) -> Result<(), CheckpointError> {
        self.check_shape(ckpt)?;
        let n = self.params.n_procs;
        let page_size = self.space.page_size();
        let Engine {
            core,
            shards,
            proto,
        } = self;
        let store = &proto.store;
        if store.era() != ckpt.store.era() {
            let why = format!(
                "store era {} differs from checkpoint era {}: the \
                 catch-up history was garbage-collected",
                store.era(),
                ckpt.store.era()
            );
            // A lease-expired processor's history was collected *on
            // purpose*: the typed error tells the runtime to cold-join
            // from a post-collection checkpoint instead of retrying.
            return Err(if shards[p.index()].ext.lease_expired {
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
            let ext_r = &shards[r.index()].ext;
            if !ext_r.dead {
                merge_knowledge(&mut want, &ext_r.clock, r);
            }
        }
        let latest = store.latest_seq(p);
        if want.get(p) < latest {
            want.set(p, latest);
        }

        let shard = &mut shards[p.index()];
        if !shard.ext.dead {
            return Err(CheckpointError::Incompatible(format!(
                "processor {p} is not declared dead"
            )));
        }
        reset_frames(store, page_size, shard, &ckpt.procs[p.index()].frames)?;
        let Shard { pages, ext, .. } = shard;
        let notices = &mut ext.scratch.notices;
        store.notices_missing(&have, &want, None, notices);
        // Catch-up delivery. Unlike deliver_notices this may carry
        // p's *own* post-checkpoint intervals, and it invalidates
        // under the update policy too: rejoin is not an acquire, so
        // nothing will pull for cached pages afterwards — the miss
        // path must.
        core.counters.notices_received += notices.len() as u64;
        for notice in notices.iter() {
            let entry = &mut pages[notice.page.index()];
            ext.pending.push(&mut entry.ext, notice);
            if entry.valid {
                entry.valid = false;
                core.counters.invalidations += 1;
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
        core.barriers.revive(p);
        Ok(())
    }
}

/// Replaces a shard's frames with checkpointed ones, each pending notice
/// resolved to its handle in `store`, and brings the processor back to
/// life.
///
/// # Errors
///
/// [`CheckpointError::Incompatible`] if a notice names no diff `store`
/// records for its page. The shard's frames are then left reset and the
/// processor as dead or alive as it was.
fn reset_frames(
    store: &IntervalStore,
    page_size: lrc_pagemem::PageSize,
    shard: &mut Shard<Lazy>,
    frames: &[FrameCheckpoint],
) -> Result<(), CheckpointError> {
    let Shard {
        pages, dirty, ext, ..
    } = shard;
    dirty.clear();
    pages.fill_with(Frame::default);
    ext.pending.reset();
    for frame in frames {
        let entry = &mut pages[frame.page.index()];
        entry.install(frame.contents.as_deref(), frame.valid, page_size);
        for &interval in &frame.pending {
            match resolve(store, interval, frame.page) {
                Ok(notice) => ext.pending.push(&mut entry.ext, &notice),
                Err(refused) => {
                    pages.fill_with(Frame::default);
                    ext.pending.reset();
                    return Err(refused);
                }
            }
        }
    }
    ext.dead = false;
    ext.dead_since = 0;
    ext.lease_expired = false;
    Ok(())
}
