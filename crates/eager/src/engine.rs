use std::mem;

use lrc_core::{
    bump, ConfigError, Engine, EngineCore, LockCell, Policy, Protocol, Shard, Sharing, Threads,
};
use lrc_pagemem::{Diff, PageBuf, PageId};
use lrc_simnet::{invalidation_bytes, MsgKind, BARRIER_ID_BYTES, LOCK_ID_BYTES, PAGE_ID_BYTES};
use lrc_sync::{AcquirePath, BarrierId};
use lrc_vclock::ProcId;
use parking_lot::lockdep::classes;

/// Directory entry: who caches the page and who reconciled it last.
#[derive(Clone, Copy, Debug)]
struct DirEntry {
    /// Bitmask of processors with valid copies.
    copyset: u64,
    /// The processor a miss is forwarded to when the home has no copy.
    owner: ProcId,
}

/// A modification buffered at a barrier arrival under EI, awaiting
/// episode-end resolution.
#[derive(Clone, Debug)]
struct EpochMod {
    writer: ProcId,
    page: PageId,
    diff: Diff,
}

/// One page of an epoch's flush: the page, the diff of the epoch's
/// writes to it, and where it goes — the page's other cachers, as
/// copyset bits read when the epoch closed. A destination's message
/// carries the diffs whose bit it has, in flush order, and destinations
/// go lowest first — so the work is one bit test per diff and
/// destination, and no list is built per destination.
#[derive(Debug)]
struct Flushed {
    page: PageId,
    diff: Diff,
    dests: u64,
}

/// The eager protocol's per-processor state: the buffers this
/// processor's flushes reuse, so that a release allocates only while
/// its flushes outgrow every earlier one.
#[derive(Debug, Default)]
pub struct EagerShard {
    /// The flush in progress, one entry per flushed page. It is taken out
    /// of the shard while the flush is sent, and given back emptied.
    flush: Vec<Flushed>,
    /// Buffers of consumed diffs, for the next flush's diffs to refill
    /// ([`lrc_pagemem::Diff::refill`]). A diff's buffer returns here once
    /// its flush is sent, or, for an EI barrier arrival, once the episode
    /// completes.
    spare_diffs: Vec<Diff>,
}

/// The eager release consistency protocol (Munin-style write-shared):
/// modifications propagate to **all cachers at release time**, access
/// misses go through a directory, and acquires carry no consistency
/// information. This is its shared state — the page directory and EI's
/// per-episode modification buffer; per-processor state is the shared
/// frames plus the buffers a flush reuses ([`EagerShard`]).
///
/// A release's (or barrier arrival's) flush runs inside the gates of
/// every page it flushes ([`Protocol::FLUSHES_DIRTY`]), so flushes of
/// disjoint page sets overlap while same-page flush/flush and flush/miss
/// pairs serialize. The invalidation-writeback dance for a page is
/// therefore atomic: a concurrent writer either flushes before the
/// invalidator takes the page's gate or contributes its epoch's writes
/// as a writeback (its twin is consumed and the page leaves its dirty set
/// under the destination's shard lock). A directory entry changes only under its
/// page's gate. The directory mutex may be held while taking a shard
/// mutex, never the reverse.
#[derive(Debug)]
pub struct Eager<S: Sharing> {
    dir: S::Mutex<Vec<DirEntry>>,
    /// EI: modifications buffered for the current episode, indexed by
    /// barrier.
    epoch_mods: S::Mutex<Vec<Vec<EpochMod>>>,
}

/// The eager release consistency engine (EI under [`Policy::Invalidate`],
/// EU under [`Policy::Update`]). Data-full and metered like
/// [`lrc_core::LrcEngine`], so lazy and eager runs are directly
/// comparable. This is the threaded runtime's engine, in the [`Threads`]
/// family; the trace-driven simulator builds `Engine<Eager<OneThread>>`.
/// See the [crate docs](crate) for an example.
pub type EagerEngine = Engine<Eager<Threads>>;

fn bit(p: ProcId) -> u64 {
    1u64 << p.index()
}

/// The processors whose bits are set in `mask`, lowest first.
fn procs_in(mut mask: u64) -> impl Iterator<Item = ProcId> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let p = ProcId::new(mask.trailing_zeros() as u16);
            mask &= mask - 1;
            p
        })
    })
}

impl<S: Sharing> Eager<S> {
    /// Processors currently caching `page` (the initial home copy counts,
    /// even before materialization).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn copyset(&self, page: PageId) -> Vec<ProcId> {
        let mask = self.dir.lock()[page.index()].copyset;
        (0..u64::BITS as u16)
            .map(ProcId::new)
            .filter(|&p| mask & bit(p) != 0)
            .collect()
    }
}

impl<S: Sharing> Protocol for Eager<S> {
    type Family = S;
    type ShardExt = EagerShard;
    type FrameExt = ();

    fn new(core: &EngineCore<S>) -> Result<Self, ConfigError> {
        // A silently ignored lease would promise a recovery that cannot
        // happen: the eager baseline has no crash story.
        if core.params().death_lease_episodes.is_some() {
            return Err(ConfigError::LazyOnly("death_lease"));
        }
        let dir = core
            .space()
            .pages()
            .map(|g| {
                let home = core.page_home(g);
                // The home starts with the (all-zero) initial copy.
                DirEntry {
                    copyset: bit(home),
                    owner: home,
                }
            })
            .collect();
        Ok(Eager {
            dir: LockCell::new_in(dir, classes::EAGER_DIRECTORY),
            epoch_mods: LockCell::new_in(
                vec![Vec::new(); core.params().n_barriers],
                classes::EAGER_EPOCH_MODS,
            ),
        })
    }

    fn new_ext(_core: &EngineCore<S>, _p: ProcId) -> EagerShard {
        EagerShard::default()
    }

    /// Find-and-transfer messages only: eager RC performs **no
    /// consistency actions at acquires** (§3).
    fn on_acquire(e: &Engine<Self>, _p: ProcId, path: &AcquirePath) {
        let hops = [
            (path.request, MsgKind::LockRequest),
            (path.forward, MsgKind::LockForward),
            (path.grant, MsgKind::LockGrant),
        ];
        for (hop, kind) in hops {
            if let Some((src, dst)) = hop {
                e.net().send(src, dst, kind, LOCK_ID_BYTES);
            }
        }
    }

    /// A release or barrier arrival flushes the pages dirtied this epoch.
    const FLUSHES_DIRTY: bool = true;

    /// Propagates every modification of the epoch to all other cachers
    /// (updates under EU, invalidations under EI), one merged message per
    /// destination, and blocks for their acknowledgments — Table 1's `2c`.
    fn on_release(e: &Engine<Self>, p: ProcId) {
        let flush = take_epoch_flush(e, p);
        if !flush.is_empty() {
            match e.policy() {
                Policy::Update => {
                    push_updates(e, p, &flush, MsgKind::ReleaseUpdate, MsgKind::ReleaseAck)
                }
                Policy::Invalidate => push_invalidations(e, p, &flush),
            }
        }
        give_back(e, p, flush);
    }

    /// Flushes like a release. EU pushes update messages immediately
    /// (`2u`); EI piggybacks its invalidations on the barrier traffic and
    /// pays only `2v` to resolve multiple concurrent invalidators of one
    /// page (Table 1).
    fn barrier_arrive(e: &Engine<Self>, p: ProcId, barrier: BarrierId, master: ProcId) {
        let mut flush = take_epoch_flush(e, p);
        let mut piggyback_pages = 0usize;
        match e.policy() {
            Policy::Update => push_updates(
                e,
                p,
                &flush,
                MsgKind::BarrierUpdate,
                MsgKind::BarrierUpdateAck,
            ),
            Policy::Invalidate => {
                piggyback_pages = flush.len();
                // The barrier set refused an unknown id before this ran.
                e.protocol().epoch_mods.lock()[barrier.index()].extend(flush.drain(..).map(
                    |Flushed { page, diff, .. }| EpochMod {
                        writer: p,
                        page,
                        diff,
                    },
                ));
            }
        }
        give_back(e, p, flush);
        if p != master {
            let payload = BARRIER_ID_BYTES + invalidation_bytes(piggyback_pages);
            e.net().send(p, master, MsgKind::BarrierArrival, payload);
        }
    }

    /// EI: resolve multiple invalidators per page (the `2v` term),
    /// invalidate all other cachers (piggybacked, free), and send exit
    /// messages carrying the aggregated notices.
    fn barrier_complete(e: &Engine<Self>, barrier: BarrierId, master: ProcId) {
        let n = e.params().n_procs;
        let dir = &e.protocol().dir;
        let mut mods = std::mem::take(&mut e.protocol().epoch_mods.lock()[barrier.index()]);
        // Pages ascending, writers ascending within a page. Each processor
        // arrives once per episode, so no two modifications tie.
        mods.sort_unstable_by_key(|m| (m.page, m.writer));
        let mut total_pages = 0;
        for writers in mods.chunk_by(|x, y| x.page == y.page) {
            total_pages += 1;
            let g = writers[0].page;
            // The winner must hold the *authoritative* copy. That is the
            // directory owner — the page's last flusher — whenever its
            // copy is still valid: a release inside this episode already
            // reconciled concurrent modifications into the releaser's
            // copy (via writebacks) and invalidated the buffered writers,
            // so picking a buffered writer would resurrect a stale copy
            // and silently drop the releaser's writes. (Found by the
            // recorded-history checker: a processor lost its own
            // barrier-published write after flushing it at a release.)
            // When no flusher survives with a valid copy — the pure
            // barrier-phase case — any buffered writer's copy is previous
            // content plus its own writes, and the highest-numbered one
            // wins as before.
            let winner = {
                let owner = dir.lock()[g.index()].owner;
                if e.page_valid(owner, g) {
                    owner
                } else {
                    writers.last().expect("a page has a writer").writer
                }
            };
            for m in writers.iter().filter(|m| m.writer != winner) {
                // Excess invalidator: its modifications merge into the
                // winner's copy with one round trip.
                let payload = m.diff.encoded_size() as u64;
                e.net()
                    .send(m.writer, winner, MsgKind::BarrierResolve, payload);
                e.net()
                    .send(winner, m.writer, MsgKind::BarrierResolveAck, 0);
                let mut winner_shard = e.shard(winner);
                let copy = winner_shard.pages[g.index()]
                    .copy
                    .as_mut()
                    .expect("winner holds a copy");
                m.diff.apply_to(copy);
                bump(&e.tally().excess_invalidators, 1);
            }
            // Everyone but the winner drops the page (notices piggybacked
            // on the barrier messages — no extra traffic).
            let mut dir = dir.lock();
            for d in procs_in(dir[g.index()].copyset & !bit(winner)) {
                e.shard(d).pages[g.index()].valid = false;
                bump(&e.tally().pages_invalidated, 1);
            }
            dir[g.index()] = DirEntry {
                copyset: bit(winner),
                owner: winner,
            };
        }
        let payload = BARRIER_ID_BYTES + invalidation_bytes(total_pages);
        for r in ProcId::all(n).filter(|&r| r != master) {
            e.net().send(master, r, MsgKind::BarrierExit, payload);
        }
        // The episode's diffs go back to their writers, and the emptied
        // buffer to the barrier.
        for m in mods.drain(..) {
            e.shard(m.writer).ext.spare_diffs.push(m.diff);
        }
        e.protocol().epoch_mods.lock()[barrier.index()] = mods;
        bump(&e.tally().barrier_episodes, 1);
    }

    /// Directory miss: two messages when the home has a valid copy, three
    /// when the request is forwarded to the owner (§3). No directory lock
    /// is held across the message charges; the page's gate keeps the
    /// entry stable meanwhile.
    fn resolve_miss(e: &Engine<Self>, p: ProcId, page: PageId) {
        let gi = page.index();
        let home = e.page_home(page);
        let page_size = e.space().page_size();
        let dir = &e.protocol().dir;
        let entry = dir.lock()[gi];
        if entry.copyset & bit(p) != 0 {
            // Initial home copy: materialize the zero page locally.
            let mut shard = e.shard(p);
            shard.pages[gi].copy_mut(page_size);
            shard.pages[gi].valid = true;
            return;
        }
        let home_has = entry.copyset & bit(home) != 0;
        let source = if home_has { home } else { entry.owner };
        debug_assert_ne!(source, p, "a missing processor cannot be the source");

        // The source's *committed* contents (the home's initial copy is
        // zeros): a dirty source's unflushed epoch writes must not leak to
        // a cold miss under false sharing before the release-time flush
        // makes them visible everywhere. They refill the stale buffer the
        // frame holds, if any, taken out first because no path holds two
        // shard locks.
        let stale = e.shard(p).pages[gi].copy.take();
        let content = match (stale, e.shard(source).pages[gi].committed()) {
            (Some(mut buf), Some(committed)) => {
                buf.write(0, committed.as_bytes());
                buf
            }
            (Some(mut buf), None) => {
                buf.as_bytes_mut().fill(0);
                buf
            }
            (None, Some(committed)) => committed.clone(),
            (None, None) => PageBuf::zeroed(page_size),
        };
        let page_bytes = page_size.bytes() as u64;
        if p == home || home_has {
            // The home answers itself, or — missing its own page — asks
            // the owner directly. (`p == home && home_has` cannot happen:
            // its copyset bit would be set.)
            e.net().round_trip(
                p,
                source,
                MsgKind::MissRequest,
                PAGE_ID_BYTES,
                MsgKind::MissReply,
                page_bytes,
            );
            bump(&e.tally().misses_2hop, 1);
        } else {
            e.net().send(p, home, MsgKind::MissRequest, PAGE_ID_BYTES);
            e.net()
                .send(home, source, MsgKind::MissForward, PAGE_ID_BYTES);
            e.net().send(source, p, MsgKind::MissReply, page_bytes);
            bump(&e.tally().misses_3hop, 1);
        }
        e.run_fetch_hook(p, page);
        {
            let mut shard = e.shard(p);
            shard.pages[gi].copy = Some(content);
            shard.pages[gi].valid = true;
        }
        dir.lock()[gi].copyset |= bit(p);
    }
}

/// Ends `p`'s current epoch: diffs every dirty page against its twin,
/// into `p`'s flush list and recycled diff buffers, and transfers the
/// pages' ownership to `p`, reading their other cachers under the same
/// directory lock. Callers hold the dirty pages' gates, and hand the list
/// to [`give_back`] once it is sent.
fn take_epoch_flush<S: Sharing>(e: &Engine<Eager<S>>, p: ProcId) -> Vec<Flushed> {
    let mut flush = {
        let mut shard = e.shard(p);
        let Shard {
            pages,
            dirty,
            spare_twins,
            ext,
            ..
        } = &mut *shard;
        let mut flush = mem::take(&mut ext.flush);
        // Drained, not taken: the list keeps its allocation for the next
        // epoch's first write, as the twins' buffers do.
        for g in dirty.drain(..) {
            let mut diff = ext.spare_diffs.pop().unwrap_or_default();
            // A twin consumed by a concurrent invalidator's writeback
            // leaves the dirty list together with it (under this shard's
            // lock), but skipping an already-written-back page is the
            // right recovery either way.
            let closed = pages[g.index()].close_twin(spare_twins, |twin, copy, written| {
                diff.refill(twin, copy, written)
            });
            if closed.is_some() && !diff.is_empty() {
                flush.push(Flushed {
                    page: g,
                    diff,
                    dests: 0,
                });
            } else {
                ext.spare_diffs.push(diff);
            }
        }
        flush
    };
    if !flush.is_empty() {
        let mut dir = e.protocol().dir.lock();
        for f in &mut flush {
            let entry = &mut dir[f.page.index()];
            entry.owner = p;
            f.dests = entry.copyset & !bit(p);
        }
        bump(&e.tally().flushes, 1);
    }
    flush
}

/// Returns a sent flush to `p`'s shard: its diffs' buffers to the spare
/// list, and the emptied list itself.
fn give_back<S: Sharing>(e: &Engine<Eager<S>>, p: ProcId, mut flush: Vec<Flushed>) {
    let mut shard = e.shard(p);
    let ext = &mut shard.ext;
    ext.spare_diffs.extend(flush.drain(..).map(|f| f.diff));
    ext.flush = flush;
}

/// Every destination of a flush, lowest first.
fn dests(flush: &[Flushed]) -> impl Iterator<Item = ProcId> {
    procs_in(flush.iter().fold(0, |all, f| all | f.dests))
}

/// The flushed pages `dest` caches, in flush order.
fn sent_to(flush: &[Flushed], dest: ProcId) -> impl Iterator<Item = &Flushed> {
    flush.iter().filter(move |f| f.dests & bit(dest) != 0)
}

/// EU: one update message per destination carrying the diffs of every
/// modified page that destination caches, plus an ack each.
fn push_updates<S: Sharing>(
    e: &Engine<Eager<S>>,
    p: ProcId,
    flush: &[Flushed],
    update_kind: MsgKind,
    ack_kind: MsgKind,
) {
    for dest in dests(flush) {
        let payload: u64 = sent_to(flush, dest)
            .map(|f| f.diff.encoded_size() as u64)
            .sum();
        e.net().send(p, dest, update_kind, payload);
        {
            let mut dest_shard = e.shard(dest);
            for f in sent_to(flush, dest) {
                let entry = &mut dest_shard.pages[f.page.index()];
                entry.apply(&f.diff, e.space().page_size());
                entry.valid = true;
            }
        }
        e.net().send(dest, p, ack_kind, 0);
        bump(&e.tally().updates_sent, 1);
    }
}

/// EI at a release: write notices to every other cacher; cachers drop
/// their copies (writing back their own concurrent modifications first),
/// leaving the releaser the only valid copy.
fn push_invalidations<S: Sharing>(e: &Engine<Eager<S>>, p: ProcId, flush: &[Flushed]) {
    for dest in dests(flush) {
        let payload = invalidation_bytes(sent_to(flush, dest).count());
        e.net().send(p, dest, MsgKind::ReleaseInvalidate, payload);
        bump(&e.tally().invalidations_sent, 1);
        // Invalidate at the destination, collecting writebacks from
        // concurrent writers (false sharing); never hold two shard
        // locks at once — the writebacks apply to the releaser after
        // the destination's shard is dropped.
        let mut writebacks: Vec<(PageId, Diff)> = Vec::new();
        {
            let mut guard = e.shard(dest);
            let dest_shard = &mut *guard;
            for &Flushed { page: g, .. } in sent_to(flush, dest) {
                let entry = &mut dest_shard.pages[g.index()];
                entry.valid = false;
                // A destination that wrote the page concurrently: its
                // modifications ride back to the releaser before the
                // copy is dropped.
                let wb = entry.close_twin(&mut dest_shard.spare_twins, |twin, copy, written| {
                    Diff::between_in(twin, copy, written)
                });
                if let Some(wb) = wb {
                    dest_shard.dirty.retain(|&d| d != g);
                    if !wb.is_empty() {
                        writebacks.push((g, wb));
                    }
                }
            }
        }
        for (g, wb) in &writebacks {
            e.net()
                .send(dest, p, MsgKind::WritebackReply, wb.encoded_size() as u64);
            bump(&e.tally().writebacks, 1);
            let mut releaser = e.shard(p);
            let copy = releaser.pages[g.index()]
                .copy
                .as_mut()
                .expect("releaser has the page");
            wb.apply_to(copy);
        }
        {
            let mut dir = e.protocol().dir.lock();
            for f in sent_to(flush, dest) {
                dir[f.page.index()].copyset &= !bit(dest);
                bump(&e.tally().pages_invalidated, 1);
            }
        }
        e.net().send(dest, p, MsgKind::ReleaseAck, 0);
    }
    let mut dir = e.protocol().dir.lock();
    for f in flush {
        // The releaser keeps the only valid copy.
        dir[f.page.index()].copyset |= bit(p);
    }
}
