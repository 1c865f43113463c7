use std::mem;

use lrc_core::{ConfigError, Engine, EngineCore, Policy, Protocol, Shard};
use lrc_pagemem::{Diff, PageBuf, PageId};
use lrc_simnet::{invalidation_bytes, MsgKind, BARRIER_ID_BYTES, LOCK_ID_BYTES, PAGE_ID_BYTES};
use lrc_sync::{AcquirePath, BarrierId};
use lrc_vclock::ProcId;

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
/// A miss reads the directory twice. Its first half decides the route
/// (two or three hops) and charges it; its second half, after the fetch,
/// copies the page from whoever holds it *then* and joins the copyset in
/// the same step. A release that flushes the page while the fetch is in
/// flight therefore either finds the missing processor in the copyset
/// and updates or invalidates it, or happened before the copy, which
/// then carries the flushed writes.
#[derive(Debug)]
pub struct Eager {
    dir: Vec<DirEntry>,
    /// EI: modifications buffered for the current episode, indexed by
    /// barrier.
    epoch_mods: Vec<Vec<EpochMod>>,
}

/// The eager release consistency engine (EI under [`Policy::Invalidate`],
/// EU under [`Policy::Update`]). Data-full and metered like
/// [`lrc_core::LrcEngine`], so lazy and eager runs are directly
/// comparable. See the [crate docs](crate) for an example.
pub type EagerEngine = Engine<Eager>;

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

impl Eager {
    /// Processors currently caching `page` (the initial home copy counts,
    /// even before materialization).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn copyset(&self, page: PageId) -> Vec<ProcId> {
        let mask = self.dir[page.index()].copyset;
        (0..u64::BITS as u16)
            .map(ProcId::new)
            .filter(|&p| mask & bit(p) != 0)
            .collect()
    }
}

impl Protocol for Eager {
    type ShardExt = EagerShard;
    type FrameExt = ();

    fn new(core: &EngineCore) -> Result<Self, ConfigError> {
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
            dir,
            epoch_mods: vec![Vec::new(); core.params().n_barriers],
        })
    }

    fn new_ext(_core: &EngineCore, _p: ProcId) -> EagerShard {
        EagerShard::default()
    }

    /// Find-and-transfer messages only: eager RC performs **no
    /// consistency actions at acquires** (§3).
    fn on_acquire(e: &mut Engine<Self>, _p: ProcId, path: &AcquirePath) {
        let hops = [
            (path.request, MsgKind::LockRequest),
            (path.forward, MsgKind::LockForward),
            (path.grant, MsgKind::LockGrant),
        ];
        for (hop, kind) in hops {
            if let Some((src, dst)) = hop {
                e.parts().0.send(src, dst, kind, LOCK_ID_BYTES);
            }
        }
    }

    /// Propagates every modification of the epoch to all other cachers
    /// (updates under EU, invalidations under EI), one merged message per
    /// destination, and blocks for their acknowledgments — Table 1's `2c`.
    fn on_release(e: &mut Engine<Self>, p: ProcId) {
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
    fn barrier_arrive(e: &mut Engine<Self>, p: ProcId, barrier: BarrierId, master: ProcId) {
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
                let (_, _, _, eager) = e.parts();
                eager.epoch_mods[barrier.index()].extend(flush.drain(..).map(
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
            e.parts()
                .0
                .send(p, master, MsgKind::BarrierArrival, payload);
        }
    }

    /// EI: resolve multiple invalidators per page (the `2v` term),
    /// invalidate all other cachers (piggybacked, free), and send exit
    /// messages carrying the aggregated notices.
    fn barrier_complete(e: &mut Engine<Self>, barrier: BarrierId, master: ProcId) {
        let n = e.params().n_procs;
        let (net, counters, shards, eager) = e.parts();
        let mut mods = std::mem::take(&mut eager.epoch_mods[barrier.index()]);
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
                let owner = eager.dir[g.index()].owner;
                if shards[owner.index()].pages[g.index()].valid {
                    owner
                } else {
                    writers.last().expect("a page has a writer").writer
                }
            };
            for m in writers.iter().filter(|m| m.writer != winner) {
                // Excess invalidator: its modifications merge into the
                // winner's copy with one round trip.
                let payload = m.diff.encoded_size() as u64;
                net.send(m.writer, winner, MsgKind::BarrierResolve, payload);
                net.send(winner, m.writer, MsgKind::BarrierResolveAck, 0);
                let copy = shards[winner.index()].pages[g.index()]
                    .copy
                    .as_mut()
                    .expect("winner holds a copy");
                m.diff.apply_to(copy);
                counters.excess_invalidators += 1;
            }
            // Everyone but the winner drops the page (notices piggybacked
            // on the barrier messages — no extra traffic).
            let entry = &mut eager.dir[g.index()];
            for d in procs_in(entry.copyset & !bit(winner)) {
                shards[d.index()].pages[g.index()].valid = false;
                counters.pages_invalidated += 1;
            }
            *entry = DirEntry {
                copyset: bit(winner),
                owner: winner,
            };
        }
        let payload = BARRIER_ID_BYTES + invalidation_bytes(total_pages);
        for r in ProcId::all(n).filter(|&r| r != master) {
            net.send(master, r, MsgKind::BarrierExit, payload);
        }
        // The episode's diffs go back to their writers, and the emptied
        // buffer to the barrier.
        for m in mods.drain(..) {
            shards[m.writer.index()].ext.spare_diffs.push(m.diff);
        }
        eager.epoch_mods[barrier.index()] = mods;
        counters.barrier_episodes += 1;
    }

    /// Directory miss, first half: two messages when the home has a valid
    /// copy, three when the request is forwarded to the owner (§3). A
    /// processor in the copyset without a copy is the home before its
    /// first access, and materializes the zero page with nothing to
    /// fetch.
    fn begin_miss(e: &mut Engine<Self>, p: ProcId, page: PageId) -> Option<u64> {
        let gi = page.index();
        let home = e.page_home(page);
        let page_size = e.space().page_size();
        let (net, counters, shards, eager) = e.parts();
        let entry = eager.dir[gi];
        if entry.copyset & bit(p) != 0 {
            // Initial home copy: materialize the zero page locally.
            let frame = &mut shards[p.index()].pages[gi];
            frame.copy_mut(page_size);
            frame.valid = true;
            return None;
        }
        let home_has = entry.copyset & bit(home) != 0;
        let source = if home_has { home } else { entry.owner };
        debug_assert_ne!(source, p, "a missing processor cannot be the source");
        let page_bytes = page_size.bytes() as u64;
        if p == home || home_has {
            // The home answers itself, or — missing its own page — asks
            // the owner directly. (`p == home && home_has` cannot happen:
            // its copyset bit would be set.)
            net.round_trip(
                p,
                source,
                MsgKind::MissRequest,
                PAGE_ID_BYTES,
                MsgKind::MissReply,
                page_bytes,
            );
            counters.misses_2hop += 1;
        } else {
            net.send(p, home, MsgKind::MissRequest, PAGE_ID_BYTES);
            net.send(home, source, MsgKind::MissForward, PAGE_ID_BYTES);
            net.send(source, p, MsgKind::MissReply, page_bytes);
            counters.misses_3hop += 1;
        }
        Some(0)
    }

    /// Directory miss, second half: copies the page from the processor
    /// the directory names now and joins its copyset.
    fn finish_miss(e: &mut Engine<Self>, p: ProcId, page: PageId, _era: u64) {
        let gi = page.index();
        let home = e.page_home(page);
        let page_size = e.space().page_size();
        let (_, _, shards, eager) = e.parts();
        let entry = &mut eager.dir[gi];
        let source = if entry.copyset & bit(home) != 0 {
            home
        } else {
            entry.owner
        };
        // The source's *committed* contents (the home's initial copy is
        // zeros): a dirty source's unflushed epoch writes must not leak to
        // a cold miss under false sharing before the release-time flush
        // makes them visible everywhere. They refill the stale buffer the
        // frame holds, if any.
        let stale = shards[p.index()].pages[gi].copy.take();
        let content = match (stale, shards[source.index()].pages[gi].committed()) {
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
        let frame = &mut shards[p.index()].pages[gi];
        frame.copy = Some(content);
        frame.valid = true;
        entry.copyset |= bit(p);
    }
}

/// Ends `p`'s current epoch: diffs every dirty page against its twin,
/// into `p`'s flush list and recycled diff buffers, and transfers the
/// pages' ownership to `p`, reading their other cachers from the same
/// directory entries. Callers hand the list to [`give_back`] once it is
/// sent.
fn take_epoch_flush(e: &mut Engine<Eager>, p: ProcId) -> Vec<Flushed> {
    let (_, counters, shards, eager) = e.parts();
    let Shard {
        pages,
        dirty,
        spare_twins,
        ext,
    } = &mut shards[p.index()];
    let mut flush = mem::take(&mut ext.flush);
    // Drained, not taken: the list keeps its allocation for the next
    // epoch's first write, as the twins' buffers do.
    for g in dirty.drain(..) {
        let mut diff = ext.spare_diffs.pop().unwrap_or_default();
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
    if !flush.is_empty() {
        for f in &mut flush {
            let entry = &mut eager.dir[f.page.index()];
            entry.owner = p;
            f.dests = entry.copyset & !bit(p);
        }
        counters.flushes += 1;
    }
    flush
}

/// Returns a sent flush to `p`'s shard: its diffs' buffers to the spare
/// list, and the emptied list itself.
fn give_back(e: &mut Engine<Eager>, p: ProcId, mut flush: Vec<Flushed>) {
    let (_, _, shards, _) = e.parts();
    let ext = &mut shards[p.index()].ext;
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
fn push_updates(
    e: &mut Engine<Eager>,
    p: ProcId,
    flush: &[Flushed],
    update_kind: MsgKind,
    ack_kind: MsgKind,
) {
    let page_size = e.space().page_size();
    let (net, counters, shards, _) = e.parts();
    for dest in dests(flush) {
        let payload: u64 = sent_to(flush, dest)
            .map(|f| f.diff.encoded_size() as u64)
            .sum();
        net.send(p, dest, update_kind, payload);
        let dest_shard = &mut shards[dest.index()];
        for f in sent_to(flush, dest) {
            let entry = &mut dest_shard.pages[f.page.index()];
            entry.apply(&f.diff, page_size);
            entry.valid = true;
        }
        net.send(dest, p, ack_kind, 0);
        counters.updates_sent += 1;
    }
}

/// EI at a release: write notices to every other cacher; cachers drop
/// their copies (writing back their own concurrent modifications first),
/// leaving the releaser the only valid copy.
fn push_invalidations(e: &mut Engine<Eager>, p: ProcId, flush: &[Flushed]) {
    let (net, counters, shards, eager) = e.parts();
    for dest in dests(flush) {
        let payload = invalidation_bytes(sent_to(flush, dest).count());
        net.send(p, dest, MsgKind::ReleaseInvalidate, payload);
        counters.invalidations_sent += 1;
        for &Flushed { page: g, .. } in sent_to(flush, dest) {
            let dest_shard = &mut shards[dest.index()];
            let entry = &mut dest_shard.pages[g.index()];
            entry.valid = false;
            // A destination that wrote the page concurrently (false
            // sharing): its modifications ride back to the releaser
            // before the copy is dropped.
            let wb = entry.close_twin(&mut dest_shard.spare_twins, |twin, copy, written| {
                Diff::between_in(twin, copy, written)
            });
            if let Some(wb) = wb {
                dest_shard.dirty.retain(|&d| d != g);
                if !wb.is_empty() {
                    net.send(dest, p, MsgKind::WritebackReply, wb.encoded_size() as u64);
                    counters.writebacks += 1;
                    let copy = shards[p.index()].pages[g.index()]
                        .copy
                        .as_mut()
                        .expect("releaser has the page");
                    wb.apply_to(copy);
                }
            }
        }
        for f in sent_to(flush, dest) {
            eager.dir[f.page.index()].copyset &= !bit(dest);
            counters.pages_invalidated += 1;
        }
        net.send(dest, p, MsgKind::ReleaseAck, 0);
    }
    for f in flush {
        // The releaser keeps the only valid copy.
        eager.dir[f.page.index()].copyset |= bit(p);
    }
}
