use std::collections::HashMap;

use lrc_core::{bump, CheckpointError, ConfigError, Engine, EngineCore, Frame, Policy, Protocol};
use lrc_pagemem::{Diff, PageBuf, PageId};
use lrc_simnet::{invalidation_bytes, MsgKind, BARRIER_ID_BYTES, LOCK_ID_BYTES, PAGE_ID_BYTES};
use lrc_sync::{AcquirePath, BarrierId};
use lrc_vclock::ProcId;
use parking_lot::lockdep::classes;
use parking_lot::Mutex;

use crate::{EagerCheckpoint, EagerFrame};

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

/// The eager release consistency protocol (Munin-style write-shared):
/// modifications propagate to **all cachers at release time**, access
/// misses go through a directory, and acquires carry no consistency
/// information. This is its shared state — the page directory and EI's
/// per-episode modification buffer; per-processor state is just the
/// shared frames.
///
/// A release's (or barrier arrival's) flush runs inside the gates of
/// every page it flushes ([`Protocol::flush_set`]), so flushes of disjoint
/// page sets overlap while same-page flush/flush and flush/miss pairs
/// serialize. The invalidation-writeback dance for a page is therefore
/// atomic: a concurrent writer either flushes before the invalidator
/// takes the page's gate or contributes its epoch's writes as a writeback
/// (its twin is consumed and the page leaves its dirty set under the
/// destination's shard lock). A directory entry changes only under its
/// page's gate. The directory mutex may be held while taking a shard
/// mutex, never the reverse.
#[derive(Debug)]
pub struct Eager {
    dir: Mutex<Vec<DirEntry>>,
    /// EI: modifications buffered per barrier episode (keyed by barrier).
    epoch_mods: Mutex<HashMap<u32, Vec<EpochMod>>>,
}

/// The eager release consistency engine (EI under [`Policy::Invalidate`],
/// EU under [`Policy::Update`]). Data-full and metered like
/// [`lrc_core::LrcEngine`], so lazy and eager runs are directly
/// comparable. See the [crate docs](crate) for an example.
pub type EagerEngine = Engine<Eager>;

fn bit(p: ProcId) -> u64 {
    1u64 << p.index()
}

impl Eager {
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

impl Protocol for Eager {
    type ShardExt = ();
    type FrameExt = ();
    type Checkpoint = EagerCheckpoint;

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
            dir: Mutex::new_in(dir, classes::EAGER_DIRECTORY),
            epoch_mods: Mutex::new_in(HashMap::new(), classes::EAGER_EPOCH_MODS),
        })
    }

    fn new_ext(_core: &EngineCore, _p: ProcId) {}

    /// Find-and-transfer messages only: eager RC performs **no
    /// consistency actions at acquires** (§3).
    fn on_acquire(e: &EagerEngine, _p: ProcId, path: &AcquirePath) {
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

    /// The pages `p` has dirtied this epoch.
    fn flush_set(e: &EagerEngine, p: ProcId) -> Vec<PageId> {
        let mut pages = e.shard(p).dirty.clone();
        pages.sort();
        pages.dedup();
        pages
    }

    /// Propagates every modification of the epoch to all other cachers
    /// (updates under EU, invalidations under EI), one merged message per
    /// destination, and blocks for their acknowledgments — Table 1's `2c`.
    fn on_release(e: &EagerEngine, p: ProcId) {
        let diffs = take_epoch_diffs(e, p);
        if diffs.is_empty() {
            return;
        }
        match e.policy() {
            Policy::Update => {
                push_updates(e, p, &diffs, MsgKind::ReleaseUpdate, MsgKind::ReleaseAck)
            }
            Policy::Invalidate => push_invalidations(e, p, &diffs),
        }
    }

    /// Flushes like a release. EU pushes update messages immediately
    /// (`2u`); EI piggybacks its invalidations on the barrier traffic and
    /// pays only `2v` to resolve multiple concurrent invalidators of one
    /// page (Table 1).
    fn barrier_arrive(e: &EagerEngine, p: ProcId, barrier: BarrierId, master: ProcId) {
        let diffs = take_epoch_diffs(e, p);
        let mut piggyback_pages = 0usize;
        match e.policy() {
            Policy::Update => push_updates(
                e,
                p,
                &diffs,
                MsgKind::BarrierUpdate,
                MsgKind::BarrierUpdateAck,
            ),
            Policy::Invalidate => {
                piggyback_pages = diffs.len();
                let mut epoch_mods = e.protocol().epoch_mods.lock();
                let buffer = epoch_mods.entry(barrier.raw()).or_default();
                for (page, diff) in diffs {
                    buffer.push(EpochMod {
                        writer: p,
                        page,
                        diff,
                    });
                }
            }
        }
        if p != master {
            let payload = BARRIER_ID_BYTES + invalidation_bytes(piggyback_pages);
            e.net().send(p, master, MsgKind::BarrierArrival, payload);
        }
    }

    /// EI: resolve multiple invalidators per page (the `2v` term),
    /// invalidate all other cachers (piggybacked, free), and send exit
    /// messages carrying the aggregated notices.
    fn barrier_complete(e: &EagerEngine, barrier: BarrierId, master: ProcId) {
        let n = e.params().n_procs;
        let dir = &e.protocol().dir;
        let mods = e
            .protocol()
            .epoch_mods
            .lock()
            .remove(&barrier.raw())
            .unwrap_or_default();
        let mut by_page: HashMap<PageId, Vec<(ProcId, Diff)>> = HashMap::new();
        for m in mods {
            by_page.entry(m.page).or_default().push((m.writer, m.diff));
        }
        let total_pages = by_page.len();
        let mut pages: Vec<_> = by_page.into_iter().collect();
        pages.sort_by_key(|(g, _)| *g);
        for (g, mut writers) in pages {
            writers.sort_by_key(|(w, _)| *w);
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
                    writers.last().expect("page has at least one writer").0
                }
            };
            for (w, diff) in writers.iter().filter(|(w, _)| *w != winner) {
                // Excess invalidator: its modifications merge into the
                // winner's copy with one round trip.
                let payload = diff.encoded_size() as u64;
                e.net().send(*w, winner, MsgKind::BarrierResolve, payload);
                e.net().send(winner, *w, MsgKind::BarrierResolveAck, 0);
                let mut winner_shard = e.shard(winner);
                let copy = winner_shard.pages[g.index()]
                    .copy
                    .as_mut()
                    .expect("winner holds a copy");
                diff.apply_to(copy);
                bump(&e.tally().excess_invalidators, 1);
            }
            // Everyone but the winner drops the page (notices piggybacked
            // on the barrier messages — no extra traffic).
            let mut dir = dir.lock();
            let mask = dir[g.index()].copyset;
            for d in ProcId::all(n).filter(|&d| d != winner && mask & bit(d) != 0) {
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
        bump(&e.tally().barrier_episodes, 1);
    }

    /// Directory miss: two messages when the home has a valid copy, three
    /// when the request is forwarded to the owner (§3). No directory lock
    /// is held across the message charges; the page's gate keeps the
    /// entry stable meanwhile.
    fn resolve_miss(e: &EagerEngine, p: ProcId, page: PageId) {
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
        // makes them visible everywhere.
        let content = e.shard(source).pages[gi]
            .committed()
            .cloned()
            .unwrap_or_else(|| PageBuf::zeroed(page_size));
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

    /// The directory plus each processor's committed frames.
    fn checkpoint(e: &EagerEngine) -> EagerCheckpoint {
        let n = e.params().n_procs;
        let dir = e.protocol().dir.lock();
        let dir = dir.iter().map(|d| (d.copyset, d.owner)).collect();
        let procs = ProcId::all(n)
            .map(|p| {
                let shard = e.shard(p);
                let frames = shard.pages.iter().enumerate();
                frames
                    .filter(|(_, entry)| entry.copy.is_some() || entry.valid)
                    .map(|(gi, entry)| EagerFrame {
                        page: PageId::new(gi as u32),
                        contents: entry.committed().map(|c| c.as_bytes().to_vec()),
                        valid: entry.valid,
                    })
                    .collect()
            })
            .collect();
        EagerCheckpoint {
            n_procs: n,
            page_bytes: e.space().page_size().bytes(),
            n_pages: e.space().n_pages() as usize,
            dir,
            procs,
        }
    }

    /// Directory and frames are replaced.
    fn restore(e: &EagerEngine, ckpt: &EagerCheckpoint) -> Result<(), CheckpointError> {
        let page_size = e.space().page_size();
        let shape = (
            e.params().n_procs,
            page_size.bytes(),
            e.space().n_pages() as usize,
        );
        if (ckpt.n_procs, ckpt.page_bytes, ckpt.n_pages) != shape
            || ckpt.dir.len() != shape.2
            || ckpt.procs.len() != shape.0
        {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint is {}×{}B×{} pages, engine is {}×{}B×{}",
                ckpt.n_procs, ckpt.page_bytes, ckpt.n_pages, shape.0, shape.1, shape.2
            )));
        }
        let frames = ckpt.procs.iter().flatten();
        if frames
            .filter_map(|f| f.contents.as_ref())
            .any(|c| c.len() != shape.1)
        {
            return Err(CheckpointError::Incompatible(
                "frame contents are not page-sized".into(),
            ));
        }
        *e.protocol().dir.lock() = ckpt
            .dir
            .iter()
            .map(|&(copyset, owner)| DirEntry { copyset, owner })
            .collect();
        for p in ProcId::all(shape.0) {
            let mut shard = e.shard(p);
            shard.dirty.clear();
            shard.pages.fill_with(Frame::default);
            for frame in &ckpt.procs[p.index()] {
                shard.pages[frame.page.index()].install(
                    frame.contents.as_deref(),
                    frame.valid,
                    page_size,
                );
            }
        }
        Ok(())
    }
}

/// Ends `p`'s current epoch: diffs all dirty pages against their twins
/// and transfers ownership to `p`. Callers hold the dirty pages' gates.
fn take_epoch_diffs(e: &EagerEngine, p: ProcId) -> Vec<(PageId, Diff)> {
    let mut out = Vec::new();
    {
        let mut shard = e.shard(p);
        let dirtied = std::mem::take(&mut shard.dirty);
        out.reserve(dirtied.len());
        for g in dirtied {
            let entry = &mut shard.pages[g.index()];
            // Defensive: a twin consumed by a concurrent invalidator's
            // writeback leaves the dirty list together with it (under
            // this shard's lock), but skipping an already-written-back
            // page is the right recovery either way.
            let Some(twin) = entry.twin.take() else {
                continue;
            };
            let copy = entry.copy.as_ref().expect("dirty page has a copy");
            let diff = Diff::between(&twin, copy);
            if !diff.is_empty() {
                out.push((g, diff));
            }
        }
    }
    if !out.is_empty() {
        let mut dir = e.protocol().dir.lock();
        for (g, _) in &out {
            dir[g.index()].owner = p;
        }
        bump(&e.tally().flushes, 1);
    }
    out
}

/// Destinations (other cachers) per page, merged per destination.
fn destinations(e: &EagerEngine, p: ProcId, diffs: &[(PageId, Diff)]) -> Vec<(ProcId, Vec<usize>)> {
    let dir = e.protocol().dir.lock();
    let mut per_dest: HashMap<ProcId, Vec<usize>> = HashMap::new();
    for (i, (g, _)) in diffs.iter().enumerate() {
        let mask = dir[g.index()].copyset & !bit(p);
        for d in ProcId::all(e.params().n_procs) {
            if mask & bit(d) != 0 {
                per_dest.entry(d).or_default().push(i);
            }
        }
    }
    let mut out: Vec<_> = per_dest.into_iter().collect();
    out.sort_by_key(|(d, _)| *d);
    out
}

/// EU: one update message per destination carrying the diffs of every
/// modified page that destination caches, plus an ack each.
fn push_updates(
    e: &EagerEngine,
    p: ProcId,
    diffs: &[(PageId, Diff)],
    update_kind: MsgKind,
    ack_kind: MsgKind,
) {
    for (dest, indices) in destinations(e, p, diffs) {
        let payload: u64 = indices
            .iter()
            .map(|&i| diffs[i].1.encoded_size() as u64)
            .sum();
        e.net().send(p, dest, update_kind, payload);
        {
            let mut dest_shard = e.shard(dest);
            for &i in &indices {
                let (g, ref diff) = diffs[i];
                let entry = &mut dest_shard.pages[g.index()];
                diff.apply_to(entry.copy_mut(e.space().page_size()));
                if let Some(twin) = entry.twin.as_mut() {
                    diff.apply_to(twin);
                }
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
fn push_invalidations(e: &EagerEngine, p: ProcId, diffs: &[(PageId, Diff)]) {
    for (dest, indices) in destinations(e, p, diffs) {
        let payload = invalidation_bytes(indices.len());
        e.net().send(p, dest, MsgKind::ReleaseInvalidate, payload);
        bump(&e.tally().invalidations_sent, 1);
        // Invalidate at the destination, collecting writebacks from
        // concurrent writers (false sharing); never hold two shard
        // locks at once — the writebacks apply to the releaser after
        // the destination's shard is dropped.
        let mut writebacks: Vec<(PageId, Diff)> = Vec::new();
        {
            let mut dest_shard = e.shard(dest);
            for &i in &indices {
                let g = diffs[i].0;
                let entry = &mut dest_shard.pages[g.index()];
                entry.valid = false;
                // A destination that wrote the page concurrently: its
                // modifications ride back to the releaser before the
                // copy is dropped.
                if let Some(twin) = entry.twin.take() {
                    let copy = entry.copy.as_ref().expect("dirty page has a copy");
                    let wb = Diff::between(&twin, copy);
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
            for &i in &indices {
                dir[diffs[i].0.index()].copyset &= !bit(dest);
                bump(&e.tally().pages_invalidated, 1);
            }
        }
        e.net().send(dest, p, MsgKind::ReleaseAck, 0);
    }
    let mut dir = e.protocol().dir.lock();
    for (g, _) in diffs {
        // The releaser keeps the only valid copy.
        dir[g.index()].copyset |= bit(p);
    }
}
