//! Episode checkpoints of a running engine.
//!
//! A checkpoint captures everything a crashed processor needs to rejoin
//! without replaying the whole run: each processor's page frames (resident
//! contents, validity, unapplied write notices) and vector clock, plus the
//! shared interval store (stamps, diff payloads, possession masks) and the
//! garbage-collection owner table. Checkpoints are cut at synchronization
//! points — the engine captures committed page contents (the twin of a
//! dirty page), so an open interval's uncommitted writes are never in a
//! checkpoint, exactly as they would be lost in a real crash.
//!
//! Serialization reuses the protocol's wire codecs ([`VectorClock`],
//! [`IntervalId`], [`Diff`]) so checkpoints travel the same transports as
//! protocol messages. Between barrier episodes only a small suffix of the
//! state changes; [`EngineCheckpoint::delta_since`] captures exactly that
//! suffix and [`CheckpointDelta::apply_to`] replays it onto the base.

use std::error::Error;
use std::fmt;

use lrc_pagemem::{Diff, PageId};
use lrc_vclock::{IntervalId, ProcId, StampedInterval, VectorClock};

/// One exported interval of the store: its stamp plus one
/// `(page, diff, holder-mask)` row per page the interval modified.
pub type StoreEntry = (StampedInterval, Vec<(PageId, Diff, u64)>);

const MAGIC: &[u8; 4] = b"LRCK";
const DELTA_MAGIC: &[u8; 4] = b"LRCD";
const FORMAT: u16 = 1;

/// A checkpoint of one processor's frame of one page.
///
/// Only non-default frames are recorded: a page the processor never
/// touched (and was never noticed about) has no entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FrameCheckpoint {
    /// The page.
    pub page: PageId,
    /// Committed resident contents, if the processor has a copy. For a
    /// page dirty at capture time this is the *twin* — the pre-interval
    /// contents plus every applied diff, i.e. exactly the committed state.
    pub contents: Option<Vec<u8>>,
    /// Whether the copy reflected all known modifications.
    pub valid: bool,
    /// Noticed-but-unapplied intervals, in arrival order.
    pub pending: Vec<IntervalId>,
}

impl FrameCheckpoint {
    /// True if this frame carries no information (cold and unnoticed) —
    /// such frames are omitted from checkpoints and, in a delta, mean
    /// "reset this frame".
    pub fn is_default(&self) -> bool {
        self.contents.is_none() && !self.valid && self.pending.is_empty()
    }
}

/// One processor's checkpointed state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProcCheckpoint {
    /// The processor's vector clock (own entry = its open interval).
    pub clock: VectorClock,
    /// Non-default page frames, ascending by page.
    pub frames: Vec<FrameCheckpoint>,
}

/// A full checkpoint of the engine at a synchronization point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EngineCheckpoint {
    /// Number of processors.
    pub n_procs: usize,
    /// Page size in bytes.
    pub page_bytes: usize,
    /// Number of pages in the address space.
    pub n_pages: usize,
    /// Completed barrier episodes at capture time — the checkpoint's
    /// version; later checkpoints of the same run have larger values.
    pub episode: u64,
    /// The interval store's snapshot era at capture ([`crate::IntervalStore::version`]).
    /// A processor may rejoin from this checkpoint only while the live
    /// store is still in the same era — garbage collection discards the
    /// history the catch-up needs.
    pub store_era: u64,
    /// Garbage-collection owner per page (`None` where unassigned).
    pub owners: Vec<Option<ProcId>>,
    /// The interval store: stamps, diffs, and possession masks.
    pub store: Vec<StoreEntry>,
    /// Per-processor state, index = processor id.
    pub procs: Vec<ProcCheckpoint>,
}

/// The difference between two checkpoints of the same run — what changed
/// since `base_episode`, enough to rebuild the newer checkpoint from the
/// older one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckpointDelta {
    /// Episode of the checkpoint this delta applies to.
    pub base_episode: u64,
    /// Episode of the checkpoint this delta produces.
    pub episode: u64,
    /// Store era of the produced checkpoint.
    pub store_era: u64,
    /// If true, `store` is a full replacement (a garbage collection
    /// intervened, so the base's entries cannot be patched additively);
    /// otherwise `store` holds only entries absent from the base.
    pub store_replaced: bool,
    /// New (or, if `store_replaced`, all) store entries.
    pub store: Vec<StoreEntry>,
    /// Full replacement owner table of the produced checkpoint.
    pub owners: Vec<Option<ProcId>>,
    /// Per-processor: the new clock plus every frame that changed. A
    /// listed default frame means "reset" (the processor crashed and its
    /// frames were discarded).
    pub procs: Vec<ProcCheckpoint>,
}

/// Why a checkpoint could not be decoded, applied, or rejoined from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckpointError {
    /// The serialized bytes are malformed or truncated.
    Corrupt(String),
    /// The checkpoint does not fit its target (engine shape, delta base,
    /// or store era mismatch).
    Incompatible(String),
    /// The operation itself is not implemented for the target engine
    /// family (e.g. rejoin on an eager engine) — a property of the
    /// *engine*, not of the checkpoint, so it is distinct from
    /// [`CheckpointError::Incompatible`]: retrying with a better-matched
    /// checkpoint cannot succeed. Mirrors
    /// [`crate::ConfigError::LazyOnly`].
    Unsupported(String),
    /// The dead processor's rejoin lease expired: garbage collection
    /// advanced the store era past the checkpoint's, so the catch-up
    /// history this checkpoint needs is gone *by policy* (see
    /// [`EngineParams::death_lease_episodes`](crate::EngineParams)). Retrying
    /// with the same checkpoint cannot succeed — cold-join from the
    /// latest checkpoint cut after the collection instead.
    LeaseExpired(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::Incompatible(why) => write!(f, "incompatible checkpoint: {why}"),
            CheckpointError::Unsupported(why) => {
                write!(f, "unsupported checkpoint operation: {why}")
            }
            CheckpointError::LeaseExpired(why) => {
                write!(f, "rejoin lease expired: {why}")
            }
        }
    }
}

impl Error for CheckpointError {}

fn corrupt(why: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(why.into())
}

// ---------------------------------------------------------------------
// Binary codec. Little-endian throughout, matching the wire layer.

/// A bounds-checked cursor over serialized checkpoint bytes: every read
/// that would run past the end is [`CheckpointError::Corrupt`]. Shared by
/// every checkpoint format (`LRCK`, `LRCD`, and the eager `ERCK`).
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

#[allow(missing_docs)] // fixed-width little-endian reads
impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| corrupt(format!("truncated at byte {}", self.at)))?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("eight bytes")))
    }

    /// Refuses `n` items of at least `per_item` bytes each unless they can
    /// fit in the remaining bytes — rejects absurd counts before they turn
    /// into huge allocations.
    pub fn fits(&self, n: usize, per_item: usize) -> Result<(), CheckpointError> {
        let left = self.bytes.len() - self.at;
        if n.saturating_mul(per_item.max(1)) > left {
            return Err(corrupt(format!("count {n} exceeds remaining bytes")));
        }
        Ok(())
    }

    /// A `u32` count that must be plausible for `per_item`-byte items
    /// (see [`Reader::fits`]).
    pub fn count(&mut self, per_item: usize) -> Result<usize, CheckpointError> {
        let n = self.u32()? as usize;
        self.fits(n, per_item)?;
        Ok(n)
    }

    fn clock(&mut self, n_procs: usize) -> Result<VectorClock, CheckpointError> {
        let bytes = self.take(4 * n_procs)?;
        VectorClock::read_wire(bytes, n_procs).ok_or_else(|| corrupt("short vector clock"))
    }

    fn interval(&mut self) -> Result<IntervalId, CheckpointError> {
        let bytes = self.take(IntervalId::WIRE_BYTES)?;
        IntervalId::read_wire(bytes).ok_or_else(|| corrupt("short interval id"))
    }

    /// Refuses trailing bytes.
    pub fn done(&self) -> Result<(), CheckpointError> {
        if self.at != self.bytes.len() {
            return Err(corrupt(format!(
                "{} trailing bytes",
                self.bytes.len() - self.at
            )));
        }
        Ok(())
    }
}

/// Serializes the part of a frame every format shares: page id, flags
/// (bit 0 = resident, bit 1 = valid), and the page-sized contents of a
/// resident frame.
pub fn write_frame_head(
    page: PageId,
    contents: Option<&[u8]>,
    valid: bool,
    page_bytes: usize,
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(&page.raw().to_le_bytes());
    out.push(contents.is_some() as u8 | (valid as u8) << 1);
    if let Some(contents) = contents {
        assert_eq!(contents.len(), page_bytes, "frame contents are page-sized");
        out.extend_from_slice(contents);
    }
}

/// Deserializes what [`write_frame_head`] wrote: `(page, contents, valid)`.
pub fn read_frame_head(
    r: &mut Reader<'_>,
    page_bytes: usize,
    n_pages: usize,
) -> Result<(PageId, Option<Vec<u8>>, bool), CheckpointError> {
    let page = PageId::new(r.u32()?);
    if page.index() >= n_pages {
        return Err(corrupt(format!("frame page {page} out of range")));
    }
    let flags = r.u8()?;
    if flags & !3 != 0 {
        return Err(corrupt(format!("unknown frame flags {flags:#x}")));
    }
    let contents = if flags & 1 != 0 {
        Some(r.take(page_bytes)?.to_vec())
    } else {
        None
    };
    Ok((page, contents, flags & 2 != 0))
}

fn write_frame(frame: &FrameCheckpoint, page_bytes: usize, out: &mut Vec<u8>) {
    write_frame_head(
        frame.page,
        frame.contents.as_deref(),
        frame.valid,
        page_bytes,
        out,
    );
    out.extend_from_slice(&(frame.pending.len() as u32).to_le_bytes());
    for iv in &frame.pending {
        iv.write_wire(out);
    }
}

fn read_frame(
    r: &mut Reader<'_>,
    page_bytes: usize,
    n_pages: usize,
) -> Result<FrameCheckpoint, CheckpointError> {
    let (page, contents, valid) = read_frame_head(r, page_bytes, n_pages)?;
    let n_pending = r.count(IntervalId::WIRE_BYTES)?;
    let mut pending = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        pending.push(r.interval()?);
    }
    Ok(FrameCheckpoint {
        page,
        contents,
        valid,
        pending,
    })
}

fn write_store_entry(entry: &StoreEntry, out: &mut Vec<u8>) {
    let (stamp, diffs) = entry;
    stamp.id().write_wire(out);
    stamp.clock().write_wire(out);
    out.extend_from_slice(&(diffs.len() as u32).to_le_bytes());
    for (page, diff, mask) in diffs {
        out.extend_from_slice(&mask.to_le_bytes());
        // The diff codec embeds the page and a u32 stamp slot; the slot
        // carries the interval seq (redundant here, but keeps the frames
        // byte-identical to the ones the fetch paths ship).
        diff.write_wire(page.raw(), stamp.id().seq(), out);
    }
}

fn read_store_entry(
    r: &mut Reader<'_>,
    n_procs: usize,
    page_bytes: usize,
    n_pages: usize,
) -> Result<StoreEntry, CheckpointError> {
    let id = r.interval()?;
    if id.proc().index() >= n_procs {
        return Err(corrupt(format!("interval {id} names an unknown processor")));
    }
    let clock = r.clock(n_procs)?;
    if clock.get(id.proc()) != id.seq() {
        return Err(corrupt(format!(
            "stamp of {id} carries another sequence number"
        )));
    }
    let stamp = StampedInterval::new(id, clock);
    let n_diffs = r.count(8)?;
    let mut diffs = Vec::with_capacity(n_diffs);
    for _ in 0..n_diffs {
        let mask = r.u64()?;
        let rest = &r.bytes[r.at..];
        let (page, _stamp, diff, used) =
            Diff::read_wire(rest).ok_or_else(|| corrupt("short diff"))?;
        r.at += used;
        // A restored engine indexes its frames by this page and applies
        // this diff to a page-sized buffer: refuse both overruns here.
        if page as usize >= n_pages {
            return Err(corrupt(format!(
                "diff of {id} names page {page}, out of range"
            )));
        }
        if diff.extent() > page_bytes {
            return Err(corrupt(format!(
                "diff of {id} ends at byte {}, past the {page_bytes}-byte page",
                diff.extent()
            )));
        }
        diffs.push((PageId::new(page), diff, mask));
    }
    Ok((stamp, diffs))
}

/// Reads a store section: a count, then that many entries, each
/// processor's intervals in ascending sequence order — the order
/// [`crate::IntervalStore`]'s export writes and its import insists on.
fn read_store(
    r: &mut Reader<'_>,
    n_procs: usize,
    page_bytes: usize,
    n_pages: usize,
) -> Result<Vec<StoreEntry>, CheckpointError> {
    let n_entries = r.count(IntervalId::WIRE_BYTES)?;
    let mut store = Vec::with_capacity(n_entries);
    let mut latest: Vec<Option<u32>> = vec![None; n_procs];
    for _ in 0..n_entries {
        let entry = read_store_entry(r, n_procs, page_bytes, n_pages)?;
        let id = entry.0.id();
        let last = &mut latest[id.proc().index()];
        if last.is_some_and(|seq| seq >= id.seq()) {
            return Err(corrupt(format!("interval {id} out of sequence order")));
        }
        *last = Some(id.seq());
        store.push(entry);
    }
    Ok(store)
}

fn write_owners(owners: &[Option<ProcId>], out: &mut Vec<u8>) {
    let set: Vec<(u32, u16)> = owners
        .iter()
        .enumerate()
        .filter_map(|(g, o)| o.map(|p| (g as u32, p.raw())))
        .collect();
    out.extend_from_slice(&(set.len() as u32).to_le_bytes());
    for (page, proc) in set {
        out.extend_from_slice(&page.to_le_bytes());
        out.extend_from_slice(&proc.to_le_bytes());
    }
}

fn read_owners(
    r: &mut Reader<'_>,
    n_pages: usize,
    n_procs: usize,
) -> Result<Vec<Option<ProcId>>, CheckpointError> {
    let mut owners = vec![None; n_pages];
    let n = r.count(6)?;
    for _ in 0..n {
        let page = r.u32()? as usize;
        let proc = r.u16()?;
        if page >= n_pages || (proc as usize) >= n_procs {
            return Err(corrupt("owner entry out of range"));
        }
        owners[page] = Some(ProcId::new(proc));
    }
    Ok(owners)
}

/// Writes the header every checkpoint format starts with: magic, format
/// version, and the engine shape.
pub fn write_header(
    magic: &[u8; 4],
    n_procs: usize,
    page_bytes: usize,
    n_pages: usize,
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(magic);
    out.extend_from_slice(&FORMAT.to_le_bytes());
    out.extend_from_slice(&(n_procs as u16).to_le_bytes());
    out.extend_from_slice(&(page_bytes as u32).to_le_bytes());
    out.extend_from_slice(&(n_pages as u32).to_le_bytes());
}

/// Reads and validates what [`write_header`] wrote, expecting `magic`:
/// `(n_procs, page_bytes, n_pages)`.
pub fn read_header(
    r: &mut Reader<'_>,
    magic: &[u8; 4],
) -> Result<(usize, usize, usize), CheckpointError> {
    if r.take(4)? != magic {
        return Err(corrupt("bad magic"));
    }
    let format = r.u16()?;
    if format != FORMAT {
        return Err(corrupt(format!("unsupported format {format}")));
    }
    let n_procs = r.u16()? as usize;
    let page_bytes = r.u32()? as usize;
    let n_pages = r.u32()? as usize;
    if n_procs == 0 || n_procs > crate::MAX_PROCS {
        return Err(corrupt(format!("implausible processor count {n_procs}")));
    }
    if n_pages == 0 || page_bytes == 0 {
        return Err(corrupt("empty address space"));
    }
    Ok((n_procs, page_bytes, n_pages))
}

impl EngineCheckpoint {
    /// Serializes the checkpoint.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_header(MAGIC, self.n_procs, self.page_bytes, self.n_pages, &mut out);
        out.extend_from_slice(&self.episode.to_le_bytes());
        out.extend_from_slice(&self.store_era.to_le_bytes());
        write_owners(&self.owners, &mut out);
        out.extend_from_slice(&(self.store.len() as u32).to_le_bytes());
        for entry in &self.store {
            write_store_entry(entry, &mut out);
        }
        for proc in &self.procs {
            proc.clock.write_wire(&mut out);
            out.extend_from_slice(&(proc.frames.len() as u32).to_le_bytes());
            for frame in &proc.frames {
                write_frame(frame, self.page_bytes, &mut out);
            }
        }
        out
    }

    /// Deserializes a checkpoint produced by [`EngineCheckpoint::encode`].
    pub fn decode(bytes: &[u8]) -> Result<EngineCheckpoint, CheckpointError> {
        let mut r = Reader::new(bytes);
        let (n_procs, page_bytes, n_pages) = read_header(&mut r, MAGIC)?;
        let episode = r.u64()?;
        let store_era = r.u64()?;
        let owners = read_owners(&mut r, n_pages, n_procs)?;
        let store = read_store(&mut r, n_procs, page_bytes, n_pages)?;
        let mut procs = Vec::with_capacity(n_procs);
        for _ in 0..n_procs {
            let clock = r.clock(n_procs)?;
            let n_frames = r.count(5)?;
            let mut frames = Vec::with_capacity(n_frames);
            for _ in 0..n_frames {
                frames.push(read_frame(&mut r, page_bytes, n_pages)?);
            }
            procs.push(ProcCheckpoint { clock, frames });
        }
        r.done()?;
        Ok(EngineCheckpoint {
            n_procs,
            page_bytes,
            n_pages,
            episode,
            store_era,
            owners,
            store,
            procs,
        })
    }

    /// The incremental difference from `base` (an earlier checkpoint of
    /// the same run) to `self`: changed frames, new clocks, and store
    /// entries the base lacks. `base.apply` of the result reproduces
    /// `self` exactly.
    pub fn delta_since(&self, base: &EngineCheckpoint) -> Result<CheckpointDelta, CheckpointError> {
        if (self.n_procs, self.page_bytes, self.n_pages)
            != (base.n_procs, base.page_bytes, base.n_pages)
        {
            return Err(CheckpointError::Incompatible(
                "checkpoints describe different engines".into(),
            ));
        }
        if base.episode > self.episode {
            return Err(CheckpointError::Incompatible(format!(
                "base episode {} is newer than {}",
                base.episode, self.episode
            )));
        }
        let store_replaced = self.store_era != base.store_era;
        let store = if store_replaced {
            self.store.clone()
        } else {
            // Additive era: the base's entries are a prefix set of ours.
            let known: std::collections::HashSet<IntervalId> =
                base.store.iter().map(|(s, _)| s.id()).collect();
            self.store
                .iter()
                .filter(|(s, _)| !known.contains(&s.id()))
                .cloned()
                .collect()
        };
        let mut procs = Vec::with_capacity(self.n_procs);
        for (new, old) in self.procs.iter().zip(&base.procs) {
            let mut frames: Vec<FrameCheckpoint> = new
                .frames
                .iter()
                .filter(|f| old.frames.iter().find(|o| o.page == f.page) != Some(*f))
                .cloned()
                .collect();
            // Frames the base had that vanished (a crash reset them):
            // emit explicit defaults so apply knows to drop them.
            for old_frame in &old.frames {
                if !new.frames.iter().any(|f| f.page == old_frame.page) {
                    frames.push(FrameCheckpoint {
                        page: old_frame.page,
                        contents: None,
                        valid: false,
                        pending: Vec::new(),
                    });
                }
            }
            frames.sort_by_key(|f| f.page);
            procs.push(ProcCheckpoint {
                clock: new.clock.clone(),
                frames,
            });
        }
        Ok(CheckpointDelta {
            base_episode: base.episode,
            episode: self.episode,
            store_era: self.store_era,
            store_replaced,
            store,
            owners: self.owners.clone(),
            procs,
        })
    }
}

impl CheckpointDelta {
    /// Rebuilds the newer checkpoint from `base` and this delta.
    pub fn apply_to(&self, base: &EngineCheckpoint) -> Result<EngineCheckpoint, CheckpointError> {
        if self.base_episode != base.episode {
            return Err(CheckpointError::Incompatible(format!(
                "delta expects base episode {}, got {}",
                self.base_episode, base.episode
            )));
        }
        if self.procs.len() != base.procs.len() || self.owners.len() != base.owners.len() {
            return Err(CheckpointError::Incompatible(
                "delta describes a different engine".into(),
            ));
        }
        let mut store = if self.store_replaced {
            self.store.clone()
        } else {
            let mut merged = base.store.clone();
            merged.extend(self.store.iter().cloned());
            merged
        };
        // Import order: grouped by processor, ascending seq within each.
        store.sort_by_key(|(s, _)| (s.id().proc(), s.id().seq()));
        if let Some(pair) = store
            .windows(2)
            .find(|pair| pair[0].0.id() == pair[1].0.id())
        {
            return Err(CheckpointError::Incompatible(format!(
                "delta repeats interval {} of its base",
                pair[0].0.id()
            )));
        }
        let mut procs = Vec::with_capacity(base.procs.len());
        for (patch, old) in self.procs.iter().zip(&base.procs) {
            let mut frames: Vec<FrameCheckpoint> = old
                .frames
                .iter()
                .filter(|o| !patch.frames.iter().any(|f| f.page == o.page))
                .cloned()
                .collect();
            frames.extend(patch.frames.iter().filter(|f| !f.is_default()).cloned());
            frames.sort_by_key(|f| f.page);
            procs.push(ProcCheckpoint {
                clock: patch.clock.clone(),
                frames,
            });
        }
        Ok(EngineCheckpoint {
            n_procs: base.n_procs,
            page_bytes: base.page_bytes,
            n_pages: base.n_pages,
            episode: self.episode,
            store_era: self.store_era,
            owners: self.owners.clone(),
            store,
            procs,
        })
    }

    /// Serializes the delta.
    pub fn encode(&self, page_bytes: usize, n_pages: usize) -> Vec<u8> {
        let mut out = Vec::new();
        write_header(DELTA_MAGIC, self.procs.len(), page_bytes, n_pages, &mut out);
        out.extend_from_slice(&self.base_episode.to_le_bytes());
        out.extend_from_slice(&self.episode.to_le_bytes());
        out.extend_from_slice(&self.store_era.to_le_bytes());
        out.push(self.store_replaced as u8);
        write_owners(&self.owners, &mut out);
        out.extend_from_slice(&(self.store.len() as u32).to_le_bytes());
        for entry in &self.store {
            write_store_entry(entry, &mut out);
        }
        for proc in &self.procs {
            proc.clock.write_wire(&mut out);
            out.extend_from_slice(&(proc.frames.len() as u32).to_le_bytes());
            for frame in &proc.frames {
                write_frame(frame, page_bytes, &mut out);
            }
        }
        out
    }

    /// Deserializes a delta produced by [`CheckpointDelta::encode`].
    pub fn decode(bytes: &[u8]) -> Result<CheckpointDelta, CheckpointError> {
        let mut r = Reader::new(bytes);
        let (n_procs, page_bytes, n_pages) = read_header(&mut r, DELTA_MAGIC)?;
        let base_episode = r.u64()?;
        let episode = r.u64()?;
        let store_era = r.u64()?;
        let store_replaced = match r.u8()? {
            0 => false,
            1 => true,
            f => return Err(corrupt(format!("bad store-replaced flag {f}"))),
        };
        let owners = read_owners(&mut r, n_pages, n_procs)?;
        let store = read_store(&mut r, n_procs, page_bytes, n_pages)?;
        let mut procs = Vec::with_capacity(n_procs);
        for _ in 0..n_procs {
            let clock = r.clock(n_procs)?;
            let n_frames = r.count(5)?;
            let mut frames = Vec::with_capacity(n_frames);
            for _ in 0..n_frames {
                frames.push(read_frame(&mut r, page_bytes, n_pages)?);
            }
            procs.push(ProcCheckpoint { clock, frames });
        }
        r.done()?;
        Ok(CheckpointDelta {
            base_episode,
            episode,
            store_era,
            store_replaced,
            store,
            owners,
            procs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_pagemem::{PageBuf, PageSize};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn g(i: u32) -> PageId {
        PageId::new(i)
    }

    fn diff_of(byte: u8) -> Diff {
        let twin = PageBuf::zeroed(PageSize::new(64).unwrap());
        let mut cur = twin.clone();
        cur.write(3, &[byte]);
        Diff::between(&twin, &cur)
    }

    fn entry(proc: u16, seq: u32, page: u32, mask: u64) -> StoreEntry {
        let mut vc = VectorClock::new(2);
        vc.set(p(proc), seq);
        let stamp = StampedInterval::new(IntervalId::new(p(proc), seq), vc);
        (stamp, vec![(g(page), diff_of(seq as u8), mask)])
    }

    fn sample() -> EngineCheckpoint {
        let mut clock0 = VectorClock::new(2);
        clock0.set(p(0), 3);
        clock0.set(p(1), 1);
        let mut clock1 = VectorClock::new(2);
        clock1.set(p(1), 2);
        EngineCheckpoint {
            n_procs: 2,
            page_bytes: 64,
            n_pages: 4,
            episode: 5,
            store_era: 1,
            owners: vec![None, Some(p(1)), None, None],
            store: vec![entry(0, 2, 1, 0b01), entry(1, 1, 0, 0b11)],
            procs: vec![
                ProcCheckpoint {
                    clock: clock0,
                    frames: vec![FrameCheckpoint {
                        page: g(1),
                        contents: Some(vec![7u8; 64]),
                        valid: true,
                        pending: Vec::new(),
                    }],
                },
                ProcCheckpoint {
                    clock: clock1,
                    frames: vec![FrameCheckpoint {
                        page: g(0),
                        contents: None,
                        valid: false,
                        pending: vec![IntervalId::new(p(0), 2)],
                    }],
                },
            ],
        }
    }

    #[test]
    fn checkpoint_encode_decode_round_trips() {
        let ckpt = sample();
        let bytes = ckpt.encode();
        let back = EngineCheckpoint::decode(&bytes).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn decode_rejects_corruption() {
        let ckpt = sample();
        let bytes = ckpt.encode();
        assert!(matches!(
            EngineCheckpoint::decode(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Corrupt(_))
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(EngineCheckpoint::decode(&bad_magic).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            EngineCheckpoint::decode(&trailing),
            Err(CheckpointError::Corrupt(why)) if why.contains("trailing")
        ));
    }

    #[test]
    fn delta_captures_only_changes_and_applies_back() {
        let base = sample();
        let mut next = base.clone();
        next.episode = 6;
        // Canonical store order: grouped by processor, ascending seq.
        next.store.insert(1, entry(0, 4, 2, 0b01));
        next.procs[0].frames[0].contents = Some(vec![9u8; 64]);
        next.procs[0].clock.set(p(0), 5);
        // p1's frame vanished (crash reset).
        next.procs[1].frames.clear();

        let delta = next.delta_since(&base).unwrap();
        assert!(!delta.store_replaced);
        assert_eq!(delta.store.len(), 1, "only the new interval travels");
        assert_eq!(delta.procs[0].frames.len(), 1, "only the changed frame");
        assert_eq!(delta.procs[1].frames.len(), 1);
        assert!(delta.procs[1].frames[0].is_default(), "reset marker");

        assert_eq!(delta.apply_to(&base).unwrap(), next);

        let bytes = delta.encode(base.page_bytes, base.n_pages);
        assert_eq!(CheckpointDelta::decode(&bytes).unwrap(), delta);
    }

    #[test]
    fn delta_across_garbage_collection_replaces_the_store() {
        let base = sample();
        let mut next = base.clone();
        next.episode = 7;
        next.store_era = 2;
        next.store = vec![entry(1, 9, 3, 0b10)];
        let delta = next.delta_since(&base).unwrap();
        assert!(delta.store_replaced);
        assert_eq!(delta.apply_to(&base).unwrap(), next);
    }

    #[test]
    fn delta_guards_shape_and_base() {
        let base = sample();
        let mut other = base.clone();
        other.n_pages = 8;
        other.owners = vec![None; 8];
        assert!(matches!(
            base.delta_since(&other),
            Err(CheckpointError::Incompatible(_))
        ));
        let delta = base.delta_since(&base).unwrap();
        let mut wrong = base.clone();
        wrong.episode = 99;
        assert!(delta.apply_to(&wrong).is_err());
        // An additive delta carrying an interval its base already has
        // would hand the store import the same interval twice.
        let mut repeats = delta;
        repeats.store.push(base.store[0].clone());
        assert!(matches!(
            repeats.apply_to(&base),
            Err(CheckpointError::Incompatible(why)) if why.contains("repeats")
        ));
    }
}
