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
//! The cut holds the interval store as the engine does: a copy of its
//! per-processor logs ([`IntervalStore`]). Its section of the encoding is
//! written straight from those logs, and decoded straight back into a
//! fresh store's logs, each diff parsed in place and copied once
//! ([`IntervalStore::write_section`], [`IntervalStore::read_section`]).
//!
//! Serialization reuses the protocol's wire codecs ([`VectorClock`],
//! [`IntervalId`], [`DiffView`]) so checkpoints travel the same
//! transports as protocol messages. There is one format, `LRCK`: every
//! encoded checkpoint is a whole cut, decodable on its own.
//!
//! A cut that travels — a peer's rejoin request — is refused at the
//! door. Decoding allocates only in proportion to its input, and returns
//! [`CheckpointError::Corrupt`] for what a restore or a rejoin would
//! index with or trip over: a processor, page, or diff extent out of the
//! header's range; a stamp that is not its own interval's; a processor's
//! intervals, or the owner table, out of ascending order; a frame flagged
//! valid without contents, stale with nothing pending, or noticing an
//! unknown processor. Restore and rejoin check a checkpoint built in
//! memory for the same, and every processor's clock for opening an
//! interval past the ones it recorded, before they touch the engine:
//! [`CheckpointError::Incompatible`].

use std::error::Error;
use std::fmt;

use lrc_pagemem::{DiffView, PageId};
use lrc_vclock::{IntervalId, ProcId, VectorClock};

use crate::IntervalStore;

const MAGIC: &[u8; 4] = b"LRCK";
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
    /// such frames are omitted from checkpoints.
    pub(crate) fn is_default(&self) -> bool {
        self.contents.is_none() && !self.valid && self.pending.is_empty()
    }

    /// What makes this a frame no engine of the given shape holds, if
    /// anything.
    fn fault(&self, n: usize, page_bytes: usize, n_pages: usize) -> Option<String> {
        let resident = self.contents.as_ref().map(Vec::len);
        let why = if self.page.index() >= n_pages {
            "is out of range"
        } else if resident.is_some_and(|len| len != page_bytes) {
            "has contents that are not page-sized"
        } else if self.valid && resident.is_none() {
            "is valid without contents"
        } else if !self.valid && resident.is_some() && self.pending.is_empty() {
            "is stale with nothing pending"
        } else if (self.pending.iter()).any(|iv| iv.proc().index() >= n) {
            "notices an interval of an unknown processor"
        } else {
            return None;
        };
        Some(format!("frame of {} {why}", self.page))
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
///
/// Two checkpoints are equal if they are the same cut: the store is
/// compared by what it records, not by how its buffers are laid out.
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
    /// The garbage-collection owners of the pages that have one,
    /// ascending by page.
    pub owners: Vec<(PageId, ProcId)>,
    /// The interval store at capture: every processor's log of the
    /// intervals it closed, with their stamps, diffs and possession masks,
    /// and the store's era. A processor may rejoin from this checkpoint
    /// only while the live store is still in that era — garbage collection
    /// discards the history the catch-up needs.
    pub store: IntervalStore,
    /// Per-processor state, index = processor id.
    pub procs: Vec<ProcCheckpoint>,
}

/// Why a checkpoint could not be decoded, applied, or rejoined from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckpointError {
    /// The serialized bytes are malformed or truncated.
    Corrupt(String),
    /// The checkpoint does not fit its target (engine shape or store era
    /// mismatch).
    Incompatible(String),
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
            CheckpointError::LeaseExpired(why) => {
                write!(f, "rejoin lease expired: {why}")
            }
        }
    }
}

impl Error for CheckpointError {}

pub(crate) fn corrupt(why: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(why.into())
}

// ---------------------------------------------------------------------
// Binary codec. Little-endian throughout, matching the wire layer.

/// A bounds-checked cursor over serialized checkpoint bytes: every read
/// that would run past the end is [`CheckpointError::Corrupt`].
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// The next `n` raw bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| corrupt(format!("truncated at byte {}", self.at)))?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("eight bytes")))
    }

    /// Refuses `n` items of at least `per_item` bytes each unless they can
    /// fit in the remaining bytes — rejects absurd counts before they turn
    /// into huge allocations.
    fn fits(&self, n: usize, per_item: usize) -> Result<(), CheckpointError> {
        let left = self.bytes.len() - self.at;
        if n.saturating_mul(per_item.max(1)) > left {
            return Err(corrupt(format!("count {n} exceeds remaining bytes")));
        }
        Ok(())
    }

    /// A `u32` count that must be plausible for `per_item`-byte items
    /// (see [`Reader::fits`]).
    pub(crate) fn count(&mut self, per_item: usize) -> Result<usize, CheckpointError> {
        let n = self.u32()? as usize;
        self.fits(n, per_item)?;
        Ok(n)
    }

    pub(crate) fn clock(&mut self, n_procs: usize) -> Result<VectorClock, CheckpointError> {
        let bytes = self.take(4 * n_procs)?;
        VectorClock::read_wire(bytes, n_procs).ok_or_else(|| corrupt("short vector clock"))
    }

    pub(crate) fn interval(&mut self) -> Result<IntervalId, CheckpointError> {
        let bytes = self.take(IntervalId::WIRE_BYTES)?;
        IntervalId::read_wire(bytes).ok_or_else(|| corrupt("short interval id"))
    }

    /// One diff in its wire form, viewed where it lies: its page tag and
    /// its runs. The stamp slot is not read back.
    pub(crate) fn diff(&mut self) -> Result<(u32, DiffView<'a>), CheckpointError> {
        let rest = &self.bytes[self.at..];
        let (page, _stamp, diff, used) =
            DiffView::read_wire(rest).ok_or_else(|| corrupt("short diff"))?;
        self.at += used;
        Ok((page, diff))
    }

    /// Refuses trailing bytes.
    pub(crate) fn done(&self) -> Result<(), CheckpointError> {
        if self.at != self.bytes.len() {
            return Err(corrupt(format!(
                "{} trailing bytes",
                self.bytes.len() - self.at
            )));
        }
        Ok(())
    }
}

/// Serializes a frame: page id, flags (bit 0 = resident, bit 1 = valid),
/// the page-sized contents of a resident frame, and the pending list.
fn write_frame(frame: &FrameCheckpoint, page_bytes: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&frame.page.raw().to_le_bytes());
    out.push(frame.contents.is_some() as u8 | (frame.valid as u8) << 1);
    if let Some(contents) = &frame.contents {
        assert_eq!(contents.len(), page_bytes, "frame contents are page-sized");
        out.extend_from_slice(contents);
    }
    out.extend_from_slice(&(frame.pending.len() as u32).to_le_bytes());
    for iv in &frame.pending {
        iv.write_wire(out);
    }
}

fn read_frame(r: &mut Reader<'_>, page_bytes: usize) -> Result<FrameCheckpoint, CheckpointError> {
    let page = PageId::new(r.u32()?);
    let flags = r.u8()?;
    if flags & !3 != 0 {
        return Err(corrupt(format!("unknown frame flags {flags:#x}")));
    }
    let contents = if flags & 1 != 0 {
        Some(r.take(page_bytes)?.to_vec())
    } else {
        None
    };
    let valid = flags & 2 != 0;
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

fn write_owners(owners: &[(PageId, ProcId)], out: &mut Vec<u8>) {
    out.extend_from_slice(&(owners.len() as u32).to_le_bytes());
    for (page, proc) in owners {
        out.extend_from_slice(&page.raw().to_le_bytes());
        out.extend_from_slice(&proc.raw().to_le_bytes());
    }
}

/// Reads what [`write_owners`] wrote: as many entries as the input holds
/// room for, never a table the size of the header's page count.
fn read_owners(r: &mut Reader<'_>) -> Result<Vec<(PageId, ProcId)>, CheckpointError> {
    let n = r.count(6)?;
    let mut owners = Vec::with_capacity(n);
    for _ in 0..n {
        owners.push((PageId::new(r.u32()?), ProcId::new(r.u16()?)));
    }
    Ok(owners)
}

/// Writes the header: magic, format version, and the engine shape.
fn write_header(n_procs: usize, page_bytes: usize, n_pages: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT.to_le_bytes());
    out.extend_from_slice(&(n_procs as u16).to_le_bytes());
    out.extend_from_slice(&(page_bytes as u32).to_le_bytes());
    out.extend_from_slice(&(n_pages as u32).to_le_bytes());
}

/// Reads and validates what [`write_header`] wrote:
/// `(n_procs, page_bytes, n_pages)`.
fn read_header(r: &mut Reader<'_>) -> Result<(usize, usize, usize), CheckpointError> {
    if r.take(4)? != MAGIC {
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
        write_header(self.n_procs, self.page_bytes, self.n_pages, &mut out);
        out.extend_from_slice(&self.episode.to_le_bytes());
        out.extend_from_slice(&self.store.era().to_le_bytes());
        write_owners(&self.owners, &mut out);
        self.store.write_section(&mut out);
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
        let (n_procs, page_bytes, n_pages) = read_header(&mut r)?;
        let episode = r.u64()?;
        let era = r.u64()?;
        let owners = read_owners(&mut r)?;
        let store = IntervalStore::read_section(&mut r, era, n_procs)?;
        let mut procs = Vec::with_capacity(n_procs);
        for _ in 0..n_procs {
            let clock = r.clock(n_procs)?;
            let n_frames = r.count(5)?;
            let mut frames = Vec::with_capacity(n_frames);
            for _ in 0..n_frames {
                frames.push(read_frame(&mut r, page_bytes)?);
            }
            procs.push(ProcCheckpoint { clock, frames });
        }
        r.done()?;
        let ckpt = EngineCheckpoint {
            n_procs,
            page_bytes,
            n_pages,
            episode,
            owners,
            store,
            procs,
        };
        let fault = ckpt.fault(n_procs, page_bytes, n_pages);
        fault.map_or(Ok(ckpt), |why| Err(corrupt(why)))
    }

    /// What makes this a cut that no engine of `n` processors and
    /// `n_pages` pages of `page_bytes` bytes holds, if anything: another
    /// shape; a processor, page or diff extent out of range; an owner
    /// table out of page order; a clock of another length; or a frame
    /// that is valid without contents, stale with nothing pending, or
    /// noticing an unknown processor. Decoding refuses such a cut as
    /// [`CheckpointError::Corrupt`], restore and rejoin one built in
    /// memory as [`CheckpointError::Incompatible`].
    pub(crate) fn fault(&self, n: usize, page_bytes: usize, n_pages: usize) -> Option<String> {
        let shape = (self.n_procs, self.page_bytes, self.n_pages);
        if shape != (n, page_bytes, n_pages) || self.procs.len() != n {
            return Some(format!(
                "checkpoint is {}×{}B×{} pages, engine is {n}×{page_bytes}B×{n_pages}",
                shape.0, shape.1, shape.2
            ));
        }
        let owner_out = |&(g, p): &(PageId, ProcId)| g.index() >= n_pages || p.index() >= n;
        if self.owners.iter().any(owner_out) || self.owners.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Some("owner table out of range or out of page order".into());
        }
        if let Some(why) = self.store.fault(n, page_bytes, n_pages) {
            return Some(why);
        }
        for (p, proc) in ProcId::all(n).zip(&self.procs) {
            if proc.clock.wire_len() != 4 * n {
                return Some(format!("clock of {p} is not {n} entries long"));
            }
            if let Some(why) = proc
                .frames
                .iter()
                .find_map(|f| f.fault(n, page_bytes, n_pages))
            {
                return Some(why);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_pagemem::{Diff, PageBuf, PageSize};
    use lrc_vclock::StampedInterval;

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

    /// Records interval `proc:seq` as its creator's diff of `page`.
    fn close(store: &mut IntervalStore, proc: u16, seq: u32, page: u32) {
        let mut vc = VectorClock::new(2);
        vc.set(p(proc), seq);
        let stamp = StampedInterval::new(IntervalId::new(p(proc), seq), vc);
        store.close_interval(stamp, &mut vec![(g(page), diff_of(seq as u8))]);
    }

    fn sample() -> EngineCheckpoint {
        let mut store = IntervalStore::new(2);
        store.clear(); // era 1
        close(&mut store, 0, 2, 1);
        close(&mut store, 1, 1, 0);
        store.add_holder(p(0), IntervalId::new(p(1), 1), g(0));
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
            owners: vec![(g(1), p(1))],
            store,
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
}
