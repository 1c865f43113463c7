//! The versioned binary wire format.
//!
//! Every protocol message of the DSM — lock acquire hops and grants,
//! barrier arrivals and exits, page-miss requests and replies, write
//! notices, interval records, diffs — plus the node runtime's RPC envelope
//! has a concrete byte layout here. The simulator charges *modeled* sizes
//! ([`lrc_simnet`]'s `sizes` module); this codec is the *measurement*:
//! most payload encodings match the model byte for byte (clocks, notice
//! batches, diffs, lock/barrier/page ids), and the places where a real
//! format must spend more (explicit counts, full-width sequence numbers)
//! are documented on the types and surface in the
//! [`lrc_simnet::SizeCrosscheck`] report.
//!
//! # Frame layout
//!
//! Every message travels in one frame:
//!
//! ```text
//! offset  field
//! 0..4    magic "LRCN"
//! 4..6    version (u16 LE) — currently 3
//! 6..7    kind (u8, see WireKind)
//! 7..8    flags (u8, reserved, must be 0)
//! 8..10   source node (u16 LE)
//! 10..12  destination node (u16 LE)
//! 12..20  sequence (u64 LE; RPC correlation id)
//! 20..24  body length (u32 LE)
//! 24..28  checksum of the body and its length (u32 LE)
//! 28..32  reserved (u32 LE, must be 0)
//! 32..    body
//! ```
//!
//! The 32-byte header matches [`lrc_simnet::MSG_HEADER_BYTES`] exactly, so
//! the model's fixed per-message overhead is also a measurement.
//!
//! The checksum is four 64-bit FNV-1a lanes, each seeded with the body
//! length. The body is read in 32-byte stripes and lane *i* eats
//! little-endian word *i* of every stripe, so four multiply chains run side
//! by side where one chain would wait a full multiply latency per word. The
//! lane states then go, in lane order, through one more FNV-1a chain from
//! the same seed; the leftover whole words and the last `len % 8` bytes
//! (one at a time) continue that chain, and its state is xor-folded to 32
//! bits. A body shorter than one stripe has no lanes to combine and takes
//! the chain alone, as many steps as in version 2.
//!
//! Version history of the sum (the header field kept its place and size
//! each time, so an older frame is refused as
//! [`WireError::UnsupportedVersion`] rather than as a checksum mismatch):
//!
//! - version 1: 32-bit FNV-1a, one byte per multiply;
//! - version 2: one 64-bit chain, one word per multiply;
//! - version 3: four lanes, as above.
//!
//! # Buffers
//!
//! An encoded frame is one exact-size allocation: [`WireMsg::body_len`]
//! is exact, so [`WireMsg::encode_frame`] reserves header and body at
//! once and writes the body behind a [`FRAME_HEADER_BYTES`] hole, and
//! [`Frame::encode`] fills the header in place and hands that buffer
//! back. Decoding borrows: [`Frame::decode`] validates a frame and lends
//! out its body, and [`WireMsg::decode`] copies only the fields a message
//! owns (a write's data, a reply's payload, lists).

use std::error::Error;
use std::fmt;
use std::ops::Deref;

use lrc_core::EngineOp;
use lrc_pagemem::{Diff, DiffView, PageId};
use lrc_sync::{BarrierId, LockId};
use lrc_vclock::{IntervalId, ProcId, VectorClock};

use crate::NodeId;

/// Frame magic.
pub const WIRE_MAGIC: [u8; 4] = *b"LRCN";
/// Current wire format version.
pub const WIRE_VERSION: u16 = 3;
/// Fixed frame header size (equal to the simulation model's
/// [`lrc_simnet::MSG_HEADER_BYTES`]).
pub const FRAME_HEADER_BYTES: usize = 32;
/// Largest accepted body (rejects absurd frames before allocating).
pub const MAX_BODY_BYTES: usize = 1 << 24;

const _: () = assert!(FRAME_HEADER_BYTES as u64 == lrc_simnet::MSG_HEADER_BYTES);

/// Errors produced while decoding wire data.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The input ended before the structure did (byte offset, best
    /// effort).
    Truncated(usize),
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// The frame's version is not [`WIRE_VERSION`].
    UnsupportedVersion(u16),
    /// The frame names a kind this version does not define.
    UnknownKind(u8),
    /// The body checksum does not match.
    BadChecksum,
    /// A structurally invalid body.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated(at) => write!(f, "truncated wire data at byte {at}"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
            WireError::Malformed(detail) => write!(f, "malformed body: {detail}"),
        }
    }
}

impl Error for WireError {}

fn malformed(detail: impl Into<String>) -> WireError {
    WireError::Malformed(detail.into())
}

/// Writes a list length as the wire's 2-byte count.
///
/// # Panics
///
/// Panics if the list exceeds `u16::MAX` entries: the cast would silently
/// wrap the count and desynchronize the stream, so the sender fails loudly
/// instead (no protocol structure in this workspace approaches 65k entries
/// per message; barrier-time GC bounds notice history long before that).
fn put_count(out: &mut Vec<u8>, len: usize, what: &str) {
    assert!(
        len <= u16::MAX as usize,
        "{what} list of {len} entries exceeds the wire format's u16 count"
    );
    out.extend_from_slice(&(len as u16).to_le_bytes());
}

/// Bytes per checksum stripe: one little-endian word for each lane.
const STRIPE_BYTES: usize = 32;

/// The frame body checksum (see the module docs) — cheap corruption
/// detection, not cryptography. Every lane step and every combine step
/// `h = (h ^ w) * PRIME` is a bijection of the 64-bit state for a fixed
/// word `w`, and injective in `w` for a fixed state (the prime is odd).
/// So when two bodies of one length differ in a single word, either that
/// word's lane ends in a different state, which the combine chain carries
/// to a different state, or the lanes agree and the word differs in the
/// tail chain; only the final fold to 32 bits can make them collide. The
/// combine is a chain rather than an xor of the lanes because an xor is
/// symmetric: it would let two words swapped between lanes collide. A
/// swap changes two words, so nothing above guarantees it is caught, and
/// two words that differ only in bit 63 can swap unseen: every multiply
/// by an odd number carries a top-bit difference through unchanged.
fn checksum(body: &[u8]) -> u32 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
    let seed = 0xcbf2_9ce4_8422_2325 ^ body.len() as u64;
    let mut stripes = body.chunks_exact(STRIPE_BYTES);
    let mut h = if body.len() < STRIPE_BYTES {
        seed
    } else {
        let mut lanes = [seed; 4];
        for stripe in &mut stripes {
            for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = step(*lane, word(w));
            }
        }
        lanes.into_iter().fold(seed, step)
    };
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = step(h, word(w));
    }
    for &b in words.remainder() {
        h = step(h, u64::from(b));
    }
    (h ^ (h >> 32)) as u32
}

/// Every message kind of the wire protocol.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum WireKind {
    /// Session opener: a node announces itself and its hosted processors.
    Hello,
    /// Clean session end.
    Shutdown,
    /// RPC envelope: one operation of a remotely hosted processor.
    OpRequest,
    /// RPC envelope: the operation's outcome.
    OpReply,
    /// Lock acquire hop: requester → home.
    LockRequest,
    /// Lock acquire hop: home → grantor.
    LockForward,
    /// Lock grant with piggybacked clock, write notices, and (LU) diffs.
    LockGrant,
    /// Barrier arrival carrying clock and fresh notices.
    BarrierArrival,
    /// Barrier exit carrying merged clock and per-processor notices.
    BarrierExit,
    /// Page-miss diff request (optionally asking for a base copy).
    MissRequest,
    /// Page-miss reply: optional base page plus diffs.
    MissReply,
    /// A standalone write-notice batch (the no-piggyback ablation's
    /// separate consistency message).
    Notices,
    /// A restarted node asks to rejoin, presenting its processor and its
    /// last saved checkpoint (opaque bytes — the engine's own codec).
    RejoinRequest,
    /// The rejoin outcome: the barrier episode rejoined at, or an error.
    RejoinReply,
}

impl WireKind {
    /// All kinds, in tag order.
    pub const ALL: [WireKind; 14] = [
        WireKind::Hello,
        WireKind::Shutdown,
        WireKind::OpRequest,
        WireKind::OpReply,
        WireKind::LockRequest,
        WireKind::LockForward,
        WireKind::LockGrant,
        WireKind::BarrierArrival,
        WireKind::BarrierExit,
        WireKind::MissRequest,
        WireKind::MissReply,
        WireKind::Notices,
        WireKind::RejoinRequest,
        WireKind::RejoinReply,
    ];

    /// Number of kinds.
    pub(crate) const COUNT: usize = 14;

    /// Dense tag (also the frame header byte).
    pub fn tag(self) -> u8 {
        match self {
            WireKind::Hello => 0,
            WireKind::Shutdown => 1,
            WireKind::OpRequest => 2,
            WireKind::OpReply => 3,
            WireKind::LockRequest => 4,
            WireKind::LockForward => 5,
            WireKind::LockGrant => 6,
            WireKind::BarrierArrival => 7,
            WireKind::BarrierExit => 8,
            WireKind::MissRequest => 9,
            WireKind::MissReply => 10,
            WireKind::Notices => 11,
            WireKind::RejoinRequest => 12,
            WireKind::RejoinReply => 13,
        }
    }

    /// Reverse of [`WireKind::tag`].
    pub(crate) fn from_tag(tag: u8) -> Option<WireKind> {
        WireKind::ALL.get(tag as usize).copied()
    }
}

impl fmt::Display for WireKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One framed message: validated header fields plus the body.
///
/// The body type says who owns the bytes. [`Frame::decode`] lends the
/// body out of its input (`Frame<&[u8]>`); transports hand out frames
/// that own theirs (`Frame<Vec<u8>>`, the default); and
/// [`WireMsg::encode_frame`] builds a `Frame<FrameBuf>`, whose
/// [`Frame::encode`] returns the one buffer that goes on the wire.
/// Decode a body into a [`WireMsg`] with [`WireMsg::decode`] (which needs
/// the session's [`WireCtx`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame<B = Vec<u8>> {
    /// Message kind.
    pub kind: WireKind,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Sender-chosen sequence number (RPC correlation id).
    pub seq: u64,
    /// The encoded message body.
    pub body: B,
}

/// The body of a frame built by [`WireMsg::encode_frame`]: one buffer of
/// exactly header-plus-body bytes, the body written behind a zeroed
/// [`FRAME_HEADER_BYTES`] hole. [`Frame::encode`] writes the header into
/// the hole; flags and reserved stay zero. Derefs to the body alone.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FrameBuf(Vec<u8>);

impl Deref for FrameBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0[FRAME_HEADER_BYTES..]
    }
}

impl<B: Deref<Target = [u8]>> Frame<B> {
    /// Total bytes this frame occupies on the wire.
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER_BYTES + self.body.len()
    }

    /// Builds a frame from a 32-byte header and its body: the one frame
    /// validator, behind [`Frame::decode`] and every transport's receive
    /// path. Checks the header (magic, version, length cap, kind, flags)
    /// and the body against it (length, checksum). A streaming transport
    /// passes the body it read after [`Frame::peek_body_len`], so the
    /// body is moved, never re-copied.
    ///
    /// # Errors
    ///
    /// [`WireError`] on header problems, a body whose length disagrees
    /// with the header, or a checksum mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `header` is shorter than [`FRAME_HEADER_BYTES`].
    pub(crate) fn from_wire_parts(header: &[u8], body: B) -> Result<Frame<B>, WireError> {
        let body_len = Frame::peek_body_len(header)?;
        if body.len() != body_len {
            return Err(malformed(format!(
                "body is {} bytes, header declares {body_len}",
                body.len()
            )));
        }
        let kind = WireKind::from_tag(header[6]).ok_or(WireError::UnknownKind(header[6]))?;
        if header[7] != 0 {
            return Err(malformed("nonzero flags"));
        }
        let src = u16::from_le_bytes([header[8], header[9]]);
        let dst = u16::from_le_bytes([header[10], header[11]]);
        let seq = u64::from_le_bytes(header[12..20].try_into().expect("8 header bytes"));
        let declared = u32::from_le_bytes([header[24], header[25], header[26], header[27]]);
        if checksum(&body) != declared {
            return Err(WireError::BadChecksum);
        }
        Ok(Frame {
            kind,
            src,
            dst,
            seq,
            body,
        })
    }
}

impl Frame<FrameBuf> {
    /// Fills in the header in front of the body and returns the frame's
    /// bytes: the buffer [`WireMsg::encode_frame`] allocated, not a copy.
    pub fn encode(self) -> Vec<u8> {
        let mut bytes = self.body.0;
        let (header, body) = bytes.split_at_mut(FRAME_HEADER_BYTES);
        header[..4].copy_from_slice(&WIRE_MAGIC);
        header[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
        header[6] = self.kind.tag();
        header[8..10].copy_from_slice(&self.src.to_le_bytes());
        header[10..12].copy_from_slice(&self.dst.to_le_bytes());
        header[12..20].copy_from_slice(&self.seq.to_le_bytes());
        header[20..24].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[24..28].copy_from_slice(&checksum(body).to_le_bytes());
        bytes
    }
}

impl<'a> Frame<&'a [u8]> {
    /// Decodes one frame from the front of `bytes`, returning it (its body
    /// borrowed from `bytes`) and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, bad magic, a foreign version, an
    /// unknown kind, or a checksum mismatch.
    pub fn decode(bytes: &'a [u8]) -> Result<(Frame<&'a [u8]>, usize), WireError> {
        let header = bytes
            .get(..FRAME_HEADER_BYTES)
            .ok_or(WireError::Truncated(bytes.len()))?;
        let body_len = Frame::peek_body_len(header)?;
        let body = bytes
            .get(FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + body_len)
            .ok_or(WireError::Truncated(bytes.len()))?;
        Ok((
            Frame::from_wire_parts(header, body)?,
            FRAME_HEADER_BYTES + body_len,
        ))
    }
}

impl Frame {
    /// Validates a 32-byte header and returns the declared body length —
    /// what a streaming transport needs before it can read the body.
    ///
    /// # Errors
    ///
    /// See [`Frame::decode`].
    ///
    /// # Panics
    ///
    /// Panics if `header` is shorter than [`FRAME_HEADER_BYTES`].
    pub(crate) fn peek_body_len(header: &[u8]) -> Result<usize, WireError> {
        assert!(header.len() >= FRAME_HEADER_BYTES, "short frame header");
        if header[..4] != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let body_len =
            u32::from_le_bytes([header[20], header[21], header[22], header[23]]) as usize;
        if body_len > MAX_BODY_BYTES {
            return Err(malformed(format!("body of {body_len} bytes exceeds cap")));
        }
        Ok(body_len)
    }

    /// Builds a frame from one owned buffer holding exactly one whole
    /// frame — what a message-oriented transport receives. The header is
    /// stripped in place, so the body keeps the buffer.
    ///
    /// # Errors
    ///
    /// As [`Frame::decode`], and [`WireError::Malformed`] if bytes follow
    /// the frame.
    pub(crate) fn from_wire(mut bytes: Vec<u8>) -> Result<Frame, WireError> {
        let (frame, used) = Frame::decode(&bytes)?;
        if used != bytes.len() {
            return Err(malformed(format!(
                "{} bytes follow a {used}-byte frame",
                bytes.len() - used
            )));
        }
        let Frame {
            kind,
            src,
            dst,
            seq,
            ..
        } = frame;
        bytes.drain(..FRAME_HEADER_BYTES);
        Ok(Frame {
            kind,
            src,
            dst,
            seq,
            body: bytes,
        })
    }
}

/// Session parameters a decoder needs that the byte stream deliberately
/// does not repeat per message (they are fixed at Hello time): the
/// processor count, which sizes every vector clock.
///
/// Keeping them out of the per-message encoding is what lets a clock cost
/// exactly [`lrc_simnet::vc_bytes`] on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WireCtx {
    /// Number of processors in the cluster (vector clock width).
    pub n_procs: usize,
}

/// One interval's write notices as they travel on the wire: the interval
/// id, the creator's own clock entry (the "timestamp entry" of the
/// model's 12-byte header), and the pages it modified.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NoticeInterval {
    /// The interval the notices belong to.
    pub id: IntervalId,
    /// The interval's own clock entry (redundant with `id.seq()` in this
    /// implementation; kept as the model's explicit timestamp field).
    pub stamp_entry: u32,
    /// Pages the interval modified.
    pub pages: Vec<PageId>,
}

/// A batched write-notice list (TreadMarks-style interval records): one
/// header per distinct interval, then its page ids.
///
/// The per-interval encoding matches [`lrc_simnet::notice_batch_bytes`]
/// exactly; the batch spends 2 extra bytes on an explicit interval count
/// (the model delimits implicitly).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NoticeBatch {
    /// The intervals, each with its modified pages.
    pub intervals: Vec<NoticeInterval>,
}

impl NoticeBatch {
    /// Bytes the per-interval records occupy (the modeled quantity,
    /// excluding the 2-byte count prefix).
    pub fn record_bytes(&self) -> u64 {
        lrc_simnet::notice_batch_bytes(
            self.intervals.len(),
            self.intervals.iter().map(|iv| iv.pages.len()).sum(),
        )
    }

    /// Bytes the batch occupies on the wire: the count prefix plus the
    /// records.
    fn wire_len(&self) -> usize {
        2 + self.record_bytes() as usize
    }

    fn write(&self, out: &mut Vec<u8>) {
        put_count(out, self.intervals.len(), "notice-interval");
        for iv in &self.intervals {
            out.extend_from_slice(&iv.id.proc().raw().to_le_bytes());
            out.extend_from_slice(&iv.id.seq().to_le_bytes());
            put_count(out, iv.pages.len(), "notice-page");
            out.extend_from_slice(&iv.stamp_entry.to_le_bytes());
            for g in &iv.pages {
                out.extend_from_slice(&g.raw().to_le_bytes());
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<NoticeBatch, WireError> {
        let count = r.u16()? as usize;
        let mut intervals = Vec::with_capacity(count.min(1 << 12));
        for _ in 0..count {
            let proc = ProcId::new(r.u16()?);
            let seq = r.u32()?;
            let n_pages = r.u16()? as usize;
            let stamp_entry = r.u32()?;
            let mut pages = Vec::with_capacity(n_pages.min(1 << 12));
            for _ in 0..n_pages {
                pages.push(PageId::new(r.u32()?));
            }
            intervals.push(NoticeInterval {
                id: IntervalId::new(proc, seq),
                stamp_entry,
                pages,
            });
        }
        Ok(NoticeBatch { intervals })
    }
}

/// A diff bound to the page and interval it belongs to, as shipped in
/// grants and miss replies. Encodes via [`Diff::write_wire`], so its wire
/// cost equals [`Diff::encoded_size`] — the exact quantity the simulation
/// model charges.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireDiff {
    /// The page the diff applies to.
    pub page: PageId,
    /// The producing interval's sequence number (the header's 4-byte
    /// stamp field).
    pub stamp: u32,
    /// The runs.
    pub diff: Diff,
}

impl WireDiff {
    fn write(&self, out: &mut Vec<u8>) {
        self.diff.write_wire(self.page.raw(), self.stamp, out);
    }

    fn read(r: &mut Reader<'_>) -> Result<WireDiff, WireError> {
        let (page, stamp, diff, used) =
            DiffView::read_wire(r.rest()).ok_or_else(|| malformed("bad diff encoding"))?;
        r.skip(used);
        Ok(WireDiff {
            page: PageId::new(page),
            stamp,
            diff: diff.clone(),
        })
    }
}

fn diff_list_len(diffs: &[WireDiff]) -> usize {
    2 + diffs.iter().map(|d| d.diff.encoded_size()).sum::<usize>()
}

fn write_diff_list(diffs: &[WireDiff], out: &mut Vec<u8>) {
    put_count(out, diffs.len(), "diff");
    for d in diffs {
        d.write(out);
    }
}

fn read_diff_list(r: &mut Reader<'_>) -> Result<Vec<WireDiff>, WireError> {
    let count = r.u16()? as usize;
    let mut diffs = Vec::with_capacity(count.min(1 << 12));
    for _ in 0..count {
        diffs.push(WireDiff::read(r)?);
    }
    Ok(diffs)
}

/// Every message of the wire protocol, decoded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireMsg {
    /// Session opener: the sending node and the processors it hosts.
    Hello {
        /// The announcing node.
        node: NodeId,
        /// Processors hosted by that node.
        procs: Vec<ProcId>,
    },
    /// Clean session end.
    Shutdown,
    /// One operation of a remotely hosted processor (the RPC request).
    OpRequest {
        /// The processor performing the operation.
        proc: ProcId,
        /// The operation.
        op: EngineOp,
    },
    /// The operation's outcome (the RPC reply): read bytes on success, a
    /// rendered error otherwise.
    OpReply {
        /// `Ok(bytes)` (empty unless the operation was a read) or
        /// `Err(rendered message)`.
        result: Result<Vec<u8>, String>,
    },
    /// Lock acquire hop: requester → home. Carries the acquirer's clock
    /// so the grantor can compute missing write notices.
    LockRequest {
        /// The lock being acquired.
        lock: LockId,
        /// The acquiring processor.
        acquirer: ProcId,
        /// The acquirer's vector time.
        clock: VectorClock,
    },
    /// Lock acquire hop: home → grantor (same payload as the request).
    LockForward {
        /// The lock being acquired.
        lock: LockId,
        /// The acquiring processor.
        acquirer: ProcId,
        /// The acquirer's vector time.
        clock: VectorClock,
    },
    /// The grant back to the requester with piggybacked consistency data.
    LockGrant {
        /// The granted lock.
        lock: LockId,
        /// The grantor's transferable knowledge.
        clock: VectorClock,
        /// Write notices the acquirer lacks.
        notices: NoticeBatch,
        /// Update-policy diffs riding the grant.
        diffs: Vec<WireDiff>,
    },
    /// Arrival at the barrier master.
    BarrierArrival {
        /// The barrier.
        barrier: BarrierId,
        /// The arriving processor.
        proc: ProcId,
        /// The arriver's vector time.
        clock: VectorClock,
        /// Fresh write notices the master lacks.
        notices: NoticeBatch,
    },
    /// Departure from the barrier master.
    BarrierExit {
        /// The barrier.
        barrier: BarrierId,
        /// The merged vector time.
        clock: VectorClock,
        /// Notices this processor lacks.
        notices: NoticeBatch,
    },
    /// Page-miss diff request to one concurrent last modifier.
    MissRequest {
        /// The missing page.
        page: PageId,
        /// The diffs wanted from this supplier.
        wanted: Vec<(IntervalId, PageId)>,
        /// True if the supplier should also ship a base copy of `page`.
        want_base: bool,
    },
    /// The supplier's reply.
    MissReply {
        /// The page the reply resolves.
        page: PageId,
        /// Full base copy, when requested (cold misses).
        base: Option<Vec<u8>>,
        /// The requested diffs (squashed chains).
        diffs: Vec<WireDiff>,
    },
    /// A standalone write-notice batch (no-piggyback ablation).
    Notices {
        /// The sender's vector time.
        clock: VectorClock,
        /// The notices.
        notices: NoticeBatch,
    },
    /// A restarted node announces itself for rejoin. The checkpoint
    /// travels opaque: this layer frames it, the node runtime decodes it
    /// with the engine's own codec ([`lrc_core::EngineCheckpoint`]).
    RejoinRequest {
        /// The rejoining node.
        node: NodeId,
        /// The processor being revived.
        proc: ProcId,
        /// The node's last saved checkpoint, engine-encoded.
        checkpoint: Vec<u8>,
    },
    /// The rejoin outcome.
    RejoinReply {
        /// `Ok(episode)` — the barrier episode the processor rejoined at
        /// — or a rendered error (corrupt or incompatible checkpoint).
        result: Result<u64, String>,
    },
}

impl WireMsg {
    /// The message's kind.
    pub fn kind(&self) -> WireKind {
        match self {
            WireMsg::Hello { .. } => WireKind::Hello,
            WireMsg::Shutdown => WireKind::Shutdown,
            WireMsg::OpRequest { .. } => WireKind::OpRequest,
            WireMsg::OpReply { .. } => WireKind::OpReply,
            WireMsg::LockRequest { .. } => WireKind::LockRequest,
            WireMsg::LockForward { .. } => WireKind::LockForward,
            WireMsg::LockGrant { .. } => WireKind::LockGrant,
            WireMsg::BarrierArrival { .. } => WireKind::BarrierArrival,
            WireMsg::BarrierExit { .. } => WireKind::BarrierExit,
            WireMsg::MissRequest { .. } => WireKind::MissRequest,
            WireMsg::MissReply { .. } => WireKind::MissReply,
            WireMsg::Notices { .. } => WireKind::Notices,
            WireMsg::RejoinRequest { .. } => WireKind::RejoinRequest,
            WireMsg::RejoinReply { .. } => WireKind::RejoinReply,
        }
    }

    /// Exact length of the message body, computed without encoding it —
    /// what lets a frame be one allocation and a sender refuse an
    /// oversized message before building it.
    pub fn body_len(&self) -> usize {
        match self {
            // node (2) + count (2) + one id (2) per processor
            WireMsg::Hello { procs, .. } => 4 + 2 * procs.len(),
            WireMsg::Shutdown => 0,
            // proc (2) + op tag (1) + the op's fields
            WireMsg::OpRequest { op, .. } => {
                3 + match op {
                    EngineOp::Read { .. } => 8 + 4,
                    EngineOp::Write { data, .. } => 8 + 4 + data.len(),
                    EngineOp::Acquire(_) | EngineOp::Release(_) | EngineOp::Barrier(_) => 4,
                }
            }
            // status (1) + length (4) + payload
            WireMsg::OpReply { result } => {
                5 + match result {
                    Ok(bytes) => bytes.len(),
                    Err(msg) => msg.len(),
                }
            }
            // 8-byte lock or barrier field + clock (+ notices, diffs)
            WireMsg::LockRequest { clock, .. } | WireMsg::LockForward { clock, .. } => {
                8 + clock.wire_len()
            }
            WireMsg::LockGrant {
                clock,
                notices,
                diffs,
                ..
            } => 8 + clock.wire_len() + notices.wire_len() + diff_list_len(diffs),
            WireMsg::BarrierArrival { clock, notices, .. }
            | WireMsg::BarrierExit { clock, notices, .. } => {
                8 + clock.wire_len() + notices.wire_len()
            }
            // page (4) + want_base (1) + count (2) + (interval, page) pairs
            WireMsg::MissRequest { wanted, .. } => 7 + wanted.len() * (IntervalId::WIRE_BYTES + 4),
            // page (4) + base flag (1) + [length (4) + base] + diffs
            WireMsg::MissReply { base, diffs, .. } => {
                5 + base.as_ref().map_or(0, |bytes| 4 + bytes.len()) + diff_list_len(diffs)
            }
            WireMsg::Notices { clock, notices } => clock.wire_len() + notices.wire_len(),
            // node (2) + proc (2) + length (4) + checkpoint
            WireMsg::RejoinRequest { checkpoint, .. } => 8 + checkpoint.len(),
            // status (1) + episode (8) or length (4) + text
            WireMsg::RejoinReply { result } => {
                1 + match result {
                    Ok(_) => 8,
                    Err(msg) => 4 + msg.len(),
                }
            }
        }
    }

    /// Encodes the message body (no frame header) into a buffer of
    /// exactly [`WireMsg::body_len`] bytes.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body_len());
        self.write_body(&mut out);
        out
    }

    /// Appends the message body to `out`: the one encoder behind
    /// [`WireMsg::encode_body`] and [`WireMsg::encode_frame`].
    fn write_body(&self, out: &mut Vec<u8>) {
        match self {
            WireMsg::Hello { node, procs } => {
                out.extend_from_slice(&node.to_le_bytes());
                put_count(out, procs.len(), "processor");
                for p in procs {
                    out.extend_from_slice(&p.raw().to_le_bytes());
                }
            }
            WireMsg::Shutdown => {}
            WireMsg::OpRequest { proc, op } => {
                out.extend_from_slice(&proc.raw().to_le_bytes());
                match op {
                    EngineOp::Read { addr, len } => {
                        out.push(0);
                        out.extend_from_slice(&addr.to_le_bytes());
                        out.extend_from_slice(&len.to_le_bytes());
                    }
                    EngineOp::Write { addr, data } => {
                        out.push(1);
                        out.extend_from_slice(&addr.to_le_bytes());
                        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                        out.extend_from_slice(data);
                    }
                    EngineOp::Acquire(l) => {
                        out.push(2);
                        out.extend_from_slice(&l.raw().to_le_bytes());
                    }
                    EngineOp::Release(l) => {
                        out.push(3);
                        out.extend_from_slice(&l.raw().to_le_bytes());
                    }
                    EngineOp::Barrier(b) => {
                        out.push(4);
                        out.extend_from_slice(&b.raw().to_le_bytes());
                    }
                }
            }
            WireMsg::OpReply { result } => match result {
                Ok(bytes) => {
                    out.push(0);
                    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                    out.extend_from_slice(bytes);
                }
                Err(msg) => {
                    let msg = msg.as_bytes();
                    out.push(1);
                    out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
                    out.extend_from_slice(msg);
                }
            },
            WireMsg::LockRequest {
                lock,
                acquirer,
                clock,
            }
            | WireMsg::LockForward {
                lock,
                acquirer,
                clock,
            } => {
                // Lock field: id (4) + acquirer (2) + reserved (2) — the
                // model's 8-byte lock identifier.
                out.extend_from_slice(&lock.raw().to_le_bytes());
                out.extend_from_slice(&acquirer.raw().to_le_bytes());
                out.extend_from_slice(&0u16.to_le_bytes());
                clock.write_wire(out);
            }
            WireMsg::LockGrant {
                lock,
                clock,
                notices,
                diffs,
            } => {
                out.extend_from_slice(&lock.raw().to_le_bytes());
                out.extend_from_slice(&0u32.to_le_bytes());
                clock.write_wire(out);
                notices.write(out);
                write_diff_list(diffs, out);
            }
            WireMsg::BarrierArrival {
                barrier,
                proc,
                clock,
                notices,
            } => {
                // Barrier field: id (4) + proc (2) + reserved (2) — the
                // model's 8-byte barrier identifier.
                out.extend_from_slice(&barrier.raw().to_le_bytes());
                out.extend_from_slice(&proc.raw().to_le_bytes());
                out.extend_from_slice(&0u16.to_le_bytes());
                clock.write_wire(out);
                notices.write(out);
            }
            WireMsg::BarrierExit {
                barrier,
                clock,
                notices,
            } => {
                out.extend_from_slice(&barrier.raw().to_le_bytes());
                out.extend_from_slice(&0u32.to_le_bytes());
                clock.write_wire(out);
                notices.write(out);
            }
            WireMsg::MissRequest {
                page,
                wanted,
                want_base,
            } => {
                out.extend_from_slice(&page.raw().to_le_bytes());
                out.push(u8::from(*want_base));
                put_count(out, wanted.len(), "diff-request");
                for (iv, g) in wanted {
                    iv.write_wire(out);
                    out.extend_from_slice(&g.raw().to_le_bytes());
                }
            }
            WireMsg::MissReply { page, base, diffs } => {
                out.extend_from_slice(&page.raw().to_le_bytes());
                match base {
                    Some(bytes) => {
                        out.push(1);
                        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                        out.extend_from_slice(bytes);
                    }
                    None => out.push(0),
                }
                write_diff_list(diffs, out);
            }
            WireMsg::Notices { clock, notices } => {
                clock.write_wire(out);
                notices.write(out);
            }
            WireMsg::RejoinRequest {
                node,
                proc,
                checkpoint,
            } => {
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&proc.raw().to_le_bytes());
                out.extend_from_slice(&(checkpoint.len() as u32).to_le_bytes());
                out.extend_from_slice(checkpoint);
            }
            WireMsg::RejoinReply { result } => match result {
                Ok(episode) => {
                    out.push(0);
                    out.extend_from_slice(&episode.to_le_bytes());
                }
                Err(msg) => {
                    let msg = msg.as_bytes();
                    out.push(1);
                    out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
                    out.extend_from_slice(msg);
                }
            },
        }
    }

    /// Decodes a message body of the given kind.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or structural nonsense; trailing bytes
    /// after a complete body are also rejected.
    pub fn decode(kind: WireKind, body: &[u8], ctx: &WireCtx) -> Result<WireMsg, WireError> {
        let mut r = Reader { bytes: body, at: 0 };
        let msg = match kind {
            WireKind::Hello => {
                let node = r.u16()?;
                let count = r.u16()? as usize;
                let mut procs = Vec::with_capacity(count.min(1 << 12));
                for _ in 0..count {
                    procs.push(ProcId::new(r.u16()?));
                }
                WireMsg::Hello { node, procs }
            }
            WireKind::Shutdown => WireMsg::Shutdown,
            WireKind::OpRequest => {
                let proc = ProcId::new(r.u16()?);
                let tag = r.u8()?;
                let op = match tag {
                    0 => EngineOp::Read {
                        addr: r.u64()?,
                        len: r.u32()?,
                    },
                    1 => {
                        let addr = r.u64()?;
                        let len = r.u32()? as usize;
                        EngineOp::Write {
                            addr,
                            data: r.take(len)?.to_vec(),
                        }
                    }
                    2 => EngineOp::Acquire(LockId::new(r.u32()?)),
                    3 => EngineOp::Release(LockId::new(r.u32()?)),
                    4 => EngineOp::Barrier(BarrierId::new(r.u32()?)),
                    other => return Err(malformed(format!("unknown op tag {other}"))),
                };
                WireMsg::OpRequest { proc, op }
            }
            WireKind::OpReply => {
                let ok = match r.u8()? {
                    0 => true,
                    1 => false,
                    other => return Err(malformed(format!("unknown reply status {other}"))),
                };
                let len = r.u32()? as usize;
                let payload = r.take(len)?.to_vec();
                let result = if ok {
                    Ok(payload)
                } else {
                    Err(String::from_utf8(payload)
                        .map_err(|_| malformed("error text is not UTF-8"))?)
                };
                WireMsg::OpReply { result }
            }
            WireKind::LockRequest | WireKind::LockForward => {
                let lock = LockId::new(r.u32()?);
                let acquirer = ProcId::new(r.u16()?);
                r.u16()?; // reserved
                let clock = r.clock(ctx)?;
                if kind == WireKind::LockRequest {
                    WireMsg::LockRequest {
                        lock,
                        acquirer,
                        clock,
                    }
                } else {
                    WireMsg::LockForward {
                        lock,
                        acquirer,
                        clock,
                    }
                }
            }
            WireKind::LockGrant => {
                let lock = LockId::new(r.u32()?);
                r.u32()?; // reserved
                let clock = r.clock(ctx)?;
                let notices = NoticeBatch::read(&mut r)?;
                let diffs = read_diff_list(&mut r)?;
                WireMsg::LockGrant {
                    lock,
                    clock,
                    notices,
                    diffs,
                }
            }
            WireKind::BarrierArrival => {
                let barrier = BarrierId::new(r.u32()?);
                let proc = ProcId::new(r.u16()?);
                r.u16()?; // reserved
                let clock = r.clock(ctx)?;
                let notices = NoticeBatch::read(&mut r)?;
                WireMsg::BarrierArrival {
                    barrier,
                    proc,
                    clock,
                    notices,
                }
            }
            WireKind::BarrierExit => {
                let barrier = BarrierId::new(r.u32()?);
                r.u32()?; // reserved
                let clock = r.clock(ctx)?;
                let notices = NoticeBatch::read(&mut r)?;
                WireMsg::BarrierExit {
                    barrier,
                    clock,
                    notices,
                }
            }
            WireKind::MissRequest => {
                let page = PageId::new(r.u32()?);
                let want_base = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(malformed(format!("bad want_base {other}"))),
                };
                let count = r.u16()? as usize;
                let mut wanted = Vec::with_capacity(count.min(1 << 12));
                for _ in 0..count {
                    let iv = IntervalId::read_wire(r.rest()).ok_or(WireError::Truncated(r.at))?;
                    r.skip(IntervalId::WIRE_BYTES);
                    wanted.push((iv, PageId::new(r.u32()?)));
                }
                WireMsg::MissRequest {
                    page,
                    wanted,
                    want_base,
                }
            }
            WireKind::MissReply => {
                let page = PageId::new(r.u32()?);
                let base = match r.u8()? {
                    0 => None,
                    1 => {
                        let len = r.u32()? as usize;
                        Some(r.take(len)?.to_vec())
                    }
                    other => return Err(malformed(format!("bad base flag {other}"))),
                };
                let diffs = read_diff_list(&mut r)?;
                WireMsg::MissReply { page, base, diffs }
            }
            WireKind::Notices => {
                let clock = r.clock(ctx)?;
                let notices = NoticeBatch::read(&mut r)?;
                WireMsg::Notices { clock, notices }
            }
            WireKind::RejoinRequest => {
                let node = r.u16()?;
                let proc = ProcId::new(r.u16()?);
                let len = r.u32()? as usize;
                let checkpoint = r.take(len)?.to_vec();
                WireMsg::RejoinRequest {
                    node,
                    proc,
                    checkpoint,
                }
            }
            WireKind::RejoinReply => {
                let result = match r.u8()? {
                    0 => Ok(r.u64()?),
                    1 => {
                        let len = r.u32()? as usize;
                        let payload = r.take(len)?.to_vec();
                        Err(String::from_utf8(payload)
                            .map_err(|_| malformed("error text is not UTF-8"))?)
                    }
                    other => return Err(malformed(format!("unknown rejoin status {other}"))),
                };
                WireMsg::RejoinReply { result }
            }
        };
        if r.at != body.len() {
            return Err(malformed(format!(
                "{} trailing bytes after {kind}",
                body.len() - r.at
            )));
        }
        Ok(msg)
    }

    /// Encodes the message as a complete frame in one exact-size buffer;
    /// [`Frame::encode`] fills in its header.
    pub fn encode_frame(&self, src: NodeId, dst: NodeId, seq: u64) -> Frame<FrameBuf> {
        let body_len = self.body_len();
        let mut bytes = Vec::with_capacity(FRAME_HEADER_BYTES + body_len);
        bytes.resize(FRAME_HEADER_BYTES, 0);
        self.write_body(&mut bytes);
        debug_assert_eq!(
            bytes.len(),
            FRAME_HEADER_BYTES + body_len,
            "body_len is exact"
        );
        Frame {
            kind: self.kind(),
            src,
            dst,
            seq,
            body: FrameBuf(bytes),
        }
    }
}

/// A bounds-checked cursor over a message body.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let slice = self
            .bytes
            .get(self.at..self.at + n)
            .ok_or(WireError::Truncated(self.at))?;
        self.at += n;
        Ok(slice)
    }

    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.at..]
    }

    fn skip(&mut self, n: usize) {
        self.at += n;
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn clock(&mut self, ctx: &WireCtx) -> Result<VectorClock, WireError> {
        let vc = VectorClock::read_wire(self.rest(), ctx.n_procs)
            .ok_or(WireError::Truncated(self.at))?;
        self.skip(4 * ctx.n_procs);
        Ok(vc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> WireCtx {
        WireCtx { n_procs: 3 }
    }

    fn clock() -> VectorClock {
        let mut vc = VectorClock::new(3);
        vc.set(ProcId::new(0), 4);
        vc.set(ProcId::new(2), 9);
        vc
    }

    fn round_trip(msg: WireMsg) {
        let frame = msg.encode_frame(0, 1, 42);
        let wire_len = frame.wire_len();
        let bytes = frame.encode();
        assert_eq!(bytes.len(), wire_len);
        let (back, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(
            (back.kind, back.src, back.dst, back.seq),
            (msg.kind(), 0, 1, 42)
        );
        assert_eq!(back.body, msg.encode_body());
        let decoded = WireMsg::decode(back.kind, back.body, &ctx()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn every_message_kind_round_trips() {
        let notices = NoticeBatch {
            intervals: vec![NoticeInterval {
                id: IntervalId::new(ProcId::new(1), 7),
                stamp_entry: 7,
                pages: vec![PageId::new(0), PageId::new(5)],
            }],
        };
        let diff = {
            use lrc_pagemem::{PageBuf, PageSize};
            let twin = PageBuf::zeroed(PageSize::new(64).unwrap());
            let mut cur = twin.clone();
            cur.write(8, &[3; 5]);
            Diff::between(&twin, &cur)
        };
        let wire_diff = WireDiff {
            page: PageId::new(5),
            stamp: 7,
            diff,
        };
        for msg in [
            WireMsg::Hello {
                node: 1,
                procs: vec![ProcId::new(2), ProcId::new(3)],
            },
            WireMsg::Shutdown,
            WireMsg::OpRequest {
                proc: ProcId::new(1),
                op: EngineOp::Write {
                    addr: 640,
                    data: vec![1, 2, 3],
                },
            },
            WireMsg::OpReply {
                result: Ok(vec![9; 8]),
            },
            WireMsg::OpReply {
                result: Err("lk0 is held by p1".into()),
            },
            WireMsg::LockRequest {
                lock: LockId::new(3),
                acquirer: ProcId::new(1),
                clock: clock(),
            },
            WireMsg::LockForward {
                lock: LockId::new(3),
                acquirer: ProcId::new(1),
                clock: clock(),
            },
            WireMsg::LockGrant {
                lock: LockId::new(3),
                clock: clock(),
                notices: notices.clone(),
                diffs: vec![wire_diff.clone()],
            },
            WireMsg::BarrierArrival {
                barrier: BarrierId::new(0),
                proc: ProcId::new(2),
                clock: clock(),
                notices: notices.clone(),
            },
            WireMsg::BarrierExit {
                barrier: BarrierId::new(0),
                clock: clock(),
                notices: notices.clone(),
            },
            WireMsg::MissRequest {
                page: PageId::new(5),
                wanted: vec![(IntervalId::new(ProcId::new(1), 7), PageId::new(5))],
                want_base: true,
            },
            WireMsg::MissReply {
                page: PageId::new(5),
                base: Some(vec![0; 64]),
                diffs: vec![wire_diff],
            },
            WireMsg::Notices {
                clock: clock(),
                notices,
            },
            WireMsg::RejoinRequest {
                node: 2,
                proc: ProcId::new(1),
                checkpoint: vec![7; 40],
            },
            WireMsg::RejoinReply { result: Ok(3) },
            WireMsg::RejoinReply {
                result: Err("incompatible checkpoint: store era changed".into()),
            },
        ] {
            round_trip(msg);
        }
    }

    #[test]
    fn frame_rejects_corruption() {
        let frame = WireMsg::Shutdown.encode_frame(0, 1, 1);
        let bytes = frame.encode();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(Frame::decode(&bad).unwrap_err(), WireError::BadMagic);
        // Foreign version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            Frame::decode(&bad).unwrap_err(),
            WireError::UnsupportedVersion(99)
        ));
        // Unknown kind.
        let mut bad = bytes.clone();
        bad[6] = 200;
        assert!(matches!(
            Frame::decode(&bad).unwrap_err(),
            WireError::UnknownKind(200)
        ));
        // Truncated header.
        assert!(matches!(
            Frame::decode(&bytes[..10]).unwrap_err(),
            WireError::Truncated(_)
        ));
    }

    #[test]
    fn checksum_catches_flipped_body_bytes() {
        let frame = WireMsg::Hello {
            node: 2,
            procs: vec![ProcId::new(0)],
        }
        .encode_frame(2, 0, 0);
        let mut bytes = frame.encode();
        *bytes.last_mut().unwrap() ^= 0x40;
        assert_eq!(Frame::decode(&bytes).unwrap_err(), WireError::BadChecksum);
    }

    /// Pins version 3's sum: a change to any of these is a format change
    /// and needs a [`WIRE_VERSION`] bump. Bodies under one stripe (0 and 7
    /// bytes) skip the lanes and keep their version-2 sums.
    #[test]
    fn checksum_known_answers() {
        let patterned = |len: usize| (0..len).map(|i| (i * 37 + 11) as u8).collect::<Vec<_>>();
        for (len, sum) in [
            (0, 0x4fd0_bfc1),
            (7, 0x1244_72f2),
            (32, 0x0464_507c),
            (100, 0x8961_2123),
            (4096, 0x9403_998b),
        ] {
            assert_eq!(checksum(&patterned(len)), sum, "body of {len} bytes");
        }
    }

    #[test]
    fn an_owned_frame_keeps_its_buffer_and_refuses_a_tail() {
        let msg = WireMsg::OpReply {
            result: Ok(vec![5; 16]),
        };
        let bytes = msg.encode_frame(3, 4, 5).encode();
        let buffer = bytes.as_ptr();
        let frame = Frame::from_wire(bytes.clone()).unwrap();
        assert_eq!(
            (frame.kind, frame.src, frame.dst, frame.seq),
            (WireKind::OpReply, 3, 4, 5)
        );
        assert_eq!(frame.body, msg.encode_body());
        assert_eq!(Frame::from_wire(bytes).unwrap().body.as_ptr(), buffer);

        let mut long = msg.encode_frame(3, 4, 5).encode();
        long.push(0);
        assert!(matches!(
            Frame::from_wire(long).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let msg = WireMsg::Shutdown;
        let mut body = msg.encode_body();
        body.push(0);
        assert!(matches!(
            WireMsg::decode(WireKind::Shutdown, &body, &ctx()).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn header_matches_modeled_overhead() {
        assert_eq!(
            FRAME_HEADER_BYTES as u64,
            lrc_simnet::MSG_HEADER_BYTES,
            "frame header must cost exactly what the model charges"
        );
    }

    #[test]
    fn kind_tags_are_dense() {
        for (i, kind) in WireKind::ALL.iter().enumerate() {
            assert_eq!(kind.tag() as usize, i);
            assert_eq!(WireKind::from_tag(kind.tag()), Some(*kind));
        }
        assert_eq!(WireKind::from_tag(99), None);
    }

    #[test]
    fn errors_display() {
        assert!(WireError::BadChecksum.to_string().contains("checksum"));
        assert!(WireError::Truncated(7).to_string().contains('7'));
    }
}
