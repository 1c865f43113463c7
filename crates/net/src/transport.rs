//! The pluggable transport abstraction.
//!
//! A [`Transport`] moves encoded [`Frame`]s between *nodes* (operating
//! system processes or test-local endpoints — not to be confused with the
//! DSM's simulated processors, several of which may live on one node).
//! Two backends ship with the crate: the deterministic in-process
//! [`ChannelTransport`](crate::ChannelTransport) and the
//! [`TcpTransport`](crate::TcpTransport), the one socket backend, with
//! length-prefixed framing. Both count the bytes they actually move, so
//! the modeled byte accounting of `lrc-simnet` can be cross-checked
//! against a measurement; the socket backend also counts its writes
//! ([`WireStats::flushes`]).

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::wire::{Frame, WireError, WireKind, WireMsg};

/// Identifier of a transport endpoint (a node of the deployment).
pub type NodeId = u16;

/// Errors surfaced by transports.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NetError {
    /// The peer (or the whole session) is gone.
    Closed,
    /// The destination node is not connected.
    UnknownPeer(NodeId),
    /// An underlying I/O failure (rendered; `io::Error` is not `Clone`).
    Io(String),
    /// The byte stream did not decode.
    Wire(WireError),
    /// A hub's bounded accept phase expired before every expected spoke
    /// connected (or an accepted spoke never sent its opening `Hello`).
    /// Names the peers that *did* make it, so the missing ones are
    /// deducible from the deployment's node list.
    AcceptTimeout {
        /// How many spokes the hub expected.
        wanted: usize,
        /// Node ids of the spokes that connected and identified
        /// themselves before the deadline.
        connected: Vec<NodeId>,
    },
    /// During a hub's initial accept, a spoke announced a node id that is
    /// already taken — by an earlier spoke or by the hub itself. Both
    /// would be addressed by one id, so replies meant for one would reach
    /// the other; the deployment's node list is wrong.
    DuplicatePeer(NodeId),
    /// A bounded retry/backoff budget ([`Backoff`]) ran out before a
    /// connection (or reconnection) succeeded.
    ConnectTimeout {
        /// Connection attempts made before giving up.
        attempts: u32,
        /// The last underlying failure, rendered.
        last: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Closed => write!(f, "transport closed"),
            NetError::UnknownPeer(n) => write!(f, "no connection to node {n}"),
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::AcceptTimeout { wanted, connected } => write!(
                f,
                "accept timed out: {}/{wanted} peers connected (nodes {connected:?}), \
                 {} still missing",
                connected.len(),
                wanted - connected.len()
            ),
            NetError::DuplicatePeer(n) => {
                write!(f, "a second peer announced node id {n}, already in use")
            }
            NetError::ConnectTimeout { attempts, last } => write!(
                f,
                "connect gave up after {attempts} attempts (last error: {last})"
            ),
        }
    }
}

impl Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

/// A bounded, jittered exponential backoff schedule for connection
/// retries (initial connects and self-healing reconnects alike).
///
/// The schedule is a pure function of its parameters: attempt `i`
/// (0-based) sleeps `min(cap, base · 2^i)` scaled by a jitter factor in
/// `[0.5, 1.0]` drawn from a seeded xorshift stream — randomized enough
/// to de-synchronize a thundering herd, deterministic enough that a
/// failing run replays exactly (the same property the fault plans lean
/// on). Once `attempts` tries have failed, the caller reports
/// [`NetError::ConnectTimeout`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempts: u32,
    seed: u64,
}

impl Default for Backoff {
    /// 8 attempts, 25 ms doubling toward a 1 s cap — under 4 s worst
    /// case, long enough to ride out a restarting peer.
    fn default() -> Self {
        Backoff::new(Duration::from_millis(25), Duration::from_secs(1), 8)
    }
}

impl Backoff {
    /// A schedule of `attempts` tries, sleeping `base · 2^i` (capped at
    /// `cap`, jittered) after the i-th failure.
    pub fn new(base: Duration, cap: Duration, attempts: u32) -> Backoff {
        Backoff {
            base,
            cap,
            attempts,
            seed: 0x2545_f491_4f6c_dd1d,
        }
    }

    /// Sets the jitter seed (`0` is mapped to `1`; xorshift has no zero
    /// state).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Backoff {
        self.seed = if seed == 0 { 1 } else { seed };
        self
    }

    /// The try budget.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The jittered sleep after the `attempt`-th failure (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.cap);
        // One xorshift64 step per prior attempt keeps the draw a pure
        // function of (seed, attempt).
        let mut rng = self.seed;
        for _ in 0..=attempt {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
        }
        let jitter_millis = (exp.as_millis() as u64 / 2).saturating_mul(rng % 1000) / 1000;
        exp / 2 + Duration::from_millis(jitter_millis)
    }

    /// Runs `try_once` up to the attempt budget, sleeping the jittered
    /// schedule between failures.
    ///
    /// # Errors
    ///
    /// [`NetError::ConnectTimeout`] carrying the attempt count and the
    /// last underlying failure once the budget is spent.
    pub fn retry<T>(
        &self,
        mut try_once: impl FnMut() -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut last = NetError::Closed;
        for attempt in 0..self.attempts.max(1) {
            match try_once() {
                Ok(v) => return Ok(v),
                Err(e) => last = e,
            }
            if attempt + 1 < self.attempts.max(1) {
                std::thread::sleep(self.delay(attempt));
            }
        }
        Err(NetError::ConnectTimeout {
            attempts: self.attempts.max(1),
            last: last.to_string(),
        })
    }
}

/// A snapshot of one endpoint's measured traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WireStats {
    /// Frames sent.
    pub msgs_sent: u64,
    /// Bytes sent (headers + bodies, as encoded).
    pub bytes_sent: u64,
    /// Frames received.
    pub msgs_received: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Socket writes issued for the sent frames. Frames already queued
    /// for one peer share a write, so `msgs_sent / flushes > 1` means
    /// bursts coalesced; a strict request→reply exchange has one write
    /// per frame. Always 0 on the in-process channel backend.
    pub flushes: u64,
}

impl std::ops::Add for WireStats {
    type Output = WireStats;

    fn add(self, other: WireStats) -> WireStats {
        WireStats {
            msgs_sent: self.msgs_sent + other.msgs_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            msgs_received: self.msgs_received + other.msgs_received,
            bytes_received: self.bytes_received + other.bytes_received,
            flushes: self.flushes + other.flushes,
        }
    }
}

/// Internal per-endpoint traffic meter (atomics; snapshot with
/// [`WireMeter::stats`]).
#[derive(Debug, Default)]
pub struct WireMeter {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_received: AtomicU64,
    bytes_received: AtomicU64,
    flushes: AtomicU64,
    sent_by_kind: [AtomicU64; WireKind::COUNT],
    sent_bytes_by_kind: [AtomicU64; WireKind::COUNT],
}

impl WireMeter {
    /// Records one sent frame.
    pub fn count_sent(&self, kind: WireKind, bytes: usize) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        self.sent_by_kind[kind.tag() as usize].fetch_add(1, Ordering::Relaxed);
        self.sent_bytes_by_kind[kind.tag() as usize].fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one received frame.
    pub fn count_received(&self, bytes: usize) {
        self.msgs_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one socket write (carrying one or more queued frames).
    pub fn count_flush(&self) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Aggregate snapshot.
    pub fn stats(&self) -> WireStats {
        WireStats {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            msgs_received: self.msgs_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }

    /// Sent traffic of one message kind: `(frames, bytes)`.
    pub fn sent_of(&self, kind: WireKind) -> (u64, u64) {
        (
            self.sent_by_kind[kind.tag() as usize].load(Ordering::Relaxed),
            self.sent_bytes_by_kind[kind.tag() as usize].load(Ordering::Relaxed),
        )
    }
}

/// Encodes a message into frame bytes, refusing bodies over
/// [`crate::wire::MAX_BODY_BYTES`] *at the sender* — the receiver would
/// reject the header anyway, but failing here surfaces a typed error
/// instead of a wedged session.
pub(crate) fn encode_frame_checked(
    msg: &WireMsg,
    src: NodeId,
    dst: NodeId,
    seq: u64,
) -> Result<Vec<u8>, NetError> {
    let frame = msg.encode_frame(src, dst, seq);
    if frame.body.len() > crate::wire::MAX_BODY_BYTES {
        return Err(NetError::Wire(WireError::Malformed(format!(
            "body of {} bytes exceeds the {} byte cap",
            frame.body.len(),
            crate::wire::MAX_BODY_BYTES
        ))));
    }
    Ok(frame.encode())
}

/// A reliable, ordered, frame-oriented link between nodes.
///
/// Implementations encode the message once ([`WireMsg::encode_frame`] +
/// [`Frame::encode`]) and meter the encoded length, so "bytes sent" means
/// the same thing on every backend. `recv` blocks. Sessions normally end
/// with a [`WireMsg::Shutdown`] message; the TCP backend additionally
/// reports [`NetError::Closed`] once every peer link has died (EOF or a
/// corrupt stream), so an ungraceful peer death surfaces as an error
/// instead of a hang. A channel endpoint can also enqueue to itself, so
/// it only closes when the whole mesh is dropped.
pub trait Transport: Send + Sync {
    /// This endpoint's node id.
    fn node(&self) -> NodeId;

    /// Encodes and sends `msg` to `dst` with correlation id `seq`.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownPeer`] for unconnected destinations,
    /// [`NetError::Closed`] / [`NetError::Io`] for dead links.
    fn send(&self, msg: &WireMsg, dst: NodeId, seq: u64) -> Result<(), NetError>;

    /// Receives the next frame, blocking until one arrives.
    ///
    /// The frame's header (magic, version, kind, checksum) is already
    /// validated; decode the body with [`WireMsg::decode`] and the
    /// session's [`crate::WireCtx`].
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] once no more frames can arrive.
    fn recv(&self) -> Result<Frame, NetError>;

    /// Measured traffic of this endpoint.
    fn stats(&self) -> WireStats;

    /// The link's reconnect generation: bumped by self-healing wrappers
    /// ([`crate::SelfHealing`]) every time the underlying connection is
    /// replaced; `0` forever on plain transports. Callers snapshot it
    /// around a blocking request/reply and re-send (same correlation id)
    /// when it moved — the in-flight reply died with the old link.
    fn generation(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_both_directions() {
        let m = WireMeter::default();
        m.count_sent(WireKind::OpRequest, 40);
        m.count_sent(WireKind::OpRequest, 50);
        m.count_received(32);
        m.count_flush();
        let s = m.stats();
        assert_eq!(s.msgs_sent, 2);
        assert_eq!(s.bytes_sent, 90);
        assert_eq!(s.msgs_received, 1);
        assert_eq!(s.bytes_received, 32);
        assert_eq!(s.flushes, 1);
        assert_eq!((s + s).bytes_sent, 180, "snapshots add field by field");
        assert_eq!(m.sent_of(WireKind::OpRequest), (2, 90));
        assert_eq!(m.sent_of(WireKind::Hello), (0, 0));
    }

    #[test]
    fn errors_render() {
        assert!(NetError::Closed.to_string().contains("closed"));
        assert!(NetError::UnknownPeer(3).to_string().contains('3'));
        assert!(NetError::from(WireError::BadMagic)
            .to_string()
            .contains("magic"));
    }
}
