use std::fmt;

use lrc_vclock::ProcId;

use crate::{MsgKind, NetStats};

/// A record of one message, kept when tracing is enabled on the [`Fabric`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MsgRecord {
    /// Sending processor.
    pub src: ProcId,
    /// Receiving processor.
    pub dst: ProcId,
    /// Message kind.
    pub kind: MsgKind,
    /// Payload bytes (excluding the fixed header).
    pub payload: u64,
}

impl fmt::Display for MsgRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} {} ({}B)",
            self.src, self.dst, self.kind, self.payload
        )
    }
}

/// The simulated interconnect: reliable, FIFO, no broadcast.
///
/// Protocol engines call [`Fabric::send`] for every message they would put
/// on the wire; the fabric validates the endpoints and meters the traffic.
/// With [`Fabric::enable_trace`] it also keeps an ordered log of
/// [`MsgRecord`]s, which the tests use to assert fine-grained protocol
/// behaviour (e.g. "a release sends nothing under LRC").
///
/// The meter is plain counters, one pair per [`MsgKind`], owned by its
/// engine: whoever drives the engine charges traffic through `&mut`, and
/// [`Fabric::stats`] copies the counters into a [`NetStats`] snapshot.
#[derive(Clone, Debug, Default)]
pub struct Fabric {
    n_procs: usize,
    msgs: [u64; MsgKind::COUNT],
    bytes: [u64; MsgKind::COUNT],
    /// The message log, once [`Fabric::enable_trace`] turned it on.
    trace: Option<Vec<MsgRecord>>,
}

impl Fabric {
    /// Creates a fabric connecting `n_procs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `n_procs` is zero.
    pub fn new(n_procs: usize) -> Self {
        assert!(n_procs > 0, "a fabric needs at least one processor");
        Fabric {
            n_procs,
            ..Fabric::default()
        }
    }

    /// Starts logging individual messages (unbounded; intended for tests).
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
    }

    /// The logged messages, empty unless [`Fabric::enable_trace`] was
    /// called. Returns a snapshot: messages sent after the call are not in
    /// the returned vector.
    pub fn traced(&self) -> Vec<MsgRecord> {
        self.trace.clone().unwrap_or_default()
    }

    /// Sends one message of `kind` with `payload` bytes from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or if `src == dst` — local
    /// operations must not be charged as messages (that is the whole point
    /// of laziness).
    pub fn send(&mut self, src: ProcId, dst: ProcId, kind: MsgKind, payload: u64) {
        assert!(src.index() < self.n_procs, "source {src} out of range");
        assert!(dst.index() < self.n_procs, "destination {dst} out of range");
        assert_ne!(src, dst, "{src} attempted to send {kind} to itself");
        self.msgs[kind.index()] += 1;
        self.bytes[kind.index()] += crate::MSG_HEADER_BYTES + payload;
        if let Some(trace) = &mut self.trace {
            trace.push(MsgRecord {
                src,
                dst,
                kind,
                payload,
            });
        }
    }

    /// A request/reply exchange: two messages with separate payloads.
    #[inline]
    pub fn round_trip(
        &mut self,
        src: ProcId,
        dst: ProcId,
        request: MsgKind,
        request_payload: u64,
        reply: MsgKind,
        reply_payload: u64,
    ) {
        self.send(src, dst, request, request_payload);
        self.send(dst, src, reply, reply_payload);
    }

    /// Copies the per-kind counters into a statistics snapshot.
    pub fn stats(&self) -> NetStats {
        let mut out = NetStats::new();
        for &kind in MsgKind::ALL.iter() {
            out.set(kind, self.msgs[kind.index()], self.bytes[kind.index()]);
        }
        out
    }

    /// Snapshots the statistics (for [`NetStats::since`] deltas).
    pub fn snapshot(&self) -> NetStats {
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpClass;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    #[test]
    fn send_meters_traffic() {
        let mut f = Fabric::new(2);
        f.send(p(0), p(1), MsgKind::LockRequest, 8);
        assert_eq!(f.stats().total().msgs, 1);
        assert_eq!(f.stats().class(OpClass::Lock).msgs, 1);
    }

    #[test]
    fn round_trip_counts_two_messages() {
        let mut f = Fabric::new(2);
        f.round_trip(p(0), p(1), MsgKind::MissRequest, 4, MsgKind::MissReply, 512);
        assert_eq!(f.stats().class(OpClass::Miss).msgs, 2);
        assert_eq!(
            f.stats().total().bytes,
            2 * crate::MSG_HEADER_BYTES + 4 + 512
        );
    }

    #[test]
    #[should_panic(expected = "to itself")]
    fn self_send_rejected() {
        let mut f = Fabric::new(2);
        f.send(p(1), p(1), MsgKind::LockRequest, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_endpoint_rejected() {
        let mut f = Fabric::new(2);
        f.send(p(0), p(5), MsgKind::LockRequest, 0);
    }

    #[test]
    fn trace_records_in_order() {
        let mut f = Fabric::new(3);
        f.enable_trace();
        f.send(p(0), p(1), MsgKind::BarrierArrival, 8);
        f.send(p(1), p(0), MsgKind::BarrierExit, 8);
        let log = f.traced();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].kind, MsgKind::BarrierArrival);
        assert_eq!(log[1].kind, MsgKind::BarrierExit);
        assert_eq!(log[0].to_string(), "p0 -> p1 BarrierArrival (8B)");
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut f = Fabric::new(2);
        f.send(p(0), p(1), MsgKind::LockRequest, 0);
        assert!(f.traced().is_empty());
    }

    #[test]
    /// Threads share a fabric the way the runtime shares its engine:
    /// behind one lock, every send counted.
    fn concurrent_sends_all_counted() {
        let f = std::sync::Arc::new(parking_lot::Mutex::new(Fabric::new(2)));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let f = std::sync::Arc::clone(&f);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        f.lock().send(p(0), p(1), MsgKind::LockRequest, 8);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(f.lock().stats().kind(MsgKind::LockRequest).msgs, 4000);
    }
}
