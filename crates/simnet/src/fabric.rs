use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use lrc_vclock::ProcId;
use parking_lot::lockdep::classes;
use parking_lot::Mutex;

use crate::{MsgKind, NetStats};

/// A statistics cell: one `u64` a meter counts into. A relaxed
/// [`AtomicU64`] where several threads charge one meter, a [`Cell<u64>`]
/// where only one thread can reach it — there a read-modify-write is a
/// load and a store, exact because nobody else writes in between. The
/// values are statistics, not synchronization: no operation orders any
/// other memory access.
pub trait Tally: Default + fmt::Debug {
    /// The current value.
    fn get(&self) -> u64;
    /// Adds `n`, returning the value before.
    fn add(&self, n: u64) -> u64;
    /// Subtracts `n`.
    fn sub(&self, n: u64);
    /// Raises the value to at least `value` (a high-water mark).
    fn raise(&self, value: u64);
}

impl Tally for AtomicU64 {
    fn get(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }

    fn add(&self, n: u64) -> u64 {
        self.fetch_add(n, Ordering::Relaxed)
    }

    fn sub(&self, n: u64) {
        self.fetch_sub(n, Ordering::Relaxed);
    }

    /// A value that does not raise the mark costs a load, not a
    /// read-modify-write.
    fn raise(&self, value: u64) {
        if value > self.load(Ordering::Relaxed) {
            self.fetch_max(value, Ordering::Relaxed);
        }
    }
}

impl Tally for Cell<u64> {
    fn get(&self) -> u64 {
        Cell::get(self)
    }

    fn add(&self, n: u64) -> u64 {
        let before = Cell::get(self);
        self.set(before + n);
        before
    }

    fn sub(&self, n: u64) {
        self.set(Cell::get(self) - n);
    }

    fn raise(&self, value: u64) {
        if value > Cell::get(self) {
            self.set(value);
        }
    }
}

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
/// The meter counts into per-kind [`Tally`] cells `C`. With the default
/// relaxed atomics, concurrently running processors of a threaded runtime
/// charge traffic without contending on a lock; a single-threaded
/// simulator meters into `Cell<u64>`s instead, and the fabric is then not
/// `Sync`. [`Fabric::stats`] aggregates the cells into a plain
/// [`NetStats`] snapshot on read.
#[derive(Debug, Default)]
pub struct Fabric<C = AtomicU64> {
    n_procs: usize,
    msgs: [C; MsgKind::COUNT],
    bytes: [C; MsgKind::COUNT],
    trace_on: AtomicBool,
    trace: Mutex<Vec<MsgRecord>>,
}

impl Fabric {
    /// Creates a fabric connecting `n_procs` processors, metered in
    /// relaxed atomics.
    ///
    /// # Panics
    ///
    /// Panics if `n_procs` is zero.
    pub fn new(n_procs: usize) -> Self {
        Fabric::with_cells(n_procs)
    }
}

impl<C: Tally> Fabric<C> {
    /// Creates a fabric connecting `n_procs` processors, metered in cells
    /// of type `C`.
    ///
    /// # Panics
    ///
    /// Panics if `n_procs` is zero.
    pub fn with_cells(n_procs: usize) -> Self {
        assert!(n_procs > 0, "a fabric needs at least one processor");
        Fabric {
            n_procs,
            trace: Mutex::new_in(Vec::new(), classes::SIMNET_TRACE),
            ..Fabric::default()
        }
    }

    /// Starts logging individual messages (unbounded; intended for tests).
    pub fn enable_trace(&self) {
        self.trace_on.store(true, Ordering::Release);
    }

    /// The logged messages, empty unless [`Fabric::enable_trace`] was
    /// called. Returns a snapshot: messages sent after the call are not in
    /// the returned vector.
    pub fn traced(&self) -> Vec<MsgRecord> {
        if !self.trace_on.load(Ordering::Acquire) {
            return Vec::new();
        }
        self.trace.lock().clone()
    }

    /// Sends one message of `kind` with `payload` bytes from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or if `src == dst` — local
    /// operations must not be charged as messages (that is the whole point
    /// of laziness).
    pub fn send(&self, src: ProcId, dst: ProcId, kind: MsgKind, payload: u64) {
        assert!(src.index() < self.n_procs, "source {src} out of range");
        assert!(dst.index() < self.n_procs, "destination {dst} out of range");
        assert_ne!(src, dst, "{src} attempted to send {kind} to itself");
        self.msgs[kind.index()].add(1);
        self.bytes[kind.index()].add(crate::MSG_HEADER_BYTES + payload);
        if self.trace_on.load(Ordering::Acquire) {
            self.trace.lock().push(MsgRecord {
                src,
                dst,
                kind,
                payload,
            });
        }
    }

    /// A request/reply exchange: two messages with separate payloads.
    pub fn round_trip(
        &self,
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

    /// Aggregates the per-kind cells into a statistics snapshot.
    pub fn stats(&self) -> NetStats {
        let mut out = NetStats::new();
        for &kind in MsgKind::ALL.iter() {
            out.set(
                kind,
                self.msgs[kind.index()].get(),
                self.bytes[kind.index()].get(),
            );
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
        let f = Fabric::new(2);
        f.send(p(0), p(1), MsgKind::LockRequest, 8);
        assert_eq!(f.stats().total().msgs, 1);
        assert_eq!(f.stats().class(OpClass::Lock).msgs, 1);
    }

    #[test]
    fn round_trip_counts_two_messages() {
        let f = Fabric::new(2);
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
        let f = Fabric::new(2);
        f.send(p(1), p(1), MsgKind::LockRequest, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_endpoint_rejected() {
        let f = Fabric::new(2);
        f.send(p(0), p(5), MsgKind::LockRequest, 0);
    }

    #[test]
    fn trace_records_in_order() {
        let f = Fabric::new(3);
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
        let f = Fabric::new(2);
        f.send(p(0), p(1), MsgKind::LockRequest, 0);
        assert!(f.traced().is_empty());
    }

    #[test]
    fn one_thread_cells_meter_like_atomics() {
        let f = Fabric::<Cell<u64>>::with_cells(2);
        f.round_trip(p(0), p(1), MsgKind::MissRequest, 4, MsgKind::MissReply, 512);
        f.send(p(1), p(0), MsgKind::LockGrant, 8);
        let g = Fabric::new(2);
        g.round_trip(p(0), p(1), MsgKind::MissRequest, 4, MsgKind::MissReply, 512);
        g.send(p(1), p(0), MsgKind::LockGrant, 8);
        assert_eq!(f.stats(), g.stats());
    }

    #[test]
    fn tally_cells_agree() {
        let (a, c) = (AtomicU64::new(0), Cell::new(0u64));
        assert_eq!((a.add(5), c.add(5)), (0, 0));
        assert_eq!((a.add(2), c.add(2)), (5, 5));
        a.sub(3);
        c.sub(3);
        a.raise(1);
        c.raise(1);
        assert_eq!((Tally::get(&a), Tally::get(&c)), (4, 4));
        a.raise(9);
        c.raise(9);
        assert_eq!((Tally::get(&a), Tally::get(&c)), (9, 9));
    }

    #[test]
    fn concurrent_sends_all_counted() {
        let f = std::sync::Arc::new(Fabric::new(2));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let f = std::sync::Arc::clone(&f);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        f.send(p(0), p(1), MsgKind::LockRequest, 8);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(f.stats().kind(MsgKind::LockRequest).msgs, 4000);
    }
}
