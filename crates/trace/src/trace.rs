use std::fmt;

use lrc_sync::{BarrierId, LockId};
use lrc_vclock::ProcId;

use crate::validate::Legality;
use crate::{Event, Op, TraceError};

/// Static description of the system a trace ran on.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceMeta {
    name: String,
    n_procs: usize,
    n_locks: usize,
    n_barriers: usize,
    mem_bytes: u64,
}

impl TraceMeta {
    /// Creates trace metadata.
    ///
    /// # Panics
    ///
    /// Panics if `n_procs` is zero or `mem_bytes` is zero.
    pub fn new(
        name: impl Into<String>,
        n_procs: usize,
        n_locks: usize,
        n_barriers: usize,
        mem_bytes: u64,
    ) -> Self {
        assert!(n_procs > 0, "a trace needs at least one processor");
        assert!(mem_bytes > 0, "a trace needs a non-empty shared space");
        TraceMeta {
            name: name.into(),
            n_procs,
            n_locks,
            n_barriers,
            mem_bytes,
        }
    }

    /// Workload name (e.g. `"locusroute"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processors.
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// Number of locks.
    pub fn n_locks(&self) -> usize {
        self.n_locks
    }

    /// Number of barriers.
    pub fn n_barriers(&self) -> usize {
        self.n_barriers
    }

    /// Size of the shared address space in bytes.
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }
}

impl fmt::Display for TraceMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} procs, {} locks, {} barriers, {} bytes shared",
            self.name, self.n_procs, self.n_locks, self.n_barriers, self.mem_bytes
        )
    }
}

/// A legal global interleaving of shared-memory events.
///
/// Legality means: accesses stay in bounds, locks are acquired only when
/// free and released only by their holder, and a processor that arrived at
/// a barrier stays silent until the episode completes. Every constructor
/// enforces it: [`TraceBuilder`] incrementally, [`Trace::from_parts`] (and
/// so [`codec::from_text`](crate::codec::from_text), which builds through
/// it) on foreign input, and [`interleave`](crate::interleave) as it
/// schedules. A `Trace` value is therefore always legal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    meta: TraceMeta,
    events: Vec<Event>,
}

impl Trace {
    pub(crate) fn from_parts_unchecked(meta: TraceMeta, events: Vec<Event>) -> Self {
        Trace { meta, events }
    }

    /// Builds a trace from parts, validating legality.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] encountered.
    pub fn from_parts(meta: TraceMeta, events: Vec<Event>) -> Result<Self, TraceError> {
        let trace = Trace { meta, events };
        crate::validate(&trace)?;
        Ok(trace)
    }

    /// The trace metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The events in global order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace[{}; {} events]", self.meta, self.events.len())
    }
}

/// Incremental, validating trace constructor.
///
/// Every append is checked against the running synchronization state, so a
/// finished builder always yields a legal [`Trace`]. Workload generators
/// use this as their only output path — an illegal generator is caught at
/// generation time, not at simulation time.
///
/// # Example
///
/// ```
/// use lrc_trace::{TraceBuilder, TraceMeta};
/// use lrc_sync::BarrierId;
/// use lrc_vclock::ProcId;
///
/// let mut b = TraceBuilder::new(TraceMeta::new("t", 2, 0, 1, 1024));
/// b.write(ProcId::new(0), 0, 8)?;
/// b.barrier_all(BarrierId::new(0))?; // every processor arrives
/// b.read(ProcId::new(1), 0, 8)?;
/// let trace = b.finish()?;
/// assert_eq!(trace.len(), 4);
/// # Ok::<(), lrc_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct TraceBuilder {
    meta: TraceMeta,
    events: Vec<Event>,
    legality: Legality,
}

impl TraceBuilder {
    /// Creates a builder for a system described by `meta`.
    pub fn new(meta: TraceMeta) -> Self {
        let legality = Legality::new(&meta);
        TraceBuilder {
            meta,
            events: Vec::new(),
            legality,
        }
    }

    /// Appends an arbitrary event.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the event would make the trace illegal;
    /// the builder is unchanged in that case.
    pub(crate) fn push(&mut self, event: Event) -> Result<(), TraceError> {
        self.legality.admit(self.events.len(), &event)?;
        self.events.push(event);
        Ok(())
    }

    /// Appends a read.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the event would make the trace illegal;
    /// the builder is unchanged in that case.
    pub fn read(&mut self, p: ProcId, addr: u64, len: u32) -> Result<(), TraceError> {
        self.push(Event::new(p, Op::Read { addr, len }))
    }

    /// Appends a write.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the event would make the trace illegal;
    /// the builder is unchanged in that case.
    pub fn write(&mut self, p: ProcId, addr: u64, len: u32) -> Result<(), TraceError> {
        self.push(Event::new(p, Op::Write { addr, len }))
    }

    /// Appends a lock acquire.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the event would make the trace illegal;
    /// the builder is unchanged in that case.
    pub fn acquire(&mut self, p: ProcId, lock: LockId) -> Result<(), TraceError> {
        self.push(Event::new(p, Op::Acquire(lock)))
    }

    /// Appends a lock release.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the event would make the trace illegal;
    /// the builder is unchanged in that case.
    pub fn release(&mut self, p: ProcId, lock: LockId) -> Result<(), TraceError> {
        self.push(Event::new(p, Op::Release(lock)))
    }

    /// Appends a barrier arrival.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the event would make the trace illegal;
    /// the builder is unchanged in that case.
    pub(crate) fn barrier(&mut self, p: ProcId, barrier: BarrierId) -> Result<(), TraceError> {
        self.push(Event::new(p, Op::Barrier(barrier)))
    }

    /// Appends barrier arrivals for every processor, in processor order —
    /// the common "whole machine synchronizes" step.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the event would make the trace illegal;
    /// the builder is unchanged in that case.
    pub fn barrier_all(&mut self, barrier: BarrierId) -> Result<(), TraceError> {
        for p in ProcId::all(self.meta.n_procs()) {
            self.barrier(p, barrier)?;
        }
        Ok(())
    }

    /// Finishes the trace.
    ///
    /// # Errors
    ///
    /// [`TraceError::DanglingSync`] if a lock is still held or a barrier
    /// episode is incomplete — such a trace would deadlock a replay.
    pub fn finish(self) -> Result<Trace, TraceError> {
        self.legality.finish()?;
        Ok(Trace::from_parts_unchecked(self.meta, self.events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn meta() -> TraceMeta {
        TraceMeta::new("t", 2, 1, 1, 1024)
    }

    #[test]
    fn builder_accepts_legal_sequences() {
        let mut b = TraceBuilder::new(meta());
        b.acquire(p(0), LockId::new(0)).unwrap();
        b.write(p(0), 0, 8).unwrap();
        b.release(p(0), LockId::new(0)).unwrap();
        b.barrier_all(BarrierId::new(0)).unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.meta().name(), "t");
    }

    #[test]
    fn builder_rejects_illegal_and_stays_usable() {
        let mut b = TraceBuilder::new(meta());
        // Acquire by p0, then p1 tries to acquire the same lock.
        b.acquire(p(0), LockId::new(0)).unwrap();
        assert!(b.acquire(p(1), LockId::new(0)).is_err());
        // The builder still works.
        b.release(p(0), LockId::new(0)).unwrap();
        b.acquire(p(1), LockId::new(0)).unwrap();
        b.release(p(1), LockId::new(0)).unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.len(), 4, "failed append must not modify the trace");
    }

    #[test]
    fn finish_rejects_dangling_lock() {
        let mut b = TraceBuilder::new(meta());
        b.acquire(p(0), LockId::new(0)).unwrap();
        assert!(matches!(b.finish(), Err(TraceError::DanglingSync { .. })));
    }

    #[test]
    fn finish_rejects_incomplete_barrier() {
        let mut b = TraceBuilder::new(meta());
        b.barrier(p(0), BarrierId::new(0)).unwrap();
        assert!(matches!(b.finish(), Err(TraceError::DanglingSync { .. })));
    }

    #[test]
    fn from_parts_validates() {
        let events = vec![Event::new(p(0), Op::Release(LockId::new(0)))];
        assert!(Trace::from_parts(meta(), events).is_err());
        let events = vec![Event::new(p(0), Op::Write { addr: 0, len: 4 })];
        assert!(Trace::from_parts(meta(), events).is_ok());
    }

    #[test]
    fn meta_accessors() {
        let m = meta();
        assert_eq!(m.n_procs(), 2);
        assert_eq!(m.n_locks(), 1);
        assert_eq!(m.n_barriers(), 1);
        assert_eq!(m.mem_bytes(), 1024);
        assert!(m.to_string().contains("2 procs"));
    }
}
