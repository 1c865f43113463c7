use std::fmt;

use crate::{ProcId, VectorClock};

/// Identifier of one interval of one processor's execution.
///
/// A new interval begins at each special (synchronization) access, so the
/// pair `(processor, sequence number)` names an interval uniquely across the
/// system. Interval 0 is the initial interval, before any synchronization.
///
/// # Example
///
/// ```
/// use lrc_vclock::{IntervalId, ProcId};
///
/// let i = IntervalId::new(ProcId::new(2), 7);
/// assert_eq!(i.proc(), ProcId::new(2));
/// assert_eq!(i.seq(), 7);
/// assert_eq!(i.to_string(), "p2@7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IntervalId {
    proc: ProcId,
    seq: u32,
}

impl IntervalId {
    /// Creates the id of interval `seq` of processor `proc`.
    pub fn new(proc: ProcId, seq: u32) -> Self {
        IntervalId { proc, seq }
    }

    /// The processor whose execution this interval belongs to.
    pub fn proc(self) -> ProcId {
        self.proc
    }

    /// The interval's sequence number within its processor's execution.
    pub fn seq(self) -> u32 {
        self.seq
    }

    /// Wire size of an interval id: processor (`u16`) + sequence (`u32`).
    ///
    /// Two bytes more than `lrc-simnet`'s modeled 4-byte interval field —
    /// the model packs the sequence into 16 bits, which a real execution
    /// can overflow; the measured encoding keeps full fidelity and the
    /// deviation shows up in the modeled-vs-measured cross-check.
    pub const WIRE_BYTES: usize = 6;

    /// Appends the id's wire encoding to `out`.
    pub fn write_wire(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.proc.raw().to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
    }

    /// Decodes an interval id from the front of `bytes`. Returns `None` if
    /// fewer than [`IntervalId::WIRE_BYTES`] bytes are available.
    pub fn read_wire(bytes: &[u8]) -> Option<IntervalId> {
        if bytes.len() < Self::WIRE_BYTES {
            return None;
        }
        let proc = ProcId::new(u16::from_le_bytes([bytes[0], bytes[1]]));
        let seq = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
        Some(IntervalId::new(proc, seq))
    }
}

impl fmt::Display for IntervalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.proc, self.seq)
    }
}

/// An interval together with the vector timestamp it closed with.
///
/// The timestamp of interval `i` of processor `p` has `p`'s entry equal to
/// `i` and records, for every other processor, the latest interval that had
/// performed at `p` while `i` was current. Two stamped intervals are related
/// by happened-before-1 exactly when one's clock covers the other's id.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StampedInterval {
    id: IntervalId,
    clock: VectorClock,
}

impl StampedInterval {
    /// Pairs an interval id with the vector time it carried.
    ///
    /// # Panics
    ///
    /// Panics if the clock's own entry for `id.proc()` disagrees with
    /// `id.seq()`; the stamp would then misrepresent causality.
    pub fn new(id: IntervalId, clock: VectorClock) -> Self {
        assert_eq!(
            clock.get(id.proc()),
            id.seq(),
            "stamp for {id} must carry its own sequence number"
        );
        StampedInterval { id, clock }
    }

    /// The interval's identifier.
    pub fn id(&self) -> IntervalId {
        self.id
    }

    /// The vector timestamp the interval carried.
    pub fn clock(&self) -> &VectorClock {
        &self.clock
    }

    /// True if `self` happened strictly before `other`.
    ///
    /// For intervals of the same processor this is sequence order; across
    /// processors it holds when `other`'s clock covers `self`.
    pub fn happened_before(&self, other: &StampedInterval) -> bool {
        if self.id == other.id {
            return false;
        }
        if self.id.proc() == other.id.proc() {
            return self.id.seq() < other.id.seq();
        }
        other.clock.covers(self.id)
    }

    /// True if neither interval happened before the other.
    pub fn concurrent_with(&self, other: &StampedInterval) -> bool {
        self.id != other.id && !self.happened_before(other) && !other.happened_before(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn stamp(proc: u16, seq: u32, others: &[(u16, u32)]) -> StampedInterval {
        let n = 4;
        let mut vc = VectorClock::new(n);
        vc.set(p(proc), seq);
        for &(q, s) in others {
            vc.set(p(q), s);
        }
        StampedInterval::new(IntervalId::new(p(proc), seq), vc)
    }

    #[test]
    fn same_processor_orders_by_seq() {
        let a = stamp(0, 1, &[]);
        let b = stamp(0, 2, &[]);
        assert!(a.happened_before(&b));
        assert!(!b.happened_before(&a));
        assert!(!a.concurrent_with(&b));
    }

    #[test]
    fn cross_processor_orders_by_coverage() {
        // p1's interval 1 saw p0's interval 2.
        let a = stamp(0, 2, &[]);
        let b = stamp(1, 1, &[(0, 2)]);
        assert!(a.happened_before(&b));
        assert!(!b.happened_before(&a));
    }

    #[test]
    fn unrelated_intervals_are_concurrent() {
        let a = stamp(0, 1, &[]);
        let b = stamp(1, 1, &[]);
        assert!(a.concurrent_with(&b));
        assert!(b.concurrent_with(&a));
    }

    #[test]
    fn interval_never_precedes_itself() {
        let a = stamp(0, 1, &[]);
        assert!(!a.happened_before(&a.clone()));
        assert!(!a.concurrent_with(&a.clone()));
    }

    #[test]
    #[should_panic(expected = "own sequence number")]
    fn stamp_must_carry_own_seq() {
        let vc = VectorClock::new(2);
        StampedInterval::new(IntervalId::new(p(0), 3), vc);
    }

    #[test]
    fn display_formats_interval() {
        assert_eq!(IntervalId::new(p(1), 9).to_string(), "p1@9");
    }
}
