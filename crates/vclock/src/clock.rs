use std::fmt;

use crate::{IntervalId, ProcId};

/// Relationship between two vector timestamps under *happened-before-1*.
///
/// Returned by [`VectorClock::causal_cmp`]. Unlike [`std::cmp::Ordering`],
/// causality is a partial order, so two distinct clocks may be
/// [`Concurrent`](CausalOrd::Concurrent).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CausalOrd {
    /// The clocks are identical.
    Equal,
    /// `self` happened strictly before `other`.
    Before,
    /// `self` happened strictly after `other`.
    After,
    /// Neither clock dominates the other.
    Concurrent,
}

/// A vector timestamp: one interval index per processor.
///
/// Entry `p` of processor `p`'s own clock is the index of `p`'s current
/// interval; entry `q != p` is the most recent interval of `q` whose
/// modifications have performed at `p` (paper, §4.2). Interval indices start
/// at zero (the initial interval, before any synchronization).
///
/// # Example
///
/// ```
/// use lrc_vclock::{ProcId, VectorClock};
///
/// let mut vc = VectorClock::new(3);
/// vc.bump(ProcId::new(0));
/// vc.bump(ProcId::new(0));
/// assert_eq!(vc.get(ProcId::new(0)), 2);
/// assert_eq!(vc.get(ProcId::new(1)), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct VectorClock {
    entries: Vec<u32>,
}

impl VectorClock {
    /// Creates the zero clock of an `n_procs`-processor system.
    pub fn new(n_procs: usize) -> Self {
        VectorClock {
            entries: vec![0; n_procs],
        }
    }

    /// Number of processors this clock covers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the clock covers no processors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the interval index recorded for processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside this clock's processor range.
    pub fn get(&self, p: ProcId) -> u32 {
        self.entries[p.index()]
    }

    /// Sets the interval index recorded for processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside this clock's processor range.
    pub fn set(&mut self, p: ProcId, seq: u32) {
        self.entries[p.index()] = seq;
    }

    /// Advances processor `p`'s own entry by one (a new interval begins) and
    /// returns the new interval index.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside this clock's processor range.
    pub fn bump(&mut self, p: ProcId) -> u32 {
        let e = &mut self.entries[p.index()];
        *e += 1;
        *e
    }

    /// Wire size of this clock: one little-endian `u32` per processor —
    /// exactly the 4 bytes per entry `lrc-simnet`'s model charges.
    pub fn wire_len(&self) -> usize {
        4 * self.entries.len()
    }

    /// Appends the clock's wire encoding to `out` (entries in processor
    /// order, each a little-endian `u32`).
    pub fn write_wire(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        for &e in &self.entries {
            out.extend_from_slice(&e.to_le_bytes());
        }
    }

    /// Decodes a clock for `n_procs` processors from the front of `bytes`.
    /// Returns `None` if fewer than `4 * n_procs` bytes are available.
    pub fn read_wire(bytes: &[u8], n_procs: usize) -> Option<VectorClock> {
        let need = 4 * n_procs;
        if bytes.len() < need {
            return None;
        }
        let entries = bytes[..need]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Some(VectorClock { entries })
    }

    /// Pointwise maximum with `other`, in place. This is how a processor
    /// learns remote time on an acquire or barrier exit.
    ///
    /// # Panics
    ///
    /// Panics if the clocks cover different numbers of processors.
    pub fn merge(&mut self, other: &VectorClock) {
        assert_eq!(
            self.len(),
            other.len(),
            "merging clocks of different widths"
        );
        for (a, b) in self.entries.iter_mut().zip(&other.entries) {
            *a = (*a).max(*b);
        }
    }

    /// Returns the pointwise maximum of `self` and `other` as a new clock.
    ///
    /// # Panics
    ///
    /// Panics if the clocks cover different numbers of processors.
    pub fn merged(&self, other: &VectorClock) -> VectorClock {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// True if the interval `i` has performed at a processor holding this
    /// clock; that is, the clock's entry for `i`'s processor has reached
    /// `i`'s sequence number.
    pub fn covers(&self, i: IntervalId) -> bool {
        self.get(i.proc()) >= i.seq()
    }

    /// True if every entry of `self` is at least the matching entry of
    /// `other` (`self` knows everything `other` knows).
    ///
    /// # Panics
    ///
    /// Panics if the clocks cover different numbers of processors.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        assert_eq!(
            self.len(),
            other.len(),
            "comparing clocks of different widths"
        );
        self.entries.iter().zip(&other.entries).all(|(a, b)| a >= b)
    }

    /// Compares two clocks under happened-before-1.
    ///
    /// # Panics
    ///
    /// Panics if the clocks cover different numbers of processors.
    pub fn causal_cmp(&self, other: &VectorClock) -> CausalOrd {
        let le = other.dominates(self);
        let ge = self.dominates(other);
        match (le, ge) {
            (true, true) => CausalOrd::Equal,
            (true, false) => CausalOrd::Before,
            (false, true) => CausalOrd::After,
            (false, false) => CausalOrd::Concurrent,
        }
    }

    /// True if `self` happened strictly before `other` — the
    /// happens-before test spelled out.
    ///
    /// # Panics
    ///
    /// Panics if the clocks cover different numbers of processors.
    pub fn happened_before(&self, other: &VectorClock) -> bool {
        self.causal_cmp(other) == CausalOrd::Before
    }

    /// True if neither clock dominates the other: the events they stamp
    /// are concurrent under happened-before-1.
    ///
    /// # Panics
    ///
    /// Panics if the clocks cover different numbers of processors.
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        self.causal_cmp(other) == CausalOrd::Concurrent
    }

    /// Iterates over `(processor, interval index)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcId, u32)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, &s)| (ProcId::new(i as u16), s))
    }

    /// Sum of all entries. Strictly increases along every happened-before
    /// chain, so sorting by `(weight, proc, seq)` is a valid linear extension
    /// of causality — the order in which diffs are applied.
    pub fn weight(&self) -> u64 {
        self.entries.iter().map(|&e| e as u64).sum()
    }

    /// Bytes this clock occupies on the wire (4 bytes per entry).
    pub fn encoded_size(&self) -> usize {
        4 * self.entries.len()
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VectorClock{:?}", self.entries)
    }
}

impl fmt::Display for VectorClock {
    /// Formats the clock as `<e0,e1,...>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    #[test]
    fn new_clock_is_zero() {
        let vc = VectorClock::new(4);
        assert_eq!(vc.len(), 4);
        assert!(ProcId::all(4).all(|q| vc.get(q) == 0));
        assert_eq!(vc.weight(), 0);
    }

    #[test]
    fn bump_advances_only_own_entry() {
        let mut vc = VectorClock::new(3);
        assert_eq!(vc.bump(p(1)), 1);
        assert_eq!(vc.bump(p(1)), 2);
        assert_eq!(vc.get(p(0)), 0);
        assert_eq!(vc.get(p(1)), 2);
        assert_eq!(vc.get(p(2)), 0);
    }

    #[test]
    fn merge_takes_pointwise_max() {
        let mut a = VectorClock::new(3);
        a.set(p(0), 5);
        a.set(p(2), 1);
        let mut b = VectorClock::new(3);
        b.set(p(0), 2);
        b.set(p(1), 9);
        a.merge(&b);
        assert_eq!(a.get(p(0)), 5);
        assert_eq!(a.get(p(1)), 9);
        assert_eq!(a.get(p(2)), 1);
    }

    #[test]
    fn covers_tracks_entry() {
        let mut vc = VectorClock::new(2);
        vc.set(p(1), 3);
        assert!(vc.covers(IntervalId::new(p(1), 3)));
        assert!(vc.covers(IntervalId::new(p(1), 1)));
        assert!(!vc.covers(IntervalId::new(p(1), 4)));
        assert!(vc.covers(IntervalId::new(p(0), 0)));
    }

    #[test]
    fn causal_cmp_distinguishes_all_cases() {
        let zero = VectorClock::new(2);
        let mut a = zero.clone();
        a.bump(p(0));
        let mut b = zero.clone();
        b.bump(p(1));
        assert_eq!(zero.causal_cmp(&zero), CausalOrd::Equal);
        assert_eq!(zero.causal_cmp(&a), CausalOrd::Before);
        assert_eq!(a.causal_cmp(&zero), CausalOrd::After);
        assert_eq!(a.causal_cmp(&b), CausalOrd::Concurrent);
    }

    #[test]
    fn hb_helpers_match_causal_cmp() {
        let zero = VectorClock::new(2);
        let mut a = zero.clone();
        a.bump(p(0));
        let mut b = zero.clone();
        b.bump(p(1));
        assert!(zero.happened_before(&a));
        assert!(!a.happened_before(&zero));
        assert!(!a.happened_before(&a), "strict: equal is not before");
        assert!(a.concurrent_with(&b));
        assert!(!zero.concurrent_with(&a));
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn merge_rejects_width_mismatch() {
        let mut a = VectorClock::new(2);
        a.merge(&VectorClock::new(3));
    }

    #[test]
    fn display_formats_entries() {
        let mut vc = VectorClock::new(3);
        vc.set(p(1), 2);
        assert_eq!(vc.to_string(), "<0,2,0>");
        assert_eq!(format!("{vc:?}"), "VectorClock[0, 2, 0]");
    }

    #[test]
    fn encoded_size_is_four_bytes_per_proc() {
        assert_eq!(VectorClock::new(16).encoded_size(), 64);
    }
}
