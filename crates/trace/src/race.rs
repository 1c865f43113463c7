//! The labeling check: a race detector over *trace programs*.
//!
//! `lrc-hist`'s checker also finds races with vector clocks, and the two
//! share no code on purpose. A trace is one global, legal interleaving, so
//! this detector is a single sweep in trace order: one clock per
//! processor, counting synchronization *intervals*, and per word the last
//! write and the reads since — shadow state that is only right because
//! the sweep sees every access after everything that happened before it.
//! A recorded history is one log per processor with no global order; its
//! checker stamps every *event* with a clock from the recorded grant and
//! episode numbers and looks accesses up in a per-location index, which
//! is what lets it also answer "which write should this read have seen"
//! on histories that are not race-free. What the two have in common is
//! the comparison `clock[q] < seq`.

use std::collections::HashMap;
use std::fmt;

use lrc_vclock::{ProcId, VectorClock};

use crate::{Op, Trace};

/// Word granularity of the race detector, in bytes. Two accesses conflict
/// when they touch the same word and at least one writes. Running the
/// detector at word rather than byte granularity matches how the SPLASH
/// programs share data (word-aligned scalars) and keeps state compact.
pub(crate) const RACE_WORD_BYTES: u64 = 4;

/// One side of a detected race.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RaceAccess {
    /// Index of the event in the trace.
    pub event_index: usize,
    /// The accessing processor.
    pub proc: ProcId,
    /// True if the access is a write.
    pub is_write: bool,
}

/// A pair of conflicting ordinary accesses not ordered by synchronization.
///
/// A trace with a race is not *properly labeled*: release consistency does
/// not promise sequentially consistent results for it (paper, §2), so the
/// simulator refuses to use its sequential-consistency oracle on such a
/// trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Race {
    /// First word (4-byte aligned address) on which the conflict occurs.
    pub word_addr: u64,
    /// The earlier access in trace order.
    pub earlier: RaceAccess,
    /// The later access in trace order.
    pub later: RaceAccess,
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = |a: &RaceAccess| if a.is_write { "write" } else { "read" };
        write!(
            f,
            "race on word {:#x}: {} by {} (event {}) unordered with {} by {} (event {})",
            self.word_addr,
            kind(&self.earlier),
            self.earlier.proc,
            self.earlier.event_index,
            kind(&self.later),
            self.later.proc,
            self.later.event_index,
        )
    }
}

#[derive(Clone, Debug, Default)]
struct WordState {
    /// Last write: (proc, interval seq at write, event index).
    last_write: Option<(ProcId, u32, usize)>,
    /// Reads since the last write, at most one (the latest) per processor.
    readers: Vec<(ProcId, u32, usize)>,
}

/// Verifies that a trace is properly labeled: every pair of conflicting
/// ordinary accesses is ordered by a release–acquire (or barrier) chain.
///
/// The detector replays the trace with per-processor vector clocks over
/// synchronization intervals — the same *happened-before-1* machinery the
/// LRC protocol itself uses — and flags the first conflicting access pair
/// whose earlier member is not covered by the later member's clock.
///
/// # Errors
///
/// Returns the first [`Race`] found, in trace order.
///
/// # Example
///
/// ```
/// use lrc_trace::{check_labeling, TraceBuilder, TraceMeta};
/// use lrc_vclock::ProcId;
///
/// // Two processors write the same word with no synchronization: a race.
/// let mut b = TraceBuilder::new(TraceMeta::new("racy", 2, 0, 0, 1024));
/// b.write(ProcId::new(0), 0, 4)?;
/// b.write(ProcId::new(1), 0, 4)?;
/// let racy = b.finish()?;
/// assert!(check_labeling(&racy).is_err());
/// # Ok::<(), lrc_trace::TraceError>(())
/// ```
pub fn check_labeling(trace: &Trace) -> Result<(), Box<Race>> {
    let n = trace.meta().n_procs();
    // Interval sequence numbers start at 1 so that "entry 0" means "has not
    // observed any interval of that processor", including the initial one.
    let mut clocks: Vec<VectorClock> = ProcId::all(n)
        .map(|p| {
            let mut vc = VectorClock::new(n);
            vc.set(p, 1);
            vc
        })
        .collect();
    let mut lock_release_vc: HashMap<u32, VectorClock> = HashMap::new();
    // Per barrier: clocks captured at arrival this episode.
    let mut barrier_arrivals: HashMap<u32, Vec<(ProcId, VectorClock)>> = HashMap::new();
    let mut words: HashMap<u64, WordState> = HashMap::new();

    for (idx, event) in trace.events().iter().enumerate() {
        let p = event.proc;
        match event.op {
            Op::Read { addr, len } | Op::Write { addr, len } => {
                let is_write = matches!(event.op, Op::Write { .. });
                let vc = &clocks[p.index()];
                let my_seq = vc.get(p);
                let first = addr / RACE_WORD_BYTES;
                let last = (addr + len as u64 - 1) / RACE_WORD_BYTES;
                for word in first..=last {
                    let state = words.entry(word).or_default();
                    let conflict = |q: ProcId, s: u32| q != p && vc.get(q) < s;
                    if let Some((q, s, widx)) = state.last_write {
                        if conflict(q, s) {
                            return Err(Box::new(Race {
                                word_addr: word * RACE_WORD_BYTES,
                                earlier: RaceAccess {
                                    event_index: widx,
                                    proc: q,
                                    is_write: true,
                                },
                                later: RaceAccess {
                                    event_index: idx,
                                    proc: p,
                                    is_write,
                                },
                            }));
                        }
                    }
                    if is_write {
                        for &(r, s, ridx) in &state.readers {
                            if conflict(r, s) {
                                return Err(Box::new(Race {
                                    word_addr: word * RACE_WORD_BYTES,
                                    earlier: RaceAccess {
                                        event_index: ridx,
                                        proc: r,
                                        is_write: false,
                                    },
                                    later: RaceAccess {
                                        event_index: idx,
                                        proc: p,
                                        is_write,
                                    },
                                }));
                            }
                        }
                        state.last_write = Some((p, my_seq, idx));
                        state.readers.clear();
                    } else {
                        match state.readers.iter_mut().find(|(r, _, _)| *r == p) {
                            Some(entry) => *entry = (p, my_seq, idx),
                            None => state.readers.push((p, my_seq, idx)),
                        }
                    }
                }
            }
            Op::Acquire(lock) => {
                if let Some(release_vc) = lock_release_vc.get(&lock.raw()) {
                    clocks[p.index()].merge(release_vc);
                }
                clocks[p.index()].bump(p);
            }
            Op::Release(lock) => {
                lock_release_vc.insert(lock.raw(), clocks[p.index()].clone());
                clocks[p.index()].bump(p);
            }
            Op::Barrier(barrier) => {
                let arrivals = barrier_arrivals.entry(barrier.raw()).or_default();
                arrivals.push((p, clocks[p.index()].clone()));
                if arrivals.len() == n {
                    // Episode completes: everyone adopts the merged clock
                    // and starts a fresh interval.
                    let mut merged = VectorClock::new(n);
                    for (_, vc) in arrivals.iter() {
                        merged.merge(vc);
                    }
                    for q in ProcId::all(n) {
                        clocks[q.index()] = merged.clone();
                        clocks[q.index()].bump(q);
                    }
                    arrivals.clear();
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceBuilder, TraceMeta};
    use lrc_sync::{BarrierId, LockId};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn meta(procs: usize, locks: usize, barriers: usize) -> TraceMeta {
        TraceMeta::new("t", procs, locks, barriers, 4096)
    }

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        let mut b = TraceBuilder::new(meta(2, 0, 0));
        b.write(p(0), 0, 4).unwrap();
        b.write(p(1), 0, 4).unwrap();
        let race = check_labeling(&b.finish().unwrap()).unwrap_err();
        assert_eq!(race.word_addr, 0);
        assert!(race.earlier.is_write && race.later.is_write);
        assert_eq!(race.earlier.event_index, 0);
        assert_eq!(race.later.event_index, 1);
    }

    #[test]
    fn unsynchronized_write_read_is_a_race() {
        let mut b = TraceBuilder::new(meta(2, 0, 0));
        b.write(p(0), 8, 4).unwrap();
        b.read(p(1), 8, 4).unwrap();
        let race = check_labeling(&b.finish().unwrap()).unwrap_err();
        assert!(race.earlier.is_write && !race.later.is_write);
    }

    #[test]
    fn unsynchronized_read_write_is_a_race() {
        let mut b = TraceBuilder::new(meta(2, 0, 0));
        b.read(p(0), 8, 4).unwrap();
        b.write(p(1), 8, 4).unwrap();
        let race = check_labeling(&b.finish().unwrap()).unwrap_err();
        assert!(!race.earlier.is_write && race.later.is_write);
    }

    #[test]
    fn read_read_never_races() {
        let mut b = TraceBuilder::new(meta(2, 0, 0));
        b.read(p(0), 8, 4).unwrap();
        b.read(p(1), 8, 4).unwrap();
        assert!(check_labeling(&b.finish().unwrap()).is_ok());
    }

    #[test]
    fn lock_chain_orders_accesses() {
        let l = LockId::new(0);
        let mut b = TraceBuilder::new(meta(2, 1, 0));
        b.acquire(p(0), l).unwrap();
        b.write(p(0), 0, 4).unwrap();
        b.release(p(0), l).unwrap();
        b.acquire(p(1), l).unwrap();
        b.write(p(1), 0, 4).unwrap();
        b.release(p(1), l).unwrap();
        assert!(check_labeling(&b.finish().unwrap()).is_ok());
    }

    #[test]
    fn access_outside_critical_section_races() {
        // p0 writes under the lock, but p1 reads without acquiring it.
        let l = LockId::new(0);
        let mut b = TraceBuilder::new(meta(2, 1, 0));
        b.acquire(p(0), l).unwrap();
        b.write(p(0), 0, 4).unwrap();
        b.release(p(0), l).unwrap();
        b.read(p(1), 0, 4).unwrap();
        assert!(check_labeling(&b.finish().unwrap()).is_err());
    }

    #[test]
    fn transitive_lock_chain_orders_accesses() {
        // p0 -> p1 via lock 0, p1 -> p2 via lock 1; p2's access to p0's
        // data is ordered transitively (the paper's "preceding" relation).
        let (l0, l1) = (LockId::new(0), LockId::new(1));
        let mut b = TraceBuilder::new(meta(3, 2, 0));
        b.acquire(p(0), l0).unwrap();
        b.write(p(0), 0, 4).unwrap();
        b.release(p(0), l0).unwrap();
        b.acquire(p(1), l0).unwrap();
        b.release(p(1), l0).unwrap();
        b.acquire(p(1), l1).unwrap();
        b.release(p(1), l1).unwrap();
        b.acquire(p(2), l1).unwrap();
        b.read(p(2), 0, 4).unwrap();
        b.release(p(2), l1).unwrap();
        assert!(check_labeling(&b.finish().unwrap()).is_ok());
    }

    #[test]
    fn different_locks_do_not_order() {
        let (l0, l1) = (LockId::new(0), LockId::new(1));
        let mut b = TraceBuilder::new(meta(2, 2, 0));
        b.acquire(p(0), l0).unwrap();
        b.write(p(0), 0, 4).unwrap();
        b.release(p(0), l0).unwrap();
        b.acquire(p(1), l1).unwrap();
        b.write(p(1), 0, 4).unwrap();
        b.release(p(1), l1).unwrap();
        assert!(check_labeling(&b.finish().unwrap()).is_err());
    }

    #[test]
    fn barrier_orders_phases() {
        let bar = BarrierId::new(0);
        let mut b = TraceBuilder::new(meta(2, 0, 1));
        b.write(p(0), 0, 4).unwrap();
        b.barrier_all(bar).unwrap();
        b.read(p(1), 0, 4).unwrap();
        b.write(p(1), 0, 4).unwrap(); // now owned by p1; fine
        b.barrier_all(bar).unwrap();
        b.read(p(0), 0, 4).unwrap();
        assert!(check_labeling(&b.finish().unwrap()).is_ok());
    }

    #[test]
    fn same_phase_conflict_races_despite_barriers() {
        let bar = BarrierId::new(0);
        let mut b = TraceBuilder::new(meta(2, 0, 1));
        b.barrier_all(bar).unwrap();
        b.write(p(0), 0, 4).unwrap();
        b.read(p(1), 0, 4).unwrap(); // same phase: unordered
        b.barrier_all(bar).unwrap();
        assert!(check_labeling(&b.finish().unwrap()).is_err());
    }

    #[test]
    fn false_sharing_is_not_a_race() {
        // Different words of what would be the same page: fine.
        let mut b = TraceBuilder::new(meta(2, 0, 0));
        b.write(p(0), 0, 4).unwrap();
        b.write(p(1), 4, 4).unwrap();
        assert!(check_labeling(&b.finish().unwrap()).is_ok());
    }

    #[test]
    fn word_straddling_access_conflicts_on_any_word() {
        let mut b = TraceBuilder::new(meta(2, 0, 0));
        b.write(p(0), 6, 4).unwrap(); // words 1 and 2
        b.write(p(1), 8, 4).unwrap(); // word 2
        let race = check_labeling(&b.finish().unwrap()).unwrap_err();
        assert_eq!(race.word_addr, 8);
    }

    #[test]
    fn initial_interval_accesses_race_without_sync() {
        // Regression guard: interval numbering starts at 1 so accesses in
        // the very first interval are not spuriously "covered".
        let mut b = TraceBuilder::new(meta(2, 0, 0));
        b.write(p(1), 100, 4).unwrap();
        b.write(p(0), 100, 4).unwrap();
        assert!(check_labeling(&b.finish().unwrap()).is_err());
    }

    #[test]
    fn same_proc_never_races_with_itself() {
        let mut b = TraceBuilder::new(meta(2, 0, 0));
        b.write(p(0), 0, 4).unwrap();
        b.read(p(0), 0, 4).unwrap();
        b.write(p(0), 0, 4).unwrap();
        assert!(check_labeling(&b.finish().unwrap()).is_ok());
    }

    #[test]
    fn race_display_is_informative() {
        let mut b = TraceBuilder::new(meta(2, 0, 0));
        b.write(p(0), 0, 4).unwrap();
        b.read(p(1), 0, 4).unwrap();
        let race = check_labeling(&b.finish().unwrap()).unwrap_err();
        let text = race.to_string();
        assert!(text.contains("write by p0"));
        assert!(text.contains("read by p1"));
    }
}
