use std::error::Error;
use std::fmt;

use lrc_vclock::ProcId;

/// Identifier of a barrier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BarrierId(u32);

impl BarrierId {
    /// Creates a barrier id from its dense index.
    pub fn new(index: u32) -> Self {
        BarrierId(index)
    }

    /// Returns the id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw numeric id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for BarrierId {
    fn from(index: u32) -> Self {
        BarrierId(index)
    }
}

impl fmt::Display for BarrierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "br{}", self.0)
    }
}

/// Errors from barrier operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BarrierError {
    /// The barrier id is outside the set.
    UnknownBarrier(BarrierId),
    /// The processor id is outside the system.
    UnknownProc(ProcId),
    /// A processor arrived twice in one episode — the trace is illegal,
    /// since it should have blocked until everyone arrived.
    DoubleArrival {
        /// The barrier.
        barrier: BarrierId,
        /// The processor that arrived twice.
        proc: ProcId,
    },
}

impl fmt::Display for BarrierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BarrierError::UnknownBarrier(b) => write!(f, "unknown barrier {b}"),
            BarrierError::UnknownProc(p) => write!(f, "unknown processor {p}"),
            BarrierError::DoubleArrival { barrier, proc } => {
                write!(f, "{proc} arrived at {barrier} twice in one episode")
            }
        }
    }
}

impl Error for BarrierError {}

/// Outcome of one arrival at a barrier.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BarrierArrival {
    /// The processor must wait; `arrived` processors (including it) are in.
    Waiting {
        /// Number of processors that have arrived so far this episode.
        arrived: usize,
        /// The (not yet complete) episode this arrival belongs to — the
        /// same index the closing arrival will report in
        /// [`BarrierArrival::Complete`]. Set-assigned, so observers of the
        /// episode order (the history recorder) need no engine-wide lock.
        episode: u64,
    },
    /// This arrival completed the episode: every processor is present and
    /// the master releases them all. The episode counter has advanced.
    Complete {
        /// The completed episode's index (0 for the first episode).
        episode: u64,
    },
}

impl BarrierArrival {
    /// The episode this arrival belongs to, whichever variant it is.
    pub fn episode(&self) -> u64 {
        match self {
            BarrierArrival::Waiting { episode, .. } => *episode,
            BarrierArrival::Complete { episode } => *episode,
        }
    }
}

/// A set of centralized barriers.
///
/// Each barrier has a static *master* (`barrier mod n_procs`). An episode
/// completes when all `n_procs` processors have arrived; the master then
/// sends exit messages. The paper charges `2(n-1)` messages per episode:
/// one arrival and one exit per non-master processor (§5.2). The protocol
/// engines charge those messages with their own piggybacked payloads.
///
/// # Example
///
/// ```
/// use lrc_sync::{BarrierArrival, BarrierId, BarrierSet};
/// use lrc_vclock::ProcId;
///
/// let mut barriers = BarrierSet::new(1, 2);
/// let b = BarrierId::new(0);
/// assert_eq!(
///     barriers.arrive(ProcId::new(0), b)?,
///     BarrierArrival::Waiting { arrived: 1, episode: 0 }
/// );
/// assert_eq!(
///     barriers.arrive(ProcId::new(1), b)?,
///     BarrierArrival::Complete { episode: 0 }
/// );
/// # Ok::<(), lrc_sync::BarrierError>(())
/// ```
#[derive(Clone, Debug)]
pub struct BarrierSet {
    n_procs: usize,
    arrived: Vec<Vec<bool>>,
    count: Vec<usize>,
    episode: Vec<u64>,
    /// Processors declared dead: they are not required for episode
    /// completion until [`BarrierSet::revive`] re-includes them.
    dead: Vec<bool>,
}

impl BarrierSet {
    /// Creates `n_barriers` barriers for an `n_procs` system.
    ///
    /// # Panics
    ///
    /// Panics if `n_procs` is zero.
    pub fn new(n_barriers: usize, n_procs: usize) -> Self {
        assert!(n_procs > 0, "barrier set needs at least one processor");
        BarrierSet {
            n_procs,
            arrived: vec![vec![false; n_procs]; n_barriers],
            count: vec![0; n_barriers],
            episode: vec![0; n_barriers],
            dead: vec![false; n_procs],
        }
    }

    /// The static master of `barrier`.
    ///
    /// # Panics
    ///
    /// Panics if `barrier` is out of range.
    pub fn master(&self, barrier: BarrierId) -> ProcId {
        assert!(
            barrier.index() < self.arrived.len(),
            "unknown barrier {barrier}"
        );
        ProcId::new((barrier.index() % self.n_procs) as u16)
    }

    /// Validates that `p` may arrive at `barrier`, without mutating state.
    /// Protocol engines call this before performing arrival side effects
    /// (flushes, interval closes) so a rejected arrival leaves no trace.
    ///
    /// # Errors
    ///
    /// The same errors [`BarrierSet::arrive`] would return.
    pub fn check_arrival(&self, p: ProcId, barrier: BarrierId) -> Result<(), BarrierError> {
        if barrier.index() >= self.arrived.len() {
            return Err(BarrierError::UnknownBarrier(barrier));
        }
        if p.index() >= self.n_procs {
            return Err(BarrierError::UnknownProc(p));
        }
        if self.arrived[barrier.index()][p.index()] {
            return Err(BarrierError::DoubleArrival { barrier, proc: p });
        }
        Ok(())
    }

    /// True once every *live* processor has arrived at `barrier`.
    fn episode_complete(&self, b: usize) -> bool {
        self.arrived[b]
            .iter()
            .zip(&self.dead)
            .all(|(&arrived, &dead)| arrived || dead)
    }

    /// Closes the current episode of barrier `b` and returns its index.
    fn close_episode(&mut self, b: usize) -> u64 {
        self.arrived[b].iter_mut().for_each(|f| *f = false);
        self.count[b] = 0;
        let episode = self.episode[b];
        self.episode[b] += 1;
        episode
    }

    /// Excludes `p` from episode completion (crash recovery): episodes no
    /// longer wait for it. An arrival `p` already made this episode keeps
    /// counting — its side effects (interval close, notices) happened.
    /// Returns the episodes that complete *because* `p` stopped being
    /// required: `(barrier, episode)` pairs the caller must treat exactly
    /// like a closing arrival. Marking an already-dead processor is a
    /// no-op returning no completions.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn mark_dead(&mut self, p: ProcId) -> Vec<(BarrierId, u64)> {
        assert!(p.index() < self.n_procs, "unknown processor {p}");
        if self.dead[p.index()] {
            return Vec::new();
        }
        self.dead[p.index()] = true;
        let mut completed = Vec::new();
        for b in 0..self.arrived.len() {
            // An episode nobody entered yet is not "complete" — it has not
            // started. Only close episodes with at least one live arrival.
            let live_arrivals = self.arrived[b]
                .iter()
                .zip(&self.dead)
                .filter(|&(&arrived, &dead)| arrived && !dead)
                .count();
            if live_arrivals > 0 && self.episode_complete(b) {
                let episode = self.close_episode(b);
                completed.push((BarrierId::new(b as u32), episode));
            }
        }
        completed
    }

    /// Re-includes a previously [`mark_dead`](BarrierSet::mark_dead)ed
    /// processor: future episodes wait for it again (including any episode
    /// currently in progress).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or not dead.
    pub fn revive(&mut self, p: ProcId) {
        assert!(p.index() < self.n_procs, "unknown processor {p}");
        assert!(self.dead[p.index()], "{p} is not dead");
        self.dead[p.index()] = false;
    }

    /// The *live* processors the current episode of `barrier` is still
    /// waiting for — the failure detector's suspect list when a barrier
    /// wait times out. Empty for an out-of-range barrier (the waiter's
    /// arrival already validated the id; the detector need not re-panic).
    pub fn absent(&self, barrier: BarrierId) -> Vec<ProcId> {
        let Some(arrived) = self.arrived.get(barrier.index()) else {
            return Vec::new();
        };
        arrived
            .iter()
            .zip(&self.dead)
            .enumerate()
            .filter(|&(_, (&arrived, &dead))| !arrived && !dead)
            .map(|(i, _)| ProcId::new(i as u16))
            .collect()
    }

    /// Records the arrival of `p` at `barrier`.
    ///
    /// # Errors
    ///
    /// [`BarrierError::DoubleArrival`] if `p` already arrived this episode,
    /// plus range errors.
    pub fn arrive(
        &mut self,
        p: ProcId,
        barrier: BarrierId,
    ) -> Result<BarrierArrival, BarrierError> {
        if barrier.index() >= self.arrived.len() {
            return Err(BarrierError::UnknownBarrier(barrier));
        }
        if p.index() >= self.n_procs {
            return Err(BarrierError::UnknownProc(p));
        }
        let b = barrier.index();
        if self.arrived[b][p.index()] {
            return Err(BarrierError::DoubleArrival { barrier, proc: p });
        }
        self.arrived[b][p.index()] = true;
        self.count[b] += 1;
        if self.episode_complete(b) {
            let episode = self.close_episode(b);
            Ok(BarrierArrival::Complete { episode })
        } else {
            Ok(BarrierArrival::Waiting {
                arrived: self.count[b],
                episode: self.episode[b],
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    #[test]
    fn episode_completes_when_all_arrive() {
        let mut b = BarrierSet::new(1, 3);
        let id = BarrierId::new(0);
        assert_eq!(
            b.arrive(p(1), id).unwrap(),
            BarrierArrival::Waiting {
                arrived: 1,
                episode: 0
            }
        );
        assert_eq!(
            b.arrive(p(0), id).unwrap(),
            BarrierArrival::Waiting {
                arrived: 2,
                episode: 0
            }
        );
        assert_eq!(
            b.arrive(p(2), id).unwrap(),
            BarrierArrival::Complete { episode: 0 }
        );
        assert_eq!(b.arrive(p(0), id).unwrap().episode(), 1);
    }

    #[test]
    fn episodes_chain() {
        let mut b = BarrierSet::new(1, 2);
        let id = BarrierId::new(0);
        for episode in 0..5 {
            b.arrive(p(0), id).unwrap();
            assert_eq!(
                b.arrive(p(1), id).unwrap(),
                BarrierArrival::Complete { episode }
            );
        }
    }

    #[test]
    fn double_arrival_rejected() {
        let mut b = BarrierSet::new(1, 2);
        let id = BarrierId::new(0);
        b.arrive(p(0), id).unwrap();
        assert_eq!(
            b.arrive(p(0), id),
            Err(BarrierError::DoubleArrival {
                barrier: id,
                proc: p(0)
            })
        );
    }

    #[test]
    fn masters_distributed_round_robin() {
        let b = BarrierSet::new(3, 2);
        assert_eq!(b.master(BarrierId::new(0)), p(0));
        assert_eq!(b.master(BarrierId::new(1)), p(1));
        assert_eq!(b.master(BarrierId::new(2)), p(0));
    }

    #[test]
    fn range_errors() {
        let mut b = BarrierSet::new(1, 2);
        assert_eq!(
            b.arrive(p(0), BarrierId::new(4)),
            Err(BarrierError::UnknownBarrier(BarrierId::new(4)))
        );
        assert_eq!(
            b.arrive(p(9), BarrierId::new(0)),
            Err(BarrierError::UnknownProc(p(9)))
        );
    }

    #[test]
    fn marking_the_last_straggler_dead_completes_the_episode() {
        let mut b = BarrierSet::new(2, 3);
        let id = BarrierId::new(0);
        b.arrive(p(0), id).unwrap();
        b.arrive(p(2), id).unwrap();
        // p1 dies without arriving: the episode completes on its behalf.
        let completed = b.mark_dead(p(1));
        assert_eq!(completed, vec![(id, 0)]);
        // The next episode waits for the live processors only.
        assert_eq!(b.absent(id), vec![p(0), p(2)]);
        // Untouched barriers complete nothing.
        assert_eq!(b.arrive(p(0), BarrierId::new(1)).unwrap().episode(), 0);
        // The next episode needs only the two live processors.
        b.arrive(p(0), id).unwrap();
        assert_eq!(
            b.arrive(p(2), id).unwrap(),
            BarrierArrival::Complete { episode: 1 }
        );
    }

    #[test]
    fn dead_arrival_still_counts_toward_its_episode() {
        let mut b = BarrierSet::new(1, 3);
        let id = BarrierId::new(0);
        // p1 arrives, then dies mid-episode: its arrival (and the interval
        // it closed) stands, and the survivors complete the episode.
        b.arrive(p(1), id).unwrap();
        assert_eq!(b.mark_dead(p(1)), vec![]);
        b.arrive(p(0), id).unwrap();
        assert_eq!(
            b.arrive(p(2), id).unwrap(),
            BarrierArrival::Complete { episode: 0 }
        );
    }

    #[test]
    fn marking_dead_with_no_live_arrivals_completes_nothing() {
        let mut b = BarrierSet::new(1, 2);
        assert_eq!(b.mark_dead(p(1)), vec![]);
        // A second mark is a no-op.
        assert_eq!(b.mark_dead(p(1)), vec![]);
        // The episode did not start, so the next arrival opens and closes it.
        assert_eq!(
            b.arrive(p(0), BarrierId::new(0)).unwrap(),
            BarrierArrival::Complete { episode: 0 }
        );
    }

    #[test]
    fn revived_processor_is_required_again() {
        let mut b = BarrierSet::new(1, 2);
        let id = BarrierId::new(0);
        b.mark_dead(p(1));
        assert_eq!(
            b.arrive(p(0), id).unwrap(),
            BarrierArrival::Complete { episode: 0 }
        );
        b.revive(p(1));
        assert_eq!(b.absent(id), vec![p(0), p(1)]);
        assert_eq!(
            b.arrive(p(0), id).unwrap(),
            BarrierArrival::Waiting {
                arrived: 1,
                episode: 1
            }
        );
        assert_eq!(
            b.arrive(p(1), id).unwrap(),
            BarrierArrival::Complete { episode: 1 }
        );
    }

    #[test]
    fn single_proc_barrier_completes_immediately() {
        let mut b = BarrierSet::new(1, 1);
        assert_eq!(
            b.arrive(p(0), BarrierId::new(0)).unwrap(),
            BarrierArrival::Complete { episode: 0 }
        );
    }
}
