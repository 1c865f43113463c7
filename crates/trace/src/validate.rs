use std::error::Error;
use std::fmt;

use lrc_sync::{BarrierId, LockId};
use lrc_vclock::ProcId;

use crate::{Event, Op, Trace, TraceMeta};

/// Maximum length of a single ordinary access, in bytes. Large block moves
/// must be expressed as multiple events (as a real trace would record them).
pub(crate) const MAX_ACCESS_LEN: u32 = 4096;

/// Why a trace (or an appended event) is illegal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceError {
    /// A processor id outside `0..n_procs`.
    UnknownProc {
        /// Index of the offending event.
        at: usize,
        /// The offending processor.
        proc: ProcId,
    },
    /// A lock id outside `0..n_locks`.
    UnknownLock {
        /// Index of the offending event.
        at: usize,
        /// The offending lock.
        lock: LockId,
    },
    /// A barrier id outside `0..n_barriers`.
    UnknownBarrier {
        /// Index of the offending event.
        at: usize,
        /// The offending barrier.
        barrier: BarrierId,
    },
    /// An ordinary access outside the shared space, zero-length, or longer
    /// than 4096 bytes.
    BadAccess {
        /// Index of the offending event.
        at: usize,
        /// Accessed address.
        addr: u64,
        /// Accessed length.
        len: u32,
    },
    /// Acquire of a lock that is not free, or release by a non-holder.
    LockDiscipline {
        /// Index of the offending event.
        at: usize,
        /// Human-readable explanation.
        detail: String,
    },
    /// An event from a processor that is waiting inside a barrier.
    ActiveWhileBlocked {
        /// Index of the offending event.
        at: usize,
        /// The processor that should have been waiting.
        proc: ProcId,
        /// The barrier it is waiting at.
        barrier: BarrierId,
    },
    /// At end of trace: a lock still held or a barrier episode incomplete.
    DanglingSync {
        /// Human-readable explanation.
        detail: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnknownProc { at, proc } => write!(f, "event {at}: unknown {proc}"),
            TraceError::UnknownLock { at, lock } => write!(f, "event {at}: unknown {lock}"),
            TraceError::UnknownBarrier { at, barrier } => {
                write!(f, "event {at}: unknown {barrier}")
            }
            TraceError::BadAccess { at, addr, len } => {
                write!(f, "event {at}: bad access [{addr:#x}, +{len})")
            }
            TraceError::LockDiscipline { at, detail } => write!(f, "event {at}: {detail}"),
            TraceError::ActiveWhileBlocked { at, proc, barrier } => {
                write!(f, "event {at}: {proc} acted while waiting at {barrier}")
            }
            TraceError::DanglingSync { detail } => write!(f, "end of trace: {detail}"),
        }
    }
}

impl Error for TraceError {}

/// Incremental legality checker shared by [`TraceBuilder`](crate::TraceBuilder)
/// and [`validate`].
#[derive(Debug)]
pub(crate) struct Legality {
    n_procs: usize,
    n_locks: usize,
    n_barriers: usize,
    mem_bytes: u64,
    lock_holder: Vec<Option<ProcId>>,
    barrier_waiting: Vec<Option<BarrierId>>, // per proc: the barrier it waits at
    barrier_count: Vec<usize>,               // per barrier: arrivals this episode
}

impl Legality {
    pub(crate) fn new(meta: &TraceMeta) -> Self {
        Legality {
            n_procs: meta.n_procs(),
            n_locks: meta.n_locks(),
            n_barriers: meta.n_barriers(),
            mem_bytes: meta.mem_bytes(),
            lock_holder: vec![None; meta.n_locks()],
            barrier_waiting: vec![None; meta.n_procs()],
            barrier_count: vec![0; meta.n_barriers()],
        }
    }

    /// Admits `event` at position `at`, updating state, or rejects it
    /// leaving state untouched.
    pub(crate) fn admit(&mut self, at: usize, event: &Event) -> Result<(), TraceError> {
        let p = event.proc;
        if p.index() >= self.n_procs {
            return Err(TraceError::UnknownProc { at, proc: p });
        }
        if let Some(barrier) = self.barrier_waiting[p.index()] {
            return Err(TraceError::ActiveWhileBlocked {
                at,
                proc: p,
                barrier,
            });
        }
        match event.op {
            Op::Read { addr, len } | Op::Write { addr, len } => {
                let in_bounds = len > 0
                    && len <= MAX_ACCESS_LEN
                    && addr
                        .checked_add(len as u64)
                        .is_some_and(|end| end <= self.mem_bytes);
                if !in_bounds {
                    return Err(TraceError::BadAccess { at, addr, len });
                }
            }
            Op::Acquire(lock) => {
                if lock.index() >= self.n_locks {
                    return Err(TraceError::UnknownLock { at, lock });
                }
                if let Some(holder) = self.lock_holder[lock.index()] {
                    return Err(TraceError::LockDiscipline {
                        at,
                        detail: format!("{p} acquires {lock} held by {holder}"),
                    });
                }
                self.lock_holder[lock.index()] = Some(p);
            }
            Op::Release(lock) => {
                if lock.index() >= self.n_locks {
                    return Err(TraceError::UnknownLock { at, lock });
                }
                if self.lock_holder[lock.index()] != Some(p) {
                    return Err(TraceError::LockDiscipline {
                        at,
                        detail: format!(
                            "{p} releases {lock} it does not hold (holder: {:?})",
                            self.lock_holder[lock.index()]
                        ),
                    });
                }
                self.lock_holder[lock.index()] = None;
            }
            Op::Barrier(barrier) => {
                if barrier.index() >= self.n_barriers {
                    return Err(TraceError::UnknownBarrier { at, barrier });
                }
                self.barrier_count[barrier.index()] += 1;
                if self.barrier_count[barrier.index()] == self.n_procs {
                    // Episode completes: everyone (including p) unblocks.
                    self.barrier_count[barrier.index()] = 0;
                    for w in &mut self.barrier_waiting {
                        if *w == Some(barrier) {
                            *w = None;
                        }
                    }
                } else {
                    self.barrier_waiting[p.index()] = Some(barrier);
                }
            }
        }
        Ok(())
    }

    /// End-of-trace checks.
    pub(crate) fn finish(&self) -> Result<(), TraceError> {
        for (i, holder) in self.lock_holder.iter().enumerate() {
            if let Some(h) = holder {
                return Err(TraceError::DanglingSync {
                    detail: format!("{} still held by {h}", LockId::new(i as u32)),
                });
            }
        }
        for (i, count) in self.barrier_count.iter().enumerate() {
            if *count != 0 {
                return Err(TraceError::DanglingSync {
                    detail: format!(
                        "{} episode incomplete ({count}/{} arrived)",
                        BarrierId::new(i as u32),
                        self.n_procs
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Checks a finished trace for legality: the check behind
/// [`Trace::from_parts`].
///
/// # Errors
///
/// Returns the first [`TraceError`] found, with the offending event index
/// where applicable.
pub(crate) fn validate(trace: &Trace) -> Result<(), TraceError> {
    let mut legality = Legality::new(trace.meta());
    for (at, event) in trace.events().iter().enumerate() {
        legality.admit(at, event)?;
    }
    legality.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Trace, TraceMeta};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn meta() -> TraceMeta {
        TraceMeta::new("t", 2, 1, 1, 256)
    }

    fn trace(events: Vec<Event>) -> Result<(), TraceError> {
        validate(&Trace::from_parts_unchecked(meta(), events))
    }

    #[test]
    fn empty_trace_is_legal() {
        assert!(trace(vec![]).is_ok());
    }

    #[test]
    fn bounds_checked() {
        let err = trace(vec![Event::new(p(0), Op::Read { addr: 250, len: 16 })]).unwrap_err();
        assert!(matches!(err, TraceError::BadAccess { at: 0, .. }));
        let err = trace(vec![Event::new(p(0), Op::Read { addr: 0, len: 0 })]).unwrap_err();
        assert!(matches!(err, TraceError::BadAccess { .. }));
        let err = trace(vec![Event::new(
            p(0),
            Op::Write {
                addr: u64::MAX,
                len: 8,
            },
        )])
        .unwrap_err();
        assert!(
            matches!(err, TraceError::BadAccess { .. }),
            "overflow must not wrap"
        );
    }

    #[test]
    fn oversized_access_rejected() {
        let err = trace(vec![Event::new(
            p(0),
            Op::Read {
                addr: 0,
                len: MAX_ACCESS_LEN + 1,
            },
        )])
        .unwrap_err();
        assert!(matches!(err, TraceError::BadAccess { .. }));
    }

    #[test]
    fn unknown_ids_rejected() {
        assert!(matches!(
            trace(vec![Event::new(p(5), Op::Read { addr: 0, len: 4 })]).unwrap_err(),
            TraceError::UnknownProc { .. }
        ));
        assert!(matches!(
            trace(vec![Event::new(p(0), Op::Acquire(LockId::new(3)))]).unwrap_err(),
            TraceError::UnknownLock { .. }
        ));
        assert!(matches!(
            trace(vec![Event::new(p(0), Op::Barrier(BarrierId::new(3)))]).unwrap_err(),
            TraceError::UnknownBarrier { .. }
        ));
    }

    #[test]
    fn lock_discipline_enforced() {
        let l = LockId::new(0);
        // Double acquire by different procs.
        let err = trace(vec![
            Event::new(p(0), Op::Acquire(l)),
            Event::new(p(1), Op::Acquire(l)),
        ])
        .unwrap_err();
        assert!(matches!(err, TraceError::LockDiscipline { at: 1, .. }));
        // Release without holding.
        let err = trace(vec![Event::new(p(1), Op::Release(l))]).unwrap_err();
        assert!(matches!(err, TraceError::LockDiscipline { at: 0, .. }));
    }

    #[test]
    fn blocked_proc_cannot_act() {
        let b = BarrierId::new(0);
        let err = trace(vec![
            Event::new(p(0), Op::Barrier(b)),
            Event::new(p(0), Op::Read { addr: 0, len: 4 }),
        ])
        .unwrap_err();
        assert!(matches!(err, TraceError::ActiveWhileBlocked { at: 1, .. }));
    }

    #[test]
    fn barrier_episode_unblocks_everyone() {
        let b = BarrierId::new(0);
        assert!(trace(vec![
            Event::new(p(0), Op::Barrier(b)),
            Event::new(p(1), Op::Barrier(b)),
            Event::new(p(0), Op::Read { addr: 0, len: 4 }),
            Event::new(p(1), Op::Write { addr: 8, len: 4 }),
            // Second episode works too.
            Event::new(p(1), Op::Barrier(b)),
            Event::new(p(0), Op::Barrier(b)),
        ])
        .is_ok());
    }

    #[test]
    fn dangling_sync_detected() {
        let err = trace(vec![Event::new(p(0), Op::Acquire(LockId::new(0)))]).unwrap_err();
        assert!(matches!(err, TraceError::DanglingSync { .. }));
        let err = trace(vec![Event::new(p(0), Op::Barrier(BarrierId::new(0)))]).unwrap_err();
        assert!(matches!(err, TraceError::DanglingSync { .. }));
    }

    #[test]
    fn errors_render() {
        let err = trace(vec![Event::new(p(0), Op::Read { addr: 999, len: 4 })]).unwrap_err();
        assert_eq!(err.to_string(), "event 0: bad access [0x3e7, +4)");
    }
}
