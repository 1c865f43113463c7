//! Per-processor programs and legal interleaving.
//!
//! A trace is a *global* order, but parallel programs are written
//! per-processor. [`Program`] holds one processor's operation sequence;
//! [`interleave`] schedules a set of programs into a legal global trace,
//! respecting lock and barrier blocking exactly like a real execution
//! would: a processor whose next operation would block is skipped until
//! the synchronization state lets it proceed.
//!
//! The scheduler is deterministic for a given seed, so interleavings are
//! reproducible; different seeds yield different (all legal) executions of
//! the same program set — useful for checking that protocol results do not
//! depend on scheduling accidents.

use lrc_sync::{BarrierId, LockId};
use lrc_vclock::ProcId;

use crate::validate::Legality;
use crate::{Event, Op, Trace, TraceError, TraceMeta};

/// One processor's operation sequence, in program order.
///
/// # Example
///
/// ```
/// use lrc_trace::{interleave, Program, TraceMeta};
/// use lrc_sync::LockId;
/// use lrc_vclock::ProcId;
///
/// let meta = TraceMeta::new("two", 2, 1, 0, 4096);
/// let mut a = Program::new(ProcId::new(0));
/// a.acquire(LockId::new(0)).write(0, 8).release(LockId::new(0));
/// let mut b = Program::new(ProcId::new(1));
/// b.acquire(LockId::new(0)).read(0, 8).release(LockId::new(0));
///
/// let trace = interleave(meta, vec![a, b], 7)?;
/// assert_eq!(trace.len(), 6);
/// # Ok::<(), lrc_trace::TraceError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Program {
    proc: ProcId,
    ops: Vec<Op>,
}

impl Program {
    /// Creates an empty program for processor `proc`.
    pub fn new(proc: ProcId) -> Self {
        Program {
            proc,
            ops: Vec::new(),
        }
    }

    /// The owning processor.
    pub(crate) fn proc(&self) -> ProcId {
        self.proc
    }

    /// Operations in program order.
    pub(crate) fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// Appends a read.
    pub fn read(&mut self, addr: u64, len: u32) -> &mut Self {
        self.ops.push(Op::Read { addr, len });
        self
    }

    /// Appends a write.
    pub fn write(&mut self, addr: u64, len: u32) -> &mut Self {
        self.ops.push(Op::Write { addr, len });
        self
    }

    /// Appends a lock acquire.
    pub fn acquire(&mut self, lock: LockId) -> &mut Self {
        self.ops.push(Op::Acquire(lock));
        self
    }

    /// Appends a lock release.
    pub fn release(&mut self, lock: LockId) -> &mut Self {
        self.ops.push(Op::Release(lock));
        self
    }

    /// Appends a barrier arrival.
    pub fn barrier(&mut self, barrier: BarrierId) -> &mut Self {
        self.ops.push(Op::Barrier(barrier));
        self
    }
}

/// Why a set of programs cannot be scheduled.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ScheduleError {
    /// Two programs claim the same processor, or a processor is outside
    /// the metadata's range.
    BadPrograms(String),
    /// Scheduling got stuck: every unfinished program's next operation
    /// blocks (e.g. a barrier some processor never reaches, or an acquire
    /// of a lock whose holder has finished without releasing).
    Deadlock {
        /// Events scheduled before the deadlock.
        scheduled: usize,
    },
    /// A scheduled event was rejected by trace validation — the programs
    /// are individually malformed (e.g. releasing a lock never held).
    Illegal(TraceError),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::BadPrograms(detail) => write!(f, "bad programs: {detail}"),
            ScheduleError::Deadlock { scheduled } => {
                write!(f, "deadlock after {scheduled} events")
            }
            ScheduleError::Illegal(e) => write!(f, "illegal program: {e}"),
        }
    }
}

impl std::error::Error for ScheduleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScheduleError::Illegal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScheduleError> for TraceError {
    fn from(e: ScheduleError) -> Self {
        match e {
            ScheduleError::Illegal(inner) => inner,
            other => TraceError::DanglingSync {
                detail: other.to_string(),
            },
        }
    }
}

/// Schedules per-processor programs into one legal global trace.
///
/// The scheduler repeatedly picks a runnable processor — seeded
/// pseudo-randomly, so distinct seeds produce distinct legal interleavings
/// — and emits a bounded burst of its operations. A processor whose next
/// operation would block (acquiring a held lock, waiting at a barrier) is
/// not scheduled until it can proceed, exactly like a real execution.
///
/// # Errors
///
/// Returns [`TraceError`] if the programs are malformed (duplicate or
/// out-of-range processors, lock misuse) or if they deadlock.
pub fn interleave(meta: TraceMeta, programs: Vec<Program>, seed: u64) -> Result<Trace, TraceError> {
    schedule(meta, programs, seed).map_err(TraceError::from)
}

fn schedule(meta: TraceMeta, programs: Vec<Program>, seed: u64) -> Result<Trace, ScheduleError> {
    let n = meta.n_procs();
    let mut seen = vec![false; n];
    for prog in &programs {
        let i = prog.proc().index();
        if i >= n {
            return Err(ScheduleError::BadPrograms(format!(
                "{} outside the {n}-processor system",
                prog.proc()
            )));
        }
        if seen[i] {
            return Err(ScheduleError::BadPrograms(format!(
                "two programs for {}",
                prog.proc()
            )));
        }
        seen[i] = true;
    }

    let mut cursors = vec![0usize; programs.len()];
    let mut legality = Legality::new(&meta);
    // Synchronization state mirrored for runnability checks.
    let mut lock_holder: Vec<Option<ProcId>> = vec![None; meta.n_locks()];
    let mut barrier_count: Vec<usize> = vec![0; meta.n_barriers()];
    let mut waiting_at: Vec<Option<BarrierId>> = vec![None; n];

    let mut events = Vec::new();
    let mut rng_state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next_rand = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };

    let total: usize = programs.iter().map(Program::len).sum();
    while events.len() < total {
        // Collect runnable programs.
        let runnable: Vec<usize> = (0..programs.len())
            .filter(|&pi| {
                let cursor = cursors[pi];
                if cursor >= programs[pi].len() {
                    return false;
                }
                let proc = programs[pi].proc();
                if waiting_at[proc.index()].is_some() {
                    return false;
                }
                match programs[pi].ops()[cursor] {
                    Op::Acquire(lock) => {
                        lock.index() < lock_holder.len() && lock_holder[lock.index()].is_none()
                    }
                    _ => true,
                }
            })
            .collect();
        if runnable.is_empty() {
            return Err(ScheduleError::Deadlock {
                scheduled: events.len(),
            });
        }
        let pick = runnable[(next_rand() % runnable.len() as u64) as usize];
        let burst = 1 + (next_rand() % 4) as usize;
        for _ in 0..burst {
            let cursor = cursors[pick];
            if cursor >= programs[pick].len() {
                break;
            }
            let proc = programs[pick].proc();
            let op = programs[pick].ops()[cursor];
            // Stop the burst rather than block mid-burst.
            let blocks = match op {
                Op::Acquire(lock) => {
                    lock.index() >= lock_holder.len() || lock_holder[lock.index()].is_some()
                }
                _ => false,
            };
            if blocks {
                break;
            }
            let event = Event::new(proc, op);
            legality
                .admit(events.len(), &event)
                .map_err(ScheduleError::Illegal)?;
            match op {
                Op::Acquire(lock) => lock_holder[lock.index()] = Some(proc),
                Op::Release(lock) => lock_holder[lock.index()] = None,
                Op::Barrier(barrier) => {
                    barrier_count[barrier.index()] += 1;
                    if barrier_count[barrier.index()] == n {
                        barrier_count[barrier.index()] = 0;
                        for w in waiting_at.iter_mut() {
                            if *w == Some(barrier) {
                                *w = None;
                            }
                        }
                    } else {
                        waiting_at[proc.index()] = Some(barrier);
                    }
                }
                _ => {}
            }
            events.push(event);
            cursors[pick] += 1;
            if waiting_at[proc.index()].is_some() {
                break; // the burst ends at a barrier
            }
        }
    }
    legality.finish().map_err(ScheduleError::Illegal)?;
    Ok(Trace::from_parts_unchecked(meta, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn meta(procs: usize, locks: usize, barriers: usize) -> TraceMeta {
        TraceMeta::new("interleaved", procs, locks, barriers, 1 << 14)
    }

    #[test]
    fn builder_chains_and_accessors() {
        let mut prog = Program::new(p(1));
        prog.read(0, 8)
            .write(8, 8)
            .acquire(LockId::new(0))
            .release(LockId::new(0));
        assert_eq!(prog.proc(), p(1));
        assert_eq!(prog.len(), 4);
        assert!(matches!(prog.ops()[0], Op::Read { .. }));
    }

    #[test]
    fn interleaving_is_legal_and_complete() {
        let mut programs = Vec::new();
        for i in 0..3u16 {
            let mut prog = Program::new(p(i));
            for round in 0..5u64 {
                prog.acquire(LockId::new(0));
                prog.read(0, 8);
                prog.write(0, 8);
                prog.release(LockId::new(0));
                prog.write(1024 + 64 * i as u64 + round, 8);
            }
            programs.push(prog);
        }
        let trace = interleave(meta(3, 1, 0), programs, 42).unwrap();
        assert_eq!(trace.len(), 3 * 5 * 5);
        assert!(validate(&trace).is_ok());
    }

    #[test]
    fn seeds_change_the_interleaving_but_not_legality() {
        let make = || {
            (0..3u16)
                .map(|i| {
                    let mut prog = Program::new(p(i));
                    for _ in 0..4 {
                        prog.acquire(LockId::new(0))
                            .write(0, 8)
                            .release(LockId::new(0));
                    }
                    prog
                })
                .collect::<Vec<_>>()
        };
        let a = interleave(meta(3, 1, 0), make(), 1).unwrap();
        let b = interleave(meta(3, 1, 0), make(), 2).unwrap();
        let c = interleave(meta(3, 1, 0), make(), 1).unwrap();
        assert_ne!(a, b, "different seeds interleave differently");
        assert_eq!(a, c, "same seed reproduces the schedule");
        assert!(validate(&a).is_ok() && validate(&b).is_ok());
    }

    #[test]
    fn barriers_synchronize_the_schedule() {
        let mut programs = Vec::new();
        for i in 0..4u16 {
            let mut prog = Program::new(p(i));
            prog.write(64 * i as u64, 8);
            prog.barrier(BarrierId::new(0));
            prog.read(64 * ((i as u64 + 1) % 4), 8);
            prog.barrier(BarrierId::new(0));
            programs.push(prog);
        }
        let trace = interleave(meta(4, 0, 1), programs, 9).unwrap();
        assert!(validate(&trace).is_ok());
        // All writes precede all reads (the barrier forces it).
        let first_read = trace
            .events()
            .iter()
            .position(|e| matches!(e.op, Op::Read { .. }));
        let last_write = trace
            .events()
            .iter()
            .rposition(|e| matches!(e.op, Op::Write { .. }));
        assert!(first_read.unwrap() > last_write.unwrap());
    }

    #[test]
    fn deadlock_is_detected() {
        // p0 waits at a barrier p1 never reaches.
        let mut a = Program::new(p(0));
        a.barrier(BarrierId::new(0));
        a.read(0, 8);
        let mut b = Program::new(p(1));
        b.write(64, 8);
        let err = interleave(meta(2, 0, 1), vec![a, b], 3).unwrap_err();
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn malformed_programs_are_rejected() {
        // Release without holding.
        let mut a = Program::new(p(0));
        a.release(LockId::new(0));
        assert!(interleave(meta(1, 1, 0), vec![a], 0).is_err());
        // Duplicate processor.
        let err = schedule(
            meta(2, 0, 0),
            vec![Program::new(p(0)), Program::new(p(0))],
            0,
        )
        .unwrap_err();
        assert!(matches!(err, ScheduleError::BadPrograms(_)));
        // Out-of-range processor.
        let err = schedule(meta(2, 0, 0), vec![Program::new(p(9))], 0).unwrap_err();
        assert!(matches!(err, ScheduleError::BadPrograms(_)));
    }

    #[test]
    fn critical_sections_of_different_locks_overlap() {
        // With two locks, some schedule interleaves the two critical
        // sections — the scheduler is not just running programs to
        // completion one at a time.
        let make = |proc: u16, lock: u32| {
            let mut prog = Program::new(p(proc));
            for _ in 0..8 {
                prog.acquire(LockId::new(lock));
                prog.write(2048 * (lock as u64 + 1), 8);
                prog.release(LockId::new(lock));
            }
            prog
        };
        let trace = interleave(meta(2, 2, 0), vec![make(0, 0), make(1, 1)], 5).unwrap();
        // Look for an acquire of one lock between acquire/release of the
        // other — evidence of overlap.
        let mut open: Option<ProcId> = None;
        let mut overlapped = false;
        for event in trace.events() {
            match event.op {
                Op::Acquire(_) => {
                    if open.is_some_and(|holder| holder != event.proc) {
                        overlapped = true;
                    }
                    open = Some(event.proc);
                }
                Op::Release(_) if open == Some(event.proc) => open = None,
                _ => {}
            }
        }
        assert!(overlapped, "seed 5 must overlap critical sections");
    }
}
