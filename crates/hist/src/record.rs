use std::fmt;
use std::sync::Arc;

use lrc_sync::{BarrierId, LockId};
use lrc_vclock::ProcId;
use parking_lot::lockdep::classes;
use parking_lot::Mutex;

use crate::{HistEvent, History};

/// Collects per-processor event logs from a running engine.
///
/// The engines call the hooks below from their public entry points: reads
/// and writes from the fast path (each processor appends only to its own
/// log, so the per-log mutex is uncontended), synchronization operations
/// from the slow path. The recorder assigns no ordering of its own: the
/// *engine* supplies each acquire's position in its lock's total grant
/// order (assigned by the lock table under that lock's serialization) and
/// each barrier crossing's episode (assigned by the barrier set). That is
/// the sync-order contract that lets engines run slow paths for different
/// locks and pages concurrently — there is no global protocol lock for the
/// recorder to shelter under, and none is needed: per-lock grant numbers
/// and per-barrier episodes are exactly the happens-before edges the
/// checker consumes. Attach one recorder to one engine via
/// `attach_recorder` (`lrc-core`, `lrc-eager`, or `Dsm::attach_recorder`
/// in `lrc-dsm`), run the program, then take the [`History`] with
/// [`HistoryRecorder::finish`].
pub struct HistoryRecorder {
    n_procs: usize,
    logs: Vec<Mutex<Vec<HistEvent>>>,
}

impl HistoryRecorder {
    /// A recorder for an `n_procs`-processor engine.
    pub fn new(n_procs: usize) -> Arc<Self> {
        Arc::new(HistoryRecorder {
            n_procs,
            logs: (0..n_procs)
                .map(|_| Mutex::new_in(Vec::new(), classes::HIST_LOG))
                .collect(),
        })
    }

    /// Number of processors this recorder covers.
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }

    fn push(&self, p: ProcId, event: HistEvent) {
        self.logs[p.index()].lock().push(event);
    }

    /// Records a read that observed `value`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn read(&self, p: ProcId, addr: u64, value: &[u8]) {
        self.push(
            p,
            HistEvent::Read {
                addr,
                value: value.to_vec(),
            },
        );
    }

    /// Records a write of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn write(&self, p: ProcId, addr: u64, value: &[u8]) {
        self.push(
            p,
            HistEvent::Write {
                addr,
                value: value.to_vec(),
            },
        );
    }

    /// Records a *successful* lock acquire. `grant` is the engine-assigned
    /// position of this acquire in `lock`'s total grant order (1 for the
    /// lock's first grant) — take it from the lock table's acquire result,
    /// which assigns it under the same serialization that hands the lock
    /// over, so no additional locking is required of the caller.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn acquire(&self, p: ProcId, lock: LockId, grant: u64) {
        self.push(p, HistEvent::Acquire { lock, grant });
    }

    /// Records a lock release closing the engine-assigned `grant` — the
    /// number the matching acquire was given (the holder is exclusive, so
    /// no grant can intervene between a processor's acquire and its
    /// release; the lock table's release reports it).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn release(&self, p: ProcId, lock: LockId, grant: u64) {
        self.push(p, HistEvent::Release { lock, grant });
    }

    /// Records a barrier arrival in the engine-assigned `episode` (0 for
    /// the barrier's first episode) — take it from the barrier set's
    /// arrival outcome, which assigns it under the set's own
    /// serialization.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn barrier(&self, p: ProcId, barrier: BarrierId, episode: u64) {
        self.push(p, HistEvent::Barrier { barrier, episode });
    }

    /// Records that `p` was declared dead (crash recovery). The engine
    /// calls this after force-releasing the dead holder's locks, so the
    /// marker sits exactly where `p`'s execution stopped; events recorded
    /// after it belong to the rejoined incarnation.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn crash(&self, p: ProcId) {
        self.push(p, HistEvent::Crash);
    }

    /// Snapshots the recorded history (the recorder keeps collecting; for
    /// a finished run this is simply the complete history).
    pub fn finish(&self) -> History {
        History {
            logs: self.logs.iter().map(|log| log.lock().clone()).collect(),
        }
    }
}

impl fmt::Debug for HistoryRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let events: usize = self.logs.iter().map(|log| log.lock().len()).sum();
        write!(
            f,
            "HistoryRecorder({} procs, {events} events)",
            self.n_procs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    #[test]
    fn engine_assigned_grants_and_releases_round_trip() {
        let rec = HistoryRecorder::new(2);
        rec.acquire(p(0), LockId::new(0), 1);
        rec.release(p(0), LockId::new(0), 1);
        rec.acquire(p(1), LockId::new(0), 2);
        rec.acquire(p(0), LockId::new(3), 1); // independent order per lock
        let h = rec.finish();
        assert_eq!(
            h.log(p(0))[0],
            HistEvent::Acquire {
                lock: LockId::new(0),
                grant: 1
            }
        );
        assert_eq!(
            h.log(p(0))[1],
            HistEvent::Release {
                lock: LockId::new(0),
                grant: 1
            }
        );
        assert_eq!(
            h.log(p(1))[0],
            HistEvent::Acquire {
                lock: LockId::new(0),
                grant: 2
            }
        );
        assert_eq!(
            h.log(p(0))[2],
            HistEvent::Acquire {
                lock: LockId::new(3),
                grant: 1
            }
        );
    }

    #[test]
    fn engine_assigned_episodes_are_recorded_verbatim() {
        let rec = HistoryRecorder::new(2);
        let b = BarrierId::new(0);
        rec.barrier(p(0), b, 0);
        rec.barrier(p(1), b, 0);
        rec.barrier(p(1), b, 1);
        rec.barrier(p(0), b, 1);
        let h = rec.finish();
        let episodes: Vec<u64> = h
            .log(p(0))
            .iter()
            .chain(h.log(p(1)))
            .filter_map(|e| match e {
                HistEvent::Barrier { episode, .. } => Some(*episode),
                _ => None,
            })
            .collect();
        assert_eq!(episodes, vec![0, 1, 0, 1]);
    }

    #[test]
    fn accesses_carry_bytes_and_debug_counts() {
        let rec = HistoryRecorder::new(1);
        rec.write(p(0), 8, &[1, 2]);
        rec.read(p(0), 8, &[1, 2]);
        assert!(format!("{rec:?}").contains("2 events"));
        let h = rec.finish();
        assert_eq!(h.log(p(0))[1].access(), Some((8, 2, false)));
        assert_eq!(h.log(p(0))[0].access(), Some((8, 2, true)));
    }
}
