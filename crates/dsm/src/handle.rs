use std::fmt;
use std::sync::Arc;

use lrc_core::EngineOp;
use lrc_sync::{BarrierArrival, BarrierError, BarrierId, LockError, LockId};
use lrc_vclock::ProcId;

use crate::cluster::Cluster;
use crate::DsmError;

/// One simulated processor of a running [`Dsm`](crate::Dsm).
///
/// A handle is the thread-side API of the DSM: typed shared-memory
/// accesses plus blocking lock and barrier operations. Handles are `Send`;
/// drive each processor from exactly one thread at a time (methods take
/// `&mut self` to enforce it).
pub struct ProcHandle {
    cluster: Arc<Cluster>,
    proc: ProcId,
}

impl ProcHandle {
    pub(crate) fn new(cluster: Arc<Cluster>, proc: ProcId) -> Self {
        ProcHandle { cluster, proc }
    }

    /// This handle's processor id.
    pub fn proc(&self) -> ProcId {
        self.proc
    }

    /// Reads `buf.len()` bytes at `addr`, running the protocol's miss
    /// resolution as needed.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the shared space.
    pub fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        self.cluster.engine.read_into(self.proc, addr, buf);
    }

    /// Writes `data` at `addr` (twinning pages on first write).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the shared space.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.cluster.engine.write(self.proc, addr, data);
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the shared space.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        let mut raw = [0u8; 8];
        self.read_bytes(addr, &mut raw);
        u64::from_le_bytes(raw)
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the shared space.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Acquires `lock`, blocking while another processor holds it. Under
    /// the lazy protocols this is where consistency information arrives.
    ///
    /// # Errors
    ///
    /// [`DsmError::Lock`] on misuse (unknown lock, double acquire).
    // Out of line: inlined into `apply`, the wait loop and its stuck-waiter
    // diagnostics bloat that function's frame and tax every operation the
    // node runtime dispatches (measured: +9% on the benchmark's `round_us`).
    #[inline(never)]
    pub fn acquire(&mut self, lock: LockId) -> Result<(), DsmError> {
        loop {
            // Capture this lock's release generation *before* trying: if a
            // release slips in between the failed attempt and the wait
            // below, the generation has moved and the wait falls through
            // immediately — no release notification can be lost. Out-of-
            // range ids skip the capture; the engine reports them.
            let generation = self
                .cluster
                .lock_slots
                .get(lock.index())
                .map(|slot| *slot.generation.lock());
            match self.cluster.engine.acquire(self.proc, lock) {
                Ok(()) => return Ok(()),
                Err(LockError::HeldByOther { .. }) => {
                    // A contended lock is necessarily in range.
                    let slot = &self.cluster.lock_slots[lock.index()];
                    let generation = generation.expect("contended lock is in range");
                    let mut current = slot.generation.lock();
                    while *current == generation {
                        if let Some(suspect_after) = self.cluster.holder_timeout {
                            // Failure-detector path: a holder silent past
                            // the deadline is presumed crashed. Declare it
                            // dead (flushing its interval and force-
                            // releasing its locks) and retry the acquire.
                            let result = slot.released.wait_for(&mut current, suspect_after);
                            if result.timed_out() && *current == generation {
                                drop(current);
                                if let Some(holder) = self.cluster.engine.core().lock_holder(lock) {
                                    if holder != self.proc {
                                        self.cluster.suspect_lock_holder(lock, generation, holder);
                                    }
                                }
                                break;
                            }
                            continue;
                        }
                        match self.cluster.wait_timeout {
                            None => slot.released.wait(&mut current),
                            Some(limit) => {
                                let result = slot.released.wait_for(&mut current, limit);
                                if result.timed_out() && *current == generation {
                                    panic!(
                                        "DSM wait deadline exceeded: {} waited {limit:?} \
                                         for {lock} (held by {}, release generation stuck \
                                         at {generation}) — lost wake-up or deadlock",
                                        self.proc,
                                        match self.cluster.engine.core().lock_holder(lock) {
                                            Some(holder) => holder.to_string(),
                                            None => "nobody".to_string(),
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Releases `lock`. Purely local under the lazy protocols; pushes
    /// updates or invalidations to all cachers under the eager ones.
    ///
    /// # Errors
    ///
    /// [`DsmError::Lock`] if this processor does not hold the lock.
    pub fn release(&mut self, lock: LockId) -> Result<(), DsmError> {
        self.cluster.engine.release(self.proc, lock)?;
        // Wake only this lock's waiters (a successful release implies the
        // id is in range).
        let slot = &self.cluster.lock_slots[lock.index()];
        *slot.generation.lock() += 1;
        slot.released.notify_all();
        Ok(())
    }

    /// Dispatches one decoded remote request with this runtime's blocking
    /// semantics. This is the node runtime's service entry point — a
    /// network node hosting this processor's peer decodes a frame into an
    /// [`EngineOp`] and applies it here. Data-plane operations (reads and
    /// writes) go straight to the engine; synchronization operations go
    /// through this handle's blocking wrappers, because blocking and
    /// wake-ups (lock wait queues, barrier episodes) live in the runtime,
    /// not the engine. Reads return their bytes; other operations return
    /// an empty vector.
    ///
    /// # Errors
    ///
    /// [`DsmError`] on misuse, like the individual methods — and, because
    /// the request comes from a peer, [`DsmError::OutOfRange`] where
    /// [`ProcHandle::read_bytes`] and [`ProcHandle::write_bytes`] panic.
    pub fn apply(&mut self, op: &EngineOp) -> Result<Vec<u8>, DsmError> {
        match op {
            EngineOp::Read { addr, len } => {
                // Checked before the buffer exists: `len` is peer-supplied.
                self.check_range(*addr, *len as usize)?;
                let mut buf = vec![0u8; *len as usize];
                self.read_bytes(*addr, &mut buf);
                Ok(buf)
            }
            EngineOp::Write { addr, data } => {
                self.check_range(*addr, data.len())?;
                self.write_bytes(*addr, data);
                Ok(Vec::new())
            }
            EngineOp::Acquire(lock) => self.acquire(*lock).map(|()| Vec::new()),
            EngineOp::Release(lock) => self.release(*lock).map(|()| Vec::new()),
            EngineOp::Barrier(barrier) => self.barrier(*barrier).map(|()| Vec::new()),
        }
    }

    fn check_range(&self, addr: u64, len: usize) -> Result<(), DsmError> {
        if self.cluster.engine.core().space().contains(addr, len) {
            Ok(())
        } else {
            Err(DsmError::OutOfRange { addr, len })
        }
    }

    /// Arrives at `barrier` and blocks until every processor has arrived.
    ///
    /// # Errors
    ///
    /// [`DsmError::Barrier`] on misuse (unknown barrier).
    // Out of line for the same reason as `acquire`.
    #[inline(never)]
    pub fn barrier(&mut self, barrier: BarrierId) -> Result<(), DsmError> {
        // Capture the episode we are about to complete. Between this
        // capture and our arrival the episode cannot complete — it needs
        // our arrival — so the target is stable.
        let target = {
            let episodes = self.cluster.episodes.lock();
            match episodes.get(barrier.index()) {
                Some(done) => done + 1,
                None => return Err(DsmError::Barrier(BarrierError::UnknownBarrier(barrier))),
            }
        };
        match self.cluster.engine.barrier(self.proc, barrier)? {
            BarrierArrival::Complete { .. } => {
                // The closing arrival drives the episode-based checkpoint
                // trigger *before* advancing the runtime counter: every
                // other processor is still parked below, so the cut is a
                // consistent synchronization point.
                if let Some(auto) = self.cluster.recovery.as_ref() {
                    auto.maybe_cut(self.cluster.lazy());
                }
                let mut episodes = self.cluster.episodes.lock();
                episodes[barrier.index()] += 1;
                drop(episodes);
                self.cluster.barrier_cv.notify_all();
                Ok(())
            }
            BarrierArrival::Waiting { .. } => {
                let mut episodes = self.cluster.episodes.lock();
                while episodes[barrier.index()] < target {
                    if let Some(suspect_after) = self.cluster.holder_timeout {
                        // Failure-detector path, mirroring the lock wait:
                        // an episode stuck past the deadline means a
                        // processor died before arriving. Suspect every
                        // live absentee; declaring one dead completes the
                        // episode on its behalf and advances the counter
                        // this loop re-checks. (The episodes lock is
                        // dropped first — suspicion takes the engine
                        // hierarchy and re-enters this counter to
                        // propagate completions.)
                        let result = self
                            .cluster
                            .barrier_cv
                            .wait_for(&mut episodes, suspect_after);
                        if result.timed_out() && episodes[barrier.index()] < target {
                            drop(episodes);
                            for absent in self.cluster.engine.core().barrier_absentees(barrier) {
                                if absent != self.proc {
                                    self.cluster
                                        .suspect_barrier_absentee(barrier, target, absent);
                                }
                            }
                            episodes = self.cluster.episodes.lock();
                        }
                        continue;
                    }
                    match self.cluster.wait_timeout {
                        None => self.cluster.barrier_cv.wait(&mut episodes),
                        Some(limit) => {
                            let result = self.cluster.barrier_cv.wait_for(&mut episodes, limit);
                            if result.timed_out() && episodes[barrier.index()] < target {
                                panic!(
                                    "DSM wait deadline exceeded: {} waited {limit:?} at \
                                     {barrier} for episode {target} (completed: {}) — a \
                                     processor never arrived, or its wake-up was lost",
                                    self.proc,
                                    episodes[barrier.index()],
                                );
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

impl fmt::Debug for ProcHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProcHandle({})", self.proc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsmBuilder;
    use lrc_sim::ProtocolKind;

    #[test]
    fn single_proc_smoke() {
        let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 1, 1 << 12)
            .page_size(256)
            .build()
            .unwrap();
        let mut p = dsm.handle(ProcId::new(0));
        assert_eq!(p.proc(), ProcId::new(0));
        p.write_u64(8, 99);
        assert_eq!(p.read_u64(8), 99);
        p.acquire(LockId::new(0)).unwrap();
        p.release(LockId::new(0)).unwrap();
        p.barrier(BarrierId::new(0)).unwrap();
        assert!(format!("{p:?}").contains("p0"));
    }

    #[test]
    fn misuse_is_reported() {
        let dsm = DsmBuilder::new(ProtocolKind::EagerInvalidate, 1, 1 << 12)
            .build()
            .unwrap();
        let mut p = dsm.handle(ProcId::new(0));
        assert!(matches!(p.release(LockId::new(0)), Err(DsmError::Lock(_))));
        assert!(matches!(
            p.barrier(BarrierId::new(99)),
            Err(DsmError::Barrier(_))
        ));
        p.acquire(LockId::new(1)).unwrap();
        assert!(matches!(p.acquire(LockId::new(1)), Err(DsmError::Lock(_))));
    }
}
