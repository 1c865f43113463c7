use std::fmt;
use std::sync::Arc;

use lrc_core::EngineOp;
use lrc_sync::{BarrierArrival, BarrierId, LockError, LockId};
use lrc_vclock::ProcId;

use crate::cluster::{lazy, Cluster, WaitSlot};
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
        self.cluster.read(self.proc, addr, buf);
    }

    /// Writes `data` at `addr` (twinning pages on first write).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the shared space.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.cluster.write(self.proc, addr, data);
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
    pub fn acquire(&mut self, lock: LockId) -> Result<(), DsmError> {
        let cluster = &*self.cluster;
        loop {
            // Captured *before* the attempt: a release that slips in
            // between the failed attempt and the wait moves the generation,
            // and the wait falls through at once. Out-of-range ids skip the
            // capture; the engine reports them.
            let capture = cluster.lock_slots.get(lock.index()).map(WaitSlot::capture);
            let acquired = cluster.lock().acquire(self.proc, lock);
            match acquired {
                Ok(()) => return Ok(()),
                Err(LockError::HeldByOther { .. }) => {
                    let (slot, captured) = capture.expect("a contended lock is in range");
                    let holder = || cluster.lock().core().lock_holder(lock);
                    cluster.wait_moved(
                        slot,
                        captured,
                        &|| holder().into_iter().filter(|&h| h != self.proc).collect(),
                        &|| {
                            format!(
                                "{} waited for {lock} (held by {}, release generation stuck \
                                 at {captured}) — lost wake-up or deadlock",
                                self.proc,
                                holder().map_or("nobody".to_string(), |h| h.to_string()),
                            )
                        },
                    );
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
        self.cluster.lock().release(self.proc, lock)?;
        // Wake only this lock's waiters (a successful release implies the
        // id is in range).
        self.cluster.lock_slots[lock.index()].advance();
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
        if self.cluster.space().contains(addr, len) {
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
    pub fn barrier(&mut self, barrier: BarrierId) -> Result<(), DsmError> {
        let cluster = &*self.cluster;
        // No episode of this barrier can complete between the capture and
        // our own arrival, because the episode needs that arrival. So the
        // generation moving past the capture means exactly that our
        // episode completed. Out-of-range ids skip the capture; the engine
        // reports them.
        let capture = cluster
            .barrier_slots
            .get(barrier.index())
            .map(WaitSlot::capture);
        let arrival = {
            let engine = cluster.lock();
            let arrival = engine.barrier(self.proc, barrier)?;
            // The closing arrival drives the episode-based checkpoint
            // trigger in the same hold of the engine, *before* the slot
            // advances: every other processor is still parked, so the cut
            // is a consistent synchronization point.
            if let (BarrierArrival::Complete { .. }, Some(auto)) = (&arrival, &cluster.recovery) {
                auto.maybe_cut(&mut lazy(&engine));
            }
            arrival
        };
        let (slot, captured) = capture.expect("an arrival the engine accepts is in range");
        match arrival {
            BarrierArrival::Complete { .. } => slot.advance(),
            BarrierArrival::Waiting { episode, .. } => {
                cluster.wait_moved(
                    slot,
                    captured,
                    &|| {
                        let absent = cluster.lock().core().barrier_absentees(barrier);
                        absent.into_iter().filter(|&p| p != self.proc).collect()
                    },
                    &|| {
                        format!(
                            "{} waited at {barrier} in episode {episode} — a processor \
                             never arrived, or its wake-up was lost",
                            self.proc,
                        )
                    },
                );
            }
        }
        Ok(())
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
