use std::fmt;
use std::sync::Arc;

use lrc_core::EngineOp;
use lrc_sync::{BarrierArrival, BarrierId, LockError, LockId};
use lrc_vclock::ProcId;

use crate::cluster::{or_panic, Cluster};
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
    /// Panics if the range is outside the shared space, or with
    /// [`DsmError::Dead`]'s message if this processor is declared dead
    /// ([`ProcHandle::apply`] returns that error instead).
    pub fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        or_panic(self.cluster.read(self.proc, addr, buf));
    }

    /// Writes `data` at `addr` (twinning pages on first write).
    ///
    /// # Panics
    ///
    /// See [`ProcHandle::read_bytes`].
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        or_panic(self.cluster.write(self.proc, addr, data));
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Panics
    ///
    /// See [`ProcHandle::read_bytes`].
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        let mut raw = [0u8; 8];
        self.read_bytes(addr, &mut raw);
        u64::from_le_bytes(raw)
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Panics
    ///
    /// See [`ProcHandle::read_bytes`].
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Acquires `lock`, blocking while another processor holds it. Under
    /// the lazy protocols this is where consistency information arrives.
    ///
    /// # Errors
    ///
    /// [`DsmError::Lock`] on misuse (unknown lock, double acquire), and
    /// [`DsmError::Dead`] if this processor is declared dead before or
    /// while it waits.
    pub fn acquire(&mut self, lock: LockId) -> Result<(), DsmError> {
        let (cluster, p) = (&*self.cluster, self.proc);
        let state = cluster.lock_for(p)?;
        let mut acquired = state.engine.acquire(p, lock);
        if let Err(LockError::HeldByOther { .. }) = acquired {
            // A contended lock is in range.
            cluster.wait(
                state,
                p,
                &cluster.lock_freed[lock.index()],
                &mut |s| {
                    acquired = s.engine.acquire(p, lock);
                    !matches!(acquired, Err(LockError::HeldByOther { .. }))
                },
                &|s| s.engine.core().lock_holder(lock).into_iter().collect(),
                &|s| {
                    let holder = s.engine.core().lock_holder(lock);
                    format!(
                        "{p} waited for {lock} (held by {}) — lost wake-up or deadlock",
                        holder.map_or("nobody".to_string(), |h| h.to_string()),
                    )
                },
            )?;
        }
        Ok(acquired?)
    }

    /// Releases `lock`. Purely local under the lazy protocols; pushes
    /// updates or invalidations to all cachers under the eager ones.
    ///
    /// # Errors
    ///
    /// [`DsmError::Lock`] if this processor does not hold the lock, and
    /// [`DsmError::Dead`] if it is declared dead.
    pub fn release(&mut self, lock: LockId) -> Result<(), DsmError> {
        let state = self.cluster.lock_for(self.proc)?;
        Ok(self.cluster.release(state, self.proc, lock)?)
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
    /// the request comes from a peer, [`DsmError::OutOfRange`] and
    /// [`DsmError::Dead`] where [`ProcHandle::read_bytes`] and
    /// [`ProcHandle::write_bytes`] panic.
    pub fn apply(&mut self, op: &EngineOp) -> Result<Vec<u8>, DsmError> {
        match op {
            EngineOp::Read { addr, len } => {
                // Checked before the buffer exists: `len` is peer-supplied.
                self.check_range(*addr, *len as usize)?;
                let mut buf = vec![0u8; *len as usize];
                self.cluster.read(self.proc, *addr, &mut buf)?;
                Ok(buf)
            }
            EngineOp::Write { addr, data } => {
                self.check_range(*addr, data.len())?;
                self.cluster.write(self.proc, *addr, data)?;
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
    /// [`DsmError::Barrier`] on misuse (unknown barrier), and
    /// [`DsmError::Dead`] if this processor is declared dead before or
    /// while it waits.
    pub fn barrier(&mut self, barrier: BarrierId) -> Result<(), DsmError> {
        let (cluster, p) = (&*self.cluster, self.proc);
        let (state, arrival) = cluster.arrive(cluster.lock_for(p)?, p, barrier)?;
        if let BarrierArrival::Waiting { episode, .. } = arrival {
            // An arrival the engine accepts is in range.
            cluster.wait(
                state,
                p,
                &cluster.episode_done[barrier.index()],
                &mut |s| s.episodes_done[barrier.index()] > episode,
                &|s| s.engine.core().barrier_absentees(barrier),
                &|_| {
                    format!(
                        "{p} waited at {barrier} in episode {episode} — a processor \
                         never arrived, or its wake-up was lost"
                    )
                },
            )?;
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
