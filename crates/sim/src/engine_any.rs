use std::cell::{Ref, RefCell, RefMut};

use lrc_core::{ConfigError, EngineCore, EngineParams, LrcEngine, Miss, MissTicket};
use lrc_eager::EagerEngine;
use lrc_pagemem::PageId;
use lrc_simnet::{MsgRecord, NetStats};
use lrc_sync::{BarrierArrival, BarrierError, BarrierId, LockError, LockId};
use lrc_vclock::ProcId;

use crate::ProtocolKind;

/// A protocol engine of either family, driven through `&mut self`: what
/// a replay owns, and what [`AnyEngine`] keeps in its `RefCell`.
// The variants' sizes diverge as the lazy engine grows recovery state,
// but every construction site makes exactly one engine and keeps it for
// the whole run — boxing would tax every access to save one allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum EitherEngine {
    Lazy(LrcEngine),
    Eager(EagerEngine),
}

/// Forwards one call to whichever engine `$engine` holds.
macro_rules! either {
    ($engine:expr, $e:ident => $call:expr) => {
        match $engine {
            EitherEngine::Lazy($e) => $call,
            EitherEngine::Eager($e) => $call,
        }
    };
}

impl EitherEngine {
    pub(crate) fn new(kind: ProtocolKind, params: &EngineParams) -> Result<Self, ConfigError> {
        Ok(if kind.is_lazy() {
            EitherEngine::Lazy(LrcEngine::new(kind.policy(), params)?)
        } else {
            EitherEngine::Eager(EagerEngine::new(kind.policy(), params)?)
        })
    }

    pub(crate) fn core(&self) -> &EngineCore {
        either!(self, e => e)
    }

    pub(crate) fn core_mut(&mut self) -> &mut EngineCore {
        either!(self, e => e)
    }

    pub(crate) fn read_into(&mut self, p: ProcId, addr: u64, buf: &mut [u8]) {
        either!(self, e => e.read_into(p, addr, buf))
    }

    pub(crate) fn write(&mut self, p: ProcId, addr: u64, data: &[u8]) {
        either!(self, e => e.write(p, addr, data))
    }

    pub(crate) fn acquire(&mut self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        either!(self, e => e.acquire(p, lock))
    }

    pub(crate) fn release(&mut self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        either!(self, e => e.release(p, lock))
    }

    pub(crate) fn barrier(
        &mut self,
        p: ProcId,
        barrier: BarrierId,
    ) -> Result<BarrierArrival, BarrierError> {
        either!(self, e => e.barrier(p, barrier))
    }

    pub(crate) fn as_lazy(&mut self) -> Option<&mut LrcEngine> {
        match self {
            EitherEngine::Lazy(e) => Some(e),
            EitherEngine::Eager(_) => None,
        }
    }

    /// The logged messages (empty unless tracing was enabled).
    pub(crate) fn net_records(&self) -> Vec<MsgRecord> {
        self.core().net().traced()
    }
}

/// A protocol engine of either family behind one interface, each call
/// borrowing it once.
///
/// The simulator, the runtime DSM, and the benches all drive protocols
/// through this type so a run is parameterized by [`ProtocolKind`] alone.
/// Everything the families share — recorder attachment, counters, the
/// fabric, lock and barrier diagnostics — is reached through
/// [`AnyEngine::core`]; only the operations whose protocol hooks differ
/// dispatch on the family. Crash tolerance — checkpoints, deaths,
/// rejoins — belongs to the lazy engine alone, reached through
/// [`AnyEngine::as_lazy`].
///
/// Accesses resolve misses two ways. [`AnyEngine::read_into`] and
/// [`AnyEngine::write`] call each miss's two halves back to back, as the
/// simulator does. [`AnyEngine::try_read`] and [`AnyEngine::try_write`]
/// name the page that misses instead, for a driver that resolves it with
/// [`AnyEngine::begin_miss`] and [`AnyEngine::finish_miss`] and runs the
/// fetch in between — the threaded runtime, which keeps its engine
/// behind a mutex.
#[derive(Debug)]
pub struct AnyEngine(RefCell<EitherEngine>);

impl AnyEngine {
    /// Builds an engine of the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the parameters do not validate —
    /// including [`ConfigError::LazyOnly`] for a death lease on an eager
    /// kind.
    pub fn build(kind: ProtocolKind, params: &EngineParams) -> Result<Self, ConfigError> {
        EitherEngine::new(kind, params).map(|engine| AnyEngine(RefCell::new(engine)))
    }

    /// The protocol-independent core of either family, borrowed until
    /// the guard drops.
    pub fn core(&self) -> Ref<'_, EngineCore> {
        Ref::map(self.0.borrow(), EitherEngine::core)
    }

    /// The protocol-independent core, borrowed for a change (a recorder,
    /// a checkpoint's statistics) until the guard drops.
    pub fn core_mut(&self) -> RefMut<'_, EngineCore> {
        RefMut::map(self.0.borrow_mut(), EitherEngine::core_mut)
    }

    /// Reads bytes, resolving misses back to back.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range accesses (see [`Engine::read_into`](lrc_core::Engine::read_into)).
    pub fn read_into(&self, p: ProcId, addr: u64, buf: &mut [u8]) {
        self.0.borrow_mut().read_into(p, addr, buf);
    }

    /// Writes bytes, twinning as needed and resolving misses back to
    /// back.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range accesses (see [`Engine::write`](lrc_core::Engine::write)).
    pub fn write(&self, p: ProcId, addr: u64, data: &[u8]) {
        self.0.borrow_mut().write(p, addr, data);
    }

    /// Reads bytes if every page is valid (see [`Engine::try_read`](lrc_core::Engine::try_read)).
    ///
    /// # Errors
    ///
    /// The first page of the range that is not valid at `p`.
    pub fn try_read(&self, p: ProcId, addr: u64, buf: &mut [u8]) -> Result<(), PageId> {
        either!(&mut *self.0.borrow_mut(), e => e.try_read(p, addr, buf))
    }

    /// Writes bytes if every page is valid (see [`Engine::try_write`](lrc_core::Engine::try_write)).
    ///
    /// # Errors
    ///
    /// The first page of the range that is not valid at `p`.
    pub fn try_write(&self, p: ProcId, addr: u64, data: &[u8]) -> Result<(), PageId> {
        either!(&mut *self.0.borrow_mut(), e => e.try_write(p, addr, data))
    }

    /// Begins resolving a miss (see [`Engine::begin_miss`](lrc_core::Engine::begin_miss)).
    pub fn begin_miss(&self, p: ProcId, page: PageId) -> Miss {
        either!(&mut *self.0.borrow_mut(), e => e.begin_miss(p, page))
    }

    /// Finishes a begun miss (see [`Engine::finish_miss`](lrc_core::Engine::finish_miss)):
    /// `false` if a death dropped it.
    pub fn finish_miss(&self, ticket: MissTicket) -> bool {
        either!(&mut *self.0.borrow_mut(), e => e.finish_miss(ticket))
    }

    /// True if `p` holds a valid copy of `page`.
    pub fn page_valid(&self, p: ProcId, page: PageId) -> bool {
        either!(&*self.0.borrow(), e => e.page_valid(p, page))
    }

    /// Acquires a lock.
    ///
    /// # Errors
    ///
    /// Propagates [`LockError`].
    pub fn acquire(&self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        self.0.borrow_mut().acquire(p, lock)
    }

    /// Releases a lock.
    ///
    /// # Errors
    ///
    /// Propagates [`LockError`].
    pub fn release(&self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        self.0.borrow_mut().release(p, lock)
    }

    /// Arrives at a barrier.
    ///
    /// # Errors
    ///
    /// Propagates [`BarrierError`].
    pub fn barrier(&self, p: ProcId, barrier: BarrierId) -> Result<BarrierArrival, BarrierError> {
        self.0.borrow_mut().barrier(p, barrier)
    }

    /// Snapshot of the network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.core().net().stats()
    }

    /// The lazy engine, if this is one, borrowed until the guard drops.
    pub fn as_lazy(&self) -> Option<RefMut<'_, LrcEngine>> {
        RefMut::filter_map(self.0.borrow_mut(), EitherEngine::as_lazy).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> EngineParams {
        EngineParams {
            n_procs: 2,
            mem_bytes: 1 << 14,
            page_bytes: 512,
            n_locks: 2,
            n_barriers: 1,
            ..EngineParams::default()
        }
    }

    #[test]
    fn builds_all_kinds() {
        for kind in ProtocolKind::ALL {
            let engine = AnyEngine::build(kind, &params()).unwrap();
            assert_eq!(engine.core().space().page_size().bytes(), 512);
            assert_eq!(engine.core().policy(), kind.policy());
            assert_eq!(engine.as_lazy().is_some(), kind.is_lazy());
        }
    }

    #[test]
    fn dispatch_works_end_to_end() {
        for kind in ProtocolKind::ALL {
            let e = AnyEngine::build(kind, &params()).unwrap();
            let (p0, p1) = (ProcId::new(0), ProcId::new(1));
            let l = LockId::new(0);
            e.acquire(p0, l).unwrap();
            e.write(p0, 0, &[1, 2, 3]);
            e.release(p0, l).unwrap();
            e.acquire(p1, l).unwrap();
            let mut buf = [0u8; 3];
            e.read_into(p1, 0, &mut buf);
            assert_eq!(buf, [1, 2, 3], "{kind}");
            e.release(p1, l).unwrap();
            assert!(e.net_stats().total().msgs > 0);
        }
    }

    #[test]
    fn bad_params_error() {
        let mut bad = params();
        bad.page_bytes = 1000;
        assert!(AnyEngine::build(ProtocolKind::LazyInvalidate, &bad).is_err());
    }
}
