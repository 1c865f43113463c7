use lrc_core::{ConfigError, Engine, EngineCore, EngineParams, Lazy, OneThread, Sharing};
use lrc_eager::Eager;
use lrc_simnet::{MsgRecord, NetStats};
use lrc_sync::{BarrierArrival, BarrierError, BarrierId, LockError, LockId};
use lrc_vclock::ProcId;

use crate::ProtocolKind;

/// A protocol engine of either family behind one interface, built in the
/// [`Sharing`] family `S`.
///
/// The simulator, the runtime DSM, and the benches all drive protocols
/// through this type so a run is parameterized by [`ProtocolKind`] alone.
/// Everything the families share — recorder and fetch-hook attachment,
/// counters, the fabric, lock and barrier diagnostics — is reached through
/// [`AnyEngine::core`]; only the operations whose protocol hooks differ
/// dispatch on the family. Crash tolerance — checkpoints, deaths,
/// rejoins — belongs to the lazy engine alone, reached through
/// [`AnyEngine::as_lazy`].
///
/// The trace-driven simulator builds [`OneThread`] engines
/// ([`AnyEngine::build`]): no engine locks, no atomic counters, and not
/// `Sync`, so one cannot reach a second thread. The threaded runtime
/// (`lrc-dsm`) builds [`Threads`](lrc_core::Threads) engines through
/// `AnyEngine::<Threads>::new`.
///
/// ```compile_fail
/// use lrc_sim::{AnyEngine, EngineParams, ProtocolKind};
///
/// let engine = AnyEngine::build(ProtocolKind::LazyInvalidate, &EngineParams::default())?;
/// // A single-threaded engine is not `Sync`: no second thread may share it.
/// std::thread::scope(|s| {
///     s.spawn(|| engine.core().counters());
/// });
/// # Ok::<(), lrc_core::ConfigError>(())
/// ```
// The variants' sizes diverge as the lazy engine grows recovery state,
// but every construction site makes exactly one engine and keeps it for
// the whole run — boxing would tax every access to save one allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AnyEngine<S: Sharing> {
    /// A lazy release consistency engine (LI or LU).
    Lazy(Engine<Lazy<S>>),
    /// An eager release consistency engine (EI or EU).
    Eager(Engine<Eager<S>>),
}

impl AnyEngine<OneThread> {
    /// Builds a single-threaded engine of the given kind, for trace
    /// replay.
    ///
    /// # Errors
    ///
    /// As [`AnyEngine::new`].
    pub fn build(kind: ProtocolKind, params: &EngineParams) -> Result<Self, ConfigError> {
        AnyEngine::new(kind, params)
    }
}

impl<S: Sharing> AnyEngine<S> {
    /// Builds an engine of the given kind in family `S`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the parameters do not validate —
    /// including [`ConfigError::LazyOnly`] for a death lease on an eager
    /// kind.
    pub fn new(kind: ProtocolKind, params: &EngineParams) -> Result<Self, ConfigError> {
        Ok(if kind.is_lazy() {
            AnyEngine::Lazy(Engine::new(kind.policy(), params)?)
        } else {
            AnyEngine::Eager(Engine::new(kind.policy(), params)?)
        })
    }

    /// The protocol-independent core of either family.
    pub fn core(&self) -> &EngineCore<S> {
        match self {
            AnyEngine::Lazy(e) => e,
            AnyEngine::Eager(e) => e,
        }
    }

    /// Reads bytes, resolving misses.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range accesses (see [`Engine::read_into`]).
    pub fn read_into(&self, p: ProcId, addr: u64, buf: &mut [u8]) {
        match self {
            AnyEngine::Lazy(e) => e.read_into(p, addr, buf),
            AnyEngine::Eager(e) => e.read_into(p, addr, buf),
        }
    }

    /// Writes bytes, twinning as needed.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range accesses (see [`Engine::write`]).
    pub fn write(&self, p: ProcId, addr: u64, data: &[u8]) {
        match self {
            AnyEngine::Lazy(e) => e.write(p, addr, data),
            AnyEngine::Eager(e) => e.write(p, addr, data),
        }
    }

    /// Acquires a lock.
    ///
    /// # Errors
    ///
    /// Propagates [`LockError`].
    pub fn acquire(&self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        match self {
            AnyEngine::Lazy(e) => e.acquire(p, lock),
            AnyEngine::Eager(e) => e.acquire(p, lock),
        }
    }

    /// Releases a lock.
    ///
    /// # Errors
    ///
    /// Propagates [`LockError`].
    pub fn release(&self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        match self {
            AnyEngine::Lazy(e) => e.release(p, lock),
            AnyEngine::Eager(e) => e.release(p, lock),
        }
    }

    /// Arrives at a barrier.
    ///
    /// # Errors
    ///
    /// Propagates [`BarrierError`].
    pub fn barrier(&self, p: ProcId, barrier: BarrierId) -> Result<BarrierArrival, BarrierError> {
        match self {
            AnyEngine::Lazy(e) => e.barrier(p, barrier),
            AnyEngine::Eager(e) => e.barrier(p, barrier),
        }
    }

    /// Installs the miss-fetch instrumentation hook (see
    /// [`EngineCore::set_fetch_hook`]).
    ///
    /// # Panics
    ///
    /// Panics if a hook is already installed.
    pub fn set_fetch_hook(&self, hook: lrc_core::FetchHook) {
        self.core().set_fetch_hook(hook);
    }

    /// The logged messages (empty unless tracing was enabled).
    pub(crate) fn net_records(&self) -> Vec<MsgRecord> {
        self.core().net().traced()
    }

    /// Snapshot of the network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.core().net().stats()
    }

    /// The lazy engine, if this is one.
    pub fn as_lazy(&self) -> Option<&Engine<Lazy<S>>> {
        match self {
            AnyEngine::Lazy(e) => Some(e),
            AnyEngine::Eager(_) => None,
        }
    }

    /// Whether a processor is declared dead (always `false` on eager
    /// engines, which have no crash story).
    pub fn is_dead(&self, p: ProcId) -> bool {
        self.as_lazy().is_some_and(|e| e.is_dead(p))
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
