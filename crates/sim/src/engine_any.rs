use lrc_core::{
    CheckpointError, ConfigError, DeathReport, Engine, EngineCheckpoint, EngineCore, EngineParams,
    LrcEngine,
};
use lrc_eager::{EagerCheckpoint, EagerEngine};
use lrc_simnet::{MsgRecord, NetStats};
use lrc_sync::{BarrierArrival, BarrierError, BarrierId, LockError, LockId};
use lrc_vclock::ProcId;

use crate::ProtocolKind;

/// A protocol engine of either family behind one interface.
///
/// The simulator, the runtime DSM, and the benches all drive protocols
/// through this type so a run is parameterized by [`ProtocolKind`] alone.
/// Everything the families share — recorder and fetch-hook attachment,
/// counters, the fabric, lock and barrier diagnostics — is reached through
/// [`AnyEngine::core`]; only the operations whose protocol hooks differ
/// dispatch on the family.
// The variants' sizes diverge as the lazy engine grows recovery state,
// but every construction site makes exactly one engine and keeps it for
// the whole run — boxing would tax every access to save one allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AnyEngine {
    /// A lazy release consistency engine (LI or LU).
    Lazy(LrcEngine),
    /// An eager release consistency engine (EI or EU).
    Eager(EagerEngine),
}

impl AnyEngine {
    /// Builds an engine of the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the parameters do not validate —
    /// including [`ConfigError::LazyOnly`] for a death lease on an eager
    /// kind.
    pub fn build(kind: ProtocolKind, params: &EngineParams) -> Result<Self, ConfigError> {
        Ok(if kind.is_lazy() {
            AnyEngine::Lazy(Engine::new(kind.policy(), params)?)
        } else {
            AnyEngine::Eager(Engine::new(kind.policy(), params)?)
        })
    }

    /// The protocol-independent core of either family.
    pub fn core(&self) -> &EngineCore {
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
    pub fn net_records(&self) -> Vec<MsgRecord> {
        self.core().net().traced()
    }

    /// Snapshot of the network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.core().net().stats()
    }

    /// The lazy engine, if this is one.
    pub fn as_lazy(&self) -> Option<&LrcEngine> {
        match self {
            AnyEngine::Lazy(e) => Some(e),
            AnyEngine::Eager(_) => None,
        }
    }

    // ---- crash tolerance ----

    /// Captures a checkpoint of either engine family. Call at a
    /// synchronization point so the cut is consistent (see
    /// [`Engine::checkpoint`]).
    pub fn checkpoint(&self) -> AnyCheckpoint {
        match self {
            AnyEngine::Lazy(e) => AnyCheckpoint::Lazy(e.checkpoint()),
            AnyEngine::Eager(e) => AnyCheckpoint::Eager(e.checkpoint()),
        }
    }

    /// Restores a checkpoint into this (freshly built) engine.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Incompatible`] if the checkpoint belongs to the
    /// other engine family or describes a different shape.
    pub fn restore(&self, ckpt: &AnyCheckpoint) -> Result<(), CheckpointError> {
        match (self, ckpt) {
            (AnyEngine::Lazy(e), AnyCheckpoint::Lazy(c)) => e.restore(c),
            (AnyEngine::Eager(e), AnyCheckpoint::Eager(c)) => e.restore(c),
            _ => Err(CheckpointError::Incompatible(
                "checkpoint belongs to the other engine family".into(),
            )),
        }
    }

    /// Declares a processor dead (lazy engines only — see
    /// [`lrc_core::LrcEngine::declare_dead`]).
    ///
    /// # Panics
    ///
    /// Panics on an eager engine: the eager baseline has no crash story.
    pub fn declare_dead(&self, p: ProcId) -> DeathReport {
        self.as_lazy()
            .expect("crash tolerance is a lazy-engine feature")
            .declare_dead(p)
    }

    /// Whether a processor is declared dead (always `false` on eager
    /// engines, which have no crash story).
    pub fn is_dead(&self, p: ProcId) -> bool {
        self.as_lazy().is_some_and(|e| e.is_dead(p))
    }

    /// Whether any processor is dead with an unexpired rejoin lease (see
    /// [`lrc_core::LrcEngine::awaiting_rejoin`]; always `false` on eager
    /// engines).
    pub fn awaiting_rejoin(&self) -> bool {
        self.as_lazy().is_some_and(LrcEngine::awaiting_rejoin)
    }

    /// Rejoins a dead processor from a checkpoint (lazy engines only —
    /// see [`lrc_core::LrcEngine::rejoin`]).
    ///
    /// # Errors
    ///
    /// Propagates [`CheckpointError`]. An eager *engine* cannot rejoin at
    /// all — that is [`CheckpointError::Unsupported`] (no checkpoint could
    /// make it work). A lazy engine handed an eager *checkpoint* is
    /// [`CheckpointError::Incompatible`] (a matching checkpoint would).
    pub fn rejoin(&self, p: ProcId, ckpt: &AnyCheckpoint) -> Result<(), CheckpointError> {
        let Some(engine) = self.as_lazy() else {
            return Err(CheckpointError::Unsupported(
                "rejoin is a lazy-engine feature; the eager baseline has no crash story".into(),
            ));
        };
        let AnyCheckpoint::Lazy(ckpt) = ckpt else {
            return Err(CheckpointError::Incompatible(
                "cannot rejoin a lazy engine from an eager-family checkpoint".into(),
            ));
        };
        engine.rejoin(p, ckpt)
    }
}

/// A checkpoint of either engine family (the [`AnyEngine`] counterpart of
/// [`EngineCheckpoint`] and [`EagerCheckpoint`]).
#[derive(Clone, PartialEq, Debug)]
pub enum AnyCheckpoint {
    /// A lazy engine's checkpoint.
    Lazy(EngineCheckpoint),
    /// An eager engine's checkpoint.
    Eager(EagerCheckpoint),
}

impl AnyCheckpoint {
    /// Serializes the checkpoint, tagged with its family.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            AnyCheckpoint::Lazy(c) => {
                let mut out = vec![0u8];
                out.extend_from_slice(&c.encode());
                out
            }
            AnyCheckpoint::Eager(c) => {
                let mut out = vec![1u8];
                out.extend_from_slice(&c.encode());
                out
            }
        }
    }

    /// Deserializes a checkpoint produced by [`AnyCheckpoint::encode`].
    ///
    /// # Errors
    ///
    /// Propagates [`CheckpointError::Corrupt`].
    pub fn decode(bytes: &[u8]) -> Result<AnyCheckpoint, CheckpointError> {
        match bytes.first() {
            Some(0) => Ok(AnyCheckpoint::Lazy(EngineCheckpoint::decode(&bytes[1..])?)),
            Some(1) => Ok(AnyCheckpoint::Eager(EagerCheckpoint::decode(&bytes[1..])?)),
            Some(tag) => Err(CheckpointError::Corrupt(format!(
                "unknown checkpoint family tag {tag}"
            ))),
            None => Err(CheckpointError::Corrupt("empty checkpoint".into())),
        }
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

    #[test]
    fn checkpoint_round_trips_through_either_family() {
        for kind in ProtocolKind::ALL {
            let e = AnyEngine::build(kind, &params()).unwrap();
            let (p0, p1) = (ProcId::new(0), ProcId::new(1));
            let l = LockId::new(0);
            e.acquire(p0, l).unwrap();
            e.write(p0, 8, &[9, 9]);
            e.release(p0, l).unwrap();
            e.acquire(p1, l).unwrap();
            let mut buf = [0u8; 2];
            e.read_into(p1, 8, &mut buf);
            e.release(p1, l).unwrap();

            let ckpt = e.checkpoint();
            let decoded = AnyCheckpoint::decode(&ckpt.encode()).unwrap();
            assert_eq!(decoded, ckpt, "{kind}");
            assert_eq!(matches!(ckpt, AnyCheckpoint::Lazy(_)), kind.is_lazy());

            let fresh = AnyEngine::build(kind, &params()).unwrap();
            fresh.restore(&ckpt).unwrap();
            let mut buf = [0u8; 2];
            fresh.read_into(p1, 8, &mut buf);
            assert_eq!(buf, [9, 9], "{kind}");

            // Cross-family restore must be refused, not misread.
            let other = ProtocolKind::ALL
                .into_iter()
                .find(|k| k.is_lazy() != kind.is_lazy())
                .unwrap();
            let wrong = AnyEngine::build(other, &params()).unwrap();
            assert!(matches!(
                wrong.restore(&ckpt),
                Err(CheckpointError::Incompatible(_))
            ));
        }
    }
}
