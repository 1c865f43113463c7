//! Self-healing runtime: automatic checkpoint cuts and revival from them.
//!
//! The crash-tolerance primitives (checkpoint / `declare_dead` / rejoin,
//! see [`crate::Dsm`]) belong to the lazy protocols, and they are manual:
//! some caller must decide when to cut a checkpoint, where to keep it,
//! and when a dead processor may come back. This module automates all
//! three, on lazy runtimes only — [`crate::DsmBuilder::build`] refuses
//! [`crate::DsmBuilder::checkpoint_every`] on an eager one:
//!
//! * **When** to cut: every N barrier episodes, checked by the closing
//!   arrival while every other processor is still parked. The runtime
//!   also cuts right before it processes a death. Those are the only two
//!   cuts: both land at a synchronization point, which is what
//!   [`lrc_core::LrcEngine::checkpoint`] asks of its caller.
//! * **Where** the cuts go: the checkpointer keeps only the newest one,
//!   encoded with [`EngineCheckpoint::encode`], in memory. Each cut
//!   replaces the one before it.
//! * **Automatic revival**: when a driver for a dead processor shows up —
//!   a reconnecting spoke's hello or rejoin handshake, an operation from
//!   the processor's current host, or an explicit
//!   [`crate::Dsm::try_revive`] — the runtime rejoins it from the newest
//!   cut, no manual [`crate::Dsm::rejoin`] call. If the dead processor's
//!   rejoin lease expired and garbage collection advanced the store era
//!   (rejoin fails with [`CheckpointError::LeaseExpired`] or
//!   [`CheckpointError::Incompatible`]), the revival cuts a fresh post-GC
//!   checkpoint and **cold-joins** the processor from that. Nothing
//!   revives unsolicited: an alive-but-undriven processor would only
//!   re-arm the failure detector and preempt a reconnecting incarnation's
//!   supersede.
//!
//! Every cut is recorded in the engine counters (`checkpoints_cut`,
//! `checkpoint_bytes`); GC rounds skipped while a dead processor's lease
//! is live show up as `gc_deferrals`.

use lrc_core::{CheckpointError, EngineCheckpoint, LrcEngine};
use lrc_vclock::ProcId;

use crate::cluster::{lazy, Cluster};

/// Cuts every `every_episodes` completed barrier episodes (and before
/// every death) and keeps the newest cut. One per cluster, created by
/// [`crate::DsmBuilder::checkpoint_every`] and kept beside the engine
/// under the runtime's mutex, so its triggers (a closing barrier
/// arrival, a death) replace the cut one at a time.
pub(crate) struct AutoCheckpointer {
    every_episodes: u64,
    /// The newest cut: the engine episode count it was taken at, and its
    /// [`EngineCheckpoint::encode`] bytes. `None` before the first cut.
    latest: Option<(u64, Vec<u8>)>,
}

impl AutoCheckpointer {
    pub(crate) fn new(every_episodes: u64) -> AutoCheckpointer {
        AutoCheckpointer {
            every_episodes,
            latest: None,
        }
    }

    /// Cuts if the period says one is due (or none was ever taken).
    /// Called by the closing barrier arrival.
    ///
    /// Periodic cuts pause while a processor is dead with an unexpired
    /// rejoin lease, mirroring the GC pause: a cut taken after the death
    /// reset would supersede the pre-death death cut with one whose
    /// frames no longer hold the dead processor's committed pages,
    /// poisoning its revival source. Once the lease expires and GC
    /// re-homes the pages (or the processor rejoins), cuts resume.
    pub(crate) fn maybe_cut(&mut self, engine: &mut LrcEngine) {
        if engine.awaiting_rejoin() {
            return;
        }
        let episodes = engine.counters().barrier_episodes;
        let due = self
            .latest
            .as_ref()
            .is_none_or(|&(last, _)| episodes.saturating_sub(last) >= self.every_episodes);
        if due {
            self.cut_now(engine);
        }
    }

    /// Cuts unconditionally — used right before `declare_dead` (so the
    /// pre-death state is recoverable) and by the cold-join path (so a
    /// post-GC cut exists whose store era matches the live engine):
    /// captures and encodes the engine, replacing the previous cut.
    pub(crate) fn cut_now(&mut self, engine: &mut LrcEngine) {
        let episodes = engine.counters().barrier_episodes;
        let bytes = engine.checkpoint().encode();
        engine.note_checkpoint(bytes.len() as u64);
        self.latest = Some((episodes, bytes));
    }

    /// The newest cut, decoded.
    pub(crate) fn latest(&self) -> Option<EngineCheckpoint> {
        let (_, bytes) = self.latest.as_ref()?;
        Some(EngineCheckpoint::decode(bytes).expect("the checkpointer decodes its own encoding"))
    }
}

impl Cluster {
    /// Rejoins `p` from the newest cut, cold-joining from a fresh post-GC
    /// cut when the newest one was invalidated by lease expiry (the store
    /// era moved past it). One hold of the runtime's mutex, so neither a
    /// suspicion nor a cut can interleave with the revival. Returns
    /// whether `p` is alive afterwards.
    pub(crate) fn try_revive(&self, p: ProcId) -> bool {
        let mut state = self.lock();
        let s = &mut *state;
        let Some(auto) = s.recovery.as_mut() else {
            return false;
        };
        let mut engine = lazy(&s.engine);
        if !engine.is_dead(p) {
            return true;
        }
        let Some(cut) = auto.latest() else {
            return false;
        };
        match engine.rejoin(p, &cut) {
            Ok(()) => true,
            Err(CheckpointError::LeaseExpired(_) | CheckpointError::Incompatible(_)) => {
                // The newest cut predates the GC era (or the death lease
                // expired and GC moved on). Cold join: cut the live
                // post-GC state and rejoin from that.
                auto.cut_now(&mut engine);
                auto.latest()
                    .is_some_and(|cut| engine.rejoin(p, &cut).is_ok())
            }
            Err(_) => false,
        }
    }
}
