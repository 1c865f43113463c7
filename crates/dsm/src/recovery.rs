//! Self-healing runtime: automatic checkpoint cuts and revival from them.
//!
//! The crash-tolerance primitives (checkpoint / `declare_dead` / rejoin,
//! see [`crate::Dsm`]) are manual: some caller must decide when to cut a
//! checkpoint, where to keep it, and when a dead processor may come back.
//! This module automates all three:
//!
//! * A [`CheckpointPolicy`] says *when* to cut — every N barrier episodes,
//!   checked by the closing arrival while every other processor is still
//!   parked. The runtime also cuts right before it processes a death.
//!   Those are the only two cuts: both land at a synchronization point,
//!   which is what [`lrc_core::Engine::checkpoint`] asks of its caller.
//! * The cuts are kept by the checkpointer itself, in memory, as one
//!   chain: a full cut and the **deltas** shipped since
//!   ([`lrc_core::CheckpointDelta`], lazy family only). The chain rebases
//!   to a full cut when it grows past [`CheckpointPolicy::rebase_after`]
//!   or the delta cannot be formed.
//! * **Automatic revival**: when a driver for a dead processor shows up —
//!   a reconnecting spoke's hello or rejoin handshake, an operation from
//!   the processor's current host, or an explicit
//!   [`crate::Dsm::try_revive`] — the runtime rejoins it from the latest
//!   shipped cut, no manual [`crate::Dsm::rejoin`] call. If the dead
//!   processor's rejoin lease expired and garbage collection advanced the
//!   store era (rejoin fails with [`CheckpointError::LeaseExpired`] or
//!   [`CheckpointError::Incompatible`]), the revival cuts a fresh post-GC
//!   checkpoint and **cold-joins** the processor from that. Nothing
//!   revives unsolicited: an alive-but-undriven processor would only
//!   re-arm the failure detector and preempt a reconnecting incarnation's
//!   supersede.
//!
//! Every shipped cut is recorded in the engine counters
//! (`checkpoints_cut`, `delta_bytes`); GC rounds skipped while a dead
//! processor's lease is live show up as `gc_deferrals`.

use lrc_core::{CheckpointDelta, CheckpointError, EngineCheckpoint};
use lrc_sim::{AnyCheckpoint, AnyEngine};
use lrc_vclock::ProcId;
use parking_lot::lockdep::classes;
use parking_lot::Mutex;

use crate::cluster::Cluster;

/// When the automatic checkpointer cuts: every `n` completed barrier
/// episodes. Death cuts (capturing pre-`declare_dead` state) happen
/// regardless of the period.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointPolicy {
    pub(crate) every_episodes: u64,
    pub(crate) max_chain: usize,
}

impl CheckpointPolicy {
    /// Cut every `n` completed barrier episodes (the closing arrival cuts
    /// before waking the others, so the cut is a consistent sync point).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn every_episodes(n: u64) -> CheckpointPolicy {
        assert!(n > 0, "episode period must be positive");
        CheckpointPolicy {
            every_episodes: n,
            max_chain: 8,
        }
    }

    /// Ship a full cut (rebasing the delta chain) after this many
    /// consecutive deltas. Default 8. Zero disables deltas entirely —
    /// every cut ships full.
    #[must_use]
    pub fn rebase_after(mut self, deltas: usize) -> CheckpointPolicy {
        self.max_chain = deltas;
        self
    }
}

/// The shipped cuts: one full cut and the deltas that follow it, in
/// shipping order. A new full cut replaces the whole chain.
struct Chain {
    /// Engine episode count when the full cut was shipped.
    full_episode: u64,
    /// The full cut, encoded with [`AnyCheckpoint::encode`].
    full: Vec<u8>,
    /// `(episode, bytes)` per delta, oldest first; each delta's bytes come
    /// from [`lrc_core::CheckpointDelta::encode`].
    deltas: Vec<(u64, Vec<u8>)>,
}

/// Mutable cut state, serialized so concurrent triggers (a closing
/// barrier arrival, a death cut) produce one coherent chain.
struct CutState {
    /// Engine episode count at the last cut (0 before any).
    last_episode: u64,
    /// The previous lazy full state — the delta base. `None` before the
    /// first cut and always on eager engines (which have no delta form).
    base: Option<EngineCheckpoint>,
    /// Everything shipped since the last full cut; `None` before the
    /// first cut.
    chain: Option<Chain>,
}

/// Drives [`CheckpointPolicy`] against an engine and keeps the resulting
/// cuts. One per cluster, created by
/// [`crate::DsmBuilder::checkpoint_policy`].
pub(crate) struct AutoCheckpointer {
    policy: CheckpointPolicy,
    state: Mutex<CutState>,
}

impl AutoCheckpointer {
    pub(crate) fn new(policy: CheckpointPolicy) -> AutoCheckpointer {
        AutoCheckpointer {
            policy,
            state: Mutex::new_in(
                CutState {
                    last_episode: 0,
                    base: None,
                    chain: None,
                },
                classes::DSM_CKPT_STATE,
            ),
        }
    }

    /// Cuts if the policy says one is due (or none was ever taken).
    /// Called by the closing barrier arrival.
    ///
    /// Policy cuts pause while a processor is dead with an unexpired
    /// rejoin lease, mirroring the GC pause: a cut taken after the death
    /// reset would supersede the pre-death death cut with one whose
    /// frames no longer hold the dead processor's committed pages,
    /// poisoning its revival source. Once the lease expires and GC
    /// re-homes the pages (or the processor rejoins), cuts resume.
    pub(crate) fn maybe_cut(&self, engine: &AnyEngine) {
        if engine.awaiting_rejoin() {
            return;
        }
        let mut state = self.state.lock();
        let episodes = engine.core().counters().barrier_episodes;
        let due = episodes.saturating_sub(state.last_episode) >= self.policy.every_episodes;
        if due || state.chain.is_none() {
            self.cut_locked(&mut state, engine);
        }
    }

    /// Cuts unconditionally — used right before `declare_dead` (so the
    /// pre-death state is recoverable) and by the cold-join path (so a
    /// post-GC cut exists whose store era matches the live engine).
    pub(crate) fn cut_now(&self, engine: &AnyEngine) {
        let mut state = self.state.lock();
        self.cut_locked(&mut state, engine);
    }

    /// The cut itself: capture the engine, push a delta when a lazy base
    /// exists and the chain has room, else start a new chain with a full
    /// cut.
    fn cut_locked(&self, state: &mut CutState, engine: &AnyEngine) {
        let episodes = engine.core().counters().barrier_episodes;
        let cut = engine.checkpoint();
        let delta = match (&cut, state.base.as_ref(), state.chain.as_mut()) {
            (AnyCheckpoint::Lazy(full), Some(base), Some(chain))
                if chain.deltas.len() < self.policy.max_chain =>
            {
                full.delta_since(base).ok().map(|d| {
                    let bytes = d.encode(full.page_bytes, full.n_pages);
                    (chain, d.episode, bytes)
                })
            }
            _ => None,
        };
        let shipped_bytes = match delta {
            Some((chain, episode, bytes)) => {
                let len = bytes.len();
                chain.deltas.push((episode, bytes));
                len
            }
            None => {
                let full = cut.encode();
                let len = full.len();
                state.chain = Some(Chain {
                    full_episode: episodes,
                    full,
                    deltas: Vec::new(),
                });
                len
            }
        };
        if let AnyCheckpoint::Lazy(full) = cut {
            state.base = Some(full);
        }
        state.last_episode = episodes;
        engine.core().note_checkpoint(shipped_bytes as u64);
    }

    /// Reconstructs the newest recoverable checkpoint by folding the
    /// delta chain onto its full base. Returns the checkpoint and the
    /// episode count it was cut at.
    pub(crate) fn latest(&self) -> Option<(AnyCheckpoint, u64)> {
        let state = self.state.lock();
        let chain = state.chain.as_ref()?;
        match AnyCheckpoint::decode(&chain.full).ok()? {
            AnyCheckpoint::Lazy(full) => {
                let mut cut = full;
                let mut episode = chain.full_episode;
                for (delta_episode, bytes) in &chain.deltas {
                    let delta = CheckpointDelta::decode(bytes).ok()?;
                    cut = delta.apply_to(&cut).ok()?;
                    episode = *delta_episode;
                }
                Some((AnyCheckpoint::Lazy(cut), episode))
            }
            eager @ AnyCheckpoint::Eager(_) => Some((eager, chain.full_episode)),
        }
    }
}

impl Cluster {
    /// Rejoins `p` from the latest shipped cut, cold-joining from a fresh
    /// post-GC cut when the shipped one was invalidated by lease expiry
    /// (the store era moved past it). Serialized with the failure
    /// detector so a concurrent suspicion cannot interleave with the
    /// revival. Returns whether `p` is alive afterwards.
    pub(crate) fn try_revive(&self, p: ProcId) -> bool {
        let Some(auto) = self.recovery.as_ref() else {
            return false;
        };
        let _serialized = self.suspicion.lock();
        if !self.engine.is_dead(p) {
            return true;
        }
        let Some((cut, _)) = auto.latest() else {
            return false;
        };
        match self.engine.rejoin(p, &cut) {
            Ok(()) => true,
            Err(CheckpointError::LeaseExpired(_) | CheckpointError::Incompatible(_)) => {
                // The shipped chain predates the GC era (or the death
                // lease expired and GC moved on). Cold join: cut the
                // live post-GC state and rejoin from that.
                auto.cut_now(&self.engine);
                match auto.latest() {
                    Some((cut, _)) => self.engine.rejoin(p, &cut).is_ok(),
                    None => false,
                }
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_constructors_validate() {
        let p = CheckpointPolicy::every_episodes(2).rebase_after(3);
        assert_eq!(p.every_episodes, 2);
        assert_eq!(p.max_chain, 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_episode_period_rejected() {
        let _ = CheckpointPolicy::every_episodes(0);
    }
}
