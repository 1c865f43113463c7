//! Self-healing runtime: automatic checkpoint cuts and the recovery
//! supervisor.
//!
//! The crash-tolerance primitives (checkpoint / `declare_dead` / rejoin,
//! see [`crate::Dsm`]) are manual: some caller must decide when to cut a
//! checkpoint, where to keep it, and when a dead processor may come back.
//! This module automates all three:
//!
//! * A [`CheckpointPolicy`] says *when* to cut — every N barrier episodes
//!   (checked by the closing arrival, so episode cuts land exactly at
//!   synchronization points) and/or every T milliseconds (checked by the
//!   supervisor, best-effort between episodes).
//! * A [`CheckpointSink`] says *where* cuts go — a dumb byte store
//!   standing in for a peer replica ([`MemorySink`]) or stable storage
//!   ([`FileSink`]). Lazy-family cuts ship as **deltas** against the
//!   previous cut when possible ([`lrc_core::CheckpointDelta`]), rebasing
//!   to a full cut when the chain grows past
//!   [`CheckpointPolicy::rebase_after`] or the delta cannot be formed.
//! * **Automatic revival**: when a driver for a dead processor shows up —
//!   a reconnecting spoke's hello or rejoin handshake, or an explicit
//!   [`crate::Dsm::try_revive`] — the runtime rejoins it from the latest
//!   shipped cut, no manual [`crate::Dsm::rejoin`] call. If the dead
//!   processor's rejoin lease expired and garbage collection advanced the
//!   store era (rejoin fails with [`CheckpointError::LeaseExpired`] or
//!   [`CheckpointError::Incompatible`]), the revival cuts a fresh post-GC
//!   checkpoint and **cold-joins** the processor from that. A
//!   **supervisor** thread (spawned by
//!   [`crate::DsmBuilder::auto_recover`]) drives the wall-time checkpoint
//!   trigger between episodes; it never revives unsolicited, because an
//!   alive-but-undriven processor would only re-arm the failure detector
//!   and preempt a reconnecting incarnation's supersede.
//!
//! Every shipped cut is recorded in the engine counters
//! (`checkpoints_cut`, `delta_bytes`); GC rounds skipped while a dead
//! processor's lease is live show up as `gc_deferrals`.

use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use lrc_core::{CheckpointDelta, CheckpointError, EngineCheckpoint};
use lrc_sim::{AnyCheckpoint, AnyEngine};
use lrc_vclock::ProcId;
use parking_lot::lockdep::classes;
use parking_lot::Mutex;

use crate::cluster::Cluster;

/// When the automatic checkpointer cuts. Both triggers may be armed at
/// once; either firing causes a cut. With neither armed the policy never
/// fires on its own, but death cuts (capturing post-`declare_dead` state)
/// still happen.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointPolicy {
    pub(crate) every_episodes: Option<u64>,
    pub(crate) every_millis: Option<u64>,
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
            every_episodes: Some(n),
            every_millis: None,
            max_chain: 8,
        }
    }

    /// Cut every `ms` milliseconds of wall time (checked by the
    /// supervisor thread; best effort, quantized to its poll interval).
    ///
    /// # Panics
    ///
    /// Panics if `ms` is zero.
    pub fn every_millis(ms: u64) -> CheckpointPolicy {
        assert!(ms > 0, "time period must be positive");
        CheckpointPolicy {
            every_episodes: None,
            every_millis: Some(ms),
            max_chain: 8,
        }
    }

    /// Adds a wall-time trigger to an episode-based policy (or vice
    /// versa): whichever fires first causes the cut.
    #[must_use]
    pub fn or_every_millis(mut self, ms: u64) -> CheckpointPolicy {
        assert!(ms > 0, "time period must be positive");
        self.every_millis = Some(ms);
        self
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

/// A shipped delta chain as read back from a sink: one full cut and the
/// deltas that follow it, in shipping order.
#[derive(Clone, Debug, Default)]
pub struct CheckpointChain {
    /// Engine episode count when the full cut was shipped.
    pub full_episode: u64,
    /// The full cut, encoded with [`AnyCheckpoint::encode`].
    pub full: Vec<u8>,
    /// `(base_episode, episode, bytes)` per delta, oldest first; each
    /// delta's bytes come from [`lrc_core::CheckpointDelta::encode`].
    pub deltas: Vec<(u64, u64, Vec<u8>)>,
}

/// Where shipped checkpoints go. Sinks are dumb byte stores — the
/// checkpointer decides full-versus-delta and does all encoding — so a
/// sink models a peer replica, a file tree, or anything else that can
/// hold bytes. `put_full` starts a new chain: the sink may discard
/// everything shipped before it.
pub trait CheckpointSink: Send + Sync {
    /// Stores a full cut, replacing any previous chain.
    ///
    /// # Errors
    ///
    /// I/O errors from the backing store.
    fn put_full(&self, episode: u64, bytes: &[u8]) -> io::Result<()>;

    /// Appends a delta to the current chain.
    ///
    /// # Errors
    ///
    /// I/O errors from the backing store.
    fn put_delta(&self, base_episode: u64, episode: u64, bytes: &[u8]) -> io::Result<()>;

    /// Reads back the current chain, or `None` if nothing was shipped.
    ///
    /// # Errors
    ///
    /// I/O errors from the backing store.
    fn chain(&self) -> io::Result<Option<CheckpointChain>>;
}

/// An in-memory sink: the "peer replica" of the self-healing runtime's
/// default configuration. Cheap, shared, and good enough whenever the
/// surviving process itself holds the cuts.
#[derive(Default)]
pub struct MemorySink {
    state: Mutex<Option<CheckpointChain>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink {
            state: Mutex::new_in(None, classes::DSM_CKPT_SINK),
        }
    }
}

impl CheckpointSink for MemorySink {
    fn put_full(&self, episode: u64, bytes: &[u8]) -> io::Result<()> {
        *self.state.lock() = Some(CheckpointChain {
            full_episode: episode,
            full: bytes.to_vec(),
            deltas: Vec::new(),
        });
        Ok(())
    }

    fn put_delta(&self, base_episode: u64, episode: u64, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock();
        let chain = state
            .as_mut()
            .ok_or_else(|| io::Error::other("delta shipped before any full cut"))?;
        chain.deltas.push((base_episode, episode, bytes.to_vec()));
        Ok(())
    }

    fn chain(&self) -> io::Result<Option<CheckpointChain>> {
        Ok(self.state.lock().clone())
    }
}

/// A file-backed sink: cuts land as `full-{episode}.ckpt` and
/// `delta-{base}-{episode}.ckpt` under one directory. A new full cut
/// removes the files of the previous chain, so the directory always holds
/// exactly one recoverable chain.
pub struct FileSink {
    dir: PathBuf,
    /// Serializes writers against `chain` readers (the directory scan).
    gate: Mutex<()>,
}

impl FileSink {
    /// A sink writing under `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<FileSink> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileSink {
            dir,
            gate: Mutex::new_in((), classes::DSM_CKPT_SINK),
        })
    }

    fn entries(&self) -> io::Result<Vec<(String, PathBuf)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".ckpt") {
                out.push((name, entry.path()));
            }
        }
        out.sort();
        Ok(out)
    }
}

impl CheckpointSink for FileSink {
    fn put_full(&self, episode: u64, bytes: &[u8]) -> io::Result<()> {
        let _writing = self.gate.lock();
        let old = self.entries()?;
        std::fs::write(self.dir.join(format!("full-{episode:012}.ckpt")), bytes)?;
        for (_, path) in old {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    fn put_delta(&self, base_episode: u64, episode: u64, bytes: &[u8]) -> io::Result<()> {
        let _writing = self.gate.lock();
        let name = format!("delta-{base_episode:012}-{episode:012}.ckpt");
        std::fs::write(self.dir.join(name), bytes)
    }

    fn chain(&self) -> io::Result<Option<CheckpointChain>> {
        let _reading = self.gate.lock();
        let entries = self.entries()?;
        // The full cut first (put_full pruned everything older), then the
        // deltas in name order — names zero-pad their episode numbers so
        // the lexicographic sort of `entries` is shipping order.
        let mut chain: Option<CheckpointChain> = None;
        for (name, path) in &entries {
            if let Some(episode) = name
                .strip_prefix("full-")
                .and_then(|r| r.strip_suffix(".ckpt"))
                .and_then(|e| e.parse().ok())
            {
                chain = Some(CheckpointChain {
                    full_episode: episode,
                    full: std::fs::read(path)?,
                    deltas: Vec::new(),
                });
            }
        }
        let Some(chain) = chain.as_mut() else {
            return Ok(None);
        };
        for (name, path) in &entries {
            if let Some((base, episode)) = name
                .strip_prefix("delta-")
                .and_then(|r| r.strip_suffix(".ckpt"))
                .and_then(|r| r.split_once('-'))
                .and_then(|(b, e)| Some((b.parse().ok()?, e.parse().ok()?)))
            {
                chain.deltas.push((base, episode, std::fs::read(path)?));
            }
        }
        Ok(Some(chain.clone()))
    }
}

/// Mutable cut state, serialized so concurrent triggers (closing barrier
/// arrivals, the supervisor's timer, a death cut) produce one coherent
/// chain.
struct CutState {
    /// Engine episode count at the last cut (0 before any).
    last_episode: u64,
    last_cut: Instant,
    /// The previous lazy full state — the delta base. `None` before the
    /// first cut and always on eager engines (which have no delta form).
    base: Option<EngineCheckpoint>,
    /// Deltas shipped since the last full cut.
    chain_len: usize,
    /// Whether any cut has ever shipped (distinguishes "no cut yet" from
    /// "cut at episode 0").
    shipped: bool,
}

/// Drives [`CheckpointPolicy`] against an engine and ships the resulting
/// cuts to a [`CheckpointSink`]. One per cluster, created by
/// [`crate::DsmBuilder::checkpoint_policy`].
pub(crate) struct AutoCheckpointer {
    policy: CheckpointPolicy,
    sink: Arc<dyn CheckpointSink>,
    state: Mutex<CutState>,
}

impl AutoCheckpointer {
    pub(crate) fn new(policy: CheckpointPolicy, sink: Arc<dyn CheckpointSink>) -> AutoCheckpointer {
        AutoCheckpointer {
            policy,
            sink,
            state: Mutex::new_in(
                CutState {
                    last_episode: 0,
                    last_cut: Instant::now(),
                    base: None,
                    chain_len: 0,
                    shipped: false,
                },
                classes::DSM_CKPT_STATE,
            ),
        }
    }

    /// Cuts if the policy says one is due. Called by the closing barrier
    /// arrival (episode trigger) and each supervisor tick (time trigger).
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
        let episode_due = self
            .policy
            .every_episodes
            .is_some_and(|n| episodes.saturating_sub(state.last_episode) >= n);
        let time_due = self
            .policy
            .every_millis
            .is_some_and(|ms| state.last_cut.elapsed() >= Duration::from_millis(ms));
        if (episode_due || time_due) || !state.shipped {
            self.cut_locked(&mut state, engine);
        }
    }

    /// Cuts unconditionally — used right after `declare_dead` (so the
    /// post-death state is recoverable) and by the supervisor's cold-join
    /// path (so a post-GC cut exists whose store era matches the live
    /// engine).
    pub(crate) fn cut_now(&self, engine: &AnyEngine) {
        let mut state = self.state.lock();
        self.cut_locked(&mut state, engine);
    }

    /// The cut itself: capture the engine, ship a delta when a lazy base
    /// exists and the chain has room, else a full cut. Shipping failures
    /// (sink I/O) are swallowed — the next trigger retries — but the cut
    /// state only advances on success.
    fn cut_locked(&self, state: &mut CutState, engine: &AnyEngine) {
        let episodes = engine.core().counters().barrier_episodes;
        let cut = engine.checkpoint();
        let shipped_bytes = match &cut {
            AnyCheckpoint::Lazy(full) => {
                let delta = match state.base.as_ref() {
                    Some(base) if state.chain_len < self.policy.max_chain => {
                        full.delta_since(base).ok().map(|d| {
                            (
                                d.base_episode,
                                d.episode,
                                d.encode(full.page_bytes, full.n_pages),
                            )
                        })
                    }
                    _ => None,
                };
                let shipped = match delta {
                    Some((base_episode, episode, bytes)) => self
                        .sink
                        .put_delta(base_episode, episode, &bytes)
                        .ok()
                        .map(|()| {
                            state.chain_len += 1;
                            bytes.len()
                        }),
                    None => {
                        let bytes = cut.encode();
                        self.sink.put_full(episodes, &bytes).ok().map(|()| {
                            state.chain_len = 0;
                            bytes.len()
                        })
                    }
                };
                if shipped.is_some() {
                    state.base = Some(full.clone());
                }
                shipped
            }
            AnyCheckpoint::Eager(_) => {
                let bytes = cut.encode();
                self.sink
                    .put_full(episodes, &bytes)
                    .ok()
                    .map(|()| bytes.len())
            }
        };
        if let Some(bytes) = shipped_bytes {
            state.last_episode = episodes;
            state.last_cut = Instant::now();
            state.shipped = true;
            engine.core().note_checkpoint(bytes as u64);
        }
    }

    /// Reconstructs the newest recoverable checkpoint from the sink by
    /// folding the delta chain onto its full base. Returns the checkpoint
    /// and the episode count it was cut at.
    pub(crate) fn latest(&self) -> Option<(AnyCheckpoint, u64)> {
        let chain = self.sink.chain().ok().flatten()?;
        let full = AnyCheckpoint::decode(&chain.full).ok()?;
        match full {
            AnyCheckpoint::Lazy(full) => {
                let mut cut = full;
                let mut episode = chain.full_episode;
                for (_, delta_episode, bytes) in &chain.deltas {
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

/// Spawns the recovery supervisor: a detached thread that applies the
/// time-based checkpoint trigger every `poll`. Holds only a [`Weak`]
/// cluster reference, so dropping the last [`crate::Dsm`] ends it within
/// one tick — no stop flag, no join handle.
pub(crate) fn spawn_supervisor(cluster: &Arc<Cluster>, poll: Duration) {
    let weak: Weak<Cluster> = Arc::downgrade(cluster);
    std::thread::Builder::new()
        .name("lrc-dsm-supervisor".into())
        .spawn(move || loop {
            std::thread::sleep(poll);
            let Some(cluster) = weak.upgrade() else {
                return;
            };
            cluster.supervise_tick();
        })
        .expect("spawn recovery supervisor");
}

impl Cluster {
    /// One supervisor heartbeat: the time-based checkpoint trigger.
    ///
    /// Deliberately *not* a revival sweep: reviving a processor nobody is
    /// driving would only re-arm the failure detector against it (an
    /// alive-but-silent processor blocks barriers until re-suspected) and
    /// would race the reconnect path, which needs the processor to still
    /// be dead to supersede its old incarnation. Revival therefore
    /// happens exactly when a driver shows up: a reconnecting spoke's
    /// hello/rejoin, or an explicit [`crate::Dsm::try_revive`].
    pub(crate) fn supervise_tick(&self) {
        if let Some(auto) = self.recovery.as_ref() {
            auto.maybe_cut(&self.engine);
        }
    }

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
    fn memory_sink_chains_and_resets_on_full() {
        let sink = MemorySink::new();
        assert!(sink.chain().unwrap().is_none());
        sink.put_full(1, b"full-a").unwrap();
        sink.put_delta(1, 2, b"d1").unwrap();
        sink.put_delta(2, 3, b"d2").unwrap();
        let chain = sink.chain().unwrap().unwrap();
        assert_eq!(chain.full, b"full-a");
        assert_eq!(chain.deltas.len(), 2);
        sink.put_full(3, b"full-b").unwrap();
        let chain = sink.chain().unwrap().unwrap();
        assert_eq!(chain.full, b"full-b");
        assert!(chain.deltas.is_empty());
    }

    #[test]
    fn delta_before_full_is_an_error() {
        let sink = MemorySink::new();
        assert!(sink.put_delta(0, 1, b"d").is_err());
    }

    #[test]
    fn file_sink_round_trips_and_prunes_old_chains() {
        let dir = std::env::temp_dir().join(format!("lrc-filesink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = FileSink::new(&dir).unwrap();
        sink.put_full(5, b"full-a").unwrap();
        sink.put_delta(5, 6, b"d1").unwrap();
        let chain = sink.chain().unwrap().unwrap();
        assert_eq!(chain.full_episode, 5);
        assert_eq!(chain.deltas, vec![(5, 6, b"d1".to_vec())]);
        // A new full cut removes the previous chain's files.
        sink.put_full(7, b"full-b").unwrap();
        let chain = sink.chain().unwrap().unwrap();
        assert_eq!(
            (chain.full_episode, chain.full.as_slice()),
            (7, &b"full-b"[..])
        );
        assert!(chain.deltas.is_empty());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_constructors_validate() {
        let p = CheckpointPolicy::every_episodes(2)
            .or_every_millis(50)
            .rebase_after(3);
        assert_eq!(p.every_episodes, Some(2));
        assert_eq!(p.every_millis, Some(50));
        assert_eq!(p.max_chain, 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_episode_period_rejected() {
        let _ = CheckpointPolicy::every_episodes(0);
    }
}
