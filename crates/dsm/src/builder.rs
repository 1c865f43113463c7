use std::time::Duration;

use lrc_core::{ConfigError, EngineParams};
use lrc_sim::{AnyEngine, ProtocolKind};

use crate::cluster::Dsm;
use crate::recovery::AutoCheckpointer;

/// Configures and builds a [`Dsm`] runtime.
///
/// # Example
///
/// ```
/// use lrc_dsm::DsmBuilder;
/// use lrc_sim::ProtocolKind;
///
/// let dsm = DsmBuilder::new(ProtocolKind::LazyUpdate, 2, 1 << 14)
///     .page_size(512)
///     .locks(4)
///     .barriers(2)
///     .build()?;
/// assert!(format!("{dsm:?}").starts_with("Dsm(2 procs, LU, 4 locks, 2 barriers"));
/// # Ok::<(), lrc_core::ConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct DsmBuilder {
    kind: ProtocolKind,
    params: EngineParams,
    wait_timeout: Option<Duration>,
    holder_timeout: Option<Duration>,
    checkpoint_every: Option<u64>,
}

impl DsmBuilder {
    /// Starts a builder for `n_procs` processors sharing `mem_bytes` bytes
    /// under the given protocol.
    pub fn new(kind: ProtocolKind, n_procs: usize, mem_bytes: u64) -> Self {
        DsmBuilder {
            kind,
            params: EngineParams {
                n_procs,
                mem_bytes,
                ..EngineParams::default()
            },
            wait_timeout: None,
            holder_timeout: None,
            checkpoint_every: None,
        }
    }

    /// Sets the page size in bytes (power of two, 64–65536).
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.params.page_bytes = bytes;
        self
    }

    /// Sets the number of locks.
    pub fn locks(mut self, n: usize) -> Self {
        self.params.n_locks = n;
        self
    }

    /// Sets the number of barriers.
    pub fn barriers(mut self, n: usize) -> Self {
        self.params.n_barriers = n;
        self
    }

    /// Enables barrier-time garbage collection of consistency information
    /// (shapes the lazy protocols only, a no-op on the eager ones; see
    /// [`EngineParams::gc_at_barriers`]).
    pub fn gc_at_barriers(mut self) -> Self {
        self.params.gc_at_barriers = true;
        self
    }

    /// Disables write-notice piggybacking (the ablation of
    /// [`EngineParams::piggyback_notices`]; a no-op on the eager
    /// protocols).
    pub fn no_piggyback(mut self) -> Self {
        self.params.piggyback_notices = false;
        self
    }

    /// Ships whole pages on warm misses (the ablation of
    /// [`EngineParams::full_page_misses`]; a no-op on the eager
    /// protocols).
    pub fn full_page_misses(mut self) -> Self {
        self.params.full_page_misses = true;
        self
    }

    /// Bounds every blocking wait (lock hand-offs, barrier episodes, a
    /// miss on a page another processor is fetching) by `timeout`. A
    /// wait that is not woken for `timeout` panics with a stuck-waiter
    /// report — what a test suite wants from a lost wake-up instead of a
    /// silent CI hang. Default: wait forever.
    ///
    /// Composes with [`DsmBuilder::holder_timeout`]: a waiter suspects
    /// after every `holder_timeout` without progress and panics after
    /// `wait_timeout` without progress, whichever options are set.
    pub fn wait_timeout(mut self, timeout: Duration) -> Self {
        self.wait_timeout = Some(timeout);
        self
    }

    /// Arms the failure detector: a processor blocked *waiting* for longer
    /// than `timeout` presumes the processor it waits on has crashed and
    /// declares it dead ([`Dsm::declare_dead`]), and suspects again after
    /// every further `timeout` without progress. A lock waiter suspects
    /// the holder (its open interval is flushed, its locks force-released)
    /// and retries the acquire; a barrier waiter suspects every live
    /// processor yet to arrive, completing the episode on their behalf.
    /// Lazy protocols only — the eager baseline has no crash story, and
    /// [`DsmBuilder::build`] refuses the option on it. Default: never
    /// suspect.
    ///
    /// Distinct from [`DsmBuilder::wait_timeout`], which *panics* on a
    /// stuck wait — this one recovers. With both set, suspicion runs
    /// every `holder_timeout` until `wait_timeout` passes without
    /// progress, and then the wait panics.
    pub fn holder_timeout(mut self, timeout: Duration) -> Self {
        self.holder_timeout = Some(timeout);
        self
    }

    /// Arms the automatic checkpointer: the closing arrival of every
    /// `episodes`-th barrier episode cuts, and so does the runtime right
    /// before it processes a death. The newest cut stays in memory, where
    /// [`Dsm::latest_checkpoint`] and revival ([`Dsm::try_revive`], a
    /// returning node's hello) read it back. Lazy protocols only —
    /// [`DsmBuilder::build`] refuses it on an eager one, which has no
    /// checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `episodes` is zero.
    pub fn checkpoint_every(mut self, episodes: u64) -> Self {
        assert!(episodes > 0, "episode period must be positive");
        self.checkpoint_every = Some(episodes);
        self
    }

    /// Bounds how long a dead processor's rejoin lease keeps barrier-time
    /// garbage collection on hold, in barrier episodes (lazy protocols
    /// with [`DsmBuilder::gc_at_barriers`] — [`DsmBuilder::build`] refuses
    /// it on an eager one; see
    /// [`EngineParams::death_lease_episodes`]). While the lease is
    /// live, GC defers (bounded `gc_deferrals` in the counters) so the
    /// dead processor can still rejoin from pre-death cuts; once it
    /// expires, GC proceeds, the store era advances, and rejoin needs a
    /// post-GC cut (revival's cold-join path). Default: hold GC
    /// forever.
    pub fn death_lease(mut self, episodes: u64) -> Self {
        self.params.death_lease_episodes = Some(episodes);
        self
    }

    /// Builds the runtime.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the parameters do not validate. One rule
    /// covers every option that selects lazy-only *behaviour*
    /// ([`DsmBuilder::holder_timeout`], [`DsmBuilder::death_lease`],
    /// [`DsmBuilder::checkpoint_every`]): on an eager protocol it is
    /// [`ConfigError::LazyOnly`], never a panic and never silently
    /// ignored. The three ablation flags only shape lazy traffic and are
    /// accepted as no-ops.
    pub fn build(self) -> Result<Dsm, ConfigError> {
        if !self.kind.is_lazy() {
            if self.holder_timeout.is_some() {
                return Err(ConfigError::LazyOnly("holder_timeout"));
            }
            if self.checkpoint_every.is_some() {
                return Err(ConfigError::LazyOnly("checkpoint_every"));
            }
        }
        let engine = AnyEngine::build(self.kind, &self.params)?;
        let recovery = self.checkpoint_every.map(AutoCheckpointer::new);
        Ok(Dsm::from_engine(
            engine,
            self.kind,
            self.wait_timeout,
            self.holder_timeout,
            recovery,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        assert!(DsmBuilder::new(ProtocolKind::LazyInvalidate, 0, 1024)
            .build()
            .is_err());
        assert!(DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1024)
            .page_size(100)
            .build()
            .is_err());
        let dsm = DsmBuilder::new(ProtocolKind::EagerUpdate, 3, 1 << 14)
            .page_size(256)
            .locks(2)
            .barriers(1)
            .build()
            .unwrap();
        let gc = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14)
            .gc_at_barriers()
            .build();
        assert!(gc.is_ok());
        assert_eq!(dsm.n_procs(), 3);
        assert_eq!(dsm.kind(), ProtocolKind::EagerUpdate);
    }

    /// Every (option × family) cell: options that select lazy-only
    /// behaviour are typed refusals on the eager kinds; the ablation
    /// flags are accepted everywhere.
    #[test]
    fn lazy_only_options_are_refused_on_eager_kinds() {
        type Setter = fn(DsmBuilder) -> DsmBuilder;
        let options: [(&str, Setter, Option<&str>); 6] = [
            (
                "holder_timeout",
                |b| b.holder_timeout(Duration::from_millis(50)),
                Some("holder_timeout"),
            ),
            ("death_lease", |b| b.death_lease(2), Some("death_lease")),
            (
                "checkpoint_every",
                |b| b.checkpoint_every(1),
                Some("checkpoint_every"),
            ),
            ("gc_at_barriers", |b| b.gc_at_barriers(), None),
            ("no_piggyback", |b| b.no_piggyback(), None),
            ("full_page_misses", |b| b.full_page_misses(), None),
        ];
        for (name, set, lazy_only) in options {
            for kind in ProtocolKind::ALL {
                let built = set(DsmBuilder::new(kind, 2, 1 << 14)).build();
                let expected = match lazy_only {
                    Some(option) if !kind.is_lazy() => Some(ConfigError::LazyOnly(option)),
                    _ => None,
                };
                assert_eq!(built.err(), expected, "{name} on {kind}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_episode_period_rejected() {
        let _ = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14).checkpoint_every(0);
    }
}
