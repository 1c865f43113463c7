use std::error::Error;
use std::fmt;

use lrc_pagemem::{AddrSpace, PageSize, PageSizeError};

/// Maximum processors per system. Diff-possession tracking uses a 64-bit
/// mask; the paper's evaluation uses 16 processors.
pub const MAX_PROCS: usize = 64;

/// Data-movement policy of a release-consistent protocol (§4.3.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Policy {
    /// Invalidate on write notice; pull diffs at the next access miss.
    /// With the lazy engine this is the paper's **LI** protocol.
    #[default]
    Invalidate,
    /// Update: pull diffs for all cached pages when notices arrive (at
    /// acquires and barriers), keeping caches valid. The paper's **LU**.
    Update,
}

impl Policy {
    /// Short protocol suffix used in reports ("I" / "U").
    pub fn suffix(self) -> &'static str {
        match self {
            Policy::Invalidate => "I",
            Policy::Update => "U",
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Invalidate => f.write_str("invalidate"),
            Policy::Update => f.write_str("update"),
        }
    }
}

/// Construction parameters of a protocol engine — the one declaration of
/// every engine knob. Both families are built from
/// `(`[`Policy`]`, &EngineParams)`; the runtime builder and the simulator
/// write straight into this struct.
///
/// `piggyback_notices`, `full_page_misses` and `gc_at_barriers` shape
/// only the lazy protocol and are documented no-ops on the eager
/// baseline (sweeps cross them with all four protocols on purpose).
/// `death_lease_episodes` selects lazy-only *behaviour* and is refused
/// for an eager engine with [`ConfigError::LazyOnly`].
///
/// ```
/// use lrc_core::{EngineParams, LrcEngine, Policy};
///
/// let params = EngineParams {
///     n_procs: 16,
///     mem_bytes: 1 << 20,
///     page_bytes: 2048,
///     ..EngineParams::default()
/// };
/// assert_eq!(params.address_space()?.n_pages(), 512);
/// let engine = LrcEngine::new(Policy::Update, &params)?;
/// assert_eq!(engine.params().n_locks, 16);
/// # Ok::<(), lrc_core::ConfigError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EngineParams {
    /// Number of processors (1 to [`MAX_PROCS`]).
    pub n_procs: usize,
    /// Shared address space size in bytes.
    pub mem_bytes: u64,
    /// Page size in bytes (power of two, 64–65536).
    pub page_bytes: usize,
    /// Number of locks available.
    pub n_locks: usize,
    /// Number of barriers available.
    pub n_barriers: usize,
    /// Piggyback write notices on lock-grant and barrier messages (the
    /// paper's design). When disabled — an ablation — notices travel in a
    /// separate message per acquire, like a naive implementation would
    /// send.
    pub piggyback_notices: bool,
    /// When `true` — an ablation — a processor holding an invalidated copy
    /// re-fetches the entire page on a miss instead of only diffs,
    /// disabling the optimization of §4.3.3.
    pub full_page_misses: bool,
    /// Garbage-collect consistency information at every barrier (the
    /// TreadMarks approach to the unbounded-history problem the paper
    /// leaves to future work): every processor validates its cached pages,
    /// then all interval records and diffs are discarded. Cold misses
    /// afterwards fetch whole pages from the last writer.
    pub gc_at_barriers: bool,
    /// How many barrier episodes a dead processor's *rejoin lease* lasts.
    /// While any dead processor's lease is live, barrier-time garbage
    /// collection is deferred (counted in
    /// [`EngineCounters::gc_deferrals`](crate::EngineCounters)) so the
    /// catch-up history a rejoin needs survives. Once every dead
    /// processor has been dead for at least this many completed episodes,
    /// GC proceeds: the store era advances, and a rejoin from a
    /// checkpoint of the old era is refused with
    /// [`CheckpointError::LeaseExpired`](crate::CheckpointError) — the
    /// node must cold-join from a checkpoint cut after the collection.
    /// `None` means leases never expire: GC pauses for as long as any
    /// processor is dead.
    pub death_lease_episodes: Option<u64>,
}

impl Default for EngineParams {
    /// A minimal single-processor system: 64 KiB of 4 KiB pages, 16 locks,
    /// 4 barriers, no ablations. Construction sites
    /// spell out the fields they mean and take the rest from here.
    fn default() -> Self {
        EngineParams {
            n_procs: 1,
            mem_bytes: 1 << 16,
            page_bytes: 4096,
            n_locks: 16,
            n_barriers: 4,
            piggyback_notices: true,
            full_page_misses: false,
            gc_at_barriers: false,
            death_lease_episodes: None,
        }
    }
}

impl EngineParams {
    /// Validates the parameters and derives the address space.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the processor count or page size is out of range
    /// or the space is empty.
    pub fn address_space(&self) -> Result<AddrSpace, ConfigError> {
        if self.n_procs == 0 || self.n_procs > MAX_PROCS {
            return Err(ConfigError::BadProcs(self.n_procs));
        }
        if self.mem_bytes == 0 {
            return Err(ConfigError::EmptySpace);
        }
        let size = PageSize::new(self.page_bytes).map_err(ConfigError::BadPageSize)?;
        Ok(AddrSpace::with_capacity(size, self.mem_bytes))
    }
}

/// Errors from validating [`EngineParams`] (or the runtime options built
/// around them).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// Processor count outside `1..=MAX_PROCS`.
    BadProcs(usize),
    /// Shared space of zero bytes.
    EmptySpace,
    /// Invalid page size.
    BadPageSize(PageSizeError),
    /// The named option selects behaviour only the lazy engines implement
    /// (crash recovery) but the protocol is eager.
    LazyOnly(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadProcs(n) => {
                write!(f, "processor count {n} outside 1..={MAX_PROCS}")
            }
            ConfigError::EmptySpace => f.write_str("shared address space is empty"),
            ConfigError::BadPageSize(e) => write!(f, "{e}"),
            ConfigError::LazyOnly(option) => write!(
                f,
                "option '{option}' is only implemented by the lazy protocols"
            ),
        }
    }
}

impl Error for ConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfigError::BadPageSize(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n_procs: usize, mem_bytes: u64) -> EngineParams {
        EngineParams {
            n_procs,
            mem_bytes,
            ..EngineParams::default()
        }
    }

    #[test]
    fn defaults_are_sensible() {
        let params = params(4, 1 << 16);
        assert_eq!(params.page_bytes, 4096);
        assert!(params.piggyback_notices);
        assert!(!params.full_page_misses);
        assert_eq!(params.address_space().unwrap().n_pages(), 16);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert_eq!(
            params(0, 1024).address_space(),
            Err(ConfigError::BadProcs(0))
        );
        assert_eq!(
            params(65, 1024).address_space(),
            Err(ConfigError::BadProcs(65))
        );
        assert_eq!(params(2, 0).address_space(), Err(ConfigError::EmptySpace));
        let odd_page = EngineParams {
            page_bytes: 100,
            ..params(2, 1024)
        };
        assert!(matches!(
            odd_page.address_space(),
            Err(ConfigError::BadPageSize(_))
        ));
    }

    #[test]
    fn policy_display() {
        assert_eq!(Policy::Invalidate.to_string(), "invalidate");
        assert_eq!(Policy::Update.suffix(), "U");
    }

    #[test]
    fn errors_display() {
        assert!(ConfigError::BadProcs(0).to_string().contains("0"));
        assert!(ConfigError::EmptySpace.to_string().contains("empty"));
        assert!(ConfigError::LazyOnly("death_lease")
            .to_string()
            .contains("death_lease"));
    }
}
