use std::fmt;

/// Protocol-level event counters of an [`Engine`](crate::Engine),
/// complementing the message/byte accounting of the fabric. One struct
/// serves both protocol families; a field a family never bumps stays 0.
/// The engine counts into its own copy; [`EngineCore::counters`](crate::EngineCore::counters)
/// hands out a snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineCounters {
    /// Lock acquires processed.
    pub acquires: u64,
    /// Lock releases processed.
    pub releases: u64,
    /// Barrier episodes completed.
    pub barrier_episodes: u64,
    /// Slow-path entries that had to wait for another: misses told
    /// [`Miss::Busy`](crate::Miss::Busy) because another processor was
    /// fetching their page, each counted once however often it asked.
    pub slow_waits: u64,
    /// Slow-path entries (synchronization operations and misses) that ran
    /// while another processor's miss was in its fetch *without*
    /// waiting — exactly the serialization an engine held across every
    /// fetch would impose. Measurable even where wall-clock scaling is
    /// not (single-core CI).
    pub slow_waits_avoided: u64,
    /// High-water mark of misses under way at once: those in their fetch
    /// plus the one beginning.
    pub miss_inflight_peak: u64,
    /// Checkpoints cut through
    /// [`EngineCore::note_checkpoint`](crate::EngineCore::note_checkpoint)
    /// — the runtime's automatic cuts.
    pub checkpoints_cut: u64,
    /// Encoded bytes of the cuts the runtime took.
    pub checkpoint_bytes: u64,
    /// Lazy: access misses on pages never cached before (base copy
    /// needed).
    pub cold_misses: u64,
    /// Lazy: access misses on resident but invalidated copies (diffs
    /// only).
    pub warm_misses: u64,
    /// Lazy: diffs applied to local copies.
    pub diffs_applied: u64,
    /// Lazy: write notices received (at acquires and barrier exits).
    pub notices_received: u64,
    /// Lazy: pages invalidated on notice arrival (invalidate policy).
    pub invalidations: u64,
    /// Lazy: acquire- or barrier-time page updates (update policy).
    pub updates: u64,
    /// Lazy: intervals closed with at least one modified page.
    pub intervals_closed: u64,
    /// Lazy: garbage-collection rounds performed (`gc_at_barriers`).
    pub gc_rounds: u64,
    /// Lazy: pages force-validated by garbage collection.
    pub gc_validated_pages: u64,
    /// Lazy: barrier-time garbage-collection rounds *deferred* because a
    /// dead processor's rejoin lease was still live (clearing the history
    /// would have stranded its catch-up). Bounded by
    /// [`EngineParams::death_lease_episodes`](crate::EngineParams): once
    /// the lease expires, GC proceeds and the era advances.
    pub gc_deferrals: u64,
    /// Eager: access misses served in two messages (directory home had the
    /// page).
    pub misses_2hop: u64,
    /// Eager: access misses served in three messages (forwarded to the
    /// owner).
    pub misses_3hop: u64,
    /// Eager: update messages sent at releases and barriers (EU).
    pub updates_sent: u64,
    /// Eager: invalidation messages sent at releases (EI); barrier
    /// invalidations are piggybacked and not counted here.
    pub invalidations_sent: u64,
    /// Eager: pages invalidated (EI), however delivered.
    pub pages_invalidated: u64,
    /// Eager: diffs written back by concurrent writers hit by an
    /// invalidation.
    pub writebacks: u64,
    /// Eager: excess invalidators resolved at barriers (Table 1's `v`).
    pub excess_invalidators: u64,
    /// Eager: flush episodes (releases and barrier arrivals with dirty
    /// pages).
    pub flushes: u64,
}

impl EngineCounters {
    /// Total access misses (cold + warm under the lazy protocols, 2-hop +
    /// 3-hop under the eager ones).
    pub fn misses(&self) -> u64 {
        self.cold_misses + self.warm_misses + self.misses_2hop + self.misses_3hop
    }
}

impl fmt::Display for EngineCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "misses {} (cold {} / warm {} / 2hop {} / 3hop {}), diffs {}, notices {}, \
             inv {}, upd {}, intervals {}, updates sent {}, invalidations sent {}, \
             writebacks {}, excess {}",
            self.misses(),
            self.cold_misses,
            self.warm_misses,
            self.misses_2hop,
            self.misses_3hop,
            self.diffs_applied,
            self.notices_received,
            self.invalidations,
            self.updates,
            self.intervals_closed,
            self.updates_sent,
            self.invalidations_sent,
            self.writebacks,
            self.excess_invalidators,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_sum_cold_and_warm() {
        let c = EngineCounters {
            cold_misses: 2,
            warm_misses: 3,
            ..Default::default()
        };
        assert_eq!(c.misses(), 5);
        assert!(c.to_string().contains("misses 5"));
    }

    #[test]
    fn misses_sum_hops() {
        let c = EngineCounters {
            misses_2hop: 4,
            misses_3hop: 1,
            ..Default::default()
        };
        assert_eq!(c.misses(), 5);
        assert!(c.to_string().contains("misses 5"));
    }
}
