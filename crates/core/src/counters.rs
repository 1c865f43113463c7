use std::fmt;

use lrc_simnet::Tally;

/// Declares the counter list once: the engine's live cells
/// ([`CounterCells`]), the plain `Copy` snapshot ([`EngineCounters`]), and
/// the aggregation between them.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// The engine's internal mirror of [`EngineCounters`]: one
        /// [`Tally`] cell per event class, of the engine's
        /// [`Sharing`](crate::Sharing) family — a relaxed atomic in a
        /// threaded engine, so concurrently running processors never
        /// contend on a statistics lock, a plain `Cell` in a
        /// single-threaded one.
        #[derive(Debug, Default)]
        pub struct CounterCells<C> {
            $($(#[$doc])* pub $name: C,)*
        }

        impl<C: Tally> CounterCells<C> {
            /// Aggregates the cells into a plain snapshot.
            pub(crate) fn snapshot(&self) -> EngineCounters {
                EngineCounters {
                    $($name: self.$name.get(),)*
                }
            }
        }

        /// Protocol-level event counters of an [`Engine`](crate::Engine),
        /// complementing the message/byte accounting of the fabric. One
        /// struct serves both protocol families; a field a family never
        /// bumps stays 0.
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
        pub struct EngineCounters {
            $($(#[$doc])* pub $name: u64,)*
        }
    };
}

counters! {
    /// Lock acquires processed.
    acquires,
    /// Lock releases processed.
    releases,
    /// Barrier episodes completed.
    barrier_episodes,
    /// Slow-path entries (synchronization operations and misses) that had
    /// to block behind another in-flight slow path: a same-lock
    /// acquire/release, a same-page miss, or an overlapping flush.
    slow_waits,
    /// Slow-path entries that ran while at least one other slow path was
    /// in flight *without* blocking — exactly the serialization the
    /// retired engine-wide protocol mutex used to impose. Measurable even
    /// where wall-clock scaling is not (single-core CI).
    slow_waits_avoided,
    /// High-water mark of misses resolving concurrently (counting any
    /// same-page follower waiting on the resolver).
    miss_inflight_peak,
    /// Checkpoints cut through
    /// [`EngineCore::note_checkpoint`](crate::EngineCore::note_checkpoint)
    /// — the runtime's automatic cuts.
    checkpoints_cut,
    /// Encoded bytes of the cuts the runtime took.
    checkpoint_bytes,
    /// Lazy: access misses on pages never cached before (base copy
    /// needed).
    cold_misses,
    /// Lazy: access misses on resident but invalidated copies (diffs
    /// only).
    warm_misses,
    /// Lazy: diffs applied to local copies.
    diffs_applied,
    /// Lazy: write notices received (at acquires and barrier exits).
    notices_received,
    /// Lazy: pages invalidated on notice arrival (invalidate policy).
    invalidations,
    /// Lazy: acquire- or barrier-time page updates (update policy).
    updates,
    /// Lazy: intervals closed with at least one modified page.
    intervals_closed,
    /// Lazy: garbage-collection rounds performed (`gc_at_barriers`).
    gc_rounds,
    /// Lazy: pages force-validated by garbage collection.
    gc_validated_pages,
    /// Lazy: barrier-time garbage-collection rounds *deferred* because a
    /// dead processor's rejoin lease was still live (clearing the history
    /// would have stranded its catch-up). Bounded by
    /// [`EngineParams::death_lease_episodes`](crate::EngineParams): once
    /// the lease expires, GC proceeds and the era advances.
    gc_deferrals,
    /// Eager: access misses served in two messages (directory home had the
    /// page).
    misses_2hop,
    /// Eager: access misses served in three messages (forwarded to the
    /// owner).
    misses_3hop,
    /// Eager: update messages sent at releases and barriers (EU).
    updates_sent,
    /// Eager: invalidation messages sent at releases (EI); barrier
    /// invalidations are piggybacked and not counted here.
    invalidations_sent,
    /// Eager: pages invalidated (EI), however delivered.
    pages_invalidated,
    /// Eager: diffs written back by concurrent writers hit by an
    /// invalidation.
    writebacks,
    /// Eager: excess invalidators resolved at barriers (Table 1's `v`).
    excess_invalidators,
    /// Eager: flush episodes (releases and barrier arrivals with dirty
    /// pages).
    flushes,
}

/// Adds `n` to a counter cell (statistics only — no ordering). Adding
/// nothing touches nothing.
pub fn bump(counter: &impl Tally, n: u64) {
    if n != 0 {
        counter.add(n);
    }
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
