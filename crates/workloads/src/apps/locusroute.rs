//! LocusRoute: a VLSI standard-cell router (§5.3.1).
//!
//! "The major data structure is a cost grid for the cell, a cell's cost
//! being the number of wires already running through it. Work is allocated
//! to processors a wire at a time. Synchronization is accomplished almost
//! entirely through locks that protect access to a central task queue." —
//! and, per the summary, locks also protect access to cost-array regions.
//!
//! Pattern generated here:
//!
//! * a two-word task-queue header under lock 0, popped once per wire —
//!   classic migratory data;
//! * a cost grid split into regions, each under its own lock; routing a
//!   wire reads and increments a contiguous run of cells in one or two
//!   regions — migratory region data, with false sharing across region
//!   boundaries as pages grow.

use lrc_sync::LockId;
use lrc_trace::{Trace, TraceBuilder, TraceMeta};
use lrc_vclock::ProcId;

use super::{word, WORD};
use crate::{Pcg32, Scale};

/// Words per cost-grid region.
const REGION_WORDS: u64 = 96;
/// First grid word (after the queue header).
const GRID_BASE: u64 = 16;

pub(super) fn generate(scale: &Scale) -> Trace {
    let procs = scale.procs;
    let regions = (2 * procs) as u64;
    let grid_words = regions * REGION_WORDS;
    let mem_bytes = word(GRID_BASE + grid_words);
    // Lock 0: task queue; locks 1..=regions: region locks.
    let meta = TraceMeta::new("locusroute", procs, 1 + regions as usize, 0, mem_bytes);
    let mut b = TraceBuilder::new(meta);
    let mut rng = Pcg32::seed(scale.seed ^ 0x10c5);

    let queue = LockId::new(0);
    let wires = scale.units * procs;
    for t in 0..wires {
        let p = ProcId::new((t % procs) as u16);
        // Pop a wire from the central task queue.
        b.acquire(p, queue).expect("legal by construction");
        b.read(p, word(0), WORD).expect("legal by construction");
        b.write(p, word(0), WORD).expect("legal by construction");
        b.read(p, word(1), WORD).expect("legal by construction");
        b.release(p, queue).expect("legal by construction");

        // Route the wire through one or two adjacent regions.
        let first_region = rng.below(regions as u32) as u64;
        let span_regions = 1 + rng.below(2) as u64;
        for r in 0..span_regions {
            let region = (first_region + r) % regions;
            let lock = LockId::new(1 + region as u32);
            b.acquire(p, lock).expect("legal by construction");
            let cells = rng.range(4, 16) as u64;
            let offset = rng.below((REGION_WORDS - cells) as u32) as u64;
            let base = GRID_BASE + region * REGION_WORDS + offset;
            for c in 0..cells {
                // Read the cell cost, then bump it.
                b.read(p, word(base + c), WORD)
                    .expect("legal by construction");
                b.write(p, word(base + c), WORD)
                    .expect("legal by construction");
            }
            b.release(p, lock).expect("legal by construction");
        }
    }
    b.finish()
        .expect("generator leaves no dangling synchronization")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_trace::TraceStats;

    #[test]
    fn shape_matches_the_paper_description() {
        let trace = generate(&Scale::small(4));
        let stats = TraceStats::compute(&trace);
        assert_eq!(stats.barrier_arrivals, 0, "locks only");
        assert!(stats.acquires > 0);
        assert_eq!(stats.acquires, stats.releases);
        // Lock-heavy: at least one acquire per wire.
        assert!(stats.acquires >= 4 * 40);
    }

    #[test]
    fn deterministic() {
        let a = generate(&Scale::small(4));
        let b = generate(&Scale::small(4));
        assert_eq!(a, b);
        let c = generate(&Scale {
            seed: 5,
            ..Scale::small(4)
        });
        assert_ne!(a, c);
    }
}
