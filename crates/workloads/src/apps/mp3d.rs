//! MP3D: rarefied hypersonic airflow, Monte Carlo (§5.3.3).
//!
//! "Each timestep involves several barriers, with locks used to control
//! access to global event counters. The message traffic for MP3D is
//! dominated by access misses."
//!
//! Pattern generated here, per timestep:
//!
//! * **move phase** — each processor updates its own particle block
//!   (private) and scatters writes into the cells it owns *this step*
//!   (ownership rotates each step, so cells keep changing writers);
//! * barrier;
//! * **collide phase** — each processor reads cells from the whole grid
//!   (the misses that dominate) and occasionally bumps a global event
//!   counter under a lock;
//! * barrier.
//!
//! Cell writes are sparse within pages, which is exactly why the lazy
//! protocols move far less data here: a miss pulls a few-word diff rather
//! than an 8 KB page.

use lrc_sync::{BarrierId, LockId};
use lrc_trace::{Trace, TraceBuilder, TraceMeta};
use lrc_vclock::ProcId;

use super::{word, WORD};
use crate::{Pcg32, Scale};

/// Global event counters (words 0..4), guarded by lock 0.
const COUNTER_WORDS: u64 = 4;
/// Particle words per processor (private).
const PART_WORDS: u64 = 256;
/// Shared space cells (words).
const CELL_WORDS: u64 = 4096;

pub(super) fn generate(scale: &Scale) -> Trace {
    let procs = scale.procs;
    let particles_base = COUNTER_WORDS;
    let cells_base = particles_base + procs as u64 * PART_WORDS;
    let mem_bytes = word(cells_base + CELL_WORDS);
    let meta = TraceMeta::new("mp3d", procs, 1, 1, mem_bytes);
    let mut b = TraceBuilder::new(meta);
    let mut rng = Pcg32::seed(scale.seed ^ 0x3d);

    let counter_lock = LockId::new(0);
    let barrier = BarrierId::new(0);
    let steps = (scale.units / 2).max(4);

    for step in 0..steps as u64 {
        // ---- move phase ----
        for pi in 0..procs {
            let p = ProcId::new(pi as u16);
            // Update a sample of this processor's own particles.
            let my_base = particles_base + pi as u64 * PART_WORDS;
            for _ in 0..12 {
                let k = rng.below(PART_WORDS as u32) as u64;
                b.read(p, word(my_base + k), WORD)
                    .expect("legal by construction");
                b.write(p, word(my_base + k), WORD)
                    .expect("legal by construction");
            }
            // Scatter into the cell block this processor owns this step.
            // Blocks are contiguous (particles cluster in space) and
            // ownership rotates each step, so cells keep changing writers
            // while false sharing appears only where pages span block
            // boundaries — and grows with page size, as in the paper.
            let block_words = CELL_WORDS / procs as u64;
            let block = (pi as u64 + step) % procs as u64;
            for _ in 0..24 {
                let cell = block * block_words + rng.below(block_words as u32) as u64;
                b.read(p, word(cells_base + cell), WORD)
                    .expect("legal by construction");
                b.write(p, word(cells_base + cell), WORD)
                    .expect("legal by construction");
            }
        }
        b.barrier_all(barrier).expect("legal by construction");

        // ---- collide phase ----
        for pi in 0..procs {
            let p = ProcId::new(pi as u16);
            // Read cells: mostly the neighbouring region (particles
            // interact across adjacent space cells, written by another
            // processor in the move phase), plus some far-field samples.
            // The locality is what separates lazy pulls (only what is
            // read) from eager pushes (everything to everyone).
            let block_words = CELL_WORDS / procs as u64;
            let neighbour_block = (pi as u64 + step + 1) % procs as u64;
            for _ in 0..12 {
                let cell = neighbour_block * block_words + rng.below(block_words as u32) as u64;
                b.read(p, word(cells_base + cell), WORD)
                    .expect("legal by construction");
            }
            for _ in 0..2 {
                let cell = rng.below(CELL_WORDS as u32) as u64;
                b.read(p, word(cells_base + cell), WORD)
                    .expect("legal by construction");
            }
            // Update own particles from what was read.
            let my_base = particles_base + pi as u64 * PART_WORDS;
            for _ in 0..6 {
                let k = rng.below(PART_WORDS as u32) as u64;
                b.write(p, word(my_base + k), WORD)
                    .expect("legal by construction");
            }
            // Occasionally bump a global event counter.
            if rng.chance(1, 3) {
                let c = rng.below(COUNTER_WORDS as u32) as u64;
                b.acquire(p, counter_lock).expect("legal by construction");
                b.read(p, word(c), WORD).expect("legal by construction");
                b.write(p, word(c), WORD).expect("legal by construction");
                b.release(p, counter_lock).expect("legal by construction");
            }
        }
        b.barrier_all(barrier).expect("legal by construction");
    }
    b.finish()
        .expect("generator leaves no dangling synchronization")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_trace::TraceStats;

    #[test]
    fn barrier_dominated_with_some_locks() {
        let trace = generate(&Scale::small(4));
        let stats = TraceStats::compute(&trace);
        let episodes = stats.barrier_episodes(4);
        assert!(episodes >= 8, "two barriers per step");
        assert!(stats.acquires > 0, "event counters under locks");
        assert!(stats.reads > stats.writes, "collide phase reads dominate");
    }

    #[test]
    fn deterministic_and_labeled() {
        let a = generate(&Scale::small(4));
        assert_eq!(a, generate(&Scale::small(4)));
        // `workload_conformance` checks it properly labeled through lrc-hist.
    }
}
