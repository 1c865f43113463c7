//! Water: N-body molecular dynamics in the liquid state (§5.3.4).
//!
//! "At each timestep, every molecule's velocity and potential is computed
//! from the influences of other molecules within a spherical cutoff range.
//! Several barriers are used to synchronize each timestep, while locks are
//! used to control access to a global running sum and to each molecule's
//! force sum. Of the five benchmark programs, Water has the least
//! communication."
//!
//! Pattern generated here, per timestep:
//!
//! * **predict phase** — each processor integrates its own molecules
//!   (writes their position/velocity words); barrier;
//! * **force phase** — for each owned molecule, read the positions of the
//!   molecules within the cutoff (the next few molecules in space, which
//!   mostly belong to the same processor — that locality is *why* Water
//!   communicates so little) and update each neighbour's force word under
//!   that molecule's lock; add into the global running sum under lock 0;
//! * barrier.

use lrc_sync::{BarrierId, LockId};
use lrc_trace::{Trace, TraceBuilder, TraceMeta};
use lrc_vclock::ProcId;

use super::{word, WORD};
use crate::{Pcg32, Scale};

/// Words per molecule: the real Water molecule record is ~672 bytes of
/// positions, derivatives and forces; 24 words keeps that scale.
const MOL_WORDS: u64 = 24;
/// Molecules per processor.
const MOLS_PER_PROC: u64 = 8;
/// Words integrated in the predict phase (positions/derivatives).
const PREDICT_WORDS: u64 = 10;
/// Index of the force-sum word within a molecule.
const FORCE_WORD: u64 = 20;
/// The global running sum lives in word 0, under lock 0.
const SUM_BASE: u64 = 0;
/// First molecule word.
const MOL_BASE: u64 = 8;

pub(super) fn generate(scale: &Scale) -> Trace {
    let procs = scale.procs;
    let n_mols = procs as u64 * MOLS_PER_PROC;
    let mem_bytes = word(MOL_BASE + n_mols * MOL_WORDS);
    // Lock 0: global sum; locks 1..=n_mols: per-molecule force locks.
    let meta = TraceMeta::new("water", procs, 1 + n_mols as usize, 1, mem_bytes);
    let mut b = TraceBuilder::new(meta);
    let mut rng = Pcg32::seed(scale.seed ^ 0x7a7e5);

    let sum_lock = LockId::new(0);
    let mol_lock = |m: u64| LockId::new(1 + m as u32);
    let mol_word = |m: u64, k: u64| word(MOL_BASE + m * MOL_WORDS + k);
    let barrier = BarrierId::new(0);
    let steps = (scale.units / 8).max(3);

    for _ in 0..steps {
        // ---- predict: integrate own molecules ----
        for pi in 0..procs {
            let p = ProcId::new(pi as u16);
            for mi in 0..MOLS_PER_PROC {
                let m = pi as u64 * MOLS_PER_PROC + mi;
                for k in 0..PREDICT_WORDS {
                    b.read(p, mol_word(m, k), WORD)
                        .expect("legal by construction");
                    b.write(p, mol_word(m, k), WORD)
                        .expect("legal by construction");
                }
            }
        }
        b.barrier_all(barrier).expect("legal by construction");

        // ---- forces: cutoff neighbours, force sums under locks ----
        for pi in 0..procs {
            let p = ProcId::new(pi as u16);
            for mi in 0..MOLS_PER_PROC {
                let m = pi as u64 * MOLS_PER_PROC + mi;
                // Neighbours within the cutoff: the next 1–2 molecules in
                // space. Mostly same-owner; cross-processor only at
                // partition boundaries.
                let neighbours = 1 + rng.below(2) as u64;
                for d in 1..=neighbours {
                    let n = (m + d) % n_mols;
                    // Read the neighbour's position (written by its owner
                    // in the predict phase, ordered by the barrier).
                    b.read(p, mol_word(n, 0), WORD)
                        .expect("legal by construction");
                    b.read(p, mol_word(n, 1), WORD)
                        .expect("legal by construction");
                    // Update its force sum under the molecule lock.
                    b.acquire(p, mol_lock(n)).expect("legal by construction");
                    b.read(p, mol_word(n, FORCE_WORD), WORD)
                        .expect("legal by construction");
                    b.write(p, mol_word(n, FORCE_WORD), WORD)
                        .expect("legal by construction");
                    b.release(p, mol_lock(n)).expect("legal by construction");
                }
            }
            // Global running sum.
            b.acquire(p, sum_lock).expect("legal by construction");
            b.read(p, word(SUM_BASE), WORD)
                .expect("legal by construction");
            b.write(p, word(SUM_BASE), WORD)
                .expect("legal by construction");
            b.release(p, sum_lock).expect("legal by construction");
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
    fn barriers_and_molecule_locks() {
        let trace = generate(&Scale::small(4));
        let stats = TraceStats::compute(&trace);
        assert!(stats.barrier_episodes(4) >= 6, "two barriers per step");
        assert!(
            stats.acquires > stats.barrier_arrivals,
            "fine-grained force locks"
        );
    }

    #[test]
    fn deterministic_and_labeled() {
        let a = generate(&Scale::small(4));
        assert_eq!(a, generate(&Scale::small(4)));
        // `workload_conformance` checks it properly labeled through lrc-hist.
    }
}
