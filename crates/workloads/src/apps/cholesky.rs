//! Cholesky: sparse symbolic+numeric factorization (§5.3.2).
//!
//! "Locks are used to control access to a global task queue and to
//! arbitrate access when simultaneous supernodal modifications attempt to
//! modify the same column. No barriers are used. Data motion is largely
//! migratory, as in LocusRoute."
//!
//! Pattern generated here: a task-queue header under lock 0; a set of
//! columns, each under its own lock; each task reads part of a source
//! column and applies a supernodal update to a destination column
//! (read-modify-write of a prefix of its words).

use lrc_sync::LockId;
use lrc_trace::{Trace, TraceBuilder, TraceMeta};
use lrc_vclock::ProcId;

use super::{word, WORD};
use crate::{Pcg32, Scale};

/// Words per matrix column.
const COL_WORDS: u64 = 48;
/// First column word (after the queue header).
const COL_BASE: u64 = 16;

pub(super) fn generate(scale: &Scale) -> Trace {
    let procs = scale.procs;
    let columns = (4 * procs) as u64;
    let mem_bytes = word(COL_BASE + columns * COL_WORDS);
    // Lock 0: task queue; locks 1..=columns: column locks.
    let meta = TraceMeta::new("cholesky", procs, 1 + columns as usize, 0, mem_bytes);
    let mut b = TraceBuilder::new(meta);
    let mut rng = Pcg32::seed(scale.seed ^ 0xc401e);

    let queue = LockId::new(0);
    let col_lock = |j: u64| LockId::new(1 + j as u32);
    let col_word = |j: u64, k: u64| word(COL_BASE + j * COL_WORDS + k);

    let tasks = scale.units * procs;
    for t in 0..tasks {
        let p = ProcId::new((t % procs) as u16);
        // Pop a supernodal task.
        b.acquire(p, queue).expect("legal by construction");
        b.read(p, word(0), WORD).expect("legal by construction");
        b.write(p, word(0), WORD).expect("legal by construction");
        b.release(p, queue).expect("legal by construction");

        let dst = rng.below(columns as u32) as u64;
        // Half the tasks read a source column first (cmod-style update).
        if rng.chance(1, 2) {
            let src = {
                let s = rng.below(columns as u32) as u64;
                if s == dst {
                    (s + 1) % columns
                } else {
                    s
                }
            };
            b.acquire(p, col_lock(src)).expect("legal by construction");
            let read_words = rng.range(4, 12) as u64;
            for k in 0..read_words {
                b.read(p, col_word(src, k), WORD)
                    .expect("legal by construction");
            }
            b.release(p, col_lock(src)).expect("legal by construction");
        }
        // Supernodal modification of the destination column prefix.
        b.acquire(p, col_lock(dst)).expect("legal by construction");
        let upd_words = rng.range(4, 16) as u64;
        for k in 0..upd_words {
            b.read(p, col_word(dst, k), WORD)
                .expect("legal by construction");
            b.write(p, col_word(dst, k), WORD)
                .expect("legal by construction");
        }
        b.release(p, col_lock(dst)).expect("legal by construction");
    }
    b.finish()
        .expect("generator leaves no dangling synchronization")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_trace::TraceStats;

    #[test]
    fn no_barriers_lock_dominated() {
        let trace = generate(&Scale::small(4));
        let stats = TraceStats::compute(&trace);
        assert_eq!(stats.barrier_arrivals, 0, "the paper: no barriers are used");
        assert!(
            stats.acquires as f64 >= trace.len() as f64 / 20.0,
            "lock heavy"
        );
    }

    #[test]
    fn deterministic_and_labeled() {
        let a = generate(&Scale::small(4));
        assert_eq!(a, generate(&Scale::small(4)));
        // `workload_conformance` checks it properly labeled through lrc-hist.
    }
}
