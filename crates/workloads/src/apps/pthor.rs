//! Pthor: a parallel distributed-time logic simulator (§5.3.5).
//!
//! "The major data structures represent logic elements, wires between
//! elements, and per-processor work queues. Locks are used to protect
//! access to all three types of data structures. Barriers are used only
//! when deadlock occurs. In Pthor, each processor has a set of pages that
//! it modifies. However, these pages are also frequently read by the other
//! processors."
//!
//! Pattern generated here:
//!
//! * elements laid out **contiguously per owner** (so each processor has
//!   "its" pages), each under an element lock; evaluating an element
//!   rewrites part of it and reads a neighbour element — often remote,
//!   which is the frequent remote read of locally-modified pages;
//! * a read-only wire table, initialized by processor 0 and published with
//!   one barrier;
//! * per-processor work queues under per-queue locks, mostly popped by
//!   their owner but occasionally stolen;
//! * a rare deadlock-recovery barrier.

use lrc_sync::{BarrierId, LockId};
use lrc_trace::{Trace, TraceBuilder, TraceMeta};
use lrc_vclock::ProcId;

use super::{word, WORD};
use crate::{Pcg32, Scale};

/// Elements per processor.
const ELEMS_PER_PROC: u64 = 16;
/// Words per element.
const ELEM_WORDS: u64 = 16;
/// Words per work queue.
const QUEUE_WORDS: u64 = 32;
/// Tasks between deadlock-recovery barriers.
const BARRIER_PERIOD: usize = 512;

pub(super) fn generate(scale: &Scale) -> Trace {
    let procs = scale.procs;
    let n_elems = procs as u64 * ELEMS_PER_PROC;
    let elems_base = 0u64;
    let wires_base = elems_base + n_elems * ELEM_WORDS;
    let queues_base = wires_base + n_elems; // one wire word per element
    let mem_bytes = word(queues_base + procs as u64 * QUEUE_WORDS);
    // Locks 0..procs: queue locks; procs..procs+n_elems: element locks.
    let meta = TraceMeta::new("pthor", procs, procs + n_elems as usize, 1, mem_bytes);
    let mut b = TraceBuilder::new(meta);
    let mut rng = Pcg32::seed(scale.seed ^ 0x9704);

    let queue_lock = |q: usize| LockId::new(q as u32);
    let elem_lock = |e: u64| LockId::new((procs as u64 + e) as u32);
    let elem_word = |e: u64, k: u64| word(elems_base + e * ELEM_WORDS + k);
    let queue_word = |q: usize, k: u64| word(queues_base + q as u64 * QUEUE_WORDS + k);
    let barrier = BarrierId::new(0);

    // Processor 0 builds the wire table, published by a barrier.
    let p0 = ProcId::new(0);
    for e in 0..n_elems {
        b.write(p0, word(wires_base + e), WORD)
            .expect("legal by construction");
    }
    b.barrier_all(barrier).expect("legal by construction");

    let tasks = scale.units * procs;
    for t in 0..tasks {
        let pi = t % procs;
        let p = ProcId::new(pi as u16);

        // Pop the next event, usually from the own queue, sometimes stolen.
        let victim = if rng.chance(1, 8) {
            rng.below(procs as u32) as usize
        } else {
            pi
        };
        b.acquire(p, queue_lock(victim))
            .expect("legal by construction");
        let head = rng.below(QUEUE_WORDS as u32 - 1) as u64;
        b.read(p, queue_word(victim, head), WORD)
            .expect("legal by construction");
        b.write(p, queue_word(victim, head), WORD)
            .expect("legal by construction");
        b.release(p, queue_lock(victim))
            .expect("legal by construction");

        // Choose an element: mostly own partition, sometimes remote.
        let e = if rng.chance(7, 10) {
            pi as u64 * ELEMS_PER_PROC + rng.below(ELEMS_PER_PROC as u32) as u64
        } else {
            rng.below(n_elems as u32) as u64
        };
        // Consult the wire table (read-only after initialization).
        b.read(p, word(wires_base + e), WORD)
            .expect("legal by construction");

        // Evaluate the element.
        b.acquire(p, elem_lock(e)).expect("legal by construction");
        for k in 0..4 {
            b.read(p, elem_word(e, k), WORD)
                .expect("legal by construction");
        }
        for k in 0..2 {
            b.write(p, elem_word(e, k), WORD)
                .expect("legal by construction");
        }
        b.release(p, elem_lock(e)).expect("legal by construction");

        // Read a fan-out neighbour's state — frequently a *remote* page.
        let neighbour = rng.below(n_elems as u32) as u64;
        b.acquire(p, elem_lock(neighbour))
            .expect("legal by construction");
        b.read(p, elem_word(neighbour, 0), WORD)
            .expect("legal by construction");
        b.read(p, elem_word(neighbour, 1), WORD)
            .expect("legal by construction");
        b.release(p, elem_lock(neighbour))
            .expect("legal by construction");

        // Schedule follow-up work on the own queue.
        b.acquire(p, queue_lock(pi)).expect("legal by construction");
        let tail = rng.below(QUEUE_WORDS as u32 - 1) as u64;
        b.write(p, queue_word(pi, tail), WORD)
            .expect("legal by construction");
        b.release(p, queue_lock(pi)).expect("legal by construction");

        // Rare deadlock-recovery barrier.
        if (t + 1) % BARRIER_PERIOD == 0 && (t + 1) % procs == 0 {
            b.barrier_all(barrier).expect("legal by construction");
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
    fn lock_heavy_rare_barriers() {
        let trace = generate(&Scale {
            units: 200,
            ..Scale::small(4)
        });
        let stats = TraceStats::compute(&trace);
        assert!(stats.acquires >= 3 * 200, "several locks per task");
        let episodes = stats.barrier_episodes(4);
        assert!(episodes >= 1, "init barrier");
        assert!(
            episodes <= 1 + (200 * 4) / super::BARRIER_PERIOD + 1,
            "deadlock barriers are rare"
        );
    }

    #[test]
    fn deterministic_and_labeled() {
        let a = generate(&Scale::small(4));
        assert_eq!(a, generate(&Scale::small(4)));
        // `workload_conformance` checks it properly labeled through lrc-hist.
    }
}
