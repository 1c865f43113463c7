//! Micro-patterns from the paper's motivating discussion.
//!
//! * [`migratory`] — the Figure 3/4 scenario: processors repeatedly
//!   acquire a lock, touch the protected data, and release. Eager RC
//!   updates every cached copy at every release; LRC moves the data with
//!   the lock in a single message exchange per acquire.
//! * [`false_sharing`] — processors write disjoint words that share pages
//!   as pages grow; multiple-writer protocols must not ping-pong.
//! * [`producer_consumer`] — a lock-protected bounded buffer; the update
//!   policy shines because consumers always want what the producer wrote.

use lrc_sync::{BarrierId, LockId};
use lrc_trace::{Trace, TraceBuilder, TraceMeta};
use lrc_vclock::ProcId;

/// Byte address of word `w` (8-byte words, matching the applications).
fn word(w: u64) -> u64 {
    w * 8
}

const WORD: u32 = 8;

/// The migratory pattern of Figures 3 and 4: `rounds` cycles of every
/// processor in turn acquiring lock 0, reading and rewriting the
/// `block_words`-word shared datum, and releasing.
///
/// # Panics
///
/// Panics on zero processors, rounds, or block size.
///
/// # Example
///
/// ```
/// use lrc_workloads::micro::migratory;
///
/// let trace = migratory(4, 10, 8);
/// assert_eq!(trace.len(), 4 * 10 * (8 + 3));
/// ```
pub fn migratory(procs: usize, rounds: usize, block_words: u64) -> Trace {
    assert!(
        procs > 0 && rounds > 0 && block_words > 0,
        "empty migratory pattern"
    );
    let meta = TraceMeta::new("migratory", procs, 1, 0, word(block_words));
    let mut b = TraceBuilder::new(meta);
    let lock = LockId::new(0);
    for round in 0..rounds {
        for pi in 0..procs {
            let p = ProcId::new(pi as u16);
            b.acquire(p, lock).expect("legal by construction");
            for k in 0..block_words {
                b.read(p, word(k), WORD).expect("legal by construction");
            }
            // Rewrite part of the block so every hand-off carries data.
            let k = (round + pi) as u64 % block_words;
            b.write(p, word(k), WORD).expect("legal by construction");
            b.release(p, lock).expect("legal by construction");
        }
    }
    b.finish().expect("no dangling synchronization")
}

/// The false-sharing pattern: each processor owns one word, all words
/// packed `stride_words` apart (so page size determines how many owners
/// share a page). Each phase every processor rereads its neighbours'
/// previous values and rewrites its own word; phases are separated by a
/// barrier.
///
/// # Panics
///
/// Panics on zero processors or phases, or zero stride.
///
/// # Example
///
/// ```
/// use lrc_workloads::micro::false_sharing;
///
/// let trace = false_sharing(4, 6, 16);
/// assert_eq!(trace.meta().mem_bytes(), 4 * 16 * 8);
/// ```
pub fn false_sharing(procs: usize, phases: usize, stride_words: u64) -> Trace {
    assert!(
        procs > 0 && phases > 0 && stride_words > 0,
        "empty false-sharing pattern"
    );
    let span = procs as u64 * stride_words;
    let meta = TraceMeta::new("false_sharing", procs, 0, 1, word(span));
    let mut b = TraceBuilder::new(meta);
    let barrier = BarrierId::new(0);
    for _ in 0..phases {
        // Read sub-phase: everyone rereads every word (the values of the
        // previous write sub-phase, ordered by the barrier below).
        for pi in 0..procs {
            let p = ProcId::new(pi as u16);
            for qi in 0..procs {
                b.read(p, word(qi as u64 * stride_words), WORD)
                    .expect("legal by construction");
            }
        }
        b.barrier_all(barrier).expect("legal by construction");
        // Write sub-phase: each processor rewrites only its own word.
        for pi in 0..procs {
            let p = ProcId::new(pi as u16);
            b.write(p, word(pi as u64 * stride_words), WORD)
                .expect("legal by construction");
        }
        b.barrier_all(barrier).expect("legal by construction");
    }
    b.finish().expect("no dangling synchronization")
}

/// A lock-protected bounded buffer: processor 0 produces `items` records,
/// every other processor consumes each record after it is published.
///
/// # Panics
///
/// Panics with fewer than two processors or zero items/record words.
///
/// # Example
///
/// ```
/// use lrc_workloads::micro::producer_consumer;
///
/// let trace = producer_consumer(3, 8, 4);
/// assert_eq!(trace.meta().n_procs(), 3);
/// ```
pub fn producer_consumer(procs: usize, items: usize, record_words: u64) -> Trace {
    assert!(
        procs >= 2,
        "producer/consumer needs at least two processors"
    );
    assert!(
        items > 0 && record_words > 0,
        "empty producer/consumer pattern"
    );
    const SLOTS: u64 = 8;
    let meta = TraceMeta::new(
        "producer_consumer",
        procs,
        1,
        0,
        word(1 + SLOTS * record_words),
    );
    let mut b = TraceBuilder::new(meta);
    let lock = LockId::new(0);
    let producer = ProcId::new(0);
    for item in 0..items as u64 {
        let slot = item % SLOTS;
        let base = 1 + slot * record_words;
        // Produce under the lock.
        b.acquire(producer, lock).expect("legal by construction");
        b.write(producer, word(0), WORD)
            .expect("legal by construction"); // head index
        for k in 0..record_words {
            b.write(producer, word(base + k), WORD)
                .expect("legal by construction");
        }
        b.release(producer, lock).expect("legal by construction");
        // Every consumer reads the record.
        for ci in 1..procs {
            let c = ProcId::new(ci as u16);
            b.acquire(c, lock).expect("legal by construction");
            b.read(c, word(0), WORD).expect("legal by construction");
            for k in 0..record_words {
                b.read(c, word(base + k), WORD)
                    .expect("legal by construction");
            }
            b.release(c, lock).expect("legal by construction");
        }
    }
    b.finish().expect("no dangling synchronization")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_trace::TraceStats;

    #[test]
    fn migratory_is_lock_only_and_labeled() {
        let t = migratory(4, 5, 8);
        let stats = TraceStats::compute(&t);
        assert_eq!(stats.barrier_arrivals, 0);
        assert_eq!(stats.acquires, 20);
        assert_eq!(stats.releases, 20);
        // `workload_conformance` checks it properly labeled through lrc-hist.
    }

    #[test]
    fn false_sharing_is_barrier_only_and_labeled() {
        let t = false_sharing(4, 3, 64);
        let stats = TraceStats::compute(&t);
        assert_eq!(stats.acquires, 0);
        assert_eq!(stats.barrier_episodes(4), 6, "read and write sub-phases");
        // `workload_conformance` checks it properly labeled through lrc-hist.
        // The whole point: one writer per 512-byte page, four per 8K page.
        assert_eq!(stats.mean_writers_per_page(&t, 512).unwrap(), 1.0);
        assert_eq!(stats.mean_writers_per_page(&t, 8192).unwrap(), 4.0);
    }

    #[test]
    fn producer_consumer_is_labeled() {
        let t = producer_consumer(4, 6, 4);
        // `workload_conformance` checks it properly labeled through lrc-hist.
        let stats = TraceStats::compute(&t);
        assert_eq!(stats.acquires, 6 * 4); // producer + 3 consumers per item
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn producer_consumer_needs_two_procs() {
        producer_consumer(1, 1, 1);
    }

    #[test]
    fn deterministic() {
        assert_eq!(migratory(4, 5, 8), migratory(4, 5, 8));
        assert_eq!(false_sharing(2, 2, 8), false_sharing(2, 2, 8));
        assert_eq!(producer_consumer(2, 2, 2), producer_consumer(2, 2, 2));
    }
}
