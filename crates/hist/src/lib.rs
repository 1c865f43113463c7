//! Recorded-history conformance checking for threaded DSM runs.
//!
//! The paper's central claim is that lazy release consistency is
//! indistinguishable from sequential consistency for properly-labeled
//! (data-race-free) programs. The single-threaded simulator checks that
//! claim against a global replay order; threaded runs have no such order,
//! so this crate turns the claim into an executable oracle over **recorded
//! histories**, in the spirit of history-based linearizability proofs and
//! lazy-coherence model checking:
//!
//! 1. A low-overhead [`HistoryRecorder`] collects one append-only log per
//!    processor: every read (with the bytes it observed), every write,
//!    and every synchronization operation. The *engine* assigns the
//!    synchronization edges — the lock table numbers every grant in its
//!    lock's total grant order, the barrier set numbers every episode —
//!    under each object's own serialization (there is no global protocol
//!    lock), so the recorded happens-before relation is exactly the one
//!    the protocol acted on.
//! 2. [`History::check`] verifies the run:
//!    * the history is **data-race-free** (conflicting accesses are
//!      ordered by the recorded happens-before relation, held as one
//!      event-granularity clock per event);
//!    * every read is **justified** — it returned the value of the
//!      happens-before-latest write visible at the reader (the LRC
//!      notion: the intervals visible at the reader's last acquire);
//!    * a **sequentially consistent witness** exists: a single total
//!      order of all events, consistent with program order and the
//!      synchronization edges, in which every read returns the most
//!      recent write. The search is a backtracking scheduler pruned by
//!      the recorded happens-before edges (DPOR-style: only genuinely
//!      concurrent events ever need reordering).
//!
//! A correct protocol passes all three on every data-race-free program; a
//! broken protocol (the protocol mutants in the repository's
//! `MUTANTS.txt`) leaves a read that no legal order can explain, and the
//! checker rejects the history with a diagnostic naming the event.
//!
//! # Cost
//!
//! The checker is meant for long recorded runs. Building happens-before
//! takes events × processors (one clock entry per pair). The race and
//! justification scans run over an index of the accesses by the bytes
//! they touch, which holds one entry per access and stretch of bytes that
//! no access boundary divides — never more than one per byte, one per
//! access when accesses are aligned words — and do one binary search per
//! entry and processor: events × bytes per access × processors × log at
//! the worst. Neither scan ever compares two accesses because they
//! merely share an address. The witness search adds one state per event
//! on a conforming run. A 60 000-event history checks in about 0.03 s
//! (0.2 s in an unoptimized build).
//!
//! [`History::check_justified`] gives the same answer on a racy history
//! as comparing every write with every read does — the index loses
//! nothing to partial overlaps or to concurrent writers; what a racy
//! history makes ambiguous is the question, not the scan.
//!
//! # Example
//!
//! ```
//! use lrc_hist::{HistoryRecorder, CheckBudget};
//! use lrc_sync::LockId;
//! use lrc_vclock::ProcId;
//!
//! let rec = HistoryRecorder::new(2);
//! let (p0, p1, l) = (ProcId::new(0), ProcId::new(1), LockId::new(0));
//! // p0 publishes 7 under a lock; p1 acquires later (grant 2) and reads
//! // it. The grant numbers come from the engine's lock table.
//! rec.acquire(p0, l, 1);
//! rec.write(p0, 64, &7u64.to_le_bytes());
//! rec.release(p0, l, 1);
//! rec.acquire(p1, l, 2);
//! rec.read(p1, 64, &7u64.to_le_bytes());
//! rec.release(p1, l, 2);
//! let report = rec.finish().check(&CheckBudget::default()).unwrap();
//! assert_eq!(report.events, 6);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod check;
mod event;
mod record;

pub use check::{CheckBudget, CheckReport, EventSite, HistError, Witness};
pub use event::{HistEvent, History};
pub use record::HistoryRecorder;
