//! Vector timestamps and interval causality for lazy release consistency.
//!
//! Lazy release consistency (Keleher, Cox, Zwaenepoel; ISCA '92) divides the
//! execution of each processor into *intervals*, a new interval beginning at
//! each special (synchronization) access. Causality between intervals is the
//! *happened-before-1* partial order of Adve and Hill, represented with
//! per-processor [`VectorClock`]s: entry `p` of processor `p`'s clock is its
//! current interval index, and entry `q != p` is the most recent interval of
//! `q` that has *performed* at `p`.
//!
//! This crate is the causality substrate shared by the protocol engines: it
//! knows nothing about pages, diffs, or messages.
//!
//! # Example
//!
//! ```
//! use lrc_vclock::{ProcId, VectorClock, IntervalId, CausalOrd};
//!
//! let p0 = ProcId::new(0);
//! let p1 = ProcId::new(1);
//!
//! let mut a = VectorClock::new(2);
//! a.bump(p0); // p0 enters interval 1
//!
//! let mut b = VectorClock::new(2);
//! b.bump(p1); // p1 enters interval 1, knows nothing of p0
//!
//! assert_eq!(a.causal_cmp(&b), CausalOrd::Concurrent);
//!
//! // p1 acquires a lock last released by p0: it learns p0's time.
//! b.merge(&a);
//! assert!(b.covers(IntervalId::new(p0, 1)));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod clock;
mod interval;
mod proc_id;

pub use clock::{CausalOrd, VectorClock};
pub use interval::{IntervalId, StampedInterval};
pub use proc_id::ProcId;
