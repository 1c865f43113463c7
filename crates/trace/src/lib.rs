//! Shared-memory access traces.
//!
//! The ISCA '92 evaluation is *trace driven*: a multiprocessor execution is
//! recorded as a sequence of shared-memory accesses and synchronization
//! operations, and each protocol is replayed over the same trace. This
//! crate defines that representation and the tooling around it:
//!
//! * [`Event`] / [`Op`] — one processor's read, write, lock acquire, lock
//!   release, or barrier arrival;
//! * [`Trace`] — a *legal global interleaving* of events: every public
//!   constructor ([`TraceBuilder`], [`Trace::from_parts`], [`interleave`],
//!   [`codec::from_text`]) checks legality, so a `Trace` value is legal;
//! * [`Program`] / [`interleave`] — per-processor operation sequences and
//!   a seeded scheduler producing legal global interleavings of them;
//! * [`codec`] — the text serialization;
//! * [`TraceStats`] — access/synchronization/sharing statistics.
//!
//! Whether a trace is *properly labeled* (all conflicting accesses
//! ordered by synchronization, the precondition under which
//! release-consistent memory behaves sequentially consistently) is not
//! decided here: `lrc_sim::history_of` lowers a trace to an `lrc-hist`
//! history, and that crate's `History::check_drf` is the one race oracle
//! for traces and recorded runs alike.
//!
//! # Example
//!
//! ```
//! use lrc_trace::{TraceBuilder, TraceMeta};
//! use lrc_sync::LockId;
//! use lrc_vclock::ProcId;
//!
//! let meta = TraceMeta::new("demo", 2, 1, 0, 4096);
//! let mut b = TraceBuilder::new(meta);
//! let (p0, p1, l) = (ProcId::new(0), ProcId::new(1), LockId::new(0));
//! b.acquire(p0, l)?;
//! b.write(p0, 64, 8)?;
//! b.release(p0, l)?;
//! b.acquire(p1, l)?;
//! b.read(p1, 64, 8)?;
//! b.release(p1, l)?;
//! let trace = b.finish()?;
//! assert_eq!(trace.len(), 6);
//! # Ok::<(), lrc_trace::TraceError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod codec;
mod event;
mod program;
mod stats;
mod trace;
mod validate;

pub use event::{Event, Op};
pub use program::{interleave, Program};
pub use stats::TraceStats;
pub use trace::{Trace, TraceBuilder, TraceMeta};
pub(crate) use validate::validate;
pub use validate::TraceError;
