//! Shared-memory access traces.
//!
//! The ISCA '92 evaluation is *trace driven*: a multiprocessor execution is
//! recorded as a sequence of shared-memory accesses and synchronization
//! operations, and each protocol is replayed over the same trace. This
//! crate defines that representation and the tooling around it:
//!
//! * [`Event`] / [`Op`] — one processor's read, write, lock acquire, lock
//!   release, or barrier arrival;
//! * [`Trace`] — a *legal global interleaving* of events, constructed
//!   through the validating [`TraceBuilder`] or checked after the fact by
//!   [`validate`];
//! * [`check_labeling`] — a happened-before race detector that verifies a
//!   trace is *properly labeled* (all conflicting accesses ordered by
//!   synchronization), the precondition under which release-consistent
//!   memory behaves sequentially consistently;
//! * [`Program`] / [`interleave`] — per-processor operation sequences and
//!   a seeded scheduler producing legal global interleavings of them;
//! * [`codec`] — the text serialization;
//! * [`TraceStats`] — access/synchronization/sharing statistics.
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
//! assert!(lrc_trace::check_labeling(&trace).is_ok());
//! # Ok::<(), lrc_trace::TraceError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod event;
mod program;
mod race;
mod stats;
mod trace;
mod validate;

pub use event::{Event, Op};
pub use program::{interleave, Program, ScheduleError};
pub use race::{check_labeling, Race, RaceAccess};
pub use stats::TraceStats;
pub use trace::{Trace, TraceBuilder, TraceMeta};
pub use validate::{validate, TraceError, MAX_ACCESS_LEN};
