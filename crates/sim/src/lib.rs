//! Trace-driven DSM protocol simulator.
//!
//! This crate is the experimental apparatus of the reproduction: it replays
//! a [`lrc_trace::Trace`] over any of the paper's four protocols —
//!
//! | kind | engine | policy |
//! |------|--------|--------|
//! | [`ProtocolKind::LazyInvalidate`] (LI) | [`lrc_core::LrcEngine`] | invalidate |
//! | [`ProtocolKind::LazyUpdate`] (LU) | [`lrc_core::LrcEngine`] | update |
//! | [`ProtocolKind::EagerInvalidate`] (EI) | [`lrc_eager::EagerEngine`] | invalidate |
//! | [`ProtocolKind::EagerUpdate`] (EU) | [`lrc_eager::EagerEngine`] | update |
//!
//! (both engines are the one [`lrc_core::Engine`] under a different
//! [`lrc_core::Protocol`])
//!
//! — and reports the two quantities the paper measures: **messages** and
//! **data** exchanged, per operation class (Table 1's columns).
//!
//! Because both engines maintain real page contents, the simulator can run
//! with a **sequential-consistency oracle** ([`SimOptions::check_sc`]):
//! every write deterministically synthesizes its bytes, a flat memory
//! replays them in trace order, and every read of every protocol is
//! compared against it. On a properly-labeled trace (see
//! [`lrc_trace::check_labeling`]) any mismatch is a protocol bug; the test
//! suites lean on this heavily.
//!
//! [`sweep`] replays one trace across page sizes × protocols — exactly how
//! the paper produces Figures 5–14 — and renders the series as tables.
//!
//! # Example
//!
//! ```
//! use lrc_sim::{run_trace, ProtocolKind, SimOptions};
//! use lrc_trace::{TraceBuilder, TraceMeta};
//! use lrc_sync::LockId;
//! use lrc_vclock::ProcId;
//!
//! let mut b = TraceBuilder::new(TraceMeta::new("demo", 2, 1, 0, 1 << 16));
//! let (p0, p1, l) = (ProcId::new(0), ProcId::new(1), LockId::new(0));
//! b.acquire(p0, l)?;
//! b.write(p0, 0, 8)?;
//! b.release(p0, l)?;
//! b.acquire(p1, l)?;
//! b.read(p1, 0, 8)?;
//! b.release(p1, l)?;
//! let trace = b.finish()?;
//!
//! let li = run_trace(&trace, ProtocolKind::LazyInvalidate, 4096, &SimOptions::checked())?;
//! let ei = run_trace(&trace, ProtocolKind::EagerInvalidate, 4096, &SimOptions::checked())?;
//! assert!(li.messages() <= ei.messages());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine_any;
mod matrix;
mod protocol;
mod runner;
mod sweep;

pub use engine_any::{AnyCheckpoint, AnyEngine};
pub use lrc_core::EngineParams;
pub use matrix::{run_traced, CommMatrix};
pub use protocol::ProtocolKind;
pub use runner::{run_trace, synth_write_bytes, RunReport, SimError, SimOptions};
pub use sweep::{sweep, Metric, SweepConfig, SweepResult};
