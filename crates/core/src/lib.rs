//! The lazy release consistency (LRC) protocol engine.
//!
//! This crate implements the primary contribution of *Lazy Release
//! Consistency for Software Distributed Shared Memory* (Keleher, Cox,
//! Zwaenepoel; ISCA 1992): an algorithm for release-consistent software DSM
//! that postpones the propagation of modifications from release time to
//! **acquire** time, and then moves only the modifications that
//! *happened-before* the acquire.
//!
//! The moving parts, in paper order:
//!
//! * **Intervals** (§4.2) — each processor's execution is divided into
//!   intervals, a new one at each special access. Intervals carry vector
//!   timestamps; interval `j` happened-before interval `i` iff `i`'s clock
//!   covers `j`.
//! * **Write notices** (§4.2) — at an acquire, the grantor sends the
//!   acquirer write notices (page × interval, *not* the data) for every
//!   interval that performed at the grantor but not yet at the acquirer,
//!   piggybacked on the lock grant. Releases are purely local.
//! * **Data movement** (§4.3) — under the **invalidate** policy
//!   ([`Policy::Invalidate`], protocol "LI") noticed pages are invalidated
//!   and their diffs pulled at the next access miss from the *concurrent
//!   last modifiers*; under the **update** policy ([`Policy::Update`],
//!   "LU") the acquirer pulls diffs for all its cached pages at acquire
//!   time. Diffs are applied in happened-before order.
//! * **Multiple writers** (§4.3.1) — twins are made on the first write of
//!   an interval and diffs encode exactly the modified bytes, so falsely
//!   shared pages never ping-pong.
//! * **The §4.3.3 optimization** — a processor holding an *invalidated*
//!   copy fetches only diffs, never the whole page. (Disable with
//!   [`EngineParams::full_page_misses`] to measure its effect.)
//!
//! The engine maintains *real page contents*: every write carries bytes,
//! twins and diffs are real, and reads return exactly what a DSM would
//! return. Message and byte costs are charged to an [`lrc_simnet::Fabric`].
//! An engine is plain data driven through `&mut self`: the trace-driven
//! simulator (`lrc-sim`) owns its [`LrcEngine`], and the threaded runtime
//! (`lrc-dsm`) keeps one behind one mutex. A miss comes in two halves,
//! [`Engine::begin_miss`] and [`Engine::finish_miss`], so that the
//! runtime can run the fetch between them with the engine released.
//!
//! Everything that is *not* specific to laziness — the per-processor
//! shards and the cached read/write path over them, the lock table and
//! barrier set, the miss split, counters, fabric and recorder hook —
//! lives in the protocol-independent [`Engine`] / [`EngineCore`], which
//! the eager baseline (`lrc-eager`) plugs into at the same four
//! [`Protocol`] points.
//!
//! # Example
//!
//! ```
//! use lrc_core::{EngineParams, LrcEngine, Policy};
//! use lrc_sync::LockId;
//! use lrc_vclock::ProcId;
//!
//! let params = EngineParams {
//!     n_procs: 2,
//!     ..EngineParams::default()
//! };
//! let mut dsm = LrcEngine::new(Policy::Invalidate, &params)?;
//! let (p0, p1, l) = (ProcId::new(0), ProcId::new(1), LockId::new(0));
//!
//! dsm.acquire(p0, l)?;
//! dsm.write(p0, 64, &7u64.to_le_bytes());
//! dsm.release(p0, l)?;
//!
//! dsm.acquire(p1, l)?; // write notice arrives, page invalidated
//! let mut buf = [0u8; 8];
//! dsm.read_into(p1, 64, &mut buf); // miss: diff pulled from p0
//! assert_eq!(u64::from_le_bytes(buf), 7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod checkpoint;
mod config;
mod counters;
mod engine;
mod lazy;
mod pagestate;
mod pending;
mod plan;
mod remote;
#[cfg(test)]
mod seeded;
mod slowpath;
mod store;

pub use checkpoint::{CheckpointError, EngineCheckpoint};
pub use checkpoint::{FrameCheckpoint, ProcCheckpoint};
pub(crate) use config::MAX_PROCS;
pub use config::{ConfigError, EngineParams, Policy};
pub use counters::EngineCounters;
pub use engine::{Engine, EngineCore, Protocol, Shard};
pub use lazy::{DeathReport, Lazy, LazyShard, LrcEngine};
pub use pagestate::Frame;
pub use pending::Pending;
pub use remote::EngineOp;
pub use slowpath::{FetchHook, Miss, MissTicket};
pub use store::IntervalStore;
pub(crate) use store::WriteNotice;
