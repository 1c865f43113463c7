//! SPLASH-like synthetic workload generators.
//!
//! The paper evaluates LRC on traces of five SPLASH programs collected with
//! the Tango simulator on 16 processors. Tango and the original traces are
//! long gone; what the protocols' message and data counts actually depend
//! on is each program's **sharing and synchronization pattern**, which §5.3
//! of the paper describes precisely. This crate generates traces with
//! those patterns, parameterized and deterministic:
//!
//! * [`AppKind::LocusRoute`] — VLSI router: central task queue under a
//!   lock, migratory cost-grid regions under region locks, false sharing
//!   that grows with page size.
//! * [`AppKind::Cholesky`] — sparse factorization: task queue plus
//!   per-column locks, migratory columns, **no barriers**.
//! * [`AppKind::Mp3d`] — particle simulation: barrier-phased steps, sparse
//!   writes to a shared cell grid, many access misses, event counters
//!   under locks.
//! * [`AppKind::Water`] — molecular dynamics: barrier-phased steps with
//!   per-molecule force locks and a global sum lock; the least
//!   communication of the five.
//! * [`AppKind::Pthor`] — logic simulator: per-processor element and
//!   work-queue pages frequently read by other processors, element locks,
//!   rare deadlock-recovery barriers.
//!
//! [`micro`] holds the small patterns used in the paper's motivating
//! figures (migratory lock data, false sharing, producer/consumer).
//!
//! [`ThreadProgram`] is the tree's one random program type: a
//! race-free-by-construction per-processor script that runs on real
//! threads, through the node runtime, and — lowered by
//! [`ThreadProgram::trace`] — in the simulator.
//!
//! Every generator emits through the validating
//! [`lrc_trace::TraceBuilder`], and the simulator's test suite checks the
//! traces are **properly labeled** — the precondition for the simulator's
//! sequential-consistency oracle — with the tree's one race oracle:
//! `lrc_sim::history_of` lowers a trace to an `lrc-hist` history, whose
//! `check_drf` decides.
//!
//! # Example
//!
//! ```
//! use lrc_workloads::{AppKind, Scale};
//!
//! let trace = AppKind::Water.generate(&Scale::small(4));
//! assert!(trace.len() > 0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod apps;
pub(crate) mod hist_programs;
pub mod micro;
mod rng;
mod scale;

pub use apps::AppKind;
pub use hist_programs::{HistCmd, ProgramShape, ThreadOp, ThreadProgram};
pub use rng::Pcg32;
pub use scale::Scale;
