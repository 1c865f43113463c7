//! A threaded runtime DSM over the lazy and eager protocol engines.
//!
//! The paper's conclusion promises "an implementation of lazy release
//! consistency to assess the run-time cost of the algorithm" (which became
//! TreadMarks). This crate is that runtime in miniature: each simulated
//! processor is a real OS thread with the shared-memory API a DSM offers —
//! typed reads and writes, locks, barriers — and the full LRC (or eager
//! RC) machinery runs underneath: twins, diffs, write notices, vector
//! timestamps, and message accounting.
//!
//! One substitution versus a production DSM: a real system detects misses
//! with `mprotect`/SIGSEGV page faults; here accesses go through
//! [`ProcHandle`] methods that consult page state explicitly. That changes *how* a miss is detected, never the protocol
//! traffic, and keeps the crate `forbid(unsafe_code)`.
//!
//! The [`NodeServer`] / [`NodeClient`] pair additionally runs the DSM as
//! *message-passing nodes*: processors hosted on peer nodes drive the
//! engine through `lrc-net`'s wire protocol instead of direct calls (see
//! the [`node`-module docs](NodeServer)).
//!
//! # Example
//!
//! ```
//! use lrc_dsm::DsmBuilder;
//! use lrc_sim::ProtocolKind;
//! use lrc_sync::LockId;
//!
//! let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 4, 1 << 16).build()?;
//! let lock = LockId::new(0);
//! dsm.parallel(|proc| {
//!     for _ in 0..100 {
//!         proc.acquire(lock)?;
//!         let v = proc.read_u64(0);
//!         proc.write_u64(0, v + 1);
//!         proc.release(lock)?;
//!     }
//!     Ok(())
//! })?;
//! // Release consistency in action: the check must acquire the lock to be
//! // ordered after every increment — an unsynchronized read could
//! // legitimately see stale data.
//! let mut check = dsm.handle(lrc_vclock::ProcId::new(0));
//! check.acquire(lock)?;
//! assert_eq!(check.read_u64(0), 400);
//! check.release(lock)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod builder;
mod cluster;
mod handle;
mod node;
mod recovery;

pub use builder::DsmBuilder;
pub use cluster::{CoreView, Dsm, DsmError, SharedEngine};
pub use handle::ProcHandle;
pub use node::{NodeClient, NodeError, NodeServer, RemoteHandle};
