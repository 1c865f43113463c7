//! The eager release consistency baseline (Munin's write-shared protocol).
//!
//! This crate implements the comparison point of the ISCA '92 LRC paper
//! (§3): an eager implementation of release consistency modeled on Munin's
//! write-shared protocol. A processor delays propagating its modifications
//! until it comes to a **release**; at that point it pushes them to *every*
//! processor caching the modified pages and blocks until all have
//! acknowledged:
//!
//! * under the **update** policy ("EU") the release sends each cacher a
//!   diff of every modified page it caches, merged into one message per
//!   destination (Figure 2 of the paper);
//! * under the **invalidate** policy ("EI") the release sends write
//!   notices; cachers drop their copies and reload whole pages from the
//!   directory on their next access — the behaviour that makes EI's data
//!   volume balloon on programs like Pthor (§5.3.5).
//!
//! Access misses go through a **directory manager** (the page's static
//! home): two messages when the home has a valid copy, three when it must
//! forward to the current owner. Barrier arrivals flush like releases; EI
//! piggybacks its invalidations on the barrier messages and pays only for
//! resolving multiple concurrent invalidators of one page (Table 1's `2v`).
//!
//! Acquires carry **no consistency information** — that is precisely what
//! [`lrc_core`] changes.
//!
//! Only those four differences live here: [`Eager`] implements
//! [`lrc_core::Protocol`] and everything else — shards, cached accesses,
//! lock and barrier tables, the miss split, counters — is the shared
//! [`lrc_core::Engine`].
//!
//! # No crash story, on purpose
//!
//! Eager RC pushes a processor's modifications at release time, so what a
//! crashed processor had not yet released is simply gone and what it had
//! is already everywhere: there is nothing to catch a rejoiner up *with*.
//! Nor is there a whole-runtime checkpoint: the engine is deterministic,
//! so replaying a run's prefix restores any of its states. Checkpointing
//! is the lazy engine's ([`lrc_core::EngineCheckpoint`]). Every recovery
//! entry point refuses, never a silent no-op: the options that select
//! recovery — `holder_timeout`, `death_lease` and `checkpoint_every` —
//! fail the build of an eager runtime or engine with
//! [`ConfigError::LazyOnly`](lrc_core::ConfigError::LazyOnly), a rejoin
//! handshake at an eager node server gets a typed error reply, and a
//! direct `checkpoint`, `restore`, `rejoin` or `declare_dead` call on an
//! eager runtime panics.
//!
//! # Example
//!
//! ```
//! use lrc_core::{EngineParams, Policy};
//! use lrc_eager::EagerEngine;
//! use lrc_sync::LockId;
//! use lrc_vclock::ProcId;
//!
//! let params = EngineParams {
//!     n_procs: 2,
//!     ..EngineParams::default()
//! };
//! let mut dsm = EagerEngine::new(Policy::Update, &params)?;
//! let (p0, p1, l) = (ProcId::new(0), ProcId::new(1), LockId::new(0));
//!
//! dsm.acquire(p0, l)?;
//! dsm.write_u64(p0, 64, 7);
//! dsm.release(p0, l)?; // modifications pushed to all cachers *now*
//!
//! dsm.acquire(p1, l)?;
//! let mut buf = [0u8; 8];
//! dsm.read_into(p1, 64, &mut buf);
//! assert_eq!(u64::from_le_bytes(buf), 7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod engine;

pub use engine::{Eager, EagerEngine, EagerShard};
