//! Simulated interconnect with per-category message and byte accounting.
//!
//! The evaluation of the ISCA '92 LRC paper measures two quantities: the
//! **number of messages** and the **amount of data** exchanged by each
//! protocol. This crate is the meter: protocol engines report every message
//! they would send to a [`Fabric`], which attributes it to a [`MsgKind`]
//! (and through it to one of Table 1's operation classes — access miss,
//! lock, unlock, barrier) and accumulates counts and bytes in [`NetStats`].
//!
//! The model matches the paper's assumptions (§5.1): reliable FIFO
//! channels, no broadcast or multicast — a "send to all cachers" costs one
//! message per destination.
//!
//! # Example
//!
//! ```
//! use lrc_simnet::{Fabric, MsgKind, OpClass};
//! use lrc_vclock::ProcId;
//!
//! let mut net = Fabric::new(4);
//! net.send(ProcId::new(0), ProcId::new(1), MsgKind::LockRequest, 8);
//! net.send(ProcId::new(1), ProcId::new(2), MsgKind::LockForward, 8);
//! net.send(ProcId::new(2), ProcId::new(0), MsgKind::LockGrant, 64);
//!
//! let locks = net.stats().class(OpClass::Lock);
//! assert_eq!(locks.msgs, 3);
//! assert_eq!(locks.bytes, 3 * 32 + 8 + 8 + 64); // headers + payloads
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod crosscheck;
mod fabric;
mod kind;
mod sizes;
mod stats;

pub use crosscheck::SizeCrosscheck;
pub use fabric::{Fabric, MsgRecord};
pub use kind::{MsgKind, OpClass};
pub use sizes::{
    invalidation_bytes, notice_batch_bytes, vc_bytes, BARRIER_ID_BYTES, DIFF_REQUEST_ENTRY_BYTES,
    LOCK_ID_BYTES, MSG_HEADER_BYTES, PAGE_ID_BYTES,
};
pub use stats::{Counter, NetStats};
