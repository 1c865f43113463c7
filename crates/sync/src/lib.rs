//! Lock directory and barrier master state machines.
//!
//! Every protocol in the ISCA '92 study synchronizes the same way (§5.2):
//!
//! * **Locks** are found and transferred with up to three messages —
//!   requester to the lock's static *home*, home forwards to the current
//!   *grantor* (the last releaser), grantor grants back to the requester.
//!   The grant message is where lazy protocols piggyback consistency
//!   information.
//! * **Barriers** are centralized: each non-master processor sends an
//!   arrival message to the barrier *master* and waits for an exit message,
//!   costing `2(n-1)` messages per episode.
//!
//! This crate implements the bookkeeping and message-path computation for
//! both, protocol-agnostically: the protocol engines decide payloads and
//! charge the messages to a fabric; the trace-driven simulator and the
//! threaded runtime share these state machines.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod barrier;
mod lock;

pub use barrier::{BarrierArrival, BarrierError, BarrierId, BarrierSet};
pub use lock::{AcquirePath, LockError, LockId, LockTable};
