//! Remote-request entry points: the operation vocabulary a network node
//! dispatches into an engine after decoding a wire message.
//!
//! A message-passing deployment (`lrc-net` + `lrc-dsm`'s node runtime)
//! hosts processors on nodes that are not colocated with the engine. Those
//! processors' shared-memory and synchronization operations arrive as
//! decoded frames; [`EngineOp`] is their in-memory form. The dispatcher is
//! the runtime's: `lrc-dsm`'s `ProcHandle::apply` bounds-checks the access,
//! retries contended acquires and parks on barrier episodes —
//! synchronization operations are non-blocking at the engine — before
//! reaching the engine calls.

use std::fmt;

use lrc_sync::{BarrierId, LockId};

/// One decoded remote request against one processor of an engine.
///
/// Mirrors the five trace/runtime operations; `Write` carries its payload
/// bytes because, unlike a trace replay, a remote writer ships real data.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineOp {
    /// Read `len` bytes at `addr` (the reply carries the bytes).
    Read {
        /// Start address in the shared space.
        addr: u64,
        /// Number of bytes to read.
        len: u32,
    },
    /// Write `data` at `addr`.
    Write {
        /// Start address in the shared space.
        addr: u64,
        /// The bytes to store.
        data: Vec<u8>,
    },
    /// Acquire a lock (non-blocking at the engine; the node runtime
    /// retries contended acquires on its blocking path).
    Acquire(LockId),
    /// Release a lock.
    Release(LockId),
    /// Arrive at a barrier.
    Barrier(BarrierId),
}

impl fmt::Display for EngineOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineOp::Read { addr, len } => write!(f, "read {len}B @{addr:#x}"),
            EngineOp::Write { addr, data } => write!(f, "write {}B @{addr:#x}", data.len()),
            EngineOp::Acquire(l) => write!(f, "acquire {l}"),
            EngineOp::Release(l) => write!(f, "release {l}"),
            EngineOp::Barrier(b) => write!(f, "barrier {b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_display() {
        assert_eq!(
            EngineOp::Read { addr: 16, len: 8 }.to_string(),
            "read 8B @0x10"
        );
        assert_eq!(
            EngineOp::Write {
                addr: 0,
                data: vec![1, 2]
            }
            .to_string(),
            "write 2B @0x0"
        );
        assert_eq!(EngineOp::Acquire(LockId::new(3)).to_string(), "acquire lk3");
        assert_eq!(EngineOp::Release(LockId::new(3)).to_string(), "release lk3");
        assert_eq!(
            EngineOp::Barrier(BarrierId::new(1)).to_string(),
            "barrier br1"
        );
    }
}
