use std::fmt;

use lrc_sync::{BarrierId, LockId};
use lrc_vclock::ProcId;

/// One shared-memory operation, without its processor.
///
/// Reads and writes are *ordinary* accesses; acquire, release and barrier
/// are the *special* accesses that drive consistency (the paper labels
/// barrier arrival a release and barrier departure an acquire).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Read `len` bytes at flat address `addr`.
    Read {
        /// Flat byte address in the shared space.
        addr: u64,
        /// Access length in bytes (1 to 4096).
        len: u32,
    },
    /// Write `len` bytes at flat address `addr`.
    Write {
        /// Flat byte address in the shared space.
        addr: u64,
        /// Access length in bytes (1 to 4096).
        len: u32,
    },
    /// Acquire an exclusive lock.
    Acquire(LockId),
    /// Release an exclusive lock.
    Release(LockId),
    /// Arrive at a barrier (and depart when the episode completes).
    Barrier(BarrierId),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read { addr, len } => write!(f, "r {addr:#x}+{len}"),
            Op::Write { addr, len } => write!(f, "w {addr:#x}+{len}"),
            Op::Acquire(l) => write!(f, "acq {l}"),
            Op::Release(l) => write!(f, "rel {l}"),
            Op::Barrier(b) => write!(f, "bar {b}"),
        }
    }
}

/// One event of a trace: a processor performing an [`Op`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// The processor performing the operation.
    pub proc: ProcId,
    /// The operation.
    pub op: Op,
}

impl Event {
    /// Creates an event.
    pub fn new(proc: ProcId, op: Op) -> Self {
        Event { proc, op }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.proc, self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact() {
        let e = Event::new(ProcId::new(2), Op::Read { addr: 256, len: 8 });
        assert_eq!(e.to_string(), "p2: r 0x100+8");
        assert_eq!(Op::Barrier(BarrierId::new(1)).to_string(), "bar br1");
    }
}
