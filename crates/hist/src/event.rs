use std::fmt;

use lrc_sync::{BarrierId, LockId};
use lrc_vclock::ProcId;

/// One recorded operation of one processor.
///
/// Ordinary accesses carry their bytes: a read records the value it
/// *observed*, which is what the checker must explain. Synchronization
/// events carry the order the engine assigned them — the `grant` sequence
/// of a lock (numbered by the lock table) and the `episode` of a barrier
/// (numbered by the barrier set) are the recorded happens-before edges.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HistEvent {
    /// A read of `value.len()` bytes at `addr` that observed `value`.
    Read {
        /// Byte address of the access.
        addr: u64,
        /// The bytes the processor observed.
        value: Vec<u8>,
    },
    /// A write of `value` at `addr`.
    Write {
        /// Byte address of the access.
        addr: u64,
        /// The bytes written.
        value: Vec<u8>,
    },
    /// A successful lock acquire; `grant` is the engine-assigned per-lock
    /// grant order (1 for the first acquire of the lock).
    Acquire {
        /// The lock.
        lock: LockId,
        /// Position of this grant in the lock's total grant order.
        grant: u64,
    },
    /// A lock release; `grant` matches the acquire that opened this
    /// critical section.
    Release {
        /// The lock.
        lock: LockId,
        /// The grant this release closes.
        grant: u64,
    },
    /// A barrier crossing; `episode` counts completed uses of this
    /// barrier (0 for the first).
    Barrier {
        /// The barrier.
        barrier: BarrierId,
        /// Which episode of the barrier this arrival belongs to.
        episode: u64,
    },
    /// The processor was declared dead (crash recovery). Everything before
    /// this marker really happened and stays subject to checking; the
    /// checker excuses the processor from barrier episodes it missed while
    /// dead. Events after the marker belong to the processor's rejoined
    /// incarnation.
    Crash,
}

impl HistEvent {
    /// The access `(addr, len, is_write)` if this is a read or write.
    pub fn access(&self) -> Option<(u64, usize, bool)> {
        match self {
            HistEvent::Read { addr, value } => Some((*addr, value.len(), false)),
            HistEvent::Write { addr, value } => Some((*addr, value.len(), true)),
            _ => None,
        }
    }
}

impl fmt::Display for HistEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        match self {
            HistEvent::Read { addr, value } => {
                write!(f, "R @{addr:#x}/{} = {}", value.len(), hex(value))
            }
            HistEvent::Write { addr, value } => {
                write!(f, "W @{addr:#x}/{} := {}", value.len(), hex(value))
            }
            HistEvent::Acquire { lock, grant } => write!(f, "acq {lock} (grant {grant})"),
            HistEvent::Release { lock, grant } => write!(f, "rel {lock} (grant {grant})"),
            HistEvent::Barrier { barrier, episode } => {
                write!(f, "bar {barrier} (episode {episode})")
            }
            HistEvent::Crash => write!(f, "CRASH (declared dead)"),
        }
    }
}

/// A complete recorded run: one program-ordered event log per processor.
///
/// Obtained from [`HistoryRecorder::finish`](crate::HistoryRecorder) or
/// built directly with [`History::from_logs`] (for tests and tools).
/// Check it with [`History::check`](crate::History::check).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct History {
    pub(crate) logs: Vec<Vec<HistEvent>>,
}

impl History {
    /// Builds a history from per-processor logs (index = processor id).
    pub fn from_logs(logs: Vec<Vec<HistEvent>>) -> Self {
        History { logs }
    }

    /// Number of processors.
    pub fn n_procs(&self) -> usize {
        self.logs.len()
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.logs.iter().map(Vec::len).sum()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.logs.iter().all(Vec::is_empty)
    }

    /// Processor `p`'s log, in program order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn log(&self, p: ProcId) -> &[HistEvent] {
        &self.logs[p.index()]
    }

    /// Renders the history as a per-processor listing, at most
    /// `per_proc` events each (0 = unlimited) — the thread-dump attached
    /// to failure reports.
    pub fn render(&self, per_proc: usize) -> String {
        use fmt::Write;
        let mut out = String::new();
        for (p, log) in self.logs.iter().enumerate() {
            let _ = writeln!(out, "p{p} ({} events):", log.len());
            let shown = if per_proc == 0 { log.len() } else { per_proc };
            for (i, ev) in log.iter().take(shown).enumerate() {
                let _ = writeln!(out, "  [{i}] {ev}");
            }
            if log.len() > shown {
                let _ = writeln!(out, "  ... {} more", log.len() - shown);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_all_variants() {
        let events = [
            HistEvent::Read {
                addr: 0x40,
                value: vec![7, 0],
            },
            HistEvent::Write {
                addr: 0x40,
                value: vec![0xff],
            },
            HistEvent::Acquire {
                lock: LockId::new(1),
                grant: 3,
            },
            HistEvent::Release {
                lock: LockId::new(1),
                grant: 3,
            },
            HistEvent::Barrier {
                barrier: BarrierId::new(0),
                episode: 2,
            },
        ];
        let rendered: Vec<String> = events.iter().map(|e| e.to_string()).collect();
        assert!(rendered[0].contains("R @0x40/2 = 0700"));
        assert!(rendered[1].contains("W @0x40/1 := ff"));
        assert!(rendered[2].contains("grant 3"));
        assert!(rendered[3].contains("rel"));
        assert!(rendered[4].contains("episode 2"));
        assert!(HistEvent::Crash.to_string().contains("CRASH"));
        assert_eq!(HistEvent::Crash.access(), None);
    }

    #[test]
    fn history_accessors_and_render() {
        let h = History::from_logs(vec![
            vec![HistEvent::Write {
                addr: 0,
                value: vec![1],
            }],
            vec![],
        ]);
        assert_eq!(h.n_procs(), 2);
        assert_eq!(h.len(), 1);
        assert!(!h.is_empty());
        assert_eq!(h.log(ProcId::new(1)), &[]);
        let dump = h.render(0);
        assert!(dump.contains("p0 (1 events)"));
        assert!(dump.contains("W @0x0"));
        let clipped = History::from_logs(vec![vec![
            HistEvent::Write {
                addr: 0,
                value: vec![1],
            };
            5
        ]])
        .render(2);
        assert!(clipped.contains("... 3 more"));
    }
}
