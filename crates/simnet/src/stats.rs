use std::fmt;
use std::ops::{Add, AddAssign};

use crate::{MsgKind, OpClass};

/// A message count and byte total for one slice of the traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Counter {
    /// Number of messages.
    pub msgs: u64,
    /// Total bytes, including per-message headers.
    pub bytes: u64,
}

impl Counter {
    /// The zero counter.
    pub(crate) fn new() -> Self {
        Counter::default()
    }

    /// Bytes expressed in the paper's figure unit (kilobytes).
    pub fn kbytes(&self) -> f64 {
        self.bytes as f64 / 1024.0
    }
}

impl Add for Counter {
    type Output = Counter;

    fn add(self, rhs: Counter) -> Counter {
        Counter {
            msgs: self.msgs + rhs.msgs,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl AddAssign for Counter {
    fn add_assign(&mut self, rhs: Counter) {
        self.msgs += rhs.msgs;
        self.bytes += rhs.bytes;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} msgs / {} bytes", self.msgs, self.bytes)
    }
}

/// Accumulated traffic, broken down by [`MsgKind`].
///
/// # Example
///
/// ```
/// use lrc_simnet::{Fabric, MsgKind, OpClass};
/// use lrc_vclock::ProcId;
///
/// let mut fabric = Fabric::new(2);
/// let (p0, p1) = (ProcId::new(0), ProcId::new(1));
/// fabric.send(p1, p0, MsgKind::BarrierArrival, 8);
/// fabric.send(p0, p1, MsgKind::BarrierExit, 8);
/// let stats = fabric.stats();
/// assert_eq!(stats.class(OpClass::Barrier).msgs, 2);
/// assert_eq!(stats.total().msgs, 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NetStats {
    by_kind: [Counter; MsgKind::COUNT],
}

impl NetStats {
    /// Creates empty statistics.
    pub(crate) fn new() -> Self {
        NetStats::default()
    }

    /// Overwrites the counter of one kind (used by [`crate::Fabric`] when
    /// copying its counters into a snapshot).
    pub(crate) fn set(&mut self, kind: MsgKind, msgs: u64, bytes: u64) {
        self.by_kind[kind.index()] = Counter { msgs, bytes };
    }

    /// Traffic of one message kind.
    pub fn kind(&self, kind: MsgKind) -> Counter {
        self.by_kind[kind.index()]
    }

    /// Traffic of one Table 1 operation class.
    pub fn class(&self, class: OpClass) -> Counter {
        MsgKind::ALL
            .iter()
            .filter(|k| k.class() == class)
            .map(|k| self.kind(*k))
            .fold(Counter::new(), Add::add)
    }

    /// All traffic.
    pub fn total(&self) -> Counter {
        self.by_kind.iter().copied().fold(Counter::new(), Add::add)
    }

    /// The traffic accumulated since `earlier` (pointwise subtraction).
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has counts exceeding `self` (it is not actually
    /// earlier).
    pub fn since(&self, earlier: &NetStats) -> NetStats {
        let mut out = NetStats::new();
        for (i, (a, b)) in self.by_kind.iter().zip(&earlier.by_kind).enumerate() {
            assert!(
                a.msgs >= b.msgs && a.bytes >= b.bytes,
                "snapshot is not earlier at kind index {i}"
            );
            out.by_kind[i] = Counter {
                msgs: a.msgs - b.msgs,
                bytes: a.bytes - b.bytes,
            };
        }
        out
    }

    /// Iterates over `(kind, counter)` pairs with non-zero traffic.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (MsgKind, Counter)> + '_ {
        MsgKind::ALL
            .iter()
            .map(|&k| (k, self.kind(k)))
            .filter(|(_, c)| c.msgs > 0)
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<22} {:>12} {:>14}", "kind", "messages", "bytes")?;
        for (kind, c) in self.iter() {
            writeln!(f, "{:<22} {:>12} {:>14}", kind.to_string(), c.msgs, c.bytes)?;
        }
        let t = self.total();
        write!(f, "{:<22} {:>12} {:>14}", "total", t.msgs, t.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fabric;
    use lrc_vclock::ProcId;

    /// The statistics of a two-processor fabric that carried `msgs`.
    fn stats_of(msgs: &[(MsgKind, u64)]) -> NetStats {
        let mut fabric = Fabric::new(2);
        for &(kind, payload) in msgs {
            fabric.send(ProcId::new(0), ProcId::new(1), kind, payload);
        }
        fabric.stats()
    }

    #[test]
    fn record_accumulates_header_and_payload() {
        let s = stats_of(&[(MsgKind::MissRequest, 4), (MsgKind::MissRequest, 4)]);
        let c = s.kind(MsgKind::MissRequest);
        assert_eq!(c.msgs, 2);
        assert_eq!(c.bytes, 2 * (crate::MSG_HEADER_BYTES + 4));
    }

    #[test]
    fn class_sums_member_kinds() {
        let s = stats_of(&[
            (MsgKind::MissRequest, 0),
            (MsgKind::MissForward, 0),
            (MsgKind::MissReply, 100),
            (MsgKind::LockRequest, 0),
        ]);
        assert_eq!(s.class(OpClass::Miss).msgs, 3);
        assert_eq!(s.class(OpClass::Lock).msgs, 1);
        assert_eq!(s.class(OpClass::Unlock).msgs, 0);
        assert_eq!(s.total().msgs, 4);
    }

    #[test]
    fn merge_and_since_are_inverses() {
        let snapshot = stats_of(&[(MsgKind::BarrierArrival, 8)]);
        let a = stats_of(&[
            (MsgKind::BarrierArrival, 8),
            (MsgKind::BarrierExit, 8),
            (MsgKind::BarrierExit, 8),
        ]);
        let delta = a.since(&snapshot);
        assert_eq!(delta.kind(MsgKind::BarrierArrival).msgs, 0);
        assert_eq!(delta.kind(MsgKind::BarrierExit).msgs, 2);

        for kind in MsgKind::ALL {
            assert_eq!(snapshot.kind(kind) + delta.kind(kind), a.kind(kind));
        }
    }

    #[test]
    #[should_panic(expected = "not earlier")]
    fn since_rejects_later_snapshot() {
        let later = stats_of(&[(MsgKind::LockGrant, 0)]);
        NetStats::new().since(&later);
    }

    #[test]
    fn counter_arithmetic() {
        let a = Counter {
            msgs: 1,
            bytes: 100,
        };
        let b = Counter {
            msgs: 2,
            bytes: 200,
        };
        assert_eq!(
            a + b,
            Counter {
                msgs: 3,
                bytes: 300
            }
        );
        let mut c = a;
        c += b;
        assert_eq!(
            c,
            Counter {
                msgs: 3,
                bytes: 300
            }
        );
        assert_eq!(
            Counter {
                msgs: 0,
                bytes: 2048
            }
            .kbytes(),
            2.0
        );
    }

    #[test]
    fn display_lists_nonzero_kinds() {
        let text = stats_of(&[(MsgKind::LockRequest, 8)]).to_string();
        assert!(text.contains("LockRequest"));
        assert!(!text.contains("MissReply"));
        assert!(text.contains("total"));
    }
}
