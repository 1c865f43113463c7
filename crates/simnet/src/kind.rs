use std::fmt;

/// The operation class a message is charged to — the columns of the paper's
/// Table 1 ("Shared Memory Operation Message Costs").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum OpClass {
    /// Messages caused by an access miss.
    Miss,
    /// Messages caused by a lock acquire (find-and-transfer plus, under LU,
    /// acquire-time diff fetches).
    Lock,
    /// Messages caused by a lock release (eager protocols flush write
    /// notices or updates to all cachers here).
    Unlock,
    /// Messages caused by a barrier (arrival/exit plus protocol-specific
    /// update or resolution traffic).
    Barrier,
}

impl OpClass {
    /// All classes, in Table 1 column order.
    pub const ALL: [OpClass; 4] = [
        OpClass::Miss,
        OpClass::Lock,
        OpClass::Unlock,
        OpClass::Barrier,
    ];

    /// Short label used in rendered tables.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Miss => "miss",
            OpClass::Lock => "lock",
            OpClass::Unlock => "unlock",
            OpClass::Barrier => "barrier",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Every message type the four protocols exchange.
///
/// Kinds exist so that tests can assert fine-grained traffic (e.g. "LI sends
/// no messages at unlocks") and so each message lands in the right Table 1
/// column via [`OpClass`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MsgKind {
    // ---- access misses ----
    /// Lazy: diff request to a concurrent last modifier. Eager: page request
    /// to the directory manager.
    MissRequest,
    /// Eager only: the directory manager forwards the request to the owner
    /// (the third message of a 3-message miss).
    MissForward,
    /// Reply carrying diffs (lazy) or the whole page (eager; lazy cold
    /// misses also carry the page base).
    MissReply,

    // ---- lock acquires ----
    /// Requester asks the lock's home processor for the lock.
    LockRequest,
    /// Home forwards the request to the current holder / last releaser.
    LockForward,
    /// Grant back to the requester; under lazy protocols it piggybacks the
    /// releaser's vector clock, write notices and (LU) the releaser's diffs.
    LockGrant,
    /// LU only: acquire-time diff fetch from a concurrent last modifier
    /// other than the releaser (the `2h` term of Table 1).
    AcquireDiffRequest,
    /// Reply to [`MsgKind::AcquireDiffRequest`].
    AcquireDiffReply,

    // ---- lock releases (eager only) ----
    /// EU: merged diffs pushed to one cacher of locally modified pages.
    ReleaseUpdate,
    /// EI: write notices (invalidations) pushed to one cacher.
    ReleaseInvalidate,
    /// Acknowledgment of a release-time update/invalidate (the release
    /// blocks until all are received).
    ReleaseAck,
    /// EI: a cacher that had concurrently written the page returns its diff
    /// before dropping its copy, so the modifications survive invalidation.
    WritebackReply,

    // ---- barriers ----
    /// Arrival at the barrier master; lazy protocols piggyback vector clock
    /// and fresh write notices.
    BarrierArrival,
    /// Departure from the barrier master; lazy protocols piggyback the
    /// merged write notices each processor lacks.
    BarrierExit,
    /// LU: barrier-time diff pull from a modifier (one per cacher-modifier
    /// pair; the `2u` term).
    BarrierDiffRequest,
    /// Reply to [`MsgKind::BarrierDiffRequest`].
    BarrierDiffReply,
    /// EU: barrier-time update push to a cacher (the other `2u` term).
    BarrierUpdate,
    /// Acknowledgment of [`MsgKind::BarrierUpdate`].
    BarrierUpdateAck,
    /// EI: resolution among multiple concurrent invalidators of one page
    /// (the `2v` term).
    BarrierResolve,
    /// Acknowledgment of [`MsgKind::BarrierResolve`].
    BarrierResolveAck,
}

impl MsgKind {
    /// All kinds, grouped by class.
    pub(crate) const ALL: [MsgKind; 20] = [
        MsgKind::MissRequest,
        MsgKind::MissForward,
        MsgKind::MissReply,
        MsgKind::LockRequest,
        MsgKind::LockForward,
        MsgKind::LockGrant,
        MsgKind::AcquireDiffRequest,
        MsgKind::AcquireDiffReply,
        MsgKind::ReleaseUpdate,
        MsgKind::ReleaseInvalidate,
        MsgKind::ReleaseAck,
        MsgKind::WritebackReply,
        MsgKind::BarrierArrival,
        MsgKind::BarrierExit,
        MsgKind::BarrierDiffRequest,
        MsgKind::BarrierDiffReply,
        MsgKind::BarrierUpdate,
        MsgKind::BarrierUpdateAck,
        MsgKind::BarrierResolve,
        MsgKind::BarrierResolveAck,
    ];

    /// The Table 1 column this message kind is charged to.
    pub(crate) fn class(self) -> OpClass {
        match self {
            MsgKind::MissRequest | MsgKind::MissForward | MsgKind::MissReply => OpClass::Miss,
            MsgKind::LockRequest
            | MsgKind::LockForward
            | MsgKind::LockGrant
            | MsgKind::AcquireDiffRequest
            | MsgKind::AcquireDiffReply => OpClass::Lock,
            MsgKind::ReleaseUpdate
            | MsgKind::ReleaseInvalidate
            | MsgKind::ReleaseAck
            | MsgKind::WritebackReply => OpClass::Unlock,
            MsgKind::BarrierArrival
            | MsgKind::BarrierExit
            | MsgKind::BarrierDiffRequest
            | MsgKind::BarrierDiffReply
            | MsgKind::BarrierUpdate
            | MsgKind::BarrierUpdateAck
            | MsgKind::BarrierResolve
            | MsgKind::BarrierResolveAck => OpClass::Barrier,
        }
    }

    /// Dense index for table storage.
    pub(crate) fn index(self) -> usize {
        match self {
            MsgKind::MissRequest => 0,
            MsgKind::MissForward => 1,
            MsgKind::MissReply => 2,
            MsgKind::LockRequest => 3,
            MsgKind::LockForward => 4,
            MsgKind::LockGrant => 5,
            MsgKind::AcquireDiffRequest => 6,
            MsgKind::AcquireDiffReply => 7,
            MsgKind::ReleaseUpdate => 8,
            MsgKind::ReleaseInvalidate => 9,
            MsgKind::ReleaseAck => 10,
            MsgKind::WritebackReply => 11,
            MsgKind::BarrierArrival => 12,
            MsgKind::BarrierExit => 13,
            MsgKind::BarrierDiffRequest => 14,
            MsgKind::BarrierDiffReply => 15,
            MsgKind::BarrierUpdate => 16,
            MsgKind::BarrierUpdateAck => 17,
            MsgKind::BarrierResolve => 18,
            MsgKind::BarrierResolveAck => 19,
        }
    }

    pub(crate) const COUNT: usize = 20;
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; MsgKind::COUNT];
        for kind in MsgKind::ALL {
            let i = kind.index();
            assert!(i < MsgKind::COUNT);
            assert!(!seen[i], "duplicate index for {kind}");
            seen[i] = true;
        }
    }

    #[test]
    fn every_kind_has_a_class() {
        // The match in `class` is exhaustive by construction; sanity-check a
        // few mappings that the accounting depends on.
        assert_eq!(MsgKind::AcquireDiffRequest.class(), OpClass::Lock);
        assert_eq!(MsgKind::BarrierDiffRequest.class(), OpClass::Barrier);
        assert_eq!(MsgKind::WritebackReply.class(), OpClass::Unlock);
        assert_eq!(MsgKind::MissForward.class(), OpClass::Miss);
    }

    #[test]
    fn class_labels_render() {
        let labels: Vec<_> = OpClass::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(labels, vec!["miss", "lock", "unlock", "barrier"]);
    }
}
