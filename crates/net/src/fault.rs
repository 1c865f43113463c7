//! Deterministic fault injection for any [`Transport`].
//!
//! [`FaultyTransport`] wraps a real transport and applies a [`FaultPlan`]
//! to outgoing traffic: drop the nth frame, cut the link to one peer for
//! a window of sends, or kill the whole endpoint mid-protocol. Faults are decided
//! from *send counts*, never wall-clock time, so a failing run replays
//! exactly — the property the crash-tolerance suite leans on to kill a
//! node at a chosen protocol step (mid-lock-transfer, mid-barrier,
//! mid-miss-reply) on every execution.
//!
//! The wrapper is transparent when the plan is empty, and composes: a
//! `FaultyTransport<ChannelTransport>` behaves like the channel mesh with
//! scripted failures; the same plan over [`crate::TcpTransport`] scripts
//! real socket deaths.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::lockdep::classes;
use parking_lot::Mutex;

use crate::transport::{NetError, NodeId, Transport, WireStats};
use crate::wire::{Frame, WireKind, WireMsg};

/// One scripted fault. Send indices are 1-based and count *attempted*
/// sends (including frames other rules later drop), so a rule's firing
/// point does not shift when rules are added in front of it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum FaultRule {
    /// Silently discard the `nth` send of `kind` (any kind if `None`):
    /// the caller sees `Ok`, the peer sees nothing.
    DropNth {
        /// Which kind to match, or any.
        kind: Option<WireKind>,
        /// 1-based index among matching sends.
        nth: u64,
    },
    /// Kill the endpoint at its `sends`-th send: that send and everything
    /// after it — including every later `recv` — fails with
    /// [`NetError::Closed`]. This is the "node crashes mid-protocol"
    /// fault: with a deterministic transport under it, the frame at which
    /// the node dies is the same on every run.
    KillAfter {
        /// 1-based index of the first send that fails.
        sends: u64,
    },
    /// A transient sever that heals: counting *attempted* sends to
    /// `peer` (1-based), attempts `1..=after` deliver, the next
    /// `down_for` attempts fail with [`NetError::Closed`], and every
    /// attempt after that delivers again — a link flap the self-healing
    /// transport must ride out with backoff rather than declare dead.
    SeverThenHeal {
        /// The peer whose link flaps.
        peer: NodeId,
        /// Attempted sends to that peer that succeed before the cut.
        after: u64,
        /// Attempted sends that fail while the link is down.
        down_for: u64,
    },
}

/// A scripted set of fault rules.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new()
    }
}

impl FaultPlan {
    /// An empty plan (the wrapper becomes a transparent pass-through).
    pub fn new() -> FaultPlan {
        FaultPlan { rules: Vec::new() }
    }

    /// Adds a rule.
    #[must_use]
    pub(crate) fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Kills the endpoint at its `sends`-th send: that send and everything
    /// after it, every later `recv` included, fail with
    /// [`NetError::Closed`].
    #[must_use]
    pub fn kill_after_sends(self, sends: u64) -> FaultPlan {
        self.rule(FaultRule::KillAfter { sends })
    }

    /// Silently discards the `nth` send of `kind` (any kind if `None`).
    #[must_use]
    pub fn drop_nth(self, kind: Option<WireKind>, nth: u64) -> FaultPlan {
        self.rule(FaultRule::DropNth { kind, nth })
    }

    /// Flaps the link to `peer`: delivers `after` attempts, fails the
    /// next `down_for` with [`NetError::Closed`], then heals.
    #[must_use]
    pub fn sever_then_heal(self, peer: NodeId, after: u64, down_for: u64) -> FaultPlan {
        self.rule(FaultRule::SeverThenHeal {
            peer,
            after,
            down_for,
        })
    }
}

/// Mutable fault-decision state, advanced on every send.
#[derive(Debug, Default)]
struct FaultState {
    /// Total sends attempted (1-based after increment).
    sends: u64,
    /// Sends attempted per kind tag.
    sends_by_kind: [u64; WireKind::COUNT],
    /// Sends *attempted* per destination, delivered or not (for
    /// [`FaultRule::SeverThenHeal`], whose window must not stretch when
    /// the caller retries into the cut).
    attempted_to: Vec<u64>,
    /// Frames silently discarded so far.
    dropped: u64,
}

/// The outcome of consulting the plan for one send.
enum Verdict {
    Deliver,
    Drop,
    Sever,
    Kill,
}

/// A [`Transport`] wrapper that injects the faults of a [`FaultPlan`].
///
/// Dropped frames are counted in [`FaultyTransport::dropped`] but not in
/// the inner transport's stats (they never reach it); a killed endpoint
/// fails every subsequent `send` *and* `recv` with [`NetError::Closed`],
/// modeling a node that is gone, not merely deaf.
#[derive(Debug)]
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    state: Mutex<FaultState>,
    killed: AtomicBool,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the scripted `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            plan,
            state: Mutex::new_in(FaultState::default(), classes::NET_FAULT_STATE),
            killed: AtomicBool::new(false),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Whether a [`FaultRule::KillAfter`] has fired.
    pub(crate) fn is_killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }

    /// Frames silently discarded so far.
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// Advances the counters for one send and decides its fate. The most
    /// severe applicable verdict wins: kill > sever > drop. A drop is
    /// counted here, under the same lock.
    fn consult(&self, kind: WireKind, dst: NodeId) -> Verdict {
        let mut st = self.state.lock();
        st.sends += 1;
        st.sends_by_kind[kind.tag() as usize] += 1;
        let sends = st.sends;
        let kind_sends = st.sends_by_kind[kind.tag() as usize];
        if st.attempted_to.len() <= dst as usize {
            st.attempted_to.resize(dst as usize + 1, 0);
        }
        st.attempted_to[dst as usize] += 1;
        let attempted = st.attempted_to[dst as usize];
        let mut verdict = Verdict::Deliver;
        for rule in &self.plan.rules {
            match *rule {
                FaultRule::KillAfter { sends: at } if sends >= at => return Verdict::Kill,
                FaultRule::DropNth { kind: k, nth }
                    if k.is_none_or(|k| k == kind)
                        && nth == if k.is_some() { kind_sends } else { sends }
                        && !matches!(verdict, Verdict::Sever) =>
                {
                    verdict = Verdict::Drop;
                }
                FaultRule::SeverThenHeal {
                    peer,
                    after,
                    down_for,
                } if peer == dst && attempted > after && attempted <= after + down_for => {
                    verdict = Verdict::Sever;
                }
                _ => {}
            }
        }
        if matches!(verdict, Verdict::Drop) {
            st.dropped += 1;
        }
        verdict
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn send(&self, msg: &WireMsg, dst: NodeId, seq: u64) -> Result<(), NetError> {
        if self.is_killed() {
            return Err(NetError::Closed);
        }
        match self.consult(msg.kind(), dst) {
            Verdict::Deliver => self.inner.send(msg, dst, seq),
            Verdict::Drop => Ok(()),
            Verdict::Sever => Err(NetError::Closed),
            Verdict::Kill => {
                self.killed.store(true, Ordering::Release);
                Err(NetError::Closed)
            }
        }
    }

    fn recv(&self) -> Result<Frame, NetError> {
        if self.is_killed() {
            return Err(NetError::Closed);
        }
        let frame = self.inner.recv();
        // A kill that fired while this recv was blocked still poisons the
        // result: the node is gone, late frames do not resurrect it.
        if self.is_killed() {
            return Err(NetError::Closed);
        }
        frame
    }

    fn stats(&self) -> WireStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelNet;
    use lrc_vclock::ProcId;

    fn pair() -> (
        FaultyTransport<crate::ChannelTransport>,
        crate::ChannelTransport,
    ) {
        let mut mesh = ChannelNet::mesh(2);
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        (FaultyTransport::new(a, FaultPlan::new()), b)
    }

    fn hello() -> WireMsg {
        WireMsg::Hello {
            node: 0,
            procs: vec![ProcId::new(0)],
        }
    }

    #[test]
    fn empty_plan_is_transparent() {
        let (a, b) = pair();
        a.send(&hello(), 1, 7).unwrap();
        let frame = b.recv().unwrap();
        assert_eq!((frame.kind, frame.seq), (WireKind::Hello, 7));
        assert_eq!(a.dropped(), 0);
        assert_eq!(a.stats().msgs_sent, 1);
    }

    #[test]
    fn drop_nth_discards_exactly_that_frame() {
        let mut mesh = ChannelNet::mesh(2);
        let b = mesh.pop().unwrap();
        let a = FaultyTransport::new(
            mesh.pop().unwrap(),
            FaultPlan::new().drop_nth(Some(WireKind::Hello), 2),
        );
        // Shutdown frames don't advance the Hello count.
        a.send(&WireMsg::Shutdown, 1, 0).unwrap();
        a.send(&hello(), 1, 1).unwrap(); // 1st Hello: delivered
        a.send(&hello(), 1, 2).unwrap(); // 2nd Hello: dropped, still Ok
        a.send(&hello(), 1, 3).unwrap(); // 3rd Hello: delivered
        assert_eq!(a.dropped(), 1);
        let seqs: Vec<u64> = (0..3).map(|_| b.recv().unwrap().seq).collect();
        assert_eq!(seqs, vec![0, 1, 3]);
    }

    #[test]
    fn kill_after_fails_everything_from_the_nth_send() {
        let (a, b) = pair();
        let a = FaultyTransport::new(a.inner, FaultPlan::new().kill_after_sends(3));
        a.send(&hello(), 1, 0).unwrap();
        a.send(&hello(), 1, 1).unwrap();
        assert!(!a.is_killed());
        assert_eq!(a.send(&hello(), 1, 2), Err(NetError::Closed));
        assert!(a.is_killed());
        assert_eq!(a.send(&hello(), 1, 3), Err(NetError::Closed));
        assert_eq!(a.recv().unwrap_err(), NetError::Closed);
        // Exactly the first two frames made it out.
        assert_eq!(b.recv().unwrap().seq, 0);
        assert_eq!(b.recv().unwrap().seq, 1);
        assert_eq!(a.stats().msgs_sent, 2);
    }

    #[test]
    fn sever_peer_cuts_one_link_only() {
        let mut mesh = ChannelNet::mesh(3);
        let c = mesh.pop().unwrap();
        let b = mesh.pop().unwrap();
        let a = FaultyTransport::new(
            mesh.pop().unwrap(),
            FaultPlan::new().sever_then_heal(1, 1, 100),
        );
        a.send(&hello(), 1, 0).unwrap(); // 1st to node 1: delivered
        assert_eq!(a.send(&hello(), 1, 1), Err(NetError::Closed)); // link dead
        a.send(&hello(), 2, 2).unwrap(); // node 2 unaffected
        assert_eq!(b.recv().unwrap().seq, 0);
        assert_eq!(c.recv().unwrap().seq, 2);
    }

    #[test]
    fn sever_then_heal_windows_on_attempted_sends() {
        let mut mesh = ChannelNet::mesh(2);
        let b = mesh.pop().unwrap();
        let a = FaultyTransport::new(
            mesh.pop().unwrap(),
            FaultPlan::new().sever_then_heal(1, 2, 3),
        );
        a.send(&hello(), 1, 0).unwrap(); // attempt 1: delivered
        a.send(&hello(), 1, 1).unwrap(); // attempt 2: delivered
        for seq in 2..5 {
            // Attempts 3..=5 fail — retries into the cut count, so the
            // window does not stretch.
            assert_eq!(a.send(&hello(), 1, seq), Err(NetError::Closed));
        }
        a.send(&hello(), 1, 5).unwrap(); // attempt 6: healed
        let seqs: Vec<u64> = (0..3).map(|_| b.recv().unwrap().seq).collect();
        assert_eq!(seqs, vec![0, 1, 5]);
    }
}
