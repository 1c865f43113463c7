//! Self-healing transport: reconnect-with-backoff behind the
//! [`Transport`] trait.
//!
//! [`SelfHealing`] wraps a *connector* — a closure that produces a fresh
//! connected transport — and the current live transport. When a `send`
//! or `recv` fails with a link-death error ([`NetError::Closed`] or
//! [`NetError::Io`]), the wrapper re-runs the connector under a jittered
//! exponential [`Backoff`] and retries the operation on the replacement.
//! Every successful replacement bumps the **generation** counter
//! ([`Transport::generation`]): callers that had a request in flight
//! snapshot the generation around the blocking wait and re-send (same
//! correlation id) when it moved, because the in-flight reply died with
//! the old link — the node runtime's duplicate-reply cache makes that
//! replay safe for non-idempotent operations.
//!
//! Healing is spoke-side: a spoke reconnects to its hub (whose
//! [`crate::TcpHub::accept_healing`] acceptor re-attaches it); the hub
//! itself never dials out. Wire statistics accumulate across retired
//! transports, so a healed endpoint's meter never goes backwards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::lockdep::classes;
use parking_lot::RwLock;

use crate::transport::{Backoff, NetError, NodeId, Transport, WireStats};
use crate::wire::{Frame, WireMsg};

/// Produces a fresh connected transport — one dial attempt. The
/// self-healing wrapper calls it under its [`Backoff`] budget, so the
/// connector itself should *not* retry internally.
pub type Connector = Box<dyn Fn() -> Result<Arc<dyn Transport>, NetError> + Send + Sync>;

/// The mutable heart of the wrapper: the live transport and its
/// generation, swapped atomically under the lock on heal.
struct Slot {
    inner: Arc<dyn Transport>,
    generation: u64,
}

/// A [`Transport`] that survives link death by reconnecting.
///
/// See the `heal` module docs for the healing protocol. Construct with
/// [`SelfHealing::connect`] (real reconnects) or
/// [`SelfHealing::retry_same`] (retry the same endpoint — pairs with
/// [`crate::FaultRule::SeverThenHeal`] for deterministic no-socket
/// tests).
pub struct SelfHealing {
    connector: Connector,
    backoff: Backoff,
    slot: RwLock<Slot>,
    /// Lock-free mirror of `slot.generation` for [`Transport::generation`].
    generation: AtomicU64,
    /// Traffic of retired transports, folded in at each heal so
    /// [`Transport::stats`] is monotonic across reconnects.
    retired: RwLock<WireStats>,
}

impl SelfHealing {
    /// Dials the initial connection through `connector` under `backoff`
    /// and wraps it.
    ///
    /// # Errors
    ///
    /// [`NetError::ConnectTimeout`] if the initial connect budget is
    /// spent without a successful dial.
    pub fn connect(connector: Connector, backoff: Backoff) -> Result<SelfHealing, NetError> {
        let inner = backoff.retry(&connector)?;
        Ok(SelfHealing {
            connector,
            backoff,
            slot: RwLock::new_in(
                Slot {
                    inner,
                    generation: 0,
                },
                classes::NET_HEAL.with_order(0),
            ),
            generation: AtomicU64::new(0),
            // Order key 1: folded into under the slot lock on heal.
            retired: RwLock::new_in(WireStats::default(), classes::NET_HEAL.with_order(1)),
        })
    }

    /// Wraps an existing transport with a connector that hands the *same*
    /// endpoint back on every heal. Useful when the failure is transient
    /// at the fault layer (e.g. [`crate::FaultRule::SeverThenHeal`])
    /// rather than a dead socket: the retry loop and generation bumps
    /// behave exactly as with real reconnects, deterministically.
    pub fn retry_same(inner: Arc<dyn Transport>, backoff: Backoff) -> SelfHealing {
        let again = Arc::clone(&inner);
        SelfHealing {
            connector: Box::new(move || Ok(Arc::clone(&again))),
            backoff,
            slot: RwLock::new_in(
                Slot {
                    inner,
                    generation: 0,
                },
                classes::NET_HEAL.with_order(0),
            ),
            generation: AtomicU64::new(0),
            retired: RwLock::new_in(WireStats::default(), classes::NET_HEAL.with_order(1)),
        }
    }

    /// Snapshots the live transport and its generation without holding
    /// the lock across the (possibly blocking) inner call.
    fn snapshot(&self) -> (Arc<dyn Transport>, u64) {
        let slot = self.slot.read();
        (Arc::clone(&slot.inner), slot.generation)
    }

    /// Replaces the transport the caller observed as generation
    /// `observed` with a fresh connection. If another thread already
    /// healed past `observed`, returns immediately — one reconnect
    /// serves every thread that saw the same death.
    fn heal(&self, observed: u64) -> Result<(), NetError> {
        let mut slot = self.slot.write();
        if slot.generation != observed {
            return Ok(());
        }
        let fresh = self.backoff.retry(|| (self.connector)())?;
        // Fold the dying transport's traffic into the retired baseline
        // before letting go of it — unless the connector handed the same
        // endpoint back (retry_same), whose live meter keeps counting.
        if !Arc::ptr_eq(&slot.inner, &fresh) {
            let old = slot.inner.stats();
            let mut retired = self.retired.write();
            *retired = *retired + old;
        }
        slot.inner = fresh;
        slot.generation += 1;
        self.generation.store(slot.generation, Ordering::Release);
        Ok(())
    }

    /// Whether `err` means the link died (worth healing) as opposed to a
    /// caller mistake or protocol error (surface as-is).
    fn link_death(err: &NetError) -> bool {
        matches!(err, NetError::Closed | NetError::Io(_))
    }
}

impl Transport for SelfHealing {
    fn node(&self) -> NodeId {
        self.snapshot().0.node()
    }

    fn send(&self, msg: &WireMsg, dst: NodeId, seq: u64) -> Result<(), NetError> {
        let attempts = self.backoff.attempts().max(1);
        let mut last = NetError::Closed;
        for attempt in 0..attempts {
            let (inner, generation) = self.snapshot();
            match inner.send(msg, dst, seq) {
                Ok(()) => return Ok(()),
                Err(e) if SelfHealing::link_death(&e) => {
                    last = e;
                    self.heal(generation)?;
                    if attempt + 1 < attempts {
                        std::thread::sleep(self.backoff.delay(attempt));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(NetError::ConnectTimeout {
            attempts,
            last: last.to_string(),
        })
    }

    fn recv(&self) -> Result<Frame, NetError> {
        let attempts = self.backoff.attempts().max(1);
        let mut last = NetError::Closed;
        for attempt in 0..attempts {
            let (inner, generation) = self.snapshot();
            match inner.recv() {
                Ok(frame) => return Ok(frame),
                Err(e) if SelfHealing::link_death(&e) => {
                    last = e;
                    self.heal(generation)?;
                    if attempt + 1 < attempts {
                        std::thread::sleep(self.backoff.delay(attempt));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(NetError::ConnectTimeout {
            attempts,
            last: last.to_string(),
        })
    }

    fn stats(&self) -> WireStats {
        let retired = *self.retired.read();
        retired + self.snapshot().0.stats()
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for SelfHealing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SelfHealing(node {}, generation {})",
            self.node(),
            self.generation()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelNet;
    use crate::fault::{FaultPlan, FaultyTransport};
    use crate::wire::WireKind;
    use std::time::Duration;

    fn tight() -> Backoff {
        Backoff::new(Duration::from_millis(1), Duration::from_millis(2), 4)
    }

    #[test]
    fn sends_ride_out_a_transient_sever() {
        let mut mesh = ChannelNet::mesh(2);
        let b = mesh.pop().unwrap();
        // Attempts 3..=4 to peer 1 fail, then the link heals.
        let flaky = FaultyTransport::new(
            mesh.pop().unwrap(),
            FaultPlan::new().sever_then_heal(1, 2, 2),
        );
        let healing = SelfHealing::retry_same(Arc::new(flaky), tight());
        for seq in 0..5 {
            healing.send(&WireMsg::Shutdown, 1, seq).unwrap();
        }
        // Sends 2 and 3 each burned one failed attempt before their
        // retry landed; all five frames arrive, in order.
        let seqs: Vec<u64> = (0..5).map(|_| b.recv().unwrap().seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        // Each in-place retry is still a generation bump: callers with
        // in-flight requests must learn the link flapped.
        assert!(healing.generation() >= 1);
    }

    #[test]
    fn a_sever_longer_than_the_budget_surfaces_connect_timeout() {
        let mesh = ChannelNet::mesh(2);
        let [a, _b] = <[_; 2]>::try_from(mesh).ok().unwrap();
        // Down for far more attempts than the 4-round budget will make:
        // the send keeps failing through every retry and surfaces a
        // typed timeout instead of spinning forever.
        let flaky = FaultyTransport::new(a, FaultPlan::new().sever_then_heal(1, 0, 1_000));
        let healing = SelfHealing::retry_same(Arc::new(flaky), tight());
        let err = healing.send(&WireMsg::Shutdown, 1, 0).unwrap_err();
        assert!(
            matches!(err, NetError::ConnectTimeout { attempts: 4, .. }),
            "{err}"
        );
        assert!(healing.generation() > 0);
    }

    #[test]
    fn connect_timeout_when_the_connector_never_succeeds() {
        let connector: Connector = Box::new(|| Err(NetError::Closed));
        let err = SelfHealing::connect(connector, tight()).unwrap_err();
        assert!(
            matches!(err, NetError::ConnectTimeout { attempts: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn non_link_errors_surface_without_healing() {
        let mesh = ChannelNet::mesh(2);
        let [a, _b] = <[_; 2]>::try_from(mesh).ok().unwrap();
        let healing = SelfHealing::retry_same(Arc::new(a), tight());
        assert_eq!(
            healing.send(&WireMsg::Shutdown, 9, 0),
            Err(NetError::UnknownPeer(9))
        );
        assert_eq!(healing.generation(), 0, "no heal for a caller mistake");
    }

    #[test]
    fn stats_accumulate_across_generations() {
        let mut mesh = ChannelNet::mesh(2);
        let b = mesh.pop().unwrap();
        let flaky = FaultyTransport::new(
            mesh.pop().unwrap(),
            FaultPlan::new().sever_then_heal(1, 1, 1),
        );
        let healing = SelfHealing::retry_same(Arc::new(flaky), tight());
        for seq in 0..4 {
            healing.send(&WireMsg::Shutdown, 1, seq).unwrap();
        }
        // retry_same hands the same endpoint back, and the heal must not
        // fold its (still live) meter into the retired baseline — the
        // count stays exact, not doubled.
        for _ in 0..4 {
            assert_eq!(b.recv().unwrap().kind, WireKind::Shutdown);
        }
        assert_eq!(healing.stats().msgs_sent, 4);
    }
}
