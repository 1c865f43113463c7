//! Transport self-healing, end to end: a severed spoke dials back in
//! under jittered exponential backoff and the node runtime carries on —
//! in-flight operations replay (at most once) behind a resumable hello,
//! and a processor declared dead while its link was down is revived from
//! the automatic death checkpoint by that same hello.
//!
//! The sever primitive for the socket-backed tests is a *throwaway dial*:
//! a second connection under the spoke's node id supersedes its link at
//! the healing hub ([`lrc::net::TcpHub::accept_healing`] re-attaches
//! peers), which kills the original socket exactly the way a mid-run
//! network partition would. The channel-backed test scripts the sever
//! deterministically with [`lrc::net::FaultPlan`] instead.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use lrc::dsm::{CheckpointPolicy, Dsm, DsmBuilder, NodeClient, NodeServer};
use lrc::net::{
    Backoff, ChannelNet, Connector, FaultPlan, FaultyTransport, Frame, NetError, NodeId,
    SelfHealing, TcpTransport, Transport, WireMsg, WireStats,
};
use lrc::sim::ProtocolKind;
use lrc::sync::LockId;
use lrc::vclock::ProcId;

/// A tight reconnect budget: plenty of attempts for a loopback hub that
/// is always up, without slowing the suite when it is not.
fn backoff() -> Backoff {
    Backoff::new(Duration::from_millis(5), Duration::from_millis(40), 8)
}

/// Keeps a handle on the healing wrapper while the [`NodeClient`] owns
/// the transport seat, so the test can observe generation bumps.
struct Shared(Arc<SelfHealing>);

impl Transport for Shared {
    fn node(&self) -> NodeId {
        self.0.node()
    }
    fn send(&self, msg: &WireMsg, dst: NodeId, seq: u64) -> Result<(), NetError> {
        self.0.send(msg, dst, seq)
    }
    fn recv(&self) -> Result<Frame, NetError> {
        self.0.recv()
    }
    fn stats(&self) -> WireStats {
        self.0.stats()
    }
    fn generation(&self) -> u64 {
        self.0.generation()
    }
}

/// A two-processor runtime: p0 local to the engine node, p1 driven over
/// the wire. `build` customizes the builder (checkpoint policy etc.).
fn two_proc_dsm(build: impl FnOnce(DsmBuilder) -> DsmBuilder) -> Dsm {
    build(
        DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14)
            .page_size(256)
            .locks(1)
            .wait_timeout(Duration::from_secs(60)),
    )
    .build()
    .expect("valid config")
}

/// Spawns the engine node: a healing hub that keeps accepting
/// reconnecting spokes for as long as the server lives.
fn healing_server(dsm: Dsm) -> (String, thread::JoinHandle<Result<(), lrc::dsm::NodeError>>) {
    let hub = TcpTransport::bind("127.0.0.1:0", 0).expect("bind loopback");
    let addr = hub.local_addr();
    let serving = thread::spawn(move || {
        let transport = hub
            .accept_healing(1, Duration::from_secs(10))
            .expect("accept spoke");
        NodeServer::new(dsm, transport).serve()
    });
    (addr, serving)
}

/// A self-healing spoke whose connector really dials the hub again.
fn healing_spoke(addr: &str) -> Arc<SelfHealing> {
    let dial = addr.to_string();
    let connector: Connector = Box::new(move || {
        TcpTransport::connect(&dial, 1, 0).map(|t| Arc::new(t) as Arc<dyn Transport>)
    });
    Arc::new(SelfHealing::connect(connector, backoff()).expect("initial dial"))
}

/// An in-flight operation survives the link dying under it: the spoke's
/// acquire is parked server-side when the sever hits; the heal bumps the
/// generation, the blocked caller replays the same sequence number behind
/// a resumable hello, and the at-most-once cache guarantees the lock is
/// granted exactly once no matter which copy wins.
#[test]
fn in_flight_op_replays_through_a_link_heal_over_tcp() {
    let dsm = two_proc_dsm(|b| b);
    let (addr, serving) = healing_server(dsm.clone());
    let healing = healing_spoke(&addr);
    let client =
        NodeClient::connect(Shared(Arc::clone(&healing)), 0, vec![ProcId::new(1)]).unwrap();
    let mut remote = client.handle(ProcId::new(1));
    let lock = LockId::new(0);

    remote.acquire(lock).unwrap();
    remote.write_u64(8, 1).unwrap();
    remote.release(lock).unwrap();

    // p0 takes the lock so the spoke's next acquire parks server-side.
    let mut local = dsm.handle(ProcId::new(0));
    local.acquire(lock).unwrap();
    let blocked = thread::spawn(move || {
        remote.acquire(lock).unwrap();
        remote.write_u64(8, 2).unwrap();
        remote.release(lock).unwrap();
        remote
    });
    thread::sleep(Duration::from_millis(200));

    // Sever mid-wait, then hand the lock over. Whether the grant's reply
    // races the heal (lost with the old link, answered from cache on
    // replay) or lands on the healed link directly, the waiter must
    // resolve exactly once.
    let throwaway = TcpTransport::connect(&addr, 1, 0).expect("severing dial");
    thread::sleep(Duration::from_millis(200));
    drop(throwaway);
    local.release(lock).unwrap();

    let mut remote = blocked.join().expect("blocked caller resolved");
    assert!(
        healing.generation() >= 1,
        "the sever must have forced at least one reconnect"
    );
    // The lock-guarded write committed exactly once and is visible.
    local.acquire(lock).unwrap();
    assert_eq!(local.read_u64(8), 2);
    local.release(lock).unwrap();
    // The healed session keeps working.
    remote.acquire(lock).unwrap();
    assert_eq!(remote.read_u64(8).unwrap(), 2);
    remote.release(lock).unwrap();

    client.shutdown().unwrap();
    serving.join().unwrap().unwrap();
}

/// A processor declared dead while its link was severed is revived by the
/// reconnecting spoke's resumable hello — the server rejoins it from the
/// automatic death checkpoint before dispatching the replayed operation,
/// with no manual rejoin anywhere.
#[test]
fn resumable_hello_revives_a_processor_declared_dead_while_severed() {
    let dsm = two_proc_dsm(|b| b.checkpoint_policy(CheckpointPolicy::every_episodes(1)));
    let (addr, serving) = healing_server(dsm.clone());
    let healing = healing_spoke(&addr);
    let client =
        NodeClient::connect(Shared(Arc::clone(&healing)), 0, vec![ProcId::new(1)]).unwrap();
    let mut remote = client.handle(ProcId::new(1));
    let lock = LockId::new(0);
    let dead = ProcId::new(1);

    remote.acquire(lock).unwrap();
    remote.write_u64(8, 7).unwrap();
    remote.release(lock).unwrap();

    // The partition: the spoke's link dies, and while it is down the
    // failure detector (stood in for by an explicit call — the spoke has
    // no say in it) declares p1 dead. Death ships a checkpoint cut.
    let throwaway = TcpTransport::connect(&addr, 1, 0).expect("severing dial");
    thread::sleep(Duration::from_millis(100));
    dsm.declare_dead(dead);
    assert!(dsm.is_dead(dead));
    drop(throwaway);

    // The spoke knows nothing of its own death: its next operation heals
    // the link, re-hellos, and the hello revives p1 from the death cut.
    // The revived processor sees committed pre-death state the LRC way —
    // through an acquire, which pulls the catch-up write notices.
    remote.acquire(lock).unwrap();
    assert!(!dsm.is_dead(dead), "the hello must have revived p1");
    assert_eq!(
        remote.read_u64(8).unwrap(),
        7,
        "the revived processor resumes from its committed pre-death state"
    );
    remote.write_u64(8, 8).unwrap();
    remote.release(lock).unwrap();

    let mut local = dsm.handle(ProcId::new(0));
    local.acquire(lock).unwrap();
    assert_eq!(local.read_u64(8), 8);
    local.release(lock).unwrap();

    let counters = dsm.engine().core().counters();
    assert!(
        counters.checkpoints_cut >= 1,
        "the death cut must have shipped, got {}",
        counters.checkpoints_cut
    );
    client.shutdown().unwrap();
    serving.join().unwrap().unwrap();
}

/// The deterministic variant: a scripted sever window
/// ([`lrc::net::FaultRule::SeverThenHeal`]) on the spoke's send side, no
/// sockets. Every lock-guarded increment lands exactly once even though
/// some requests burned failed attempts inside the window.
#[test]
fn scripted_sever_window_loses_no_increments() {
    let dsm = two_proc_dsm(|b| b);
    let mut mesh = ChannelNet::mesh(2);
    let client_end = mesh.pop().unwrap();
    let server_end = mesh.pop().unwrap();
    let server = NodeServer::new(dsm.clone(), server_end);
    let serving = thread::spawn(move || server.serve());

    // Sends 4 and 5 toward the engine node fail, then the link heals —
    // well inside the 8-attempt backoff budget.
    let flaky = FaultyTransport::new(client_end, FaultPlan::new().sever_then_heal(0, 3, 2));
    let healing = Arc::new(SelfHealing::retry_same(Arc::new(flaky), backoff()));
    let client =
        NodeClient::connect(Shared(Arc::clone(&healing)), 0, vec![ProcId::new(1)]).unwrap();
    let mut remote = client.handle(ProcId::new(1));
    let lock = LockId::new(0);

    const ROUNDS: u64 = 5;
    for _ in 0..ROUNDS {
        remote.acquire(lock).unwrap();
        let v = remote.read_u64(8).unwrap();
        remote.write_u64(8, v + 1).unwrap();
        remote.release(lock).unwrap();
    }
    assert!(
        healing.generation() >= 1,
        "the scripted sever must have triggered a heal"
    );

    let mut local = dsm.handle(ProcId::new(0));
    local.acquire(lock).unwrap();
    assert_eq!(
        local.read_u64(8),
        ROUNDS,
        "an increment was lost or doubled across the sever window"
    );
    local.release(lock).unwrap();
    client.shutdown().unwrap();
    serving.join().unwrap().unwrap();
}
