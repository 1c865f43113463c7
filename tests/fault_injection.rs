//! Crash tolerance under injected faults: peer nodes killed
//! mid-lock-transfer, mid-barrier, and mid-miss-reply over the channel
//! transport, wrapped in the deterministic [`FaultyTransport`] layer.
//!
//! The invariants under test:
//!
//! * survivors detect the dead node (failure detector or explicit
//!   declaration), force-release its locks, complete its barrier
//!   episodes, and observe its *flushed* final interval;
//! * every recorded history — including the crash markers — passes the
//!   `lrc-hist` checker;
//! * a restarted node that presents its last checkpoint converges to
//!   memory byte-identical to a single-threaded engine replay of the
//!   same kill-and-rejoin sequence.

use std::sync::Arc;
use std::time::Duration;

use lrc::core::EngineOp;
use lrc::dsm::{CheckpointPolicy, Dsm, DsmBuilder, NodeClient, NodeError, NodeServer};
use lrc::hist::{CheckBudget, HistoryRecorder};
use lrc::net::{
    Backoff, ChannelNet, Connector, FaultPlan, FaultyTransport, Frame, NetError, NodeId,
    SelfHealing, TcpTransport, Transport, WireCtx, WireKind, WireMsg, WireStats,
};
use lrc::pagemem::{AddrSpace, PageSize};
use lrc::sim::{AnyEngine, EngineParams, ProtocolKind};
use lrc::sync::{BarrierId, LockId};
use lrc::vclock::ProcId;

/// Generous deadline for every blocking wait a test does expect to
/// complete; a lost wake-up fails loudly instead of hanging CI.
const WAIT: Duration = Duration::from_secs(60);

/// How long a survivor waits on a silent lock holder before declaring it
/// dead.
const SUSPECT_AFTER: Duration = Duration::from_millis(150);

/// Drives one remote processor over raw wire frames — no [`NodeClient`],
/// so the test controls exactly which frames the "process" lives to send
/// and receive. A crashed process does not run a tidy reply
/// demultiplexer, and the kill points here are defined in *frames sent*.
struct RawPeer<T: Transport> {
    transport: T,
    proc: ProcId,
    seq: u64,
}

impl<T: Transport> RawPeer<T> {
    /// Announces `proc` to the engine node (node 0) and returns the peer.
    fn hello(transport: T, proc: ProcId) -> RawPeer<T> {
        let node = transport.node();
        transport
            .send(
                &WireMsg::Hello {
                    node,
                    procs: vec![proc],
                },
                0,
                0,
            )
            .expect("hello is the first frame; the fault plan spares it");
        RawPeer {
            transport,
            proc,
            seq: 0,
        }
    }

    /// Sends one operation frame without waiting for its reply.
    fn send_op(&mut self, op: EngineOp) -> Result<u64, NetError> {
        self.seq += 1;
        self.transport.send(
            &WireMsg::OpRequest {
                proc: self.proc,
                op,
            },
            0,
            self.seq,
        )?;
        Ok(self.seq)
    }

    /// Blocks for the next reply frame and returns its payload.
    fn recv_reply(&mut self) -> Result<Vec<u8>, NetError> {
        let frame = self.transport.recv()?;
        assert_eq!(frame.kind, WireKind::OpReply, "op-plane traffic only");
        match WireMsg::decode(frame.kind, &frame.body, &WireCtx { n_procs: 0 })
            .expect("well-formed reply")
        {
            WireMsg::OpReply { result } => Ok(result.expect("legal script")),
            _ => unreachable!("kind was OpReply"),
        }
    }

    /// Sends one operation and blocks for its outcome.
    fn op(&mut self, op: EngineOp) -> Result<Vec<u8>, NetError> {
        self.send_op(op)?;
        self.recv_reply()
    }
}

/// Reads the full shared space through `read` in page-sized chunks.
fn read_all(read: &mut dyn FnMut(u64, &mut [u8]), total: u64, page: usize) -> Vec<u8> {
    let mut mem = vec![0u8; total as usize];
    for (i, chunk) in mem.chunks_mut(page).enumerate() {
        read(i as u64 * page as u64, chunk);
    }
    mem
}

/// A node killed mid-lock-transfer: its acquire and write are delivered,
/// the release dies with the process. The survivor's failure detector
/// times the silent holder out, declares it dead, and wins the
/// force-released lock — observing the dead holder's flushed write.
#[test]
fn killed_lock_holder_is_detected_and_superseded() {
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14)
        .page_size(256)
        .wait_timeout(WAIT)
        .holder_timeout(SUSPECT_AFTER)
        .build()
        .unwrap();
    let recorder = HistoryRecorder::new(2);
    dsm.attach_recorder(Arc::clone(&recorder));

    let mut mesh = ChannelNet::mesh(2);
    let victim_end = mesh.pop().unwrap();
    let server_end = mesh.pop().unwrap();
    let server = NodeServer::new(dsm.clone(), server_end);
    let serving = std::thread::spawn(move || server.serve());

    // Frame 4 (the release) is where the process dies.
    let plan = FaultPlan::new().kill_after_sends(4);
    let victim_proc = ProcId::new(1);
    let lock = LockId::new(0);
    let mut victim = RawPeer::hello(FaultyTransport::new(victim_end, plan), victim_proc);
    victim.op(EngineOp::Acquire(lock)).unwrap();
    victim
        .op(EngineOp::Write {
            addr: 64,
            data: 7u64.to_le_bytes().to_vec(),
        })
        .unwrap();
    assert_eq!(
        victim.send_op(EngineOp::Release(lock)).unwrap_err(),
        NetError::Closed,
        "the kill rule fires on the release frame"
    );

    // The survivor contends for the same lock: the holder stays silent
    // past the suspicion deadline, is declared dead (open interval
    // flushed, lock force-released), and the retry wins.
    let mut survivor = dsm.handle(ProcId::new(0));
    survivor.acquire(lock).unwrap();
    assert!(
        dsm.is_dead(victim_proc),
        "the silent holder was declared dead"
    );
    assert_eq!(
        survivor.read_u64(64),
        7,
        "the dead holder's write was flushed before the force-release"
    );
    survivor.write_u64(72, 8);
    survivor.release(lock).unwrap();

    // The recorded histories — crash marker included — check out.
    recorder
        .finish()
        .check(&CheckBudget::default())
        .expect("survivor history passes after a mid-transfer kill");

    // The dead process's endpoint closing is what ends the server.
    drop(victim);
    assert!(
        matches!(
            serving.join().unwrap(),
            Err(NodeError::Net(NetError::Closed))
        ),
        "a crashed peer ends the session with a transport close, not a Shutdown"
    );
}

/// A node killed mid-barrier: its arrival frame dies in flight, leaving
/// the survivor parked in an episode that can never complete — until the
/// death declaration completes the episode on the dead node's behalf.
#[test]
fn killed_node_mid_barrier_releases_the_parked_survivor() {
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14)
        .page_size(256)
        .wait_timeout(WAIT)
        .build()
        .unwrap();
    let recorder = HistoryRecorder::new(2);
    dsm.attach_recorder(Arc::clone(&recorder));

    let mut mesh = ChannelNet::mesh(2);
    let victim_end = mesh.pop().unwrap();
    let server_end = mesh.pop().unwrap();
    let server = NodeServer::new(dsm.clone(), server_end);
    let serving = std::thread::spawn(move || server.serve());

    // Frame 3 (the barrier arrival) is where the process dies.
    let plan = FaultPlan::new().kill_after_sends(3);
    let victim_proc = ProcId::new(1);
    let barrier = BarrierId::new(0);
    let mut victim = RawPeer::hello(FaultyTransport::new(victim_end, plan), victim_proc);
    victim
        .op(EngineOp::Write {
            addr: 0,
            data: 3u64.to_le_bytes().to_vec(),
        })
        .unwrap();
    assert_eq!(
        victim.send_op(EngineOp::Barrier(barrier)).unwrap_err(),
        NetError::Closed,
        "the kill rule fires on the barrier arrival"
    );

    // The survivor arrives and parks: with the victim gone, its episode
    // needs the death declaration to complete.
    let survivor_thread = std::thread::spawn({
        let dsm = dsm.clone();
        move || {
            let mut h = dsm.handle(ProcId::new(0));
            h.write_u64(8, 5);
            h.barrier(barrier).unwrap();
            h.read_u64(8)
        }
    });
    std::thread::sleep(Duration::from_millis(100)); // let the survivor park
    dsm.declare_dead(victim_proc);
    assert_eq!(
        survivor_thread.join().unwrap(),
        5,
        "the parked survivor fell through the completed episode"
    );

    recorder
        .finish()
        .check(&CheckBudget::default())
        .expect("survivor history passes after a mid-barrier kill");

    drop(victim);
    assert!(matches!(
        serving.join().unwrap(),
        Err(NodeError::Net(NetError::Closed))
    ));
}

/// The barrier-wait hole in the failure detector, closed: a node dies
/// *before arriving* at a barrier while `holder_timeout` is armed. No one
/// holds a lock, so the lock-path detector never engages — the barrier
/// waiter itself must time out, suspect the absentee, and complete the
/// episode on its behalf. Unlike
/// [`killed_node_mid_barrier_releases_the_parked_survivor`] there is no
/// explicit `declare_dead` here; the detector does it.
#[test]
fn barrier_waiter_suspects_an_absentee_without_explicit_declaration() {
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14)
        .page_size(256)
        .wait_timeout(WAIT)
        .holder_timeout(SUSPECT_AFTER)
        .build()
        .unwrap();
    let recorder = HistoryRecorder::new(2);
    dsm.attach_recorder(Arc::clone(&recorder));

    let mut mesh = ChannelNet::mesh(2);
    let victim_end = mesh.pop().unwrap();
    let server_end = mesh.pop().unwrap();
    let server = NodeServer::new(dsm.clone(), server_end);
    let serving = std::thread::spawn(move || server.serve());

    // Frame 3 (the barrier arrival) dies with the process: the victim
    // never arrives, and nobody else will declare it dead.
    let plan = FaultPlan::new().kill_after_sends(3);
    let victim_proc = ProcId::new(1);
    let barrier = BarrierId::new(0);
    let mut victim = RawPeer::hello(FaultyTransport::new(victim_end, plan), victim_proc);
    victim
        .op(EngineOp::Write {
            addr: 0,
            data: 3u64.to_le_bytes().to_vec(),
        })
        .unwrap();
    assert_eq!(
        victim.send_op(EngineOp::Barrier(barrier)).unwrap_err(),
        NetError::Closed,
        "the kill rule fires on the barrier arrival"
    );

    // The survivor arrives and parks. With the victim silent past the
    // suspicion deadline, the barrier waiter's own detector declares it
    // dead and falls through the completed episode.
    let mut survivor = dsm.handle(ProcId::new(0));
    survivor.write_u64(8, 5);
    survivor.barrier(barrier).unwrap();
    assert!(
        dsm.is_dead(victim_proc),
        "the barrier waiter suspected the absentee on its own"
    );
    assert_eq!(survivor.read_u64(8), 5);

    recorder
        .finish()
        .check(&CheckBudget::default())
        .expect("survivor history passes after a suspected barrier absentee");

    drop(victim);
    assert!(matches!(
        serving.join().unwrap(),
        Err(NodeError::Net(NetError::Closed))
    ));
}

/// A node killed with a miss reply in flight: its page miss is serviced
/// and the reply sent, but the process dies before consuming it. The
/// servicing must leave the engine consistent for the survivors, and the
/// dead processor's recorded read must still be justified.
#[test]
fn killed_node_with_a_miss_reply_in_flight_leaves_survivors_consistent() {
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14)
        .page_size(256)
        .wait_timeout(WAIT)
        .build()
        .unwrap();
    let recorder = HistoryRecorder::new(2);
    dsm.attach_recorder(Arc::clone(&recorder));

    let mut mesh = ChannelNet::mesh(2);
    let victim_end = mesh.pop().unwrap();
    let server_end = mesh.pop().unwrap();
    let server = NodeServer::new(dsm.clone(), server_end);
    let serving = std::thread::spawn(move || server.serve());

    let victim_proc = ProcId::new(1);
    let lock = LockId::new(0);

    // The survivor publishes under the lock first, so the victim's read
    // is a genuine warm miss with protocol traffic behind it.
    let mut survivor = dsm.handle(ProcId::new(0));
    survivor.acquire(lock).unwrap();
    survivor.write_u64(512, 31);
    survivor.release(lock).unwrap();

    // Frame 4 (the release) is where the process dies — after the miss
    // request went out, while its reply is still unconsumed.
    let plan = FaultPlan::new().kill_after_sends(4);
    let mut victim = RawPeer::hello(FaultyTransport::new(victim_end, plan), victim_proc);
    victim.op(EngineOp::Acquire(lock)).unwrap();
    let miss_seq = victim
        .send_op(EngineOp::Read { addr: 512, len: 8 })
        .unwrap();

    // The miss really was serviced: its reply frame sits in the dead
    // process's queue, never to be consumed. The test reads it through
    // the fault layer's inner transport — the omniscient view of a frame
    // that was in flight when the process died.
    let frame = victim.transport.inner().recv().unwrap();
    assert_eq!(frame.kind, WireKind::OpReply);
    assert_eq!(frame.seq, miss_seq);
    let bytes = match WireMsg::decode(frame.kind, &frame.body, &WireCtx { n_procs: 0 }).unwrap() {
        WireMsg::OpReply { result } => result.expect("the miss was serviced"),
        _ => unreachable!("kind was OpReply"),
    };
    assert_eq!(
        u64::from_le_bytes(bytes.try_into().unwrap()),
        31,
        "the in-flight reply carried current data"
    );
    assert_eq!(
        victim.send_op(EngineOp::Release(lock)).unwrap_err(),
        NetError::Closed,
        "the kill rule fires on the release frame"
    );

    // The survivors declare the victim dead and carry on; the serviced
    // miss left nothing inconsistent behind.
    dsm.declare_dead(victim_proc);
    survivor.acquire(lock).unwrap();
    assert_eq!(survivor.read_u64(512), 31);
    survivor.write_u64(520, 32);
    survivor.release(lock).unwrap();

    recorder
        .finish()
        .check(&CheckBudget::default())
        .expect("histories pass with the victim's serviced-but-unconsumed miss");

    drop(victim);
    assert!(matches!(
        serving.join().unwrap(),
        Err(NodeError::Net(NetError::Closed))
    ));
}

/// A connected loopback (hub, spoke) pair of TCP transports: the hub is
/// node 0 (where the engine lives), the spoke node 1.
fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let hub = TcpTransport::bind("127.0.0.1:0", 0).expect("bind loopback");
    let addr = hub.local_addr();
    let connecting =
        std::thread::spawn(move || TcpTransport::connect(&addr, 1, 0).expect("connect"));
    let server_end = hub.accept(1).expect("accept");
    (server_end, connecting.join().expect("connect thread"))
}

/// The fault layer composes with the socket backend unchanged
/// ([`FaultyTransport`] is generic over [`Transport`]): the same scripted
/// kill-after-sends plan that drives the channel-transport crash suite
/// kills a real socket endpoint at the same frame, and the survivor's
/// failure detector resolves it identically.
#[test]
fn killed_lock_holder_is_detected_over_a_real_socket() {
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 14)
        .page_size(256)
        .wait_timeout(WAIT)
        .holder_timeout(SUSPECT_AFTER)
        .build()
        .unwrap();
    let recorder = HistoryRecorder::new(2);
    dsm.attach_recorder(Arc::clone(&recorder));

    let (server_end, spoke) = tcp_pair();
    let server = NodeServer::new(dsm.clone(), server_end);
    let serving = std::thread::spawn(move || server.serve());

    // Frame 4 (the release) is where the process dies. The connect-time
    // link hello went out before the fault layer wrapped the spoke, so
    // the frame indices match the channel-transport test exactly.
    let plan = FaultPlan::new().kill_after_sends(4);
    let victim_proc = ProcId::new(1);
    let lock = LockId::new(0);
    let mut victim = RawPeer::hello(FaultyTransport::new(spoke, plan), victim_proc);
    victim.op(EngineOp::Acquire(lock)).unwrap();
    victim
        .op(EngineOp::Write {
            addr: 64,
            data: 7u64.to_le_bytes().to_vec(),
        })
        .unwrap();
    assert_eq!(
        victim.send_op(EngineOp::Release(lock)).unwrap_err(),
        NetError::Closed,
        "the kill rule fires on the release frame"
    );

    let mut survivor = dsm.handle(ProcId::new(0));
    survivor.acquire(lock).unwrap();
    assert!(
        dsm.is_dead(victim_proc),
        "the silent holder was declared dead"
    );
    assert_eq!(
        survivor.read_u64(64),
        7,
        "the dead holder's write was flushed before the force-release"
    );
    survivor.release(lock).unwrap();

    recorder
        .finish()
        .check(&CheckBudget::default())
        .expect("survivor history passes after a mid-transfer kill over sockets");

    // Dropping the victim closes its socket; the hub's recv thread
    // surfaces the death and the server retires with a transport close.
    drop(victim);
    assert!(matches!(
        serving.join().unwrap(),
        Err(NodeError::Net(NetError::Closed))
    ));
}

/// Scripted frame drops compose with a real socket too: a dropped frame
/// never reaches the send queue, every delivered frame arrives intact and
/// in order, and the drop is visible only in the fault layer's own
/// counter — the transport's accounting covers what actually moved.
#[test]
fn scripted_drops_compose_with_a_real_socket() {
    let (hub, spoke) = tcp_pair();
    let faulty = FaultyTransport::new(spoke, FaultPlan::new().drop_nth(None, 2));
    for seq in 1..=3u64 {
        faulty
            .send(&WireMsg::Shutdown, 0, seq)
            .expect("drops are silent: the caller still sees Ok");
    }
    let seqs: Vec<u64> = (0..2).map(|_| hub.recv().unwrap().seq).collect();
    assert_eq!(seqs, vec![1, 3], "exactly the second frame vanished");
    assert_eq!(faulty.dropped(), 1);
    assert_eq!(
        faulty.stats().msgs_sent,
        3,
        "connect-time link hello + the two delivered frames; the dropped \
         frame never reached the socket"
    );
}

/// The full crash-tolerance arc, seeded and deterministic: a node
/// checkpoints at a barrier, is killed mid-lock-transfer, survivors
/// detect the death and carry on, and the restarted node rejoins from the
/// checkpoint over the wire — converging to memory byte-identical to a
/// single-threaded engine replay of the same kill-and-rejoin sequence.
#[test]
fn killed_node_rejoins_from_checkpoint_and_converges() {
    const PAGE: usize = 256;
    const MEM: u64 = 1 << 14;
    let kind = ProtocolKind::LazyInvalidate;
    let p0 = ProcId::new(0);
    let p1 = ProcId::new(1);
    let lock = LockId::new(0);
    let barrier = BarrierId::new(0);

    let dsm = DsmBuilder::new(kind, 2, MEM)
        .page_size(PAGE)
        .wait_timeout(WAIT)
        .holder_timeout(SUSPECT_AFTER)
        .build()
        .unwrap();
    let recorder = HistoryRecorder::new(2);
    dsm.attach_recorder(Arc::clone(&recorder));

    let mut mesh = ChannelNet::mesh(3);
    let rejoin_end = mesh.pop().unwrap(); // node 2: the restarted incarnation
    let victim_end = mesh.pop().unwrap(); // node 1: dies mid-run
    let server_end = mesh.pop().unwrap(); // node 0: the engine node
    let server = NodeServer::new(dsm.clone(), server_end);
    let serving = std::thread::spawn(move || server.serve());

    // Frame 6 (the phase-2 release) is where the process dies.
    let plan = FaultPlan::new().kill_after_sends(6);
    let mut victim = RawPeer::hello(FaultyTransport::new(victim_end, plan), p1);

    // The survivor holds at the std barrier until the checkpoint is cut
    // *and* the victim holds the contended lock — making the
    // failure-detector hand-off deterministic.
    let ckpt_taken = Arc::new(std::sync::Barrier::new(2));
    let survivor_thread = std::thread::spawn({
        let dsm = dsm.clone();
        let ckpt_taken = Arc::clone(&ckpt_taken);
        move || {
            let mut h = dsm.handle(p0);
            h.write_u64(8, 0x51);
            h.barrier(barrier).unwrap();
            ckpt_taken.wait();
            // Phase 2: the victim took the lock first and died holding
            // it; the failure detector inside acquire declares it dead.
            h.acquire(lock).unwrap();
            let flushed = h.read_u64(1032);
            h.write_u64(16, 0x52);
            h.release(lock).unwrap();
            flushed
        }
    });

    // Phase 1: the victim publishes its slot and arrives at the barrier.
    victim
        .op(EngineOp::Write {
            addr: 1024,
            data: 0x41u64.to_le_bytes().to_vec(),
        })
        .unwrap();
    victim.op(EngineOp::Barrier(barrier)).unwrap();

    // Post-barrier quiescence: cut the checkpoint the restarted node will
    // present (the engine is idle — the survivor is parked at the std
    // barrier, the victim's worker drained).
    let checkpoint = dsm.checkpoint().encode();

    // Phase 2: the victim takes the lock and writes, then dies on the
    // release frame.
    victim.op(EngineOp::Acquire(lock)).unwrap();
    victim
        .op(EngineOp::Write {
            addr: 1032,
            data: 0x42u64.to_le_bytes().to_vec(),
        })
        .unwrap();
    ckpt_taken.wait(); // unleash the survivor onto the held lock
    assert_eq!(
        victim.send_op(EngineOp::Release(lock)).unwrap_err(),
        NetError::Closed,
        "the kill rule fires on the phase-2 release"
    );

    assert_eq!(
        survivor_thread.join().unwrap(),
        0x42,
        "the dead holder's final write was flushed to the survivor"
    );
    assert!(dsm.is_dead(p1));

    // ---- rejoin: the restarted incarnation presents the checkpoint ----
    let (client, episode) = NodeClient::rejoin(rejoin_end, 0, p1, checkpoint).unwrap();
    assert_eq!(episode, 1, "the checkpoint was cut after barrier episode 1");
    assert!(!dsm.is_dead(p1), "the rejoined processor is live again");

    // Resynchronize (a lock acquire is the happens-before edge from the
    // survivors), then read the whole space back over the wire.
    let total = AddrSpace::with_capacity(PageSize::new(PAGE).unwrap(), MEM).total_bytes();
    let mut revived = client.handle(p1);
    revived.acquire(lock).unwrap();
    let node_mem = read_all(
        &mut |addr, buf| revived.read_bytes(addr, buf).expect("remote read"),
        total,
        PAGE,
    );
    revived.release(lock).unwrap();

    // Every recorded history — two crash-spanning logs included — passes.
    recorder
        .finish()
        .check(&CheckBudget::default())
        .expect("kill-and-rejoin histories pass the checker");

    // The reference: the same sequence replayed single-threaded through
    // the engine, in the serialization order the runtime actually took.
    let params = EngineParams {
        n_procs: 2,
        mem_bytes: MEM,
        page_bytes: PAGE,
        n_locks: 1,
        n_barriers: 1,
        ..EngineParams::default()
    };
    let engine = AnyEngine::build(kind, &params).unwrap();
    engine.write(p0, 8, &0x51u64.to_le_bytes());
    engine.write(p1, 1024, &0x41u64.to_le_bytes());
    engine.barrier(p0, barrier).unwrap();
    engine.barrier(p1, barrier).unwrap();
    let reference_ckpt = engine.checkpoint();
    engine.acquire(p1, lock).unwrap();
    engine.write(p1, 1032, &0x42u64.to_le_bytes());
    engine.declare_dead(p1);
    engine.acquire(p0, lock).unwrap();
    let mut flushed = [0u8; 8];
    engine.read_into(p0, 1032, &mut flushed);
    engine.write(p0, 16, &0x52u64.to_le_bytes());
    engine.release(p0, lock).unwrap();
    engine.rejoin(p1, &reference_ckpt).unwrap();
    engine.acquire(p1, lock).unwrap();
    let sim_mem = read_all(
        &mut |addr, buf| engine.read_into(p1, addr, buf),
        total,
        PAGE,
    );
    engine.release(p1, lock).unwrap();

    assert_eq!(
        sim_mem, node_mem,
        "rejoined node's memory diverges from the single-threaded replay"
    );

    // The rejoin superseded the dead node 1, so node 2's shutdown is the
    // last one the server waits for: a clean exit.
    client.shutdown().unwrap();
    serving
        .join()
        .unwrap()
        .expect("rejoin supersedes the crashed peer; the server retires cleanly");
    drop(victim);
}

/// Deterministic xorshift64: the soak's kill/sever schedule is seeded,
/// not wall-clock or thread-schedule dependent.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Keeps a handle on the healing wrapper while a [`NodeClient`] owns the
/// transport seat, so the soak can assert the sever really forced a
/// reconnect (generation bump).
struct SharedHealing(Arc<SelfHealing>);

impl Transport for SharedHealing {
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

/// Where processor `p` writes on iteration `iter`: one 8-byte cell per
/// iteration inside its own page, so the final memory image encodes
/// exactly which iterations each processor lived through.
fn soak_slot(p: usize, iter: u64) -> u64 {
    (p * 256) as u64 + iter * 8
}

/// What it writes there — unique per (processor, iteration).
fn soak_value(p: usize, iter: u64) -> u64 {
    p as u64 * 1000 + iter + 1
}

/// The self-healing runtime end to end: four processors over the TCP
/// healing hub, a seeded schedule of two process kills and one link
/// sever, and **zero manual recovery calls** — the survivors' barrier
/// waits suspect the silent processors, death ships an automatic
/// checkpoint cut, garbage collection defers while the rejoin lease is
/// live, and each restarted incarnation revives its processor simply by
/// reconnecting under a fresh node id. The run must converge to memory
/// byte-identical to a crash-free single-threaded replay of the writes
/// that survived.
#[test]
fn seeded_kill_and_heal_soak_converges_without_manual_recovery() {
    const PAGE: usize = 256;
    const MEM: u64 = 1 << 13;
    const ITERS: u64 = 8;
    // Generous suspicion deadline: remote spokes recover from a false
    // positive (the server revives a dead processor when its host's next
    // operation arrives), but the locally-driven p0 would panic, so the
    // soak trades crash-window latency for a wide margin on loaded CI.
    const SOAK_SUSPECT: Duration = Duration::from_millis(1000);
    let kind = ProtocolKind::LazyInvalidate;
    let barrier = BarrierId::new(0);
    let backoff = || Backoff::new(Duration::from_millis(5), Duration::from_millis(50), 10);

    // The seeded schedule: p1 dies early, p2 dies late (one death at a
    // time), p3's link is severed but the process lives throughout.
    let mut seed = 0x1992_0551_u64;
    let crashes = [
        (1usize, 1 + xorshift(&mut seed) % 3), // iteration in 1..=3
        (2usize, 4 + xorshift(&mut seed) % 3), // iteration in 4..=6
    ];
    let sever_iter = 1 + xorshift(&mut seed) % 5;

    let dsm = DsmBuilder::new(kind, 4, MEM)
        .page_size(PAGE)
        .gc_at_barriers()
        .death_lease(2)
        .wait_timeout(WAIT)
        .holder_timeout(SOAK_SUSPECT)
        .checkpoint_policy(CheckpointPolicy::every_episodes(1))
        .build()
        .unwrap();
    let recorder = HistoryRecorder::new(4);
    dsm.attach_recorder(Arc::clone(&recorder));

    let hub = TcpTransport::bind("127.0.0.1:0", 0).expect("bind loopback");
    let addr = hub.local_addr();
    let serving = std::thread::spawn({
        let dsm = dsm.clone();
        move || {
            let transport = hub
                .accept_healing(3, Duration::from_secs(10))
                .expect("accept the three spokes");
            NodeServer::new(dsm, transport).serve()
        }
    });

    // Lockstep across the driver threads: the *processes* under test
    // crash and heal freely, but the test's iteration fronts stay
    // aligned so a revived processor rejoins the episode the survivors
    // are parked in, not one they raced past.
    let sync = Arc::new(std::sync::Barrier::new(4));

    let mut killed = Vec::new();
    for (idx, crash_at) in crashes {
        let addr = addr.clone();
        let dsm: Dsm = dsm.clone();
        let sync = Arc::clone(&sync);
        let backoff = backoff();
        killed.push(std::thread::spawn(move || {
            let proc = ProcId::new(idx as u16);
            let transport = TcpTransport::connect_retry(&addr, idx as NodeId, 0, &backoff).unwrap();
            let mut client = Some(NodeClient::connect(transport, 0, vec![proc]).unwrap());
            for iter in 0..ITERS {
                sync.wait();
                if iter == crash_at {
                    // The process dies: no shutdown, no goodbye — the
                    // link just closes. A survivor's barrier wait will
                    // suspect and declare it; this thread only waits for
                    // the verdict (observation, not declaration).
                    drop(client.take());
                    while !dsm.is_dead(proc) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    // The restarted incarnation: a fresh node id (the
                    // old one's sequence space died with it) and a plain
                    // hello, which supersedes the crashed peer and
                    // revives the processor from the automatic death
                    // cut. The probe read of an untouched page confirms
                    // the revival completed before rejoining the
                    // lockstep — everything after it is ordinary.
                    let transport =
                        TcpTransport::connect_retry(&addr, 10 + idx as NodeId, 0, &backoff)
                            .unwrap();
                    let fresh = NodeClient::connect(transport, 0, vec![proc]).unwrap();
                    fresh.handle(proc).read_u64(MEM - PAGE as u64).unwrap();
                    client = Some(fresh);
                    continue; // this iteration's write died with the process
                }
                let mut h = client.as_ref().unwrap().handle(proc);
                h.write_u64(soak_slot(idx, iter), soak_value(idx, iter))
                    .unwrap();
                h.barrier(barrier).unwrap();
            }
            client.take().unwrap().shutdown().unwrap();
        }));
    }

    let severed = std::thread::spawn({
        let addr = addr.clone();
        let sync = Arc::clone(&sync);
        let backoff = backoff();
        move || {
            let proc = ProcId::new(3);
            let dial = addr.clone();
            let connector: Connector = Box::new(move || {
                TcpTransport::connect(&dial, 3, 0).map(|t| Arc::new(t) as Arc<dyn Transport>)
            });
            let healing = Arc::new(SelfHealing::connect(connector, backoff).expect("initial dial"));
            let client =
                NodeClient::connect(SharedHealing(Arc::clone(&healing)), 0, vec![proc]).unwrap();
            let mut h = client.handle(proc);
            for iter in 0..ITERS {
                sync.wait();
                if iter == sever_iter {
                    // The partition: a throwaway dial under this spoke's
                    // node id supersedes its link at the healing hub,
                    // killing the socket mid-run. The next operation
                    // heals the link and replays behind a resumable
                    // hello.
                    let throwaway = TcpTransport::connect(&addr, 3, 0).expect("severing dial");
                    std::thread::sleep(Duration::from_millis(50));
                    drop(throwaway);
                }
                h.write_u64(soak_slot(3, iter), soak_value(3, iter))
                    .unwrap();
                h.barrier(barrier).unwrap();
            }
            client.shutdown().unwrap();
            healing.generation()
        }
    });

    // p0 drives locally on this thread.
    let mut local = dsm.handle(ProcId::new(0));
    for iter in 0..ITERS {
        sync.wait();
        local.write_u64(soak_slot(0, iter), soak_value(0, iter));
        local.barrier(barrier).unwrap();
    }

    for spoke in killed {
        spoke.join().expect("killed-and-restarted spoke completes");
    }
    let generation = severed.join().expect("severed spoke completes");
    assert!(
        generation >= 1,
        "the scripted sever must have forced at least one reconnect"
    );
    serving
        .join()
        .unwrap()
        .expect("restarts superseded the crashed peers; the server retires cleanly");

    // The automation left its fingerprints: cuts shipped at episode
    // boundaries and at each death, and GC deferred (bounded by the
    // lease) instead of collecting under a dead processor.
    let counters = dsm.engine().core().counters();
    assert!(
        counters.checkpoints_cut >= ITERS,
        "expected a cut per episode, got {}",
        counters.checkpoints_cut
    );
    assert!(
        counters.gc_deferrals >= 1,
        "GC must defer at least the death episodes, got {}",
        counters.gc_deferrals
    );

    // Every recorded history — two crash/revive arcs included — passes.
    recorder
        .finish()
        .check(&CheckBudget::default())
        .expect("soak histories pass the checker");

    // The reference: a crash-free single-threaded replay writing exactly
    // the cells that survived (a killed iteration's write died with the
    // process and was never retried).
    let total = AddrSpace::with_capacity(PageSize::new(PAGE).unwrap(), MEM).total_bytes();
    let node_mem = read_all(&mut |addr, buf| local.read_bytes(addr, buf), total, PAGE);
    let params = EngineParams {
        n_procs: 4,
        mem_bytes: MEM,
        page_bytes: PAGE,
        n_barriers: 1,
        gc_at_barriers: true,
        ..EngineParams::default()
    };
    let engine = AnyEngine::build(kind, &params).unwrap();
    for iter in 0..ITERS {
        for p in 0..4usize {
            if crashes.iter().any(|&(cp, ci)| cp == p && ci == iter) {
                continue;
            }
            engine.write(
                ProcId::new(p as u16),
                soak_slot(p, iter),
                &soak_value(p, iter).to_le_bytes(),
            );
        }
        for p in 0..4u16 {
            engine.barrier(ProcId::new(p), barrier).unwrap();
        }
    }
    let sim_mem = read_all(
        &mut |addr, buf| engine.read_into(ProcId::new(0), addr, buf),
        total,
        PAGE,
    );
    assert_eq!(
        sim_mem, node_mem,
        "the healed cluster's memory diverges from the crash-free replay"
    );
}
