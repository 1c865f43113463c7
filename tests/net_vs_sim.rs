//! Conformance: the message-passing node runtime must be *indistinguishable*
//! from the single-threaded simulator.
//!
//! A replayed program whose processors are split across nodes — every
//! remote operation serialized into a wire frame, moved by a transport
//! (the in-process channel mesh, or `TcpTransport` over real loopback
//! sockets), decoded, and dispatched into the engine — must produce
//! **byte-identical protocol counters and final memory** versus the same
//! trace replayed directly through the engine. This pins the whole new
//! layer (codec + transport + node dispatch) to the protocol semantics: a
//! message that is lost, reordered, misdecoded, or dispatched against the
//! wrong processor shows up as a diverging counter or byte.

use lrc::dsm::{DsmBuilder, NodeClient, NodeServer, ProcHandle, RemoteHandle};
use lrc::net::{ChannelNet, TcpTransport};
use lrc::sim::{synth_write_bytes, AnyEngine, EngineParams, ProtocolKind, SimOptions};
use lrc::simnet::NetStats;
use lrc::trace::{Op, Trace};
use lrc::vclock::ProcId;
use lrc::workloads::micro::{migratory, producer_consumer};

fn params_for(trace: &Trace, page: usize, options: &SimOptions) -> EngineParams {
    let meta = trace.meta();
    EngineParams {
        n_procs: meta.n_procs(),
        mem_bytes: meta.mem_bytes(),
        page_bytes: page,
        n_locks: meta.n_locks().max(1),
        n_barriers: meta.n_barriers().max(1),
        piggyback_notices: options.piggyback_notices,
        full_page_misses: options.full_page_misses,
        gc_at_barriers: options.gc_at_barriers,
        ..EngineParams::default()
    }
}

/// Reads the full shared space as processor 0 in page-sized chunks.
fn read_all(read: &mut dyn FnMut(u64, &mut [u8]), total: u64, page: usize) -> Vec<u8> {
    let mut mem = vec![0u8; total as usize];
    for (i, chunk) in mem.chunks_mut(page).enumerate() {
        read(i as u64 * page as u64, chunk);
    }
    mem
}

/// The reference: a direct single-threaded engine replay (what
/// `lrc::sim::run_trace` does), returning final stats and memory.
fn sim_replay(
    trace: &Trace,
    kind: ProtocolKind,
    page: usize,
    options: &SimOptions,
) -> (NetStats, Vec<u8>) {
    let engine = AnyEngine::build(kind, &params_for(trace, page, options)).expect("valid config");
    let p0 = ProcId::new(0);
    for (i, event) in trace.events().iter().enumerate() {
        let p = event.proc;
        match event.op {
            Op::Read { addr, len } => {
                let mut buf = vec![0u8; len as usize];
                engine.read_into(p, addr, &mut buf);
            }
            Op::Write { addr, len } => engine.write(p, addr, &synth_write_bytes(i, len as usize)),
            Op::Acquire(l) => engine.acquire(p, l).expect("legal trace"),
            Op::Release(l) => engine.release(p, l).expect("legal trace"),
            Op::Barrier(b) => {
                engine.barrier(p, b).expect("legal trace");
            }
        }
    }
    let stats = engine.net_stats();
    let total = engine.core().space().total_bytes();
    let mem = read_all(
        &mut |addr, buf| engine.read_into(p0, addr, buf),
        total,
        page,
    );
    (stats, mem)
}

/// The system under test over the channel transport (the default mesh).
fn node_replay(
    trace: &Trace,
    kind: ProtocolKind,
    page: usize,
    options: &SimOptions,
    n_remote: usize,
) -> (NetStats, Vec<u8>, lrc::net::WireStats) {
    let mut mesh = ChannelNet::mesh(2);
    let client_end = mesh.pop().unwrap();
    let server_end = mesh.pop().unwrap();
    node_replay_over(trace, kind, page, options, n_remote, server_end, client_end)
}

/// The system under test: the same trace, but the last `n_remote`
/// processors live on a second node and act through the wire — over
/// whichever [`lrc::net::Transport`] pair the caller built, so the same
/// conformance sweep pins both backends (channel, TCP) to the simulator.
fn node_replay_over(
    trace: &Trace,
    kind: ProtocolKind,
    page: usize,
    options: &SimOptions,
    n_remote: usize,
    server_end: impl lrc::net::Transport + 'static,
    client_end: impl lrc::net::Transport + 'static,
) -> (NetStats, Vec<u8>, lrc::net::WireStats) {
    let meta = trace.meta();
    let n = meta.n_procs();
    assert!(n_remote < n, "processor 0 stays on the engine node");
    let local_count = n - n_remote;

    let mut builder = DsmBuilder::new(kind, n, meta.mem_bytes())
        .page_size(page)
        .locks(meta.n_locks().max(1))
        .barriers(meta.n_barriers().max(1));
    if !options.piggyback_notices {
        builder = builder.no_piggyback();
    }
    if options.full_page_misses {
        builder = builder.full_page_misses();
    }
    if options.gc_at_barriers {
        builder = builder.gc_at_barriers();
    }
    let dsm = builder.build().expect("valid config");

    let server = NodeServer::new(dsm.clone(), server_end);
    let serving = std::thread::spawn(move || server.serve());

    let remote_procs: Vec<ProcId> = (local_count..n).map(|i| ProcId::new(i as u16)).collect();
    let client = NodeClient::connect(client_end, 0, remote_procs.clone()).expect("connect");
    let mut locals: Vec<ProcHandle> = (0..local_count)
        .map(|i| dsm.handle(ProcId::new(i as u16)))
        .collect();
    let mut remotes: Vec<RemoteHandle> = remote_procs.iter().map(|&p| client.handle(p)).collect();

    for (i, event) in trace.events().iter().enumerate() {
        let pi = event.proc.index();
        if pi < local_count {
            let h = &mut locals[pi];
            match event.op {
                Op::Read { addr, len } => {
                    let mut buf = vec![0u8; len as usize];
                    h.read_bytes(addr, &mut buf);
                }
                Op::Write { addr, len } => h.write_bytes(addr, &synth_write_bytes(i, len as usize)),
                Op::Acquire(l) => h.acquire(l).expect("legal trace"),
                Op::Release(l) => h.release(l).expect("legal trace"),
                Op::Barrier(_) => unreachable!("barrier-free traces in sequential replays"),
            }
        } else {
            let h = &mut remotes[pi - local_count];
            match event.op {
                Op::Read { addr, len } => {
                    let mut buf = vec![0u8; len as usize];
                    h.read_bytes(addr, &mut buf).expect("remote read");
                }
                Op::Write { addr, len } => h
                    .write_bytes(addr, &synth_write_bytes(i, len as usize))
                    .expect("remote write"),
                Op::Acquire(l) => h.acquire(l).expect("remote acquire"),
                Op::Release(l) => h.release(l).expect("remote release"),
                Op::Barrier(_) => unreachable!("barrier-free traces in sequential replays"),
            }
        }
    }
    let stats = dsm.net_stats();
    // Same readback as the reference (page-rounded space), through the
    // local p0 handle.
    let total = lrc::pagemem::AddrSpace::with_capacity(
        lrc::pagemem::PageSize::new(page).expect("valid page size"),
        meta.mem_bytes(),
    )
    .total_bytes();
    let p0 = &mut locals[0];
    let mem = read_all(&mut |addr, buf| p0.read_bytes(addr, buf), total, page);
    let wire = client.wire_stats();
    client.shutdown().expect("clean shutdown");
    serving.join().unwrap().expect("server exits cleanly");
    (stats, mem, wire)
}

#[test]
fn node_runtime_equals_simulator_on_lock_workloads() {
    for (name, trace) in [
        ("migratory", migratory(4, 30, 16)),
        ("producer_consumer", producer_consumer(4, 20, 8)),
    ] {
        for kind in ProtocolKind::ALL {
            for page in [512usize, 4096] {
                for n_remote in [1usize, 3] {
                    let (sim_stats, sim_mem) = sim_replay(&trace, kind, page, &SimOptions::fast());
                    let (node_stats, node_mem, wire) =
                        node_replay(&trace, kind, page, &SimOptions::fast(), n_remote);
                    assert_eq!(
                        sim_stats, node_stats,
                        "{name}/{kind}@{page} remote={n_remote}: protocol counters diverge"
                    );
                    assert_eq!(
                        sim_mem, node_mem,
                        "{name}/{kind}@{page} remote={n_remote}: final memory diverges"
                    );
                    assert!(
                        wire.bytes_sent > 0,
                        "{name}/{kind}@{page}: remote operations really used the wire"
                    );
                }
            }
        }
    }
}

/// The lazy ablations must conform too: the wire layer is protocol
/// agnostic, so flipping engine knobs must never desynchronize it.
#[test]
fn node_runtime_conforms_under_ablations() {
    let trace = migratory(4, 24, 16);
    for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate] {
        for piggyback in [true, false] {
            for full_pages in [true, false] {
                let options = SimOptions {
                    piggyback_notices: piggyback,
                    full_page_misses: full_pages,
                    ..SimOptions::fast()
                };
                let (sim_stats, sim_mem) = sim_replay(&trace, kind, 512, &options);
                let (node_stats, node_mem, _) = node_replay(&trace, kind, 512, &options, 2);
                assert_eq!(
                    sim_stats, node_stats,
                    "{kind} piggyback={piggyback} full_pages={full_pages}: counters diverge"
                );
                assert_eq!(sim_mem, node_mem, "{kind}: memory diverges");
            }
        }
    }
}

/// Request/reply accounting of the op plane: every remote operation costs
/// exactly one request and one reply frame, plus the hello and shutdown.
#[test]
fn op_plane_message_accounting_is_exact() {
    let trace = migratory(4, 10, 8);
    let remote_ops = trace
        .events()
        .iter()
        .filter(|e| e.proc.index() >= 2)
        .count() as u64;
    let (_, _, wire) = node_replay(
        &trace,
        ProtocolKind::LazyInvalidate,
        512,
        &SimOptions::fast(),
        2,
    );
    // The snapshot is taken before the shutdown frame goes out.
    assert_eq!(
        wire.msgs_sent,
        remote_ops + 1,
        "hello + one request per remote op"
    );
    assert_eq!(wire.msgs_received, remote_ops, "one reply per remote op");
}

/// Threaded execution across nodes: local threads and remote handles run
/// concurrently against one engine, with contended locks and barriers.
/// Totals vary run to run, but the protocol invariants hold: no lost
/// increments, barrier phases see each other's writes, and the lazy
/// release stays local.
#[test]
fn threaded_nodes_with_locks_and_barriers_stay_consistent() {
    const PROCS: usize = 4;
    const REMOTE: usize = 2;
    const ROUNDS: u64 = 15;
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, PROCS, 1 << 16)
        .page_size(512)
        .locks(2)
        .barriers(1)
        .build()
        .unwrap();
    let mut mesh = ChannelNet::mesh(2);
    let client_end = mesh.pop().unwrap();
    let server_end = mesh.pop().unwrap();
    let server = NodeServer::new(dsm.clone(), server_end);
    let serving = std::thread::spawn(move || server.serve());
    let remote_procs: Vec<ProcId> = (PROCS - REMOTE..PROCS)
        .map(|i| ProcId::new(i as u16))
        .collect();
    let client = NodeClient::connect(client_end, 0, remote_procs.clone()).unwrap();

    std::thread::scope(|scope| {
        let lock = lrc::sync::LockId::new(0);
        let barrier = lrc::sync::BarrierId::new(0);
        for i in 0..PROCS - REMOTE {
            let mut h = dsm.handle(ProcId::new(i as u16));
            scope.spawn(move || {
                let me = h.proc().index() as u64;
                for round in 0..ROUNDS {
                    h.write_u64(1024 + 8 * me, round);
                    h.barrier(barrier).unwrap();
                    for other in 0..PROCS as u64 {
                        assert_eq!(h.read_u64(1024 + 8 * other), round, "stale phase data");
                    }
                    h.acquire(lock).unwrap();
                    let v = h.read_u64(0);
                    h.write_u64(0, v + 1);
                    h.release(lock).unwrap();
                    h.barrier(barrier).unwrap();
                }
            });
        }
        for &p in &remote_procs {
            let mut h = client.handle(p);
            scope.spawn(move || {
                let me = h.proc().index() as u64;
                for round in 0..ROUNDS {
                    h.write_u64(1024 + 8 * me, round).unwrap();
                    h.barrier(barrier).unwrap();
                    for other in 0..PROCS as u64 {
                        assert_eq!(
                            h.read_u64(1024 + 8 * other).unwrap(),
                            round,
                            "stale phase data over the wire"
                        );
                    }
                    h.acquire(lock).unwrap();
                    let v = h.read_u64(0).unwrap();
                    h.write_u64(0, v + 1).unwrap();
                    h.release(lock).unwrap();
                    h.barrier(barrier).unwrap();
                }
            });
        }
    });

    let mut reader = dsm.handle(ProcId::new(0));
    reader.acquire(lrc::sync::LockId::new(0)).unwrap();
    assert_eq!(
        reader.read_u64(0),
        PROCS as u64 * ROUNDS,
        "lock-guarded counter lost increments across nodes"
    );
    reader.release(lrc::sync::LockId::new(0)).unwrap();
    let stats = dsm.net_stats();
    assert_eq!(
        stats.class(lrc::simnet::OpClass::Unlock).msgs,
        0,
        "lazy releases stay local even across nodes"
    );
    client.shutdown().unwrap();
    serving.join().unwrap().unwrap();
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

/// The socket backend is *indistinguishable* too: the same traces over
/// real loopback sockets produce byte-identical protocol counters and
/// final memory versus the single-threaded simulator — and hence versus
/// the channel backend pinned by the sweep above.
#[test]
fn socket_backend_equals_simulator_on_lock_workloads() {
    for (name, trace) in [
        ("migratory", migratory(4, 30, 16)),
        ("producer_consumer", producer_consumer(4, 20, 8)),
    ] {
        for kind in ProtocolKind::ALL {
            for n_remote in [1usize, 3] {
                let (sim_stats, sim_mem) = sim_replay(&trace, kind, 512, &SimOptions::fast());
                let (server_end, client_end) = tcp_pair();
                let (node_stats, node_mem, wire) = node_replay_over(
                    &trace,
                    kind,
                    512,
                    &SimOptions::fast(),
                    n_remote,
                    server_end,
                    client_end,
                );
                assert_eq!(
                    sim_stats, node_stats,
                    "{name}/{kind} remote={n_remote}: protocol counters diverge over sockets"
                );
                assert_eq!(
                    sim_mem, node_mem,
                    "{name}/{kind} remote={n_remote}: final memory diverges over sockets"
                );
                assert!(
                    wire.bytes_sent > 0,
                    "{name}/{kind}: remote operations really used the socket"
                );
            }
        }
    }
}

/// Frame accounting stays exact over sockets: the spoke sends its
/// link-level hello at connect, the node-runtime hello, and one request
/// per remote operation — queued frames may share a socket write, which
/// never changes how many frames exist.
#[test]
fn op_plane_accounting_is_exact_over_sockets() {
    let trace = migratory(4, 10, 8);
    let remote_ops = trace
        .events()
        .iter()
        .filter(|e| e.proc.index() >= 2)
        .count() as u64;
    let (server_end, client_end) = tcp_pair();
    let (_, _, wire) = node_replay_over(
        &trace,
        ProtocolKind::LazyInvalidate,
        512,
        &SimOptions::fast(),
        2,
        server_end,
        client_end,
    );
    assert_eq!(
        wire.msgs_sent,
        remote_ops + 2,
        "link hello + node hello + one request per remote op"
    );
    assert_eq!(wire.msgs_received, remote_ops, "one reply per remote op");
}
