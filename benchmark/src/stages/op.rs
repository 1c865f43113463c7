//! Op stage: the CPU critical path of a remote operation with the
//! scheduler taken out. Four processors take turns at a migratory round —
//! acquire, read (a warm miss), write, release of one block — and every
//! operation goes through the synchronous op path: request encoded to
//! frame bytes, decoded, dispatched by `ProcHandle::apply`, reply encoded
//! and decoded. One thread, closed loop: each operation waits for the
//! previous one, as a processor of a DSM program does.
//!
//! The traced run adds a threaded phase — the same script through
//! `NodeServer`/`NodeClient` over channels and over TCP loopback. Its
//! latencies are not repeatable on a small shared machine and are never
//! gated, but its results are: remote and local memory must agree.

use std::hint::black_box;
use std::time::Instant;

use lrc::core::EngineOp;
use lrc::dsm::{Dsm, DsmBuilder, NodeClient, NodeServer, ProcHandle};
use lrc::net::{ChannelNet, Frame, NodeId, TcpTransport, Transport, WireCtx, WireKind, WireMsg};
use lrc::pagemem::{Diff, PageBuf, PageSize};
use lrc::sim::{synth_write_bytes, ProtocolKind};
use lrc::sync::{BarrierId, LockId};
use lrc::vclock::ProcId;

use super::{overhead_pct, put_process_readings, set_up, write_spans};
use crate::alloc;
use crate::catalog::{Script, TRACE_OVERHEAD};
use crate::report::{Ops, StageArgs, StageOutput};
use crate::span::{self, Off, Recorder, Tracer};
use crate::stats::{self, Clock, Stopwatch, Summary};

const N_PROCS: usize = 4;
const PAGE_BYTES: usize = 4096;
const MEM_BYTES: u64 = 1 << 16;
const ADDR: u64 = 0;
/// All four processors meet at the barrier this often, which lets
/// `gc_at_barriers` bound the interval store.
const BARRIER_EVERY: u32 = 64;
/// Distinct payloads; consecutive ones differ in every byte.
const N_BLOCKS: usize = 16;
const SERVER: NodeId = 0;
const CLIENT: NodeId = 1;
const SPAN_CAP: usize = 20_000;

const WIRE_SPANS: [&str; 4] = [
    "net.wire.encode_req",
    "net.wire.decode_req",
    "net.wire.encode_rep",
    "net.wire.decode_rep",
];
/// In the order of a round's operations.
const APPLY_SPANS: [&str; 4] = [
    "dsm.apply_acquire",
    "dsm.apply_read",
    "dsm.apply_write",
    "dsm.apply_release",
];

const BOOKKEEPING_SPAN: &str = "trace.bookkeeping";

fn the_lock() -> LockId {
    LockId::new(0)
}

fn the_barrier() -> BarrierId {
    BarrierId::new(0)
}

/// Rounds per batch, a multiple of `BARRIER_EVERY` so that every batch
/// does the same work: about 0.1 s either way.
fn rounds_per_batch(script: Script, smoke: bool) -> u32 {
    match (script, smoke) {
        (Script::Small, false) => 16_384,
        (Script::Bulk, false) => 128,
        (_, true) => 64,
    }
}

fn proc_of(round: u32) -> ProcId {
    ProcId::new((round as usize % N_PROCS) as u16)
}

/// The blocks the script writes, from the seed.
struct Payloads {
    blocks: Vec<Vec<u8>>,
    /// What the first read finds: untouched memory.
    zeros: Vec<u8>,
}

impl Payloads {
    fn new(script: Script, seed: u64) -> Payloads {
        let len = match script {
            Script::Small => 8,
            Script::Bulk => PAGE_BYTES,
        };
        let base = synth_write_bytes(seed as usize, len);
        Payloads {
            blocks: (0..N_BLOCKS)
                .map(|k| base.iter().map(|b| b.wrapping_add(k as u8)).collect())
                .collect(),
            zeros: vec![0; len],
        }
    }

    fn len(&self) -> usize {
        self.zeros.len()
    }

    /// The block round `round` writes.
    fn written_in(&self, round: u32) -> &[u8] {
        &self.blocks[round as usize % N_BLOCKS]
    }

    /// What a read in round `round` must return: the previous round's
    /// write.
    fn expected_read(&self, round: u32) -> &[u8] {
        match round.checked_sub(1) {
            Some(previous) => self.written_in(previous),
            None => &self.zeros,
        }
    }

    /// The four operations of round `round`, in order.
    fn round_ops(&self, round: u32) -> [EngineOp; 4] {
        [
            EngineOp::Acquire(the_lock()),
            EngineOp::Read {
                addr: ADDR,
                len: self.len() as u32,
            },
            EngineOp::Write {
                addr: ADDR,
                data: self.written_in(round).to_vec(),
            },
            EngineOp::Release(the_lock()),
        ]
    }
}

fn build_dsm(kind: ProtocolKind) -> Dsm {
    let builder = DsmBuilder::new(kind, N_PROCS, MEM_BYTES)
        .page_size(PAGE_BYTES)
        .locks(1)
        .barriers(1);
    let builder = if kind.is_lazy() {
        builder.gc_at_barriers()
    } else {
        builder
    };
    builder.build().expect("valid configuration")
}

/// Reads the block under the lock: it must hold `want`.
fn check_final_block(handle: &mut ProcHandle, want: &[u8], path: &str, ops: &mut Ops) {
    let mut got = vec![0; want.len()];
    let locked = handle.acquire(the_lock());
    handle.read_bytes(ADDR, &mut got);
    let unlocked = handle.release(the_lock());
    ops.check(locked.is_ok() && unlocked.is_ok() && got == want, || {
        format!("final block differs from the last write ({path})")
    });
}

/// The script's state on the synchronous op path.
struct SyncPath {
    dsm: Dsm,
    handles: Vec<ProcHandle>,
    ctx: WireCtx,
    payloads: Payloads,
    round: u32,
    seq: u64,
    /// Encoded request and reply bytes so far.
    req_bytes: u64,
    rep_bytes: u64,
    /// Allocation calls inside the codec steps and inside `apply`; they
    /// grow in traced batches only, since `Off` reports no allocations.
    wire_allocs: u64,
    apply_allocs: u64,
}

impl SyncPath {
    fn new(script: Script, seed: u64) -> SyncPath {
        let dsm = build_dsm(ProtocolKind::LazyInvalidate);
        let handles = ProcId::all(N_PROCS).map(|p| dsm.handle(p)).collect();
        SyncPath {
            dsm,
            handles,
            ctx: WireCtx { n_procs: N_PROCS },
            payloads: Payloads::new(script, seed),
            round: 0,
            seq: 0,
            req_bytes: 0,
            rep_bytes: 0,
            wire_allocs: 0,
            apply_allocs: 0,
        }
    }

    /// One operation through the whole synchronous path. The five spans
    /// share their boundaries, so nothing between them goes untimed.
    fn rpc<R: Recorder>(
        &mut self,
        rec: &mut R,
        proc: ProcId,
        op: EngineOp,
        apply_span: &'static str,
    ) -> Result<Vec<u8>, String> {
        self.seq += 1;
        let (seq, round) = (self.seq, self.round);
        let a0 = rec.allocs();
        let t0 = rec.now();
        let request = WireMsg::OpRequest { proc, op };
        let req = request.encode_frame(CLIENT, SERVER, seq).encode();
        let t1 = rec.now();
        let (frame, _) = Frame::decode(black_box(&req)).map_err(|e| e.to_string())?;
        let decoded =
            WireMsg::decode(frame.kind, &frame.body, &self.ctx).map_err(|e| e.to_string())?;
        let t2 = rec.now();
        let a1 = rec.allocs();
        let WireMsg::OpRequest { proc, op } = decoded else {
            return Err("request decoded to another message".to_string());
        };
        let result = self.handles[proc.index()].apply(&op);
        let t3 = rec.now();
        let a2 = rec.allocs();
        let reply = WireMsg::OpReply {
            result: result.map_err(|e| e.to_string()),
        };
        let rep = reply.encode_frame(SERVER, CLIENT, seq).encode();
        let t4 = rec.now();
        let (frame, _) = Frame::decode(black_box(&rep)).map_err(|e| e.to_string())?;
        let decoded =
            WireMsg::decode(frame.kind, &frame.body, &self.ctx).map_err(|e| e.to_string())?;
        let t5 = rec.now();
        let a3 = rec.allocs();

        rec.leaf(WIRE_SPANS[0], round, t0, t1);
        rec.leaf(WIRE_SPANS[1], round, t1, t2);
        rec.leaf(apply_span, round, t2, t3);
        rec.leaf(WIRE_SPANS[2], round, t3, t4);
        rec.leaf(WIRE_SPANS[3], round, t4, t5);
        // What recording the five spans cost is a span of its own, so the
        // round's unexplained remainder is the script's, not the tracer's.
        let t6 = rec.now();
        rec.leaf(BOOKKEEPING_SPAN, round, t5, t6);
        self.req_bytes += req.len() as u64;
        self.rep_bytes += rep.len() as u64;
        self.wire_allocs += a1.since(a0).allocs + a3.since(a2).allocs;
        self.apply_allocs += a2.since(a1).allocs;
        match decoded {
            WireMsg::OpReply { result } => result,
            _ => Err("reply decoded to another message".to_string()),
        }
    }

    fn round<R: Recorder>(&mut self, rec: &mut R, ops: &mut Ops) {
        let round = self.round;
        let proc = proc_of(round);
        rec.open("op.round", round);
        let mut read = Vec::new();
        for (i, op) in self.payloads.round_ops(round).into_iter().enumerate() {
            match self.rpc(rec, proc, op, APPLY_SPANS[i]) {
                Ok(bytes) if i == 1 => read = bytes,
                Ok(_) => {}
                Err(e) => ops.fail(|| format!("round {round}, {}: {e}", APPLY_SPANS[i])),
            }
        }
        ops.attempt(4);
        ops.check(read == self.payloads.expected_read(round), || {
            format!("round {round}: the read returned a stale or wrong block")
        });
        if (round + 1).is_multiple_of(BARRIER_EVERY) {
            // `ProcHandle::barrier` would park the only thread; the engine's
            // own arrival never blocks.
            let start = rec.now();
            for p in ProcId::all(N_PROCS) {
                let arrived = self.dsm.engine().barrier(p, the_barrier());
                ops.check(arrived.is_ok(), || {
                    format!("barrier arrival of {p}: {arrived:?}")
                });
            }
            let end = rec.now();
            rec.leaf("op.barrier", round, start, end);
        }
        rec.close();
        self.round += 1;
    }

    /// Runs one batch and returns µs per round.
    fn batch<R: Recorder>(&mut self, rounds: u32, clock: Clock, rec: &mut R, ops: &mut Ops) -> f64 {
        let watch = Stopwatch::start(clock);
        for _ in 0..rounds {
            self.round(rec, ops);
        }
        watch.seconds() * 1e6 / rounds as f64
    }
}

pub fn run(args: &StageArgs) -> StageOutput {
    let mut out = StageOutput::default();
    let mut ops = Ops::default();
    let rounds = rounds_per_batch(args.script, args.smoke);
    let (mut path, setup_s) = set_up(args.setups, args.clock(), || {
        let mut path = SyncPath::new(args.script, args.seed);
        path.batch(rounds, Clock::Wall, &mut Off, &mut ops);
        path
    });
    if args.trace {
        let apply_op_p50_us = traced(args, &mut path, rounds, &mut out, &mut ops);
        other_protocols(args, rounds, &mut out, &mut ops);
        pagemem_micro(&path.payloads, &mut out);
        threaded_phase(args, apply_op_p50_us, &mut out, &mut ops);
    } else {
        timed(args, &mut path, rounds, &mut out, &mut ops);
    }
    let want = path.payloads.expected_read(path.round).to_vec();
    check_final_block(&mut path.handles[0], &want, "synchronous path", &mut ops);
    put_process_readings(&mut out, setup_s);
    out.ops = ops;
    out
}

fn timed(args: &StageArgs, path: &mut SyncPath, rounds: u32, out: &mut StageOutput, ops: &mut Ops) {
    let wire_bytes_before = path.req_bytes + path.rep_bytes;
    let mut round_us = Vec::new();
    out.measure_s = args
        .budget
        .run(|_| round_us.push(path.batch(rounds, args.clock(), &mut Off, ops)));
    let measured_rounds = (round_us.len() as u32 * rounds) as f64;
    let wire_bytes = path.req_bytes + path.rep_bytes - wire_bytes_before;
    out.put("round_us", Summary::of(&round_us));
    out.put_value("wire_bytes_per_round", wire_bytes as f64 / measured_rounds);
}

/// Plain, traced and engine-level batches take turns, so that all see
/// the same machine and their differences are the tracing and the layers,
/// not the minute. Returns the median µs of one `apply`, over all four
/// kinds.
fn traced(
    args: &StageArgs,
    path: &mut SyncPath,
    rounds: u32,
    out: &mut StageOutput,
    ops: &mut Ops,
) -> f64 {
    let mut rec = Tracer::new(Instant::now(), SPAN_CAP);
    let mut engine = EnginePath::new(ProtocolKind::LazyInvalidate, args);
    engine.batch(rounds, ops);
    let (mut plain_us, mut engine_us) = (Vec::new(), Vec::new());
    let mut plain_allocs = alloc::Snapshot::default();
    // Frame bytes and modeled traffic are the same in every round, plain
    // or traced, so they are counted over both.
    let (req0, rep0, net0) = (path.req_bytes, path.rep_bytes, path.dsm.net_stats());
    let (wire_allocs0, apply_allocs0) = (path.wire_allocs, path.apply_allocs);
    out.measure_s = args.budget.paired().run(|_| {
        let before = alloc::snapshot();
        plain_us.push(path.batch(rounds, Clock::Wall, &mut Off, ops));
        plain_allocs += alloc::snapshot().since(before);
        path.batch(rounds, Clock::Wall, &mut rec, ops);
        engine_us.push(engine.batch(rounds, ops));
    });
    let all_rounds = (plain_us.len() as u32 * rounds) as f64;
    let net = path.dsm.net_stats().since(&net0).total();
    let req_bytes = (path.req_bytes - req0) as f64 / (2.0 * all_rounds);
    let rep_bytes = (path.rep_bytes - rep0) as f64 / (2.0 * all_rounds);
    let tracers = [rec];
    let per_round_us = |name: &str| span::agg(&tracers, name).total_us() / all_rounds;

    out.put_value("net.wire.req_bytes", req_bytes);
    out.put_value("net.wire.rep_bytes", rep_bytes);
    // A round moves the payload twice: in the read's reply and in the
    // write's request.
    let payload = 2.0 * path.payloads.len() as f64;
    out.put_value("net.wire.overhead_ratio", (req_bytes + rep_bytes) / payload);
    out.put_value("alloc.per_round", plain_allocs.allocs as f64 / all_rounds);
    out.put_value(
        "alloc.bytes_per_round",
        plain_allocs.bytes as f64 / all_rounds,
    );
    out.put_value(
        "simnet.msgs_per_round",
        net.msgs as f64 / (2.0 * all_rounds),
    );
    out.put_value("simnet.kbytes_per_round", net.kbytes() / (2.0 * all_rounds));

    for name in WIRE_SPANS.into_iter().chain(APPLY_SPANS) {
        out.put_value(&format!("{name}_us"), per_round_us(name));
    }
    let wire_us: f64 = WIRE_SPANS.into_iter().map(per_round_us).sum();
    let apply_us: f64 = APPLY_SPANS.into_iter().map(per_round_us).sum();
    let barrier_us = per_round_us("op.barrier");
    let bookkeeping_us = per_round_us(BOOKKEEPING_SPAN);
    let round_us = per_round_us("op.round");
    let parts_us = wire_us + apply_us + barrier_us + bookkeeping_us;
    let gap_pct = (round_us - parts_us) / round_us * 100.0;
    out.put_value("op.traced_round_us", round_us);
    out.put_value("op.barrier_share_us", barrier_us);
    out.put_value("trace.bookkeeping_us", bookkeeping_us);
    out.put_value("op.budget_gap_pct", gap_pct);
    // The budget must sum: the parts account for the traced round.
    ops.check(gap_pct.abs() <= 15.0, || {
        format!("spans sum to {parts_us:.3} us of a {round_us:.3} us round (gap {gap_pct:.1}%)")
    });
    out.put_value(
        TRACE_OVERHEAD,
        overhead_pct(Summary::of(&plain_us).median, round_us),
    );
    // Counted by the traced batches alone: `Off` reports no allocations.
    out.put_value(
        "net.wire.allocs_per_round",
        (path.wire_allocs - wire_allocs0) as f64 / all_rounds,
    );
    out.put_value(
        "dsm.apply_allocs_per_round",
        (path.apply_allocs - apply_allocs0) as f64 / all_rounds,
    );

    let mut apply_all = span::Agg::default();
    for name in APPLY_SPANS {
        apply_all.absorb(&span::agg(&tracers, name));
    }
    // A mean, like the spans it is subtracted from.
    let engine_us = engine_us.iter().sum::<f64>() / engine_us.len() as f64;
    out.put_value("sim.engine_round_us", engine_us);
    out.put_value("dsm.handle_self_us", apply_us + barrier_us - engine_us);
    write_spans(args, &tracers, ops);
    apply_all.quantile_us(0.5)
}

/// The script driven straight on the engine: what the handle, the codec
/// and the node runtime are added on top of.
struct EnginePath {
    kind: ProtocolKind,
    dsm: Dsm,
    payloads: Payloads,
    buf: Vec<u8>,
    round: u32,
}

impl EnginePath {
    fn new(kind: ProtocolKind, args: &StageArgs) -> EnginePath {
        let payloads = Payloads::new(args.script, args.seed);
        EnginePath {
            kind,
            dsm: build_dsm(kind),
            buf: vec![0; payloads.len()],
            payloads,
            round: 0,
        }
    }

    /// Runs one batch and returns µs per round.
    fn batch(&mut self, rounds: u32, ops: &mut Ops) -> f64 {
        let engine = self.dsm.engine();
        let mut failed = 0u64;
        let start = Instant::now();
        for _ in 0..rounds {
            let (round, p) = (self.round, proc_of(self.round));
            failed += engine.acquire(p, the_lock()).is_err() as u64;
            engine.read_into(p, ADDR, &mut self.buf);
            failed += (self.buf != self.payloads.expected_read(round)) as u64;
            engine.write(p, ADDR, self.payloads.written_in(round));
            failed += engine.release(p, the_lock()).is_err() as u64;
            if (round + 1).is_multiple_of(BARRIER_EVERY) {
                for q in ProcId::all(N_PROCS) {
                    failed += engine.barrier(q, the_barrier()).is_err() as u64;
                }
            }
            self.round += 1;
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / rounds as f64;
        ops.attempt(4 * rounds as u64);
        if failed > 0 {
            let kind = self.kind;
            ops.fail(|| {
                format!("{failed} engine-level operations failed or read stale data under {kind}")
            });
        }
        us
    }
}

/// What the same sharing pattern costs under the other three protocols,
/// µs per round.
fn other_protocols(args: &StageArgs, rounds: u32, out: &mut StageOutput, ops: &mut Ops) {
    let batches = if args.smoke { 2 } else { 5 };
    for (kind, name) in [
        (ProtocolKind::LazyUpdate, "core.lu_round_us"),
        (ProtocolKind::EagerInvalidate, "eager.ei_round_us"),
        (ProtocolKind::EagerUpdate, "eager.eu_round_us"),
    ] {
        let mut path = EnginePath::new(kind, args);
        path.batch(rounds, ops);
        let us: Vec<f64> = (0..batches).map(|_| path.batch(rounds, ops)).collect();
        out.put_value(name, Summary::of(&us).median);
    }
}

/// Twin/diff primitives on the script's own dirty pattern (one word, or a
/// dense page), and a squash of a chain of four such diffs — what a lazy
/// read miss does after four writers.
fn pagemem_micro(payloads: &Payloads, out: &mut StageOutput) {
    let iters = if payloads.len() > 64 { 200 } else { 5_000 };
    let size = PageSize::new(PAGE_BYTES).expect("a valid page size");
    let twin = PageBuf::zeroed(size);
    let pages: Vec<PageBuf> = payloads.blocks[..4]
        .iter()
        .map(|block| {
            let mut page = twin.clone();
            page.write(0, block);
            page
        })
        .collect();
    let us_per_call = |start: Instant| start.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let start = Instant::now();
    for _ in 0..iters {
        black_box(Diff::between(black_box(&twin), black_box(&pages[0])));
    }
    out.put_value("pagemem.diff_create_us", us_per_call(start));

    let chain: Vec<Diff> = pages
        .iter()
        .map(|page| Diff::between(&twin, page))
        .collect();
    let mut target = twin.clone();
    let start = Instant::now();
    for _ in 0..iters {
        black_box(&chain[0]).apply_to(black_box(&mut target));
    }
    out.put_value("pagemem.diff_apply_us", us_per_call(start));

    let start = Instant::now();
    for _ in 0..iters {
        black_box(Diff::squash(black_box(&chain)));
    }
    out.put_value("pagemem.squash_us", us_per_call(start));

    let mut wire = Vec::new();
    chain[0].write_wire(0, 1, &mut wire);
    out.put_value("pagemem.diff_wire_bytes", wire.len() as f64);
}

/// A connected in-process pair (server end, client end).
fn channel_pair() -> (impl Transport + 'static, impl Transport + 'static) {
    let mut mesh = ChannelNet::mesh(2);
    let client = mesh.pop().expect("two endpoints");
    let server = mesh.pop().expect("two endpoints");
    (server, client)
}

/// A connected TCP loopback pair (server end, client end).
fn tcp_pair() -> Result<(TcpTransport, TcpTransport), String> {
    let hub = TcpTransport::bind("127.0.0.1:0", SERVER).map_err(|e| e.to_string())?;
    let addr = hub.local_addr();
    let connecting = std::thread::spawn(move || TcpTransport::connect(&addr, CLIENT, SERVER));
    let server = hub.accept(1).map_err(|e| e.to_string());
    let client = connecting
        .join()
        .map_err(|_| "connecting thread panicked".to_string())?
        .map_err(|e| e.to_string());
    Ok((server?, client?))
}

/// The script through a real node runtime: µs per operation (all four
/// kinds), with remote and local memory compared at the end.
fn node_rpc_us(
    args: &StageArgs,
    server_end: impl Transport + 'static,
    client_end: impl Transport + 'static,
    rounds: u32,
    ops: &mut Ops,
) -> Result<Vec<f64>, String> {
    let payloads = Payloads::new(args.script, args.seed);
    let dsm = build_dsm(ProtocolKind::LazyInvalidate);
    let server = NodeServer::new(dsm.clone(), server_end);
    let serving = std::thread::spawn(move || server.serve());
    let client = NodeClient::connect(client_end, SERVER, ProcId::all(N_PROCS).collect())
        .map_err(|e| e.to_string())?;
    let mut handles: Vec<_> = ProcId::all(N_PROCS).map(|p| client.handle(p)).collect();
    let mut us = Vec::with_capacity(4 * rounds as usize);
    for round in 0..rounds {
        let handle = &mut handles[proc_of(round).index()];
        for (i, op) in payloads.round_ops(round).iter().enumerate() {
            let start = Instant::now();
            let result = handle.apply(op);
            us.push(start.elapsed().as_secs_f64() * 1e6);
            let ok = match &result {
                Ok(got) if i == 1 => got == payloads.expected_read(round),
                Ok(_) => true,
                Err(_) => false,
            };
            ops.check(ok, || {
                format!("threaded round {round}, {op}: wrong result ({result:?})")
            });
        }
    }
    // The remote view first, then the engine node's own: both must hold
    // the last write.
    let want = payloads.expected_read(rounds);
    let remote = &mut handles[0];
    let mut got = vec![0; want.len()];
    let seen = remote
        .acquire(the_lock())
        .and_then(|()| remote.read_bytes(ADDR, &mut got))
        .and_then(|()| remote.release(the_lock()));
    ops.check(seen.is_ok() && got == want, || {
        format!("final block differs from the last write (remote handle, {seen:?})")
    });
    client.shutdown().map_err(|e| e.to_string())?;
    let served = serving
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    ops.check(served.is_ok(), || format!("node server: {served:?}"));
    check_final_block(
        &mut dsm.handle(ProcId::new(1)),
        want,
        "engine node after the threaded phase",
        ops,
    );
    Ok(us)
}

/// A bare transport ping-pong of the frames one round sends: µs per
/// request/reply pair, nothing decoded or dispatched in between.
fn echo_us(
    args: &StageArgs,
    server_end: impl Transport + 'static,
    client_end: impl Transport + 'static,
    rounds: u32,
) -> Result<Vec<f64>, String> {
    let payloads = Payloads::new(args.script, args.seed);
    let requests: Vec<WireMsg> = payloads
        .round_ops(0)
        .into_iter()
        .map(|op| WireMsg::OpRequest {
            proc: ProcId::new(0),
            op,
        })
        .collect();
    // Only the read's reply carries bytes.
    let replies: Vec<WireMsg> = (0..4)
        .map(|i| WireMsg::OpReply {
            result: Ok(if i == 1 {
                payloads.written_in(0).to_vec()
            } else {
                Vec::new()
            }),
        })
        .collect();
    let echoing = std::thread::spawn(move || -> Result<(), String> {
        loop {
            let frame = server_end.recv().map_err(|e| e.to_string())?;
            if frame.kind == WireKind::Shutdown {
                return Ok(());
            }
            let reply = &replies[(frame.seq % 4) as usize];
            server_end
                .send(reply, frame.src, frame.seq)
                .map_err(|e| e.to_string())?;
        }
    });
    let mut us = Vec::with_capacity(4 * rounds as usize);
    let mut ping = || -> Result<(), String> {
        for seq in 0..4 * rounds as u64 {
            let start = Instant::now();
            client_end
                .send(&requests[(seq % 4) as usize], SERVER, seq)
                .map_err(|e| e.to_string())?;
            black_box(client_end.recv().map_err(|e| e.to_string())?);
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        client_end
            .send(&WireMsg::Shutdown, SERVER, 0)
            .map_err(|e| e.to_string())
    };
    let pinged = ping();
    let echoed = echoing
        .join()
        .map_err(|_| "echo thread panicked".to_string())?;
    pinged.and(echoed).map(|()| us)
}

/// Puts the median (and optionally the 99th percentile) of a threaded
/// phase's latencies; a phase that failed counts as a failed operation.
fn put_latency(
    p50: &str,
    p99: Option<&str>,
    us: Result<Vec<f64>, String>,
    out: &mut StageOutput,
    ops: &mut Ops,
) -> f64 {
    ops.check(us.is_ok(), || format!("{p50}: {us:?}"));
    let mut us = us.unwrap_or_else(|_| vec![0.0]);
    let median = stats::quantile_of(&mut us, 0.5);
    out.put_value(p50, median);
    if let Some(p99) = p99 {
        out.put_value(p99, stats::quantile(&us, 0.99));
    }
    median
}

fn threaded_phase(args: &StageArgs, apply_op_p50_us: f64, out: &mut StageOutput, ops: &mut Ops) {
    let rounds = match (args.script, args.smoke) {
        (_, true) => 32,
        (Script::Small, false) => 400,
        (Script::Bulk, false) => 150,
    };
    let (server, client) = channel_pair();
    let rpc = node_rpc_us(args, server, client, rounds, ops);
    let channel_rpc = put_latency(
        "dsm.node.channel_rpc_p50_us",
        Some("dsm.node.channel_rpc_p99_us"),
        rpc,
        out,
        ops,
    );
    let (server, client) = channel_pair();
    let echo = echo_us(args, server, client, rounds);
    let channel_echo = put_latency("net.channel.echo_p50_us", None, echo, out, ops);

    let start = Instant::now();
    let pair = tcp_pair();
    out.put_value("net.tcp.connect_ms", start.elapsed().as_secs_f64() * 1e3);
    let rpc = pair.and_then(|(server, client)| node_rpc_us(args, server, client, rounds, ops));
    put_latency(
        "dsm.node.tcp_rpc_p50_us",
        Some("dsm.node.tcp_rpc_p99_us"),
        rpc,
        out,
        ops,
    );
    let echo = tcp_pair().and_then(|(server, client)| echo_us(args, server, client, rounds));
    put_latency("net.tcp.echo_p50_us", None, echo, out, ops);

    // rpc ≈ transport echo + node dispatch and hand-off + apply.
    out.put_value(
        "dsm.node.dispatch_us",
        channel_rpc - channel_echo - apply_op_p50_us,
    );
}
