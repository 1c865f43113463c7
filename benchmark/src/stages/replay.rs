//! Replay stage: the paper's own evaluation pipeline. Five SPLASH-like
//! traces × four protocols × two page sizes through `lrc::sim::run_trace`,
//! the lazy and the eager family timed separately because they differ by
//! an order of magnitude. One thread; `dsm` blocking, `net` and `hist` do
//! no work here.

use std::hint::black_box;
use std::time::Instant;

use lrc::sim::{
    run_trace, synth_write_bytes, AnyEngine, EngineParams, ProtocolKind, RunReport, SimOptions,
};
use lrc::simnet::OpClass;
use lrc::trace::{Op, Trace};
use lrc::vclock::{IntervalId, ProcId, VectorClock};
use lrc::workloads::{AppKind, Scale};

use super::{overhead_pct, put_process_readings, set_up, write_spans};
use crate::alloc;
use crate::catalog::TRACE_OVERHEAD;
use crate::report::{Ops, StageArgs, StageOutput};
use crate::span::{self, Recorder, Tracer};
use crate::stats::{Clock, Stopwatch, Summary};

const PROCS: usize = 16;
/// Work units per application: one lazy pass takes about 0.2 s, so a
/// stage fits eleven batches in its share of a run.
const UNITS: usize = 12;
const SMOKE_UNITS: usize = 2;
const PAGES: [usize; 2] = [512, 4096];
const LAZY: [ProtocolKind; 2] = [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate];
const EAGER: [ProtocolKind; 2] = [ProtocolKind::EagerInvalidate, ProtocolKind::EagerUpdate];
/// Raw spans kept for the trace file.
const SPAN_CAP: usize = 20_000;

struct Inputs {
    traces: Vec<Trace>,
    generate_ms: f64,
}

impl Inputs {
    /// Events one family's pass replays: every trace under two protocols
    /// and two page sizes.
    fn pass_events(&self) -> u64 {
        let per_trace: usize = self.traces.iter().map(Trace::len).sum();
        (per_trace * LAZY.len() * PAGES.len()) as u64
    }
}

/// What one family's pass produced: modeled traffic, exact by design.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Traffic {
    msgs: u64,
    bytes: u64,
    /// Diff history retained at the end of each run (lazy engines).
    store_bytes: u64,
}

impl Traffic {
    fn add(&mut self, report: &RunReport) {
        self.msgs += report.messages();
        self.bytes += report.data_bytes();
        self.store_bytes += report.history_bytes.unwrap_or(0);
    }
}

/// Replays every trace under `kinds` at both page sizes; returns seconds
/// taken and the traffic.
fn pass(
    inputs: &Inputs,
    kinds: [ProtocolKind; 2],
    options: &SimOptions,
    clock: Clock,
    ops: &mut Ops,
) -> (f64, Traffic) {
    let mut traffic = Traffic::default();
    let watch = Stopwatch::start(clock);
    for trace in &inputs.traces {
        for kind in kinds {
            for page in PAGES {
                match run_trace(black_box(trace), kind, page, options) {
                    Ok(report) => {
                        ops.attempt(1);
                        traffic.add(&report);
                    }
                    Err(e) => ops.check(false, || {
                        format!("{} {kind} @{page}: {e}", trace.meta().name())
                    }),
                }
            }
        }
    }
    (watch.seconds(), traffic)
}

fn setup(args: &StageArgs, ops: &mut Ops) -> Inputs {
    let start = Instant::now();
    let scale = Scale {
        procs: PROCS,
        units: if args.smoke { SMOKE_UNITS } else { UNITS },
        seed: args.seed,
    };
    let traces: Vec<Trace> = AppKind::ALL
        .iter()
        .map(|app| app.generate(&scale))
        .collect();
    let inputs = Inputs {
        traces,
        generate_ms: start.elapsed().as_secs_f64() * 1e3,
    };
    // Correctness: every replay the timed passes make is first checked
    // read by read against a sequentially consistent memory.
    pass(&inputs, LAZY, &SimOptions::checked(), Clock::Wall, ops);
    pass(&inputs, EAGER, &SimOptions::checked(), Clock::Wall, ops);
    // Warm-up: one full untimed batch.
    pass(&inputs, LAZY, &SimOptions::fast(), Clock::Wall, ops);
    pass(&inputs, EAGER, &SimOptions::fast(), Clock::Wall, ops);
    inputs
}

/// Per-family readings over the batches of a run.
#[derive(Default)]
struct Family {
    secs: Vec<f64>,
    traffic: Option<Traffic>,
}

impl Family {
    /// Records one batch; traffic must repeat bit for bit.
    fn record(&mut self, label: &str, secs: f64, traffic: Traffic, ops: &mut Ops) {
        self.secs.push(secs);
        let first = *self.traffic.get_or_insert(traffic);
        ops.check(first == traffic, || {
            format!("{label} traffic changed between batches: {first:?} then {traffic:?}")
        });
    }

    fn kevents_per_s(&self, events: u64) -> Summary {
        let rates: Vec<f64> = self.secs.iter().map(|s| events as f64 / s / 1e3).collect();
        Summary::of(&rates)
    }

    fn traffic(&self) -> Traffic {
        self.traffic.expect("at least one batch ran")
    }
}

/// Both families' readings over the batches of a run.
#[derive(Default)]
struct Families {
    lazy: Family,
    eager: Family,
}

impl Families {
    /// One batch: a lazy pass, then an eager pass, each on `clock`.
    fn batch(&mut self, inputs: &Inputs, clock: Clock, ops: &mut Ops) {
        let fast = SimOptions::fast();
        let (secs, traffic) = pass(inputs, LAZY, &fast, clock, ops);
        self.lazy.record("lazy", secs, traffic, ops);
        let (secs, traffic) = pass(inputs, EAGER, &fast, clock, ops);
        self.eager.record("eager", secs, traffic, ops);
    }
}

pub fn run(args: &StageArgs) -> StageOutput {
    let mut out = StageOutput::default();
    let mut ops = Ops::default();
    let (inputs, setup_s) = set_up(args.setups, args.clock(), || setup(args, &mut ops));
    if args.trace {
        traced(args, &inputs, &mut out, &mut ops);
        table1_split(&inputs, &mut out, &mut ops);
        vclock_micro(args.seed, &mut out);
    } else {
        timed(args, &inputs, &mut out, &mut ops);
    }
    put_process_readings(&mut out, setup_s);
    out.ops = ops;
    out
}

fn timed(args: &StageArgs, inputs: &Inputs, out: &mut StageOutput, ops: &mut Ops) {
    let mut plain = Families::default();
    out.measure_s = args.budget.run(|_| plain.batch(inputs, args.clock(), ops));
    let events = inputs.pass_events();
    let kev = events as f64 / 1e3;
    out.put(
        "replay_lazy_kevents_per_s",
        plain.lazy.kevents_per_s(events),
    );
    out.put(
        "replay_eager_kevents_per_s",
        plain.eager.kevents_per_s(events),
    );
    let (l, e) = (plain.lazy.traffic(), plain.eager.traffic());
    out.put_value("lazy_msgs_per_kevent", l.msgs as f64 / kev);
    out.put_value("lazy_kbytes_per_kevent", l.bytes as f64 / 1024.0 / kev);
    out.put_value("eager_msgs_per_kevent", e.msgs as f64 / kev);
    out.put_value("eager_kbytes_per_kevent", e.bytes as f64 / 1024.0 / kev);
}

/// The benchmark's own copy of the simulator's replay loop, one span per
/// engine call. What `run_trace` spends outside those calls is the
/// simulator's self time.
fn replay_traced(
    trace: &Trace,
    kind: ProtocolKind,
    page: usize,
    run: u32,
    rec: &mut Tracer,
    ops: &mut Ops,
) {
    let meta = trace.meta();
    let params = EngineParams {
        n_procs: meta.n_procs(),
        mem_bytes: meta.mem_bytes(),
        page_bytes: page,
        n_locks: meta.n_locks().max(1),
        n_barriers: meta.n_barriers().max(1),
        ..EngineParams::default()
    };
    let engine = match AnyEngine::build(kind, &params) {
        Ok(engine) => engine,
        Err(e) => return ops.check(false, || format!("build {kind} @{page}: {e}")),
    };
    let names: [&'static str; 5] = if kind.is_lazy() {
        [
            "core.read",
            "core.write",
            "core.acquire",
            "core.release",
            "core.barrier",
        ]
    } else {
        [
            "eager.read",
            "eager.write",
            "eager.acquire",
            "eager.release",
            "eager.barrier",
        ]
    };
    rec.open(
        if kind.is_lazy() {
            "sim.replay_lazy"
        } else {
            "sim.replay_eager"
        },
        run,
    );
    let mut buf = Vec::new();
    let mut failed = 0u64;
    for (at, event) in trace.events().iter().enumerate() {
        let p = event.proc;
        match event.op {
            Op::Read { addr, len } => {
                buf.clear();
                buf.resize(len as usize, 0);
                rec.timed(names[0], run, || engine.read_into(p, addr, &mut buf));
            }
            Op::Write { addr, len } => {
                let data = synth_write_bytes(at, len as usize);
                rec.timed(names[1], run, || engine.write(p, addr, &data));
            }
            Op::Acquire(lock) => {
                failed += rec
                    .timed(names[2], run, || engine.acquire(p, lock))
                    .is_err() as u64
            }
            Op::Release(lock) => {
                failed += rec
                    .timed(names[3], run, || engine.release(p, lock))
                    .is_err() as u64
            }
            Op::Barrier(b) => {
                failed += rec.timed(names[4], run, || engine.barrier(p, b)).is_err() as u64
            }
        }
    }
    rec.close();
    ops.check(failed == 0, || {
        format!("{failed} synchronization ops failed under {kind} @{page}")
    });
}

/// Plain and traced batches take turns, so that both see the same
/// machine and their difference is the tracing, not the minute.
fn traced(args: &StageArgs, inputs: &Inputs, out: &mut StageOutput, ops: &mut Ops) {
    let mut rec = Tracer::new(Instant::now(), SPAN_CAP);
    let mut plain = Families::default();
    let mut plain_allocs = 0;
    let mut batches = 0u64;
    out.measure_s = args.budget.paired().run(|_| {
        let before = alloc::snapshot();
        plain.batch(inputs, Clock::Wall, ops);
        plain_allocs += alloc::snapshot().since(before).allocs;
        let mut run = 0;
        for kinds in [LAZY, EAGER] {
            for trace in &inputs.traces {
                for kind in kinds {
                    for page in PAGES {
                        replay_traced(trace, kind, page, run, &mut rec, ops);
                        run += 1;
                    }
                }
            }
        }
        batches += 1;
    });
    let tracers = [rec];
    let per_batch_s = |name: &str| span::agg(&tracers, name).total_ns as f64 / 1e9 / batches as f64;

    let mut engine_s = 0.0;
    for prefix in ["core", "eager"] {
        for call in ["acquire", "release", "read", "write", "barrier"] {
            let agg = span::agg(&tracers, &format!("{prefix}.{call}"));
            out.put_value(&format!("{prefix}.{call}_us"), agg.mean_us());
            engine_s += agg.total_ns as f64 / 1e9 / batches as f64;
        }
    }
    let p99_us = |name: &str| span::agg(&tracers, name).quantile_us(0.99);
    out.put_value("core.read_p99_us", p99_us("core.read"));
    out.put_value("core.acquire_p99_us", p99_us("core.acquire"));
    out.put_value("eager.release_p99_us", p99_us("eager.release"));

    // Self time of the simulator: what a plain `run_trace` pass takes
    // beyond the time the traced run saw inside engine calls.
    let plain_s = Summary::of(&plain.lazy.secs).median + Summary::of(&plain.eager.secs).median;
    out.put_value(
        "sim.replay_self_pct",
        (plain_s - engine_s) / plain_s * 100.0,
    );
    let traced_s = per_batch_s("sim.replay_lazy") + per_batch_s("sim.replay_eager");
    out.put_value(TRACE_OVERHEAD, overhead_pct(plain_s, traced_s));

    let kev = 2.0 * inputs.pass_events() as f64 / 1e3;
    out.put_value(
        "alloc.per_kevent",
        plain_allocs as f64 / batches as f64 / kev,
    );
    out.put_value(
        "core.store_kbytes",
        plain.lazy.traffic().store_bytes as f64 / 1024.0,
    );
    out.put_value("workloads.generate_ms", inputs.generate_ms);
    let trace_events: usize = inputs.traces.iter().map(Trace::len).sum();
    out.put_value("trace.events", trace_events as f64);
    write_spans(args, &tracers, ops);
}

/// Table 1 of the paper for LI: modeled messages and KiB per thousand
/// events, by the operation class they are charged to.
fn table1_split(inputs: &Inputs, out: &mut StageOutput, ops: &mut Ops) {
    let mut events = 0u64;
    let mut by_class = [(0u64, 0u64); 4];
    for trace in &inputs.traces {
        for page in PAGES {
            match run_trace(
                trace,
                ProtocolKind::LazyInvalidate,
                page,
                &SimOptions::fast(),
            ) {
                Ok(report) => {
                    ops.attempt(1);
                    events += report.events as u64;
                    for (slot, class) in by_class.iter_mut().zip(OpClass::ALL) {
                        let counter = report.class(class);
                        slot.0 += counter.msgs;
                        slot.1 += counter.bytes;
                    }
                }
                Err(e) => ops.check(false, || format!("LI @{page}: {e}")),
            }
        }
    }
    let kev = events as f64 / 1e3;
    for ((msgs, bytes), class) in by_class.into_iter().zip(OpClass::ALL) {
        out.put_value(&format!("simnet.{}_msgs", class.label()), msgs as f64 / kev);
        out.put_value(
            &format!("simnet.{}_kbytes", class.label()),
            bytes as f64 / 1024.0 / kev,
        );
    }
}

/// Vector-clock primitives at the replay's width, ns per call.
fn vclock_micro(seed: u64, out: &mut StageOutput) {
    const ITERS: u32 = 200_000;
    // Two clocks with entries from the seed, neither dominating the other.
    let entries = synth_write_bytes(seed as usize, 2 * PROCS);
    let clock = |entries: &[u8], bias: u32| {
        let mut c = VectorClock::new(PROCS);
        for (p, &entry) in ProcId::all(PROCS).zip(entries) {
            c.set(p, bias + entry as u32);
        }
        c
    };
    let (mut a, b) = (clock(&entries[..PROCS], 0), clock(&entries[PROCS..], 100));
    let ns_per_call = |start: Instant| start.elapsed().as_nanos() as f64 / ITERS as f64;

    let start = Instant::now();
    for _ in 0..ITERS {
        black_box(&mut a).merge(black_box(&b));
    }
    out.put_value("vclock.merge_ns", ns_per_call(start));

    let interval = IntervalId::new(ProcId::new(7), 600);
    let start = Instant::now();
    for _ in 0..ITERS {
        black_box(black_box(&a).covers(black_box(interval)));
    }
    out.put_value("vclock.covers_ns", ns_per_call(start));

    let start = Instant::now();
    for _ in 0..ITERS {
        black_box(black_box(&a).causal_cmp(black_box(&b)));
    }
    out.put_value("vclock.causal_cmp_ns", ns_per_call(start));
}
