//! Hist stage: what a developer verifying a run pays. Two histories are
//! recorded deterministically by driving a `Dsm` with a `HistoryRecorder`
//! from one thread — `mixed`, a generated four-processor program of locks,
//! private data and barrier exchanges, and `hot`, one processor writing
//! and reading one word — and `History::check` on both is timed. Only
//! `lrc::hist` works here; the engines run during set-up alone.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use lrc::dsm::{Dsm, DsmBuilder};
use lrc::hist::{CheckBudget, HistEvent, History, HistoryRecorder};
use lrc::sim::ProtocolKind;
use lrc::vclock::ProcId;
use lrc::workloads::{ProgramShape, ThreadOp, ThreadProgram};

use super::{overhead_pct, put_process_readings, set_up, write_spans};
use crate::catalog::TRACE_OVERHEAD;
use crate::report::{Ops, StageArgs, StageOutput};
use crate::span::{self, Recorder, Tracer};
use crate::stats::{Clock, Stopwatch, Summary};

const PAGE_BYTES: usize = 512;

/// Sizes chosen so that checking both histories takes about 0.1 s: the
/// justification and race scans are quadratic, so they dominate well
/// before the histories get long.
struct Sizes {
    /// Operations of the mixed program, within one phase's worth.
    mixed_ops: usize,
    hot_pairs: u64,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            mixed_ops: 1_500,
            hot_pairs: 300,
        }
    } else {
        Sizes {
            mixed_ops: 12_000,
            hot_pairs: 1_500,
        }
    }
}

/// A generated program of very nearly `ops` operations whatever the
/// seed: the check's cost is quadratic in the history's length, so a few
/// percent more commands drawn would read as a slower checker. Phases are
/// independent by construction, so any prefix of them is a program too.
fn mixed_program(seed: u64, ops: usize) -> ThreadProgram {
    let shape = ProgramShape {
        n_procs: 4,
        n_locks: 4,
        // Enough to reach `ops` even if every command were the shortest.
        phases: ops / 8,
        max_cmds: 8,
    };
    let mut program = ThreadProgram::generate(seed, &shape);
    let mut total = 0;
    let fitting = program
        .phases
        .iter()
        .take_while(|phase| {
            let alone = ThreadProgram {
                phases: vec![(*phase).clone()],
                ..program
            };
            // The phase's own operations and the barrier that ends it.
            total += alone.op_count() + program.n_procs;
            total <= ops
        })
        .count();
    program.phases.truncate(fitting.max(1));
    program
}

fn build(n_procs: usize, mem_bytes: u64, n_locks: usize) -> Dsm {
    DsmBuilder::new(ProtocolKind::LazyInvalidate, n_procs, mem_bytes)
        .page_size(PAGE_BYTES)
        .locks(n_locks)
        .barriers(1)
        .build()
        .expect("valid configuration")
}

/// Runs `program` on one thread: each processor in turn executes its
/// script up to its next barrier, then all of them arrive (at the engine,
/// whose arrival never blocks). Returns the number of operations
/// executed, each of which the recorder logs as one event.
fn drive_mixed(dsm: &Dsm, program: &ThreadProgram, ops: &mut Ops) -> u64 {
    let mut scripts: Vec<_> = ProcId::all(program.n_procs)
        .map(|p| (dsm.handle(p), program.ops_for(p).into_iter().peekable()))
        .collect();
    let mut executed = 0u64;
    loop {
        for (handle, script) in &mut scripts {
            while let Some(op) = script.next_if(|op| !matches!(op, ThreadOp::Barrier(_))) {
                executed += 1;
                let done = match op {
                    ThreadOp::Acquire(lock) => handle.acquire(lock),
                    ThreadOp::Release(lock) => handle.release(lock),
                    ThreadOp::Read { addr } => {
                        black_box(handle.read_u64(addr));
                        Ok(())
                    }
                    ThreadOp::Write { addr, value } => {
                        handle.write_u64(addr, value);
                        Ok(())
                    }
                    ThreadOp::Barrier(_) => unreachable!("filtered by next_if"),
                };
                ops.check(done.is_ok(), || format!("mixed script: {done:?}"));
            }
        }
        let mut arrivals = 0;
        for (handle, script) in &mut scripts {
            if let Some(ThreadOp::Barrier(barrier)) = script.next() {
                arrivals += 1;
                executed += 1;
                let arrived = dsm.engine().barrier(handle.proc(), barrier);
                ops.check(arrived.is_ok(), || format!("mixed barrier: {arrived:?}"));
            }
        }
        if arrivals == 0 {
            return executed;
        }
    }
}

/// One processor, `pairs` write/read pairs of one word.
fn drive_hot(dsm: &Dsm, pairs: u64, ops: &mut Ops) {
    let mut handle = dsm.handle(ProcId::new(0));
    for i in 1..=pairs {
        handle.write_u64(0, i);
        let got = handle.read_u64(0);
        ops.check(got == i, || {
            format!("hot word read {got} after writing {i}")
        });
    }
}

struct Recorded {
    mixed: History,
    hot: History,
    /// Nanoseconds the recorder added per recorded event of `mixed`.
    record_ns_per_event: f64,
}

fn record(args: &StageArgs, ops: &mut Ops) -> Recorded {
    let Sizes {
        mixed_ops,
        hot_pairs,
    } = sizes(args.smoke);
    let program = mixed_program(args.seed, mixed_ops);
    let dsm_for = || build(program.n_procs, program.mem_bytes(), program.n_locks);

    let bare = dsm_for();
    let start = Instant::now();
    drive_mixed(&bare, &program, ops);
    let bare_s = start.elapsed().as_secs_f64();

    let recorder = HistoryRecorder::new(program.n_procs);
    let dsm = dsm_for();
    dsm.attach_recorder(Arc::clone(&recorder));
    let start = Instant::now();
    let executed = drive_mixed(&dsm, &program, ops);
    let recorded_s = start.elapsed().as_secs_f64();
    let mixed = recorder.finish();
    ops.check(mixed.len() as u64 == executed, || {
        format!("recorded {} events of {executed} operations", mixed.len())
    });

    let recorder = HistoryRecorder::new(1);
    let dsm = build(1, PAGE_BYTES as u64, 1);
    dsm.attach_recorder(Arc::clone(&recorder));
    drive_hot(&dsm, hot_pairs, ops);
    let hot = recorder.finish();
    ops.check(hot.len() as u64 == 2 * hot_pairs, || {
        format!(
            "recorded {} events of {} hot accesses",
            hot.len(),
            2 * hot_pairs
        )
    });

    Recorded {
        record_ns_per_event: (recorded_s - bare_s) * 1e9 / mixed.len().max(1) as f64,
        mixed,
        hot,
    }
}

/// A copy of `history` in which the last read that observed a written
/// value observed something else — the checker must reject it.
fn with_one_read_flipped(history: &History) -> Option<History> {
    let mut logs: Vec<Vec<HistEvent>> = ProcId::all(history.n_procs())
        .map(|p| history.log(p).to_vec())
        .collect();
    let read = logs
        .iter_mut()
        .flatten()
        .rev()
        .find_map(|event| match event {
            HistEvent::Read { value, .. } if value.iter().any(|&b| b != 0) => Some(value),
            _ => None,
        })?;
    read[0] ^= 0xff;
    Some(History::from_logs(logs))
}

/// Checks both histories; returns seconds taken.
fn check_both(recorded: &Recorded, clock: Clock, ops: &mut Ops) -> f64 {
    let budget = CheckBudget::default();
    let watch = Stopwatch::start(clock);
    for (label, history) in [("mixed", &recorded.mixed), ("hot", &recorded.hot)] {
        let report = black_box(history).check(&budget);
        let ok = matches!(&report, Ok(r) if r.events == history.len());
        ops.check(ok, || format!("check of {label}: {report:?}"));
    }
    watch.seconds()
}

fn setup(args: &StageArgs, ops: &mut Ops) -> Recorded {
    let recorded = record(args, ops);
    // Negative control: a checker that accepts everything would pass the
    // timed checks too.
    let rejected = with_one_read_flipped(&recorded.mixed)
        .map(|bad| bad.check(&CheckBudget::default()).is_err());
    ops.check(rejected == Some(true), || {
        format!("a history with one read flipped was not rejected ({rejected:?})")
    });
    check_both(&recorded, Clock::Wall, ops);
    recorded
}

pub fn run(args: &StageArgs) -> StageOutput {
    let mut out = StageOutput::default();
    let mut ops = Ops::default();
    let (recorded, setup_s) = set_up(args.setups, args.clock(), || setup(args, &mut ops));
    if args.trace {
        traced(args, &recorded, &mut out, &mut ops);
    } else {
        let mut secs = Vec::new();
        out.measure_s = args
            .budget
            .run(|_| secs.push(check_both(&recorded, args.clock(), &mut ops)));
        out.put("hist_check_s", Summary::of(&secs));
    }
    put_process_readings(&mut out, setup_s);
    out.ops = ops;
    out
}

const PHASES: [(&str, &str, &str); 2] = [
    (
        "hist.mixed_drf",
        "hist.mixed_justified",
        "hist.mixed_witness",
    ),
    ("hist.hot_drf", "hist.hot_justified", "hist.hot_witness"),
];

/// The checker's three public phases, timed one by one, in turns with
/// plain checks. Each phase rebuilds the happens-before relation that
/// `check` builds once, so their sum exceeds a plain check; the overhead
/// reading says by how much.
fn traced(args: &StageArgs, recorded: &Recorded, out: &mut StageOutput, ops: &mut Ops) {
    let mut rec = Tracer::new(Instant::now(), 1_000);
    let budget = CheckBudget::default();
    let mut plain_s = Vec::new();
    out.measure_s = args.budget.paired().run(|i| {
        plain_s.push(check_both(recorded, Clock::Wall, ops));
        let round = i as u32;
        rec.open("hist.check_both", round);
        for (history, (drf, justified, witness)) in
            [&recorded.mixed, &recorded.hot].into_iter().zip(PHASES)
        {
            let race_free = rec.timed(drf, round, || {
                history.check_drf().map_err(|e| e.to_string())
            });
            let explained = rec.timed(justified, round, || {
                history.check_justified().map_err(|e| e.to_string())
            });
            let found = rec.timed(witness, round, || {
                history.sc_witness(&budget).map_err(|e| e.to_string())
            });
            let complete = matches!(&found, Ok(w) if w.schedule.len() == history.len());
            ops.check(race_free.is_ok() && explained.is_ok() && complete, || {
                format!("{drf}: {race_free:?}, {explained:?}, witness complete: {complete}")
            });
        }
        rec.close();
    });
    let tracers = [rec];
    for (drf, justified, witness) in PHASES {
        for name in [drf, justified, witness] {
            out.put_value(
                &format!("{name}_ms"),
                span::agg(&tracers, name).mean_us() / 1e3,
            );
        }
    }
    let states: usize = [&recorded.mixed, &recorded.hot]
        .into_iter()
        .filter_map(|history| history.check(&budget).ok())
        .map(|report| report.states_explored)
        .sum();
    out.put_value("hist.witness_states", states as f64);
    out.put_value(
        "hist.events",
        (recorded.mixed.len() + recorded.hot.len()) as f64,
    );
    out.put_value("hist.record_ns_per_event", recorded.record_ns_per_event);
    let traced_s = span::agg(&tracers, "hist.check_both").mean_us() / 1e6;
    out.put_value(
        TRACE_OVERHEAD,
        overhead_pct(Summary::of(&plain_s).median, traced_s),
    );
    write_spans(args, &tracers, ops);
}
