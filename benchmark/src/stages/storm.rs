//! Storm stage: the only one where concurrency decides the result. Four
//! OS threads; two pairs ping-pong a counter under disjoint locks on
//! disjoint pages while a fetch hook sleeps 200 µs per miss, so time is
//! the critical path of modeled fetches. Slow paths that overlap are
//! worth 2×; CPU cost is worth nothing. Closed loop: a thread's next
//! round starts when its previous one is done.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lrc::dsm::{Dsm, DsmBuilder, DsmError};
use lrc::sim::ProtocolKind;
use lrc::sync::LockId;
use lrc::vclock::ProcId;

use super::{overhead_pct, put_process_readings, set_up, write_spans};
use crate::catalog::TRACE_OVERHEAD;
use crate::report::{Ops, StageArgs, StageOutput};
use crate::span::{self, Off, Recorder, Tracer};
use crate::stats::{self, Clock, Summary};

const N_PROCS: usize = 4;
const PAGE_BYTES: usize = 512;
/// Modeled network round trip per miss, slept inside the fetch hook.
const FETCH_LATENCY: Duration = Duration::from_micros(200);
/// Pause after each release, so the partner takes the lock and every
/// round is a real hand-off with a real warm miss.
const HANDOFF_PAUSE: Duration = Duration::from_micros(50);
/// A lost wake-up fails the run instead of hanging it.
const WAIT_TIMEOUT: Duration = Duration::from_secs(120);
const SPAN_CAP: usize = 5_000;

/// Rounds each thread makes per batch: about 0.1 s.
fn rounds_per_thread(smoke: bool) -> u64 {
    if smoke {
        20
    } else {
        150
    }
}

/// What the fetch hook saw: how often it ran and for how long in total.
#[derive(Default)]
struct HookStats {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

fn build(hook: Option<Arc<HookStats>>) -> Dsm {
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, N_PROCS, 1 << 14)
        .page_size(PAGE_BYTES)
        .locks(2)
        .wait_timeout(WAIT_TIMEOUT)
        .build()
        .expect("valid configuration");
    dsm.engine().set_fetch_hook(Box::new(move |_proc, _page| {
        let start = Instant::now();
        std::thread::sleep(FETCH_LATENCY);
        if let Some(stats) = &hook {
            // Relaxed: two statistics, read after the threads are joined.
            stats.calls.fetch_add(1, Ordering::Relaxed);
            stats
                .busy_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }));
    dsm
}

fn pair_of(proc: ProcId) -> usize {
    proc.index() / 2
}

fn counter_addr(pair: usize) -> u64 {
    (pair * PAGE_BYTES) as u64
}

/// What one batch measured.
struct Batch {
    /// Seconds the threads ran.
    secs: f64,
    /// How long each round of each thread took, pause included.
    round_ns: Vec<u32>,
}

/// One batch on a fresh DSM: every thread makes `rounds` increments of
/// its pair's counter.
fn batch<R: Recorder + Send>(
    dsm: &Dsm,
    rounds: u64,
    recorders: &Mutex<Vec<R>>,
    new_recorder: impl Fn() -> R + Sync,
    ops: &mut Ops,
) -> Batch {
    let round_ns = Mutex::new(Vec::new());
    let start = Instant::now();
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dsm.parallel(|proc| -> Result<(), DsmError> {
            let mut rec = new_recorder();
            let mut took = Vec::with_capacity(rounds as usize);
            let pair = pair_of(proc.proc());
            let (lock, addr) = (LockId::new(pair as u32), counter_addr(pair));
            for round in 0..rounds as u32 {
                let round_start = Instant::now();
                rec.open("storm.round", round);
                rec.timed("dsm.acquire_wait", round, || proc.acquire(lock))?;
                let value = rec.timed("dsm.read_miss", round, || proc.read_u64(addr));
                proc.write_u64(addr, value + 1);
                rec.timed("dsm.release", round, || proc.release(lock))?;
                rec.close();
                std::thread::sleep(HANDOFF_PAUSE);
                took.push(round_start.elapsed().as_nanos() as u32);
            }
            recorders.lock().expect("no recorder user panics").push(rec);
            round_ns.lock().expect("no user panics").extend(took);
            Ok(())
        })
    }));
    let secs = start.elapsed().as_secs_f64();
    ops.attempt(N_PROCS as u64 * rounds * 4);
    match ran {
        Ok(Ok(())) => {}
        Ok(Err(e)) => ops.fail(|| format!("a storm thread failed: {e}")),
        // `wait_timeout` panics in the stuck thread; `parallel` re-raises it.
        Err(_) => ops.fail(|| "a storm thread panicked (wait deadline exceeded?)".to_string()),
    }
    // The lost-increment invariant: each counter was incremented once per
    // round by each of its two threads.
    for pair in 0..N_PROCS / 2 {
        let mut handle = dsm.handle(ProcId::new((2 * pair) as u16));
        let lock = LockId::new(pair as u32);
        let locked = handle.acquire(lock);
        let value = handle.read_u64(counter_addr(pair));
        let unlocked = handle.release(lock);
        ops.check(
            locked.is_ok() && unlocked.is_ok() && value == 2 * rounds,
            || format!("pair {pair}: counter is {value}, expected {}", 2 * rounds),
        );
    }
    Batch {
        secs,
        round_ns: round_ns.into_inner().expect("no user panics"),
    }
}

/// Rounds per second of all threads in steady state: the thread count
/// over the median round time. A stall of the host lengthens a few
/// rounds and a batch's elapsed time with them, but not the median round;
/// slow paths that stopped overlapping lengthen every round.
fn steady_rate(round_ns: Vec<u32>) -> Summary {
    let mut round_ns: Vec<f64> = round_ns.into_iter().map(f64::from).collect();
    round_ns.sort_by(f64::total_cmp);
    let rate_at = |p: f64| N_PROCS as f64 * 1e9 / stats::quantile(&round_ns, p);
    Summary {
        median: rate_at(0.5),
        q1: rate_at(0.75),
        q3: rate_at(0.25),
        min: rate_at(1.0),
        n: round_ns.len(),
    }
}

fn plain_batch(rounds: u64, ops: &mut Ops) -> Batch {
    batch(&build(None), rounds, &Mutex::new(Vec::new()), || Off, ops)
}

pub fn run(args: &StageArgs) -> StageOutput {
    let mut out = StageOutput::default();
    let mut ops = Ops::default();
    let rounds = rounds_per_thread(args.smoke);
    let ((), setup_s) = set_up(args.setups, Clock::Wall, || {
        plain_batch(rounds, &mut ops);
    });
    if args.trace {
        traced(args, rounds, &mut out, &mut ops);
    } else {
        let mut round_ns = Vec::new();
        out.measure_s = args
            .budget
            .run(|_| round_ns.extend(plain_batch(rounds, &mut ops).round_ns));
        out.put("storm_rounds_per_s", steady_rate(round_ns));
    }
    put_process_readings(&mut out, setup_s);
    out.ops = ops;
    out
}

/// Plain and traced batches take turns, so that both see the same
/// machine and their difference is the tracing, not the minute.
fn traced(args: &StageArgs, rounds: u64, out: &mut StageOutput, ops: &mut Ops) {
    let epoch = Instant::now();
    let hook = Arc::new(HookStats::default());
    let tracers = Mutex::new(Vec::new());
    let (mut secs, mut msgs, mut kbytes, mut batches) = (0.0, 0u64, 0.0, 0u64);
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    out.measure_s = args.budget.paired().run(|_| {
        plain_ns.extend(plain_batch(rounds, ops).round_ns);
        let dsm = build(Some(Arc::clone(&hook)));
        let batch = batch(&dsm, rounds, &tracers, || Tracer::new(epoch, SPAN_CAP), ops);
        secs += batch.secs;
        traced_ns.extend(batch.round_ns);
        // Includes the four reads of the invariant check, a constant.
        let net = dsm.net_stats().total();
        msgs += net.msgs;
        kbytes += net.kbytes();
        batches += 1;
    });
    let tracers = tracers.into_inner().expect("no recorder user panics");
    let total_rounds = (batches * N_PROCS as u64 * rounds) as f64;

    out.put_value(
        "core.fetch_calls_per_round",
        hook.calls.load(Ordering::Relaxed) as f64 / total_rounds,
    );
    // Above 1, misses of different pairs overlapped; a serialised engine
    // cannot exceed 1.
    out.put_value(
        "core.miss_overlap",
        hook.busy_ns.load(Ordering::Relaxed) as f64 / 1e9 / secs,
    );
    let acquire = span::agg(&tracers, "dsm.acquire_wait");
    out.put_value("dsm.acquire_wait_p50_us", acquire.quantile_us(0.5));
    out.put_value("dsm.acquire_wait_p99_us", acquire.quantile_us(0.99));
    out.put_value(
        "dsm.read_miss_p50_us",
        span::agg(&tracers, "dsm.read_miss").quantile_us(0.5),
    );
    out.put_value(
        "dsm.release_us",
        span::agg(&tracers, "dsm.release").mean_us(),
    );
    out.put_value("simnet.storm_msgs_per_round", msgs as f64 / total_rounds);
    out.put_value("simnet.storm_kbytes_per_round", kbytes / total_rounds);
    // Rates, so the slower run is the smaller number.
    let (plain, traced) = (steady_rate(plain_ns).median, steady_rate(traced_ns).median);
    out.put_value(TRACE_OVERHEAD, overhead_pct(traced, plain));
    write_spans(args, &tracers, ops);
}
