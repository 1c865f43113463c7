//! Slow-path contention storm: N processors hammering *disjoint* locks
//! plus N processors generating *disjoint-page* misses, with a fetch hook
//! modeling network round-trip latency — the workload the runtime's miss
//! split (the fetch runs with the engine released; only a miss on a page
//! another processor is fetching waits) exists for, and the worst case
//! of an engine held across every fetch.
//!
//! The verdict is **counter-based**, not wall-clock-based, so it holds on
//! the single-core CI container where parallel speedup is invisible:
//! [`lrc_core::EngineCounters::slow_waits`] counts misses that waited on
//! another processor's fetch of their page, and `slow_waits_avoided`
//! counts slow-path entries that overlapped a fetch without waiting —
//! exactly the serialization an engine-wide mutex held across the fetch
//! imposed (5658 waits on this storm when it was last measured, against
//! 0). Results are written as machine-readable JSON to
//! `BENCH_sync_storm.json` (override with `--json PATH`).
//!
//! Two runs of the identical workload: **sharded** — the engine as
//! shipped — and **ablated** (piggybacking off, so every contended grant
//! trails a separate consistency message), which shows what the paper's
//! piggybacking saves under contention.
//!
//! Run with `cargo bench -p lrc-bench --bench sync_storm`. Flags:
//! `--smoke` shrinks the iteration counts for CI; `--check` exits
//! non-zero unless independent slow paths stayed independent (at most
//! [`MAX_SLOW_WAITS`] blocked entries, and misses on disjoint pages
//! overlapping) AND piggybacking saves messages — a regression that
//! re-serializes independent slow paths fails CI instead of shipping.

use std::time::{Duration, Instant};

use lrc_core::EngineCounters;
use lrc_dsm::{Dsm, DsmBuilder};
use lrc_sim::ProtocolKind;
use lrc_sync::LockId;

/// 4 processors on private locks + 2 ping-pong pairs generating misses.
const N_PROCS: usize = 8;
const PAGE_BYTES: usize = 512;
/// Modeled network round trip per miss, charged inside the fetch phase.
const FETCH_LATENCY: Duration = Duration::from_micros(200);
/// The `--check` bound on slow-path entries that blocked. The storm has
/// no true conflicts except a pair's own lock hand-offs, so the count
/// stays around ten; an engine-wide mutex blocked about half of all
/// acquires (thousands, hundreds under `--smoke`).
const MAX_SLOW_WAITS: u64 = 64;

/// Per-processor iteration counts (full / smoke).
struct Load {
    lock_iters: u64,
    pair_iters: u64,
}

/// One run's verdict, straight off the engine counters.
struct Outcome {
    counters: EngineCounters,
    /// Modeled protocol messages actually charged to the fabric.
    msgs: u64,
    elapsed: Duration,
}

/// Builds the runtime; `piggyback` off ablates write-notice piggybacking
/// (grants trail a separate consistency message).
fn build(piggyback: bool) -> Dsm {
    let mut builder = DsmBuilder::new(ProtocolKind::LazyInvalidate, N_PROCS, 1 << 16)
        .page_size(PAGE_BYTES)
        .locks(16)
        .wait_timeout(Duration::from_secs(120));
    if !piggyback {
        builder = builder.no_piggyback();
    }
    builder.build().expect("valid config")
}

/// Drives the storm: processors 0..4 hammer their own lock and their own
/// page (no sharing — pure slow-path traffic with zero true conflicts);
/// processors 4..8 form pairs sharing one lock and one counter page, so
/// every lock hand-off invalidates the new holder's copy and the next
/// read is a warm miss (diff fetch) on that pair's page — misses on
/// *disjoint* pages across pairs.
fn run(piggyback: bool, load: &Load) -> Outcome {
    let dsm = build(piggyback);
    dsm.engine()
        .set_fetch_hook(Box::new(|_p, _page| std::thread::sleep(FETCH_LATENCY)));
    let start = Instant::now();
    dsm.parallel(|proc| {
        let id = proc.proc().index();
        if id < N_PROCS / 2 {
            // Lock group: private lock, private page. Under an engine
            // held across the fetch every one of these acquires could
            // queue behind a sleeping miss; with the fetch outside the
            // engine they never wait.
            let lock = LockId::new(id as u32);
            let addr = (id as u64) * PAGE_BYTES as u64;
            for i in 0..load.lock_iters {
                proc.acquire(lock)?;
                proc.write_u64(addr, i);
                proc.release(lock)?;
            }
        } else {
            // Miss group: pairs (4,5) and (6,7) ping-pong a counter under
            // a shared lock; each hand-off makes the next read a warm
            // miss on the pair's page (and only that page).
            let pair = (id - N_PROCS / 2) / 2;
            let lock = LockId::new(8 + pair as u32);
            let addr = (N_PROCS as u64 + pair as u64) * PAGE_BYTES as u64;
            for _ in 0..load.pair_iters {
                proc.acquire(lock)?;
                let v = proc.read_u64(addr);
                proc.write_u64(addr, v + 1);
                proc.release(lock)?;
                // Give the partner the lock: on a single core a releaser
                // would otherwise re-acquire its own lock all timeslice
                // (a free local re-acquire, no hand-off, no miss). The
                // pause is what makes every iteration a real lock
                // transfer and therefore a real warm miss.
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        Ok(())
    })
    .expect("storm completes");
    Outcome {
        counters: dsm.engine().core().counters(),
        msgs: dsm.net_stats().total().msgs,
        elapsed: start.elapsed(),
    }
}

fn json_block(label: &str, o: &Outcome) -> String {
    let c = &o.counters;
    format!(
        "  \"{label}\": {{\n    \"slow_waits\": {},\n    \"slow_waits_avoided\": {},\n    \
         \"miss_inflight_peak\": {},\n    \"misses\": {},\n    \
         \"acquires\": {},\n    \"modeled_msgs\": {},\n    \"elapsed_ms\": {}\n  }}",
        c.slow_waits,
        c.slow_waits_avoided,
        c.miss_inflight_peak,
        c.misses(),
        c.acquires,
        o.msgs,
        o.elapsed.as_millis(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            // Cargo runs benches with the package as CWD; the committed
            // results live at the workspace root.
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sync_storm.json").to_string()
        });
    // `cargo bench` passes --bench; ignore it and any harness flags.
    let load = if smoke {
        Load {
            lock_iters: 300,
            pair_iters: 150,
        }
    } else {
        Load {
            lock_iters: 2000,
            pair_iters: 800,
        }
    };

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "sync_storm: {N_PROCS} procs ({} disjoint locks + {} miss pairs), \
         {:?} modeled fetch latency, {cores} host core(s){}",
        N_PROCS / 2,
        N_PROCS / 4,
        FETCH_LATENCY,
        if smoke { ", smoke" } else { "" },
    );

    let sharded = run(true, &load);
    let ablated = run(false, &load);

    println!(
        "{:>12} {:>12} {:>14} {:>10} {:>10} {:>12}",
        "", "slow waits", "waits avoided", "misses", "msgs", "elapsed"
    );
    for (label, o) in [("sharded", &sharded), ("ablated", &ablated)] {
        println!(
            "{:>12} {:>12} {:>14} {:>10} {:>10} {:>10}ms",
            label,
            o.counters.slow_waits,
            o.counters.slow_waits_avoided,
            o.counters.misses(),
            o.msgs,
            o.elapsed.as_millis(),
        );
    }
    println!(
        "sharded slow waits: {} (gate: <= {MAX_SLOW_WAITS}); peak misses in flight: {}",
        sharded.counters.slow_waits, sharded.counters.miss_inflight_peak
    );

    let json = format!(
        "{{\n  \"bench\": \"sync_storm\",\n  \"n_procs\": {N_PROCS},\n  \"page_bytes\": {PAGE_BYTES},\n  \
         \"fetch_latency_us\": {},\n  \"smoke\": {smoke},\n{},\n{}\n}}\n",
        FETCH_LATENCY.as_micros(),
        json_block("sharded", &sharded),
        json_block("ablated", &ablated),
    );
    std::fs::write(&json_path, &json).expect("write JSON results");
    println!("results written to {json_path}");

    if check {
        // The committed acceptance gate: independent slow paths must not
        // re-serialize. The storm's only true conflicts are a pair's own
        // lock hand-offs; anything beyond a handful of blocked entries
        // means unrelated slow paths queue behind each other again.
        assert!(
            sharded.counters.slow_waits <= MAX_SLOW_WAITS,
            "serialized-wait regression: {} slow-path entries blocked (gate: <= {MAX_SLOW_WAITS})",
            sharded.counters.slow_waits,
        );
        assert!(
            sharded.counters.miss_inflight_peak >= 2,
            "misses on disjoint pages no longer overlap (peak {})",
            sharded.counters.miss_inflight_peak
        );
        // The batching gate: piggybacking must save the separate
        // consistency message every contended transfer otherwise trails.
        assert!(
            sharded.msgs < ablated.msgs,
            "batching regression: the piggybacking run sent {} modeled messages, \
             the ablated baseline {} — nothing saved",
            sharded.msgs,
            ablated.msgs,
        );
        println!("check passed");
    }
}
