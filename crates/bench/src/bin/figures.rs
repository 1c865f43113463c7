//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p lrc-bench --bin figures -- all
//! cargo run --release -p lrc-bench --bin figures -- table1
//! cargo run --release -p lrc-bench --bin figures -- locusroute   # figures 5 and 6
//! cargo run --release -p lrc-bench --bin figures -- migratory    # figures 3 and 4
//! cargo run --release -p lrc-bench --bin figures -- summary      # section 5.4 categories
//! cargo run --release -p lrc-bench --bin figures -- ablation-diff
//! cargo run --release -p lrc-bench --bin figures -- ablation-piggyback
//! cargo run --release -p lrc-bench --bin figures -- ablation-gc
//! cargo run --release -p lrc-bench --bin figures -- matrix
//! cargo run --release -p lrc-bench --bin figures -- scale        # cost per event at 8..64 processors
//! ```
//!
//! Options: `--procs N` (default 16; `scale` ignores it and sets the
//! processor count itself), `--units N` (default 400; 40 for `scale`),
//! `--seed N` (default 1992).

use std::time::{Duration, Instant};

use lrc_sim::{run_trace, run_traced, sweep, Metric, ProtocolKind, SimOptions, SweepConfig};
use lrc_simnet::OpClass;
use lrc_trace::TraceStats;
use lrc_workloads::{micro, AppKind, Scale};

struct Args {
    command: String,
    scale: Scale,
}

fn parse_args() -> Args {
    let mut command = String::from("all");
    let mut scale = Scale::paper();
    let mut units = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--procs" => scale.procs = args.next().and_then(|v| v.parse().ok()).expect("--procs N"),
            "--units" => units = Some(args.next().and_then(|v| v.parse().ok()).expect("--units N")),
            "--seed" => scale.seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            other => command = other.to_string(),
        }
    }
    scale.units = match (units, command.as_str()) {
        (Some(units), _) => units,
        (None, "scale") => SCALING_UNITS,
        (None, _) => scale.units,
    };
    Args { command, scale }
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "all" => {
            table1();
            migratory();
            for app in AppKind::ALL {
                figures_for(app, &args.scale);
            }
            summary(&args.scale);
            ablation_diff(&args.scale);
            ablation_piggyback(&args.scale);
            ablation_gc(&args.scale);
            matrix();
        }
        "table1" => table1(),
        "migratory" => migratory(),
        "summary" => summary(&args.scale),
        "ablation-diff" => ablation_diff(&args.scale),
        "ablation-piggyback" => ablation_piggyback(&args.scale),
        "ablation-gc" => ablation_gc(&args.scale),
        "matrix" => matrix(),
        "scale" => scaling(args.scale.units, args.scale.seed),
        name => match AppKind::from_name(name) {
            Some(app) => figures_for(app, &args.scale),
            None => {
                eprintln!(
                    "unknown target '{name}'; use all, table1, migratory, summary, \
                     ablation-diff, ablation-piggyback, ablation-gc, matrix, scale, or \
                     an application name (locusroute, cholesky, mp3d, water, pthor)"
                );
                std::process::exit(2);
            }
        },
    }
}

/// Who talks to whom: the processor-to-processor message matrix of the
/// migratory pattern under LI vs EU — the chain versus the flood.
fn matrix() {
    let trace = lrc_workloads::micro::migratory(6, 60, 16);
    println!("== Communication matrix: migratory pattern, 6 processors\n");
    for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::EagerUpdate] {
        let (report, matrix) =
            run_traced(&trace, kind, 1024, &SimOptions::fast()).expect("legal trace");
        println!(
            "{} — {} messages across {} of 30 ordered pairs:",
            kind.label(),
            report.messages(),
            matrix.active_pairs()
        );
        println!("{matrix}");
    }
    println!("LRC's traffic follows the lock chain; eager update floods every cacher.\n");
}

/// The processor counts `scale` replays each application at.
const SCALING_PROCS: [usize; 4] = [8, 16, 32, 64];
/// `scale`'s default work units per application.
const SCALING_UNITS: usize = 40;
/// A cell of `scale` replays at least this many times, and for at least
/// [`SCALING_MIN`], and prints the median.
const SCALING_REPEATS: usize = 5;
/// See [`SCALING_REPEATS`].
const SCALING_MIN: Duration = Duration::from_millis(50);

/// How the cost of an event grows with the processor count: each
/// application replayed at 8 to 64 processors under all four protocols,
/// with 4096-byte pages. The times are wall-clock medians; the lazy
/// protocols' notice, diff and traffic counts are exact.
fn scaling(units: usize, seed: u64) {
    println!(
        "== Scaling: cost per event at n processors, 4096-byte pages, \
         {units} units, seed {seed}\n"
    );
    println!(
        "ns/event is wall-clock time on this machine, the median of at \
         least {SCALING_REPEATS} replays; every other column is an exact count.\n"
    );
    for app in AppKind::ALL {
        let mut counts = Vec::new();
        println!(
            "{app}\n{:>5} {:>8} {:>9} {:>9} {:>9} {:>9}",
            "n", "events", "LI ns/ev", "LU ns/ev", "EI ns/ev", "EU ns/ev"
        );
        for procs in SCALING_PROCS {
            let trace = app.generate(&Scale { procs, units, seed });
            print!("{procs:>5} {:>8}", trace.len());
            for kind in ProtocolKind::ALL {
                let mut ns = Vec::new();
                let cell = Instant::now();
                let report = loop {
                    let start = Instant::now();
                    let run =
                        run_trace(&trace, kind, 4096, &SimOptions::fast()).expect("legal trace");
                    ns.push(start.elapsed().as_nanos() as f64 / run.events as f64);
                    if ns.len() >= SCALING_REPEATS && cell.elapsed() >= SCALING_MIN {
                        break run;
                    }
                };
                ns.sort_by(f64::total_cmp);
                print!(" {:>9.1}", ns[ns.len() / 2]);
                if kind.is_lazy() {
                    counts.push((procs, report));
                }
            }
            println!();
        }
        println!(
            "{:>5} {:>5} {:>11} {:>11} {:>9} {:>9} {:>9}",
            "n", "proto", "notices/acq", "notices/kev", "diffs/kev", "msgs/kev", "KiB/kev"
        );
        for (procs, report) in &counts {
            let kev = report.events as f64 / 1000.0;
            let c = &report.counters;
            println!(
                "{procs:>5} {:>5} {:>11.2} {:>11.1} {:>9.1} {:>9.1} {:>9.2}",
                report.kind.label(),
                c.notices_received as f64 / c.acquires.max(1) as f64,
                c.notices_received as f64 / kev,
                c.diffs_applied as f64 / kev,
                report.messages() as f64 / kev,
                report.data_kbytes() / kev,
            );
        }
        println!();
    }
}

/// Table 1: per-operation message costs, measured on crafted scenarios
/// (the same scenarios tests/table1.rs asserts exactly).
fn table1() {
    println!("== Table 1: shared memory operation message costs (measured)\n");
    println!(
        "{:<6} {:>12} {:>10} {:>10} {:>14}",
        "proto", "miss", "lock", "unlock", "barrier"
    );
    let rows = [
        (ProtocolKind::LazyInvalidate, "2m", "3", "0", "2(n-1)"),
        (ProtocolKind::LazyUpdate, "2m", "3+2h", "0", "2(n-1)+2u"),
        (
            ProtocolKind::EagerInvalidate,
            "2 or 3",
            "3",
            "2c",
            "2(n-1)+2v",
        ),
        (ProtocolKind::EagerUpdate, "2 or 3", "3", "2c", "2(n-1)+2u"),
    ];
    for (kind, miss, lock, unlock, barrier) in rows {
        println!(
            "{:<6} {miss:>12} {lock:>10} {unlock:>10} {barrier:>14}",
            kind.label()
        );
    }
    println!("\n(cost model verified exactly by tests/table1.rs)\n");
}

/// Figures 3 and 4: the migratory pattern's traffic per protocol.
fn migratory() {
    let trace = micro::migratory(4, 100, 16);
    println!("== Figures 3/4: repeated lock hand-off (4 procs x 100 rounds)\n");
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>10} {:>12}",
        "proto", "miss", "lock", "unlock", "total", "data(KB)"
    );
    for kind in ProtocolKind::ALL {
        let r = run_trace(&trace, kind, 1024, &SimOptions::fast()).expect("legal trace");
        println!(
            "{:<6} {:>9} {:>9} {:>9} {:>10} {:>12.1}",
            kind.label(),
            r.class(OpClass::Miss).msgs,
            r.class(OpClass::Lock).msgs,
            r.class(OpClass::Unlock).msgs,
            r.messages(),
            r.data_kbytes()
        );
    }
    println!();
}

/// One application's two figures (messages and data vs page size).
fn figures_for(app: AppKind, scale: &Scale) {
    let (fig_m, fig_d) = app.figures();
    let trace = app.generate(scale);
    println!(
        "== Figures {fig_m}/{fig_d}: {app} ({} procs)\n\ntrace: {}\n",
        scale.procs,
        TraceStats::compute(&trace)
    );
    let result = sweep(&trace, &SweepConfig::default()).expect("sweep runs");
    println!("{}", result.render(Metric::Messages));
    println!("{}", result.render(Metric::DataKbytes));
}

/// §5.4's category summary: lazy-vs-eager ratios per application.
fn summary(scale: &Scale) {
    println!("== Section 5.4 summary: eager/lazy ratios at 4096-byte pages\n");
    println!(
        "{:<12} {:>10} {:>16} {:>16}",
        "app", "category", "msgs EI/LI", "data EI/LI"
    );
    for app in AppKind::ALL {
        let trace = app.generate(scale);
        let li = run_trace(
            &trace,
            ProtocolKind::LazyInvalidate,
            4096,
            &SimOptions::fast(),
        )
        .expect("legal trace");
        let ei = run_trace(
            &trace,
            ProtocolKind::EagerInvalidate,
            4096,
            &SimOptions::fast(),
        )
        .expect("legal trace");
        let category = match app {
            AppKind::Mp3d | AppKind::Water => "barrier",
            _ => "migratory",
        };
        println!(
            "{:<12} {:>10} {:>16.2} {:>16.2}",
            app.name(),
            category,
            ei.messages() as f64 / li.messages() as f64,
            ei.data_bytes() as f64 / li.data_bytes() as f64,
        );
    }
    println!();
}

/// Ablation A1: disable the §4.3.3 optimization (diffs on warm misses).
fn ablation_diff(scale: &Scale) {
    println!("== Ablation: ship whole pages on warm misses (disable section 4.3.3)\n");
    println!(
        "{:<12} {:>10} {:>16} {:>16} {:>9}",
        "app", "page", "LI diffs KB", "LI pages KB", "ratio"
    );
    for app in [AppKind::Mp3d, AppKind::Water] {
        let trace = app.generate(scale);
        for page in [1024usize, 8192] {
            let with = run_trace(
                &trace,
                ProtocolKind::LazyInvalidate,
                page,
                &SimOptions::fast(),
            )
            .expect("legal trace");
            let without = run_trace(
                &trace,
                ProtocolKind::LazyInvalidate,
                page,
                &SimOptions {
                    full_page_misses: true,
                    ..SimOptions::fast()
                },
            )
            .expect("legal trace");
            println!(
                "{:<12} {:>10} {:>16.1} {:>16.1} {:>9.2}",
                app.name(),
                page,
                with.data_kbytes(),
                without.data_kbytes(),
                without.data_bytes() as f64 / with.data_bytes() as f64
            );
        }
    }
    println!();
}

/// Extension: barrier-time garbage collection (TreadMarks-style) — the
/// traffic cost of bounding the consistency history.
fn ablation_gc(scale: &Scale) {
    println!("== Extension: barrier-time garbage collection (LI)\n");
    println!(
        "{:<12} {:>12} {:>12} {:>9} {:>16}",
        "app", "no-GC msgs", "GC msgs", "ratio", "no-GC hist. KB"
    );
    for app in [AppKind::Mp3d, AppKind::Water] {
        let trace = app.generate(scale);
        let without = run_trace(
            &trace,
            ProtocolKind::LazyInvalidate,
            4096,
            &SimOptions::fast(),
        )
        .expect("legal trace");
        let with = run_trace(
            &trace,
            ProtocolKind::LazyInvalidate,
            4096,
            &SimOptions {
                gc_at_barriers: true,
                ..SimOptions::fast()
            },
        )
        .expect("legal trace");
        println!(
            "{:<12} {:>12} {:>12} {:>9.2} {:>16.1}",
            app.name(),
            without.messages(),
            with.messages(),
            with.messages() as f64 / without.messages() as f64,
            without.history_bytes.unwrap_or(0) as f64 / 1024.0
        );
    }
    println!();
}

/// Ablation A2: send write notices in separate messages instead of
/// piggybacking them on lock grants.
fn ablation_piggyback(scale: &Scale) {
    println!("== Ablation: separate write-notice messages (no piggybacking)\n");
    println!(
        "{:<12} {:>16} {:>18} {:>9}",
        "app", "LI piggyback", "LI separate", "ratio"
    );
    for app in [AppKind::LocusRoute, AppKind::Cholesky, AppKind::Pthor] {
        let trace = app.generate(scale);
        let with = run_trace(
            &trace,
            ProtocolKind::LazyInvalidate,
            4096,
            &SimOptions::fast(),
        )
        .expect("legal trace");
        let without = run_trace(
            &trace,
            ProtocolKind::LazyInvalidate,
            4096,
            &SimOptions {
                piggyback_notices: false,
                ..SimOptions::fast()
            },
        )
        .expect("legal trace");
        println!(
            "{:<12} {:>16} {:>18} {:>9.2}",
            app.name(),
            with.messages(),
            without.messages(),
            without.messages() as f64 / with.messages() as f64
        );
    }
    println!();
}
