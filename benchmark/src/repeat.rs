//! `--repeat N`: N timed sets of every workload on one seed, and whether
//! the sets agree within the benchmark's own bounds. A metric that cannot
//! agree with itself cannot judge a change.

use crate::catalog::{END_TO_END, WORKLOADS};
use crate::run::{self, RunSpec};

/// Runs the sets, prints the comparison, and returns whether every run
/// was correct and every metric agreed.
pub fn run(sets: usize, seed: u64, seconds: f64) -> bool {
    let sets = sets.max(2);
    let mut all_ok = true;
    println!("# {sets} sets of every workload, seed {seed}, {seconds} s per run");
    println!(
        "{:<14} {:<28} {:>10} {:>7}  verdict   medians per set",
        "workload", "metric", "spread", "bound"
    );
    for workload in &WORKLOADS {
        let results: Vec<_> = (0..sets)
            .map(|_| {
                run::run(&RunSpec {
                    workload,
                    seed,
                    seconds,
                    trace: false,
                    smoke: false,
                })
            })
            .collect();
        for result in &results {
            all_ok &= result.correct();
            for failure in &result.ops.failures {
                println!("FAILED in {}: {failure}", workload.name);
            }
        }
        for metric in &END_TO_END {
            let mut medians: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metric(metric.name))
                .map(|m| m.stat.median)
                .collect();
            let shown: Vec<String> = medians.iter().map(|v| format!("{v:.4}")).collect();
            medians.sort_by(f64::total_cmp);
            let (low, high) = (medians[0], medians[medians.len() - 1]);
            let middle = crate::stats::quantile(&medians, 0.5);
            let spread = (high - low) / middle;
            let within = if metric.exact {
                spread == 0.0
            } else {
                spread <= metric.bound
            };
            let agree = medians.len() == sets && within;
            all_ok &= agree;
            let allowed = if metric.exact { 0.0 } else { metric.bound };
            println!(
                "{:<14} {:<28} {:>9.2}% {:>6.0}%  {:<9} {}",
                workload.name,
                metric.name,
                spread * 100.0,
                allowed * 100.0,
                if agree { "agree" } else { "DISAGREE" },
                shown.join("  "),
            );
        }
    }
    all_ok
}
