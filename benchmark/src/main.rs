//! The benchmark of the whole operation path. See `README.md` beside the
//! manifest for what is measured and why.
//!
//! ```text
//! lrc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one run; the last line of output is the result as JSON
//! lrc-benchmark [--seed N] [--seconds S]
//!     every workload, timed and traced: every metric by name
//! lrc-benchmark --smoke
//!     the same on shrunken inputs, a sanity check in seconds
//! lrc-benchmark --repeat N [--seed N] [--seconds S]
//!     N timed sets; do they agree within the bounds?
//! lrc-benchmark --print-manifest
//!     the text of /BENCHMARK.json
//! ```

mod alloc;
mod catalog;
mod repeat;
mod report;
mod run;
mod span;
mod stages;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::process::ExitCode;

use catalog::{Script, Stage, RUN_SECONDS, WORKLOADS};
use report::StageArgs;
use run::RunSpec;
use stats::Budget;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 1992;
const FLAGS: [&str; 2] = ["--smoke", "--print-manifest"];

/// `--key value` pairs and bare flags.
fn parse(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        if !key.starts_with("--") {
            return Err(format!("unexpected argument {key:?}"));
        }
        let value = if FLAGS.contains(&key.as_str()) {
            String::new()
        } else {
            it.next().ok_or(format!("{key} needs a value"))?.clone()
        };
        map.insert(key.clone(), value);
    }
    Ok(map)
}

struct Options(BTreeMap<String, String>);

impl Options {
    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("bad value {text:?} for {key}")),
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("--trace", 0u8)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("--trace takes 0 or 1, not {other}")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let seconds = self.get("--seconds", RUN_SECONDS as f64)?;
        if (0.0..=600.0).contains(&seconds) {
            Ok(seconds)
        } else {
            Err(format!("--seconds {seconds} is out of range"))
        }
    }
}

/// The process of one stage: measures and prints its readings.
fn stage_main(options: &Options) -> Result<ExitCode, String> {
    let stage_name: String = options.get("--stage", String::new())?;
    let script_name: String = options.get("--script", "small".to_string())?;
    let args = StageArgs {
        stage: Stage::from_name(&stage_name).ok_or(format!("no stage {stage_name:?}"))?,
        seed: options.get("--seed", DEFAULT_SEED)?,
        trace: options.trace()?,
        budget: Budget {
            seconds: options.seconds()?,
            min_batches: options.get("--min-batches", 1)?,
        },
        setups: options.get("--setups", 1)?,
        script: Script::from_name(&script_name).ok_or(format!("no script {script_name:?}"))?,
        smoke: options.has("--smoke"),
        spans_out: options.0.get("--spans-out").map(Into::into),
    };
    let output = stages::run(&args);
    print!("{}", output.render());
    Ok(if output.ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_one(spec: &RunSpec) -> bool {
    let result = run::run(spec);
    run::print_table(spec, &result);
    println!("{}", result.driver_json());
    result.correct()
}

fn main_with(options: &Options) -> Result<ExitCode, String> {
    if options.has("--stage") {
        return stage_main(options);
    }
    if options.has("--print-manifest") {
        print!("{}", catalog::manifest_json());
        return Ok(ExitCode::SUCCESS);
    }
    let smoke = options.has("--smoke");
    let seed = options.get("--seed", DEFAULT_SEED)?;
    let seconds = if smoke { 0.0 } else { options.seconds()? };
    let spec_of = |workload, trace| RunSpec {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    };
    let all_correct = if options.has("--repeat") {
        repeat::run(options.get("--repeat", 2)?, seed, seconds)
    } else if options.has("--workload") {
        let name: String = options.get("--workload", String::new())?;
        let workload = catalog::workload(&name).ok_or(format!("no workload {name:?}"))?;
        run_one(&spec_of(workload, options.trace()?))
    } else {
        // Every workload, timed and traced: every metric by name.
        let mut all_correct = true;
        for workload in &WORKLOADS {
            for trace in [false, true] {
                all_correct &= run_one(&spec_of(workload, trace));
            }
        }
        all_correct
    };
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|map| main_with(&Options(map))) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("lrc-benchmark: {message}");
            eprintln!("usage: lrc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] | --smoke | --repeat N | --print-manifest");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_counts_a_known_pattern() {
        // Other tests allocate on their own threads meanwhile, so demand
        // the exact count in one of several quiet moments and a lower
        // bound always.
        let mut exact = false;
        for _ in 0..200 {
            let before = alloc::snapshot();
            let kept: Vec<Vec<u8>> = (0..10).map(|_| Vec::with_capacity(1000)).collect();
            let delta = alloc::snapshot().since(before);
            drop(kept);
            assert!(delta.allocs >= 11 && delta.bytes >= 10_000, "{delta:?}");
            exact |= delta.allocs == 11 && delta.bytes == 10_000 + 10 * 24;
        }
        assert!(
            exact,
            "never saw exactly 10 buffers and the vector holding them"
        );
    }

    #[test]
    fn arguments_parse() {
        let args: Vec<String> = ["--workload", "op_small", "--trace", "1", "--smoke"]
            .map(String::from)
            .to_vec();
        let options = Options(parse(&args).unwrap());
        assert!(options.has("--smoke") && options.trace().unwrap());
        assert_eq!(options.get("--seed", 7u64).unwrap(), 7);
        assert!(parse(&["--seed".to_string()]).is_err());
        assert!(
            Options(parse(&["--trace".to_string(), "2".to_string()]).unwrap())
                .trace()
                .is_err()
        );
    }
}
