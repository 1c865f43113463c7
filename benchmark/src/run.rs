//! One run of one workload: every stage in a process of its own, the
//! single-threaded ones pinned to one CPU, their readings merged into the
//! result the driver reads and into the report files under `out/`.

use std::fmt::Write as _;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::catalog::{self, Stage, Workload, END_TO_END, PER_LAYER};
use crate::report::{Ops, StageArgs, StageOutput};
use crate::stats::{Budget, Summary};
use crate::sys::{self, Env};

/// Batches a metric's median is taken over, at the least: single 0.1 s
/// batches on this machine vary by ±15%.
const MIN_BATCHES: usize = 11;
const SMOKE_MIN_BATCHES: usize = 2;
/// Set-ups of the primary stage; `setup_s` is their median.
const SETUPS: usize = 3;
/// No stage takes a tenth of this; a stage that does is stuck.
const STAGE_DEADLINE: Duration = Duration::from_secs(120);

#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub stat: Summary,
}

pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub ops: Ops,
    /// Whether the single-threaded stages ran pinned to one CPU.
    pub pinned: bool,
    /// Seconds spent inside timed batches, all stages together.
    pub measure_s: f64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The line the driver reads.
    pub fn driver_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    m.stat.median,
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ops.attempted.max(1),
            self.ops.failed,
            metrics.join(", ")
        )
    }
}

pub fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where reports and traces go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn stage_command(args: &StageArgs, pin_to: Option<u32>) -> std::io::Result<Command> {
    let exe = std::env::current_exe()?;
    let mut command = match pin_to {
        Some(cpu) => {
            let mut command = Command::new("taskset");
            command.arg("-c").arg(cpu.to_string()).arg(exe);
            command
        }
        None => Command::new(exe),
    };
    command
        .args(["--stage", args.stage.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--seconds", &args.budget.seconds.to_string()])
        .args(["--min-batches", &args.budget.min_batches.to_string()])
        .args(["--setups", &args.setups.to_string()])
        .args(["--script", args.script.name()]);
    if args.smoke {
        command.arg("--smoke");
    }
    if let Some(path) = &args.spans_out {
        command.arg("--spans-out").arg(path);
    }
    command.stdin(Stdio::null()).stdout(Stdio::piped());
    Ok(command)
}

/// Runs one stage in a child process and waits for it. `Err` says why
/// there is no output to read.
fn run_stage(args: &StageArgs, pin_to: Option<u32>) -> Result<StageOutput, String> {
    let mut child = stage_command(args, pin_to)
        .and_then(|mut command| command.spawn())
        .map_err(|e| format!("cannot start stage {}: {e}", args.stage.name()))?;
    let started = Instant::now();
    // A stage prints a few kilobytes, less than a pipe holds, so it never
    // blocks on a parent that reads only after it has ended.
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() < STAGE_DEADLINE => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("stage {} hung and was killed", args.stage.name()));
            }
            Err(e) => return Err(format!("waiting for stage {}: {e}", args.stage.name())),
        }
    };
    let mut text = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        stdout
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stage {}: {e}", args.stage.name()))?;
    }
    StageOutput::parse(&text).ok_or_else(|| {
        format!(
            "stage {} died without a result ({status})",
            args.stage.name()
        )
    })
}

/// The CPU to pin single-threaded stages to: the highest this process
/// may use, if there is a `taskset` to pin with.
fn pin_cpu() -> Option<u32> {
    let cpu = sys::highest_allowed_cpu()?;
    let works = Command::new("taskset")
        .args(["-c", &cpu.to_string(), "true"])
        .stdin(Stdio::null())
        .status();
    matches!(works, Ok(status) if status.success()).then_some(cpu)
}

pub fn run(spec: &RunSpec) -> RunResult {
    let out_dir = out_dir();
    let made = std::fs::create_dir_all(&out_dir);
    let mut ops = Ops::default();
    ops.check(made.is_ok(), || {
        format!("create {}: {made:?}", out_dir.display())
    });

    let min_batches = if spec.smoke {
        SMOKE_MIN_BATCHES
    } else {
        MIN_BATCHES
    };
    let primary = spec.workload.primary;
    // The other stages first, each for its minimum of batches; the
    // primary stage then measures for the rest of the run's seconds.
    let mut order: Vec<Stage> = Stage::ALL.into_iter().filter(|s| *s != primary).collect();
    order.push(primary);

    let mut outputs: Vec<(Stage, StageOutput)> = Vec::new();
    let pin = pin_cpu();
    let mut measure_s = 0.0;
    let mut span_files = Vec::new();
    for stage in order {
        let is_primary = stage == primary;
        let spans_out = spec.trace.then(|| {
            out_dir.join(format!(
                "{}.{}.spans.json",
                spec.workload.name,
                stage.name()
            ))
        });
        let args = StageArgs {
            stage,
            seed: spec.seed,
            trace: spec.trace,
            budget: Budget {
                seconds: if is_primary {
                    (spec.seconds - measure_s).max(0.0)
                } else {
                    0.0
                },
                min_batches,
            },
            setups: if is_primary && !spec.smoke { SETUPS } else { 1 },
            script: spec.workload.script,
            smoke: spec.smoke,
            spans_out: spans_out.clone(),
        };
        match run_stage(&args, pin.filter(|_| stage.single_threaded())) {
            Ok(output) => {
                measure_s += output.measure_s;
                ops.attempted += output.ops.attempted;
                ops.failed += output.ops.failed;
                for failure in &output.ops.failures {
                    ops.failures.push(format!("{}: {failure}", stage.name()));
                }
                outputs.push((stage, output));
                span_files.extend(spans_out.map(|path| (stage, path)));
            }
            Err(e) => ops.check(false, || e),
        }
    }

    let reading = |stage: Stage, name: &str| -> Option<Summary> {
        outputs
            .iter()
            .find(|(s, _)| *s == stage)
            .and_then(|(_, output)| output.get(name))
    };
    let mut metrics = Vec::new();
    let mut put = |name: &'static str, unit: &'static str, stat: Option<Summary>, ops: &mut Ops| {
        ops.check(stat.is_some(), || format!("no reading of {name}"));
        metrics.push(Metric {
            name,
            unit,
            stat: stat.unwrap_or(Summary::exact(0.0)),
        });
    };
    if spec.trace {
        for m in PER_LAYER {
            put(
                m.name,
                m.unit,
                reading(m.stage.unwrap_or(primary), m.name),
                &mut ops,
            );
        }
    } else {
        for m in &END_TO_END {
            put(
                m.name,
                m.unit,
                reading(m.stage.unwrap_or(primary), m.name),
                &mut ops,
            );
        }
    }

    let result = RunResult {
        metrics,
        ops,
        pinned: pin.is_some(),
        measure_s,
    };
    write_report(spec, &result, &span_files);
    result
}

/// Writes `<workload>.report.json` (timed run) or `<workload>.trace.json`
/// (traced run, with the spans the stages kept) under `out/`.
fn write_report(spec: &RunSpec, result: &RunResult, span_files: &[(Stage, PathBuf)]) {
    let env = Env::probe();
    let mut text = String::from("{\n");
    let mut field =
        |key: &str, value: String| writeln!(text, "  {}: {value},", json_string(key)).unwrap();
    field("workload", json_string(spec.workload.name));
    field("why", json_string(spec.workload.why));
    field("seed", spec.seed.to_string());
    field("seconds", spec.seconds.to_string());
    field("smoke", spec.smoke.to_string());
    field("traced", spec.trace.to_string());
    field("pinned", result.pinned.to_string());
    field("nproc", env.nproc.to_string());
    field("cpu_model", json_string(&env.cpu_model));
    field("rustc", json_string(&env.rustc));
    field("git_rev", json_string(&env.git_rev));
    field("measure_s", result.measure_s.to_string());
    field("attempted", result.ops.attempted.to_string());
    field("failed", result.ops.failed.to_string());
    let failures: Vec<String> = result.ops.failures.iter().map(|f| json_string(f)).collect();
    field("failures", format!("[{}]", failures.join(", ")));
    text.push_str("  \"metrics\": {\n");
    for (i, m) in result.metrics.iter().enumerate() {
        let s = &m.stat;
        let comma = if i + 1 < result.metrics.len() {
            ","
        } else {
            ""
        };
        writeln!(
            text,
            "    {}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"readings\": {}}}{comma}",
            json_string(m.name), s.median, json_string(m.unit), s.q1, s.q3, s.min, s.n
        )
        .unwrap();
    }
    text.push_str("  }");
    if spec.trace {
        text.push_str(",\n  \"spans\": {\n");
        for (i, (stage, path)) in span_files.iter().enumerate() {
            let spans = std::fs::read_to_string(path).unwrap_or_else(|_| "[]".to_string());
            let _ = std::fs::remove_file(path);
            let comma = if i + 1 < span_files.len() { "," } else { "" };
            writeln!(text, "  {}: {spans}{comma}", json_string(stage.name())).unwrap();
        }
        text.push_str("  }");
    }
    text.push_str("\n}\n");
    let kind = if spec.trace { "trace" } else { "report" };
    let path = out_dir().join(format!("{}.{kind}.json", spec.workload.name));
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// Prints every metric of a run by name, with its unit and spread.
pub fn print_table(spec: &RunSpec, result: &RunResult) {
    println!(
        "# {} seed {} {}{}{}: {} operations, {} failed, {:.1} s measured",
        spec.workload.name,
        spec.seed,
        if spec.trace { "traced" } else { "timed" },
        if spec.smoke {
            " (smoke: not comparable)"
        } else {
            ""
        },
        if result.pinned {
            ", single-threaded stages pinned"
        } else {
            ", nothing pinned"
        },
        result.ops.attempted,
        result.ops.failed,
        result.measure_s,
    );
    for m in &result.metrics {
        let s = &m.stat;
        let bound = catalog::END_TO_END
            .iter()
            .find(|e| e.name == m.name)
            .map(|e| format!("  bound {:.0}%", e.bound * 100.0))
            .unwrap_or_default();
        if s.n > 1 {
            println!(
                "{:<32} {:>14.4} {:<8} q1 {:.4} q3 {:.4} min {:.4} over {} readings{bound}",
                m.name, s.median, m.unit, s.q1, s.q3, s.min, s.n
            );
        } else {
            println!("{:<32} {:>14.4} {:<8}{bound}", m.name, s.median, m.unit);
        }
    }
    for failure in &result.ops.failures {
        println!("FAILED: {failure}");
    }
}
