//! What a stage hands back to the run: named readings, the operations it
//! attempted and how many failed, and the text form both travel in from
//! the stage's process to the parent.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::catalog::{Script, Stage};
use crate::stats::{Budget, Clock, Summary};

/// Everything a stage process is told.
#[derive(Clone, Debug)]
pub struct StageArgs {
    pub stage: Stage,
    pub seed: u64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub budget: Budget,
    /// How many times set-up runs; `setup_s` is the median.
    pub setups: usize,
    pub script: Script,
    /// Shrunken inputs for a sanity run; never compared with a full run.
    pub smoke: bool,
    /// Where a traced stage writes its spans.
    pub spans_out: Option<PathBuf>,
}

impl StageArgs {
    /// What single-threaded batches are charged in: CPU time when the
    /// reading is an end-to-end metric, elapsed time when it is compared
    /// with spans.
    pub fn clock(&self) -> Clock {
        if self.trace {
            Clock::Wall
        } else {
            Clock::OnCpu
        }
    }
}

/// Operations attempted and failed. A failed check is an operation that
/// failed: a wrong value counts exactly like an `Err`.
#[derive(Clone, Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts `n` operations whose results are checked separately.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Counts one operation that succeeded iff `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    pub name: String,
    pub stat: Summary,
}

#[derive(Clone, Debug, Default)]
pub struct StageOutput {
    pub readings: Vec<Reading>,
    pub ops: Ops,
    /// Seconds spent in timed batches.
    pub measure_s: f64,
}

impl StageOutput {
    pub fn put(&mut self, name: &str, stat: Summary) {
        self.readings.push(Reading {
            name: name.to_string(),
            stat,
        });
    }

    /// A reading that is a single number (a count, a ratio of totals).
    pub fn put_value(&mut self, name: &str, value: f64) {
        self.put(name, Summary::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.readings
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.stat)
    }

    /// One line per reading, then the operation counts. `{}` prints an
    /// `f64` with every digit it needs to read back exactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.readings {
            let s = &r.stat;
            writeln!(
                out,
                "M {} {} {} {} {} {}",
                r.name, s.median, s.q1, s.q3, s.min, s.n
            )
            .unwrap();
        }
        for failure in &self.ops.failures {
            writeln!(out, "F {}", failure.replace('\n', " ")).unwrap();
        }
        writeln!(
            out,
            "OPS {} {} {}",
            self.ops.attempted, self.ops.failed, self.measure_s
        )
        .unwrap();
        out
    }

    /// Reads back [`StageOutput::render`]; lines of any other shape (a
    /// library's own prints) are skipped. `None` without an `OPS` line,
    /// which a stage prints last: the stage died before finishing.
    pub fn parse(text: &str) -> Option<StageOutput> {
        let mut out = StageOutput::default();
        let mut finished = false;
        for line in text.lines() {
            let fields: Vec<&str> = line.split(' ').collect();
            match fields.as_slice() {
                ["M", name, median, q1, q3, min, n] => out.put(
                    name,
                    Summary {
                        median: median.parse().ok()?,
                        q1: q1.parse().ok()?,
                        q3: q3.parse().ok()?,
                        min: min.parse().ok()?,
                        n: n.parse().ok()?,
                    },
                ),
                ["F", ..] => out.ops.failures.push(line[2..].to_string()),
                ["OPS", attempted, failed, measure_s] => {
                    out.ops.attempted = attempted.parse().ok()?;
                    out.ops.failed = failed.parse().ok()?;
                    out.measure_s = measure_s.parse().ok()?;
                    finished = true;
                }
                _ => {}
            }
        }
        finished.then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_survives_the_pipe() {
        let mut out = StageOutput::default();
        out.put(
            "round_us",
            Summary {
                median: 7.123456789012345,
                q1: 7.0,
                q3: 7.5,
                min: 6.9,
                n: 11,
            },
        );
        out.put_value("wire_bytes_per_round", 317.0);
        out.ops.attempt(10);
        out.ops.check(false, || "wrong\nvalue".to_string());
        out.measure_s = 1.25;
        let text = format!("stray line\n{}", out.render());
        let back = StageOutput::parse(&text).expect("parses");
        assert_eq!(back.readings, out.readings);
        assert_eq!((back.ops.attempted, back.ops.failed), (11, 1));
        assert_eq!(back.ops.failures, vec!["wrong value".to_string()]);
        assert_eq!(back.measure_s, 1.25);
        assert!(StageOutput::parse("M round_us 1 1 1 1 1\n").is_none());
    }
}
