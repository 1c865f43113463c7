//! The four legs of the operation path. Each is measured in a process of
//! its own, so pinning and peak memory are per stage.

use crate::catalog::Stage;
use crate::report::{Ops, StageArgs, StageOutput};
use crate::span::{self, Tracer};
use crate::stats::{Clock, Stopwatch, Summary};
use crate::sys;

mod hist;
mod op;
mod replay;
mod storm;

pub fn run(args: &StageArgs) -> StageOutput {
    match args.stage {
        Stage::Replay => replay::run(args),
        Stage::Op => op::run(args),
        Stage::Storm => storm::run(args),
        Stage::Hist => hist::run(args),
    }
}

/// Sets the stage up `times` times — inputs built from the seed, outputs
/// checked, one full untimed warm-up batch — and returns the last state
/// with the time each set-up took.
fn set_up<S>(times: usize, clock: Clock, mut setup: impl FnMut() -> S) -> (S, Summary) {
    let mut took = Vec::new();
    let mut state = None;
    for _ in 0..times.max(1) {
        let watch = Stopwatch::start(clock);
        state = Some(setup());
        took.push(watch.seconds());
    }
    (state.expect("ran at least once"), Summary::of(&took))
}

/// The two readings every stage takes of its own process.
fn put_process_readings(out: &mut StageOutput, setup: Summary) {
    out.put("setup_s", setup);
    out.put_value("peak_rss_mb", sys::peak_rss_mib().unwrap_or(0.0));
}

/// Writes a traced stage's kept spans where the run asked for them.
fn write_spans(args: &StageArgs, tracers: &[Tracer], ops: &mut Ops) {
    if let Some(path) = &args.spans_out {
        let written = std::fs::write(path, span::render_json(tracers));
        ops.check(written.is_ok(), || {
            format!("write {}: {written:?}", path.display())
        });
    }
}

/// `(traced - plain) / plain`, in percent.
fn overhead_pct(plain: f64, traced: f64) -> f64 {
    (traced - plain) / plain * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Script, END_TO_END, PER_LAYER};
    use crate::stats::Budget;

    fn smoke(stage: Stage, trace: bool, script: Script) -> StageOutput {
        run(&StageArgs {
            stage,
            seed: 7,
            trace,
            budget: Budget {
                seconds: 0.0,
                min_batches: 2,
            },
            setups: 1,
            script,
            smoke: true,
            spans_out: None,
        })
    }

    /// Every name the catalog promises is reported by the stage it is
    /// assigned to, and every check a stage makes of its outputs passes.
    #[test]
    fn every_stage_reports_its_catalog_and_passes_its_checks() {
        for stage in Stage::ALL {
            let timed = smoke(stage, false, Script::Bulk);
            assert_eq!(timed.ops.failed, 0, "{stage:?}: {:?}", timed.ops.failures);
            assert!(timed.ops.attempted > 0);
            for m in END_TO_END
                .iter()
                .filter(|m| m.stage.is_none_or(|s| s == stage))
            {
                let reading = timed.get(m.name);
                assert!(
                    reading.is_some_and(|r| r.median > 0.0),
                    "{stage:?} {}",
                    m.name
                );
            }
            let traced = smoke(stage, true, Script::Small);
            assert_eq!(traced.ops.failed, 0, "{stage:?}: {:?}", traced.ops.failures);
            for m in PER_LAYER
                .iter()
                .filter(|m| m.stage.is_none_or(|s| s == stage))
            {
                assert!(traced.get(m.name).is_some(), "{stage:?} {}", m.name);
            }
        }
    }
}
