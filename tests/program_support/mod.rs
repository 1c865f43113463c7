//! Shared harness of the simulator property suites (`random_programs`,
//! `interleaved_programs`): each case draws a program seed and a schedule
//! seed. The program is a `ThreadProgram`, the race-free-by-construction
//! type that the threaded and node runtime suites run too; the schedule
//! seed lowers it to one legal trace (`ThreadProgram::trace`), so critical
//! sections of different locks overlap and intervals interleave as the
//! scheduler picks.
//!
//! A failing case panics with both seeds, the program shrunk by
//! `ThreadProgram::shrink` to what still fails, and its trace in the text
//! format (feed it to `lrc::trace::codec::from_text` to replay it).
#![allow(dead_code)] // each suite uses a subset of the helpers

use lrc::sim::{history_of, run_trace, ProtocolKind, SimOptions};
use lrc::trace::{codec, Trace};
use lrc::workloads::{ProgramShape, ThreadProgram};

/// Runs `property` on the trace of `program_seed`'s program at `n_procs`
/// processors and `n_locks` locks, scheduled by `schedule_seed`. On a
/// failure, shrinks the program against the property and panics with the
/// reproducing report.
pub fn check(
    (n_procs, n_locks): (usize, usize),
    program_seed: u64,
    schedule_seed: u64,
    property: impl Fn(&Trace) -> Result<(), String>,
) {
    let shape = ProgramShape {
        n_procs,
        n_locks,
        phases: 3,
        max_cmds: 6,
    };
    let program = ThreadProgram::generate(program_seed, &shape);
    if property(&program.trace(schedule_seed)).is_ok() {
        return;
    }
    let min = program.shrink(|p| property(&p.trace(schedule_seed)).is_err());
    let trace = min.trace(schedule_seed);
    panic!(
        "program seed {program_seed}, schedule seed {schedule_seed}, \
         {n_procs} procs x {n_locks} locks: {}\n\
         minimized program:\n{}\
         its trace (feed to codec::from_text):\n{}",
        property(&trace).unwrap_err(),
        min.render(),
        codec::to_text(&trace),
    );
}

/// `Err` with the run's error if the replay of `trace` fails.
pub fn replay(
    trace: &Trace,
    kind: ProtocolKind,
    page: usize,
    options: &SimOptions,
) -> Result<(), String> {
    run_trace(trace, kind, page, options)
        .map(drop)
        .map_err(|e| format!("{kind}@{page}: {e}"))
}

/// `lrc-hist`'s race scan confirms `trace` properly labeled, and then all
/// four protocols match sequential consistency on it at three page sizes
/// (fine pages split regions; coarse pages force false sharing).
pub fn matches_sequential_consistency(trace: &Trace) -> Result<(), String> {
    history_of(trace)
        .check_drf()
        .map_err(|race| format!("the generator must be race-free: {race}"))?;
    for kind in ProtocolKind::ALL {
        for page in [256, 512, 2048] {
            replay(trace, kind, page, &SimOptions::checked())?;
        }
    }
    Ok(())
}

/// Lazy invalidate sends no more messages than eager update on `trace`.
pub fn lazy_within_eager_update(trace: &Trace) -> Result<(), String> {
    let messages = |kind| {
        run_trace(trace, kind, 512, &SimOptions::fast())
            .map(|r| r.messages())
            .map_err(|e| e.to_string())
    };
    let (li, eu) = (
        messages(ProtocolKind::LazyInvalidate)?,
        messages(ProtocolKind::EagerUpdate)?,
    );
    if li > eu {
        return Err(format!("LI {li} > EU {eu}"));
    }
    Ok(())
}
