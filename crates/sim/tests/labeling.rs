//! Proper labeling (paper, §2): a program is properly labeled when every
//! pair of conflicting accesses to one shared *location* is ordered by
//! synchronization. The tree decides it with one oracle, `lrc-hist`'s race
//! scan over the history a trace lowers to (`history_of`), at byte
//! granularity: two accesses conflict when they share a byte and one
//! writes. The oracle's verdicts on small hand-built traces are
//! `lrc-sim`'s unit tests (`race::tests`).
//!
//! The first test checks that scheduled lock and barrier programs, the
//! shape every property suite replays, lower to race-free histories. The
//! second runs the full `History::check` — race scan, justification and
//! witness search — on the sequentially consistent lowering of every
//! workload, so `lrc-hist` and the simulator's oracle agree on what
//! sequential consistency is.

use lrc_hist::CheckBudget;
use lrc_sim::history_of;
use lrc_sync::{BarrierId, LockId};
use lrc_trace::{interleave, Program, TraceMeta};
use lrc_vclock::ProcId;
use lrc_workloads::{micro, AppKind, Scale};

fn p(i: u16) -> ProcId {
    ProcId::new(i)
}

#[test]
fn scheduled_programs_are_properly_labeled() {
    let (l0, bar) = (LockId::new(0), BarrierId::new(0));
    // Three processors each update word 0 under lock 0 five times and
    // write a private word after each critical section.
    let updates = (0..3u16)
        .map(|i| {
            let mut prog = Program::new(p(i));
            for round in 0..5u64 {
                prog.acquire(l0).read(0, 8).write(0, 8).release(l0);
                prog.write(1024 + 64 * i as u64 + round, 8);
            }
            prog
        })
        .collect();
    // Four processors write their word, cross the barrier, read a
    // neighbour's word, and cross it again.
    let phases = (0..4u16)
        .map(|i| {
            let mut prog = Program::new(p(i));
            prog.write(64 * i as u64, 8)
                .barrier(bar)
                .read(64 * ((i as u64 + 1) % 4), 8)
                .barrier(bar);
            prog
        })
        .collect();
    let traces = [
        interleave(TraceMeta::new("updates", 3, 1, 0, 1 << 14), updates, 42).unwrap(),
        interleave(TraceMeta::new("phases", 4, 0, 1, 1 << 14), phases, 9).unwrap(),
    ];
    for trace in &traces {
        if let Err(race) = history_of(trace).check_drf() {
            panic!("{}: {race}", trace.meta().name());
        }
    }
}

/// The lowering is a sequentially consistent history, so the whole
/// checker accepts it: the race scan, every read justified by the
/// happens-before-latest write, and a witness found without backtracking.
#[test]
fn every_workload_lowers_to_a_history_the_full_check_accepts() {
    let apps = AppKind::ALL.map(|app| (app.name(), app.generate(&Scale::small(4))));
    let micros = [
        ("migratory", micro::migratory(4, 10, 8)),
        ("false_sharing", micro::false_sharing(4, 6, 16)),
        ("producer_consumer", micro::producer_consumer(3, 8, 4)),
    ];
    for (name, trace) in apps.into_iter().chain(micros) {
        let report = history_of(&trace)
            .check(&CheckBudget::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.events, trace.len(), "{name}");
        assert_eq!(report.states_explored, trace.len(), "{name}");
    }
}
