//! The history checker's kill tests. The protocol mutants in
//! `MUTANTS.txt` (skipped twin diffs, dropped notices, diffs applied in
//! the wrong order, a dropped clock merge at barriers, stale grant
//! knowledge) are source edits of the stock lazy engine; the `mutants`
//! binary in `lrc-bench` applies each to a copy of the tree and requires
//! the stock test below to fail under it. A checker that cannot tell a
//! broken protocol from a working one proves nothing.
//!
//! The programs force cross-processor data flow through barriers (the
//! exchange pattern), so a mutant's rejection does not depend on thread
//! timing.

mod hist_support;

use hist_support::{failure_report, forced_flow_program, run_and_check, run_threaded, RunConfig};
use lrc::hist::{CheckBudget, HistEvent, History};
use lrc::sim::ProtocolKind;
use lrc::vclock::ProcId;
use lrc::workloads::{HistCmd, ProgramShape, ThreadProgram};

/// The forced-flow program passes under every *stock* protocol. Every
/// protocol mutant in `MUTANTS.txt` names this test as its killer.
#[test]
fn stock_protocols_pass_the_forced_flow_program() {
    let prog = forced_flow_program(3, 3);
    for kind in ProtocolKind::ALL {
        for page in [256usize, 1024] {
            let cfg = RunConfig::stock(kind, page);
            let (hist, verdict) = run_and_check(&prog, &cfg);
            if let Err(err) = verdict {
                panic!("{}", failure_report(0, &cfg, &prog, &err, &hist));
            }
        }
    }
}

/// `hist` with the top byte of its first read flipped; `None` if it has
/// no read. Every written value carries `proc + 1` in its high half, so
/// no write ever stored the flipped value and the read is unjustified
/// whatever the run's timing was.
fn flip_first_read(hist: &History) -> Option<History> {
    let mut logs: Vec<Vec<HistEvent>> = (0..hist.n_procs())
        .map(|p| hist.log(ProcId::new(p as u16)).to_vec())
        .collect();
    let value = logs.iter_mut().flatten().find_map(|ev| match ev {
        HistEvent::Read { value, .. } if !value.is_empty() => Some(value),
        _ => None,
    })?;
    *value.last_mut().expect("non-empty read") ^= 0x80;
    Some(History::from_logs(logs))
}

/// A failing check shrinks to a minimal reproducer and renders the
/// seed-plus-minimized-trace report the suites print on failure. The
/// failure is a recorded stock history with one read flipped, so the
/// check fails on every run.
#[test]
fn mutation_failures_shrink_to_a_seed_report() {
    const SEED: u64 = 4242;
    let shape = ProgramShape {
        phases: 2,
        max_cmds: 4,
        ..ProgramShape::default()
    };
    let cfg = RunConfig::stock(ProtocolKind::LazyInvalidate, 256);
    // Seeded program with a guaranteed read: one exchange per processor
    // per phase rides along with whatever the seed drew.
    let mut prog = ThreadProgram::generate(SEED, &shape);
    for phase in &mut prog.phases {
        for cmds in phase.iter_mut() {
            cmds.push(HistCmd::Exchange);
        }
    }
    let flipped = |p: &ThreadProgram| flip_first_read(&run_threaded(p, &cfg));
    let fails = |p: &ThreadProgram| {
        flipped(p).is_some_and(|hist| hist.check(&CheckBudget::default()).is_err())
    };
    assert!(fails(&prog), "a flipped read must fail the check");

    let min = prog.shrink(fails);
    assert!(
        min.cmd_count() < prog.cmd_count(),
        "shrinking removed nothing ({} commands)",
        min.cmd_count()
    );

    // The minimized program still fails, and the report names everything
    // a reader needs to reproduce: seed, config, the program listing, and
    // the checker's diagnosis.
    let hist = flipped(&min).expect("the minimized program keeps a read");
    let err = hist
        .check(&CheckBudget::default())
        .expect_err("minimized program keeps failing");
    let report = failure_report(SEED, &cfg, &min, &err, &hist);
    assert!(report.contains("reproducing seed: 4242"), "{report}");
    assert!(
        report.contains(&format!("config: {}", cfg.label())),
        "{report}"
    );
    assert!(report.contains("minimized program"), "{report}");
    assert!(report.contains("recorded history"), "{report}");
}
