//! Mutation testing of the verification stack: deliberately-broken
//! protocol variants (`lrc_core::ProtocolMutation`) must be *rejected* by
//! the history checker, on every run, while the stock protocol passes the
//! same programs. A checker that cannot tell a broken protocol from a
//! working one proves nothing — this suite is the checker's own test.
//!
//! The programs force cross-processor data flow through barriers (the
//! exchange pattern), so rejection does not depend on thread timing.

mod hist_support;

use hist_support::{failure_report, forced_flow_program, run_and_check, run_threaded, RunConfig};
use lrc::core::ProtocolMutation;
use lrc::hist::{CheckBudget, HistError};
use lrc::sim::ProtocolKind;
use lrc::workloads::{HistCmd, ProgramShape, ThreadProgram};

fn broken(kind: ProtocolKind, page: usize, mutation: ProtocolMutation) -> RunConfig {
    RunConfig {
        mutation,
        ..RunConfig::stock(kind, page)
    }
}

/// Skipping twin-diffing at interval close (writes silently never
/// propagate) is rejected under both lazy policies and both page-size
/// regimes, every time.
#[test]
fn skip_twin_diff_is_rejected() {
    let prog = forced_flow_program(3, 3);
    for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate] {
        for page in [256usize, 1024] {
            let cfg = broken(kind, page, ProtocolMutation::SkipTwinDiff);
            let (_, verdict) = run_and_check(&prog, &cfg);
            let err = verdict.expect_err("skip-twin-diff must be rejected");
            assert!(
                matches!(
                    err,
                    HistError::Unjustified { .. } | HistError::NoWitness { .. }
                ),
                "{}: unexpected rejection {err}",
                cfg.label()
            );
        }
    }
}

/// Dropping write notices (stale copies stay valid) is rejected under
/// both lazy policies, every time.
#[test]
fn drop_notices_is_rejected() {
    let prog = forced_flow_program(3, 3);
    for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate] {
        for page in [256usize, 1024] {
            let cfg = broken(kind, page, ProtocolMutation::DropNotices);
            let (_, verdict) = run_and_check(&prog, &cfg);
            let err = verdict.expect_err("drop-notices must be rejected");
            assert!(
                matches!(
                    err,
                    HistError::Unjustified { .. } | HistError::NoWitness { .. }
                ),
                "{}: unexpected rejection {err}",
                cfg.label()
            );
        }
    }
}

/// Applying a fetched interval's diffs in reverse happens-before order
/// (older diffs clobber newer ones wherever writes overlap) is rejected
/// under both lazy policies and both page-size regimes, every time. The
/// forced-flow program's shared critical section makes every processor
/// rewrite the same words each phase, so ordering matters on every run.
#[test]
fn wrong_diff_order_is_rejected() {
    let prog = forced_flow_program(3, 3);
    for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate] {
        for page in [256usize, 1024] {
            let cfg = broken(kind, page, ProtocolMutation::WrongDiffOrder);
            let (_, verdict) = run_and_check(&prog, &cfg);
            let err = verdict.expect_err("wrong-diff-order must be rejected");
            assert!(
                matches!(
                    err,
                    HistError::Unjustified { .. } | HistError::NoWitness { .. }
                ),
                "{}: unexpected rejection {err}",
                cfg.label()
            );
        }
    }
}

/// A barrier master that computes each processor's exit notices against
/// that processor's *own* knowledge instead of the merged episode clock
/// (so notices covered by other processors' contributions are silently
/// dropped) is rejected under both lazy policies and both page-size
/// regimes, every time.
#[test]
fn dropped_clock_merge_is_rejected() {
    let prog = forced_flow_program(3, 3);
    for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate] {
        for page in [256usize, 1024] {
            let cfg = broken(kind, page, ProtocolMutation::DroppedClockMerge);
            let (_, verdict) = run_and_check(&prog, &cfg);
            let err = verdict.expect_err("dropped-clock-merge must be rejected");
            assert!(
                matches!(
                    err,
                    HistError::Unjustified { .. } | HistError::NoWitness { .. }
                ),
                "{}: unexpected rejection {err}",
                cfg.label()
            );
        }
    }
}

/// A lock grant that understates the acquirer's prior knowledge by one
/// interval (so the releaser ships one notice batch too few) is rejected
/// under both lazy policies and both page-size regimes, every time — the
/// forced-flow program's critical section moves data on every hand-off.
#[test]
fn stale_grant_knowledge_is_rejected() {
    let prog = forced_flow_program(3, 3);
    for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate] {
        for page in [256usize, 1024] {
            let cfg = broken(kind, page, ProtocolMutation::StaleGrantKnowledge);
            let (_, verdict) = run_and_check(&prog, &cfg);
            let err = verdict.expect_err("stale-grant-knowledge must be rejected");
            assert!(
                matches!(
                    err,
                    HistError::Unjustified { .. } | HistError::NoWitness { .. }
                ),
                "{}: unexpected rejection {err}",
                cfg.label()
            );
        }
    }
}

/// The same forced-flow program passes under every *stock* protocol —
/// the rejections above are the mutations' fault, not the program's.
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

/// Random seeded programs also catch the mutations (the exchange pattern
/// appears with weight 1/9, and lock-handoff data flow catches the rest):
/// a broken protocol must not survive a seed sweep.
#[test]
fn seeded_programs_catch_each_mutation() {
    let shape = ProgramShape {
        phases: 3,
        max_cmds: 5,
        ..ProgramShape::default()
    };
    // `WrongDiffOrder` is left out: only some of these seeds pull a
    // multi-diff chain on one page, and thread timing decides how many
    // (3 or 4 of 6), so it cannot hold the bar. The forced-flow test
    // above rejects it on every run.
    for mutation in [
        ProtocolMutation::SkipTwinDiff,
        ProtocolMutation::DropNotices,
    ] {
        let cfg = broken(ProtocolKind::LazyInvalidate, 256, mutation);
        let rejected = (0..6u64)
            .filter(|&seed| {
                let prog = ThreadProgram::generate(seed, &shape);
                run_and_check(&prog, &cfg).1.is_err()
            })
            .count();
        assert!(
            rejected >= 4,
            "{mutation}: only {rejected}/6 seeds rejected — the checker is \
             too weak to catch this mutation reliably"
        );
    }
}

/// A mutation failure shrinks to a minimal reproducer and renders the
/// seed-plus-minimized-trace report the suites print on failure.
#[test]
fn mutation_failures_shrink_to_a_seed_report() {
    const SEED: u64 = 4242;
    let shape = ProgramShape {
        phases: 2,
        max_cmds: 4,
        ..ProgramShape::default()
    };
    let cfg = broken(
        ProtocolKind::LazyInvalidate,
        256,
        ProtocolMutation::SkipTwinDiff,
    );
    // Seeded program with a guaranteed deterministic core: one exchange
    // per processor per phase rides along with whatever the seed drew.
    let mut prog = ThreadProgram::generate(SEED, &shape);
    for phase in &mut prog.phases {
        for cmds in phase.iter_mut() {
            cmds.push(HistCmd::Exchange);
        }
    }
    let fails_twice = |p: &ThreadProgram| {
        (0..2).all(|_| {
            run_threaded(p, &cfg)
                .check(&CheckBudget::default())
                .is_err()
        })
    };
    assert!(fails_twice(&prog), "mutation must fail deterministically");

    let min = prog.shrink(fails_twice);
    assert!(
        min.cmd_count() < prog.cmd_count(),
        "shrinking removed nothing ({} commands)",
        min.cmd_count()
    );

    // The minimized program still fails, and the report names everything
    // a reader needs to reproduce: seed, config (with the mutation), the
    // program listing, and the checker's diagnosis.
    let (hist, err) = (0..3)
        .find_map(|_| {
            let (hist, verdict) = run_and_check(&min, &cfg);
            verdict.err().map(|e| (hist, e))
        })
        .expect("minimized program keeps failing");
    let report = failure_report(SEED, &cfg, &min, &err, &hist);
    assert!(report.contains("reproducing seed: 4242"), "{report}");
    assert!(report.contains("MUTATION=skip-twin-diff"), "{report}");
    assert!(report.contains("minimized program"), "{report}");
    assert!(report.contains("recorded history"), "{report}");
}
