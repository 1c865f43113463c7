//! The two sharing families are one engine. Every case replays through a
//! `OneThread` engine (the simulator's) and a `Threads` engine (the
//! runtime's), both with the sequential-consistency oracle on, and the
//! two runs must agree exactly: traffic per message kind, events,
//! retained diff history, and every protocol counter.
//!
//! Under `LRC_LOCKDEP=1` the `Threads` runs also take every engine lock
//! class — lock and page gates, the lock table and barrier set, the eager
//! directory and epoch buffer, the lazy store, the shards — on all four
//! protocols with barriers, through the lock-order verifier.

use lrc_core::{OneThread, Threads};
use lrc_sim::{run_trace_in, ProtocolKind, SimOptions};
use lrc_trace::Trace;
use lrc_workloads::{AppKind, Scale};

const PAGES: [usize; 2] = [512, 4096];

/// Replays `trace` in both families and asserts the runs are identical.
fn fence(trace: &Trace, kind: ProtocolKind, page: usize, options: &SimOptions, case: &str) {
    let case = format!("{case} {kind} @{page}");
    let (one, one_engine) = run_trace_in::<OneThread>(trace, kind, page, options)
        .unwrap_or_else(|e| panic!("{case}, OneThread: {e}"));
    let (threads, threads_engine) = run_trace_in::<Threads>(trace, kind, page, options)
        .unwrap_or_else(|e| panic!("{case}, Threads: {e}"));
    assert_eq!(one, threads, "{case}: the reports differ");
    assert_eq!(
        one_engine.core().counters(),
        threads_engine.core().counters(),
        "{case}: the counters differ"
    );
}

#[test]
fn both_families_replay_every_app_identically() {
    for app in AppKind::ALL {
        let trace = app.generate(&Scale::small(8));
        for kind in ProtocolKind::ALL {
            for page in PAGES {
                fence(&trace, kind, page, &SimOptions::checked(), &app.to_string());
            }
        }
    }
}

#[test]
fn both_families_agree_under_every_lazy_ablation() {
    let checked = SimOptions::checked;
    let variants = [
        (
            "no piggybacking",
            SimOptions {
                piggyback_notices: false,
                ..checked()
            },
        ),
        (
            "full-page misses",
            SimOptions {
                full_page_misses: true,
                ..checked()
            },
        ),
        (
            "gc at barriers",
            SimOptions {
                gc_at_barriers: true,
                ..checked()
            },
        ),
    ];
    for app in AppKind::ALL {
        let trace = app.generate(&Scale::small(8));
        for (name, options) in &variants {
            for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate] {
                for page in PAGES {
                    fence(&trace, kind, page, options, &format!("{app}, {name}:"));
                }
            }
        }
    }
}
