//! The paper's evaluation claims (§5.3–§5.4), asserted as tests.
//!
//! Each test replays the synthetic SPLASH-like workloads across protocols
//! and page sizes and checks the *shape* the paper reports — who wins, in
//! which regime — not absolute numbers. A moderate scale keeps the suite
//! fast while leaving the orderings stable.

use lrc_sim::{history_of, run_trace, sweep, Metric, ProtocolKind, SimOptions, SweepConfig};
use lrc_trace::{Op, Trace};
use lrc_workloads::{micro, AppKind, Scale};

use ProtocolKind::{
    EagerInvalidate as EI, EagerUpdate as EU, LazyInvalidate as LI, LazyUpdate as LU,
};

fn shape_scale() -> Scale {
    Scale {
        procs: 8,
        units: 60,
        seed: 1992,
    }
}

fn shape_sweep(app: AppKind) -> lrc_sim::SweepResult {
    let trace = app.generate(&shape_scale());
    let config = SweepConfig {
        page_sizes: vec![512, 2048, 8192],
        kinds: ProtocolKind::ALL.to_vec(),
        options: SimOptions::fast(),
    };
    sweep(&trace, &config).expect("sweep runs")
}

fn msgs(s: &lrc_sim::SweepResult, kind: ProtocolKind, page: usize) -> u64 {
    s.get(kind, page).expect("cell exists").messages()
}

fn data(s: &lrc_sim::SweepResult, kind: ProtocolKind, page: usize) -> u64 {
    s.get(kind, page).expect("cell exists").data_bytes()
}

/// Every workload — the five applications and the three micro-patterns —
/// is properly labeled, and every protocol's replay matches sequential
/// consistency on it: the foundational correctness claim that makes the
/// traffic comparison meaningful. Labeling is decided by `lrc-hist`'s race
/// scan over the trace's history. The verdict is not vacuous: every
/// workload shares data, so with its locks and barriers taken out it
/// races.
#[test]
fn all_workloads_pass_the_sc_oracle_under_all_protocols() {
    let apps = AppKind::ALL.map(|app| (app.name(), app.generate(&Scale::small(4))));
    let micros = [
        ("migratory", micro::migratory(4, 10, 8)),
        ("false_sharing", micro::false_sharing(4, 6, 16)),
        ("producer_consumer", micro::producer_consumer(3, 8, 4)),
    ];
    for (name, trace) in apps.into_iter().chain(micros) {
        if let Err(race) = history_of(&trace).check_drf() {
            panic!("{name} must be race-free: {race}");
        }
        let accesses_only = Trace::from_parts(
            trace.meta().clone(),
            (trace.events().iter())
                .filter(|e| matches!(e.op, Op::Read { .. } | Op::Write { .. }))
                .copied()
                .collect(),
        )
        .expect("accesses alone are legal");
        assert!(
            history_of(&accesses_only).check_drf().is_err(),
            "{name} without its synchronization must race"
        );
        for kind in ProtocolKind::ALL {
            for page in [512, 4096] {
                run_trace(&trace, kind, page, &SimOptions::checked())
                    .unwrap_or_else(|e| panic!("{name}/{kind}/{page}: {e}"));
            }
        }
    }
}

/// §5.4, first sentence: the lazy protocols generally reduce both messages
/// and data. Asserted as: the best lazy protocol beats the best eager
/// protocol on both metrics for every application at every page size —
/// with one documented exception. At 512-byte pages on Water (the
/// quietest program), EI's rare full-page reloads are cheaper than LRC's
/// per-transfer vector-clock and interval-record overhead, because our
/// synthetic Water has a higher synchronization-to-data ratio than the
/// original. From 1 KB pages upward the paper's ordering holds everywhere.
#[test]
fn best_lazy_beats_best_eager_everywhere() {
    for app in AppKind::ALL {
        let s = shape_sweep(app);
        for page in [512, 2048, 8192] {
            let lazy_m = msgs(&s, LI, page).min(msgs(&s, LU, page));
            let eager_m = msgs(&s, EI, page).min(msgs(&s, EU, page));
            assert!(
                lazy_m as f64 <= eager_m as f64 * 1.05,
                "{app}@{page}: lazy {lazy_m} msgs must beat eager {eager_m}"
            );
            if app == AppKind::Water && page == 512 {
                continue; // the documented deviation above
            }
            let lazy_d = data(&s, LI, page).min(data(&s, LU, page));
            let eager_d = data(&s, EI, page).min(data(&s, EU, page));
            assert!(
                lazy_d < eager_d,
                "{app}@{page}: lazy data {lazy_d} must beat eager {eager_d}"
            );
        }
    }
}

/// §5.3.1/§5.3.2: on the migratory, lock-controlled applications the lazy
/// protocols reduce messages and data for **all** page sizes.
#[test]
fn migratory_apps_favor_lazy_at_all_page_sizes() {
    for app in [AppKind::LocusRoute, AppKind::Cholesky, AppKind::Pthor] {
        let s = shape_sweep(app);
        for page in [512, 2048, 8192] {
            for lazy in [LI, LU] {
                for eager in [EI, EU] {
                    assert!(
                        msgs(&s, lazy, page) < msgs(&s, eager, page),
                        "{app}@{page}: {lazy} msgs must beat {eager}"
                    );
                }
            }
            // Data: the best lazy beats the best eager at every size;
            // both lazy protocols dominate both eager ones once false
            // sharing kicks in (>= 2 KB pages). At 512 bytes LU can tie
            // with EI within a few percent (diff-fetch batching vs
            // full-page fetches of equal size).
            let lazy_d = data(&s, LI, page).min(data(&s, LU, page));
            let eager_d = data(&s, EI, page).min(data(&s, EU, page));
            assert!(lazy_d < eager_d, "{app}@{page}: best lazy data must win");
            if page >= 2048 {
                for lazy in [LI, LU] {
                    for eager in [EI, EU] {
                        assert!(
                            data(&s, lazy, page) < data(&s, eager, page),
                            "{app}@{page}: {lazy} data must beat {eager}"
                        );
                    }
                }
            }
        }
    }
}

/// §5.4: "LU sends fewer messages than EU for migratory data because
/// updates are only sent to the next processor to acquire the lock" — EU
/// updates every cached copy at every release (the Figure 3 pathology).
#[test]
fn eu_is_pathological_on_migratory_data() {
    for app in [AppKind::LocusRoute, AppKind::Cholesky, AppKind::Pthor] {
        let s = shape_sweep(app);
        for page in [512, 2048, 8192] {
            assert!(
                msgs(&s, EU, page) > 2 * msgs(&s, LU, page),
                "{app}@{page}: EU must send far more messages than LU"
            );
        }
    }
}

/// §5.3.5: "Data totals for EI are particularly high [on Pthor], because
/// frequent reloads cause the entire page to be sent" — and the blow-up
/// grows with page size.
#[test]
fn pthor_ei_data_balloons_with_page_size() {
    let s = shape_sweep(AppKind::Pthor);
    for page in [2048, 8192] {
        for other in [LI, LU, EU] {
            assert!(
                data(&s, EI, page) > 2 * data(&s, other, page),
                "EI@{page} must dwarf {other}"
            );
        }
    }
    let small = data(&s, EI, 512);
    let large = data(&s, EI, 8192);
    assert!(
        large > 5 * small,
        "EI data must grow steeply with page size"
    );
}

/// §5.3.5: "The message count for LI is higher than for LU, because LI has
/// more access misses."
#[test]
fn pthor_li_pays_more_misses_than_lu() {
    let s = shape_sweep(AppKind::Pthor);
    for page in [2048, 8192] {
        assert!(
            msgs(&s, LI, page) > msgs(&s, LU, page),
            "LI must exceed LU at {page}"
        );
        let li_miss = s
            .get(LI, page)
            .unwrap()
            .class(lrc_simnet::OpClass::Miss)
            .msgs;
        let lu_miss = s
            .get(LU, page)
            .unwrap()
            .class(lrc_simnet::OpClass::Miss)
            .msgs;
        assert!(
            li_miss > lu_miss,
            "the excess is access misses ({li_miss} vs {lu_miss})"
        );
    }
}

/// §5.3.3: MP3D's traffic is dominated by access misses; "the update
/// protocols exchange fewer messages, because they incur fewer access
/// misses", and the lazy protocols exchange less data than EI because
/// misses move diffs, not pages.
#[test]
fn mp3d_update_policies_avoid_misses_and_lazy_moves_diffs() {
    let s = shape_sweep(AppKind::Mp3d);
    // Where misses dominate (small pages), updating avoids them: the
    // update variant of each family sends fewer messages.
    assert!(
        msgs(&s, LU, 512) < msgs(&s, LI, 512),
        "LU must beat LI at 512"
    );
    assert!(
        msgs(&s, EU, 512) < msgs(&s, EI, 512),
        "EU must beat EI at 512"
    );
    for page in [512, 2048, 8192] {
        assert!(
            data(&s, LI, page) < data(&s, EI, page),
            "LI data must beat EI at {page}"
        );
    }
    // At large pages both invalidate protocols degrade (the paper: the
    // barrier programs "performed poorly with invalidate protocols and
    // large page sizes"); LI's advantage over EI is asserted where misses
    // move diffs instead of pages without rampant false sharing.
    for page in [512, 2048] {
        assert!(
            msgs(&s, LI, page) < msgs(&s, EI, page),
            "LI messages must beat EI at {page}"
        );
    }
    // Misses dominate the invalidate protocols' message counts.
    let li = s.get(LI, 512).unwrap();
    assert!(
        li.class(lrc_simnet::OpClass::Miss).msgs * 2 > li.messages(),
        "misses must dominate LI's traffic"
    );
}

/// §5.3.4: Water communicates least; lazy protocols still use fewer
/// messages, and from moderate page sizes up their data totals win because
/// misses avoid full-page transfers.
#[test]
fn water_is_quiet_and_lazy_wins_from_moderate_pages_up() {
    let s = shape_sweep(AppKind::Water);
    for page in [512, 2048, 8192] {
        // "Only slightly fewer messages ... for large page sizes": strict
        // at small pages, within 5% at 8 KB where LI and EI converge.
        assert!(
            (msgs(&s, LI, page) as f64) < msgs(&s, EI, page) as f64 * 1.05,
            "lazy may not exceed EI messages at {page}"
        );
        assert!(
            msgs(&s, LI, page) < msgs(&s, EU, page),
            "lazy strictly beats EU messages at {page}"
        );
    }
    assert!(
        msgs(&s, LI, 512) < msgs(&s, EI, 512),
        "strict win at small pages"
    );
    for page in [2048, 8192] {
        assert!(
            data(&s, LI, page) < data(&s, EI, page) && data(&s, LI, page) < data(&s, EU, page),
            "lazy less data at {page}"
        );
    }
    // Least communication of the five applications (messages per event).
    let water_trace = AppKind::Water.generate(&shape_scale());
    let water_rate = msgs(&s, LI, 2048) as f64 / water_trace.len() as f64;
    for app in [
        AppKind::LocusRoute,
        AppKind::Cholesky,
        AppKind::Pthor,
        AppKind::Mp3d,
    ] {
        let other = shape_sweep(app);
        let trace = app.generate(&shape_scale());
        let rate = msgs(&other, LI, 2048) as f64 / trace.len() as f64;
        assert!(
            water_rate < rate,
            "water must communicate least per access ({water_rate:.4} vs {app} {rate:.4})"
        );
    }
}

/// §5.4: false sharing increases the number of processors sharing a page
/// as pages grow; the eager protocols then communicate between processors
/// that share a page but not data, while lazy protocols do not.
#[test]
fn false_sharing_widens_the_eager_gap() {
    let trace = lrc_workloads::micro::false_sharing(8, 24, 16);
    let config = SweepConfig {
        page_sizes: vec![128, 8192],
        kinds: vec![LI, EI],
        options: SimOptions::fast(),
    };
    let s = sweep(&trace, &config).expect("sweep runs");
    // At 128-byte pages each word-owner has its own page: little sharing.
    // At 8192 all eight owners share one page.
    let gap_small = data(&s, EI, 128) as f64 / data(&s, LI, 128) as f64;
    let gap_large = data(&s, EI, 8192) as f64 / data(&s, LI, 8192) as f64;
    assert!(
        gap_large > gap_small,
        "eager's relative data cost must grow with false sharing ({gap_small:.2} -> {gap_large:.2})"
    );
}

/// The garbage-collection extension (TreadMarks-style, barrier-time)
/// preserves sequential consistency on every workload while keeping the
/// history store empty after each barrier.
#[test]
fn gc_preserves_correctness_on_all_workloads() {
    let options = SimOptions {
        check_sc: true,
        gc_at_barriers: true,
        ..SimOptions::fast()
    };
    for app in AppKind::ALL {
        let trace = app.generate(&Scale::small(4));
        for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate] {
            run_trace(&trace, kind, 512, &options)
                .unwrap_or_else(|e| panic!("{app}/{kind} with GC: {e}"));
        }
    }
}

/// Determinism: the whole pipeline (generator + simulator) is reproducible.
#[test]
fn sweeps_are_deterministic() {
    let a = shape_sweep(AppKind::Cholesky);
    let b = shape_sweep(AppKind::Cholesky);
    for kind in ProtocolKind::ALL {
        assert_eq!(
            a.series(kind, Metric::Messages),
            b.series(kind, Metric::Messages)
        );
        assert_eq!(
            a.series(kind, Metric::DataKbytes),
            b.series(kind, Metric::DataKbytes)
        );
    }
}

/// What LI's cost per event grows with as processors are added: the write
/// notices an acquire delivers grow about as fast as the processor count,
/// while the messages an event costs barely move. From 4 to 16
/// processors (4096-byte pages, 4 units), notices per acquire grow at
/// least 4x and messages per event less than 1.6x. MP3D is left out: it
/// synchronizes mostly at barriers, so the notices its barrier exits
/// deliver dominate its count per acquire (43 -> 158, 3.7x).
#[test]
fn notices_per_acquire_grow_with_processors_while_messages_per_event_stay_flat() {
    let at = |app: AppKind, procs: usize| {
        let trace = app.generate(&Scale {
            procs,
            units: 4,
            seed: 1992,
        });
        let report = run_trace(&trace, LI, 4096, &SimOptions::fast()).expect("legal trace");
        let c = report.counters;
        (
            c.notices_received as f64 / c.acquires as f64,
            report.messages() as f64 / report.events as f64,
        )
    };
    for app in [
        AppKind::LocusRoute,
        AppKind::Cholesky,
        AppKind::Water,
        AppKind::Pthor,
    ] {
        let (notices_4, msgs_4) = at(app, 4);
        let (notices_16, msgs_16) = at(app, 16);
        assert!(
            notices_16 >= 4.0 * notices_4,
            "{app}: notices per acquire {notices_4:.2} -> {notices_16:.2}"
        );
        assert!(
            msgs_16 < 1.6 * msgs_4,
            "{app}: messages per event {msgs_4:.3} -> {msgs_16:.3}"
        );
    }
}
