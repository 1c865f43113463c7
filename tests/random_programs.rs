//! Property-based end-to-end check: for *any* properly-labeled program,
//! every protocol's replay is indistinguishable from sequential
//! consistency — the theorem (Gharachorloo et al.) the paper builds on,
//! exercised across the whole stack (generator → scheduler → trace →
//! engines → oracle).
//!
//! Each case draws a program seed and a schedule seed and replays the
//! scheduled trace of a three-processor, two-lock `ThreadProgram`
//! (`program_support` holds the generator, the properties shared with
//! `interleaved_programs` and the failure report). `lrc-hist`'s race scan
//! confirms each trace properly labeled before the sequential-consistency
//! oracle is trusted on it.

mod program_support;

use lrc::sim::{run_trace, ProtocolKind, SimOptions};
use lrc::trace::codec;
use program_support::{check, lazy_within_eager_update, matches_sequential_consistency, replay};
use proptest::prelude::*;

/// `(processors, locks)` of every program; `interleaved_programs` runs
/// the wider shape.
const SHAPE: (usize, usize) = (3, 2);

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The headline property: all four protocols match sequential
    /// consistency on every schedule of every properly-labeled program,
    /// at three page sizes (fine pages split regions; coarse pages force
    /// false sharing).
    #[test]
    fn every_protocol_matches_sequential_consistency(program_seed in any::<u64>(), schedule_seed in any::<u64>()) {
        check(SHAPE, program_seed, schedule_seed, matches_sequential_consistency);
    }

    /// Message totals depend on the schedule, but lazy invalidate never
    /// sends more messages than eager update on any of them.
    #[test]
    fn lazy_messages_never_exceed_eager_update(program_seed in any::<u64>(), schedule_seed in any::<u64>()) {
        check(SHAPE, program_seed, schedule_seed, lazy_within_eager_update);
    }

    /// The text codec round-trips every generated trace exactly.
    #[test]
    fn codecs_round_trip(program_seed in any::<u64>(), schedule_seed in any::<u64>()) {
        check(SHAPE, program_seed, schedule_seed, |trace| {
            match codec::from_text(&codec::to_text(trace)) {
                Ok(back) if back == *trace => Ok(()),
                Ok(_) => Err("the text codec changed the trace".to_string()),
                Err(e) => Err(e.to_string()),
            }
        });
    }

    /// Replays are deterministic: two runs of the same cell are identical.
    #[test]
    fn replays_are_deterministic(program_seed in any::<u64>(), schedule_seed in any::<u64>()) {
        check(SHAPE, program_seed, schedule_seed, |trace| {
            for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::EagerInvalidate] {
                let run = || run_trace(trace, kind, 512, &SimOptions::fast()).map_err(|e| e.to_string());
                if run()?.net != run()?.net {
                    return Err(format!("{kind}: two replays differ"));
                }
            }
            Ok(())
        });
    }
}

proptest! {
    // The 16-way flag cross multiplies replays, so fewer cases keep the
    // sweep inside a sensible test budget.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The ablation/extension cross: gc_at_barriers × piggyback_notices ×
    /// full_page_misses, for both lazy policies, must each still be
    /// indistinguishable from sequential consistency. The flags change
    /// *accounting and history retention*, never visible memory — a
    /// divergence here means an ablation knob corrupted the protocol.
    #[test]
    fn ablation_cross_matches_sequential_consistency(program_seed in any::<u64>(), schedule_seed in any::<u64>()) {
        check(SHAPE, program_seed, schedule_seed, |trace| {
            for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate] {
                for gc_at_barriers in [false, true] {
                    for piggyback_notices in [true, false] {
                        for full_page_misses in [false, true] {
                            let options = SimOptions {
                                check_sc: true,
                                gc_at_barriers,
                                piggyback_notices,
                                full_page_misses,
                            };
                            replay(trace, kind, 512, &options).map_err(|e| {
                                format!(
                                    "gc={gc_at_barriers} piggyback={piggyback_notices} \
                                     full_pages={full_page_misses}: {e}"
                                )
                            })?;
                        }
                    }
                }
            }
            Ok(())
        });
    }
}
