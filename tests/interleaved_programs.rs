//! Property tests over *wide* scheduled programs: four processors and
//! three locks, so critical sections of different locks overlap more often
//! than in `random_programs`' three-processor programs. Every protocol
//! must match sequential consistency on each schedule, and the lazy
//! protocol must stay within eager update's message count on all of them.
//! The generator, the schedule and the failure report are
//! `program_support`'s.

mod program_support;

use program_support::{check, lazy_within_eager_update, matches_sequential_consistency};
use proptest::prelude::*;

/// `(processors, locks)` of every program.
const SHAPE: (usize, usize) = (4, 3);

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// All four protocols match sequential consistency on every schedule
    /// of every race-free program.
    #[test]
    fn protocols_match_sc_on_scheduled_programs(program_seed in any::<u64>(), schedule_seed in any::<u64>()) {
        check(SHAPE, program_seed, schedule_seed, matches_sequential_consistency);
    }

    /// Message totals depend on the schedule, but lazy invalidate never
    /// sends more messages than eager update on any of them.
    #[test]
    fn lazy_beats_eu_across_schedules(program_seed in any::<u64>(), schedule_seed in any::<u64>()) {
        check(SHAPE, program_seed, schedule_seed, lazy_within_eager_update);
    }
}
