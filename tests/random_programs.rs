//! Property-based end-to-end check: for *any* properly-labeled program,
//! every protocol's replay is indistinguishable from sequential
//! consistency — the theorem (Gharachorloo et al.) the paper builds on,
//! exercised across the whole stack (generator → trace → engines → oracle).
//!
//! Programs are generated as sequences of structured commands that are
//! race-free by construction (each lock guards its own address region,
//! private regions are per-processor, barrier phases rotate ownership),
//! then serialized through both codecs and replayed under all four
//! protocols with the sequential-consistency oracle enabled.

use lrc::sim::{run_trace, ProtocolKind, SimOptions};
use lrc::sync::{BarrierId, LockId};
use lrc::trace::{check_labeling, codec, Trace, TraceBuilder, TraceMeta};
use lrc::vclock::ProcId;
use proptest::prelude::*;

const PROCS: usize = 3;
const LOCKS: usize = 2;
/// Words per lock region / private region.
const REGION_WORDS: u64 = 24;

/// One structured, always-legal program step.
#[derive(Clone, Debug)]
enum Cmd {
    /// A critical section: acquire lock, read then write some of its
    /// region's words, release.
    CriticalSection {
        proc: u16,
        lock: u32,
        word: u64,
        span: u64,
    },
    /// A write to the processor's private region.
    PrivateWrite { proc: u16, word: u64 },
    /// A read of another lock region *under its lock* (reader CS).
    ReaderSection { proc: u16, lock: u32, word: u64 },
    /// Everybody synchronizes.
    Barrier,
}

fn cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        4 => (0..PROCS as u16, 0..LOCKS as u32, 0..REGION_WORDS - 4, 1..4u64)
            .prop_map(|(proc, lock, word, span)| Cmd::CriticalSection { proc, lock, word, span }),
        2 => (0..PROCS as u16, 0..REGION_WORDS).prop_map(|(proc, word)| Cmd::PrivateWrite { proc, word }),
        2 => (0..PROCS as u16, 0..LOCKS as u32, 0..REGION_WORDS)
            .prop_map(|(proc, lock, word)| Cmd::ReaderSection { proc, lock, word }),
        1 => Just(Cmd::Barrier),
    ]
}

/// Lock region `l` starts after the private regions.
fn lock_region(lock: u32) -> u64 {
    (PROCS as u64 + lock as u64) * REGION_WORDS * 8
}

fn private_region(proc: u16) -> u64 {
    proc as u64 * REGION_WORDS * 8
}

fn build(cmds: &[Cmd]) -> Trace {
    let mem = (PROCS as u64 + LOCKS as u64) * REGION_WORDS * 8;
    let meta = TraceMeta::new("random", PROCS, LOCKS, 1, mem);
    let mut b = TraceBuilder::new(meta);
    for cmd in cmds {
        match *cmd {
            Cmd::CriticalSection {
                proc,
                lock,
                word,
                span,
            } => {
                let p = ProcId::new(proc);
                let l = LockId::new(lock);
                b.acquire(p, l).expect("legal");
                for k in 0..span {
                    b.read(p, lock_region(lock) + (word + k) * 8, 8)
                        .expect("legal");
                    b.write(p, lock_region(lock) + (word + k) * 8, 8)
                        .expect("legal");
                }
                b.release(p, l).expect("legal");
            }
            Cmd::PrivateWrite { proc, word } => {
                let p = ProcId::new(proc);
                b.write(p, private_region(proc) + word * 8, 8)
                    .expect("legal");
            }
            Cmd::ReaderSection { proc, lock, word } => {
                let p = ProcId::new(proc);
                let l = LockId::new(lock);
                b.acquire(p, l).expect("legal");
                b.read(p, lock_region(lock) + word * 8, 8).expect("legal");
                b.release(p, l).expect("legal");
            }
            Cmd::Barrier => {
                b.barrier_all(BarrierId::new(0)).expect("legal");
            }
        }
    }
    b.finish().expect("no dangling synchronization")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The headline property: all four protocols match sequential
    /// consistency on every properly-labeled program, at two page sizes
    /// (fine pages split regions; coarse pages force false sharing).
    /// Failures print the complete reproducing trace (replay it with
    /// `lrc::trace::codec::from_text`).
    #[test]
    fn every_protocol_matches_sequential_consistency(cmds in prop::collection::vec(cmd(), 1..60)) {
        let trace = build(&cmds);
        prop_assert!(check_labeling(&trace).is_ok(), "generator must be race-free");
        for kind in ProtocolKind::ALL {
            for page in [256usize, 2048] {
                let result = run_trace(&trace, kind, page, &SimOptions::checked());
                prop_assert!(
                    result.is_ok(),
                    "{kind}@{page}: {}\nreproducing trace (feed to codec::from_text):\n{}",
                    result.err().map(|e| e.to_string()).unwrap_or_default(),
                    codec::to_text(&trace),
                );
            }
        }
    }

    /// Lazy never sends more messages than eager update on these
    /// lock-structured programs.
    #[test]
    fn lazy_messages_never_exceed_eager_update(cmds in prop::collection::vec(cmd(), 1..60)) {
        let trace = build(&cmds);
        let li = run_trace(&trace, ProtocolKind::LazyInvalidate, 512, &SimOptions::fast()).unwrap();
        let eu = run_trace(&trace, ProtocolKind::EagerUpdate, 512, &SimOptions::fast()).unwrap();
        prop_assert!(li.messages() <= eu.messages(), "LI {} > EU {}", li.messages(), eu.messages());
    }

    /// The text codec round-trips every generated trace exactly.
    #[test]
    fn codecs_round_trip(cmds in prop::collection::vec(cmd(), 1..40)) {
        let trace = build(&cmds);
        let text = codec::to_text(&trace);
        prop_assert_eq!(&codec::from_text(&text).unwrap(), &trace);
    }

    /// Replays are deterministic: two runs of the same cell are identical.
    #[test]
    fn replays_are_deterministic(cmds in prop::collection::vec(cmd(), 1..40)) {
        let trace = build(&cmds);
        for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::EagerInvalidate] {
            let a = run_trace(&trace, kind, 512, &SimOptions::fast()).unwrap();
            let b = run_trace(&trace, kind, 512, &SimOptions::fast()).unwrap();
            prop_assert_eq!(a.net, b.net);
        }
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
    fn ablation_cross_matches_sequential_consistency(cmds in prop::collection::vec(cmd(), 1..40)) {
        let trace = build(&cmds);
        prop_assert!(check_labeling(&trace).is_ok(), "generator must be race-free");
        for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate] {
            for gc in [false, true] {
                for piggyback in [true, false] {
                    for full_pages in [false, true] {
                        let options = SimOptions {
                            check_sc: true,
                            gc_at_barriers: gc,
                            piggyback_notices: piggyback,
                            full_page_misses: full_pages,
                        };
                        let result = run_trace(&trace, kind, 512, &options);
                        prop_assert!(
                            result.is_ok(),
                            "{kind} gc={gc} piggyback={piggyback} full_pages={full_pages}: {}\n\
                             reproducing trace (feed to codec::from_text):\n{}",
                            result.err().map(|e| e.to_string()).unwrap_or_default(),
                            codec::to_text(&trace),
                        );
                    }
                }
            }
        }
    }
}
