//! The race verdicts of the one race oracle, `history_of(..).check_drf()`,
//! on the small traces that pin down proper labeling (paper, §2): two
//! accesses conflict when they share a byte and one of them writes, and a
//! conflicting pair must be ordered by synchronization.

mod tests {
    use crate::history_of;
    use lrc_sync::{BarrierId, LockId};
    use lrc_trace::{TraceBuilder, TraceMeta};
    use lrc_vclock::ProcId;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    /// The oracle's verdict on the trace `build` makes over `procs`
    /// processors, `locks` locks and `barriers` barriers: `Ok` when it is
    /// properly labeled, else the race report.
    fn verdict(
        procs: usize,
        locks: usize,
        barriers: usize,
        build: impl FnOnce(&mut TraceBuilder),
    ) -> Result<(), String> {
        let mut b = TraceBuilder::new(TraceMeta::new("t", procs, locks, barriers, 4096));
        build(&mut b);
        let trace = b.finish().expect("legal by construction");
        history_of(&trace).check_drf().map_err(|e| e.to_string())
    }

    /// Asserts that `verdict` is a race report naming both `sites`.
    fn assert_race(verdict: Result<(), String>, sites: [&str; 2]) {
        let report = verdict.expect_err("a race");
        assert!(report.starts_with("data race"), "{report}");
        for site in sites {
            assert!(report.contains(site), "{site} not in {report}");
        }
    }

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        let v = verdict(2, 0, 0, |b| {
            b.write(p(0), 0, 4).unwrap();
            b.write(p(1), 0, 4).unwrap();
        });
        assert_race(v, ["p0[0]: W @0x0/4", "p1[0]: W @0x0/4"]);
    }

    #[test]
    fn unsynchronized_write_read_is_a_race() {
        let v = verdict(2, 0, 0, |b| {
            b.write(p(0), 8, 4).unwrap();
            b.read(p(1), 8, 4).unwrap();
        });
        assert_race(v, ["p0[0]: W @0x8/4", "p1[0]: R @0x8/4"]);
    }

    #[test]
    fn unsynchronized_read_write_is_a_race() {
        let v = verdict(2, 0, 0, |b| {
            b.read(p(0), 8, 4).unwrap();
            b.write(p(1), 8, 4).unwrap();
        });
        assert_race(v, ["p0[0]: R @0x8/4", "p1[0]: W @0x8/4"]);
    }

    #[test]
    fn read_read_never_races() {
        let v = verdict(2, 0, 0, |b| {
            b.read(p(0), 8, 4).unwrap();
            b.read(p(1), 8, 4).unwrap();
        });
        assert_eq!(v, Ok(()));
    }

    #[test]
    fn lock_chain_orders_accesses() {
        let l = LockId::new(0);
        let v = verdict(2, 1, 0, |b| {
            for q in [p(0), p(1)] {
                b.acquire(q, l).unwrap();
                b.write(q, 0, 4).unwrap();
                b.release(q, l).unwrap();
            }
        });
        assert_eq!(v, Ok(()));
    }

    #[test]
    fn access_outside_critical_section_races() {
        // p0 writes under the lock, but p1 reads without acquiring it.
        let l = LockId::new(0);
        let v = verdict(2, 1, 0, |b| {
            b.acquire(p(0), l).unwrap();
            b.write(p(0), 0, 4).unwrap();
            b.release(p(0), l).unwrap();
            b.read(p(1), 0, 4).unwrap();
        });
        assert_race(v, ["p0[1]: W @0x0/4", "p1[0]: R @0x0/4"]);
    }

    #[test]
    fn transitive_lock_chain_orders_accesses() {
        // p0 -> p1 through lock 0, p1 -> p2 through lock 1: p2's read of
        // p0's write is ordered transitively.
        let (l0, l1) = (LockId::new(0), LockId::new(1));
        let v = verdict(3, 2, 0, |b| {
            b.acquire(p(0), l0).unwrap();
            b.write(p(0), 0, 4).unwrap();
            b.release(p(0), l0).unwrap();
            b.acquire(p(1), l0).unwrap();
            b.release(p(1), l0).unwrap();
            b.acquire(p(1), l1).unwrap();
            b.release(p(1), l1).unwrap();
            b.acquire(p(2), l1).unwrap();
            b.read(p(2), 0, 4).unwrap();
            b.release(p(2), l1).unwrap();
        });
        assert_eq!(v, Ok(()));
    }

    #[test]
    fn different_locks_do_not_order() {
        let (l0, l1) = (LockId::new(0), LockId::new(1));
        let v = verdict(2, 2, 0, |b| {
            for (q, l) in [(p(0), l0), (p(1), l1)] {
                b.acquire(q, l).unwrap();
                b.write(q, 0, 4).unwrap();
                b.release(q, l).unwrap();
            }
        });
        assert_race(v, ["p0[1]: W @0x0/4", "p1[1]: W @0x0/4"]);
    }

    #[test]
    fn barrier_orders_phases() {
        let bar = BarrierId::new(0);
        let v = verdict(2, 0, 1, |b| {
            b.write(p(0), 0, 4).unwrap();
            b.barrier_all(bar).unwrap();
            b.read(p(1), 0, 4).unwrap();
            b.write(p(1), 0, 4).unwrap();
            b.barrier_all(bar).unwrap();
            b.read(p(0), 0, 4).unwrap();
        });
        assert_eq!(v, Ok(()));
    }

    #[test]
    fn same_phase_conflict_races_despite_barriers() {
        let bar = BarrierId::new(0);
        let v = verdict(2, 0, 1, |b| {
            b.barrier_all(bar).unwrap();
            b.write(p(0), 0, 4).unwrap();
            b.read(p(1), 0, 4).unwrap();
            b.barrier_all(bar).unwrap();
        });
        assert_race(v, ["p0[1]: W @0x0/4", "p1[1]: R @0x0/4"]);
    }

    #[test]
    fn false_sharing_is_not_a_race() {
        // Neighbouring words of one page are different locations.
        let v = verdict(2, 0, 0, |b| {
            b.write(p(0), 0, 4).unwrap();
            b.write(p(1), 4, 4).unwrap();
        });
        assert_eq!(v, Ok(()));
    }

    #[test]
    fn sub_word_accesses_to_different_bytes_do_not_race() {
        // Bytes 0..2 and 2..4 of one 4-byte word are different locations.
        let v = verdict(2, 0, 0, |b| {
            b.write(p(0), 0, 2).unwrap();
            b.write(p(1), 2, 2).unwrap();
        });
        assert_eq!(v, Ok(()));
    }

    #[test]
    fn word_straddling_access_conflicts_on_any_word() {
        // Bytes 6..10 and 8..12 share bytes 8 and 9.
        let v = verdict(2, 0, 0, |b| {
            b.write(p(0), 6, 4).unwrap();
            b.write(p(1), 8, 4).unwrap();
        });
        assert_race(v, ["p0[0]: W @0x6/4", "p1[0]: W @0x8/4"]);
    }

    #[test]
    fn initial_interval_accesses_race_without_sync() {
        // Nothing before the first synchronization is covered.
        let v = verdict(2, 0, 0, |b| {
            b.write(p(1), 100, 4).unwrap();
            b.write(p(0), 100, 4).unwrap();
        });
        assert_race(v, ["p0[0]: W @0x64/4", "p1[0]: W @0x64/4"]);
    }

    #[test]
    fn same_proc_never_races_with_itself() {
        let v = verdict(2, 0, 0, |b| {
            b.write(p(0), 0, 4).unwrap();
            b.read(p(0), 0, 4).unwrap();
            b.write(p(0), 0, 4).unwrap();
        });
        assert_eq!(v, Ok(()));
    }

    #[test]
    fn race_display_is_informative() {
        // The report names each access: processor, position in its log,
        // kind, address and length.
        let v = verdict(2, 0, 0, |b| {
            b.write(p(0), 0, 4).unwrap();
            b.read(p(1), 0, 4).unwrap();
        });
        let report = v.unwrap_err();
        assert!(report.contains("p0[0]: W @0x0/4"), "{report}");
        assert!(report.contains("p1[0]: R @0x0/4"), "{report}");
    }
}
