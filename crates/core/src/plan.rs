use lrc_pagemem::PageId;
use lrc_vclock::{IntervalId, ProcId};

use crate::IntervalStore;

/// A plan for fetching a set of needed diffs.
///
/// Built by [`FetchPlan::build`]: needed diffs are assigned either to the
/// `free_source` (a processor we are already exchanging messages with — the
/// lock grantor, whose diffs piggyback on the grant) or to explicit fetch
/// *targets*, each costing one request/reply round trip. Targets are chosen
/// greedily from the creators of causally-latest diffs, so a chain of
/// migratory modifications is served by its **concurrent last modifiers**
/// only — the paper's `m` (misses) and `h` (LU acquires) quantities equal
/// [`FetchPlan::target_count`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FetchPlan {
    /// Diffs that ride an existing message exchange (no extra messages).
    pub from_free: Vec<(IntervalId, PageId)>,
    /// Explicit targets: processor → diffs it supplies.
    pub targets: Vec<(ProcId, Vec<(IntervalId, PageId)>)>,
}

impl FetchPlan {
    /// Plans fetching `needed` diffs for processor `for_proc`.
    ///
    /// `needed` must be free of duplicates. `free_source` is a processor
    /// whose reply is already being paid for (e.g. the lock grantor);
    /// `None` when there is no such processor (access misses, barriers).
    ///
    /// Assignment order runs from causally latest to earliest (by stamp
    /// weight), so each new target is a *last* modifier; diffs it also
    /// holds (its chain) are assigned to it without new targets.
    pub fn build(
        store: &IntervalStore,
        for_proc: ProcId,
        free_source: Option<ProcId>,
        needed: &[(IntervalId, PageId)],
    ) -> FetchPlan {
        // Weight and holder mask of each needed diff, from one lookup.
        let mut order: Vec<(u64, IntervalId, PageId, u64)> = needed
            .iter()
            .map(|&(iv, g)| {
                let (weight, holders) = store
                    .weight_and_holders(iv, g)
                    .expect("needed diff must be recorded");
                (weight, iv, g, holders)
            })
            .collect();
        // Latest first; ties broken deterministically (`needed` has no
        // duplicates, so the mask never decides).
        order.sort_unstable_by(|a, b| b.cmp(a));

        let held_by = |holders: u64, q: ProcId| holders & (1u64 << q.index()) != 0;
        let mut plan = FetchPlan::default();
        for (_, iv, g, holders) in order {
            // A diff the processor already holds costs no messages: it is
            // applied from local possession. In normal operation pending
            // diffs are never already held, so this arm is reserved for
            // crash recovery — a rejoined processor replaying the write
            // notices of its *own* post-checkpoint intervals (flushed into
            // the store when it was declared dead) finds itself the
            // recorded holder and reapplies them locally.
            if held_by(holders, for_proc) || free_source.is_some_and(|q| held_by(holders, q)) {
                plan.from_free.push((iv, g));
                continue;
            }
            // Prefer an already-chosen target that holds the diff.
            let existing = plan.targets.iter().position(|(t, _)| held_by(holders, *t));
            let slot = existing.unwrap_or_else(|| {
                // New target: the diff's creator. It always holds the
                // diff, so had it been chosen already it was found above.
                plan.targets.push((iv.proc(), Vec::new()));
                plan.targets.len() - 1
            });
            plan.targets[slot].1.push((iv, g));
        }
        plan
    }

    /// Number of explicit fetch targets (the paper's `m` / `h`).
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Total diffs fetched, across free and explicit sources.
    pub fn diff_count(&self) -> usize {
        self.from_free.len() + self.targets.iter().map(|(_, d)| d.len()).sum::<usize>()
    }

    /// True if nothing needs fetching.
    pub fn is_empty(&self) -> bool {
        self.from_free.is_empty() && self.targets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::seeded::{script, Rng, StoreOp};
    use lrc_pagemem::{Diff, PageBuf, PageSize};
    use lrc_vclock::{StampedInterval, VectorClock};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn g(i: u32) -> PageId {
        PageId::new(i)
    }

    fn diff1() -> Diff {
        let twin = PageBuf::zeroed(PageSize::new(64).unwrap());
        let mut cur = twin.clone();
        cur.write(0, &[1]);
        Diff::between(&twin, &cur)
    }

    /// Closes an interval for `proc` at `seq` writing `page`, with a clock
    /// covering `covers`.
    fn close(store: &mut IntervalStore, proc: u16, seq: u32, page: PageId, covers: &[(u16, u32)]) {
        let mut vc = VectorClock::new(4);
        vc.set(p(proc), seq);
        for &(q, s) in covers {
            vc.set(p(q), s);
        }
        store.close_interval(
            StampedInterval::new(IntervalId::new(p(proc), seq), vc),
            vec![(page, diff1())],
        );
    }

    #[test]
    fn empty_need_empty_plan() {
        let store = IntervalStore::new(4);
        let plan = FetchPlan::build(&store, p(0), None, &[]);
        assert!(plan.is_empty());
        assert_eq!(plan.target_count(), 0);
        assert_eq!(plan.diff_count(), 0);
    }

    #[test]
    fn migratory_chain_served_by_last_modifier() {
        // p1 writes page (interval 1), p2 learns it, fetches the diff, and
        // writes the page (interval 1 of p2). p0 then needs both diffs: the
        // single concurrent last modifier p2 supplies its chain, m = 1.
        let mut store = IntervalStore::new(4);
        let page = g(0);
        close(&mut store, 1, 1, page, &[]);
        let iv1 = IntervalId::new(p(1), 1);
        store.add_holder(p(2), iv1, page); // p2 fetched it on its own miss
        close(&mut store, 2, 1, page, &[(1, 1)]);
        let iv2 = IntervalId::new(p(2), 1);

        let plan = FetchPlan::build(&store, p(0), None, &[(iv1, page), (iv2, page)]);
        assert_eq!(plan.target_count(), 1, "one concurrent last modifier");
        assert_eq!(plan.targets[0].0, p(2));
        assert_eq!(plan.diff_count(), 2);
    }

    #[test]
    fn concurrent_modifiers_each_targeted() {
        // p1 and p2 write the page concurrently (false sharing): two
        // concurrent last modifiers, m = 2.
        let mut store = IntervalStore::new(4);
        let page = g(0);
        close(&mut store, 1, 1, page, &[]);
        close(&mut store, 2, 1, page, &[]);
        let needed = [
            (IntervalId::new(p(1), 1), page),
            (IntervalId::new(p(2), 1), page),
        ];
        let plan = FetchPlan::build(&store, p(0), None, &needed);
        assert_eq!(plan.target_count(), 2);
    }

    #[test]
    fn free_source_absorbs_its_diffs() {
        // The lock grantor p1 holds both diffs: everything piggybacks.
        let mut store = IntervalStore::new(4);
        let page = g(0);
        close(&mut store, 2, 1, page, &[]);
        let iv2 = IntervalId::new(p(2), 1);
        store.add_holder(p(1), iv2, page);
        close(&mut store, 1, 1, page, &[(2, 1)]);
        let iv1 = IntervalId::new(p(1), 1);

        let plan = FetchPlan::build(&store, p(0), Some(p(1)), &[(iv1, page), (iv2, page)]);
        assert_eq!(plan.target_count(), 0, "grantor supplies everything");
        assert_eq!(plan.from_free.len(), 2);
    }

    #[test]
    fn diffs_already_held_cost_no_messages() {
        // Crash recovery: a rejoined processor replans its own flushed
        // interval. It is the recorded holder, so the diff applies locally
        // — no free source, no fetch target.
        let mut store = IntervalStore::new(4);
        let page = g(0);
        close(&mut store, 0, 1, page, &[]);
        let own = IntervalId::new(p(0), 1);
        close(&mut store, 1, 2, page, &[(0, 1)]);
        let other = IntervalId::new(p(1), 2);

        let plan = FetchPlan::build(&store, p(0), None, &[(own, page), (other, page)]);
        assert_eq!(plan.from_free, vec![(own, page)]);
        assert_eq!(plan.target_count(), 1, "only the foreign diff is fetched");
        assert_eq!(plan.targets[0].0, p(1));
    }

    #[test]
    fn multi_page_fetch_batches_by_target() {
        // p1 modified two pages in one interval: one target, two diffs.
        let mut store = IntervalStore::new(4);
        let mut vc = VectorClock::new(4);
        vc.set(p(1), 1);
        store.close_interval(
            StampedInterval::new(IntervalId::new(p(1), 1), vc),
            vec![(g(0), diff1()), (g(1), diff1())],
        );
        let iv = IntervalId::new(p(1), 1);
        let plan = FetchPlan::build(&store, p(0), None, &[(iv, g(0)), (iv, g(1))]);
        assert_eq!(plan.target_count(), 1);
        assert_eq!(plan.targets[0].1.len(), 2);
    }

    /// The builder as it was, `target_index` map and all, over the
    /// store's public queries — to check that the map was dead weight.
    fn build_with_target_index(
        store: &IntervalStore,
        for_proc: ProcId,
        free_source: Option<ProcId>,
        needed: &[(IntervalId, PageId)],
    ) -> FetchPlan {
        let mut order: Vec<(u64, IntervalId, PageId)> = needed
            .iter()
            .map(|&(iv, g)| (store.weight(iv).expect("recorded"), iv, g))
            .collect();
        order.sort_by(|a, b| b.cmp(a));

        let mut plan = FetchPlan::default();
        let mut target_index: HashMap<ProcId, usize> = HashMap::new();
        for (_, iv, g) in order {
            if store.holds(for_proc, iv, g) {
                plan.from_free.push((iv, g));
                continue;
            }
            if free_source.is_some_and(|q| store.holds(q, iv, g)) {
                plan.from_free.push((iv, g));
                continue;
            }
            let existing = plan
                .targets
                .iter()
                .position(|(t, _)| store.holds(*t, iv, g));
            let slot = match existing {
                Some(i) => i,
                None => {
                    let creator = iv.proc();
                    *target_index.entry(creator).or_insert_with(|| {
                        plan.targets.push((creator, Vec::new()));
                        plan.targets.len() - 1
                    })
                }
            };
            plan.targets[slot].1.push((iv, g));
        }
        plan
    }

    #[test]
    fn plans_match_the_builder_that_kept_a_target_index() {
        const PAGES: u32 = 4;
        let (mut plans, mut chains, mut free, mut many) = (0, 0, 0, 0);
        for seed in 0..60u64 {
            let mut rng = Rng::new(seed);
            let n = 3 + (seed % 4) as usize;
            let mut store = IntervalStore::new(n);
            for op in script(&mut rng, n, PAGES, 60) {
                op.apply(&mut store, n);
                if !matches!(op, StoreOp::Close(..)) {
                    continue;
                }
                // What a processor would pull: every diff it does not
                // hold, of all pages or of one.
                let for_proc = rng.proc(n);
                let one_page =
                    (rng.below(2) == 0).then(|| PageId::new(rng.below(PAGES as u64) as u32));
                let needed: Vec<(IntervalId, PageId)> = store
                    .export()
                    .iter()
                    .flat_map(|(stamp, diffs)| diffs.iter().map(|(g, _, _)| (stamp.id(), *g)))
                    .filter(|&(iv, g)| !store.holds(for_proc, iv, g) || rng.below(8) == 0)
                    .filter(|&(_, g)| one_page.is_none_or(|only| g == only))
                    .collect();
                let free_source = (rng.below(2) == 0).then(|| rng.proc(n));
                let plan = FetchPlan::build(&store, for_proc, free_source, &needed);
                let old = build_with_target_index(&store, for_proc, free_source, &needed);
                assert_eq!(plan, old, "seed {seed}, for {for_proc} via {free_source:?}");
                assert_eq!(plan.diff_count(), needed.len());
                plans += 1;
                chains += usize::from(
                    plan.targets
                        .iter()
                        .any(|(t, diffs)| diffs.iter().any(|(iv, _)| iv.proc() != *t)),
                );
                free += usize::from(!plan.from_free.is_empty());
                many += usize::from(plan.target_count() > 2);
            }
        }
        // Not vacuous: targets serving others' diffs, free riders, and
        // plans with several targets all occurred.
        assert!(plans > 1000, "{plans}");
        assert!(
            chains > 200 && free > 200 && many > 200,
            "{chains} {free} {many}"
        );
    }
}
