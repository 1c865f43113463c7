use std::cmp::Reverse;

use lrc_vclock::ProcId;

use crate::{IntervalStore, WriteNotice};

/// Where a planned diff comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Source {
    /// A message exchange already paid for — the lock grantor's reply,
    /// whose diffs piggyback on the grant — or the fetcher's own
    /// possession: no extra messages.
    Free,
    /// The explicit fetch target at this index of [`FetchPlan::targets`],
    /// one request/reply round trip.
    Target(usize),
}

/// One needed diff and its source.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Planned {
    /// The diff's notice, whose handle sizing and applying the plan read
    /// the diff by, with no search. A handle stays valid while processors
    /// append to their logs, and the plan is applied in the era it was
    /// built in.
    pub(crate) notice: WriteNotice,
    pub(crate) source: Source,
}

/// The bits of [`hb_key`] below the processor: the seq's and the page's.
const PROC_SHIFT: u32 = 64;
/// The bits of [`hb_key`] below the weight: the processor's 6 above
/// [`PROC_SHIFT`].
const WEIGHT_SHIFT: u32 = PROC_SHIFT + 6;

/// The happened-before sort key of a needed diff, packed into one
/// `u128`: weight | proc | seq | page, from the top down.
///
/// The fields keep their order and none overflows into the next, so the
/// key sorts exactly as the tuple `(weight, proc, seq, page)` does: a
/// processor index is below [`MAX_PROCS`](crate::MAX_PROCS) = 64, 6 bits,
/// and a weight sums at most 64 seqs of 32 bits, so it is below 2³⁸ and
/// the key uses 108 of the 128 bits.
fn hb_key(weight: u64, notice: &WriteNotice) -> u128 {
    let proc = notice.interval.proc().index() as u128;
    debug_assert!(weight < 1 << 38 && proc < 64, "{weight}, {proc}");
    (weight as u128) << WEIGHT_SHIFT
        | proc << PROC_SHIFT
        | (notice.interval.seq() as u128) << 32
        | notice.page.index() as u128
}

/// A plan for fetching a set of needed diffs.
///
/// Built by [`FetchPlan::build`]: needed diffs are assigned either to the
/// free source (a processor we are already exchanging messages with — the
/// lock grantor, whose diffs piggyback on the grant) or to explicit fetch
/// *targets*, each costing one request/reply round trip. Targets are chosen
/// greedily from the creators of causally-latest diffs, so a chain of
/// migratory modifications is served by its **concurrent last modifiers**
/// only — the paper's `m` (misses) and `h` (LU acquires) quantities are
/// the number of [`FetchPlan::targets`].
///
/// The plan is one list, sorted once: every needed diff in ascending
/// `(weight, proc, seq, page)` order — a linear extension of
/// happened-before — tagged with its source. The sort is over one packed
/// `u128` key per diff ([`hb_key`]: weight | proc | seq | page, the
/// weight below 2³⁸), and the weight and holder mask it needs are read
/// by each notice's handle, so planning searches the store for nothing.
/// Applying the plan walks the list as it is. The plan also keeps each
/// needed diff's source in the order of `needed` itself
/// ([`FetchPlan::sources`]), which sizing a source's reply walks page by
/// page.
///
/// A plan is a reusable buffer: each processor's slow paths rebuild the
/// one plan kept in its shard, so after warm-up planning allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct FetchPlan {
    /// Every needed diff, in the order the diffs apply.
    diffs: Vec<Planned>,
    /// The source of each needed diff, in `needed` order.
    sources: Vec<Source>,
    /// The explicit targets, in the order they were chosen.
    targets: Vec<ProcId>,
    /// Working space of [`FetchPlan::build`]: each needed diff's key,
    /// holder mask and place in `needed`, sorted latest first.
    order: Vec<(u128, u64, u32)>,
}

impl FetchPlan {
    /// An empty plan with room for `diffs` needed diffs and `targets`
    /// targets before its buffers grow.
    pub(crate) fn with_capacity(diffs: usize, targets: usize) -> Self {
        FetchPlan {
            diffs: Vec::with_capacity(diffs),
            sources: Vec::with_capacity(diffs),
            targets: Vec::with_capacity(targets),
            order: Vec::with_capacity(diffs),
        }
    }

    /// Replans this plan for fetching `needed` diffs for processor
    /// `for_proc`; nothing of the previous plan survives.
    ///
    /// `needed` must be free of duplicates, and each notice's handle must
    /// name its diff in `store`. `free_source` is a processor whose reply
    /// is already being paid for (e.g. the lock grantor); `None` when
    /// there is no such processor (access misses, barriers).
    ///
    /// Assignment order runs from causally latest to earliest (by stamp
    /// weight), so each new target is a *last* modifier; diffs it also
    /// holds (its chain) are assigned to it without new targets.
    pub(crate) fn build(
        &mut self,
        store: &IntervalStore,
        for_proc: ProcId,
        free_source: Option<ProcId>,
        needed: &[WriteNotice],
    ) {
        let FetchPlan {
            diffs,
            sources,
            targets,
            order,
        } = self;
        // Key and holder mask of each needed diff, read by its handle.
        let places = u32::try_from(needed.len()).expect("fewer than 2^32 needed diffs");
        order.clear();
        order.extend(needed.iter().zip(0..places).map(|(notice, at)| {
            let found = store.located(notice);
            (hb_key(found.weight, notice), found.holders, at)
        }));
        // Latest first. The keys are distinct (`needed` has no
        // duplicates), so neither the mask nor the place ever decides.
        order.sort_unstable_by_key(|&(key, _, _)| Reverse(key));

        let held_by = |holders: u64, q: ProcId| holders & (1u64 << q.index()) != 0;
        targets.clear();
        diffs.clear();
        // Sized to `needed`; the loop below writes every place.
        sources.resize(needed.len(), Source::Free);
        diffs.extend(order.iter().map(|&(_, holders, at)| {
            let notice = needed[at as usize];
            // A diff the processor already holds costs no messages: it is
            // applied from local possession. In normal operation pending
            // diffs are never already held, so this arm is reserved for
            // crash recovery — a rejoined processor replaying the write
            // notices of its *own* post-checkpoint intervals (flushed into
            // the store when it was declared dead) finds itself the
            // recorded holder and reapplies them locally.
            let free =
                held_by(holders, for_proc) || free_source.is_some_and(|q| held_by(holders, q));
            let source = if free {
                Source::Free
            } else {
                // Prefer an already-chosen target that holds the diff;
                // else the new target is the diff's creator. It always
                // holds the diff, so had it been chosen already it was
                // found first.
                let existing = targets.iter().position(|&t| held_by(holders, t));
                Source::Target(existing.unwrap_or_else(|| {
                    targets.push(notice.interval.proc());
                    targets.len() - 1
                }))
            };
            sources[at as usize] = source;
            Planned { notice, source }
        }));
        // Earliest first: the order the diffs apply in.
        diffs.reverse();
    }

    /// The explicit fetch targets, in the order they were chosen: the
    /// creator of the causally latest fetched diff first.
    pub(crate) fn targets(&self) -> &[ProcId] {
        &self.targets
    }

    /// Every needed diff with its source, in happened-before order.
    pub(crate) fn diffs(&self) -> &[Planned] {
        &self.diffs
    }

    /// The source of each diff of the `needed` list the plan was built
    /// for, in that list's order.
    pub(crate) fn sources(&self) -> &[Source] {
        &self.sources
    }

    /// The diffs `source` supplies, in happened-before order.
    pub(crate) fn planned_by(&self, source: Source) -> impl Iterator<Item = &Planned> + Clone {
        self.diffs.iter().filter(move |d| d.source == source)
    }

    /// The diffs `source` supplies, in happened-before order, by name.
    #[cfg(test)]
    pub(crate) fn supplied_by(
        &self,
        source: Source,
    ) -> impl Iterator<Item = (lrc_vclock::IntervalId, lrc_pagemem::PageId)> + Clone + '_ {
        self.planned_by(source)
            .map(|d| (d.notice.interval, d.notice.page))
    }

    /// True if nothing needs fetching.
    pub(crate) fn is_empty(&self) -> bool {
        self.diffs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::seeded::{script, Rng, StoreOp};
    use lrc_pagemem::{Diff, PageBuf, PageId, PageSize};
    use lrc_vclock::{IntervalId, StampedInterval, VectorClock};

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

    /// A fresh plan for `needed`, whose handles the store's search finds.
    fn plan_for(
        store: &IntervalStore,
        for_proc: ProcId,
        free_source: Option<ProcId>,
        needed: &[(IntervalId, PageId)],
    ) -> FetchPlan {
        let needed: Vec<WriteNotice> = needed
            .iter()
            .map(|&(iv, g)| store.locate(iv, g).expect("recorded"))
            .collect();
        let mut plan = FetchPlan::default();
        plan.build(store, for_proc, free_source, &needed);
        plan
    }

    #[test]
    fn the_packed_key_orders_as_the_tuple_at_the_extremes() {
        let top_weight = 64 * u64::from(u32::MAX);
        let (weights, procs, values) = (
            [0, 1, top_weight - 1, top_weight],
            [0, 1, 62, 63],
            [0, 1, u32::MAX - 1, u32::MAX],
        );
        let mut keyed = Vec::new();
        for &weight in &weights {
            for &proc in &procs {
                for &seq in &values {
                    for &page in &values {
                        let notice = WriteNotice {
                            interval: IntervalId::new(p(proc), seq),
                            page: g(page),
                            entry: 0,
                        };
                        let key = hb_key(weight, &notice);
                        keyed.push((key, (weight, p(proc), seq, g(page))));
                    }
                }
            }
        }
        // Every pair of keys compares as its pair of tuples does.
        for a in &keyed {
            for b in &keyed {
                assert_eq!(a.0.cmp(&b.0), a.1.cmp(&b.1), "{:?} vs {:?}", a.1, b.1);
            }
        }
        // Two diffs of one interval differ in the page alone, and the
        // page alone orders them.
        let of_page = |page| {
            let notice = WriteNotice {
                interval: IntervalId::new(p(63), u32::MAX),
                page: g(page),
                entry: 0,
            };
            hb_key(top_weight, &notice)
        };
        assert_eq!(of_page(u32::MAX) - of_page(0), u128::from(u32::MAX));
        assert!(of_page(1) > of_page(0));
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
            &mut vec![(page, diff1())],
        );
    }

    #[test]
    fn empty_need_empty_plan() {
        let store = IntervalStore::new(4);
        let plan = plan_for(&store, p(0), None, &[]);
        assert!(plan.is_empty());
        assert!(plan.targets().is_empty());
        assert!(plan.diffs().is_empty());
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

        let plan = plan_for(&store, p(0), None, &[(iv2, page), (iv1, page)]);
        assert_eq!(plan.targets(), [p(2)], "one concurrent last modifier");
        let chain: Vec<_> = plan.supplied_by(Source::Target(0)).collect();
        assert_eq!(chain, [(iv1, page), (iv2, page)], "applied oldest first");
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
        let plan = plan_for(&store, p(0), None, &needed);
        assert_eq!(plan.targets().len(), 2);
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

        let plan = plan_for(&store, p(0), Some(p(1)), &[(iv1, page), (iv2, page)]);
        assert!(plan.targets().is_empty(), "grantor supplies everything");
        assert_eq!(plan.supplied_by(Source::Free).count(), 2);
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

        let plan = plan_for(&store, p(0), None, &[(own, page), (other, page)]);
        let free: Vec<_> = plan.supplied_by(Source::Free).collect();
        assert_eq!(free, [(own, page)]);
        assert_eq!(plan.targets(), [p(1)], "only the foreign diff is fetched");
    }

    #[test]
    fn multi_page_fetch_batches_by_target() {
        // p1 modified two pages in one interval: one target, two diffs.
        let mut store = IntervalStore::new(4);
        let mut vc = VectorClock::new(4);
        vc.set(p(1), 1);
        store.close_interval(
            StampedInterval::new(IntervalId::new(p(1), 1), vc),
            &mut vec![(g(0), diff1()), (g(1), diff1())],
        );
        let iv = IntervalId::new(p(1), 1);
        let plan = plan_for(&store, p(0), None, &[(iv, g(0)), (iv, g(1))]);
        assert_eq!(plan.targets().len(), 1);
        assert_eq!(plan.supplied_by(Source::Target(0)).count(), 2);
    }

    /// The plan as the builder used to return it: the free source's diffs
    /// and each target's, each list latest first.
    #[derive(Default)]
    struct SplitPlan {
        from_free: Vec<(IntervalId, PageId)>,
        targets: Vec<(ProcId, Vec<(IntervalId, PageId)>)>,
    }

    /// An older builder, `target_index` map and all, over the store's
    /// public queries: the oracle for every diff's source.
    fn build_with_target_index(
        store: &IntervalStore,
        for_proc: ProcId,
        free_source: Option<ProcId>,
        needed: &[(IntervalId, PageId)],
    ) -> SplitPlan {
        let mut order: Vec<(u64, IntervalId, PageId)> = needed
            .iter()
            .map(|&(iv, g)| (store.weight(iv).expect("recorded"), iv, g))
            .collect();
        order.sort_by(|a, b| b.cmp(a));

        let mut plan = SplitPlan::default();
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

    /// The order the apply path used to sort a split plan into: every
    /// diff, by `(weight, proc, seq)` of its interval, stable.
    fn old_apply_order(store: &IntervalStore, old: &SplitPlan) -> Vec<(IntervalId, PageId)> {
        let mut all = old.from_free.clone();
        for (_, diffs) in &old.targets {
            all.extend_from_slice(diffs);
        }
        all.sort_by_key(|&(iv, _)| (store.weight(iv).expect("recorded"), iv.proc(), iv.seq()));
        all
    }

    #[test]
    fn plans_match_the_builder_that_kept_a_target_index() {
        const PAGES: u32 = 4;
        let (mut plans, mut chains, mut free, mut many) = (0, 0, 0, 0);
        // One plan, rebuilt for every case, as a processor's scratch plan
        // is: nothing of an earlier plan may leak into a later one.
        let mut plan = FetchPlan::default();
        let mut noticed = Vec::new();
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
                // hold, of all pages or of one, noticed as a processor
                // that knew nothing would be noticed of them, handles and
                // all.
                let for_proc = rng.proc(n);
                let one_page =
                    (rng.below(2) == 0).then(|| PageId::new(rng.below(PAGES as u64) as u32));
                let mut everything = VectorClock::new(n);
                for q in ProcId::all(n) {
                    everything.set(q, store.latest_seq(q));
                }
                store.notices_missing(&VectorClock::new(n), &everything, None, &mut noticed);
                let needed: Vec<WriteNotice> = noticed
                    .iter()
                    .copied()
                    .filter(|w| !store.holds(for_proc, w.interval, w.page) || rng.below(8) == 0)
                    .filter(|w| one_page.is_none_or(|only| w.page == only))
                    .collect();
                let free_source = (rng.below(2) == 0).then(|| rng.proc(n));
                plan.build(&store, for_proc, free_source, &needed);
                let named: Vec<(IntervalId, PageId)> =
                    needed.iter().map(|w| (w.interval, w.page)).collect();
                let old = build_with_target_index(&store, for_proc, free_source, &named);
                let why = format!("seed {seed}, for {for_proc} via {free_source:?}");

                // Every diff comes from where the old builder sent it, and
                // the targets were chosen in the same order.
                let old_targets: Vec<ProcId> = old.targets.iter().map(|(t, _)| *t).collect();
                assert_eq!(plan.targets(), old_targets, "{why}");
                let sourced = |source: Source| {
                    let mut diffs: Vec<_> = plan.supplied_by(source).collect();
                    diffs.reverse(); // the old lists run latest first
                    diffs
                };
                assert_eq!(sourced(Source::Free), old.from_free, "{why}");
                for (t, (_, diffs)) in old.targets.iter().enumerate() {
                    assert_eq!(&sourced(Source::Target(t)), diffs, "{why}, target {t}");
                }
                assert_eq!(plan.diffs().len(), needed.len());
                // Each needed diff's source, in `needed` order.
                for (w, source) in needed.iter().zip(plan.sources()) {
                    let planned = plan.diffs().iter().find(|d| d.notice == *w);
                    assert_eq!(planned.map(|d| d.source), Some(*source), "{why}");
                }

                // On every page, the diffs apply in the order the old
                // apply path sorted them into.
                let old_order = old_apply_order(&store, &old);
                for page in (0..PAGES).map(PageId::new) {
                    let on_page = |diffs: &mut dyn Iterator<Item = (IntervalId, PageId)>| {
                        diffs.filter(|&(_, g)| g == page).collect::<Vec<_>>()
                    };
                    assert_eq!(
                        on_page(
                            &mut plan
                                .diffs()
                                .iter()
                                .map(|d| (d.notice.interval, d.notice.page))
                        ),
                        on_page(&mut old_order.iter().copied()),
                        "{why}, page {page}"
                    );
                }

                plans += 1;
                chains += usize::from(
                    old.targets
                        .iter()
                        .any(|(t, diffs)| diffs.iter().any(|(iv, _)| iv.proc() != *t)),
                );
                free += usize::from(!old.from_free.is_empty());
                many += usize::from(plan.targets().len() > 2);
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
