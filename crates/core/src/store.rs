use std::collections::HashMap;

use lrc_pagemem::{Diff, PageId};
use lrc_vclock::{IntervalId, ProcId, StampedInterval, VectorClock};

/// A write notice: page × interval, without the data (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WriteNotice {
    /// The interval in which the page was modified.
    pub interval: IntervalId,
    /// The modified page.
    pub page: PageId,
}

/// One closed interval: its stamp plus the pages it modified.
#[derive(Clone, Debug)]
pub(crate) struct IntervalRecord {
    pub stamp: StampedInterval,
    pub pages: Vec<PageId>,
}

/// The system-wide interval, diff, and possession bookkeeping.
///
/// Conceptually each processor keeps its own interval records and diffs;
/// because the simulator has a global view, the store is shared and every
/// query is filtered by the asking processor's vector clock, so no
/// processor can observe intervals that have not performed at it.
///
/// Possession tracking records which processors hold each diff *as an
/// object* (creators, fetchers, and cold-miss recipients), which is what
/// lets a miss be served by the *concurrent last modifiers* only: a
/// modifier forwards the dominated diffs it holds along with its own
/// (§4.3.2).
#[derive(Clone, Debug, Default)]
pub struct IntervalStore {
    /// Closed, non-empty intervals per processor, in ascending seq order.
    records: Vec<Vec<IntervalRecord>>,
    /// Diff payloads, keyed by (interval, page).
    diffs: HashMap<(IntervalId, PageId), Diff>,
    /// Which processors hold each diff object (bitmask by proc index).
    holders: HashMap<(IntervalId, PageId), u64>,
    /// Louvre-style lightweight version: bumped by every *destructive*
    /// reorganization (today: [`IntervalStore::clear`], the barrier-time
    /// garbage collection). Additive mutations — closing intervals, adding
    /// holders — leave it unchanged, because a fetch plan built against an
    /// older snapshot stays applicable when the store only grew. Slow
    /// paths build plans under the read lock, note the version, fetch with
    /// no store lock held at all, and revalidate the version before
    /// applying under the write lock.
    version: u64,
}

impl IntervalStore {
    /// Creates an empty store for `n_procs` processors.
    pub fn new(n_procs: usize) -> Self {
        IntervalStore {
            records: vec![Vec::new(); n_procs],
            diffs: HashMap::new(),
            holders: HashMap::new(),
            version: 0,
        }
    }

    /// The store's snapshot version: unchanged by additive mutations,
    /// bumped by destructive reorganizations (garbage collection). A fetch
    /// plan built while the version was `v` may be applied as long as the
    /// version still reads `v`; otherwise the plan may reference discarded
    /// diffs and must be rebuilt.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Records a closed interval with its modified pages and their diffs.
    /// The creator holds all of its own diffs.
    ///
    /// # Panics
    ///
    /// Panics if the interval is out of seq order for its processor or a
    /// diff is missing for a listed page.
    pub(crate) fn close_interval(
        &mut self,
        stamp: StampedInterval,
        mut page_diffs: Vec<(PageId, Diff)>,
    ) {
        let id = stamp.id();
        let list = &mut self.records[id.proc().index()];
        if let Some(last) = list.last() {
            assert!(
                last.stamp.id().seq() < id.seq(),
                "interval {} closed out of order",
                id
            );
        }
        page_diffs.sort_by_key(|(g, _)| *g);
        let pages = page_diffs.iter().map(|(g, _)| *g).collect();
        for (page, diff) in page_diffs {
            self.diffs.insert((id, page), diff);
            self.holders.insert((id, page), 1u64 << id.proc().index());
        }
        list.push(IntervalRecord { stamp, pages });
    }

    /// The stamp of a recorded interval.
    pub(crate) fn stamp(&self, id: IntervalId) -> Option<&StampedInterval> {
        let list = &self.records[id.proc().index()];
        list.binary_search_by_key(&id.seq(), |r| r.stamp.id().seq())
            .ok()
            .map(|i| &list[i].stamp)
    }

    /// The diff of `(interval, page)`.
    pub fn diff(&self, interval: IntervalId, page: PageId) -> Option<&Diff> {
        self.diffs.get(&(interval, page))
    }

    /// True if `proc` holds the diff `(interval, page)` as an object.
    pub fn holds(&self, proc: ProcId, interval: IntervalId, page: PageId) -> bool {
        self.holders
            .get(&(interval, page))
            .is_some_and(|mask| mask & (1u64 << proc.index()) != 0)
    }

    /// Records that `proc` now holds the diff `(interval, page)`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `(interval, page)` names no recorded diff
    /// — a protocol bookkeeping bug (e.g. applying a garbage-collected
    /// diff) that would otherwise silently corrupt possession tracking.
    pub(crate) fn add_holder(&mut self, proc: ProcId, interval: IntervalId, page: PageId) {
        match self.holders.get_mut(&(interval, page)) {
            Some(mask) => *mask |= 1u64 << proc.index(),
            None => debug_assert!(
                false,
                "add_holder({proc}, {interval}, {page}): no such diff is recorded"
            ),
        }
    }

    /// Split-borrow fetch for the apply path: records `proc` as a holder of
    /// `(interval, page)` and returns the diff *by reference* in one call.
    ///
    /// `holders` and `diffs` are disjoint fields, so the mutable holder
    /// update and the shared diff borrow coexist — callers applying a plan
    /// no longer clone every diff out of the store just to appease the
    /// borrow checker (the hottest allocation on the miss path).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `(interval, page)` names no recorded diff
    /// (see [`IntervalStore::add_holder`]).
    pub(crate) fn hold_and_diff(
        &mut self,
        proc: ProcId,
        interval: IntervalId,
        page: PageId,
    ) -> Option<&Diff> {
        self.add_holder(proc, interval, page);
        self.diffs.get(&(interval, page))
    }

    /// All write notices of intervals of `creator` with sequence in
    /// `(after, upto]` — what a grantor sends an acquirer whose clock entry
    /// for `creator` is `after` when the grantor's knowledge is `upto`.
    pub fn notices_between(
        &self,
        creator: ProcId,
        after: u32,
        upto: u32,
    ) -> impl Iterator<Item = WriteNotice> + '_ {
        let list = &self.records[creator.index()];
        let start = list.partition_point(|r| r.stamp.id().seq() <= after);
        list[start..]
            .iter()
            .take_while(move |r| r.stamp.id().seq() <= upto)
            .flat_map(|r| {
                let id = r.stamp.id();
                r.pages
                    .iter()
                    .map(move |&page| WriteNotice { interval: id, page })
            })
    }

    /// All write notices a processor with knowledge `have` is missing
    /// relative to knowledge `want` (pointwise interval ranges).
    pub fn notices_missing(&self, have: &VectorClock, want: &VectorClock) -> Vec<WriteNotice> {
        let mut out = Vec::new();
        for (proc, upto) in want.iter() {
            let after = have.get(proc);
            if upto > after {
                out.extend(self.notices_between(proc, after, upto));
            }
        }
        out
    }

    /// Number of recorded (non-empty) intervals.
    pub fn interval_count(&self) -> usize {
        self.records.iter().map(Vec::len).sum()
    }

    /// Number of stored diffs.
    pub fn diff_count(&self) -> usize {
        self.diffs.len()
    }

    /// Total bytes of stored diff payloads (wire encoding).
    pub fn diff_bytes(&self) -> u64 {
        self.diffs.values().map(|d| d.encoded_size() as u64).sum()
    }

    /// All recorded intervals carrying a diff for `page` (unordered) —
    /// the garbage collector's re-homing pass materializes a dead-owned
    /// page by applying this set in happened-before order over its
    /// escrowed base.
    pub(crate) fn diff_intervals_of_page(&self, page: PageId) -> Vec<IntervalId> {
        self.diffs
            .keys()
            .filter(|&&(_, g)| g == page)
            .map(|&(iv, _)| iv)
            .collect()
    }

    /// The causally-latest recorded writer of every written page (by stamp
    /// weight, ties broken by processor id) — the processor a cold miss
    /// falls back to after the history is garbage-collected.
    pub fn latest_writers(&self) -> HashMap<PageId, ProcId> {
        let mut best: HashMap<PageId, (u64, ProcId)> = HashMap::new();
        for list in &self.records {
            for rec in list {
                let weight = rec.stamp.clock().weight();
                let proc = rec.stamp.id().proc();
                for &page in &rec.pages {
                    let entry = best.entry(page).or_insert((weight, proc));
                    if (weight, proc) > *entry {
                        *entry = (weight, proc);
                    }
                }
            }
        }
        best.into_iter().map(|(g, (_, p))| (g, p)).collect()
    }

    /// The highest closed-interval sequence number recorded for `p`
    /// (0 if none survives — empty intervals leave no records, and
    /// garbage collection discards them all).
    pub fn latest_seq(&self, p: ProcId) -> u32 {
        self.records[p.index()]
            .last()
            .map_or(0, |r| r.stamp.id().seq())
    }

    /// Exports every interval record with its diff payloads and holder
    /// masks — grouped by processor, ascending seq within each — the
    /// checkpoint serialization view of the store.
    pub(crate) fn export(&self) -> Vec<crate::StoreEntry> {
        self.records
            .iter()
            .flatten()
            .map(|rec| {
                let id = rec.stamp.id();
                let diffs = rec
                    .pages
                    .iter()
                    .map(|&g| (g, self.diffs[&(id, g)].clone(), self.holders[&(id, g)]))
                    .collect();
                (rec.stamp.clone(), diffs)
            })
            .collect()
    }

    /// Rebuilds a store from an exported view (the inverse of
    /// [`IntervalStore::export`]). `version` restores the snapshot era so
    /// the recovery guard against rejoining across a garbage collection
    /// keeps working after a whole-engine restore.
    ///
    /// # Panics
    ///
    /// Panics if a processor's intervals arrive out of seq order (a
    /// decoded checkpoint cannot: its decoder refuses that order).
    pub(crate) fn import(
        n_procs: usize,
        version: u64,
        entries: &[crate::StoreEntry],
    ) -> IntervalStore {
        let mut store = IntervalStore::new(n_procs);
        store.version = version;
        for (stamp, diffs) in entries {
            let id = stamp.id();
            let list = &mut store.records[id.proc().index()];
            if let Some(last) = list.last() {
                assert!(
                    last.stamp.id().seq() < id.seq(),
                    "interval {} imported out of order",
                    id
                );
            }
            let mut pages = Vec::with_capacity(diffs.len());
            for (page, diff, mask) in diffs {
                pages.push(*page);
                store.diffs.insert((id, *page), diff.clone());
                store.holders.insert((id, *page), *mask);
            }
            list.push(IntervalRecord {
                stamp: stamp.clone(),
                pages,
            });
        }
        store
    }

    /// Discards every interval record, diff, and possession entry — the
    /// barrier-time garbage collection step. Callers must first ensure all
    /// processors have applied what they need.
    pub(crate) fn clear(&mut self) {
        for list in &mut self.records {
            list.clear();
        }
        self.diffs.clear();
        self.holders.clear();
        // Outstanding read snapshots now dangle: invalidate them.
        self.version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_pagemem::{PageBuf, PageSize};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn stamp(proc: u16, seq: u32, n: usize) -> StampedInterval {
        let mut vc = VectorClock::new(n);
        vc.set(p(proc), seq);
        StampedInterval::new(IntervalId::new(p(proc), seq), vc)
    }

    fn diff_of(bytes: &[u8]) -> Diff {
        let twin = PageBuf::zeroed(PageSize::new(64).unwrap());
        let mut cur = twin.clone();
        cur.write(0, bytes);
        Diff::between(&twin, &cur)
    }

    #[test]
    fn close_and_query_round_trip() {
        let mut s = IntervalStore::new(2);
        let g = PageId::new(3);
        s.close_interval(stamp(0, 1, 2), vec![(g, diff_of(&[1]))]);
        assert_eq!(s.interval_count(), 1);
        assert_eq!(s.diff_count(), 1);
        assert!(s.diff_bytes() > 0);
        let id = IntervalId::new(p(0), 1);
        assert!(s.stamp(id).is_some());
        assert!(s.diff(id, g).is_some());
        assert!(s.holds(p(0), id, g), "creator holds its diff");
        assert!(!s.holds(p(1), id, g));
        s.add_holder(p(1), id, g);
        assert!(s.holds(p(1), id, g));
    }

    #[test]
    fn notices_between_selects_seq_window() {
        let mut s = IntervalStore::new(1);
        let g = PageId::new(0);
        for seq in [1u32, 3, 5] {
            s.close_interval(stamp(0, seq, 1), vec![(g, diff_of(&[seq as u8]))]);
        }
        let got: Vec<u32> = s
            .notices_between(p(0), 1, 5)
            .map(|n| n.interval.seq())
            .collect();
        assert_eq!(got, vec![3, 5], "window is (after, upto]");
        assert_eq!(s.notices_between(p(0), 5, 5).count(), 0);
        assert_eq!(s.notices_between(p(0), 0, 2).count(), 1);
    }

    #[test]
    fn notices_missing_diffs_clocks() {
        let mut s = IntervalStore::new(2);
        let g = PageId::new(0);
        s.close_interval(stamp(0, 1, 2), vec![(g, diff_of(&[1]))]);
        s.close_interval(stamp(1, 2, 2), vec![(g, diff_of(&[2]))]);
        let mut have = VectorClock::new(2);
        have.set(p(0), 1); // already knows p0@1
        let mut want = VectorClock::new(2);
        want.set(p(0), 1);
        want.set(p(1), 2);
        let missing = s.notices_missing(&have, &want);
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].interval, IntervalId::new(p(1), 2));
    }

    #[test]
    fn empty_intervals_leave_no_records() {
        let s = IntervalStore::new(2);
        assert_eq!(s.interval_count(), 0);
        assert_eq!(
            s.notices_missing(&VectorClock::new(2), &VectorClock::new(2))
                .len(),
            0
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "no such diff"))]
    fn add_holder_rejects_unknown_diff() {
        let mut s = IntervalStore::new(2);
        let g = PageId::new(0);
        s.close_interval(stamp(0, 1, 2), vec![(g, diff_of(&[1]))]);
        // Wrong page for a real interval: bookkeeping bug, must fail loudly
        // in debug builds (and stay a no-op in release builds).
        s.add_holder(p(1), IntervalId::new(p(0), 1), PageId::new(7));
    }

    #[test]
    fn version_moves_only_on_destructive_reorganization() {
        let mut s = IntervalStore::new(2);
        assert_eq!(s.version(), 0);
        let g = PageId::new(0);
        s.close_interval(stamp(0, 1, 2), vec![(g, diff_of(&[1]))]);
        s.add_holder(p(1), IntervalId::new(p(0), 1), g);
        assert_eq!(s.version(), 0, "additive mutations keep snapshots valid");
        s.clear();
        assert_eq!(s.version(), 1, "garbage collection invalidates snapshots");
        s.clear();
        assert_eq!(s.version(), 2);
    }

    #[test]
    fn export_import_round_trips_records_diffs_and_holders() {
        let mut s = IntervalStore::new(3);
        let g0 = PageId::new(0);
        let g1 = PageId::new(5);
        s.close_interval(
            stamp(0, 1, 3),
            vec![(g0, diff_of(&[1])), (g1, diff_of(&[2]))],
        );
        s.close_interval(stamp(1, 1, 3), vec![(g0, diff_of(&[3]))]);
        s.close_interval(stamp(0, 4, 3), vec![(g1, diff_of(&[4]))]);
        s.add_holder(p(2), IntervalId::new(p(0), 1), g0);
        s.clear(); // bump the era, then rebuild some history
        s.close_interval(stamp(2, 7, 3), vec![(g0, diff_of(&[5]))]);
        s.add_holder(p(0), IntervalId::new(p(2), 7), g0);

        let back = IntervalStore::import(3, s.version(), &s.export());
        assert_eq!(back.version(), s.version());
        assert_eq!(back.interval_count(), s.interval_count());
        assert_eq!(back.diff_count(), s.diff_count());
        assert_eq!(back.diff_bytes(), s.diff_bytes());
        assert_eq!(back.latest_seq(p(2)), 7);
        assert_eq!(back.latest_seq(p(1)), 0, "cleared history leaves no seq");
        let id = IntervalId::new(p(2), 7);
        assert!(back.holds(p(2), id, g0), "creator mask survives");
        assert!(back.holds(p(0), id, g0), "fetched-holder mask survives");
        assert_eq!(back.diff(id, g0), s.diff(id, g0));
    }

    #[test]
    fn latest_seq_tracks_last_closed_interval() {
        let mut s = IntervalStore::new(2);
        assert_eq!(s.latest_seq(p(0)), 0);
        let g = PageId::new(0);
        s.close_interval(stamp(0, 2, 2), vec![(g, diff_of(&[1]))]);
        s.close_interval(stamp(0, 6, 2), vec![(g, diff_of(&[2]))]);
        assert_eq!(s.latest_seq(p(0)), 6);
        assert_eq!(s.latest_seq(p(1)), 0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_close_rejected() {
        let mut s = IntervalStore::new(1);
        s.close_interval(stamp(0, 5, 1), vec![]);
        s.close_interval(stamp(0, 3, 1), vec![]);
    }
}
