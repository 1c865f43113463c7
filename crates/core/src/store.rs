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

/// One page a closed interval modified: its diff, and who holds it.
#[derive(Clone, Debug)]
struct PageEntry {
    page: PageId,
    diff: Diff,
    /// Which processors hold the diff as an object (bitmask by proc
    /// index). The creator's bit is set from the start.
    holders: u64,
}

/// One closed interval: its stamp plus the pages it modified, each with
/// its diff and possession bits.
#[derive(Clone, Debug)]
struct IntervalRecord {
    stamp: StampedInterval,
    /// The stamp's clock weight, summed once at close or import: every
    /// happened-before sort key of every plan reads it.
    weight: u64,
    /// Ascending by page; a handful per interval.
    pages: Vec<PageEntry>,
}

impl IntervalRecord {
    fn new(stamp: StampedInterval, mut pages: Vec<PageEntry>) -> Self {
        pages.sort_by_key(|e| e.page);
        IntervalRecord {
            weight: stamp.clock().weight(),
            stamp,
            pages,
        }
    }

    fn seq(&self) -> u32 {
        self.stamp.id().seq()
    }

    fn entry(&self, page: PageId) -> Option<&PageEntry> {
        let at = self.pages.binary_search_by_key(&page, |e| e.page).ok()?;
        Some(&self.pages[at])
    }

    fn entry_mut(&mut self, page: PageId) -> Option<&mut PageEntry> {
        let at = self.pages.binary_search_by_key(&page, |e| e.page).ok()?;
        Some(&mut self.pages[at])
    }

    /// One write notice per modified page.
    fn notices(&self) -> impl ExactSizeIterator<Item = WriteNotice> + '_ {
        let interval = self.stamp.id();
        self.pages.iter().map(move |e| WriteNotice {
            interval,
            page: e.page,
        })
    }
}

/// Index of the first record numbered `seq` or higher in one processor's
/// list (its length if there is none).
///
/// A processor numbers the intervals it records consecutively (an
/// interval that modified nothing leaves no record and uses up no
/// number), so that record is `seq − first seq` slots in. Only a rejoin
/// reopens past a gap; the binary search then finds what the slot missed.
fn lower_bound(list: &[IntervalRecord], seq: u32) -> usize {
    let Some(first) = list.first() else { return 0 };
    let slot = (seq.saturating_sub(first.seq()) as usize).min(list.len());
    let below = slot == 0 || list[slot - 1].seq() < seq;
    let at = list.get(slot).is_none_or(|rec| rec.seq() >= seq);
    if below && at {
        slot
    } else {
        list.partition_point(|rec| rec.seq() < seq)
    }
}

/// Where the record numbered `seq` sits in one processor's list.
fn position(list: &[IntervalRecord], seq: u32) -> Option<usize> {
    let slot = lower_bound(list, seq);
    (list.get(slot)?.seq() == seq).then_some(slot)
}

/// The interval, diff, and possession bookkeeping, one list per processor.
///
/// This is the paper's layout (§4.2), not a concession to the simulator:
/// each processor keeps the records of the intervals *it* closed, in the
/// order it closed them, and each record owns the diffs it made and their
/// possession bits. `records[p]` is exactly the state a node hosting only
/// processor `p` would hold; the lists share one struct because the
/// processors of one process share an address space. Every query is
/// filtered by the asking processor's vector clock, so no processor can
/// observe intervals that have not performed at it.
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

    /// Appends a record to its creator's list.
    ///
    /// # Panics
    ///
    /// Panics if the interval is out of seq order for its processor.
    fn push(&mut self, record: IntervalRecord, how: &str) {
        let id = record.stamp.id();
        let list = &mut self.records[id.proc().index()];
        if let Some(last) = list.last() {
            assert!(last.seq() < id.seq(), "interval {id} {how} out of order");
        }
        list.push(record);
    }

    /// Records a closed interval with its modified pages and their diffs.
    /// The creator holds all of its own diffs.
    ///
    /// # Panics
    ///
    /// Panics if the interval is out of seq order for its processor.
    pub(crate) fn close_interval(
        &mut self,
        stamp: StampedInterval,
        page_diffs: Vec<(PageId, Diff)>,
    ) {
        let holders = 1u64 << stamp.id().proc().index();
        let pages = page_diffs
            .into_iter()
            .map(|(page, diff)| PageEntry {
                page,
                diff,
                holders,
            })
            .collect();
        self.push(IntervalRecord::new(stamp, pages), "closed");
    }

    fn record(&self, interval: IntervalId) -> Option<&IntervalRecord> {
        let list = &self.records[interval.proc().index()];
        Some(&list[position(list, interval.seq())?])
    }

    fn entry(&self, interval: IntervalId, page: PageId) -> Option<&PageEntry> {
        self.record(interval)?.entry(page)
    }

    fn entry_mut(&mut self, interval: IntervalId, page: PageId) -> Option<&mut PageEntry> {
        let list = &mut self.records[interval.proc().index()];
        let slot = position(list, interval.seq())?;
        list[slot].entry_mut(page)
    }

    /// The clock weight of a recorded interval's stamp. Sorting by
    /// `(weight, proc, seq)` is a linear extension of happened-before.
    pub(crate) fn weight(&self, interval: IntervalId) -> Option<u64> {
        self.record(interval).map(|r| r.weight)
    }

    /// What a fetch planner asks about a diff, in one lookup: the weight
    /// of its interval and the mask of processors holding it.
    pub(crate) fn weight_and_holders(
        &self,
        interval: IntervalId,
        page: PageId,
    ) -> Option<(u64, u64)> {
        let record = self.record(interval)?;
        Some((record.weight, record.entry(page)?.holders))
    }

    /// The diff of `(interval, page)`.
    pub fn diff(&self, interval: IntervalId, page: PageId) -> Option<&Diff> {
        self.entry(interval, page).map(|e| &e.diff)
    }

    /// True if `proc` holds the diff `(interval, page)` as an object.
    pub fn holds(&self, proc: ProcId, interval: IntervalId, page: PageId) -> bool {
        self.entry(interval, page)
            .is_some_and(|e| e.holders & (1u64 << proc.index()) != 0)
    }

    /// Records that `proc` now holds the diff `(interval, page)` — for
    /// tests that stage possession by hand; the engine flips the bit as it
    /// applies the diff ([`IntervalStore::hold_and_diff`]).
    #[cfg(test)]
    pub(crate) fn add_holder(&mut self, proc: ProcId, interval: IntervalId, page: PageId) {
        self.hold_and_diff(proc, interval, page);
    }

    /// The apply path's fetch: records `proc` as a holder of
    /// `(interval, page)` and returns the diff *by reference*, in one
    /// lookup — a plan is applied straight out of the store, no diff is
    /// cloned on the way.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `(interval, page)` names no recorded diff
    /// — a protocol bookkeeping bug (e.g. applying a garbage-collected
    /// diff) that would otherwise silently corrupt possession tracking.
    pub(crate) fn hold_and_diff(
        &mut self,
        proc: ProcId,
        interval: IntervalId,
        page: PageId,
    ) -> Option<&Diff> {
        let entry = self.entry_mut(interval, page);
        debug_assert!(
            entry.is_some(),
            "hold_and_diff({proc}, {interval}, {page}): no such diff is recorded"
        );
        let entry = entry?;
        entry.holders |= 1u64 << proc.index();
        Some(&entry.diff)
    }

    /// The records of `creator` with sequence in `(after, upto]`.
    fn window(&self, creator: ProcId, after: u32, upto: u32) -> &[IntervalRecord] {
        let list = &self.records[creator.index()];
        let past = |seq: u32| {
            seq.checked_add(1)
                .map_or(list.len(), |next| lower_bound(list, next))
        };
        let (start, end) = (past(after), past(upto));
        &list[start..end.max(start)]
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
        self.window(creator, after, upto)
            .iter()
            .flat_map(IntervalRecord::notices)
    }

    /// All write notices a processor with knowledge `have` is missing
    /// relative to knowledge `want` (pointwise interval ranges). One
    /// interval's notices are contiguous.
    pub fn notices_missing(&self, have: &VectorClock, want: &VectorClock) -> Vec<WriteNotice> {
        let mut out = Vec::new();
        for (proc, upto) in want.iter() {
            let after = have.get(proc);
            if upto > after {
                for record in self.window(proc, after, upto) {
                    out.extend(record.notices());
                }
            }
        }
        out
    }

    fn all_records(&self) -> impl Iterator<Item = &IntervalRecord> {
        self.records.iter().flatten()
    }

    /// Number of recorded (non-empty) intervals.
    pub fn interval_count(&self) -> usize {
        self.records.iter().map(Vec::len).sum()
    }

    /// Number of stored diffs.
    pub fn diff_count(&self) -> usize {
        self.all_records().map(|r| r.pages.len()).sum()
    }

    /// Total bytes of stored diff payloads (wire encoding).
    pub fn diff_bytes(&self) -> u64 {
        self.all_records()
            .flat_map(|r| &r.pages)
            .map(|e| e.diff.encoded_size() as u64)
            .sum()
    }

    /// All recorded intervals carrying a diff for `page` (unordered) —
    /// the garbage collector's re-homing pass materializes a dead-owned
    /// page by applying this set in happened-before order over its
    /// escrowed base.
    pub(crate) fn diff_intervals_of_page(&self, page: PageId) -> Vec<IntervalId> {
        self.all_records()
            .filter(|r| r.entry(page).is_some())
            .map(|r| r.stamp.id())
            .collect()
    }

    /// The causally-latest recorded writer of every written page (by stamp
    /// weight, ties broken by processor id) — the processor a cold miss
    /// falls back to after the history is garbage-collected.
    pub fn latest_writers(&self) -> HashMap<PageId, ProcId> {
        let mut best: HashMap<PageId, (u64, ProcId)> = HashMap::new();
        for rec in self.all_records() {
            let candidate = (rec.weight, rec.stamp.id().proc());
            for e in &rec.pages {
                let entry = best.entry(e.page).or_insert(candidate);
                if candidate > *entry {
                    *entry = candidate;
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
            .map_or(0, IntervalRecord::seq)
    }

    /// Exports every interval record with its diff payloads and holder
    /// masks — grouped by processor, ascending seq within each — the
    /// checkpoint serialization view of the store.
    pub(crate) fn export(&self) -> Vec<crate::StoreEntry> {
        self.all_records()
            .map(|rec| {
                let diffs = rec
                    .pages
                    .iter()
                    .map(|e| (e.page, e.diff.clone(), e.holders))
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
            let pages = diffs
                .iter()
                .map(|(page, diff, holders)| PageEntry {
                    page: *page,
                    diff: diff.clone(),
                    holders: *holders,
                })
                .collect();
            store.push(IntervalRecord::new(stamp.clone(), pages), "imported");
        }
        store
    }

    /// Discards every interval record with its diffs and possession bits
    /// — the barrier-time garbage collection step. Callers must first
    /// ensure all processors have applied what they need.
    pub(crate) fn clear(&mut self) {
        for list in &mut self.records {
            list.clear();
        }
        // Outstanding read snapshots now dangle: invalidate them.
        self.version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded::{script, Rng, StoreOp};
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
        assert!(s.weight(id).is_some());
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

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "no such diff"))]
    fn add_holder_rejects_a_skipped_sequence_number() {
        let mut s = IntervalStore::new(2);
        let g = PageId::new(0);
        for seq in [1u32, 2, 5, 6] {
            s.close_interval(stamp(0, seq, 2), vec![(g, diff_of(&[seq as u8]))]);
        }
        assert!(
            s.holds(p(0), IntervalId::new(p(0), 5), g),
            "found past the gap"
        );
        // 3 would sit where 5 does if numbering were dense.
        s.add_holder(p(1), IntervalId::new(p(0), 3), g);
    }

    /// The bookkeeping this store replaced, kept as the model: interval
    /// records that only list their pages, and two hash maps keyed by
    /// `(interval, page)` for the diffs and the possession bits.
    #[derive(Default)]
    struct TwoMaps {
        records: Vec<Vec<(StampedInterval, Vec<PageId>)>>,
        diffs: HashMap<(IntervalId, PageId), Diff>,
        holders: HashMap<(IntervalId, PageId), u64>,
        version: u64,
    }

    impl TwoMaps {
        fn new(n_procs: usize) -> Self {
            TwoMaps {
                records: vec![Vec::new(); n_procs],
                ..TwoMaps::default()
            }
        }

        fn apply(&mut self, op: &StoreOp) {
            match op {
                StoreOp::Close(stamp, page_diffs) => {
                    let id = stamp.id();
                    let mut page_diffs = page_diffs.clone();
                    page_diffs.sort_by_key(|(g, _)| *g);
                    let pages = page_diffs.iter().map(|(g, _)| *g).collect();
                    for (page, diff) in page_diffs {
                        self.diffs.insert((id, page), diff);
                        self.holders.insert((id, page), 1u64 << id.proc().index());
                    }
                    self.records[id.proc().index()].push((stamp.clone(), pages));
                }
                StoreOp::Hold(proc, interval, page) => {
                    *self.holders.get_mut(&(*interval, *page)).unwrap() |= 1u64 << proc.index();
                }
                StoreOp::Clear => {
                    self.records.iter_mut().for_each(Vec::clear);
                    self.diffs.clear();
                    self.holders.clear();
                    self.version += 1;
                }
                StoreOp::Reload => {
                    let mut back = TwoMaps::new(self.records.len());
                    back.version = self.version;
                    for (stamp, diffs) in self.export() {
                        let id = stamp.id();
                        let mut pages = Vec::new();
                        for (page, diff, mask) in diffs {
                            pages.push(page);
                            back.diffs.insert((id, page), diff);
                            back.holders.insert((id, page), mask);
                        }
                        back.records[id.proc().index()].push((stamp, pages));
                    }
                    *self = back;
                }
            }
        }

        fn export(&self) -> Vec<crate::StoreEntry> {
            self.records
                .iter()
                .flatten()
                .map(|(stamp, pages)| {
                    let id = stamp.id();
                    let diffs = pages
                        .iter()
                        .map(|&g| (g, self.diffs[&(id, g)].clone(), self.holders[&(id, g)]))
                        .collect();
                    (stamp.clone(), diffs)
                })
                .collect()
        }

        fn holds(&self, proc: ProcId, interval: IntervalId, page: PageId) -> bool {
            self.holders
                .get(&(interval, page))
                .is_some_and(|mask| mask & (1u64 << proc.index()) != 0)
        }

        fn notices_between(&self, creator: ProcId, after: u32, upto: u32) -> Vec<WriteNotice> {
            let list = &self.records[creator.index()];
            let start = list.partition_point(|(stamp, _)| stamp.id().seq() <= after);
            list[start..]
                .iter()
                .take_while(|(stamp, _)| stamp.id().seq() <= upto)
                .flat_map(|(stamp, pages)| {
                    let interval = stamp.id();
                    pages
                        .iter()
                        .map(move |&page| WriteNotice { interval, page })
                })
                .collect()
        }

        fn notices_missing(&self, have: &VectorClock, want: &VectorClock) -> Vec<WriteNotice> {
            let mut out = Vec::new();
            for (proc, upto) in want.iter() {
                let after = have.get(proc);
                if upto > after {
                    out.extend(self.notices_between(proc, after, upto));
                }
            }
            out
        }

        fn latest_writers(&self) -> HashMap<PageId, ProcId> {
            let mut best: HashMap<PageId, (u64, ProcId)> = HashMap::new();
            for (stamp, pages) in self.records.iter().flatten() {
                let candidate = (stamp.clock().weight(), stamp.id().proc());
                for &page in pages {
                    let entry = best.entry(page).or_insert(candidate);
                    if candidate > *entry {
                        *entry = candidate;
                    }
                }
            }
            best.into_iter().map(|(g, (_, p))| (g, p)).collect()
        }

        fn diff_intervals_of_page(&self, page: PageId) -> Vec<IntervalId> {
            self.diffs
                .keys()
                .filter(|&&(_, g)| g == page)
                .map(|&(iv, _)| iv)
                .collect()
        }
    }

    /// Every query of the store against the model, after one step.
    fn agree(store: &IntervalStore, model: &TwoMaps, rng: &mut Rng, n_pages: u32) {
        let n = model.records.len();
        assert_eq!(store.version(), model.version);
        assert_eq!(store.export(), model.export());
        assert_eq!(
            store.interval_count(),
            model.records.iter().map(Vec::len).sum::<usize>()
        );
        assert_eq!(store.diff_count(), model.diffs.len());
        let bytes: u64 = model.diffs.values().map(|d| d.encoded_size() as u64).sum();
        assert_eq!(store.diff_bytes(), bytes);
        assert_eq!(store.latest_writers(), model.latest_writers());

        // Every diff there is, and names around them that are none:
        // other pages, skipped and future sequence numbers.
        let top = ProcId::all(n)
            .map(|q| store.latest_seq(q))
            .max()
            .unwrap_or(0);
        for q in ProcId::all(n) {
            let last = model.records[q.index()].last();
            assert_eq!(store.latest_seq(q), last.map_or(0, |(s, _)| s.id().seq()));
            for seq in 0..=top + 1 {
                let interval = IntervalId::new(q, seq);
                let recorded = model.records[q.index()]
                    .iter()
                    .find(|(s, _)| s.id() == interval);
                assert_eq!(
                    store.weight(interval),
                    recorded.map(|(s, _)| s.clock().weight())
                );
                for page in (0..n_pages).map(PageId::new) {
                    assert_eq!(
                        store.diff(interval, page),
                        model.diffs.get(&(interval, page))
                    );
                    let holders = model.holders.get(&(interval, page));
                    assert_eq!(
                        store.weight_and_holders(interval, page).map(|(_, h)| h),
                        holders.copied()
                    );
                    for r in ProcId::all(n) {
                        assert_eq!(
                            store.holds(r, interval, page),
                            model.holds(r, interval, page)
                        );
                    }
                }
            }
        }
        for page in (0..n_pages).map(PageId::new) {
            let mut got = store.diff_intervals_of_page(page);
            let mut want = model.diff_intervals_of_page(page);
            got.sort();
            want.sort();
            assert_eq!(got, want);
        }

        for _ in 0..6 {
            let (creator, after) = (rng.proc(n), rng.below(top as u64 + 2) as u32);
            // Sometimes empty or inverted, sometimes everything.
            let upto = match rng.below(4) {
                0 => u32::MAX,
                _ => rng.below(top as u64 + 3) as u32,
            };
            let got: Vec<WriteNotice> = store.notices_between(creator, after, upto).collect();
            assert_eq!(got, model.notices_between(creator, after, upto));
        }
        for _ in 0..3 {
            let mut clock = || {
                let mut clock = VectorClock::new(n);
                for q in ProcId::all(n) {
                    clock.set(q, rng.below(top as u64 + 2) as u32);
                }
                clock
            };
            let (have, want) = (clock(), clock());
            assert_eq!(
                store.notices_missing(&have, &want),
                model.notices_missing(&have, &want)
            );
        }
    }

    #[test]
    fn store_agrees_with_the_two_map_model_step_by_step() {
        const PAGES: u32 = 5;
        let (mut closes, mut skips, mut clears, mut reloads) = (0, 0, 0, 0);
        for seed in 0..20u64 {
            let mut rng = Rng::new(seed);
            let n = 2 + (seed % 4) as usize;
            let (mut store, mut model) = (IntervalStore::new(n), TwoMaps::new(n));
            for op in script(&mut rng, n, PAGES, 70) {
                match &op {
                    StoreOp::Close(stamp, _) => {
                        closes += 1;
                        let latest = store.latest_seq(stamp.id().proc());
                        skips += usize::from(latest > 0 && stamp.id().seq() > latest + 1);
                    }
                    StoreOp::Clear => clears += 1,
                    StoreOp::Reload => reloads += 1,
                    StoreOp::Hold(..) => {}
                }
                op.apply(&mut store, n);
                model.apply(&op);
                agree(&store, &model, &mut rng, PAGES);
            }
        }
        // The histories reached what they are for.
        assert!(closes > 500 && skips > 40, "{closes} closes, {skips} skips");
        assert!(
            clears > 40 && reloads > 40,
            "{clears} clears, {reloads} reloads"
        );
    }
}
