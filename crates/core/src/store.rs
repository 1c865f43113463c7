use std::ops::Range;

use lrc_pagemem::{DiffLog, DiffSpan, DiffView, PageBuf, PageId};
use lrc_vclock::{IntervalId, ProcId, StampedInterval, VectorClock};

use crate::checkpoint::{corrupt, Reader};
use crate::CheckpointError;

/// A write notice: page × interval, without the data (§4.2), and the
/// handle of the diff it announces.
///
/// The handle is the diff's entry in its creator's log, found once, when
/// [`IntervalStore::notices_missing`] walks the interval's entries. A
/// notice carries it through delivery, the pending lists and the fetch
/// plan, so sizing and applying a needed diff read it by index with no
/// search. A notice is 16 bytes: the interval's 8, the page's 4 and the
/// entry's 4.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct WriteNotice {
    /// The interval in which the page was modified.
    pub interval: IntervalId,
    /// The modified page.
    pub page: PageId,
    /// The diff's entry in the log of `interval`'s creator.
    pub entry: u32,
}

/// One closed interval in its creator's log: what finds it, and where
/// its pages lie. Its stamp clock is the log's `i`-th run of `n` clock
/// entries, `i` being the header's own index.
#[derive(Clone, Copy, Debug)]
struct Header {
    seq: u32,
    /// The stamp's clock weight, summed once at close or read: every
    /// happened-before sort key of every plan reads it.
    weight: u64,
    /// The log's entries of the interval's pages, ascending by page; a
    /// handful per interval.
    entries: (u32, u32),
}

impl Header {
    /// The handles of the interval's page entries.
    fn handles(&self) -> Range<u32> {
        self.entries.0..self.entries.1
    }

    fn entries(&self) -> Range<usize> {
        self.entries.0 as usize..self.entries.1 as usize
    }
}

/// One page a closed interval modified: where its diff lies in the log's
/// bytes, and who holds it. 32 bytes.
#[derive(Clone, Copy, Debug)]
struct PageEntry {
    page: PageId,
    /// The index of the interval's header in the log, set when the
    /// interval is sealed: a notice's handle reaches the weight through
    /// it. It sits where `page`'s padding was.
    header: u32,
    /// Which processors hold the diff as an object (bitmask by proc
    /// index). The creator's bit is set from the start.
    holders: u64,
    diff: DiffSpan,
}

/// How many intervals a fresh log has room for before its buffers grow,
/// at two modified pages each and [`LOG_DIFF_BYTES`] of diffs in all. A
/// processor of the paper's replayed applications (16 processors, no
/// collection) records, over a whole run, 29 intervals, 36 modified pages
/// and 1.7 KiB of diffs at the median and 42, 69 and 3.8 KiB at the 90th
/// percentile: most logs never grow, and each of their four buffers is
/// one allocation.
const LOG_INTERVALS: usize = 32;

/// The diff bytes a fresh log has room for ([`LOG_INTERVALS`]): twice
/// the 90th percentile, since a diff goes into a buffer only where its
/// whole written range fits as one run.
const LOG_DIFF_BYTES: usize = 8192;

/// One processor's history: the closed intervals it recorded, in four
/// buffers that only grow between collections — the interval headers,
/// their page entries, their stamp clocks and their diffs' bytes.
#[derive(Clone, Debug)]
struct Log {
    /// Ascending by seq.
    headers: Vec<Header>,
    entries: Vec<PageEntry>,
    /// `n` entries per header: the stamp clocks, back to back.
    clocks: Vec<u32>,
    diffs: DiffLog,
}

impl Log {
    /// An empty log for `n` processors' stamps, with room for
    /// [`LOG_INTERVALS`] intervals.
    fn new(n: usize) -> Self {
        Log {
            headers: Vec::with_capacity(LOG_INTERVALS),
            entries: Vec::with_capacity(2 * LOG_INTERVALS),
            clocks: Vec::with_capacity(n * LOG_INTERVALS),
            diffs: DiffLog::with_capacity(LOG_DIFF_BYTES),
        }
    }

    /// Index of the first header numbered `seq` or higher (the number of
    /// headers if there is none).
    ///
    /// A processor numbers the intervals it records consecutively (an
    /// interval that modified nothing leaves no record and uses up no
    /// number), so that header is `seq − first seq` slots in. Only a
    /// rejoin reopens past a gap; the binary search then finds what the
    /// slot missed.
    fn lower_bound(&self, seq: u32) -> usize {
        let list = &self.headers;
        let Some(first) = list.first() else { return 0 };
        let slot = (seq.saturating_sub(first.seq) as usize).min(list.len());
        let below = slot == 0 || list[slot - 1].seq < seq;
        let at = list.get(slot).is_none_or(|h| h.seq >= seq);
        if below && at {
            slot
        } else {
            list.partition_point(|h| h.seq < seq)
        }
    }

    /// The header numbered `seq`.
    fn header(&self, seq: u32) -> Option<&Header> {
        let header = self.headers.get(self.lower_bound(seq))?;
        (header.seq == seq).then_some(header)
    }

    /// The index of `header`'s entry for `page`.
    fn find(&self, header: &Header, page: PageId) -> Option<usize> {
        let range = header.entries();
        let at = self.entries[range.clone()]
            .binary_search_by_key(&page, |e| e.page)
            .ok()?;
        Some(range.start + at)
    }

    /// Records interval `id`, stamped `clock`, over the entries from
    /// `first` on, which it sorts by page and points at the new header.
    ///
    /// # Panics
    ///
    /// Panics if the interval is out of seq order for its processor, or
    /// if the log would hold 2³² page entries.
    fn seal(&mut self, id: IntervalId, clock: &VectorClock, first: usize, how: &str) {
        if let Some(last) = self.headers.last() {
            assert!(last.seq < id.seq(), "interval {id} {how} out of order");
        }
        let handle = |at: usize| u32::try_from(at).expect("fewer than 2^32 entries in a log");
        // There are no more headers than entries.
        let header = handle(self.headers.len());
        let entries = (handle(first), handle(self.entries.len()));
        self.entries[first..].sort_unstable_by_key(|e| e.page);
        for e in &mut self.entries[first..] {
            e.header = header;
        }
        self.clocks.extend(clock.iter().map(|(_, seq)| seq));
        self.headers.push(Header {
            seq: id.seq(),
            weight: clock.weight(),
            entries,
        });
    }

    /// The notices of the header at `h`, each with its entry.
    fn notices(&self, creator: ProcId, h: &Header) -> impl Iterator<Item = WriteNotice> + '_ {
        let interval = IntervalId::new(creator, h.seq);
        h.handles()
            .zip(&self.entries[h.entries()])
            .map(move |(entry, e)| WriteNotice {
                interval,
                page: e.page,
                entry,
            })
    }

    /// Forgets every record, keeping every buffer.
    fn clear(&mut self) {
        self.headers.clear();
        self.entries.clear();
        self.clocks.clear();
        self.diffs.clear();
    }
}

/// An interval being closed into its creator's log
/// ([`IntervalStore::open`]): each closing twin is scanned straight onto
/// the log's byte tail, and [`Closing::close`] records the interval if any
/// page changed.
pub(crate) struct Closing<'a> {
    log: &'a mut Log,
    creator: ProcId,
    first: usize,
}

impl Closing<'_> {
    /// Diffs `current` against `twin` within `written` onto the log; a
    /// page whose diff is empty leaves no entry. The creator holds its
    /// diff from the start.
    #[inline]
    pub(crate) fn add(
        &mut self,
        page: PageId,
        twin: &PageBuf,
        current: &PageBuf,
        written: Range<usize>,
    ) {
        if let Some(diff) = self.log.diffs.push_between(twin, current, written) {
            self.log.entries.push(PageEntry {
                page,
                header: 0, // set by `seal`
                holders: 1u64 << self.creator.index(),
                diff,
            });
        }
    }

    /// Records the interval stamped `clock` — its creator's own clock,
    /// whose own entry is the interval's seq — if a page changed, and
    /// says whether one did.
    ///
    /// # Panics
    ///
    /// Panics if the interval is out of seq order for its processor.
    pub(crate) fn close(self, clock: &VectorClock) -> bool {
        if self.log.entries.len() == self.first {
            return false;
        }
        let id = IntervalId::new(self.creator, clock.get(self.creator));
        self.log.seal(id, clock, self.first, "closed");
        true
    }
}

/// What a fetch planner reads of a noticed diff, by its handle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Located {
    /// The clock weight of the diff's interval.
    pub(crate) weight: u64,
    /// The mask of processors holding the diff.
    pub(crate) holders: u64,
}

/// The interval, diff, and possession bookkeeping, one log per processor.
///
/// This is the paper's layout (§4.2), not a concession to the simulator:
/// each processor keeps the records of the intervals *it* closed, in the
/// order it closed them, and each record owns the diffs it made and their
/// possession bits. `logs[p]` is exactly the state a node hosting only
/// processor `p` would hold; the logs share one struct because the
/// processors of one process share an address space. Every query is
/// filtered by the asking processor's vector clock, so no processor can
/// observe intervals that have not performed at it.
///
/// A log is four buffers, appended to as the processor closes intervals:
/// one header per interval (seq, weight, the range of its page entries),
/// one entry per modified page (page, holders, where its diff lies), the
/// stamp clocks (`n` entries per interval), and the diffs' bytes in their
/// wire layout, into which each closing twin is scanned directly. No
/// record, diff or stamp is an allocation of its own, and a collection
/// keeps every buffer's capacity, so a history no longer than an earlier
/// one is recorded without allocating. An entry's index in its log stays
/// valid while other intervals are appended, to that log or any other,
/// until the next collection: within one era.
///
/// That index is a write notice's handle (`WriteNotice::entry`). A
/// pending handle never outlives its era: every collection resets every
/// processor's pending lists together with the logs, and a restore or
/// rejoin resolves each checkpointed notice against the store it
/// installs (`IntervalStore::locate`), refusing one that names no
/// recorded diff.
///
/// Possession tracking records which processors hold each diff *as an
/// object* (creators, fetchers, and cold-miss recipients), which is what
/// lets a miss be served by the *concurrent last modifiers* only: a
/// modifier forwards the dominated diffs it holds along with its own
/// (§4.3.2).
///
/// Two stores are equal if they record the same history in the same era,
/// however their buffers are laid out: a store read back from a checkpoint
/// equals the one that was cut.
#[derive(Clone, Debug)]
pub struct IntervalStore {
    /// One log per processor.
    logs: Vec<Log>,
    /// How many times the history was discarded ([`IntervalStore::clear`],
    /// the barrier-time garbage collection). Additive mutations — closing
    /// intervals, adding holders — leave it unchanged.
    era: u64,
}

impl PartialEq for IntervalStore {
    /// The same era, and the same checkpoint section: seqs, stamp clocks,
    /// pages, holder masks and diff bytes.
    fn eq(&self, other: &IntervalStore) -> bool {
        let section = |store: &IntervalStore| {
            let mut out = Vec::new();
            store.write_section(&mut out);
            out
        };
        self.era == other.era && section(self) == section(other)
    }
}

impl Eq for IntervalStore {}

impl IntervalStore {
    /// Creates an empty store for `n_procs` processors.
    pub(crate) fn new(n_procs: usize) -> Self {
        IntervalStore {
            logs: (0..n_procs).map(|_| Log::new(n_procs)).collect(),
            era: 0,
        }
    }

    /// The store's era: advanced only by garbage collection. A checkpoint
    /// records it, so a rejoin can refuse a checkpoint whose catch-up
    /// history was collected since; a slow path reads it when it plans,
    /// and asserts it unchanged when the plan applies.
    pub(crate) fn era(&self) -> u64 {
        self.era
    }

    /// Starts closing an interval of `creator`'s ([`Closing`]).
    pub(crate) fn open(&mut self, creator: ProcId) -> Closing<'_> {
        let log = &mut self.logs[creator.index()];
        let first = log.entries.len();
        Closing {
            log,
            creator,
            first,
        }
    }

    /// Appends a record of `stamp` with copies of `diffs`, each with its
    /// holder mask, to its creator's log.
    ///
    /// # Panics
    ///
    /// Panics if the interval is out of seq order for its processor.
    fn push<'a>(
        &mut self,
        stamp: &StampedInterval,
        diffs: impl Iterator<Item = (PageId, DiffView<'a>, u64)>,
        how: &str,
    ) {
        let id = stamp.id();
        let log = &mut self.logs[id.proc().index()];
        let first = log.entries.len();
        for (page, diff, holders) in diffs {
            let diff = log.diffs.push(diff);
            log.entries.push(PageEntry {
                page,
                header: 0, // set by `seal`
                holders,
                diff,
            });
        }
        log.seal(id, stamp.clock(), first, how);
    }

    /// Records a closed interval with its modified pages and their diffs,
    /// drained out of `page_diffs`, the way the model histories of the
    /// tests stage one; the engine closes through
    /// [`IntervalStore::open`]. The creator holds all of its own diffs.
    ///
    /// # Panics
    ///
    /// Panics if the interval is out of seq order for its processor.
    #[cfg(test)]
    pub(crate) fn close_interval(
        &mut self,
        stamp: StampedInterval,
        page_diffs: &mut Vec<(PageId, lrc_pagemem::Diff)>,
    ) {
        let holders = 1u64 << stamp.id().proc().index();
        let diffs = page_diffs
            .iter()
            .map(|(page, diff)| (*page, diff.view(), holders));
        self.push(&stamp, diffs, "closed");
        page_diffs.clear();
    }

    /// The log and header of `interval`, if it is recorded.
    fn record(&self, interval: IntervalId) -> Option<(&Log, &Header)> {
        let log = &self.logs[interval.proc().index()];
        Some((log, log.header(interval.seq())?))
    }

    /// The creator's log and the index of the entry of `(interval, page)`.
    fn entry(&self, interval: IntervalId, page: PageId) -> Option<(&Log, usize)> {
        let (log, header) = self.record(interval)?;
        Some((log, log.find(header, page)?))
    }

    /// The clock weight of a recorded interval's stamp. Sorting by
    /// `(weight, proc, seq)` is a linear extension of happened-before.
    pub(crate) fn weight(&self, interval: IntervalId) -> Option<u64> {
        self.record(interval).map(|(_, h)| h.weight)
    }

    /// The notice of `(interval, page)` with its handle, found by a
    /// search: for a notice that comes from outside the store, as a
    /// checkpointed one does. `None` if no such diff is recorded.
    pub(crate) fn locate(&self, interval: IntervalId, page: PageId) -> Option<WriteNotice> {
        let (log, header) = self.record(interval)?;
        let entry = log.find(header, page)?;
        Some(WriteNotice {
            interval,
            page,
            entry: entry as u32,
        })
    }

    /// The diff of `(interval, page)`, borrowed from the store.
    pub fn diff(&self, interval: IntervalId, page: PageId) -> Option<DiffView<'_>> {
        let (log, entry) = self.entry(interval, page)?;
        Some(log.diffs.view(log.entries[entry].diff))
    }

    /// Checks, in debug builds, that `notice`'s handle is its interval's
    /// entry for its page.
    fn debug_check_handle(log: &Log, notice: &WriteNotice) {
        debug_assert!(
            log.entries.get(notice.entry as usize).is_some_and(|e| {
                e.page == notice.page && log.headers[e.header as usize].seq == notice.interval.seq()
            }),
            "entry {} is not {}'s for {}",
            notice.entry,
            notice.interval,
            notice.page
        );
    }

    /// The log entry `notice`'s handle names: no search.
    fn noticed(&self, notice: &WriteNotice) -> (&Log, &PageEntry) {
        let log = &self.logs[notice.interval.proc().index()];
        Self::debug_check_handle(log, notice);
        (log, &log.entries[notice.entry as usize])
    }

    /// What a fetch planner asks about a noticed diff, read by its handle:
    /// the weight of its interval and the mask of processors holding it.
    pub(crate) fn located(&self, notice: &WriteNotice) -> Located {
        let (log, entry) = self.noticed(notice);
        Located {
            weight: log.headers[entry.header as usize].weight,
            holders: entry.holders,
        }
    }

    /// The noticed diff, read by its handle.
    #[inline]
    pub(crate) fn diff_at(&self, notice: &WriteNotice) -> DiffView<'_> {
        let (log, entry) = self.noticed(notice);
        log.diffs.view(entry.diff)
    }

    /// The apply path's fetch: records `proc` as a holder of the noticed
    /// diff and returns the diff *by reference* — a plan is applied
    /// straight out of the store, no diff is copied on the way.
    #[inline]
    pub(crate) fn hold_at(&mut self, proc: ProcId, notice: &WriteNotice) -> DiffView<'_> {
        let log = &mut self.logs[notice.interval.proc().index()];
        Self::debug_check_handle(log, notice);
        let entry = &mut log.entries[notice.entry as usize];
        entry.holders |= 1u64 << proc.index();
        log.diffs.view(entry.diff)
    }

    /// True if `proc` holds the diff `(interval, page)` as an object.
    #[cfg(test)]
    pub(crate) fn holds(&self, proc: ProcId, interval: IntervalId, page: PageId) -> bool {
        self.locate(interval, page)
            .is_some_and(|n| self.located(&n).holders & (1u64 << proc.index()) != 0)
    }

    /// Records that `proc` now holds the diff `(interval, page)` — for
    /// tests that stage possession by hand; the engine flips the bit as it
    /// applies the diff ([`IntervalStore::hold_at`]).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `(interval, page)` names no recorded diff
    /// — a protocol bookkeeping bug (e.g. applying a garbage-collected
    /// diff) that would otherwise silently corrupt possession tracking.
    #[cfg(test)]
    pub(crate) fn add_holder(&mut self, proc: ProcId, interval: IntervalId, page: PageId) {
        let notice = self.locate(interval, page);
        debug_assert!(
            notice.is_some(),
            "add_holder({proc}, {interval}, {page}): no such diff is recorded"
        );
        if let Some(notice) = notice {
            self.hold_at(proc, &notice);
        }
    }

    /// The headers of `creator` with sequence in `(after, upto]`.
    fn window(&self, creator: ProcId, after: u32, upto: u32) -> (&Log, &[Header]) {
        let log = &self.logs[creator.index()];
        let past = |seq: u32| {
            seq.checked_add(1)
                .map_or(log.headers.len(), |next| log.lower_bound(next))
        };
        let (start, end) = (past(after), past(upto));
        (log, &log.headers[start..end.max(start)])
    }

    /// All write notices of intervals of `creator` with sequence in
    /// `(after, upto]` — what a grantor sends an acquirer whose clock entry
    /// for `creator` is `after` when the grantor's knowledge is `upto`.
    #[cfg(test)]
    pub(crate) fn notices_between(
        &self,
        creator: ProcId,
        after: u32,
        upto: u32,
    ) -> impl Iterator<Item = WriteNotice> + '_ {
        let (log, headers) = self.window(creator, after, upto);
        headers.iter().flat_map(move |h| log.notices(creator, h))
    }

    /// Fills `out` with all write notices a processor with knowledge
    /// `have` is missing relative to knowledge `want` (pointwise interval
    /// ranges), replacing whatever it held, each with its handle. One
    /// interval's notices are contiguous. A slow path passes its
    /// processor's reused notice buffer, so a query allocates only while
    /// that buffer grows.
    ///
    /// `open` names the processor whose own clock `want` is, if it is one:
    /// that processor's entry is its *open* interval, and only what it
    /// closed is knowledge, so the entry reads one lower — the clock is
    /// read in place rather than copied to lower it.
    pub(crate) fn notices_missing(
        &self,
        have: &VectorClock,
        want: &VectorClock,
        open: Option<ProcId>,
        out: &mut Vec<WriteNotice>,
    ) {
        out.clear();
        for (proc, upto) in want.iter() {
            let upto = if open == Some(proc) {
                upto.saturating_sub(1)
            } else {
                upto
            };
            let after = have.get(proc);
            if upto > after {
                let (log, headers) = self.window(proc, after, upto);
                for h in headers {
                    out.extend(log.notices(proc, h));
                }
            }
        }
    }

    /// Number of recorded (non-empty) intervals.
    pub fn interval_count(&self) -> usize {
        self.logs.iter().map(|log| log.headers.len()).sum()
    }

    /// Number of stored diffs.
    pub fn diff_count(&self) -> usize {
        self.logs.iter().map(|log| log.entries.len()).sum()
    }

    /// Total bytes of stored diff payloads (wire encoding).
    pub fn diff_bytes(&self) -> u64 {
        self.logs
            .iter()
            .flat_map(|log| {
                let size = |e: &PageEntry| log.diffs.view(e.diff).encoded_size() as u64;
                log.entries.iter().map(size)
            })
            .sum()
    }

    /// All recorded intervals carrying a diff for `page` (unordered) —
    /// the garbage collector's re-homing pass materializes a dead-owned
    /// page by applying this set in happened-before order over its
    /// escrowed base.
    pub(crate) fn diff_intervals_of_page(&self, page: PageId) -> Vec<IntervalId> {
        let mut intervals = Vec::new();
        for (p, log) in ProcId::all(self.logs.len()).zip(&self.logs) {
            for h in &log.headers {
                if log.find(h, page).is_some() {
                    intervals.push(IntervalId::new(p, h.seq));
                }
            }
        }
        intervals
    }

    /// Writes into `owners`, indexed by page, the causally-latest recorded
    /// writer of every written page (by stamp weight, ties broken by
    /// processor id) — the processor a cold miss falls back to after the
    /// history is garbage-collected. A page nobody wrote keeps its owner.
    /// `weights` is working space: the weight of each page's latest writer
    /// so far.
    pub(crate) fn latest_writers(&self, owners: &mut [Option<ProcId>], weights: &mut Vec<u64>) {
        // Weights are at least 1 (a stamp's own entry is), so 0 marks a
        // page not written yet.
        weights.clear();
        weights.resize(owners.len(), 0);
        for (p, log) in ProcId::all(self.logs.len()).zip(&self.logs) {
            for h in &log.headers {
                for e in &log.entries[h.entries()] {
                    let g = e.page.index();
                    let best = (weights[g], owners[g]);
                    if best.0 == 0 || (h.weight, Some(p)) > best {
                        (weights[g], owners[g]) = (h.weight, Some(p));
                    }
                }
            }
        }
    }

    /// The highest closed-interval sequence number recorded for `p`
    /// (0 if none survives — empty intervals leave no records, and
    /// garbage collection discards them all).
    pub fn latest_seq(&self, p: ProcId) -> u32 {
        self.logs[p.index()].headers.last().map_or(0, |h| h.seq)
    }

    /// What makes this a store no engine of `n` processors and
    /// `n_pages` pages of `page_bytes` bytes holds, if anything: another
    /// number of logs, or a diff that names a page out of range or runs
    /// past the end of the page — a restored engine indexes its frames by
    /// that page and applies the diff to a page-sized buffer.
    pub(crate) fn fault(&self, n: usize, page_bytes: usize, n_pages: usize) -> Option<String> {
        if self.logs.len() != n {
            return Some(format!("the store has {} logs", self.logs.len()));
        }
        for (p, log) in ProcId::all(n).zip(&self.logs) {
            for e in &log.entries {
                let id = IntervalId::new(p, log.headers[e.header as usize].seq);
                let (page, end) = (e.page.raw(), log.diffs.view(e.diff).extent());
                if page as usize >= n_pages {
                    return Some(format!("diff of {id} names page {page}, out of range"));
                }
                if end > page_bytes {
                    return Some(format!(
                        "diff of {id} ends at byte {end}, past the {page_bytes}-byte page"
                    ));
                }
            }
        }
        None
    }

    /// Writes the store section of an `LRCK` checkpoint straight from the
    /// logs: the number of intervals, then every log's in processor order
    /// and ascending seq. Each interval writes its id, its stamp clock
    /// (the log's clock run, laid out as [`VectorClock::write_wire`] lays
    /// a clock out) and its page count; each page then its holder mask and
    /// its diff in wire form. The diff's stamp slot carries the interval's
    /// seq: redundant here, but it keeps the diff byte-identical to the
    /// ones the fetch paths ship.
    pub(crate) fn write_section(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.interval_count() as u32).to_le_bytes());
        let n = self.logs.len();
        for (p, log) in ProcId::all(n).zip(&self.logs) {
            for (h, clock) in log.headers.iter().zip(log.clocks.chunks_exact(n)) {
                IntervalId::new(p, h.seq).write_wire(out);
                for seq in clock {
                    out.extend_from_slice(&seq.to_le_bytes());
                }
                out.extend_from_slice(&(h.entries().len() as u32).to_le_bytes());
                for e in &log.entries[h.entries()] {
                    out.extend_from_slice(&e.holders.to_le_bytes());
                    log.diffs.view(e.diff).write_wire(e.page.raw(), h.seq, out);
                }
            }
        }
    }

    /// Reads what [`IntervalStore::write_section`] wrote into a fresh
    /// store of era `era` for `n_procs` processors, each diff parsed where
    /// it lies and copied once, into its creator's log. What the diffs
    /// name is checked by [`IntervalStore::fault`], of the whole cut.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] if the bytes run short, or an
    /// interval names an unknown processor, carries a stamp whose own
    /// entry is another seq, or does not follow its processor's previous
    /// interval in ascending seq order.
    pub(crate) fn read_section(
        r: &mut Reader<'_>,
        era: u64,
        n_procs: usize,
    ) -> Result<IntervalStore, CheckpointError> {
        let mut store = IntervalStore::new(n_procs);
        store.era = era;
        for _ in 0..r.count(IntervalId::WIRE_BYTES)? {
            let id = r.interval()?;
            let Some(log) = store.logs.get(id.proc().index()) else {
                return Err(corrupt(format!("interval {id} names an unknown processor")));
            };
            let clock = r.clock(n_procs)?;
            if clock.get(id.proc()) != id.seq() {
                return Err(corrupt(format!(
                    "stamp of {id} carries another sequence number"
                )));
            }
            if log.headers.last().is_some_and(|h| h.seq >= id.seq()) {
                return Err(corrupt(format!("interval {id} out of sequence order")));
            }
            let mut refused = Ok(());
            let diffs = (0..r.count(8)?).map_while(|_| {
                let entry = r.u64().and_then(|holders| {
                    let (page, diff) = r.diff()?;
                    Ok((PageId::new(page), diff, holders))
                });
                entry.map_err(|why| refused = Err(why)).ok()
            });
            store.push(&StampedInterval::new(id, clock), diffs, "read");
            refused?;
        }
        Ok(store)
    }

    /// Discards every interval record with its diffs and possession bits
    /// — the barrier-time garbage collection step — keeping every
    /// buffer's capacity for the next era. Callers must first ensure all
    /// processors have applied what they need.
    pub(crate) fn clear(&mut self) {
        for log in &mut self.logs {
            log.clear();
        }
        self.era += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::seeded::{script, Rng, StoreOp};
    use lrc_pagemem::{Diff, PageSize};

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
    fn a_page_entry_keeps_its_header_index_in_padding() {
        assert_eq!(std::mem::size_of::<PageEntry>(), 32);
    }

    #[test]
    fn close_and_query_round_trip() {
        let mut s = IntervalStore::new(2);
        let g = PageId::new(3);
        s.close_interval(stamp(0, 1, 2), &mut vec![(g, diff_of(&[1]))]);
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
            s.close_interval(stamp(0, seq, 1), &mut vec![(g, diff_of(&[seq as u8]))]);
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
        s.close_interval(stamp(0, 1, 2), &mut vec![(g, diff_of(&[1]))]);
        s.close_interval(stamp(1, 2, 2), &mut vec![(g, diff_of(&[2]))]);
        let mut have = VectorClock::new(2);
        have.set(p(0), 1); // already knows p0@1
        let mut want = VectorClock::new(2);
        want.set(p(0), 1);
        want.set(p(1), 2);
        let mut missing = Vec::new();
        s.notices_missing(&have, &want, None, &mut missing);
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].interval, IntervalId::new(p(1), 2));
        // Read as p1's own clock, `want` knows p1's interval 1 only.
        s.notices_missing(&have, &want, Some(p(1)), &mut missing);
        assert!(missing.is_empty());
    }

    #[test]
    fn empty_intervals_leave_no_records() {
        let s = IntervalStore::new(2);
        assert_eq!(s.interval_count(), 0);
        let mut missing = Vec::new();
        s.notices_missing(
            &VectorClock::new(2),
            &VectorClock::new(2),
            None,
            &mut missing,
        );
        assert!(missing.is_empty());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "no such diff"))]
    fn add_holder_rejects_unknown_diff() {
        let mut s = IntervalStore::new(2);
        let g = PageId::new(0);
        s.close_interval(stamp(0, 1, 2), &mut vec![(g, diff_of(&[1]))]);
        // Wrong page for a real interval: bookkeeping bug, must fail loudly
        // in debug builds (and stay a no-op in release builds).
        s.add_holder(p(1), IntervalId::new(p(0), 1), PageId::new(7));
    }

    #[test]
    fn version_moves_only_on_destructive_reorganization() {
        let mut s = IntervalStore::new(2);
        assert_eq!(s.era(), 0);
        let g = PageId::new(0);
        s.close_interval(stamp(0, 1, 2), &mut vec![(g, diff_of(&[1]))]);
        s.add_holder(p(1), IntervalId::new(p(0), 1), g);
        assert_eq!(s.era(), 0, "additive mutations keep the era");
        s.clear();
        assert_eq!(s.era(), 1, "garbage collection starts a new era");
        s.clear();
        assert_eq!(s.era(), 2);
    }

    /// `s` written as a store section and read back.
    fn reread(s: &IntervalStore, n_procs: usize) -> IntervalStore {
        let mut back = s.clone();
        StoreOp::Reload.apply(&mut back, n_procs);
        back
    }

    #[test]
    fn section_round_trips_records_diffs_and_holders() {
        let mut s = IntervalStore::new(3);
        let g0 = PageId::new(0);
        let g1 = PageId::new(5);
        s.close_interval(
            stamp(0, 1, 3),
            &mut vec![(g0, diff_of(&[1])), (g1, diff_of(&[2]))],
        );
        s.close_interval(stamp(1, 1, 3), &mut vec![(g0, diff_of(&[3]))]);
        s.close_interval(stamp(0, 4, 3), &mut vec![(g1, diff_of(&[4]))]);
        s.add_holder(p(2), IntervalId::new(p(0), 1), g0);
        s.clear(); // bump the era, then rebuild some history
        s.close_interval(stamp(2, 7, 3), &mut vec![(g0, diff_of(&[5]))]);
        s.add_holder(p(0), IntervalId::new(p(2), 7), g0);

        let back = reread(&s, 3);
        assert_eq!(back, s);
        assert_eq!(back.era(), s.era());
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
    fn equality_is_of_the_history_not_of_the_buffers() {
        let mut s = IntervalStore::new(2);
        let g = PageId::new(1);
        s.close_interval(stamp(0, 1, 2), &mut vec![(g, diff_of(&[1, 2]))]);
        // The same record, laid out after a collected history.
        let mut t = IntervalStore::new(2);
        t.close_interval(stamp(1, 1, 2), &mut vec![(g, diff_of(&[9; 40]))]);
        t.clear();
        t.era = s.era();
        t.close_interval(stamp(0, 1, 2), &mut vec![(g, diff_of(&[1, 2]))]);
        assert_eq!(t, s);
        let other = |change: &dyn Fn(&mut IntervalStore)| {
            let mut u = reread(&s, 2);
            change(&mut u);
            assert_ne!(u, s);
        };
        other(&|u| u.clear());
        other(&|u| u.add_holder(p(1), IntervalId::new(p(0), 1), g));
        other(&|u| u.close_interval(stamp(0, 2, 2), &mut vec![(g, diff_of(&[1]))]));
        let mut wider = IntervalStore::new(2);
        wider.close_interval(stamp(0, 1, 2), &mut vec![(g, diff_of(&[1, 3]))]);
        assert_ne!(wider, s, "diff bytes differ");
    }

    #[test]
    fn latest_seq_tracks_last_closed_interval() {
        let mut s = IntervalStore::new(2);
        assert_eq!(s.latest_seq(p(0)), 0);
        let g = PageId::new(0);
        s.close_interval(stamp(0, 2, 2), &mut vec![(g, diff_of(&[1]))]);
        s.close_interval(stamp(0, 6, 2), &mut vec![(g, diff_of(&[2]))]);
        assert_eq!(s.latest_seq(p(0)), 6);
        assert_eq!(s.latest_seq(p(1)), 0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_close_rejected() {
        let mut s = IntervalStore::new(1);
        s.close_interval(stamp(0, 5, 1), &mut vec![]);
        s.close_interval(stamp(0, 3, 1), &mut vec![]);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "no such diff"))]
    fn add_holder_rejects_a_skipped_sequence_number() {
        let mut s = IntervalStore::new(2);
        let g = PageId::new(0);
        for seq in [1u32, 2, 5, 6] {
            s.close_interval(stamp(0, seq, 2), &mut vec![(g, diff_of(&[seq as u8]))]);
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
        era: u64,
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
                    self.era += 1;
                }
                // The model is the reference a reload is checked against:
                // it holds nothing a reload could lose.
                StoreOp::Reload => {}
            }
        }

        /// The store section of a checkpoint, written from the model: the
        /// reference [`IntervalStore::write_section`] is checked against,
        /// stamps, holder masks and order included.
        fn section(&self) -> Vec<u8> {
            let mut out = Vec::new();
            let n: usize = self.records.iter().map(Vec::len).sum();
            out.extend_from_slice(&(n as u32).to_le_bytes());
            for (stamp, pages) in self.records.iter().flatten() {
                let id = stamp.id();
                id.write_wire(&mut out);
                stamp.clock().write_wire(&mut out);
                out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
                for &g in pages {
                    out.extend_from_slice(&self.holders[&(id, g)].to_le_bytes());
                    // The diff's stamp slot carries the interval's seq.
                    self.diffs[&(id, g)].write_wire(g.raw(), id.seq(), &mut out);
                }
            }
            out
        }

        fn holds(&self, proc: ProcId, interval: IntervalId, page: PageId) -> bool {
            self.holders
                .get(&(interval, page))
                .is_some_and(|mask| mask & (1u64 << proc.index()) != 0)
        }

        /// The notices of `creator`'s intervals in `(after, upto]`, each
        /// with the handle that the store's own search for its diff
        /// (`IntervalStore::locate`) returns.
        fn notices_between(
            &self,
            store: &IntervalStore,
            creator: ProcId,
            after: u32,
            upto: u32,
        ) -> Vec<WriteNotice> {
            let list = &self.records[creator.index()];
            let start = list.partition_point(|(stamp, _)| stamp.id().seq() <= after);
            list[start..]
                .iter()
                .take_while(|(stamp, _)| stamp.id().seq() <= upto)
                .flat_map(|(stamp, pages)| {
                    let interval = stamp.id();
                    pages.iter().map(move |&page| {
                        let found = store.locate(interval, page).expect("recorded");
                        assert_eq!((found.interval, found.page), (interval, page));
                        found
                    })
                })
                .collect()
        }

        fn notices_missing(
            &self,
            store: &IntervalStore,
            have: &VectorClock,
            want: &VectorClock,
        ) -> Vec<WriteNotice> {
            let mut out = Vec::new();
            for (proc, upto) in want.iter() {
                let after = have.get(proc);
                if upto > after {
                    out.extend(self.notices_between(store, proc, after, upto));
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
    /// `missing` is the history's one notice buffer: every query fills it
    /// while it still holds the previous answer, as a processor's reused
    /// buffer does.
    fn agree(
        store: &IntervalStore,
        model: &TwoMaps,
        rng: &mut Rng,
        n_pages: u32,
        missing: &mut Vec<WriteNotice>,
    ) {
        let n = model.records.len();
        assert_eq!(store.era(), model.era);
        let mut section = Vec::new();
        store.write_section(&mut section);
        assert_eq!(section, model.section());
        assert_eq!(
            store.interval_count(),
            model.records.iter().map(Vec::len).sum::<usize>()
        );
        assert_eq!(store.diff_count(), model.diffs.len());
        let bytes: u64 = model.diffs.values().map(|d| d.encoded_size() as u64).sum();
        assert_eq!(store.diff_bytes(), bytes);
        let mut owners = vec![None; n_pages as usize];
        store.latest_writers(&mut owners, &mut Vec::new());
        let latest = model.latest_writers();
        for page in (0..n_pages).map(PageId::new) {
            assert_eq!(owners[page.index()], latest.get(&page).copied());
        }

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
                        model.diffs.get(&(interval, page)).map(Diff::view)
                    );
                    let holders = model.holders.get(&(interval, page));
                    // The handle reads what the search finds.
                    let notice = store.locate(interval, page);
                    assert_eq!(notice.map(|n| store.located(&n).holders), holders.copied());
                    if let Some(n) = notice {
                        assert_eq!(Some(store.located(&n).weight), store.weight(interval));
                        assert_eq!(Some(store.diff_at(&n)), store.diff(interval, page));
                    }
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
            assert_eq!(got, model.notices_between(store, creator, after, upto));
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
            store.notices_missing(&have, &want, None, missing);
            assert_eq!(*missing, model.notices_missing(store, &have, &want));
            // Read as some processor's own clock: its entry one lower.
            let open = rng.proc(n);
            let mut lowered = want.clone();
            lowered.set(open, want.get(open).saturating_sub(1));
            store.notices_missing(&have, &want, Some(open), missing);
            assert_eq!(*missing, model.notices_missing(store, &have, &lowered));
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
            let mut missing = Vec::new();
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
                agree(&store, &model, &mut rng, PAGES, &mut missing);
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
