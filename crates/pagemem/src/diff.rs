use std::fmt;
use std::ops::Range;

use crate::PageBuf;

/// Wire overhead of a diff: page id (4), run count (4), interval stamp (4).
pub const DIFF_HEADER_BYTES: usize = 12;

/// Wire overhead of one run: offset (4) and length (4).
pub const RUN_HEADER_BYTES: usize = 8;

/// Bytes the page scan compares at once while a page is unchanged.
const BLOCK: usize = 32;

/// One run of modified bytes, owned: the input of [`Diff::from_runs`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiffRun {
    offset: u32,
    data: Vec<u8>,
}

impl DiffRun {
    /// Creates a run of modified bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty (empty runs are never encoded) or if the
    /// run would end past `u32::MAX`, where the wire format has no offsets.
    pub fn new(offset: u32, data: Vec<u8>) -> Self {
        assert!(!data.is_empty(), "diff runs must carry at least one byte");
        assert!(
            run_end(offset, data.len()).is_some(),
            "diff runs must end within the u32 offset space"
        );
        DiffRun { offset, data }
    }

    /// One past the run's last byte (fits: see [`DiffRun::new`]).
    fn end(&self) -> u32 {
        self.offset + self.data.len() as u32
    }
}

/// One past the last byte of a run of `len` bytes at `offset`, if that is
/// still a `u32` offset.
fn run_end(offset: u32, len: usize) -> Option<u32> {
    offset.checked_add(u32::try_from(len).ok()?)
}

/// Eight bytes of `bytes` starting at `at`, as one word.
fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_ne_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

/// The [`BLOCK`] bytes of `bytes` starting at `at`.
fn block_at(bytes: &[u8], at: usize) -> &[u8; BLOCK] {
    bytes[at..at + BLOCK].try_into().expect("a whole block")
}

/// True if some byte of `x` is zero (the classic exact SWAR test).
fn has_zero_byte(x: u64) -> bool {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    x.wrapping_sub(LOW) & !x & HIGH != 0
}

/// Appends a run header for `len` bytes at `offset` to a run buffer; the
/// caller appends the bytes.
fn push_run_header(wire: &mut Vec<u8>, offset: u32, len: usize) {
    wire.extend_from_slice(&offset.to_le_bytes());
    wire.extend_from_slice(&(len as u32).to_le_bytes());
}

/// Appends a run to a run buffer, growing it at most once.
fn push_run(wire: &mut Vec<u8>, offset: u32, data: &[u8]) {
    wire.reserve(RUN_HEADER_BYTES + data.len());
    push_run_header(wire, offset, data.len());
    wire.extend_from_slice(data);
}

/// The page scan every diff is made by: appends to `wire` the runs of
/// bytes within `range` where `current` differs from `twin`, in offset
/// order, and returns how many it appended. What `wire` held stays.
///
/// # Panics
///
/// Panics if the pages have different sizes, or if `range` is reversed
/// or ends past the page.
fn scan(twin: &PageBuf, current: &PageBuf, range: Range<usize>, wire: &mut Vec<u8>) -> u32 {
    assert_eq!(
        twin.len(),
        current.len(),
        "diffing pages of different sizes"
    );
    assert!(
        range.start <= range.end && range.end <= twin.len(),
        "diff range {range:?} outside a {}-byte page",
        twin.len()
    );
    let old = twin.as_bytes();
    let new = current.as_bytes();
    let mut runs = 0;
    let Range { start: mut i, end } = range;
    // The equal scan steps a block at a time while whole blocks match,
    // then a word at a time; the unequal scan steps a word at a time
    // while all eight bytes differ. Both finish byte by byte, so run
    // boundaries are exact.
    while i < end {
        while i + BLOCK <= end && block_at(old, i) == block_at(new, i) {
            i += BLOCK;
        }
        while i + 8 <= end && word_at(old, i) == word_at(new, i) {
            i += 8;
        }
        while i < end && old[i] == new[i] {
            i += 1;
        }
        if i == end {
            break;
        }
        let start = i;
        while i + 8 <= end && !has_zero_byte(word_at(old, i) ^ word_at(new, i)) {
            i += 8;
        }
        while i < end && old[i] != new[i] {
            i += 1;
        }
        push_run(wire, start as u32, &new[start..i]);
        runs += 1;
    }
    runs
}

/// The runs of a diff's run buffer, in offset order.
struct Runs<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Runs<'a> {
    type Item = (u32, &'a [u8]);

    #[inline]
    fn next(&mut self) -> Option<(u32, &'a [u8])> {
        let (&[o0, o1, o2, o3, l0, l1, l2, l3], rest) =
            self.rest.split_first_chunk::<RUN_HEADER_BYTES>()?;
        let offset = u32::from_le_bytes([o0, o1, o2, o3]);
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let (data, rest) = rest.split_at(len);
        self.rest = rest;
        Some((offset, data))
    }
}

/// Fills `ranges` with the bytes a chain of diffs touches, as
/// `(start, end)` ranges sorted by offset with overlapping and exactly
/// adjacent runs merged — one range per run of the chain's
/// [`Diff::squash`]. Whatever `ranges` held is discarded; the chain is
/// walked once.
fn coverage<'a>(chain: impl Iterator<Item = DiffView<'a>>, ranges: &mut Vec<(u32, u32)>) {
    ranges.clear();
    for diff in chain {
        ranges.extend(
            diff.runs()
                .map(|(offset, data)| (offset, offset + data.len() as u32)),
        );
    }
    ranges.sort_unstable();
    // `dedup_by` hands over the later range first and the one it keeps
    // second: fold the later one into the kept one while they touch.
    ranges.dedup_by(|next, kept| {
        let touches = next.0 <= kept.1;
        if touches {
            kept.1 = kept.1.max(next.1);
        }
        touches
    });
}

/// A run-length encoding of the difference between a page and its twin.
///
/// Diffs are *the* unit of data movement in multiple-writer protocols: on a
/// release (eager RC) or on an acquire/access miss (lazy RC) the protocol
/// ships diffs instead of whole pages, which is what lets LRC "often avoid
/// bringing an entire page across the network" (paper, §5.3.4).
///
/// A diff is one buffer: its runs stored back to back in their wire
/// layout — offset (4), length (4) and the run's bytes, in offset order —
/// which is exactly what [`DiffView::write_wire`] emits after the header.
/// So [`Diff::encoded_size`] is that buffer's length plus the header.
/// [`Diff::runs`] walks the buffer as `(offset, bytes)` views. The same
/// layout, borrowed, is a [`DiffView`]: what a [`DiffLog`] holds many of
/// back to back.
///
/// [`Diff::from_runs`] and [`Diff::squash`] know every run before they
/// build, so they allocate the buffer once at its exact size. A page scan
/// finds its runs as it goes, so it grows its buffer run by run: a
/// reallocation whenever the next run does not fit. [`Diff::refill`]
/// scans into an existing diff, clearing it but keeping its capacity;
/// [`Diff::between_in`] (and [`Diff::between`]) is a refill of an empty
/// diff. The eager engine refills the diffs of its last flush, so it grows
/// a buffer only when a diff outgrows that buffer's earlier ones: ≈ 20
/// calls per thousand events, and ≈ 27 % of what that engine still
/// allocates. The lazy engine keeps no `Diff` objects: it scans each twin
/// into the tail of its processor's [`DiffLog`]
/// ([`DiffLog::push_between`]), whose first buffer has room for a few
/// KiB, which adds a 128 KiB buffer when the last is full, and which keeps
/// every buffer when the history is collected. So its diffs make no
/// allocation call once the log holds one collection round, and on the
/// paper's replays, where most logs never outgrow their first buffer,
/// ≈ 1 call per thousand events. A two-pass, exact-size scan was measured
/// and not kept: it did not speed either replay, and it would compare a
/// page twice when its writer rewrote all of it.
///
/// Applying a diff overwrites the runs' byte ranges. Diffs from causally
/// ordered intervals must be applied in happened-before order; diffs from
/// concurrent intervals touch disjoint bytes in properly-labeled programs,
/// so their application order does not matter.
///
/// # Example
///
/// ```
/// use lrc_pagemem::{Diff, PageBuf, PageSize};
///
/// let twin = PageBuf::zeroed(PageSize::new(256)?);
/// let mut page = twin.clone();
/// page.write(8, &[42; 16]);
/// let diff = Diff::between(&twin, &page);
/// assert_eq!(diff.modified_bytes(), 16);
/// assert_eq!(diff.encoded_size(), 12 + 8 + 16); // header + run header + data
/// assert_eq!(diff.runs().collect::<Vec<_>>(), [(8, &[42; 16][..])]);
/// # Ok::<(), lrc_pagemem::PageSizeError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Diff {
    /// The runs in their wire layout, sorted by offset and disjoint, each
    /// non-empty and ending within the `u32` offset space.
    wire: Vec<u8>,
    /// How many runs `wire` holds.
    run_count: u32,
}

impl Diff {
    /// Creates an empty diff (no modifications).
    pub(crate) fn new() -> Self {
        Diff::default()
    }

    /// Creates a diff from pre-built runs.
    ///
    /// # Panics
    ///
    /// Panics if runs overlap or are not sorted by offset; such a diff
    /// would not round-trip through the wire encoding.
    pub fn from_runs(runs: Vec<DiffRun>) -> Self {
        for pair in runs.windows(2) {
            assert!(
                pair[0].end() <= pair[1].offset,
                "diff runs must be sorted and disjoint"
            );
        }
        let bytes = runs.iter().map(|r| RUN_HEADER_BYTES + r.data.len()).sum();
        let mut wire = Vec::with_capacity(bytes);
        for run in &runs {
            push_run(&mut wire, run.offset, &run.data);
        }
        Diff {
            wire,
            run_count: runs.len() as u32,
        }
    }

    /// Compares a working page against its twin and encodes every byte that
    /// changed. Adjacent modified bytes coalesce into single runs. This is
    /// [`Diff::between_in`] over the whole page.
    ///
    /// # Panics
    ///
    /// Panics if the pages have different sizes.
    pub fn between(twin: &PageBuf, current: &PageBuf) -> Self {
        Diff::between_in(twin, current, 0..twin.len())
    }

    /// Compares a working page against its twin within `range` only and
    /// encodes every byte there that changed. When `range` holds every
    /// changed byte — a twinned page written only there — the result is
    /// exactly [`Diff::between`], at the cost of scanning `range` alone.
    ///
    /// # Panics
    ///
    /// Panics if the pages have different sizes, or if `range` is reversed
    /// or ends past the page.
    pub fn between_in(twin: &PageBuf, current: &PageBuf, range: Range<usize>) -> Self {
        let mut diff = Diff::new();
        diff.refill(twin, current, range);
        diff
    }

    /// [`Diff::between_in`] into this diff's buffer: whatever the diff
    /// held is cleared, and its capacity is kept, so a diff refilled run
    /// after run allocates only when a refill outgrows every earlier one.
    ///
    /// # Panics
    ///
    /// As [`Diff::between_in`].
    #[inline]
    pub fn refill(&mut self, twin: &PageBuf, current: &PageBuf, range: Range<usize>) {
        self.wire.clear();
        self.run_count = scan(twin, current, range, &mut self.wire);
    }

    /// The diff, borrowed: what a [`DiffLog`] hands out for the diffs it
    /// holds.
    pub fn view(&self) -> DiffView<'_> {
        DiffView {
            wire: &self.wire,
            run_count: self.run_count,
        }
    }

    /// Overwrites the diff's byte ranges in `page`.
    ///
    /// # Panics
    ///
    /// Panics if a run extends past the end of the page.
    #[inline]
    pub fn apply_to(&self, page: &mut PageBuf) {
        self.view().apply_to(page);
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.run_count as usize
    }

    /// True if the diff carries no modifications.
    pub fn is_empty(&self) -> bool {
        self.run_count == 0
    }

    /// Iterates over the runs in offset order, as `(offset, bytes)` views
    /// into the diff's buffer.
    pub fn runs(&self) -> impl Iterator<Item = (u32, &[u8])> {
        self.view().runs()
    }

    /// Total number of modified bytes.
    pub fn modified_bytes(&self) -> usize {
        self.wire.len() - self.run_count() * RUN_HEADER_BYTES
    }

    /// Bytes this diff occupies on the wire: a fixed header plus a header
    /// and payload per run. This is the quantity charged to the "data"
    /// figures of the evaluation.
    pub fn encoded_size(&self) -> usize {
        DIFF_HEADER_BYTES + self.wire.len()
    }

    /// Merges a happened-before-ordered sequence of diffs of one page into
    /// a single minimal diff: later diffs overwrite earlier ones where they
    /// touch the same bytes, and adjacent runs coalesce. The chain is of
    /// diffs or of views.
    ///
    /// This is the paper's overwrite pruning (§4.3.2: a diff is not needed
    /// from interval `j` if a later interval `k` overwrote the
    /// modification) taken to byte granularity: what actually crosses the
    /// wire when one processor supplies a chain of diffs is the squashed
    /// result, never the redundant history.
    ///
    /// # Example
    ///
    /// ```
    /// use lrc_pagemem::{Diff, PageBuf, PageSize};
    ///
    /// let base = PageBuf::zeroed(PageSize::new(256)?);
    /// let mut v1 = base.clone();
    /// v1.write(0, &[1, 1, 1, 1]);
    /// let d1 = Diff::between(&base, &v1);
    /// let mut v2 = v1.clone();
    /// v2.write(0, &[2, 2, 2, 2]); // fully overwrites d1
    /// let d2 = Diff::between(&v1, &v2);
    ///
    /// let squashed = Diff::squash([&d1, &d2]);
    /// assert_eq!(squashed.modified_bytes(), 4, "d1's bytes were pruned");
    /// let mut page = base.clone();
    /// squashed.apply_to(&mut page);
    /// assert_eq!(page.as_bytes(), v2.as_bytes());
    /// # Ok::<(), lrc_pagemem::PageSizeError>(())
    /// ```
    pub fn squash<'a, D: Into<DiffView<'a>>>(diffs: impl IntoIterator<Item = D>) -> Diff {
        let chain: Vec<DiffView<'a>> = diffs.into_iter().map(Into::into).collect();
        // Room for every run of the chain: the ranges take one allocation.
        let mut ranges = Vec::with_capacity(chain.iter().map(|d| d.run_count as usize).sum());
        coverage(chain.iter().map(DiffView::reborrow), &mut ranges);
        // Lay the merged runs out zero-filled, then copy every run of the
        // chain into place, later diffs over earlier ones.
        let bytes = ranges
            .iter()
            .map(|&(start, end)| RUN_HEADER_BYTES + (end - start) as usize)
            .sum();
        let mut wire = Vec::with_capacity(bytes);
        for &(start, end) in &ranges {
            let len = (end - start) as usize;
            push_run_header(&mut wire, start, len);
            wire.resize(wire.len() + len, 0);
        }
        for diff in &chain {
            // Every run lies inside exactly one merged run, and both lists
            // are sorted by offset: one cursor finds them all. `at` is the
            // merged run, `data` where its bytes start in the buffer.
            let (mut at, mut data) = (0, RUN_HEADER_BYTES);
            for (offset, bytes) in diff.runs() {
                while ranges[at].1 <= offset {
                    data += RUN_HEADER_BYTES + (ranges[at].1 - ranges[at].0) as usize;
                    at += 1;
                }
                let into = data + (offset - ranges[at].0) as usize;
                wire[into..into + bytes.len()].copy_from_slice(bytes);
            }
        }
        Diff {
            wire,
            run_count: ranges.len() as u32,
        }
    }

    /// `Diff::squash(diffs).encoded_size()` without building the squash:
    /// the size depends only on which bytes the chain covers, so no data
    /// byte is read. This is what the traffic model charges for a chain.
    /// The chain is of diffs or of views.
    ///
    /// `ranges` is working space: the chain's coverage is gathered there,
    /// over whatever it held, so a caller sizing chain after chain passes
    /// one buffer and allocates only while it grows.
    pub fn squashed_size<'a, D: Into<DiffView<'a>>>(
        diffs: impl IntoIterator<Item = D>,
        ranges: &mut Vec<(u32, u32)>,
    ) -> usize {
        coverage(diffs.into_iter().map(Into::into), ranges);
        DIFF_HEADER_BYTES
            + ranges
                .iter()
                .map(|&(start, end)| RUN_HEADER_BYTES + (end - start) as usize)
                .sum::<usize>()
    }

    /// Appends the diff's wire encoding to `out`
    /// ([`DiffView::write_wire`]).
    pub fn write_wire(&self, page: u32, stamp: u32, out: &mut Vec<u8>) {
        self.view().write_wire(page, stamp, out);
    }

    /// True if any byte range of `self` overlaps any byte range of `other`.
    /// Concurrent diffs of a properly-labeled program never overlap.
    pub fn overlaps(&self, other: &Diff) -> bool {
        // Runs are sorted by offset; walk both lists once.
        let mut a = self.runs().peekable();
        let mut b = other.runs().peekable();
        while let (Some(&(x, x_data)), Some(&(y, y_data))) = (a.peek(), b.peek()) {
            let x_end = x as usize + x_data.len();
            let y_end = y as usize + y_data.len();
            if x_end <= y as usize {
                a.next();
            } else if y_end <= x as usize {
                b.next();
            } else {
                return true;
            }
        }
        false
    }
}

impl fmt::Debug for Diff {
    /// Lists the runs as `(offset, bytes)` pairs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

impl fmt::Display for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "diff({} runs, {} bytes modified, {} wire bytes)",
            self.run_count(),
            self.modified_bytes(),
            self.encoded_size()
        )
    }
}

/// A diff, borrowed: its runs in their wire layout, wherever they are
/// kept — in a [`Diff`] ([`Diff::view`]) or among the other diffs of a
/// [`DiffLog`] ([`DiffLog::view`]).
#[derive(PartialEq, Eq)]
pub struct DiffView<'a> {
    /// As [`Diff`]'s buffer.
    wire: &'a [u8],
    run_count: u32,
}

impl<'a> DiffView<'a> {
    /// This view again, for a second pass over a chain of views.
    fn reborrow(&self) -> DiffView<'a> {
        DiffView {
            wire: self.wire,
            run_count: self.run_count,
        }
    }

    /// Iterates over the runs in offset order, as `(offset, bytes)` views
    /// into the viewed buffer.
    pub fn runs(&self) -> impl Iterator<Item = (u32, &'a [u8])> + 'a {
        Runs { rest: self.wire }
    }

    /// Overwrites the diff's byte ranges in `page`.
    ///
    /// # Panics
    ///
    /// Panics if a run extends past the end of the page.
    #[inline]
    pub fn apply_to(&self, page: &mut PageBuf) {
        for (offset, data) in self.runs() {
            page.write(offset as usize, data);
        }
    }

    /// Bytes the diff occupies on the wire ([`Diff::encoded_size`]).
    pub fn encoded_size(&self) -> usize {
        DIFF_HEADER_BYTES + self.wire.len()
    }

    /// One past the last byte the diff modifies (0 for an empty diff): the
    /// diff applies to any page at least this long.
    pub fn extent(&self) -> usize {
        self.runs()
            .last()
            .map_or(0, |(offset, data)| offset as usize + data.len())
    }

    /// Appends the diff's wire encoding to `out`, tagged with the page it
    /// applies to and the sequence number of the interval that produced
    /// it. The layout matches [`DiffView::encoded_size`] *exactly* — page
    /// id (4), run count (4), interval stamp (4), then per run offset (4),
    /// length (4), and the run's bytes — so the modeled byte accounting of
    /// `lrc-simnet` becomes a measurement for diffs. The runs are the
    /// viewed buffer, copied as they are.
    pub fn write_wire(&self, page: u32, stamp: u32, out: &mut Vec<u8>) {
        out.reserve(self.encoded_size());
        out.extend_from_slice(&page.to_le_bytes());
        out.extend_from_slice(&self.run_count.to_le_bytes());
        out.extend_from_slice(&stamp.to_le_bytes());
        out.extend_from_slice(self.wire);
    }

    /// Decodes one wire diff from the front of `bytes` without copying
    /// it, returning the page tag, interval stamp, the diff as a view of
    /// `bytes`, and the number of bytes consumed.
    ///
    /// Returns `None` on truncation, an unreasonable run count, empty
    /// runs, a run that ends past `u32::MAX`, or runs that are not sorted
    /// and disjoint (a diff that would not have been produced by
    /// [`DiffView::write_wire`]).
    pub fn read_wire(bytes: &'a [u8]) -> Option<(u32, u32, DiffView<'a>, usize)> {
        let u32_at = |at: usize| -> Option<u32> {
            bytes
                .get(at..at + 4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        };
        let page = u32_at(0)?;
        let run_count = u32_at(4)?;
        let stamp = u32_at(8)?;
        if run_count as usize > bytes.len() / RUN_HEADER_BYTES {
            return None; // each run costs at least its header
        }
        let mut at = DIFF_HEADER_BYTES;
        let mut min_offset = 0usize;
        for _ in 0..run_count {
            let offset = u32_at(at)?;
            let len = u32_at(at + 4)? as usize;
            at += RUN_HEADER_BYTES;
            if len == 0 || (offset as usize) < min_offset || bytes.len() - at < len {
                return None;
            }
            min_offset = run_end(offset, len)? as usize;
            at += len;
        }
        let wire = &bytes[DIFF_HEADER_BYTES..at];
        Some((page, stamp, DiffView { wire, run_count }, at))
    }

    /// An owned copy of the viewed diff. A view is never copied as a
    /// view: what outlives the buffer it borrows is a [`Diff`], so this is
    /// the one `clone` a view has, and `DiffView` is not `Clone`.
    #[allow(clippy::should_implement_trait)]
    pub fn clone(&self) -> Diff {
        Diff {
            wire: self.wire.to_vec(),
            run_count: self.run_count,
        }
    }
}

impl<'a> From<&'a Diff> for DiffView<'a> {
    fn from(diff: &'a Diff) -> Self {
        diff.view()
    }
}

impl fmt::Debug for DiffView<'_> {
    /// Lists the runs as `(offset, bytes)` pairs, as [`Diff`] does.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Diff")?;
        f.debug_list().entries(self.runs()).finish()
    }
}

/// The size of every buffer of a [`DiffLog`] after its first, unless one
/// diff needs more.
const LOG_BUFFER_BYTES: usize = 128 * 1024;

/// Many diffs, each in [`Diff`]'s run layout; a [`DiffSpan`] says where
/// one of them lies. A page scan appends its runs at the tail
/// ([`DiffLog::push_between`], the same scan as [`Diff::refill`]).
///
/// The diffs lie in buffers that are not moved to make room: a diff goes
/// to the first buffer with room for its range as one run, else to a new
/// 128 KiB one. So a log grows by allocating, not by copying what it
/// holds into a larger buffer and leaving the old one behind, and only
/// the end of each buffer is room no diff wrote to. (A diff of more runs
/// than that room holds grows its buffer as a `Vec` grows.)
/// [`DiffLog::clear`] keeps every buffer for the next history.
#[derive(Clone, Default, Debug)]
pub struct DiffLog {
    /// The buffer the log is made with: buffer 0.
    first: Vec<u8>,
    /// The buffers added since, 1 onwards.
    more: Vec<Vec<u8>>,
    /// The buffer being filled; the ones before it are full.
    at: usize,
}

/// Where one diff lies in a [`DiffLog`]: valid for the log that made it,
/// until that log is cleared. A buffer is 128 KiB or one diff's room,
/// and takes one diff past that room at most, so its offsets fit in
/// `u32`s.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DiffSpan {
    buffer: u32,
    start: u32,
    end: u32,
    run_count: u32,
}

impl DiffLog {
    /// An empty log with room for `bytes` bytes of runs.
    pub fn with_capacity(bytes: usize) -> Self {
        DiffLog {
            first: Vec::with_capacity(bytes),
            more: Vec::new(),
            at: 0,
        }
    }

    /// Buffer `i`, if the log has it.
    #[inline]
    fn buffer_mut(&mut self, i: usize) -> Option<&mut Vec<u8>> {
        match i {
            0 => Some(&mut self.first),
            _ => self.more.get_mut(i - 1),
        }
    }

    /// Appends a diff that should take at most `bytes`, which `write`
    /// appends to the buffer it is handed, returning its run count.
    #[inline]
    fn append(&mut self, bytes: usize, write: impl FnOnce(&mut Vec<u8>) -> u32) -> DiffSpan {
        let at = loop {
            match self.buffer_mut(self.at) {
                Some(buffer) if buffer.capacity() - buffer.len() >= bytes => break self.at,
                Some(_) => self.at += 1,
                None => self
                    .more
                    .push(Vec::with_capacity(bytes.max(LOG_BUFFER_BYTES))),
            }
        };
        let wire = self.buffer_mut(at).expect("the loop found it");
        let offset = |at: usize| u32::try_from(at).expect("a log buffer holds under 4 GiB");
        let start = offset(wire.len());
        let run_count = write(wire);
        DiffSpan {
            buffer: offset(at),
            start,
            end: offset(wire.len()),
            run_count,
        }
    }

    /// Appends the diff of `current` against `twin` within `range`
    /// ([`Diff::between_in`]) and says where it lies, or `None` if the
    /// pages agree there: a diff without runs appends nothing.
    ///
    /// # Panics
    ///
    /// As [`Diff::between_in`].
    #[inline]
    pub fn push_between(
        &mut self,
        twin: &PageBuf,
        current: &PageBuf,
        range: Range<usize>,
    ) -> Option<DiffSpan> {
        let one_run = RUN_HEADER_BYTES + range.len();
        let span = self.append(one_run, |wire| scan(twin, current, range, wire));
        (span.run_count > 0).then_some(span)
    }

    /// Appends a copy of `diff` and says where it lies.
    pub fn push(&mut self, diff: DiffView<'_>) -> DiffSpan {
        self.append(diff.wire.len(), |wire| {
            wire.extend_from_slice(diff.wire);
            diff.run_count
        })
    }

    /// The diff at `span`.
    ///
    /// # Panics
    ///
    /// Panics if `span` lies past what the log holds, as a span of a
    /// cleared log may.
    #[inline]
    pub fn view(&self, span: DiffSpan) -> DiffView<'_> {
        let buffer = match span.buffer {
            0 => &self.first,
            i => &self.more[i as usize - 1],
        };
        DiffView {
            wire: &buffer[span.start as usize..span.end as usize],
            run_count: span.run_count,
        }
    }

    /// Forgets every diff, keeping every buffer.
    pub fn clear(&mut self) {
        self.first.clear();
        self.more.iter_mut().for_each(Vec::clear);
        self.at = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageSize;

    fn page() -> PageBuf {
        PageBuf::zeroed(PageSize::new(256).unwrap())
    }

    #[test]
    fn identical_pages_diff_empty() {
        let twin = page();
        let diff = Diff::between(&twin, &twin.clone());
        assert!(diff.is_empty());
        assert_eq!(diff.run_count(), 0);
        assert_eq!(diff.modified_bytes(), 0);
        assert_eq!(diff.encoded_size(), DIFF_HEADER_BYTES);
    }

    #[test]
    fn a_range_diff_sees_only_its_range() {
        let twin = page();
        let mut cur = twin.clone();
        cur.write(10, &[1, 2]);
        cur.write(200, &[3]);
        let runs = |range| {
            let diff = Diff::between_in(&twin, &cur, range);
            diff.runs()
                .map(|(o, d)| (o, d.to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(runs(0..256), [(10, vec![1, 2]), (200, vec![3])]);
        assert_eq!(runs(10..201), runs(0..256));
        assert_eq!(runs(11..256), [(11, vec![2]), (200, vec![3])]);
        assert!(runs(12..200).is_empty() && runs(256..256).is_empty());
    }

    #[test]
    fn a_refilled_diff_keeps_its_buffer_and_none_of_its_runs() {
        let twin = page();
        let mut many = twin.clone();
        for at in (0..256).step_by(16) {
            many.write(at, &[7; 4]);
        }
        let mut one = twin.clone();
        one.write(100, &[9]);
        let mut diff = Diff::between(&twin, &many);
        let capacity = diff.wire.capacity();
        diff.refill(&twin, &one, 0..256);
        assert_eq!(diff, Diff::between(&twin, &one));
        assert_eq!(diff.wire.capacity(), capacity, "no reallocation");
    }

    #[test]
    fn a_log_keeps_each_diff_whole_in_buffers_it_never_moves() {
        let twin = page();
        let mut log = DiffLog::with_capacity(64);
        let (mut spans, mut wants) = (Vec::new(), Vec::new());
        let first = log.first.as_ptr();
        let mut more = None;
        for k in 0..40 {
            let mut cur = twin.clone();
            let at = k * 5;
            cur.write(at, &[k as u8 + 1; 7]);
            spans.push(log.push_between(&twin, &cur, at..at + 7).unwrap());
            wants.push(Diff::between(&twin, &cur));
            assert_eq!(log.first.as_ptr(), first, "diff {k}");
            if let Some(buffer) = log.more.first() {
                assert_eq!(*more.get_or_insert(buffer.as_ptr()), buffer.as_ptr());
            }
        }
        // Four 15-byte diffs fill the first buffer; a second takes the rest.
        assert_eq!(
            (spans[3].buffer, spans[4].buffer, log.more.len()),
            (0, 1, 1)
        );
        for (span, want) in spans.iter().zip(&wants) {
            assert_eq!(log.view(*span), want.view());
        }
        // Clearing keeps every buffer; a copied diff lands whole.
        log.clear();
        let copied = log.push(wants[3].view());
        assert_eq!(log.view(copied), wants[3].view());
        assert_eq!((log.more.len(), log.first.capacity()), (1, 64));
    }

    #[test]
    #[should_panic(expected = "outside a 256-byte page")]
    fn a_reversed_range_is_refused() {
        let twin = page();
        let (start, end) = (9, 8);
        Diff::between_in(&twin, &twin.clone(), start..end);
    }

    #[test]
    #[should_panic(expected = "outside a 256-byte page")]
    fn a_range_past_the_page_is_refused() {
        let twin = page();
        Diff::between_in(&twin, &twin.clone(), 0..257);
    }

    #[test]
    fn contiguous_writes_coalesce() {
        let twin = page();
        let mut cur = twin.clone();
        cur.write(10, &[1, 2, 3, 4]);
        let diff = Diff::between(&twin, &cur);
        assert_eq!(diff.run_count(), 1);
        assert_eq!(diff.modified_bytes(), 4);
    }

    #[test]
    fn disjoint_writes_make_separate_runs() {
        let twin = page();
        let mut cur = twin.clone();
        cur.write(0, &[9]);
        cur.write(100, &[9, 9]);
        cur.write(255, &[9]);
        let diff = Diff::between(&twin, &cur);
        assert_eq!(diff.run_count(), 3);
        assert_eq!(diff.modified_bytes(), 4);
    }

    #[test]
    fn writing_same_value_is_not_a_modification() {
        // A "write" that stores the value already present does not appear in
        // the diff — diffs encode changed bytes, exactly like Munin's.
        let mut twin = page();
        twin.write(5, &[7]);
        let mut cur = twin.clone();
        cur.write(5, &[7]);
        assert!(Diff::between(&twin, &cur).is_empty());
    }

    #[test]
    fn apply_reproduces_page() {
        let twin = page();
        let mut cur = twin.clone();
        cur.write(30, &[5; 50]);
        cur.write(200, &[6; 20]);
        let diff = Diff::between(&twin, &cur);
        let mut rebuilt = twin.clone();
        diff.apply_to(&mut rebuilt);
        assert_eq!(rebuilt, cur);
    }

    #[test]
    fn concurrent_disjoint_diffs_commute() {
        let twin = page();
        let mut a = twin.clone();
        a.write(0, &[1; 8]);
        let mut b = twin.clone();
        b.write(128, &[2; 8]);
        let da = Diff::between(&twin, &a);
        let db = Diff::between(&twin, &b);
        assert!(!da.overlaps(&db));

        let mut ab = twin.clone();
        da.apply_to(&mut ab);
        db.apply_to(&mut ab);
        let mut ba = twin.clone();
        db.apply_to(&mut ba);
        da.apply_to(&mut ba);
        assert_eq!(ab, ba);
    }

    #[test]
    fn overlap_detection() {
        let twin = page();
        let mut a = twin.clone();
        a.write(10, &[1; 10]);
        let mut b = twin.clone();
        b.write(15, &[2; 10]);
        let da = Diff::between(&twin, &a);
        let db = Diff::between(&twin, &b);
        assert!(da.overlaps(&db));
        assert!(db.overlaps(&da));
    }

    #[test]
    fn encoded_size_model() {
        let twin = page();
        let mut cur = twin.clone();
        cur.write(0, &[1; 10]);
        cur.write(50, &[2; 5]);
        let diff = Diff::between(&twin, &cur);
        assert_eq!(
            diff.encoded_size(),
            DIFF_HEADER_BYTES + (RUN_HEADER_BYTES + 10) + (RUN_HEADER_BYTES + 5)
        );
    }

    #[test]
    fn squash_prunes_and_coalesces() {
        let twin = page();
        let mut v1 = twin.clone();
        v1.write(0, &[1; 8]);
        v1.write(100, &[5; 4]);
        let d1 = Diff::between(&twin, &v1);
        let mut v2 = v1.clone();
        v2.write(4, &[2; 8]); // overlaps d1's tail, extends past it
        let d2 = Diff::between(&v1, &v2);

        let squashed = Diff::squash([&d1, &d2]);
        // Bytes 0..12 coalesce into one run; 100..104 stays separate.
        assert_eq!(squashed.run_count(), 2);
        assert_eq!(squashed.modified_bytes(), 16);
        let mut rebuilt = twin.clone();
        squashed.apply_to(&mut rebuilt);
        assert_eq!(rebuilt, v2);
        // Squashing never costs more than the sum of its parts.
        assert!(squashed.encoded_size() <= d1.encoded_size() + d2.encoded_size());
        assert_eq!(
            Diff::squashed_size([&d1, &d2], &mut Vec::new()),
            squashed.encoded_size()
        );
    }

    #[test]
    fn squash_of_nothing_is_empty() {
        assert!(Diff::squash([] as [&Diff; 0]).is_empty());
        assert_eq!(
            Diff::squashed_size([] as [&Diff; 0], &mut vec![(0, 4)]),
            DIFF_HEADER_BYTES
        );
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn from_runs_rejects_overlap() {
        Diff::from_runs(vec![
            DiffRun::new(0, vec![1; 10]),
            DiffRun::new(5, vec![2; 10]),
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn empty_run_rejected() {
        DiffRun::new(0, Vec::new());
    }

    #[test]
    fn wire_round_trip_matches_encoded_size() {
        let twin = page();
        let mut cur = twin.clone();
        cur.write(3, &[9; 7]);
        cur.write(60, &[4; 2]);
        let diff = Diff::between(&twin, &cur);
        let mut buf = Vec::new();
        diff.write_wire(17, 5, &mut buf);
        assert_eq!(buf.len(), diff.encoded_size(), "wire bytes match model");
        let (page_id, stamp, back, used) = DiffView::read_wire(&buf).unwrap();
        assert_eq!((page_id, stamp, used), (17, 5, buf.len()));
        assert_eq!(back, diff.view());
        // An empty diff is a bare header.
        let mut buf = Vec::new();
        Diff::new().write_wire(0, 0, &mut buf);
        assert_eq!(buf.len(), DIFF_HEADER_BYTES);
        assert_eq!(DiffView::read_wire(&buf).unwrap().2.extent(), 0);
    }

    #[test]
    fn the_run_buffer_is_the_wire_encoding_past_the_header() {
        let diff = Diff::from_runs(vec![
            DiffRun::new(3, vec![9; 2]),
            DiffRun::new(5, vec![4]),
            DiffRun::new(300, vec![7; 3]),
        ]);
        let mut buf = Vec::new();
        diff.write_wire(0, 0, &mut buf);
        assert_eq!(&buf[DIFF_HEADER_BYTES..], &diff.wire[..]);
        assert_eq!(
            diff.wire.capacity(),
            diff.wire.len(),
            "one exact allocation"
        );
        let runs: Vec<(u32, &[u8])> = diff.runs().collect();
        assert_eq!(
            runs,
            [(3, &[9, 9][..]), (5, &[4][..]), (300, &[7, 7, 7][..])]
        );
        assert_eq!((diff.view().extent(), diff.modified_bytes()), (303, 6));
    }

    #[test]
    fn wire_decode_rejects_corruption() {
        let twin = page();
        let mut cur = twin.clone();
        cur.write(0, &[1; 4]);
        let diff = Diff::between(&twin, &cur);
        let mut buf = Vec::new();
        diff.write_wire(0, 1, &mut buf);
        // Truncation at every boundary.
        for cut in [1, 4, 11, buf.len() - 1] {
            assert!(DiffView::read_wire(&buf[..cut]).is_none(), "cut at {cut}");
        }
        // Absurd run count.
        let mut bad = buf.clone();
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(DiffView::read_wire(&bad).is_none());
        // Zero-length run.
        let mut bad = buf.clone();
        bad[16..20].copy_from_slice(&0u32.to_le_bytes());
        assert!(DiffView::read_wire(&bad).is_none());
        // A run whose end does not fit the u32 offset space: the last
        // offset that fits still decodes, one more does not.
        let mut edge = buf.clone();
        edge[12..16].copy_from_slice(&(u32::MAX - 4).to_le_bytes());
        let (_, _, fits, _) = DiffView::read_wire(&edge).expect("ends exactly at u32::MAX");
        assert_eq!(fits.extent(), u32::MAX as usize);
        edge[12..16].copy_from_slice(&(u32::MAX - 3).to_le_bytes());
        assert!(DiffView::read_wire(&edge).is_none());
    }

    #[test]
    #[should_panic(expected = "u32 offset space")]
    fn run_ending_past_the_offset_space_rejected() {
        DiffRun::new(u32::MAX, vec![1]);
    }

    #[test]
    fn extent_is_the_end_of_the_last_run() {
        assert_eq!(Diff::new().view().extent(), 0);
        let twin = page();
        let mut cur = twin.clone();
        cur.write(3, &[9; 7]);
        cur.write(250, &[4; 6]);
        assert_eq!(Diff::between(&twin, &cur).view().extent(), 256);
    }

    #[test]
    fn display_summarizes() {
        let twin = page();
        let mut cur = twin.clone();
        cur.write(0, &[1; 3]);
        let d = Diff::between(&twin, &cur);
        assert_eq!(
            d.to_string(),
            "diff(1 runs, 3 bytes modified, 23 wire bytes)"
        );
    }
}
