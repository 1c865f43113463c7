use std::fmt;

use crate::PageBuf;

/// Wire overhead of a diff: page id (4), run count (4), interval stamp (4).
pub const DIFF_HEADER_BYTES: usize = 12;

/// Wire overhead of one run: offset (4) and length (4).
pub const RUN_HEADER_BYTES: usize = 8;

/// One maximal run of modified bytes within a page.
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

    /// Byte offset of the run within its page.
    pub fn offset(&self) -> u32 {
        self.offset
    }

    /// The new bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Length of the run in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: runs carry at least one byte.
    pub fn is_empty(&self) -> bool {
        false
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

/// True if some byte of `x` is zero (the classic exact SWAR test).
fn has_zero_byte(x: u64) -> bool {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    x.wrapping_sub(LOW) & !x & HIGH != 0
}

/// The bytes a chain of diffs touches, as `(start, end)` ranges sorted by
/// offset with overlapping and exactly adjacent runs merged — one range
/// per run of the chain's [`Diff::squash`]. The chain is walked twice, so
/// that the ranges are gathered into one allocation.
fn coverage<'a, I>(chain: I) -> Vec<(u32, u32)>
where
    I: Iterator<Item = &'a Diff> + Clone,
{
    let runs = chain.clone().map(Diff::run_count).sum();
    let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(runs);
    for diff in chain {
        ranges.extend(diff.runs.iter().map(|run| (run.offset, run.end())));
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
    ranges
}

/// A run-length encoding of the difference between a page and its twin.
///
/// Diffs are *the* unit of data movement in multiple-writer protocols: on a
/// release (eager RC) or on an acquire/access miss (lazy RC) the protocol
/// ships diffs instead of whole pages, which is what lets LRC "often avoid
/// bringing an entire page across the network" (paper, §5.3.4).
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
/// # Ok::<(), lrc_pagemem::PageSizeError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Diff {
    runs: Vec<DiffRun>,
}

impl Diff {
    /// Creates an empty diff (no modifications).
    pub fn new() -> Self {
        Diff { runs: Vec::new() }
    }

    /// Creates a diff from pre-built runs.
    ///
    /// # Panics
    ///
    /// Panics if runs overlap or are not sorted by offset; such a diff
    /// would not round-trip through the wire encoding.
    pub fn from_runs(runs: Vec<DiffRun>) -> Self {
        for pair in runs.windows(2) {
            let end = pair[0].offset() as usize + pair[0].len();
            assert!(
                end <= pair[1].offset() as usize,
                "diff runs must be sorted and disjoint"
            );
        }
        Diff { runs }
    }

    /// Compares a working page against its twin and encodes every byte that
    /// changed. Adjacent modified bytes coalesce into single runs.
    ///
    /// # Panics
    ///
    /// Panics if the pages have different sizes.
    pub fn between(twin: &PageBuf, current: &PageBuf) -> Self {
        assert_eq!(
            twin.len(),
            current.len(),
            "diffing pages of different sizes"
        );
        let old = twin.as_bytes();
        let new = current.as_bytes();
        let mut runs = Vec::new();
        let mut i = 0;
        let len = old.len();
        // Both scans step a word at a time while the whole word is alike
        // (all eight bytes equal, or all eight different) and finish byte
        // by byte, so run boundaries are exact.
        while i < len {
            while i + 8 <= len && word_at(old, i) == word_at(new, i) {
                i += 8;
            }
            while i < len && old[i] == new[i] {
                i += 1;
            }
            if i == len {
                break;
            }
            let start = i;
            while i + 8 <= len && !has_zero_byte(word_at(old, i) ^ word_at(new, i)) {
                i += 8;
            }
            while i < len && old[i] != new[i] {
                i += 1;
            }
            runs.push(DiffRun::new(start as u32, new[start..i].to_vec()));
        }
        Diff { runs }
    }

    /// Overwrites the diff's byte ranges in `page`.
    ///
    /// # Panics
    ///
    /// Panics if a run extends past the end of the page.
    pub fn apply_to(&self, page: &mut PageBuf) {
        for run in &self.runs {
            page.write(run.offset() as usize, run.data());
        }
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// True if the diff carries no modifications.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Iterates over the runs in offset order.
    pub fn runs(&self) -> impl Iterator<Item = &DiffRun> {
        self.runs.iter()
    }

    /// One past the last byte the diff modifies (0 for an empty diff): the
    /// diff applies to any page at least this long.
    pub fn extent(&self) -> usize {
        self.runs.last().map_or(0, |run| run.end() as usize)
    }

    /// Total number of modified bytes.
    pub fn modified_bytes(&self) -> usize {
        self.runs.iter().map(DiffRun::len).sum()
    }

    /// Bytes this diff occupies on the wire: a fixed header plus a header
    /// and payload per run. This is the quantity charged to the "data"
    /// figures of the evaluation.
    pub fn encoded_size(&self) -> usize {
        DIFF_HEADER_BYTES
            + self
                .runs
                .iter()
                .map(|r| RUN_HEADER_BYTES + r.len())
                .sum::<usize>()
    }

    /// Merges a happened-before-ordered sequence of diffs of one page into
    /// a single minimal diff: later diffs overwrite earlier ones where they
    /// touch the same bytes, and adjacent runs coalesce.
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
    pub fn squash<'a>(diffs: impl IntoIterator<Item = &'a Diff>) -> Diff {
        let chain: Vec<&Diff> = diffs.into_iter().collect();
        let mut runs: Vec<DiffRun> = coverage(chain.iter().copied())
            .into_iter()
            .map(|(start, end)| DiffRun {
                offset: start,
                data: vec![0; (end - start) as usize],
            })
            .collect();
        for diff in chain {
            // Every run lies inside exactly one merged run, and both lists
            // are sorted by offset: one cursor finds them all.
            let mut at = 0;
            for run in &diff.runs {
                while runs[at].end() <= run.offset {
                    at += 1;
                }
                let into = (run.offset - runs[at].offset) as usize;
                runs[at].data[into..into + run.len()].copy_from_slice(&run.data);
            }
        }
        Diff { runs }
    }

    /// `Diff::squash(diffs).encoded_size()` without building the squash:
    /// the size depends only on which bytes the chain covers, so no data
    /// byte is read. This is what the traffic model charges for a chain.
    pub fn squashed_size<'a, I>(diffs: I) -> usize
    where
        I: IntoIterator<Item = &'a Diff>,
        I::IntoIter: Clone,
    {
        DIFF_HEADER_BYTES
            + coverage(diffs.into_iter())
                .iter()
                .map(|&(start, end)| RUN_HEADER_BYTES + (end - start) as usize)
                .sum::<usize>()
    }

    /// Appends the diff's wire encoding to `out`, tagged with the page it
    /// applies to and the sequence number of the interval that produced
    /// it. The layout matches [`Diff::encoded_size`] *exactly* — page id
    /// (4), run count (4), interval stamp (4), then per run offset (4),
    /// length (4), and the run's bytes — so the modeled byte accounting of
    /// `lrc-simnet` becomes a measurement for diffs.
    pub fn write_wire(&self, page: u32, stamp: u32, out: &mut Vec<u8>) {
        out.reserve(self.encoded_size());
        out.extend_from_slice(&page.to_le_bytes());
        out.extend_from_slice(&(self.runs.len() as u32).to_le_bytes());
        out.extend_from_slice(&stamp.to_le_bytes());
        for run in &self.runs {
            out.extend_from_slice(&run.offset().to_le_bytes());
            out.extend_from_slice(&(run.len() as u32).to_le_bytes());
            out.extend_from_slice(run.data());
        }
    }

    /// Decodes one wire diff from the front of `bytes`, returning the page
    /// tag, interval stamp, the diff, and the number of bytes consumed.
    ///
    /// Returns `None` on truncation, an unreasonable run count, empty
    /// runs, a run that ends past `u32::MAX`, or runs that are not sorted
    /// and disjoint (a diff that would not have been produced by
    /// [`Diff::write_wire`]).
    pub fn read_wire(bytes: &[u8]) -> Option<(u32, u32, Diff, usize)> {
        let u32_at = |at: usize| -> Option<u32> {
            bytes
                .get(at..at + 4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        };
        let page = u32_at(0)?;
        let run_count = u32_at(4)? as usize;
        let stamp = u32_at(8)?;
        if run_count > bytes.len() / RUN_HEADER_BYTES {
            return None; // each run costs at least its header
        }
        let mut at = DIFF_HEADER_BYTES;
        let mut runs = Vec::with_capacity(run_count);
        let mut min_offset = 0usize;
        for _ in 0..run_count {
            let offset = u32_at(at)?;
            let len = u32_at(at + 4)? as usize;
            let data = bytes.get(at + 8..at + 8 + len)?;
            if len == 0 || (offset as usize) < min_offset {
                return None;
            }
            min_offset = run_end(offset, len)? as usize;
            runs.push(DiffRun::new(offset, data.to_vec()));
            at += RUN_HEADER_BYTES + len;
        }
        Some((page, stamp, Diff { runs }, at))
    }

    /// True if any byte range of `self` overlaps any byte range of `other`.
    /// Concurrent diffs of a properly-labeled program never overlap.
    pub fn overlaps(&self, other: &Diff) -> bool {
        // Runs are sorted by offset; walk both lists once.
        let mut a = self.runs.iter().peekable();
        let mut b = other.runs.iter().peekable();
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            let x_end = x.offset() as usize + x.len();
            let y_end = y.offset() as usize + y.len();
            if x_end <= y.offset() as usize {
                a.next();
            } else if y_end <= x.offset() as usize {
                b.next();
            } else {
                return true;
            }
        }
        false
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
        assert_eq!(Diff::squashed_size([&d1, &d2]), squashed.encoded_size());
    }

    #[test]
    fn squash_of_nothing_is_empty() {
        assert!(Diff::squash([]).is_empty());
        assert_eq!(Diff::squashed_size([]), DIFF_HEADER_BYTES);
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
        let (page_id, stamp, back, used) = Diff::read_wire(&buf).unwrap();
        assert_eq!((page_id, stamp, used), (17, 5, buf.len()));
        assert_eq!(back, diff);
        // An empty diff is a bare header.
        let mut buf = Vec::new();
        Diff::new().write_wire(0, 0, &mut buf);
        assert_eq!(buf.len(), DIFF_HEADER_BYTES);
        assert!(Diff::read_wire(&buf).unwrap().2.is_empty());
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
            assert!(Diff::read_wire(&buf[..cut]).is_none(), "cut at {cut}");
        }
        // Absurd run count.
        let mut bad = buf.clone();
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Diff::read_wire(&bad).is_none());
        // Zero-length run.
        let mut bad = buf.clone();
        bad[16..20].copy_from_slice(&0u32.to_le_bytes());
        assert!(Diff::read_wire(&bad).is_none());
        // A run whose end does not fit the u32 offset space: the last
        // offset that fits still decodes, one more does not.
        let mut edge = buf.clone();
        edge[12..16].copy_from_slice(&(u32::MAX - 4).to_le_bytes());
        let (_, _, fits, _) = Diff::read_wire(&edge).expect("ends exactly at u32::MAX");
        assert_eq!(fits.extent(), u32::MAX as usize);
        edge[12..16].copy_from_slice(&(u32::MAX - 3).to_le_bytes());
        assert!(Diff::read_wire(&edge).is_none());
    }

    #[test]
    #[should_panic(expected = "u32 offset space")]
    fn run_ending_past_the_offset_space_rejected() {
        DiffRun::new(u32::MAX, vec![1]);
    }

    #[test]
    fn extent_is_the_end_of_the_last_run() {
        assert_eq!(Diff::new().extent(), 0);
        let twin = page();
        let mut cur = twin.clone();
        cur.write(3, &[9; 7]);
        cur.write(250, &[4; 6]);
        assert_eq!(Diff::between(&twin, &cur).extent(), 256);
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
