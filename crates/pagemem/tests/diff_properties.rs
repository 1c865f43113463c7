//! Property-based tests for the diff machinery: diffs must exactly
//! reconstruct pages, commute when disjoint, respect the size model and
//! round-trip through their wire encoding; the block- and word-stepping
//! `between` and the range-merging `squash` must agree, run for run, with
//! bytewise oracles kept here, and `between_in` over a range holding
//! every changed byte must agree with `between`.

use std::collections::BTreeMap;

use lrc_pagemem::{Diff, DiffRun, DiffView, PageBuf, PageSize};
use proptest::prelude::*;

const PAGE: usize = 256;

fn size() -> PageSize {
    PageSize::new(PAGE).unwrap()
}

/// A set of writes: (offset, bytes) pairs kept inside the page.
fn writes() -> impl Strategy<Value = Vec<(usize, Vec<u8>)>> {
    prop::collection::vec(
        (0..PAGE).prop_flat_map(|off| {
            let max_len = (PAGE - off).clamp(1, 16);
            (Just(off), prop::collection::vec(any::<u8>(), 1..=max_len))
        }),
        0..12,
    )
}

fn apply_writes(page: &mut PageBuf, ws: &[(usize, Vec<u8>)]) {
    for (off, data) in ws {
        page.write(*off, data);
    }
}

/// The squash oracle: the byte-map implementation `Diff::squash` had
/// before it merged ranges. Later diffs overwrite earlier ones one byte
/// at a time; neighbouring offsets coalesce into runs.
fn squash_oracle(chain: &[Diff]) -> Diff {
    let mut bytes: BTreeMap<u32, u8> = BTreeMap::new();
    for diff in chain {
        for (offset, data) in diff.runs() {
            for (i, &b) in data.iter().enumerate() {
                bytes.insert(offset + i as u32, b);
            }
        }
    }
    let mut runs: Vec<DiffRun> = Vec::new();
    let mut cur: Option<(u32, Vec<u8>)> = None;
    for (off, b) in bytes {
        match &mut cur {
            Some((start, data)) if *start + data.len() as u32 == off => data.push(b),
            _ => {
                if let Some((start, data)) = cur.take() {
                    runs.push(DiffRun::new(start, data));
                }
                cur = Some((off, vec![b]));
            }
        }
    }
    if let Some((start, data)) = cur {
        runs.push(DiffRun::new(start, data));
    }
    Diff::from_runs(runs)
}

/// The `between` oracle: one byte compared at a time.
fn between_oracle(old: &[u8], new: &[u8]) -> Diff {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < old.len() {
        if old[i] == new[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < old.len() && old[i] != new[i] {
            i += 1;
        }
        runs.push(DiffRun::new(start as u32, new[start..i].to_vec()));
    }
    Diff::from_runs(runs)
}

/// A diff built run by run: gaps of 0..4 bytes (0 = a run exactly adjacent
/// to its predecessor, which `from_runs` admits) and runs of 1..=12 bytes,
/// so the diffs of a chain overlap, nest and abut all over a short prefix
/// of the page.
fn chain_diff() -> impl Strategy<Value = Diff> {
    prop::collection::vec((0u32..4, prop::collection::vec(any::<u8>(), 1..=12)), 0..5).prop_map(
        |pieces| {
            let mut at = 0u32;
            let runs = pieces
                .into_iter()
                .map(|(gap, data)| {
                    let start = at + gap;
                    at = start + data.len() as u32;
                    DiffRun::new(start, data)
                })
                .collect();
            Diff::from_runs(runs)
        },
    )
}

fn chain() -> impl Strategy<Value = Vec<Diff>> {
    prop::collection::vec(chain_diff(), 0..=8)
}

/// Every offset within three bytes of a 32-byte block edge of the page,
/// the page's own ends included.
fn near_block_edges() -> Vec<usize> {
    (0..=PAGE)
        .step_by(32)
        .flat_map(|edge| edge.saturating_sub(3)..=(edge + 3).min(PAGE))
        .collect()
}

/// `twin` with every byte of `ranges` flipped.
fn flipped(twin: &PageBuf, ranges: &[(usize, usize)]) -> PageBuf {
    let mut cur = twin.clone();
    for &(start, end) in ranges {
        for b in &mut cur.as_bytes_mut()[start..end] {
            *b = !*b;
        }
    }
    cur
}

#[test]
fn between_finds_a_lone_run_at_every_alignment() {
    // One modified range [start, end) for every start and end within three
    // words of the page's first byte, and the same against its last byte:
    // every (start mod 8, end mod 8) pair, runs inside one word, runs
    // spanning several, runs touching either edge. Then every start and
    // end within three bytes of any 32-byte block edge, where the block
    // scan hands over to the word and byte scans.
    let twin = PageBuf::from_bytes((0..PAGE).map(|i| (i * 7) as u8).collect());
    let mut ranges = Vec::new();
    for start in 0..24 {
        for end in start + 1..=32 {
            ranges.push((start, end));
            ranges.push((PAGE - end, PAGE - start));
        }
    }
    let edges = near_block_edges();
    for &start in &edges {
        ranges.extend(
            edges
                .iter()
                .filter(|&&end| end > start)
                .map(|&end| (start, end)),
        );
    }
    for (start, end) in ranges {
        let cur = flipped(&twin, &[(start, end)]);
        let diff = Diff::between(&twin, &cur);
        assert_eq!(diff, between_oracle(twin.as_bytes(), cur.as_bytes()));
        let runs: Vec<_> = diff.runs().collect();
        assert_eq!(runs, [(start as u32, &cur.as_bytes()[start..end])]);
    }
}

#[test]
fn between_splits_two_runs_straddling_a_block_edge() {
    // Two runs 0..=3 bytes apart, the gap placed all around each inner
    // block edge; a zero gap is one run.
    let twin = PageBuf::from_bytes((0..PAGE).map(|i| (i * 13 + 5) as u8).collect());
    for edge in (32..PAGE).step_by(32) {
        for gap in 0..=3 {
            for first_end in edge - 4..=edge + 4 {
                for (len1, len2) in [(1, 1), (3, 9), (9, 3), (5, 20)] {
                    let first = (first_end - len1, first_end);
                    let second = (first_end + gap, first_end + gap + len2);
                    let cur = flipped(&twin, &[first, second]);
                    let diff = Diff::between(&twin, &cur);
                    assert_eq!(diff, between_oracle(twin.as_bytes(), cur.as_bytes()));
                    let expected = if gap == 0 { 1 } else { 2 };
                    assert_eq!(diff.run_count(), expected, "{first:?} {second:?}");
                    assert_eq!(diff.modified_bytes(), len1 + len2);
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn chains_round_trip_through_the_wire(chain in chain(), page in any::<u32>(), stamp in any::<u32>()) {
        // Every diff of a chain, and its squash, decodes back to itself
        // from exactly `encoded_size` bytes.
        let squashed = Diff::squash(&chain);
        for diff in chain.iter().chain([&squashed]) {
            let mut buf = vec![0xAB]; // appends, never overwrites
            diff.write_wire(page, stamp, &mut buf);
            prop_assert_eq!(buf.len() - 1, diff.encoded_size());
            buf.push(0xCD); // trailing bytes are not consumed
            let (back_page, back_stamp, back, used) = DiffView::read_wire(&buf[1..]).unwrap();
            prop_assert_eq!((back_page, back_stamp, used), (page, stamp, diff.encoded_size()));
            prop_assert_eq!(back, diff.view());
        }
    }

    #[test]
    fn diff_reconstructs_exactly(ws in writes()) {
        let twin = PageBuf::zeroed(size());
        let mut cur = twin.clone();
        apply_writes(&mut cur, &ws);
        let diff = Diff::between(&twin, &cur);
        let mut rebuilt = twin.clone();
        diff.apply_to(&mut rebuilt);
        prop_assert_eq!(rebuilt.as_bytes(), cur.as_bytes());
    }

    #[test]
    fn diff_from_nonzero_base_reconstructs(base in prop::collection::vec(any::<u8>(), PAGE), ws in writes()) {
        let twin = PageBuf::from_bytes(base);
        let mut cur = twin.clone();
        apply_writes(&mut cur, &ws);
        let diff = Diff::between(&twin, &cur);
        let mut rebuilt = twin.clone();
        diff.apply_to(&mut rebuilt);
        prop_assert_eq!(rebuilt.as_bytes(), cur.as_bytes());
    }

    #[test]
    fn diff_is_minimal(ws in writes()) {
        // Every byte the diff carries really differs between twin and page.
        let twin = PageBuf::zeroed(size());
        let mut cur = twin.clone();
        apply_writes(&mut cur, &ws);
        let diff = Diff::between(&twin, &cur);
        for (offset, data) in diff.runs() {
            for (i, &b) in data.iter().enumerate() {
                let off = offset as usize + i;
                prop_assert_ne!(twin.as_bytes()[off], b, "byte {} did not change", off);
                prop_assert_eq!(cur.as_bytes()[off], b);
            }
        }
        // And it carries exactly the changed byte count.
        let changed = twin
            .as_bytes()
            .iter()
            .zip(cur.as_bytes())
            .filter(|(a, b)| a != b)
            .count();
        prop_assert_eq!(diff.modified_bytes(), changed);
    }

    #[test]
    fn runs_are_sorted_disjoint_and_maximal(ws in writes()) {
        let twin = PageBuf::zeroed(size());
        let mut cur = twin.clone();
        apply_writes(&mut cur, &ws);
        let diff = Diff::between(&twin, &cur);
        let runs: Vec<_> = diff.runs().collect();
        for pair in runs.windows(2) {
            let gap_start = pair[0].0 as usize + pair[0].1.len();
            let gap_end = pair[1].0 as usize;
            // Sorted and disjoint with at least one unmodified byte between
            // runs (otherwise they would have coalesced).
            prop_assert!(gap_start < gap_end);
            prop_assert!((gap_start..gap_end).any(|i| twin.as_bytes()[i] == cur.as_bytes()[i]));
        }
    }

    #[test]
    fn disjoint_halves_commute(left in prop::collection::vec(any::<u8>(), 1..64),
                               right in prop::collection::vec(any::<u8>(), 1..64)) {
        // Two "processors" write disjoint halves of the same page (false
        // sharing). Their diffs must merge to the same result in either
        // order — the multiple-writer guarantee.
        let twin = PageBuf::zeroed(size());
        let mut a = twin.clone();
        a.write(0, &left);
        let mut b = twin.clone();
        b.write(PAGE / 2, &right);
        let da = Diff::between(&twin, &a);
        let db = Diff::between(&twin, &b);
        prop_assert!(!da.overlaps(&db));

        let mut ab = twin.clone();
        da.apply_to(&mut ab);
        db.apply_to(&mut ab);
        let mut ba = twin.clone();
        db.apply_to(&mut ba);
        da.apply_to(&mut ba);
        prop_assert_eq!(ab.as_bytes(), ba.as_bytes());
    }

    #[test]
    fn encoded_size_matches_model(ws in writes()) {
        let twin = PageBuf::zeroed(size());
        let mut cur = twin.clone();
        apply_writes(&mut cur, &ws);
        let diff = Diff::between(&twin, &cur);
        let expected = lrc_pagemem::DIFF_HEADER_BYTES
            + diff
                .runs()
                .map(|(_, data)| lrc_pagemem::RUN_HEADER_BYTES + data.len())
                .sum::<usize>();
        prop_assert_eq!(diff.encoded_size(), expected);
        // A diff never costs more than header + one run covering the page.
        prop_assert!(diff.modified_bytes() <= PAGE);
    }

    #[test]
    fn diff_of_unmodified_page_is_empty(base in prop::collection::vec(any::<u8>(), PAGE)) {
        // An interval that never wrote must cost nothing on the wire: the
        // twin comparison yields no runs, no payload, and applying the empty
        // diff is the identity.
        let twin = PageBuf::from_bytes(base);
        let diff = Diff::between(&twin, &twin.clone());
        prop_assert!(diff.is_empty());
        prop_assert_eq!(diff.run_count(), 0);
        prop_assert_eq!(diff.modified_bytes(), 0);
        prop_assert_eq!(diff.encoded_size(), lrc_pagemem::DIFF_HEADER_BYTES);
        let mut target = twin.clone();
        diff.apply_to(&mut target);
        prop_assert_eq!(target.as_bytes(), twin.as_bytes());
    }

    #[test]
    fn restoring_original_bytes_leaves_no_trace(base in prop::collection::vec(any::<u8>(), PAGE), ws in writes()) {
        // Twin→diff→apply on a page whose writes were later undone: byte-wise
        // comparison (not write interception) defines the diff, so writing
        // the original values back produces the empty diff.
        let twin = PageBuf::from_bytes(base);
        let mut cur = twin.clone();
        apply_writes(&mut cur, &ws);
        for (off, data) in &ws {
            let original = twin.slice(*off, data.len()).to_vec();
            cur.write(*off, &original);
        }
        let diff = Diff::between(&twin, &cur);
        prop_assert!(diff.is_empty(), "undone writes still produced {} runs", diff.run_count());
    }

    #[test]
    fn twin_diff_apply_is_identity_on_fresh_copy(base in prop::collection::vec(any::<u8>(), PAGE), ws in writes()) {
        // The full protocol round: keep a twin, write the working copy,
        // diff, then bring an independently-held copy of the twin (another
        // processor's cached page) up to date.
        let twin = PageBuf::from_bytes(base.clone());
        let mut cur = twin.clone();
        apply_writes(&mut cur, &ws);
        let diff = Diff::between(&twin, &cur);
        let mut other_proc_copy = PageBuf::from_bytes(base);
        diff.apply_to(&mut other_proc_copy);
        prop_assert_eq!(other_proc_copy.as_bytes(), cur.as_bytes());
        // Applying the same diff twice is idempotent.
        diff.apply_to(&mut other_proc_copy);
        prop_assert_eq!(other_proc_copy.as_bytes(), cur.as_bytes());
    }

    #[test]
    fn between_matches_the_bytewise_scan(
        old in prop::collection::vec(0u8..4, PAGE),
        new in prop::collection::vec(0u8..4, PAGE),
        ws in writes(),
    ) {
        // Four byte values: a quarter of the positions agree, so equal and
        // unequal stretches of every short length start at every alignment.
        let twin = PageBuf::from_bytes(old);
        let dense = Diff::between(&twin, &PageBuf::from_bytes(new.clone()));
        prop_assert_eq!(dense, between_oracle(twin.as_bytes(), &new));
        // And the sparse shape: a few writes over an otherwise equal page.
        let mut cur = twin.clone();
        apply_writes(&mut cur, &ws);
        let sparse = Diff::between(&twin, &cur);
        prop_assert_eq!(sparse, between_oracle(twin.as_bytes(), cur.as_bytes()));
    }

    #[test]
    fn a_range_holding_every_change_diffs_like_the_whole_page(
        base in prop::collection::vec(any::<u8>(), PAGE),
        ws in writes(),
        lo in 0..=PAGE,
        hi in 0..=PAGE,
    ) {
        // A twinned page written only inside a range — what a frame
        // records — diffs the same over that range as over the page.
        let twin = PageBuf::from_bytes(base);
        let mut cur = twin.clone();
        apply_writes(&mut cur, &ws);
        let whole = Diff::between(&twin, &cur);
        let changed: Vec<usize> = (0..PAGE)
            .filter(|&i| twin.as_bytes()[i] != cur.as_bytes()[i])
            .collect();
        if let (Some(&first), Some(&last)) = (changed.first(), changed.last()) {
            let holding = lo.min(first)..hi.max(last + 1);
            prop_assert_eq!(&Diff::between_in(&twin, &cur, holding), &whole);
            // A range that misses the first or the last changed byte does not.
            prop_assert_ne!(&Diff::between_in(&twin, &cur, first + 1..PAGE), &whole);
            prop_assert_ne!(&Diff::between_in(&twin, &cur, 0..last), &whole);
        } else {
            // Nothing changed: any range, the empty one included, is empty.
            prop_assert!(Diff::between_in(&twin, &cur, lo.min(hi)..lo.max(hi)).is_empty());
        }
    }

    #[test]
    fn squash_matches_the_byte_map(
        chain in chain(),
        base in prop::collection::vec(any::<u8>(), PAGE),
    ) {
        let squashed = Diff::squash(&chain);
        prop_assert_eq!(&squashed, &squash_oracle(&chain));
        // One range buffer sizes the chain and then every shorter suffix of
        // it, down to the empty one, the way a processor's scratch sizes
        // chain after chain: a range left over from a longer chain would
        // inflate every size after it.
        let mut ranges = Vec::new();
        for from in 0..=chain.len() {
            let rest = &chain[from..];
            prop_assert_eq!(
                Diff::squashed_size(rest, &mut ranges),
                Diff::squash(rest).encoded_size(),
                "suffix from {}", from
            );
        }

        // One squashed diff does to a page what the chain does in order.
        let mut by_chain = PageBuf::from_bytes(base);
        let mut by_squash = by_chain.clone();
        for diff in &chain {
            diff.apply_to(&mut by_chain);
        }
        squashed.apply_to(&mut by_squash);
        prop_assert_eq!(by_chain.as_bytes(), by_squash.as_bytes());
    }

    #[test]
    fn sequential_diffs_compose(ws1 in writes(), ws2 in writes()) {
        // Interval 1 then interval 2 on the same page: applying both diffs
        // in happened-before order reproduces the final page.
        let base = PageBuf::zeroed(size());
        let mut after1 = base.clone();
        apply_writes(&mut after1, &ws1);
        let d1 = Diff::between(&base, &after1);
        let mut after2 = after1.clone();
        apply_writes(&mut after2, &ws2);
        let d2 = Diff::between(&after1, &after2);

        let mut rebuilt = base.clone();
        d1.apply_to(&mut rebuilt);
        d2.apply_to(&mut rebuilt);
        prop_assert_eq!(rebuilt.as_bytes(), after2.as_bytes());
    }
}
