//! Property-based tests for the diff machinery: diffs must exactly
//! reconstruct pages, commute when disjoint, and respect the size model;
//! the word-stepping `between` and the range-merging `squash` must agree,
//! run for run, with bytewise oracles kept here.

use std::collections::BTreeMap;

use lrc_pagemem::{Diff, DiffRun, PageBuf, PageSize};
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
        for run in diff.runs() {
            for (i, &b) in run.data().iter().enumerate() {
                bytes.insert(run.offset() + i as u32, b);
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
                    let run = DiffRun::new(at + gap, data);
                    at = run.offset() + run.len() as u32;
                    run
                })
                .collect();
            Diff::from_runs(runs)
        },
    )
}

fn chain() -> impl Strategy<Value = Vec<Diff>> {
    prop::collection::vec(chain_diff(), 0..=8)
}

#[test]
fn between_finds_a_lone_run_at_every_alignment() {
    // One modified range [start, end) for every start and end within three
    // words of the page's first byte, and the same against its last byte:
    // every (start mod 8, end mod 8) pair, runs inside one word, runs
    // spanning several, runs touching either edge.
    let twin = PageBuf::from_bytes((0..PAGE).map(|i| (i * 7) as u8).collect());
    let mut ranges = Vec::new();
    for start in 0..24 {
        for end in start + 1..=32 {
            ranges.push((start, end));
            ranges.push((PAGE - end, PAGE - start));
        }
    }
    for (start, end) in ranges {
        let mut cur = twin.clone();
        for b in &mut cur.as_bytes_mut()[start..end] {
            *b = !*b;
        }
        let diff = Diff::between(&twin, &cur);
        assert_eq!(diff, between_oracle(twin.as_bytes(), cur.as_bytes()));
        assert_eq!(diff.run_count(), 1, "range {start}..{end}");
        let run = diff.runs().next().unwrap();
        assert_eq!((run.offset() as usize, run.len()), (start, end - start));
    }
}

proptest! {
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
        for run in diff.runs() {
            for (i, &b) in run.data().iter().enumerate() {
                let off = run.offset() as usize + i;
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
            let gap_start = pair[0].offset() as usize + pair[0].len();
            let gap_end = pair[1].offset() as usize;
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
                .map(|r| lrc_pagemem::RUN_HEADER_BYTES + r.len())
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
    fn squash_matches_the_byte_map(
        chain in chain(),
        base in prop::collection::vec(any::<u8>(), PAGE),
    ) {
        let squashed = Diff::squash(&chain);
        prop_assert_eq!(&squashed, &squash_oracle(&chain));
        prop_assert_eq!(Diff::squashed_size(&chain), squashed.encoded_size());

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
