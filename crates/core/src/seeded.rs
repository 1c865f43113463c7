//! Seeded interval-store histories for the model tests of `store.rs` and
//! `plan.rs` (test builds only): closes of 1–4 pages under clocks that
//! learn from each other, possession spreading, garbage collection, and a
//! checkpoint round trip, in an order drawn from the seed.

use lrc_pagemem::{Diff, PageBuf, PageId, PageSize};
use lrc_vclock::{IntervalId, ProcId, StampedInterval, VectorClock};

use crate::IntervalStore;

/// splitmix64: all the randomness these tests need.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform enough in `0..bound`.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    pub(crate) fn proc(&mut self, n_procs: usize) -> ProcId {
        ProcId::new(self.below(n_procs as u64) as u16)
    }
}

/// One mutation of a store.
#[derive(Clone, Debug)]
pub(crate) enum StoreOp {
    Close(StampedInterval, Vec<(PageId, Diff)>),
    Hold(ProcId, IntervalId, PageId),
    Clear,
    /// `export` → `import`.
    Reload,
}

impl StoreOp {
    pub(crate) fn apply(&self, store: &mut IntervalStore, n_procs: usize) {
        match self {
            StoreOp::Close(stamp, page_diffs) => {
                store.close_interval(stamp.clone(), page_diffs.clone())
            }
            StoreOp::Hold(proc, interval, page) => store.add_holder(*proc, *interval, *page),
            StoreOp::Clear => store.clear(),
            StoreOp::Reload => {
                *store = IntervalStore::import(n_procs, store.version(), &store.export())
            }
        }
    }
}

/// A diff of a 64-byte page touching `len` bytes from `offset` on.
fn diff_at(offset: usize, len: usize, fill: u8) -> Diff {
    let twin = PageBuf::zeroed(PageSize::new(64).expect("valid size"));
    let mut cur = twin.clone();
    cur.write(offset, &vec![fill | 1; len]);
    Diff::between(&twin, &cur)
}

/// `steps` mutations over `n_procs` processors and `n_pages` pages.
///
/// Each processor's clock learns, now and then, what another knows, so
/// stamps are causally related the way acquires relate them; its own
/// entry is the sequence number of the interval it closes next, which a
/// rejoin-like skip sometimes pushes ahead. A closing processor often
/// holds the earlier diffs of the pages it writes (it fetched them to
/// write), which is what lets one target serve a chain.
pub(crate) fn script(rng: &mut Rng, n_procs: usize, n_pages: u32, steps: usize) -> Vec<StoreOp> {
    let mut clocks: Vec<VectorClock> = (0..n_procs)
        .map(|p| {
            let mut clock = VectorClock::new(n_procs);
            clock.set(ProcId::new(p as u16), 1);
            clock
        })
        .collect();
    let mut live: Vec<(IntervalId, PageId)> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..steps {
        match rng.below(20) {
            0 => {
                live.clear();
                ops.push(StoreOp::Clear);
            }
            1 => ops.push(StoreOp::Reload),
            2..=7 if !live.is_empty() => {
                let (interval, page) = live[rng.below(live.len() as u64) as usize];
                ops.push(StoreOp::Hold(rng.proc(n_procs), interval, page));
            }
            _ => {
                let p = rng.proc(n_procs);
                let other = rng.proc(n_procs);
                if other != p && rng.below(2) == 0 {
                    // Learn what `other` has closed.
                    let mut known = clocks[other.index()].clone();
                    known.set(other, known.get(other) - 1);
                    clocks[p.index()].merge(&known);
                }
                if rng.below(8) == 0 {
                    // A rejoin reopens past numbers it never closed.
                    let seq = clocks[p.index()].get(p) + 1 + rng.below(2) as u32;
                    clocks[p.index()].set(p, seq);
                }
                let clock = &mut clocks[p.index()];
                let interval = IntervalId::new(p, clock.get(p));
                let mut pages: Vec<PageId> = (0..1 + rng.below(4))
                    .map(|_| PageId::new(rng.below(n_pages as u64) as u32))
                    .collect();
                pages.sort();
                pages.dedup();
                // Unsorted on purpose: the store orders them.
                pages.reverse();
                for &page in &pages {
                    if rng.below(3) > 0 {
                        for &(earlier, g) in live
                            .iter()
                            .filter(|(iv, g)| *g == page && clock.covers(*iv))
                        {
                            ops.push(StoreOp::Hold(p, earlier, g));
                        }
                    }
                }
                let page_diffs = pages
                    .iter()
                    .map(|&g| {
                        let len = 1 + rng.below(12) as usize;
                        (g, diff_at(rng.below(48) as usize, len, rng.next() as u8))
                    })
                    .collect();
                live.extend(pages.iter().map(|&g| (interval, g)));
                ops.push(StoreOp::Close(
                    StampedInterval::new(interval, clock.clone()),
                    page_diffs,
                ));
                clock.bump(p);
            }
        }
    }
    ops
}
