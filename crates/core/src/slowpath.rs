//! The miss split: what [`Engine::begin_miss`](crate::Engine::begin_miss)
//! finds, the ticket [`Engine::finish_miss`](crate::Engine::finish_miss)
//! redeems, the table of pages whose fetch is in progress, and the
//! miss-fetch instrumentation hook a driver runs between the two.

use lrc_pagemem::PageId;
use lrc_vclock::ProcId;

use crate::EngineCounters;

/// Test/bench instrumentation: a callback a driver runs once per miss
/// during the *fetch phase* — after [`Engine::begin_miss`] planned the
/// fetch and charged its round trips, before [`Engine::finish_miss`]
/// applies it. The threaded runtime runs it with the engine released, so
/// a hook that blocks or sleeps models a stalled network fetch: misses on
/// *other* pages and synchronization on unrelated locks must keep
/// flowing.
///
/// [`Engine::begin_miss`]: crate::Engine::begin_miss
/// [`Engine::finish_miss`]: crate::Engine::finish_miss
pub type FetchHook = Box<dyn Fn(ProcId, PageId) + Send + Sync>;

/// What [`Engine::begin_miss`](crate::Engine::begin_miss) found.
#[derive(Debug)]
#[must_use]
pub enum Miss {
    /// The page is valid at the processor: nothing to fetch.
    Ready,
    /// The fetch is planned and charged: run it, then finish the miss.
    Fetching(MissTicket),
    /// Another processor is fetching the page: wait for its miss to
    /// finish, then begin again.
    Busy,
}

/// A miss between its two halves. Its plan waits in the processor's
/// shard; [`Engine::finish_miss`](crate::Engine::finish_miss) applies it.
#[derive(Debug)]
#[must_use = "a begun miss keeps its page busy until it is finished"]
pub struct MissTicket {
    pub(crate) p: ProcId,
    pub(crate) page: PageId,
    /// The protocol's token for checking the plan at the finish.
    pub(crate) era: u64,
}

/// The pages whose fetch is in progress, and the contention accounting
/// around them: the in-flight-miss table.
#[derive(Debug)]
pub(crate) struct MissTable {
    /// The processor fetching each page, if any.
    fetcher: Vec<Option<ProcId>>,
    /// The processors whose current miss found its page busy and has not
    /// started a fetch since, one bit each
    /// ([`MAX_PROCS`](crate::MAX_PROCS) is 64).
    waiting: u64,
    /// Misses in their fetch phase.
    in_flight: u64,
}

impl MissTable {
    pub(crate) fn new(n_pages: usize) -> Self {
        MissTable {
            fetcher: vec![None; n_pages],
            waiting: 0,
            in_flight: 0,
        }
    }

    /// Counts a slow-path entry that runs while a fetch is in flight: a
    /// wait that holding the engine across every fetch would impose.
    pub(crate) fn overlap(&self, counters: &mut EngineCounters) {
        if self.in_flight > 0 {
            counters.slow_waits_avoided += 1;
        }
    }

    /// Admits `p`'s miss on `page` unless another processor is fetching
    /// the page, and raises the high-water mark of misses under way with
    /// it. A miss is one slow-path entry however often it asks: the
    /// first refusal counts it as a wait, and a miss admitted after
    /// waiting counts nothing more.
    #[inline]
    pub(crate) fn admit(&mut self, p: ProcId, page: PageId, counters: &mut EngineCounters) -> bool {
        counters.miss_inflight_peak = counters.miss_inflight_peak.max(self.in_flight + 1);
        let bit = 1u64 << p.index();
        if let Some(q) = self.fetcher[page.index()] {
            debug_assert_ne!(q, p, "{p} begins a second miss on {page}");
            if self.waiting & bit == 0 {
                self.waiting |= bit;
                counters.slow_waits += 1;
            }
            return false;
        }
        if self.waiting & bit != 0 {
            self.waiting &= !bit;
        } else {
            self.overlap(counters);
        }
        true
    }

    /// Marks `page` as being fetched by `p`.
    pub(crate) fn start(&mut self, p: ProcId, page: PageId) {
        self.fetcher[page.index()] = Some(p);
        self.in_flight += 1;
    }

    /// Whether `p` is fetching `page`: false once a death dropped the
    /// miss.
    pub(crate) fn fetching(&self, p: ProcId, page: PageId) -> bool {
        self.fetcher[page.index()] == Some(p)
    }

    /// Drops `p`'s miss, if it has one, as its death does: the page is
    /// free for another processor's miss, and `p` waits for none.
    pub(crate) fn drop_miss(&mut self, p: ProcId) {
        if let Some(slot) = self.fetcher.iter_mut().find(|f| **f == Some(p)) {
            *slot = None;
            self.in_flight -= 1;
        }
        self.waiting &= !(1u64 << p.index());
    }

    /// Ends `p`'s fetch of `page`.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is fetching `page`.
    #[inline]
    pub(crate) fn finish(&mut self, p: ProcId, page: PageId) {
        let fetcher = self.fetcher[page.index()].take();
        assert_eq!(
            fetcher,
            Some(p),
            "{p} finishes a miss on {page} it did not begin"
        );
        self.in_flight -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    #[test]
    fn inflight_gauge_counts_and_unwinds() {
        let mut table = MissTable::new(4);
        let mut c = EngineCounters::default();
        assert!(table.admit(p(0), PageId::new(1), &mut c));
        table.start(p(0), PageId::new(1));
        assert!(table.admit(p(1), PageId::new(2), &mut c));
        table.start(p(1), PageId::new(2));
        assert_eq!(table.in_flight, 2);
        table.finish(p(0), PageId::new(1));
        table.finish(p(1), PageId::new(2));
        assert_eq!(table.in_flight, 0);
        assert!(table.fetcher.iter().all(Option::is_none));
    }

    #[test]
    fn busy_only_while_another_processor_fetches() {
        let mut table = MissTable::new(4);
        let mut c = EngineCounters::default();
        let page = PageId::new(3);
        assert!(table.admit(p(0), page, &mut c));
        table.start(p(0), page);
        assert!(!table.admit(p(1), page, &mut c), "the page is busy");
        assert!(table.admit(p(1), PageId::new(0), &mut c), "others are not");
        table.finish(p(0), page);
        assert!(table.admit(p(1), page, &mut c), "free once finished");
    }

    #[test]
    fn settle_counts_at_most_one_event_per_entry() {
        let mut table = MissTable::new(4);
        let mut c = EngineCounters::default();
        let page = PageId::new(0);
        assert!(table.admit(p(0), page, &mut c));
        assert_eq!((c.slow_waits, c.slow_waits_avoided), (0, 0), "alone");
        table.start(p(0), page);
        // A follower asks three times: one wait.
        for _ in 0..3 {
            assert!(!table.admit(p(1), page, &mut c));
        }
        assert_eq!(c.slow_waits, 1);
        // Admitted while another fetch runs, after waiting: no more.
        assert!(table.admit(p(2), PageId::new(1), &mut c));
        table.start(p(2), PageId::new(1));
        table.finish(p(0), page);
        assert!(table.admit(p(1), page, &mut c));
        assert_eq!((c.slow_waits, c.slow_waits_avoided), (1, 1));
        // A synchronization operation beside a fetch avoided a wait.
        table.overlap(&mut c);
        assert_eq!(c.slow_waits_avoided, 2);
    }

    /// The miss peak is a high-water mark: finishing lowers the gauge,
    /// never the peak.
    #[test]
    fn raise_is_a_high_water_mark() {
        let mut table = MissTable::new(4);
        let mut c = EngineCounters::default();
        for i in 0..3 {
            assert!(table.admit(p(i), PageId::new(u32::from(i)), &mut c));
            table.start(p(i), PageId::new(u32::from(i)));
        }
        for i in 0..3 {
            table.finish(p(i), PageId::new(u32::from(i)));
        }
        assert!(table.admit(p(0), PageId::new(0), &mut c));
        table.start(p(0), PageId::new(0));
        assert_eq!(c.miss_inflight_peak, 3);
    }

    #[test]
    #[should_panic(expected = "did not begin")]
    fn finishing_an_unbegun_miss_panics() {
        MissTable::new(1).finish(p(0), PageId::new(0));
    }
}
