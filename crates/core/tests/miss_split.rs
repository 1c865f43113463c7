//! The miss split on the lazy engine: `begin_miss` plans and charges,
//! `finish_miss` applies, and between the two the page is the missing
//! processor's to fetch.

use std::panic::{self, AssertUnwindSafe};

use lrc_core::{EngineParams, LrcEngine, Miss, Policy};
use lrc_pagemem::PageId;
use lrc_sync::{BarrierId, LockId};
use lrc_vclock::ProcId;

fn p(i: u16) -> ProcId {
    ProcId::new(i)
}

fn engine(policy: Policy, gc_at_barriers: bool) -> LrcEngine {
    let params = EngineParams {
        n_procs: 3,
        mem_bytes: 8 * 512,
        page_bytes: 512,
        gc_at_barriers,
        ..EngineParams::default()
    };
    LrcEngine::new(policy, &params).unwrap()
}

/// p0 writes 7 at address 0 under lock 0, and p1 acquires the lock after
/// it: page 0 is then not valid at p1.
fn published(policy: Policy, gc_at_barriers: bool) -> (LrcEngine, PageId) {
    let mut dsm = engine(policy, gc_at_barriers);
    let lock = LockId::new(0);
    dsm.acquire(p(0), lock).unwrap();
    dsm.write_u64(p(0), 0, 7);
    dsm.release(p(0), lock).unwrap();
    dsm.acquire(p(1), lock).unwrap();
    let page = dsm.space().page_of(0);
    (dsm, page)
}

#[test]
fn a_miss_on_an_invalid_page_fetches() {
    for policy in [Policy::Invalidate, Policy::Update] {
        let (mut dsm, page) = published(policy, false);
        assert!(!dsm.page_valid(p(1), page));
        let before = dsm.net().stats().total().msgs;
        let Miss::Fetching(ticket) = dsm.begin_miss(p(1), page) else {
            panic!("{policy:?}: an invalid page is fetched");
        };
        assert!(
            dsm.net().stats().total().msgs > before,
            "{policy:?}: the fetch is charged when it begins"
        );
        assert!(!dsm.page_valid(p(1), page), "{policy:?}: not yet applied");
        dsm.finish_miss(ticket);
    }
}

#[test]
fn a_second_processor_missing_the_page_is_busy() {
    let (mut dsm, page) = published(Policy::Invalidate, false);
    let Miss::Fetching(ticket) = dsm.begin_miss(p(1), page) else {
        panic!("p1 fetches");
    };
    assert!(matches!(dsm.begin_miss(p(2), page), Miss::Busy));
    assert!(
        matches!(dsm.begin_miss(p(2), PageId::new(1)), Miss::Fetching(_)),
        "another page is free"
    );
    assert_eq!(dsm.counters().slow_waits, 1);
    assert_eq!(dsm.counters().miss_inflight_peak, 2);
    dsm.finish_miss(ticket);
    assert!(
        matches!(dsm.begin_miss(p(2), page), Miss::Fetching(_)),
        "free once the first miss finished"
    );
}

#[test]
fn finishing_applies_the_plan_and_validates_the_page() {
    for policy in [Policy::Invalidate, Policy::Update] {
        let (mut dsm, page) = published(policy, false);
        let Miss::Fetching(ticket) = dsm.begin_miss(p(1), page) else {
            panic!("{policy:?}: p1 fetches");
        };
        dsm.finish_miss(ticket);
        assert!(dsm.page_valid(p(1), page), "{policy:?}");
        assert!(matches!(dsm.begin_miss(p(1), page), Miss::Ready));
        let mut word = [0u8; 8];
        assert_eq!(dsm.try_read(p(1), 0, &mut word), Ok(()));
        assert_eq!(u64::from_le_bytes(word), 7, "{policy:?}: p0's write");
    }
}

#[test]
fn try_read_names_the_page_to_resolve() {
    let (mut dsm, page) = published(Policy::Invalidate, false);
    let mut word = [0u8; 8];
    assert_eq!(dsm.try_read(p(1), 0, &mut word), Err(page));
    assert_eq!(dsm.try_write(p(1), 0, &word), Err(page));
    dsm.read_into(p(1), 0, &mut word);
    assert_eq!(u64::from_le_bytes(word), 7, "back to back, as a simulator");
}

/// A collection between the halves discards the diffs the plan names;
/// the finish refuses it instead of applying a stale plan.
#[test]
fn a_collection_between_the_halves_is_refused() {
    let (mut dsm, page) = published(Policy::Invalidate, true);
    let Miss::Fetching(ticket) = dsm.begin_miss(p(1), page) else {
        panic!("p1 fetches");
    };
    for i in 0..3 {
        dsm.barrier(p(i), BarrierId::new(0)).unwrap();
    }
    assert_eq!(dsm.counters().gc_rounds, 1);
    let refused = panic::catch_unwind(AssertUnwindSafe(|| dsm.finish_miss(ticket)))
        .expect_err("the era moved");
    let message = refused.downcast_ref::<String>().expect("a formatted panic");
    assert!(message.contains("was collected"), "{message}");
}
