//! The miss split on the eager engine: `begin_miss` routes and charges
//! the directory miss, `finish_miss` copies the page from whoever the
//! directory names then and joins its copyset.

use lrc_core::{EngineParams, Miss, Policy};
use lrc_eager::EagerEngine;
use lrc_sync::LockId;
use lrc_vclock::ProcId;

fn p(i: u16) -> ProcId {
    ProcId::new(i)
}

fn engine(policy: Policy) -> EagerEngine {
    let params = EngineParams {
        n_procs: 3,
        mem_bytes: 8 * 512,
        page_bytes: 512,
        ..EngineParams::default()
    };
    EagerEngine::new(policy, &params).unwrap()
}

#[test]
fn a_miss_fetches_then_validates() {
    for policy in [Policy::Invalidate, Policy::Update] {
        let mut dsm = engine(policy);
        // Page 0's home is p0: p1 has no copy.
        let page = dsm.space().page_of(0);
        let Miss::Fetching(ticket) = dsm.begin_miss(p(1), page) else {
            panic!("{policy:?}: p1 fetches from the home");
        };
        assert_eq!(dsm.counters().misses_2hop, 1, "charged when it begins");
        assert!(!dsm.page_valid(p(1), page));
        assert!(!dsm.protocol().copyset(page).contains(&p(1)));
        dsm.finish_miss(ticket);
        assert!(dsm.page_valid(p(1), page), "{policy:?}");
        assert!(dsm.protocol().copyset(page).contains(&p(1)));
        assert!(matches!(dsm.begin_miss(p(1), page), Miss::Ready));
    }
}

#[test]
fn the_home_materializes_its_page_without_a_fetch() {
    let mut dsm = engine(Policy::Invalidate);
    let page = dsm.space().page_of(0);
    assert!(matches!(dsm.begin_miss(p(0), page), Miss::Ready));
    assert!(dsm.page_valid(p(0), page));
    assert_eq!(dsm.net().stats().total().msgs, 0);
}

#[test]
fn a_second_processor_missing_the_page_is_busy() {
    let mut dsm = engine(Policy::Invalidate);
    let page = dsm.space().page_of(0);
    let Miss::Fetching(ticket) = dsm.begin_miss(p(1), page) else {
        panic!("p1 fetches");
    };
    assert!(matches!(dsm.begin_miss(p(2), page), Miss::Busy));
    dsm.finish_miss(ticket);
    assert!(matches!(dsm.begin_miss(p(2), page), Miss::Fetching(_)));
}

/// A release that flushes the page while the fetch is in flight is not
/// lost: the finish copies the page from its owner as it is then.
#[test]
fn a_flush_between_the_halves_reaches_the_fetched_copy() {
    for policy in [Policy::Invalidate, Policy::Update] {
        let mut dsm = engine(policy);
        let lock = LockId::new(0);
        let page = dsm.space().page_of(0);
        dsm.acquire(p(0), lock).unwrap();
        dsm.write_u64(p(0), 0, 5);
        let Miss::Fetching(ticket) = dsm.begin_miss(p(2), page) else {
            panic!("{policy:?}: p2 fetches");
        };
        dsm.release(p(0), lock).unwrap();
        dsm.finish_miss(ticket);
        dsm.acquire(p(2), lock).unwrap();
        assert_eq!(dsm.read_u64(p(2), 0), 5, "{policy:?}: the flushed write");
    }
}
