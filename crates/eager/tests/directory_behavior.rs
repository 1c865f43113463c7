//! Directory-manager edge cases: ownership migration across releases,
//! content freshness through the home, and late joiners.

use lrc_core::{EngineParams, Policy};
use lrc_eager::EagerEngine;
use lrc_simnet::OpClass;
use lrc_sync::LockId;
use lrc_vclock::ProcId;

fn p(i: u16) -> ProcId {
    ProcId::new(i)
}

fn engine(policy: Policy) -> EagerEngine {
    let params = EngineParams {
        n_procs: 4,
        mem_bytes: 16 * 512,
        page_bytes: 512,
        ..EngineParams::default()
    };
    EagerEngine::new(policy, &params).unwrap()
}

#[test]
fn ownership_migrates_with_writers_under_ei() {
    let dsm = engine(Policy::Invalidate);
    let l = LockId::new(0);
    // Ownership moves p1 -> p2 through locked writes.
    for i in 1..3u16 {
        dsm.acquire(p(i), l).unwrap();
        dsm.write_u64(p(i), 0, i as u64 * 100);
        dsm.release(p(i), l).unwrap();
    }
    // p3's miss goes through the home (p0, which lost its copy to the
    // invalidations) and must forward to the *current* owner p2.
    let before = dsm.net().snapshot();
    dsm.acquire(p(3), l).unwrap();
    assert_eq!(dsm.read_u64(p(3), 0), 200);
    let delta = dsm.net().stats().since(&before);
    assert_eq!(
        delta.class(OpClass::Miss).msgs,
        3,
        "home lost its copy: 3-hop"
    );
    dsm.release(p(3), l).unwrap();
}

#[test]
fn home_copy_stays_fresh_under_eu() {
    let dsm = engine(Policy::Update);
    let l = LockId::new(0);
    // The home (p0) is in the copyset from the start, so every release
    // pushes it updates; a late reader served by the home sees everything.
    for round in 0..3u64 {
        for i in 1..3u16 {
            dsm.acquire(p(i), l).unwrap();
            dsm.write_u64(p(i), 8 * i as u64, round * 10 + i as u64);
            dsm.release(p(i), l).unwrap();
        }
    }
    let before = dsm.net().snapshot();
    dsm.acquire(p(3), l).unwrap();
    assert_eq!(dsm.read_u64(p(3), 8), 21);
    assert_eq!(dsm.read_u64(p(3), 16), 22);
    let delta = dsm.net().stats().since(&before);
    assert_eq!(
        delta.class(OpClass::Miss).msgs,
        2,
        "home still valid: 2-hop"
    );
    dsm.release(p(3), l).unwrap();
}

#[test]
fn late_joiner_receives_all_accumulated_updates() {
    let dsm = engine(Policy::Update);
    let l = LockId::new(0);
    for i in 0..8u64 {
        let proc = p((i % 3) as u16);
        dsm.acquire(proc, l).unwrap();
        dsm.write_u64(proc, 8 * i, i + 1);
        dsm.release(proc, l).unwrap();
    }
    // p3 never touched the page; its single miss must deliver all eight
    // words at once.
    dsm.acquire(p(3), l).unwrap();
    for i in 0..8u64 {
        assert_eq!(dsm.read_u64(p(3), 8 * i), i + 1);
    }
    dsm.release(p(3), l).unwrap();
    // And from now on, updates flow to it too.
    dsm.acquire(p(0), l).unwrap();
    dsm.write_u64(p(0), 0, 99);
    dsm.release(p(0), l).unwrap();
    let before = dsm.net().snapshot();
    dsm.acquire(p(3), l).unwrap();
    assert_eq!(dsm.read_u64(p(3), 0), 99);
    assert_eq!(
        dsm.net().stats().since(&before).class(OpClass::Miss).msgs,
        0,
        "the update already arrived"
    );
    dsm.release(p(3), l).unwrap();
}

#[test]
fn copyset_shrinks_under_ei_and_grows_under_eu() {
    let page0 = lrc_pagemem::PageId::new(0);
    // EI: after a locked write, only the writer caches the page.
    let ei = engine(Policy::Invalidate);
    for i in 0..4u16 {
        ei.read_u64(p(i), 0);
    }
    assert_eq!(ei.protocol().copyset(page0).len(), 4);
    ei.acquire(p(2), LockId::new(0)).unwrap();
    ei.write_u64(p(2), 0, 1);
    ei.release(p(2), LockId::new(0)).unwrap();
    assert_eq!(ei.protocol().copyset(page0), vec![p(2)]);

    // EU: the copyset only ever grows.
    let eu = engine(Policy::Update);
    for i in 0..4u16 {
        eu.read_u64(p(i), 0);
    }
    eu.acquire(p(2), LockId::new(0)).unwrap();
    eu.write_u64(p(2), 0, 1);
    eu.release(p(2), LockId::new(0)).unwrap();
    assert_eq!(eu.protocol().copyset(page0).len(), 4);
}

#[test]
fn unrelated_pages_do_not_travel() {
    // A release only touches cachers of the *modified* pages.
    let dsm = engine(Policy::Update);
    dsm.read_u64(p(2), 512); // p2 caches page 1 only
    dsm.acquire(p(1), LockId::new(0)).unwrap();
    dsm.write_u64(p(1), 0, 5); // page 0
    let before = dsm.net().snapshot();
    dsm.release(p(1), LockId::new(0)).unwrap();
    let delta = dsm.net().stats().since(&before);
    // Only the home of page 0 (p0) gets an update; p2 is not involved.
    assert_eq!(delta.kind(lrc_simnet::MsgKind::ReleaseUpdate).msgs, 1);
}
