//! Table 1 of the paper ("Shared Memory Operation Message Costs"),
//! verified empirically: for each operation and protocol, crafted
//! scenarios with known `m`, `h`, `c`, `n`, `u`, `v` produce exactly the
//! message counts the table specifies.

use lrc::core::{EngineParams, LrcEngine, Policy};
use lrc::eager::EagerEngine;
use lrc::simnet::OpClass;
use lrc::sync::{BarrierId, LockId};
use lrc::vclock::ProcId;

fn p(i: u16) -> ProcId {
    ProcId::new(i)
}

const N: usize = 6;
const PAGE: usize = 512;
const MEM: u64 = 32 * 512;

fn params() -> EngineParams {
    EngineParams {
        n_procs: N,
        mem_bytes: MEM,
        page_bytes: PAGE,
        ..EngineParams::default()
    }
}

fn lazy(policy: Policy) -> LrcEngine {
    LrcEngine::new(policy, &params()).unwrap()
}

fn eager(policy: Policy) -> EagerEngine {
    EagerEngine::new(policy, &params()).unwrap()
}

/// Lock row, lazy protocols: 3 messages to find and transfer the lock
/// when requester, home, and grantor are distinct; LI adds nothing.
#[test]
fn lock_cost_li_is_3() {
    let mut dsm = lazy(Policy::Invalidate);
    let l = LockId::new(0); // home p0
    dsm.acquire(p(1), l).unwrap();
    dsm.write_u64(p(1), 0, 1);
    dsm.release(p(1), l).unwrap();
    let before = dsm.net().snapshot();
    dsm.acquire(p(2), l).unwrap(); // requester p2, home p0, grantor p1
    let delta = dsm.net().stats().since(&before);
    assert_eq!(delta.class(OpClass::Lock).msgs, 3);
    assert_eq!(
        delta.total().msgs,
        3,
        "invalidations piggyback on the grant"
    );
}

/// Lock row, LU: 3 + 2h with h = other concurrent last modifiers of the
/// acquirer's cached pages (diffs from the grantor ride the grant free).
#[test]
fn lock_cost_lu_is_3_plus_2h() {
    let mut dsm = lazy(Policy::Update);
    let l = LockId::new(0);
    // p2 caches pages 0 and 1.
    dsm.read_u64(p(2), 0);
    dsm.read_u64(p(2), 512);
    // Two other processors modify those pages under other locks — they are
    // concurrent last modifiers from p2's point of view.
    let l1 = LockId::new(1);
    let l2 = LockId::new(2);
    dsm.acquire(p(3), l1).unwrap();
    dsm.write_u64(p(3), 0, 5);
    dsm.release(p(3), l1).unwrap();
    dsm.acquire(p(4), l2).unwrap();
    dsm.write_u64(p(4), 512, 6);
    dsm.release(p(4), l2).unwrap();
    // p1 serializes behind both (learns their intervals), then releases l.
    dsm.acquire(p(1), l1).unwrap();
    dsm.release(p(1), l1).unwrap();
    dsm.acquire(p(1), l2).unwrap();
    dsm.release(p(1), l2).unwrap();
    dsm.acquire(p(1), l).unwrap();
    dsm.write_u64(p(1), 1024, 7);
    dsm.release(p(1), l).unwrap();
    // p2 acquires l from grantor p1. Notices cover p3's and p4's intervals;
    // the diffs come from h = 2 other concurrent last modifiers.
    let before = dsm.net().snapshot();
    dsm.acquire(p(2), l).unwrap();
    let delta = dsm.net().stats().since(&before);
    assert_eq!(delta.class(OpClass::Lock).msgs, 3 + 2 * 2, "3 + 2h, h = 2");
}

/// Lock row, eager protocols: 3 messages, nothing else (no consistency
/// actions at acquires).
#[test]
fn lock_cost_eager_is_3() {
    for policy in [Policy::Invalidate, Policy::Update] {
        let mut dsm = eager(policy);
        let l = LockId::new(0);
        dsm.acquire(p(1), l).unwrap();
        dsm.release(p(1), l).unwrap();
        let before = dsm.net().snapshot();
        dsm.acquire(p(2), l).unwrap();
        let delta = dsm.net().stats().since(&before);
        assert_eq!(delta.total().msgs, 3);
        assert_eq!(delta.class(OpClass::Lock).msgs, 3);
    }
}

/// Unlock row: lazy protocols send nothing; eager protocols send 2c
/// messages (notice/update + ack per other cacher).
#[test]
fn unlock_cost_lazy_0_eager_2c() {
    for policy in [Policy::Invalidate, Policy::Update] {
        let mut dsm = lazy(policy);
        let l = LockId::new(0);
        dsm.acquire(p(1), l).unwrap();
        dsm.write_u64(p(1), 0, 9);
        let before = dsm.net().snapshot();
        dsm.release(p(1), l).unwrap();
        assert_eq!(dsm.net().stats().since(&before).total().msgs, 0, "{policy}");
    }
    for policy in [Policy::Invalidate, Policy::Update] {
        let mut dsm = eager(policy);
        // c = 3 other cachers of page 0 (home p0 plus readers p2, p3).
        dsm.read_u64(p(2), 0);
        dsm.read_u64(p(3), 0);
        let l = LockId::new(0);
        dsm.acquire(p(1), l).unwrap();
        dsm.write_u64(p(1), 0, 9);
        let before = dsm.net().snapshot();
        dsm.release(p(1), l).unwrap();
        let delta = dsm.net().stats().since(&before);
        assert_eq!(
            delta.class(OpClass::Unlock).msgs,
            2 * 3,
            "2c with c = 3 ({policy})"
        );
    }
}

/// Miss row, lazy: 2m messages, m = concurrent last modifiers.
#[test]
fn miss_cost_lazy_is_2m() {
    // m = 1: a migratory chain is served by its last modifier alone.
    let mut dsm = lazy(Policy::Invalidate);
    let l = LockId::new(0);
    for i in 1..=2u16 {
        dsm.acquire(p(i), l).unwrap();
        dsm.write_u64(p(i), 8 * i as u64, i as u64);
        dsm.release(p(i), l).unwrap();
    }
    dsm.acquire(p(3), l).unwrap();
    let before = dsm.net().snapshot();
    dsm.read_u64(p(3), 8);
    assert_eq!(
        dsm.net().stats().since(&before).class(OpClass::Miss).msgs,
        2,
        "m = 1"
    );
    dsm.release(p(3), l).unwrap();

    // m = 2: two concurrent writers of disjoint words (false sharing).
    let mut dsm = lazy(Policy::Invalidate);
    dsm.read_u64(p(3), 0); // p3 caches the page first
    dsm.write_u64(p(1), 0, 1);
    dsm.write_u64(p(2), 8, 2);
    for i in 0..N as u16 {
        dsm.barrier(p(i), BarrierId::new(0)).unwrap();
    }
    let before = dsm.net().snapshot();
    dsm.read_u64(p(3), 0);
    assert_eq!(
        dsm.net().stats().since(&before).class(OpClass::Miss).msgs,
        4,
        "m = 2"
    );
}

/// Miss row, eager: 2 messages when the directory manager has a valid
/// copy, 3 when it forwards to the owner.
#[test]
fn miss_cost_eager_is_2_or_3() {
    let mut dsm = eager(Policy::Invalidate);
    // 2 hops: page 0's home (p0) holds the initial copy.
    let before = dsm.net().snapshot();
    dsm.read_u64(p(2), 0);
    assert_eq!(
        dsm.net().stats().since(&before).class(OpClass::Miss).msgs,
        2
    );
    // 3 hops: p1 modifies page 0 under a lock and invalidates everyone;
    // the home no longer has a valid copy, so the request is forwarded.
    let l = LockId::new(0);
    dsm.acquire(p(1), l).unwrap();
    dsm.write_u64(p(1), 0, 5);
    dsm.release(p(1), l).unwrap();
    let before = dsm.net().snapshot();
    dsm.read_u64(p(3), 0);
    assert_eq!(
        dsm.net().stats().since(&before).class(OpClass::Miss).msgs,
        3
    );
}

/// Barrier row: 2(n-1) for LI (everything piggybacks) and EI with a single
/// writer per page (v = 0); 2(n-1) + 2u for the update protocols.
#[test]
fn barrier_cost_all_protocols() {
    let b = BarrierId::new(0);
    // LI: exactly 2(n-1).
    let mut dsm = lazy(Policy::Invalidate);
    dsm.write_u64(p(1), 0, 1);
    let before = dsm.net().snapshot();
    for i in 0..N as u16 {
        dsm.barrier(p(i), b).unwrap();
    }
    assert_eq!(
        dsm.net()
            .stats()
            .since(&before)
            .class(OpClass::Barrier)
            .msgs,
        2 * (N as u64 - 1),
        "LI: all consistency information piggybacks"
    );

    // LU: 2(n-1) + 2u with u = 2 (two other processors cache the page).
    let mut dsm = lazy(Policy::Update);
    dsm.read_u64(p(2), 0);
    dsm.read_u64(p(3), 0);
    dsm.read_u64(p(1), 0);
    dsm.write_u64(p(1), 0, 1);
    let before = dsm.net().snapshot();
    for i in 0..N as u16 {
        dsm.barrier(p(i), b).unwrap();
    }
    assert_eq!(
        dsm.net()
            .stats()
            .since(&before)
            .class(OpClass::Barrier)
            .msgs,
        2 * (N as u64 - 1) + 2 * 2,
        "LU: 2(n-1) + 2u"
    );

    // EU: same 2u shape, pushed instead of pulled.
    let mut dsm = eager(Policy::Update);
    dsm.read_u64(p(2), 0);
    dsm.read_u64(p(3), 0);
    dsm.read_u64(p(1), 0);
    dsm.write_u64(p(1), 0, 1);
    let before = dsm.net().snapshot();
    for i in 0..N as u16 {
        dsm.barrier(p(i), b).unwrap();
    }
    // u = 3: home p0 also caches page 0.
    assert_eq!(
        dsm.net()
            .stats()
            .since(&before)
            .class(OpClass::Barrier)
            .msgs,
        2 * (N as u64 - 1) + 2 * 3,
        "EU: 2(n-1) + 2u"
    );

    // EI: 2(n-1) + 2v, with v = excess invalidators of each page.
    let mut dsm = eager(Policy::Invalidate);
    dsm.read_u64(p(1), 0);
    dsm.read_u64(p(2), 0);
    dsm.read_u64(p(3), 0);
    dsm.write_u64(p(1), 0, 1);
    dsm.write_u64(p(2), 8, 2);
    dsm.write_u64(p(3), 16, 3);
    let before = dsm.net().snapshot();
    for i in 0..N as u16 {
        dsm.barrier(p(i), b).unwrap();
    }
    assert_eq!(
        dsm.net()
            .stats()
            .since(&before)
            .class(OpClass::Barrier)
            .msgs,
        2 * (N as u64 - 1) + 2 * 2,
        "EI: 2(n-1) + 2v with v = k - 1 = 2 excess invalidators"
    );
}
