//! Behavioral tests for the eager (Munin write-shared) baseline: release-
//! time propagation, directory misses, and the EI/EU barrier behaviour of
//! Table 1.

use lrc_core::{EngineParams, Policy};
use lrc_eager::EagerEngine;
use lrc_simnet::{MsgKind, OpClass};
use lrc_sync::{BarrierId, LockId};
use lrc_vclock::ProcId;

fn p(i: u16) -> ProcId {
    ProcId::new(i)
}

fn l(i: u32) -> LockId {
    LockId::new(i)
}

fn b(i: u32) -> BarrierId {
    BarrierId::new(i)
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
fn acquires_carry_no_consistency_data() {
    let dsm = engine(Policy::Update);
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.write_u64(p(1), 0, 1);
    dsm.release(p(1), l(0)).unwrap();
    let before = dsm.net().snapshot();
    dsm.acquire(p(2), l(0)).unwrap();
    let delta = dsm.net().stats().since(&before);
    assert_eq!(delta.class(OpClass::Lock).msgs, 3);
    // Each lock message carries only the lock id: 8 bytes + header.
    assert_eq!(delta.class(OpClass::Lock).bytes, 3 * (32 + 8));
}

#[test]
fn release_pushes_updates_to_all_cachers() {
    let dsm = engine(Policy::Update);
    // p1, p2, p3 cache page 0 (cold misses through the directory).
    for i in 1..4u16 {
        dsm.read_u64(p(i), 0);
    }
    // p1 writes it under a lock; its release updates every other cacher
    // (p0 the home, p2, p3): 2c = 6 messages.
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.write_u64(p(1), 0, 42);
    let before = dsm.net().snapshot();
    dsm.release(p(1), l(0)).unwrap();
    let delta = dsm.net().stats().since(&before);
    assert_eq!(delta.kind(MsgKind::ReleaseUpdate).msgs, 3);
    assert_eq!(delta.kind(MsgKind::ReleaseAck).msgs, 3);
    assert_eq!(delta.class(OpClass::Unlock).msgs, 6);
    // All cachers see the new value with no further traffic.
    let before = dsm.net().snapshot();
    assert_eq!(dsm.read_u64(p(2), 0), 42);
    assert_eq!(dsm.read_u64(p(3), 0), 42);
    assert_eq!(dsm.net().stats().since(&before).total().msgs, 0);
}

#[test]
fn release_invalidates_under_ei() {
    let dsm = engine(Policy::Invalidate);
    for i in 1..4u16 {
        dsm.read_u64(p(i), 0);
    }
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.write_u64(p(1), 0, 42);
    let before = dsm.net().snapshot();
    dsm.release(p(1), l(0)).unwrap();
    let delta = dsm.net().stats().since(&before);
    assert_eq!(delta.kind(MsgKind::ReleaseInvalidate).msgs, 3);
    assert_eq!(delta.kind(MsgKind::ReleaseAck).msgs, 3);
    // Only the releaser retains the page.
    assert_eq!(dsm.protocol().copyset(dsm.space().page_of(0)), vec![p(1)]);
    // A reader must now reload the whole page through the directory:
    // home p0 has no copy, so the request is forwarded to the owner p1.
    let before = dsm.net().snapshot();
    assert_eq!(dsm.read_u64(p(2), 0), 42);
    let delta = dsm.net().stats().since(&before);
    assert_eq!(delta.class(OpClass::Miss).msgs, 3, "2 or 3 hops (Table 1)");
    assert!(delta.class(OpClass::Miss).bytes >= 512, "full page reload");
    assert_eq!(dsm.counters().misses_3hop, 1);
}

#[test]
fn miss_is_two_hops_when_home_has_copy() {
    let dsm = engine(Policy::Invalidate);
    // Page 0's home is p0 and holds the initial copy: first miss by p2 is
    // 2 messages.
    let before = dsm.net().snapshot();
    assert_eq!(dsm.read_u64(p(2), 0), 0);
    let delta = dsm.net().stats().since(&before);
    assert_eq!(delta.class(OpClass::Miss).msgs, 2);
    assert_eq!(dsm.counters().misses_2hop, 1);
}

#[test]
fn repeated_lock_rounds_update_everyone_eagerly() {
    // The Figure 3 pathology: once all four processors cache the page,
    // every EU release updates all of them although only the next lock
    // holder needs the data.
    let dsm = engine(Policy::Update);
    for i in 0..4u16 {
        dsm.read_u64(p(i), 0);
    }
    for round in 0..4u16 {
        let proc = p(round);
        dsm.acquire(proc, l(0)).unwrap();
        dsm.write_u64(proc, 0, round as u64 + 1);
        let before = dsm.net().snapshot();
        dsm.release(proc, l(0)).unwrap();
        let delta = dsm.net().stats().since(&before);
        assert_eq!(
            delta.class(OpClass::Unlock).msgs,
            6,
            "round {round}: 2c with c = 3 other cachers"
        );
    }
}

#[test]
fn eu_barrier_pushes_2u_messages() {
    let dsm = engine(Policy::Update);
    // p1 and p2 cache page 0; p0 (home) also caches it implicitly.
    dsm.read_u64(p(1), 0);
    dsm.read_u64(p(2), 0);
    dsm.read_u64(p(3), 8 * 512 - 8); // unrelated page, no effect
    dsm.write_u64(p(1), 0, 5);
    let before = dsm.net().snapshot();
    for i in 0..4 {
        dsm.barrier(p(i), b(0)).unwrap();
    }
    let delta = dsm.net().stats().since(&before);
    // u = 2 (p0 home and p2 cache the page p1 modified): 2u = 4 update
    // messages on top of 2(n-1) barrier messages.
    assert_eq!(delta.kind(MsgKind::BarrierUpdate).msgs, 2);
    assert_eq!(delta.kind(MsgKind::BarrierUpdateAck).msgs, 2);
    assert_eq!(delta.class(OpClass::Barrier).msgs, 6 + 4);
}

#[test]
fn ei_barrier_piggybacks_invalidations() {
    let dsm = engine(Policy::Invalidate);
    dsm.read_u64(p(1), 0);
    dsm.read_u64(p(2), 0);
    dsm.write_u64(p(1), 0, 5);
    let before = dsm.net().snapshot();
    for i in 0..4 {
        dsm.barrier(p(i), b(0)).unwrap();
    }
    let delta = dsm.net().stats().since(&before);
    // Single writer: v = 0, so exactly 2(n-1) messages.
    assert_eq!(delta.class(OpClass::Barrier).msgs, 6);
    // p2's copy is gone; the next read reloads the page from the owner.
    let before = dsm.net().snapshot();
    assert_eq!(dsm.read_u64(p(2), 0), 5);
    assert!(dsm.net().stats().since(&before).class(OpClass::Miss).bytes >= 512);
}

#[test]
fn ei_excess_invalidators_pay_2v() {
    let dsm = engine(Policy::Invalidate);
    // Three processors write disjoint words of page 0 between barriers.
    for i in 0..3u16 {
        dsm.read_u64(p(i), 0);
        dsm.write_u64(p(i), 8 * i as u64, i as u64 + 1);
    }
    let before = dsm.net().snapshot();
    for i in 0..4 {
        dsm.barrier(p(i), b(0)).unwrap();
    }
    let delta = dsm.net().stats().since(&before);
    // k = 3 concurrent invalidators: v = k - 1 = 2, so 2v = 4 extra.
    assert_eq!(delta.kind(MsgKind::BarrierResolve).msgs, 2);
    assert_eq!(delta.kind(MsgKind::BarrierResolveAck).msgs, 2);
    assert_eq!(delta.class(OpClass::Barrier).msgs, 6 + 4);
    assert_eq!(dsm.counters().excess_invalidators, 2);
    // The winner (p2) merged everyone's writes; a fresh reader sees all.
    assert_eq!(dsm.read_u64(p(3), 0), 1);
    assert_eq!(dsm.read_u64(p(3), 8), 2);
    assert_eq!(dsm.read_u64(p(3), 16), 3);
}

#[test]
fn concurrent_writer_writes_back_on_invalidation() {
    let dsm = engine(Policy::Invalidate);
    // p1 and p2 write disjoint words of page 0; p1 releases a lock.
    dsm.read_u64(p(1), 0);
    dsm.read_u64(p(2), 0);
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.write_u64(p(1), 0, 10);
    dsm.write_u64(p(2), 8, 20); // no lock: false sharing, disjoint words
    let before = dsm.net().snapshot();
    dsm.release(p(1), l(0)).unwrap();
    let delta = dsm.net().stats().since(&before);
    assert_eq!(delta.kind(MsgKind::WritebackReply).msgs, 1);
    assert_eq!(dsm.counters().writebacks, 1);
    // p2's modification survived at the releaser.
    assert_eq!(dsm.read_u64(p(1), 8), 20);
    assert_eq!(dsm.read_u64(p(1), 0), 10);
    // p2 reloads and sees both words.
    assert_eq!(dsm.read_u64(p(2), 0), 10);
    assert_eq!(dsm.read_u64(p(2), 8), 20);
}

#[test]
fn empty_critical_sections_flush_nothing() {
    let dsm = engine(Policy::Update);
    dsm.read_u64(p(1), 0);
    dsm.acquire(p(2), l(0)).unwrap();
    let before = dsm.net().snapshot();
    dsm.release(p(2), l(0)).unwrap();
    assert_eq!(dsm.net().stats().since(&before).total().msgs, 0);
}

#[test]
fn an_empty_access_is_a_no_op() {
    let dsm = engine(Policy::Invalidate);
    dsm.read_u64(p(1), 0); // p1 caches page 0: a flush would have a target
    dsm.acquire(p(2), l(0)).unwrap();
    let before = dsm.net().snapshot();
    assert_eq!(dsm.read_vec(p(2), 16, 0), Vec::<u8>::new());
    dsm.write(p(2), 16, &[]);
    {
        let shard = dsm.shard(p(2));
        assert!(shard.dirty.is_empty() && shard.pages.iter().all(|f| !f.is_dirty()));
        assert!(shard.pages[0].copy.is_none(), "no miss was resolved");
    }
    dsm.release(p(2), l(0)).unwrap();
    assert_eq!(dsm.net().stats().since(&before).total().msgs, 0);
    assert_eq!(dsm.counters().flushes, 0);
}

#[test]
#[should_panic(expected = "out of range")]
fn an_empty_access_past_the_end_still_panics() {
    let dsm = engine(Policy::Invalidate);
    dsm.write(p(0), 16 * 512 + 1, &[]);
}

#[test]
fn migratory_chain_values_flow_correctly() {
    for policy in [Policy::Invalidate, Policy::Update] {
        let dsm = engine(policy);
        let mut expected = 0u64;
        for round in 0..8u16 {
            let proc = p(round % 4);
            dsm.acquire(proc, l(0)).unwrap();
            let v = dsm.read_u64(proc, 64);
            assert_eq!(v, expected, "round {round} under {policy}");
            expected += 1;
            dsm.write_u64(proc, 64, expected);
            dsm.release(proc, l(0)).unwrap();
        }
    }
}

#[test]
fn lock_and_barrier_errors_propagate() {
    let dsm = engine(Policy::Invalidate);
    dsm.acquire(p(0), l(0)).unwrap();
    assert!(dsm.acquire(p(1), l(0)).is_err());
    assert!(dsm.release(p(1), l(0)).is_err());
    dsm.release(p(0), l(0)).unwrap();
    dsm.barrier(p(0), b(0)).unwrap();
    assert!(dsm.barrier(p(0), b(0)).is_err(), "double arrival");
    assert!(dsm.barrier(p(0), BarrierId::new(99)).is_err());
}

#[test]
fn page_valid_reflects_directory_and_invalidations() {
    let dsm = engine(Policy::Invalidate);
    let page = dsm.space().page_of(0);
    let cached = |who: ProcId| dsm.protocol().copyset(page).contains(&who);
    assert!(cached(p(0)), "home starts with the initial copy");
    assert!(
        !dsm.page_valid(p(0), page),
        "not materialized until touched"
    );
    assert!(!cached(p(2)));
    dsm.read_u64(p(2), 0);
    assert!(cached(p(2)) && dsm.page_valid(p(2), page));
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.write_u64(p(1), 0, 1);
    dsm.release(p(1), l(0)).unwrap();
    assert!(
        !cached(p(2)) && !dsm.page_valid(p(2), page),
        "EI release invalidated the reader"
    );
    assert!(cached(p(1)) && dsm.page_valid(p(1), page));
}
