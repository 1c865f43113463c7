//! Behavioral tests for the LRC engine: the protocol properties the paper
//! states, asserted against real message traffic and real page contents.

use lrc_core::{EngineParams, LrcEngine, Policy};
use lrc_simnet::{MsgKind, OpClass, MSG_HEADER_BYTES};
use lrc_sync::{BarrierId, LockId};
use lrc_vclock::{IntervalId, ProcId};

fn p(i: u16) -> ProcId {
    ProcId::new(i)
}

fn l(i: u32) -> LockId {
    LockId::new(i)
}

fn b(i: u32) -> BarrierId {
    BarrierId::new(i)
}

/// 4 procs, 16 pages of 512 bytes.
fn engine(policy: Policy) -> LrcEngine {
    LrcEngine::new(policy, &params()).unwrap()
}

fn params() -> EngineParams {
    EngineParams {
        n_procs: 4,
        mem_bytes: 16 * 512,
        page_bytes: 512,
        ..EngineParams::default()
    }
}

#[test]
fn releases_are_purely_local() {
    let mut dsm = engine(Policy::Invalidate);
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.write_u64(p(1), 0, 42);
    let before = dsm.net().snapshot();
    dsm.release(p(1), l(0)).unwrap();
    let delta = dsm.net().stats().since(&before);
    assert_eq!(
        delta.total().msgs,
        0,
        "LRC releases send no messages (§4.2)"
    );
}

#[test]
fn acquire_costs_three_messages_steady_state() {
    // home(lock 0) = p0; rotate p1 -> p2 -> p3: requester, home, grantor
    // all distinct => 3 messages per lock transfer (Table 1).
    let mut dsm = engine(Policy::Invalidate);
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.write_u64(p(1), 0, 1);
    dsm.release(p(1), l(0)).unwrap();

    for (round, &requester) in [p(2), p(3), p(2), p(3)].iter().enumerate() {
        let before = dsm.net().snapshot();
        dsm.acquire(requester, l(0)).unwrap();
        let delta = dsm.net().stats().since(&before);
        assert_eq!(delta.class(OpClass::Lock).msgs, 3, "round {round}");
        dsm.write_u64(requester, 0, round as u64);
        dsm.release(requester, l(0)).unwrap();
    }
}

#[test]
fn local_reacquire_is_free() {
    let mut dsm = engine(Policy::Invalidate);
    dsm.acquire(p(2), l(0)).unwrap();
    dsm.write_u64(p(2), 0, 5);
    dsm.release(p(2), l(0)).unwrap();
    let before = dsm.net().snapshot();
    dsm.acquire(p(2), l(0)).unwrap();
    dsm.release(p(2), l(0)).unwrap();
    assert_eq!(dsm.net().stats().since(&before).total().msgs, 0);
}

#[test]
fn notices_piggyback_and_invalidate() {
    // Lock 0's home is p0; use p1/p2/p3 so every hop is a real message.
    let mut dsm = engine(Policy::Invalidate);
    // p1 warms its copy of page 0.
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.write_u64(p(1), 0, 1);
    dsm.release(p(1), l(0)).unwrap();
    // p2 modifies the page under the lock.
    dsm.acquire(p(2), l(0)).unwrap();
    dsm.write_u64(p(2), 8, 2);
    dsm.release(p(2), l(0)).unwrap();
    assert!(dsm.page_valid(p(1), dsm.space().page_of(0)));
    // p1 re-acquires: write notice for p2's interval arrives piggybacked,
    // invalidating p1's copy — with no extra messages beyond the transfer.
    let before = dsm.net().snapshot();
    dsm.acquire(p(1), l(0)).unwrap();
    let delta = dsm.net().stats().since(&before);
    assert_eq!(delta.total().msgs, 3);
    assert!(!dsm.page_valid(p(1), dsm.space().page_of(0)));
    assert!(dsm.counters().invalidations >= 1);
    dsm.release(p(1), l(0)).unwrap();
}

#[test]
fn migratory_data_rides_the_lock_chain() {
    // Figure 4 of the paper: each acquire moves lock + data in one grant
    // (LU) — the acquirer then reads/writes with zero additional traffic.
    let mut dsm = engine(Policy::Update);
    dsm.acquire(p(0), l(0)).unwrap();
    dsm.write_u64(p(0), 0, 100);
    dsm.release(p(0), l(0)).unwrap();

    for round in 1..4u16 {
        let proc = p(round);
        dsm.acquire(proc, l(0)).unwrap();
        let before = dsm.net().snapshot();
        let v = dsm.read_u64(proc, 0);
        // First access by this proc is a *cold* miss (base copy), later
        // rounds piggyback everything on the grant.
        let miss_msgs = dsm.net().stats().since(&before).class(OpClass::Miss).msgs;
        assert!(miss_msgs <= 2, "round {round}: at most one cold fetch");
        assert_eq!(v, 100 + (round as u64 - 1));
        dsm.write_u64(proc, 0, 100 + round as u64);
        dsm.release(proc, l(0)).unwrap();
    }

    // Second sweep: everyone has a resident copy; LU piggybacks all diffs
    // on the grant, so a full acquire-read-write-release round costs
    // exactly the lock-transfer messages and nothing else (2 when the
    // requester is the lock's home p0, 3 otherwise).
    for round in 0..4u16 {
        let proc = p(round);
        let before = dsm.net().snapshot();
        dsm.acquire(proc, l(0)).unwrap();
        let v = dsm.read_u64(proc, 0);
        assert_eq!(v, 103 + round as u64);
        dsm.write_u64(proc, 0, 104 + round as u64);
        dsm.release(proc, l(0)).unwrap();
        let delta = dsm.net().stats().since(&before);
        // Round 0: requester p0 is the home (forward + grant). Round 1:
        // grantor p0 is the home (request + grant). Later rounds: all
        // three processors distinct.
        let expected = if round <= 1 { 2 } else { 3 };
        assert_eq!(
            delta.total().msgs,
            expected,
            "round {round}: lock transfer only"
        );
    }
}

#[test]
fn cold_miss_fetches_base_from_home() {
    let mut dsm = engine(Policy::Invalidate);
    // Page 5's home is p1 (5 % 4). p0 reads it cold: 2 messages, page-sized
    // reply.
    let page_bytes = 512;
    let before = dsm.net().snapshot();
    let v = dsm.read_u64(p(0), 5 * page_bytes);
    assert_eq!(v, 0, "initial contents are zero");
    let delta = dsm.net().stats().since(&before);
    assert_eq!(delta.class(OpClass::Miss).msgs, 2);
    assert!(delta.class(OpClass::Miss).bytes >= page_bytes);
    assert_eq!(dsm.counters().cold_misses, 1);

    // The home itself reads cold for free.
    let before = dsm.net().snapshot();
    dsm.read_u64(p(1), 5 * page_bytes);
    assert_eq!(dsm.net().stats().since(&before).total().msgs, 0);
}

#[test]
fn warm_miss_moves_diffs_not_pages() {
    // §4.3.3: a processor holding an invalidated copy fetches only diffs.
    let mut dsm = engine(Policy::Invalidate);
    // p0 and p1 both warm page 0.
    dsm.acquire(p(0), l(0)).unwrap();
    dsm.write_u64(p(0), 0, 1);
    dsm.release(p(0), l(0)).unwrap();
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.write_u64(p(1), 8, 2);
    dsm.release(p(1), l(0)).unwrap();
    // p0 re-acquires; its copy is invalidated; the subsequent read is a
    // warm miss served by one modifier with one small diff.
    dsm.acquire(p(0), l(0)).unwrap();
    let before = dsm.net().snapshot();
    assert_eq!(dsm.read_u64(p(0), 8), 2);
    let delta = dsm.net().stats().since(&before);
    assert_eq!(delta.class(OpClass::Miss).msgs, 2, "2m with m = 1");
    let bytes = delta.class(OpClass::Miss).bytes;
    assert!(
        bytes < 2 * MSG_HEADER_BYTES + 100,
        "diff-only reply must be far below page size, got {bytes}"
    );
    assert_eq!(dsm.counters().warm_misses, 1);
    dsm.release(p(0), l(0)).unwrap();
}

#[test]
fn full_page_miss_ablation_inflates_data() {
    let run = |full_page: bool| -> u64 {
        let params = EngineParams {
            full_page_misses: full_page,
            ..params()
        };
        let mut dsm = LrcEngine::new(Policy::Invalidate, &params).unwrap();
        dsm.acquire(p(0), l(0)).unwrap();
        dsm.write_u64(p(0), 0, 1);
        dsm.release(p(0), l(0)).unwrap();
        dsm.acquire(p(1), l(0)).unwrap();
        dsm.write_u64(p(1), 8, 2);
        dsm.release(p(1), l(0)).unwrap();
        dsm.acquire(p(0), l(0)).unwrap();
        let before = dsm.net().snapshot();
        dsm.read_u64(p(0), 8);
        dsm.net().stats().since(&before).class(OpClass::Miss).bytes
    };
    let diff_bytes = run(false);
    let page_bytes = run(true);
    assert!(
        page_bytes > diff_bytes,
        "ablated warm miss ({page_bytes}B) must outweigh diffs ({diff_bytes}B)"
    );
    assert!(page_bytes >= 512);
}

#[test]
fn no_piggyback_ablation_adds_messages() {
    let run = |piggyback: bool| -> u64 {
        let params = EngineParams {
            piggyback_notices: piggyback,
            ..params()
        };
        let mut dsm = LrcEngine::new(Policy::Invalidate, &params).unwrap();
        dsm.acquire(p(1), l(0)).unwrap();
        dsm.write_u64(p(1), 0, 1);
        dsm.release(p(1), l(0)).unwrap();
        let before = dsm.net().snapshot();
        dsm.acquire(p(2), l(0)).unwrap();
        dsm.release(p(2), l(0)).unwrap();
        dsm.net().stats().since(&before).class(OpClass::Lock).msgs
    };
    assert_eq!(run(true), 3);
    assert_eq!(run(false), 4, "separate notice message per acquire");
}

#[test]
fn false_sharing_needs_no_messages_between_writers() {
    // Two processors write different words of the same page concurrently:
    // multiple-writer protocols exchange nothing until synchronization.
    let mut dsm = engine(Policy::Invalidate);
    // Warm both copies first (cold fetches).
    dsm.read_u64(p(0), 0);
    dsm.read_u64(p(1), 0);
    let before = dsm.net().snapshot();
    for i in 0..10 {
        dsm.write_u64(p(0), 0, i);
        dsm.write_u64(p(1), 256, 100 + i);
    }
    assert_eq!(
        dsm.net().stats().since(&before).total().msgs,
        0,
        "no ping-pong on falsely shared pages"
    );
}

#[test]
fn false_sharing_merges_at_barrier() {
    let mut dsm = engine(Policy::Invalidate);
    dsm.read_u64(p(0), 0);
    dsm.read_u64(p(1), 0);
    dsm.write_u64(p(0), 0, 7);
    dsm.write_u64(p(1), 8, 9);
    for i in 0..4 {
        dsm.barrier(p(i), b(0)).unwrap();
    }
    // After the barrier both writers' modifications are visible everywhere.
    assert_eq!(dsm.read_u64(p(2), 0), 7);
    assert_eq!(dsm.read_u64(p(2), 8), 9);
    assert_eq!(
        dsm.read_u64(p(0), 8),
        9,
        "writer sees the other writer's word"
    );
    assert_eq!(dsm.read_u64(p(1), 0), 7);
    assert_eq!(dsm.read_u64(p(0), 0), 7, "own write survives the merge");
}

#[test]
fn barrier_costs_two_n_minus_one_messages() {
    let mut dsm = engine(Policy::Invalidate);
    dsm.write_u64(p(2), 0, 3); // some dirty state to notice
    let before = dsm.net().snapshot();
    for i in 0..4 {
        dsm.barrier(p(i), b(0)).unwrap();
    }
    let delta = dsm.net().stats().since(&before);
    assert_eq!(
        delta.class(OpClass::Barrier).msgs,
        2 * (4 - 1),
        "2(n-1), LI row of Table 1"
    );
    assert_eq!(delta.kind(MsgKind::BarrierArrival).msgs, 3);
    assert_eq!(delta.kind(MsgKind::BarrierExit).msgs, 3);
    assert_eq!(dsm.counters().barrier_episodes, 1);
}

#[test]
fn update_policy_pulls_diffs_at_barrier() {
    let mut dsm = engine(Policy::Update);
    // p1 and p2 cache page 0 (cold fetches).
    dsm.read_u64(p(1), 0);
    dsm.read_u64(p(2), 0);
    // p0 writes it.
    dsm.read_u64(p(0), 0);
    dsm.write_u64(p(0), 16, 5);
    let before = dsm.net().snapshot();
    for i in 0..4 {
        dsm.barrier(p(i), b(0)).unwrap();
    }
    let delta = dsm.net().stats().since(&before);
    // 2(n-1) barrier messages + 2u with u = 2 cacher-modifier pairs.
    assert_eq!(delta.class(OpClass::Barrier).msgs, 6 + 4);
    assert_eq!(delta.kind(MsgKind::BarrierDiffRequest).msgs, 2);
    // Caches stay valid: reads after the barrier are free.
    let before = dsm.net().snapshot();
    assert_eq!(dsm.read_u64(p(1), 16), 5);
    assert_eq!(dsm.read_u64(p(2), 16), 5);
    assert_eq!(dsm.net().stats().since(&before).total().msgs, 0);
}

#[test]
fn invalidate_policy_pays_at_miss_instead() {
    let mut dsm = engine(Policy::Invalidate);
    dsm.read_u64(p(1), 0);
    dsm.read_u64(p(0), 0);
    dsm.write_u64(p(0), 16, 5);
    let before = dsm.net().snapshot();
    for i in 0..4 {
        dsm.barrier(p(i), b(0)).unwrap();
    }
    // Barrier itself: exactly 2(n-1).
    assert_eq!(
        dsm.net()
            .stats()
            .since(&before)
            .class(OpClass::Barrier)
            .msgs,
        6
    );
    assert!(!dsm.page_valid(p(1), dsm.space().page_of(0)));
    // The miss happens on next access.
    let before = dsm.net().snapshot();
    assert_eq!(dsm.read_u64(p(1), 16), 5);
    assert_eq!(
        dsm.net().stats().since(&before).class(OpClass::Miss).msgs,
        2
    );
}

#[test]
fn transitive_chain_propagates_notices() {
    // p0 writes x under l0; p1 relays via l0 -> l1; p2 must see p0's write
    // after acquiring l1 (the transitive "preceding" of §1).
    let mut dsm = engine(Policy::Invalidate);
    dsm.acquire(p(0), l(0)).unwrap();
    dsm.write_u64(p(0), 64, 11);
    dsm.release(p(0), l(0)).unwrap();
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.release(p(1), l(0)).unwrap();
    dsm.acquire(p(1), l(1)).unwrap();
    dsm.release(p(1), l(1)).unwrap();
    dsm.acquire(p(2), l(1)).unwrap();
    assert_eq!(dsm.read_u64(p(2), 64), 11);
    dsm.release(p(2), l(1)).unwrap();
}

#[test]
fn reads_of_valid_pages_are_free() {
    let mut dsm = engine(Policy::Invalidate);
    dsm.read_u64(p(0), 0); // cold once
    let before = dsm.net().snapshot();
    for _ in 0..100 {
        dsm.read_u64(p(0), 0);
        dsm.write_u64(p(0), 0, 9);
    }
    assert_eq!(dsm.net().stats().since(&before).total().msgs, 0);
}

#[test]
fn overwritten_values_resolve_in_happened_before_order() {
    // p0 writes 1, p1 overwrites with 2 (same word, via the lock chain),
    // then p2 misses: it must see 2, never 1.
    let mut dsm = engine(Policy::Invalidate);
    dsm.acquire(p(0), l(0)).unwrap();
    dsm.write_u64(p(0), 32, 1);
    dsm.release(p(0), l(0)).unwrap();
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.write_u64(p(1), 32, 2);
    dsm.release(p(1), l(0)).unwrap();
    dsm.acquire(p(2), l(0)).unwrap();
    assert_eq!(dsm.read_u64(p(2), 32), 2);
    dsm.release(p(2), l(0)).unwrap();
}

#[test]
fn migratory_miss_served_by_single_last_modifier() {
    // After a chain p0 -> p1 -> p2 of modifications, p3's miss is served
    // by m = 1 concurrent last modifier (2 messages), because each writer
    // accumulated its predecessors' diffs.
    let mut dsm = engine(Policy::Invalidate);
    for i in 0..3u16 {
        dsm.acquire(p(i), l(0)).unwrap();
        dsm.write_u64(p(i), 8 * i as u64, i as u64 + 1);
        dsm.release(p(i), l(0)).unwrap();
    }
    dsm.acquire(p(3), l(0)).unwrap();
    let before = dsm.net().snapshot();
    assert_eq!(dsm.read_u64(p(3), 0), 1);
    assert_eq!(dsm.read_u64(p(3), 8), 2);
    assert_eq!(dsm.read_u64(p(3), 16), 3);
    let delta = dsm.net().stats().since(&before);
    assert_eq!(
        delta.class(OpClass::Miss).msgs,
        2,
        "one round trip to the concurrent last modifier"
    );
    dsm.release(p(3), l(0)).unwrap();
}

#[test]
fn lock_errors_propagate() {
    let mut dsm = engine(Policy::Invalidate);
    dsm.acquire(p(0), l(0)).unwrap();
    assert!(dsm.acquire(p(1), l(0)).is_err());
    assert!(dsm.release(p(1), l(0)).is_err());
    dsm.release(p(0), l(0)).unwrap();
}

#[test]
fn interval_store_grows_only_for_nonempty_intervals() {
    let mut dsm = engine(Policy::Invalidate);
    dsm.acquire(p(0), l(0)).unwrap();
    dsm.release(p(0), l(0)).unwrap(); // empty critical section
    assert_eq!(dsm.store().interval_count(), 0);
    assert_eq!(dsm.counters().intervals_closed, 0);
    dsm.acquire(p(0), l(0)).unwrap();
    dsm.write_u64(p(0), 0, 1);
    dsm.release(p(0), l(0)).unwrap();
    assert_eq!(dsm.store().interval_count(), 1);
}

#[test]
fn an_empty_access_is_a_no_op() {
    let mut dsm = engine(Policy::Invalidate);
    dsm.acquire(p(1), l(0)).unwrap();
    let before = dsm.net().snapshot();
    // Page 0 was never fetched here: an empty access must not miss on it.
    assert_eq!(dsm.read_vec(p(1), 16, 0), Vec::<u8>::new());
    dsm.write(p(1), 16, &[]);
    // One past the last byte is still inside an empty range's bounds.
    dsm.write(p(1), 16 * 512, &[]);
    {
        let shard = dsm.shard(p(1));
        assert!(shard.dirty.is_empty() && shard.pages.iter().all(|f| !f.is_dirty()));
        assert!(shard.pages[0].copy.is_none(), "no miss was resolved");
    }
    dsm.release(p(1), l(0)).unwrap();
    assert_eq!(dsm.counters().intervals_closed, 0, "nothing was written");
    assert_eq!(dsm.store().interval_count(), 0);
    assert_eq!(dsm.net().stats().since(&before).total().msgs, 0);
}

#[test]
#[should_panic(expected = "out of range")]
fn an_empty_access_past_the_end_still_panics() {
    let mut dsm = engine(Policy::Invalidate);
    dsm.read_vec(p(0), 16 * 512 + 1, 0);
}

#[test]
fn clock_advances_only_on_real_intervals() {
    let mut dsm = engine(Policy::Invalidate);
    let before = dsm.clock(p(0)).get(p(0));
    dsm.acquire(p(0), l(0)).unwrap();
    dsm.release(p(0), l(0)).unwrap();
    assert_eq!(
        dsm.clock(p(0)).get(p(0)),
        before,
        "empty intervals are not numbered"
    );
    dsm.acquire(p(0), l(0)).unwrap();
    dsm.write_u64(p(0), 0, 1);
    dsm.release(p(0), l(0)).unwrap();
    assert_eq!(dsm.clock(p(0)).get(p(0)), before + 1);
}

#[test]
fn a_recycled_twin_never_leaks_stale_bytes() {
    // A consumed twin's buffer becomes the next first write's twin; it
    // must come back as a copy of *that* page. p1 fills page A with a
    // pattern; p0 rewrites one byte of it, so p0's twin of A copies the
    // pattern and leaves it in the buffer p0's release recycles. p0's
    // first write to page B reuses that buffer.
    let (a, b) = (2 * 512, 4 * 512); // homes p2 and p0
    let pattern: Vec<u8> = (0..512).map(|i| (i % 251 + 1) as u8).collect();
    for policy in [Policy::Invalidate, Policy::Update] {
        let mut dsm = engine(policy);
        for (proc, data) in [(p(1), &pattern[..]), (p(0), &[0])] {
            dsm.acquire(proc, l(0)).unwrap();
            dsm.write(proc, a, data);
            dsm.release(proc, l(0)).unwrap();
        }
        dsm.acquire(p(0), l(0)).unwrap();
        dsm.write_u64(p(0), b + 64, 0x0123_4567_89ab_cdef);
        // Before p0 releases, a cold miss on B is served by B's home p0
        // from its committed bytes — the twin — which are B's zeros.
        assert_eq!(dsm.read_vec(p(1), b, 512), vec![0; 512], "{policy:?}");
        dsm.release(p(0), l(0)).unwrap();

        let store = dsm.store();
        let closed = IntervalId::new(p(0), store.latest_seq(p(0)));
        let diff = store
            .diff(closed, dsm.space().page_of(b))
            .expect("B's interval is recorded");
        let runs: Vec<(u32, &[u8])> = diff.runs().collect();
        assert_eq!(
            runs,
            [(64, &0x0123_4567_89ab_cdef_u64.to_le_bytes()[..])],
            "{policy:?}: B's diff is the one word written"
        );
    }
}
