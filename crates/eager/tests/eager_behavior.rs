//! Behavioral tests for the eager (Munin write-shared) baseline: release-
//! time propagation, directory misses, and the EI/EU barrier behaviour of
//! Table 1.

use lrc_core::{EngineParams, Policy};
use lrc_eager::EagerEngine;
use lrc_pagemem::{DIFF_HEADER_BYTES, RUN_HEADER_BYTES};
use lrc_simnet::{invalidation_bytes, MsgKind, MsgRecord, OpClass, MSG_HEADER_BYTES};
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
    let mut dsm = engine(Policy::Update);
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
    let mut dsm = engine(Policy::Update);
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
    let mut dsm = engine(Policy::Invalidate);
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
    let mut dsm = engine(Policy::Invalidate);
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
    let mut dsm = engine(Policy::Update);
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
    let mut dsm = engine(Policy::Update);
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
    let mut dsm = engine(Policy::Invalidate);
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
    let mut dsm = engine(Policy::Invalidate);
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
    let mut dsm = engine(Policy::Invalidate);
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
    let mut dsm = engine(Policy::Update);
    dsm.read_u64(p(1), 0);
    dsm.acquire(p(2), l(0)).unwrap();
    let before = dsm.net().snapshot();
    dsm.release(p(2), l(0)).unwrap();
    assert_eq!(dsm.net().stats().since(&before).total().msgs, 0);
}

#[test]
fn an_empty_access_is_a_no_op() {
    let mut dsm = engine(Policy::Invalidate);
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
    let mut dsm = engine(Policy::Invalidate);
    dsm.write(p(0), 16 * 512 + 1, &[]);
}

#[test]
fn migratory_chain_values_flow_correctly() {
    for policy in [Policy::Invalidate, Policy::Update] {
        let mut dsm = engine(policy);
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
    let mut dsm = engine(Policy::Invalidate);
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
    let mut dsm = engine(Policy::Invalidate);
    let page = dsm.space().page_of(0);
    let cached = |dsm: &EagerEngine, who: ProcId| dsm.protocol().copyset(page).contains(&who);
    assert!(cached(&dsm, p(0)), "home starts with the initial copy");
    assert!(
        !dsm.page_valid(p(0), page),
        "not materialized until touched"
    );
    assert!(!cached(&dsm, p(2)));
    dsm.read_u64(p(2), 0);
    assert!(cached(&dsm, p(2)) && dsm.page_valid(p(2), page));
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.write_u64(p(1), 0, 1);
    dsm.release(p(1), l(0)).unwrap();
    assert!(
        !cached(&dsm, p(2)) && !dsm.page_valid(p(2), page),
        "EI release invalidated the reader"
    );
    assert!(cached(&dsm, p(1)) && dsm.page_valid(p(1), page));
}

#[test]
fn a_recycled_twin_never_leaks_stale_bytes() {
    // A consumed twin's buffer becomes the next first write's twin; it
    // must come back as a copy of *that* page. p1 fills page A with a
    // pattern; p0 rewrites one byte of it, so p0's twin of A copies the
    // pattern and leaves it in the buffer p0's flush recycles. p0's first
    // write to page B reuses that buffer.
    let (a, b_page) = (2 * 512, 4 * 512); // homes p2 and p0
    let pattern: Vec<u8> = (0..512).map(|i| (i % 251 + 1) as u8).collect();
    let one_word = MSG_HEADER_BYTES + (DIFF_HEADER_BYTES + RUN_HEADER_BYTES + 8) as u64;
    for policy in [Policy::Invalidate, Policy::Update] {
        let mut dsm = engine(policy);
        for (proc, data) in [(p(1), &pattern[..]), (p(0), &[0])] {
            dsm.acquire(proc, l(0)).unwrap();
            dsm.write(proc, a, data);
            dsm.release(proc, l(0)).unwrap();
        }
        dsm.write_u64(p(0), b_page, 0x0123_4567_89ab_cdef);
        // Before p0 flushes, a cold miss on B is served by B's home p0
        // from its committed bytes — the twin — which are B's zeros.
        assert_eq!(dsm.read_vec(p(1), b_page, 512), vec![0; 512], "{policy:?}");
        dsm.write_u64(p(1), b_page + 8, 0x1122_3344_5566_7788);
        let before = dsm.net().snapshot();
        for i in 0..4 {
            dsm.barrier(p(i), b(0)).unwrap();
        }
        // Each writer's diff of B is the one word it wrote: EU pushes both
        // to the other writer, EI merges the loser p0's into the winner.
        let delta = dsm.net().stats().since(&before);
        let (kind, diffs) = match policy {
            Policy::Update => (MsgKind::BarrierUpdate, 2),
            Policy::Invalidate => (MsgKind::BarrierResolve, 1),
        };
        assert_eq!(delta.kind(kind).bytes, diffs * one_word, "{policy:?}");
        // Neither word was overwritten by bytes of A.
        assert_eq!(
            dsm.read_u64(p(3), b_page),
            0x0123_4567_89ab_cdef,
            "{policy:?}"
        );
        assert_eq!(
            dsm.read_u64(p(3), b_page + 8),
            0x1122_3344_5566_7788,
            "{policy:?}"
        );
    }
}

#[test]
fn a_recycled_diff_never_leaks_stale_runs() {
    // A flushed diff's buffer is refilled by the flusher's next diff; it
    // must come back holding that diff's runs only. p0 first flushes one
    // byte in every 16 of page 0 (32 runs), then a single byte. Between
    // the two, another writer overwrites a byte of an old run: a leaked
    // run would put p0's stale byte back over it.
    let one_byte = MSG_HEADER_BYTES + (DIFF_HEADER_BYTES + RUN_HEADER_BYTES + 1) as u64;
    let every_16th = |dsm: &mut EagerEngine| {
        for at in (0..512).step_by(16) {
            dsm.write(p(0), at, &[0xee]);
        }
    };
    let agree = |dsm: &mut EagerEngine, what: &str| {
        let page = dsm.read_vec(p(0), 0, 512);
        assert_eq!(page[32], 0x33, "{what}: the overwrite stands");
        for i in 1..4 {
            assert_eq!(dsm.read_vec(p(i), 0, 512), page, "{what}: p{i}'s copy");
        }
    };

    // EU, at releases: every update carries p0's diff to the cachers.
    let mut dsm = engine(Policy::Update);
    for i in 1..4 {
        dsm.read_u64(p(i), 0);
    }
    dsm.acquire(p(0), l(0)).unwrap();
    every_16th(&mut dsm);
    dsm.release(p(0), l(0)).unwrap();
    dsm.acquire(p(1), l(0)).unwrap();
    dsm.write(p(1), 32, &[0x33]);
    dsm.release(p(1), l(0)).unwrap();
    dsm.acquire(p(0), l(0)).unwrap();
    dsm.write(p(0), 100, &[0x11]);
    let before = dsm.net().snapshot();
    dsm.release(p(0), l(0)).unwrap();
    let delta = dsm.net().stats().since(&before);
    assert_eq!(delta.kind(MsgKind::ReleaseUpdate).bytes, 3 * one_byte);
    agree(&mut dsm, "EU");

    // EI, at barriers: p0 and p1 write page 0 in each episode, and p1,
    // the page's last flusher, wins it, so p0's diff is merged into p1's
    // copy with one resolve message each episode.
    let mut dsm = engine(Policy::Invalidate);
    let episode = |dsm: &mut EagerEngine| {
        let before = dsm.net().snapshot();
        for i in 0..4 {
            dsm.barrier(p(i), b(0)).unwrap();
        }
        dsm.net()
            .stats()
            .since(&before)
            .kind(MsgKind::BarrierResolve)
    };
    every_16th(&mut dsm);
    dsm.write(p(1), 1, &[0x22]);
    assert_eq!(episode(&mut dsm).msgs, 1);
    dsm.write(p(0), 100, &[0x11]);
    dsm.write(p(1), 32, &[0x33]);
    let resolve = episode(&mut dsm);
    assert_eq!((resolve.msgs, resolve.bytes), (1, one_byte));
    agree(&mut dsm, "EI");
}

/// The messages of one release by `releaser` of an 8-byte write to page
/// `a` and a 16-byte write to page `b`, after `a_readers` and `b_readers`
/// have cached those pages. Pages are 512 bytes, so page `g`'s home —
/// which caches it from the start — is processor `g % n`.
fn flush_messages(
    policy: Policy,
    n: usize,
    releaser: u16,
    (a, a_readers): (u64, &[u16]),
    (b, b_readers): (u64, &[u16]),
) -> Vec<MsgRecord> {
    let params = EngineParams {
        n_procs: n,
        mem_bytes: 16 * 512,
        page_bytes: 512,
        ..EngineParams::default()
    };
    let mut dsm = EagerEngine::new(policy, &params).unwrap();
    dsm.enable_net_trace();
    for (page, readers) in [(a, a_readers), (b, b_readers)] {
        for &r in readers {
            dsm.read_u64(p(r), page * 512);
        }
    }
    dsm.acquire(p(releaser), l(0)).unwrap();
    dsm.write(p(releaser), a * 512, &[0xa5; 8]);
    dsm.write(p(releaser), b * 512, &[0x5a; 16]);
    let before = dsm.net().traced().len();
    dsm.release(p(releaser), l(0)).unwrap();
    dsm.net().traced().split_off(before)
}

/// What a release by `src` sends: per destination, in the order given,
/// one message carrying the diffs (EU) or notices (EI) of the pages
/// listed for it, then the destination's acknowledgment. `a` and `b` are
/// the page indices of the 8- and 16-byte diffs.
fn expected_flush(
    policy: Policy,
    src: u16,
    (a, b): (u64, u64),
    per_dest: &[(u16, &[u64])],
) -> Vec<MsgRecord> {
    let diff_bytes = |page: u64| {
        let written = if page == a {
            8
        } else {
            assert_eq!(page, b);
            16
        };
        (DIFF_HEADER_BYTES + RUN_HEADER_BYTES + written) as u64
    };
    let mut out = Vec::new();
    for &(dst, pages) in per_dest {
        let (kind, payload) = match policy {
            Policy::Update => (
                MsgKind::ReleaseUpdate,
                pages.iter().map(|&g| diff_bytes(g)).sum(),
            ),
            Policy::Invalidate => (MsgKind::ReleaseInvalidate, invalidation_bytes(pages.len())),
        };
        let record = |src: u16, dst: u16, kind, payload| MsgRecord {
            src: p(src),
            dst: p(dst),
            kind,
            payload,
        };
        out.push(record(src, dst, kind, payload));
        out.push(record(dst, src, MsgKind::ReleaseAck, 0));
    }
    out
}

#[test]
fn a_release_messages_each_cacher_in_ascending_order_with_its_own_pages() {
    // Eight processors. Page 3's cachers: its home p3 and p5. Page 4's:
    // its home p4, p2 and p5. The releaser p1 sends p2 only page 4, p3
    // only page 3, p4 only page 4 and p5 both, lowest destination first.
    for policy in [Policy::Update, Policy::Invalidate] {
        let got = flush_messages(policy, 8, 1, (3, &[5]), (4, &[5, 2]));
        let want = expected_flush(
            policy,
            1,
            (3, 4),
            &[(2, &[4]), (3, &[3]), (4, &[4]), (5, &[3, 4])],
        );
        assert_eq!(got, want, "{policy:?}");
    }
}

#[test]
fn a_release_at_64_processors_reaches_the_highest_bit() {
    // As above with 64 processors, plus p63 caching page 4: bit 63 of
    // the copyset is a destination, and the last one.
    for policy in [Policy::Update, Policy::Invalidate] {
        let got = flush_messages(policy, 64, 1, (3, &[5]), (4, &[63, 5, 2]));
        let want = expected_flush(
            policy,
            1,
            (3, 4),
            &[(2, &[4]), (3, &[3]), (4, &[4]), (5, &[3, 4]), (63, &[4])],
        );
        assert_eq!(got, want, "{policy:?}");
    }
}
