//! Property-based coverage of the wire codec: every message type
//! round-trips exactly through encode → frame → decode, truncated and
//! corrupted frames are rejected, foreign versions are refused, and the
//! encodings designed to match `lrc-simnet`'s modeled sizes really do.
//! The checksum's word loop, byte tail and length seed are swept
//! exhaustively over every short body length.

use lrc_core::EngineOp;
use lrc_net::{
    Frame, NoticeBatch, NoticeInterval, WireCtx, WireDiff, WireError, WireKind, WireMsg,
};
use lrc_pagemem::{Diff, PageBuf, PageId, PageSize};
use lrc_simnet::{notice_batch_bytes, vc_bytes, BARRIER_ID_BYTES, LOCK_ID_BYTES, MSG_HEADER_BYTES};
use lrc_sync::{BarrierId, LockId};
use lrc_vclock::{IntervalId, ProcId, VectorClock};
use proptest::prelude::*;

const N: usize = 4;

fn clock() -> impl Strategy<Value = VectorClock> {
    prop::collection::vec(0u32..1000, N).prop_map(|v| {
        let mut vc = VectorClock::new(N);
        for (i, s) in v.into_iter().enumerate() {
            vc.set(ProcId::new(i as u16), s);
        }
        vc
    })
}

fn interval() -> impl Strategy<Value = IntervalId> {
    (0u16..N as u16, 1u32..10_000).prop_map(|(p, s)| IntervalId::new(ProcId::new(p), s))
}

fn notices() -> impl Strategy<Value = NoticeBatch> {
    prop::collection::vec((interval(), prop::collection::vec(0u32..64, 1..5)), 0..4).prop_map(
        |ivs| NoticeBatch {
            intervals: ivs
                .into_iter()
                .map(|(id, pages)| NoticeInterval {
                    id,
                    stamp_entry: id.seq(),
                    pages: pages.into_iter().map(PageId::new).collect(),
                })
                .collect(),
        },
    )
}

/// A random diff: write random disjoint runs into a 256-byte page.
fn diff() -> impl Strategy<Value = Diff> {
    prop::collection::vec((0u8..8, 1usize..9, 1u8..=255), 0..4).prop_map(|chunks| {
        let size = PageSize::new(256).unwrap();
        let twin = PageBuf::zeroed(size);
        let mut cur = twin.clone();
        for (slot, len, byte) in chunks {
            // Slots of 32 bytes keep runs disjoint regardless of order.
            cur.write(slot as usize * 32, &vec![byte; len]);
        }
        Diff::between(&twin, &cur)
    })
}

fn wire_diff() -> impl Strategy<Value = WireDiff> {
    (0u32..64, 1u32..100, diff()).prop_map(|(page, stamp, diff)| WireDiff {
        page: PageId::new(page),
        stamp,
        diff,
    })
}

fn engine_op() -> impl Strategy<Value = EngineOp> {
    prop_oneof![
        (0u64..4096, 1u32..64).prop_map(|(addr, len)| EngineOp::Read { addr, len }),
        (0u64..4096, prop::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(addr, data)| EngineOp::Write { addr, data }),
        (0u32..8).prop_map(|l| EngineOp::Acquire(LockId::new(l))),
        (0u32..8).prop_map(|l| EngineOp::Release(LockId::new(l))),
        (0u32..8).prop_map(|b| EngineOp::Barrier(BarrierId::new(b))),
    ]
}

fn msg() -> impl Strategy<Value = WireMsg> {
    prop_oneof![
        (0u16..4, prop::collection::vec(0u16..N as u16, 0..3)).prop_map(|(node, procs)| {
            WireMsg::Hello {
                node,
                procs: procs.into_iter().map(ProcId::new).collect(),
            }
        }),
        Just(WireMsg::Shutdown),
        (0u16..N as u16, engine_op()).prop_map(|(p, op)| WireMsg::OpRequest {
            proc: ProcId::new(p),
            op,
        }),
        prop::collection::vec(any::<u8>(), 0..64)
            .prop_map(|bytes| WireMsg::OpReply { result: Ok(bytes) }),
        (0u32..16).prop_map(|e| WireMsg::OpReply {
            result: Err(format!("error {e}")),
        }),
        (0u32..8, 0u16..N as u16, clock()).prop_map(|(l, p, clock)| WireMsg::LockRequest {
            lock: LockId::new(l),
            acquirer: ProcId::new(p),
            clock,
        }),
        (0u32..8, 0u16..N as u16, clock()).prop_map(|(l, p, clock)| WireMsg::LockForward {
            lock: LockId::new(l),
            acquirer: ProcId::new(p),
            clock,
        }),
        (
            0u32..8,
            clock(),
            notices(),
            prop::collection::vec(wire_diff(), 0..3)
        )
            .prop_map(|(l, clock, notices, diffs)| WireMsg::LockGrant {
                lock: LockId::new(l),
                clock,
                notices,
                diffs,
            }),
        (0u32..4, 0u16..N as u16, clock(), notices()).prop_map(|(b, p, clock, notices)| {
            WireMsg::BarrierArrival {
                barrier: BarrierId::new(b),
                proc: ProcId::new(p),
                clock,
                notices,
            }
        }),
        (0u32..4, clock(), notices()).prop_map(|(b, clock, notices)| WireMsg::BarrierExit {
            barrier: BarrierId::new(b),
            clock,
            notices,
        }),
        (
            0u32..64,
            prop::collection::vec((interval(), 0u32..64), 0..4),
            any::<bool>()
        )
            .prop_map(|(page, wanted, want_base)| WireMsg::MissRequest {
                page: PageId::new(page),
                wanted: wanted
                    .into_iter()
                    .map(|(iv, g)| (iv, PageId::new(g)))
                    .collect(),
                want_base,
            }),
        (
            0u32..64,
            prop_oneof![
                Just(None),
                prop::collection::vec(any::<u8>(), 64..65).prop_map(Some)
            ],
            prop::collection::vec(wire_diff(), 0..3)
        )
            .prop_map(|(page, base, diffs)| WireMsg::MissReply {
                page: PageId::new(page),
                base,
                diffs,
            }),
        (clock(), notices()).prop_map(|(clock, notices)| WireMsg::Notices { clock, notices }),
    ]
}

fn ctx() -> WireCtx {
    WireCtx { n_procs: N }
}

/// Body lengths the checksum sweeps cover: nine whole words, so every
/// tail length 0..=7 occurs behind zero up to eight full words.
const SWEEP_LENS: std::ops::RangeInclusive<usize> = 0..=72;

/// The encoded frame of an arbitrary `body` (a frame does not look inside
/// its body; only `WireMsg::decode` does).
fn raw_frame(body: Vec<u8>) -> Vec<u8> {
    Frame {
        kind: WireKind::OpReply,
        src: 1,
        dst: 0,
        seq: 9,
        body,
    }
    .encode()
}

fn patterned(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 + 11) as u8).collect()
}

/// Rewrites the header's body-length field.
fn set_body_len(frame: &mut [u8], len: usize) {
    frame[20..24].copy_from_slice(&(len as u32).to_le_bytes());
}

#[test]
fn every_flip_of_every_body_byte_is_caught() {
    for len in SWEEP_LENS {
        let good = raw_frame(patterned(len));
        assert!(Frame::decode(&good).is_ok(), "length {len} decodes");
        for at in 32..good.len() {
            // Each single bit, then the whole byte.
            for flip in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
                let mut bad = good.clone();
                bad[at] ^= flip;
                assert_eq!(
                    Frame::decode(&bad).unwrap_err(),
                    WireError::BadChecksum,
                    "length {len}, body byte {}, flip {flip:#04x}",
                    at - 32
                );
            }
        }
    }
}

#[test]
fn a_version_1_frame_is_refused_by_version_not_by_checksum() {
    for len in [0, 5, 64] {
        let mut old = raw_frame(patterned(len));
        old[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            Frame::decode(&old).unwrap_err(),
            WireError::UnsupportedVersion(1)
        );
    }
}

#[test]
fn a_zero_byte_more_or_less_is_refused_with_the_length_patched() {
    // The body length seeds the sum, so a body that grows or shrinks by a
    // zero byte (the change an xor-based sum is least sensitive to) fails
    // even when the header's length field is made to agree.
    for len in SWEEP_LENS {
        for mut body in [vec![0; len], patterned(len)] {
            let mut grown = raw_frame(body.clone());
            grown.push(0);
            set_body_len(&mut grown, len + 1);
            assert_eq!(
                Frame::decode(&grown).unwrap_err(),
                WireError::BadChecksum,
                "length {len} grown by a zero byte"
            );

            body.push(0);
            let mut shrunk = raw_frame(body);
            shrunk.pop();
            set_body_len(&mut shrunk, len);
            assert_eq!(
                Frame::decode(&shrunk).unwrap_err(),
                WireError::BadChecksum,
                "length {} shrunk by its trailing zero byte",
                len + 1
            );
        }
    }
}

proptest! {
    /// Encode → frame bytes → decode is the identity for every message
    /// type, and the frame length bookkeeping agrees with the bytes.
    #[test]
    fn every_message_round_trips(msg in msg(), src in 0u16..4, dst in 0u16..4, seq in 0u64..1000) {
        let frame = msg.encode_frame(src, dst, seq);
        let bytes = frame.encode();
        prop_assert_eq!(bytes.len(), frame.wire_len());
        let (back, used) = Frame::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!((back.src, back.dst, back.seq), (src, dst, seq));
        let decoded = WireMsg::decode(back.kind, &back.body, &ctx()).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// Any strict prefix of a frame fails to decode — truncation never
    /// passes silently.
    #[test]
    fn truncated_frames_are_rejected(msg in msg(), cut in 0usize..10_000) {
        let bytes = msg.encode_frame(0, 1, 7).encode();
        let cut = cut % bytes.len();
        prop_assert!(Frame::decode(&bytes[..cut]).is_err());
    }

    /// Flipping any body byte trips the checksum (frames with empty
    /// bodies have nothing to flip and are skipped).
    #[test]
    fn corrupted_bodies_are_rejected(msg in msg(), pick in any::<u64>()) {
        let frame = msg.encode_frame(0, 1, 7);
        if !frame.body.is_empty() {
            let mut bytes = frame.encode();
            let at = 32 + (pick as usize % frame.body.len());
            bytes[at] ^= 0x5a;
            prop_assert_eq!(Frame::decode(&bytes).unwrap_err(), WireError::BadChecksum);
        }
    }

    /// Every version except the current one is refused with
    /// `UnsupportedVersion` — the cross-version rejection gate.
    #[test]
    fn foreign_versions_are_rejected(msg in msg(), version in 0u16..100) {
        // The stub proptest has no prop_assume; dodge the one valid value.
        let version = if version == lrc_net::WIRE_VERSION { 0 } else { version };
        let mut bytes = msg.encode_frame(0, 1, 7).encode();
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            WireError::UnsupportedVersion(version)
        );
    }

    /// Garbage that does not start with the magic never decodes.
    #[test]
    fn garbage_is_rejected(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        if bytes.get(..4) != Some(&lrc_net::WIRE_MAGIC[..]) {
            prop_assert!(Frame::decode(&bytes).is_err());
        }
    }

    /// A valid body re-framed under a *wrong length prefix* is rejected
    /// cleanly — no panic, no partial decode. Four mismatch shapes: the
    /// prefix overruns the buffer (truncation), under-spans the real body
    /// (checksum refuses the prefix slice), spans appended junk (checksum
    /// refuses the grown body), or claims an absurd size (cap refuses
    /// before allocating).
    #[test]
    fn wrong_length_prefix_is_cleanly_rejected(
        msg in msg(),
        delta in 1usize..48,
        junk in prop::collection::vec(any::<u8>(), 1..48),
    ) {
        let frame = msg.encode_frame(0, 1, 9);
        let body_len = frame.body.len();
        let good = frame.encode();
        prop_assert!(Frame::decode(&good).is_ok(), "baseline frame decodes");

        // Overrun: the prefix promises more bytes than the buffer holds.
        let mut overrun = good.clone();
        overrun[20..24].copy_from_slice(&((body_len + delta) as u32).to_le_bytes());
        prop_assert!(matches!(
            Frame::decode(&overrun),
            Err(WireError::Truncated(_))
        ));

        // Undershoot: the prefix claims a strict prefix of the real body;
        // the checksum (stored over the full body) must refuse it.
        if body_len > 0 {
            let declared = (delta - 1) % body_len; // 0..body_len-1
            let mut short = good.clone();
            short[20..24].copy_from_slice(&(declared as u32).to_le_bytes());
            prop_assert_eq!(
                Frame::decode(&short).unwrap_err(),
                WireError::BadChecksum,
                "an under-spanning prefix must not yield a partial decode"
            );
        }

        // Grown: junk appended and the prefix re-framed to cover it.
        let mut grown = good.clone();
        grown.extend_from_slice(&junk);
        grown[20..24].copy_from_slice(&((body_len + junk.len()) as u32).to_le_bytes());
        prop_assert_eq!(Frame::decode(&grown).unwrap_err(), WireError::BadChecksum);

        // Absurd: over the body cap — refused before any allocation.
        let mut absurd = good;
        absurd[20..24]
            .copy_from_slice(&((lrc_net::MAX_BODY_BYTES + 1) as u32).to_le_bytes());
        prop_assert!(matches!(
            Frame::decode(&absurd),
            Err(WireError::Malformed(_))
        ));
    }

    /// The encodings designed to be measurements of the simulation model
    /// match it exactly: clocks cost `vc_bytes`, notice records cost
    /// `notice_batch_bytes`, diffs cost `Diff::encoded_size`, and the
    /// frame header costs `MSG_HEADER_BYTES`. Explicit counts are the
    /// only overhead, and they are exactly 2 bytes per list.
    #[test]
    fn payload_sizes_match_the_model(clock in clock(), notices in notices(), d in wire_diff()) {
        prop_assert_eq!(clock.wire_len() as u64, vc_bytes(N));

        let batch_msg = WireMsg::Notices { clock: clock.clone(), notices: notices.clone() };
        let record_bytes = notice_batch_bytes(
            notices.intervals.len(),
            notices.intervals.iter().map(|iv| iv.pages.len()).sum(),
        );
        prop_assert_eq!(notices.record_bytes(), record_bytes);
        prop_assert_eq!(
            batch_msg.encode_body().len() as u64,
            vc_bytes(N) + 2 + record_bytes,
            "clock + interval count + records"
        );

        let mut diff_bytes = Vec::new();
        d.diff.write_wire(d.page.raw(), d.stamp, &mut diff_bytes);
        prop_assert_eq!(diff_bytes.len(), d.diff.encoded_size());

        let lock_request = WireMsg::LockRequest {
            lock: LockId::new(1),
            acquirer: ProcId::new(0),
            clock: clock.clone(),
        };
        prop_assert_eq!(
            lock_request.encode_body().len() as u64,
            LOCK_ID_BYTES + vc_bytes(N),
            "a lock hop costs exactly the modeled payload"
        );

        let arrival = WireMsg::BarrierArrival {
            barrier: BarrierId::new(0),
            proc: ProcId::new(1),
            clock,
            notices,
        };
        prop_assert_eq!(
            arrival.encode_body().len() as u64,
            BARRIER_ID_BYTES + vc_bytes(N) + 2 + record_bytes
        );

        let frame = WireMsg::Shutdown.encode_frame(0, 1, 0);
        prop_assert_eq!(frame.encode().len() as u64, MSG_HEADER_BYTES);
    }
}
