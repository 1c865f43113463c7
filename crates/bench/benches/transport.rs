//! Transport comparison harness: codec cost of a 4 KiB miss reply and of
//! a small acquire request, end-to-end op round trips over both backends
//! (channel loopback, TCP), and a same-destination frame storm over a TCP
//! pair, where frames queued faster than the send thread writes them must
//! share socket writes.
//! Byte accounting is reconciled three ways on every run: modeled frame
//! bytes, the sender's metered bytes, and the receiver's metered bytes
//! must agree exactly.
//!
//! Results are written as machine-readable JSON to `BENCH_transport.json`
//! (override with `--json PATH`). Flags: `--smoke` shrinks iteration
//! counts for CI; `--check` exits non-zero unless the storm averaged more
//! than one frame per socket write.

use std::time::Instant;

use lrc_core::EngineOp;
use lrc_dsm::{DsmBuilder, NodeClient, NodeServer};
use lrc_net::{ChannelNet, Frame, TcpTransport, Transport, WireCtx, WireMsg, WireStats};
use lrc_pagemem::{Diff, PageBuf, PageId, PageSize};
use lrc_sim::ProtocolKind;
use lrc_sync::LockId;
use lrc_vclock::ProcId;
use std::hint::black_box;

/// A realistic miss reply: a 4 KiB base page plus a dense diff.
fn miss_reply() -> WireMsg {
    let size = PageSize::new(4096).unwrap();
    let twin = PageBuf::zeroed(size);
    let mut cur = twin.clone();
    for chunk in 0..16 {
        cur.write(chunk * 256, &[chunk as u8 + 1; 128]);
    }
    WireMsg::MissReply {
        page: PageId::new(3),
        base: Some(vec![0xab; 4096]),
        diffs: vec![lrc_net::WireDiff {
            page: PageId::new(3),
            stamp: 9,
            diff: Diff::between(&twin, &cur),
        }],
    }
}

/// A small frame: a remote processor's lock acquire, 7 body bytes.
fn acquire_request() -> WireMsg {
    WireMsg::OpRequest {
        proc: ProcId::new(1),
        op: EngineOp::Acquire(LockId::new(2)),
    }
}

/// Per-operation codec cost of `msg` (encode, decode) in microseconds.
fn bench_codec(msg: &WireMsg, iters: u64) -> (f64, f64) {
    let bytes = msg.encode_frame(1, 0, 7).encode();
    let ctx = WireCtx { n_procs: 8 };

    let start = Instant::now();
    for _ in 0..iters {
        black_box(msg.encode_frame(1, 0, 7).encode());
    }
    let encode_us = start.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let start = Instant::now();
    for _ in 0..iters {
        let (frame, _) = Frame::decode(black_box(&bytes)).unwrap();
        black_box(WireMsg::decode(frame.kind, frame.body, &ctx).unwrap());
    }
    let decode_us = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
    (encode_us, decode_us)
}

/// One remote op round trip per iteration (request over the transport,
/// dispatch into the engine, reply back), in microseconds per op.
fn bench_round_trips(
    server_end: impl Transport + 'static,
    client_end: impl Transport + 'static,
    iters: u64,
) -> f64 {
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 16)
        .build()
        .unwrap();
    let server = NodeServer::new(dsm.clone(), server_end);
    let serving = std::thread::spawn(move || server.serve());
    let client = NodeClient::connect(client_end, 0, vec![ProcId::new(1)]).unwrap();
    let mut h = client.handle(ProcId::new(1));
    let mut x = 0u64;
    for _ in 0..iters / 10 + 1 {
        x += 1;
        h.write_u64(64, x).unwrap(); // warm-up
    }
    let start = Instant::now();
    for _ in 0..iters {
        x += 1;
        h.write_u64(64, x).unwrap();
    }
    let per_op = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
    client.shutdown().unwrap();
    serving.join().unwrap().unwrap();
    per_op
}

/// The direct in-process baseline the transports are measured against.
fn bench_direct(iters: u64) -> f64 {
    let dsm = DsmBuilder::new(ProtocolKind::LazyInvalidate, 2, 1 << 16)
        .build()
        .unwrap();
    let mut h = dsm.handle(ProcId::new(1));
    let mut x = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        x += 1;
        h.write_u64(64, x);
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// A connected channel pair (server end, client end).
fn channel_pair() -> (lrc_net::ChannelTransport, lrc_net::ChannelTransport) {
    let mut mesh = ChannelNet::mesh(2);
    let client_end = mesh.pop().unwrap();
    let server_end = mesh.pop().unwrap();
    (server_end, client_end)
}

/// A connected TCP loopback pair (server end, client end).
fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let hub = TcpTransport::bind("127.0.0.1:0", 0).unwrap();
    let addr = hub.local_addr();
    let connecting = std::thread::spawn(move || TcpTransport::connect(&addr, 1, 0).unwrap());
    (hub.accept(1).unwrap(), connecting.join().unwrap())
}

/// A same-destination storm of op frames sent faster than the spoke's
/// send thread writes them, so queued frames share socket writes. Returns
/// the spoke's accounting (connect-time link hello included), with
/// modeled / sender-metered / receiver-metered bytes asserted equal — the
/// `SizeCrosscheck` discipline extended to coalesced writes.
fn tcp_burst(frames: u64) -> WireStats {
    let (hub, spoke) = tcp_pair();
    let msg = WireMsg::OpRequest {
        proc: ProcId::new(1),
        op: EngineOp::Write {
            addr: 0,
            data: vec![0xa5; 64],
        },
    };
    let frame_len = msg.encode_frame(1, 0, 1).wire_len() as u64;
    let hello_len = WireMsg::Hello {
        node: 1,
        procs: Vec::new(),
    }
    .encode_frame(1, 0, 0)
    .wire_len() as u64;

    for seq in 1..=frames {
        spoke.send(&msg, 0, seq).unwrap();
    }
    for _ in 0..frames {
        hub.recv().unwrap();
    }
    // Every frame has arrived, so every write behind it has been counted.
    let sent = spoke.stats();
    let bytes_modeled = hello_len + frames * frame_len;
    assert_eq!(
        sent.bytes_sent, bytes_modeled,
        "sender-metered bytes diverge from the modeled frame bytes"
    );
    assert_eq!(
        hub.stats().bytes_received,
        bytes_modeled,
        "receiver-metered bytes diverge from the modeled frame bytes"
    );
    sent
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            // Cargo runs benches with the package as CWD; the committed
            // results live at the workspace root.
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transport.json").to_string()
        });
    let (codec_iters, rt_iters, burst_frames) = if smoke {
        (2_000u64, 500u64, 2_048u64)
    } else {
        (50_000, 5_000, 8_192)
    };
    // `cargo bench` passes --bench and harness flags; all are ignored.

    let (encode_us, decode_us) = bench_codec(&miss_reply(), codec_iters);
    println!("codec: encode {encode_us:.2}us decode {decode_us:.2}us (miss reply, 4KiB page)");
    let (small_encode_us, small_decode_us) = bench_codec(&acquire_request(), codec_iters);
    println!(
        "codec: encode {small_encode_us:.3}us decode {small_decode_us:.3}us (op request, acquire)"
    );

    let direct_us = bench_direct(rt_iters * 10);
    let (server_end, client_end) = channel_pair();
    let channel_us = bench_round_trips(server_end, client_end, rt_iters);
    let (server_end, client_end) = tcp_pair();
    let tcp_us = bench_round_trips(server_end, client_end, rt_iters);

    println!("round trip (write_u64): direct {direct_us:.2}us  channel {channel_us:.2}us  tcp {tcp_us:.2}us");

    let burst = tcp_burst(burst_frames);
    let frames_per_flush = burst.msgs_sent as f64 / burst.flushes as f64;
    println!(
        "tcp storm: {} frames in {} socket writes ({frames_per_flush:.1} frames/flush), \
         {} bytes modeled == sent == received",
        burst.msgs_sent, burst.flushes, burst.bytes_sent,
    );

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"transport\",\n  \"smoke\": {smoke},\n  \"cores\": {cores},\n  \
         \"codec_us\": {{\n    \"encode\": {encode_us:.3},\n    \"decode\": {decode_us:.3},\n    \
         \"small_encode\": {small_encode_us:.3},\n    \"small_decode\": {small_decode_us:.3}\n  }},\n  \
         \"round_trip_us\": {{\n    \"direct\": {direct_us:.3},\n    \
         \"channel\": {channel_us:.3},\n    \"tcp\": {tcp_us:.3}\n  }},\n  \
         \"tcp_burst\": {{\n    \"frames\": {frames},\n    \"flushes\": {flushes},\n    \
         \"frames_per_flush\": {frames_per_flush:.2},\n    \"bytes_modeled\": {bytes},\n    \
         \"bytes_sent\": {bytes},\n    \"bytes_received\": {bytes}\n  }}\n}}\n",
        frames = burst.msgs_sent,
        flushes = burst.flushes,
        bytes = burst.bytes_sent, // tcp_burst asserted all three equal
    );
    std::fs::write(&json_path, &json).expect("write JSON results");
    println!("results written to {json_path}");

    if check {
        // The committed acceptance gate: a same-destination storm must
        // share socket writes across frames, or the send thread has
        // regressed into write-per-frame behavior. (The three-way byte
        // equality is asserted on every run, checked or not.)
        assert!(
            frames_per_flush > 1.0,
            "no coalescing: {} frames took {} socket writes",
            burst.msgs_sent,
            burst.flushes,
        );
        println!("check passed");
    }
}
