//! Node-runtime history conformance: the same seeded programs, but with
//! every processor except p0 hosted on a peer node — operations cross the
//! `lrc-net` wire protocol (channel transport, and real sockets for one
//! sweep), get dispatched through the node server's per-processor
//! workers, and the recorded history must still pass the full
//! conformance check. A frame mis-dispatch, a
//! reordered worker queue, or a protocol bug surfaced only by the remote
//! path shows up as an unjustifiable read.

mod hist_support;

use hist_support::{
    failure_report, forced_flow_program, run_over_channel_nodes, run_over_tcp_nodes, RunConfig,
};
use lrc::core::ProtocolMutation;
use lrc::hist::CheckBudget;
use lrc::sim::ProtocolKind;
use lrc::workloads::{ProgramShape, ThreadProgram};

/// Seeded programs through the channel-transport node runtime, rotating
/// across all four protocols and both page-size regimes.
#[test]
fn node_runtime_histories_pass_conformance() {
    let shape = ProgramShape::default();
    let kinds = ProtocolKind::ALL;
    for seed in 0..8u64 {
        let cfg = RunConfig::stock(
            kinds[seed as usize % kinds.len()],
            if seed % 2 == 0 { 256 } else { 1024 },
        );
        let prog = ThreadProgram::generate(seed, &shape);
        let hist = run_over_channel_nodes(&prog, &cfg);
        assert_eq!(hist.len(), prog.op_count(), "remote operations recorded");
        if let Err(err) = hist.check(&CheckBudget::default()) {
            panic!("{}", failure_report(seed, &cfg, &prog, &err, &hist));
        }
    }
}

/// The forced-flow program (barrier-published slots) over the node
/// runtime, with lazy ablations crossed in.
#[test]
fn node_runtime_forced_flow_passes_under_ablations() {
    let prog = forced_flow_program(3, 3);
    for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::LazyUpdate] {
        for gc in [false, true] {
            let cfg = RunConfig {
                gc,
                ..RunConfig::stock(kind, 256)
            };
            let hist = run_over_channel_nodes(&prog, &cfg);
            if let Err(err) = hist.check(&CheckBudget::default()) {
                panic!("{}", failure_report(0, &cfg, &prog, &err, &hist));
            }
        }
    }
}

/// The same seeded sweep over real loopback sockets, where frames queued
/// for one peer share socket writes. A frame corrupted by that
/// coalescing, or delivered out of order, shows up as an unjustifiable
/// read here.
#[test]
fn socket_histories_pass_conformance() {
    let shape = ProgramShape::default();
    let kinds = ProtocolKind::ALL;
    for seed in 0..8u64 {
        let cfg = RunConfig::stock(
            kinds[seed as usize % kinds.len()],
            if seed % 2 == 0 { 256 } else { 1024 },
        );
        let prog = ThreadProgram::generate(seed, &shape);
        let hist = run_over_tcp_nodes(&prog, &cfg);
        assert_eq!(hist.len(), prog.op_count(), "remote operations recorded");
        if let Err(err) = hist.check(&CheckBudget::default()) {
            panic!("{}", failure_report(seed, &cfg, &prog, &err, &hist));
        }
    }
}

/// The checker guards the remote path too: a broken protocol behind the
/// node runtime is rejected from the history alone.
#[test]
fn node_runtime_catches_a_broken_protocol() {
    let prog = forced_flow_program(3, 3);
    let cfg = RunConfig {
        mutation: ProtocolMutation::SkipTwinDiff,
        ..RunConfig::stock(ProtocolKind::LazyInvalidate, 256)
    };
    let hist = run_over_channel_nodes(&prog, &cfg);
    let err = hist
        .check(&CheckBudget::default())
        .expect_err("skip-twin-diff must not conform over the node runtime");
    let msg = err.to_string();
    assert!(
        msg.contains("unjustified read") || msg.contains("no sequentially consistent witness"),
        "unexpected rejection: {msg}"
    );
}
