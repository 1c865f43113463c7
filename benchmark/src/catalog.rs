//! The names of the benchmark: its stages, workloads, end-to-end metrics
//! and per-layer metrics. `BENCHMARK.json` at the repository root is
//! rendered from these tables (`--print-manifest`) and a test keeps the
//! two equal, so a metric cannot be reported under a name the manifest
//! does not list.

use std::fmt::Write as _;

use Better::{Higher, Lower};

/// One leg of the operation path. Every run executes all four, so every
/// metric is read on every workload; the workload decides which stage
/// receives the bulk of the measuring time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Trace replay through `lrc::sim::run_trace`.
    Replay,
    /// The synchronous op path: codec → `ProcHandle::apply` → codec.
    Op,
    /// Four OS threads under modeled fetch latency.
    Storm,
    /// `lrc::hist` conformance checking of recorded histories.
    Hist,
}

impl Stage {
    pub const ALL: [Stage; 4] = [Stage::Replay, Stage::Op, Stage::Storm, Stage::Hist];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Replay => "replay",
            Stage::Op => "op",
            Stage::Storm => "storm",
            Stage::Hist => "hist",
        }
    }

    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Stages that drive one OS thread are pinned to one CPU; the storm's
    /// threads must be free to spread.
    pub fn single_threaded(self) -> bool {
        self != Stage::Storm
    }
}

/// Payload of the migratory op script.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Script {
    /// One 8-byte word: per-op fixed costs dominate.
    Small,
    /// One 4096-byte block, every byte rewritten each round: bytes dominate.
    Bulk,
}

impl Script {
    pub fn name(self) -> &'static str {
        match self {
            Script::Small => "small",
            Script::Bulk => "bulk",
        }
    }

    pub fn from_name(name: &str) -> Option<Script> {
        [Script::Small, Script::Bulk]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// The stage that gets the measuring time left over by the others.
    pub primary: Stage,
    /// The op script of this workload's op stage.
    pub script: Script,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "replay_apps",
        primary: Stage::Replay,
        script: Script::Small,
        why: "the paper's pipeline: 5 SPLASH-like traces x 4 protocols x 2 page sizes through run_trace; engines, pagemem, vclock, simnet do all the work",
    },
    Workload {
        name: "op_small",
        primary: Stage::Op,
        script: Script::Small,
        why: "closed-loop migratory round of one 8-byte word through codec and ProcHandle::apply, no thread hop: per-op fixed costs dominate",
    },
    Workload {
        name: "op_bulk",
        primary: Stage::Op,
        script: Script::Bulk,
        why: "the same round with a 4096-byte block rewritten each time: diff, squash and checksum bytes dominate, so bulk and small can move apart",
    },
    Workload {
        name: "thread_storm",
        primary: Stage::Storm,
        script: Script::Small,
        why: "4 OS threads ping-pong counters under disjoint locks with a 200us modeled fetch: only overlap of slow paths matters, CPU cost does not",
    },
    Workload {
        name: "hist_check",
        primary: Stage::Hist,
        script: Script::Small,
        why: "History::check over a mixed 4-processor history and a hot one-word history: only lrc-hist works, and its quadratic scans show",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// The stage that measures it; `None` for the two read off the
    /// primary stage's process (`peak_rss_mb`, `setup_s`).
    pub stage: Option<Stage>,
    /// A count of modeled or encoded traffic: bit-identical between
    /// batches and between runs on one seed. Its bound only covers how
    /// far the count moves from seed to seed; on one seed any rise is a
    /// regression and any fall must be claimed.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 12] = [
    e2e(
        "replay_lazy_kevents_per_s",
        "kev/s",
        Higher,
        0.15,
        Some(Stage::Replay),
    ),
    e2e(
        "replay_eager_kevents_per_s",
        "kev/s",
        Higher,
        0.15,
        Some(Stage::Replay),
    ),
    exact("lazy_msgs_per_kevent", "msg/kev", 0.07, Stage::Replay),
    exact("lazy_kbytes_per_kevent", "KiB/kev", 0.07, Stage::Replay),
    exact("eager_msgs_per_kevent", "msg/kev", 0.07, Stage::Replay),
    exact("eager_kbytes_per_kevent", "KiB/kev", 0.07, Stage::Replay),
    e2e("round_us", "us", Lower, 0.15, Some(Stage::Op)),
    exact("wire_bytes_per_round", "B", 0.01, Stage::Op),
    e2e(
        "storm_rounds_per_s",
        "1/s",
        Higher,
        0.15,
        Some(Stage::Storm),
    ),
    e2e("hist_check_s", "s", Lower, 0.15, Some(Stage::Hist)),
    e2e("peak_rss_mb", "MiB", Lower, 0.15, None),
    e2e("setup_s", "s", Lower, 0.25, None),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    stage: Option<Stage>,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        stage,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, bound: f64, stage: Stage) -> EndToEnd {
    EndToEnd {
        exact: true,
        ..e2e(name, unit, Lower, bound, Some(stage))
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The stage that measures it; `None` for the one every stage reports
    /// and the run reads off the primary stage (`trace.overhead_pct`).
    pub stage: Option<Stage>,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, stage: Stage) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        stage: Some(stage),
    }
}

/// `trace.overhead_pct` is reported by every stage; the run keeps the
/// primary stage's reading.
pub const TRACE_OVERHEAD: &str = "trace.overhead_pct";

pub const PER_LAYER: &[PerLayer] = &[
    // replay stage: the benchmark's own replay loop, timed per engine call
    layer("sim.replay_self_pct", "%", Lower, Stage::Replay),
    layer("core.acquire_us", "us", Lower, Stage::Replay),
    layer("core.release_us", "us", Lower, Stage::Replay),
    layer("core.read_us", "us", Lower, Stage::Replay),
    layer("core.write_us", "us", Lower, Stage::Replay),
    layer("core.barrier_us", "us", Lower, Stage::Replay),
    layer("core.read_p99_us", "us", Lower, Stage::Replay),
    layer("core.acquire_p99_us", "us", Lower, Stage::Replay),
    layer("core.store_kbytes", "KiB", Lower, Stage::Replay),
    layer("eager.acquire_us", "us", Lower, Stage::Replay),
    layer("eager.release_us", "us", Lower, Stage::Replay),
    layer("eager.read_us", "us", Lower, Stage::Replay),
    layer("eager.write_us", "us", Lower, Stage::Replay),
    layer("eager.barrier_us", "us", Lower, Stage::Replay),
    layer("eager.release_p99_us", "us", Lower, Stage::Replay),
    layer("simnet.miss_msgs", "msg/kev", Lower, Stage::Replay),
    layer("simnet.lock_msgs", "msg/kev", Lower, Stage::Replay),
    layer("simnet.unlock_msgs", "msg/kev", Lower, Stage::Replay),
    layer("simnet.barrier_msgs", "msg/kev", Lower, Stage::Replay),
    layer("simnet.miss_kbytes", "KiB/kev", Lower, Stage::Replay),
    layer("simnet.lock_kbytes", "KiB/kev", Lower, Stage::Replay),
    layer("simnet.unlock_kbytes", "KiB/kev", Lower, Stage::Replay),
    layer("simnet.barrier_kbytes", "KiB/kev", Lower, Stage::Replay),
    layer("alloc.per_kevent", "1/kev", Lower, Stage::Replay),
    layer("workloads.generate_ms", "ms", Lower, Stage::Replay),
    layer("trace.events", "count", Lower, Stage::Replay),
    layer("vclock.merge_ns", "ns", Lower, Stage::Replay),
    layer("vclock.covers_ns", "ns", Lower, Stage::Replay),
    layer("vclock.causal_cmp_ns", "ns", Lower, Stage::Replay),
    // op stage: the synchronous op path, one span per codec step and apply
    layer("sim.engine_round_us", "us", Lower, Stage::Op),
    layer("core.lu_round_us", "us", Lower, Stage::Op),
    layer("eager.ei_round_us", "us", Lower, Stage::Op),
    layer("eager.eu_round_us", "us", Lower, Stage::Op),
    layer("dsm.apply_acquire_us", "us", Lower, Stage::Op),
    layer("dsm.apply_read_us", "us", Lower, Stage::Op),
    layer("dsm.apply_write_us", "us", Lower, Stage::Op),
    layer("dsm.apply_release_us", "us", Lower, Stage::Op),
    layer("dsm.handle_self_us", "us", Lower, Stage::Op),
    layer("net.wire.encode_req_us", "us", Lower, Stage::Op),
    layer("net.wire.decode_req_us", "us", Lower, Stage::Op),
    layer("net.wire.encode_rep_us", "us", Lower, Stage::Op),
    layer("net.wire.decode_rep_us", "us", Lower, Stage::Op),
    layer("net.wire.req_bytes", "B", Lower, Stage::Op),
    layer("net.wire.rep_bytes", "B", Lower, Stage::Op),
    layer("net.wire.overhead_ratio", "ratio", Lower, Stage::Op),
    layer("alloc.per_round", "count", Lower, Stage::Op),
    layer("alloc.bytes_per_round", "B", Lower, Stage::Op),
    layer("net.wire.allocs_per_round", "count", Lower, Stage::Op),
    layer("dsm.apply_allocs_per_round", "count", Lower, Stage::Op),
    layer("simnet.msgs_per_round", "msg", Lower, Stage::Op),
    layer("simnet.kbytes_per_round", "KiB", Lower, Stage::Op),
    layer("pagemem.diff_create_us", "us", Lower, Stage::Op),
    layer("pagemem.diff_apply_us", "us", Lower, Stage::Op),
    layer("pagemem.squash_us", "us", Lower, Stage::Op),
    layer("pagemem.diff_wire_bytes", "B", Lower, Stage::Op),
    layer("op.traced_round_us", "us", Lower, Stage::Op),
    layer("op.barrier_share_us", "us", Lower, Stage::Op),
    layer("trace.bookkeeping_us", "us", Lower, Stage::Op),
    layer("op.budget_gap_pct", "%", Lower, Stage::Op),
    // op stage, threaded phase: noisy on this machine, never gated
    layer("dsm.node.channel_rpc_p50_us", "us", Lower, Stage::Op),
    layer("dsm.node.channel_rpc_p99_us", "us", Lower, Stage::Op),
    layer("dsm.node.tcp_rpc_p50_us", "us", Lower, Stage::Op),
    layer("dsm.node.tcp_rpc_p99_us", "us", Lower, Stage::Op),
    layer("net.channel.echo_p50_us", "us", Lower, Stage::Op),
    layer("net.tcp.echo_p50_us", "us", Lower, Stage::Op),
    layer("dsm.node.dispatch_us", "us", Lower, Stage::Op),
    layer("net.tcp.connect_ms", "ms", Lower, Stage::Op),
    // storm stage: the fetch hook and per-thread spans around ProcHandle
    layer("core.fetch_calls_per_round", "count", Lower, Stage::Storm),
    layer("core.miss_overlap", "ratio", Higher, Stage::Storm),
    layer("dsm.acquire_wait_p50_us", "us", Lower, Stage::Storm),
    layer("dsm.acquire_wait_p99_us", "us", Lower, Stage::Storm),
    layer("dsm.read_miss_p50_us", "us", Lower, Stage::Storm),
    layer("dsm.release_us", "us", Lower, Stage::Storm),
    layer("simnet.storm_msgs_per_round", "msg", Lower, Stage::Storm),
    layer("simnet.storm_kbytes_per_round", "KiB", Lower, Stage::Storm),
    // hist stage: the three public phases of the checker
    layer("hist.mixed_drf_ms", "ms", Lower, Stage::Hist),
    layer("hist.mixed_justified_ms", "ms", Lower, Stage::Hist),
    layer("hist.mixed_witness_ms", "ms", Lower, Stage::Hist),
    layer("hist.hot_drf_ms", "ms", Lower, Stage::Hist),
    layer("hist.hot_justified_ms", "ms", Lower, Stage::Hist),
    layer("hist.hot_witness_ms", "ms", Lower, Stage::Hist),
    layer("hist.witness_states", "count", Lower, Stage::Hist),
    layer("hist.events", "count", Lower, Stage::Hist),
    layer("hist.record_ns_per_event", "ns", Lower, Stage::Hist),
    PerLayer {
        name: TRACE_OVERHEAD,
        unit: "%",
        better: Lower,
        stage: None,
    },
];

/// How long one run measures, and the command the driver runs.
pub const RUN_SECONDS: u32 = 10;
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The text of `/BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    let quoted: Vec<String> = COMMAND.iter().map(|arg| format!("\"{arg}\"")).collect();
    writeln!(out, "  \"command\": [{}],", quoted.join(", ")).unwrap();
    writeln!(out, "  \"paths\": [\"benchmark\"],").unwrap();
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        )
        .unwrap();
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        )
        .unwrap();
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.name()
        )
        .unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(COMMAND.len() <= 32 && manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with --print-manifest"
        );
    }
}
