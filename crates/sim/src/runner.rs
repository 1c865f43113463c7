use std::error::Error;
use std::fmt;

use lrc_core::{ConfigError, EngineParams};
use lrc_pagemem::Memory;
use lrc_simnet::{Counter, NetStats, OpClass};
use lrc_trace::{Op, Trace};

use crate::{AnyEngine, ProtocolKind};

/// Options of a simulation run.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Compare every read against a sequentially consistent replay. The
    /// trace must be properly labeled for this to be meaningful.
    pub check_sc: bool,
    /// Disable write-notice piggybacking (lazy protocols; ablation A2).
    pub piggyback_notices: bool,
    /// Ship whole pages on warm misses (lazy protocols; ablation A1).
    pub full_page_misses: bool,
    /// Garbage-collect consistency information at barriers (lazy
    /// protocols; the TreadMarks extension the paper defers to future
    /// work). Bounds the history at the cost of extra barrier traffic.
    pub gc_at_barriers: bool,
}

impl SimOptions {
    /// Fast options: no oracle, paper-faithful protocol settings.
    pub fn fast() -> Self {
        SimOptions {
            check_sc: false,
            piggyback_notices: true,
            full_page_misses: false,
            gc_at_barriers: false,
        }
    }

    /// Checked options: oracle on, paper-faithful protocol settings.
    pub fn checked() -> Self {
        SimOptions {
            check_sc: true,
            ..SimOptions::fast()
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions::fast()
    }
}

/// Errors from a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// Invalid engine parameters.
    Config(ConfigError),
    /// A synchronization event was illegal for the engine (the trace was
    /// not validated, or the engine disagrees with the trace's legality).
    Protocol {
        /// Index of the offending event.
        at: usize,
        /// Engine error text.
        detail: String,
    },
    /// A read returned different bytes than sequential consistency — a
    /// protocol bug or an improperly labeled trace.
    ReadDivergence {
        /// Index of the offending event.
        at: usize,
        /// Protocol under test.
        kind: ProtocolKind,
        /// Accessed address.
        addr: u64,
        /// Bytes sequential consistency requires.
        expected: Vec<u8>,
        /// Bytes the protocol returned.
        got: Vec<u8>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "bad configuration: {e}"),
            SimError::Protocol { at, detail } => write!(f, "event {at}: {detail}"),
            SimError::ReadDivergence {
                at,
                kind,
                addr,
                expected,
                got,
            } => write!(
                f,
                "event {at}: {kind} read at {addr:#x} diverged from sequential \
                 consistency (expected {expected:?}, got {got:?})"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// The outcome of replaying one trace over one protocol at one page size.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Protocol that ran.
    pub kind: ProtocolKind,
    /// Page size used.
    pub page_bytes: usize,
    /// Full per-kind traffic statistics.
    pub net: NetStats,
    /// Events replayed.
    pub events: usize,
    /// Wire bytes of diff history retained at end of run (lazy engines
    /// only; `Some(0)` once garbage collection has run at the last
    /// barrier).
    pub history_bytes: Option<u64>,
}

impl RunReport {
    /// Total messages — the y-axis of the paper's odd-numbered figures.
    pub fn messages(&self) -> u64 {
        self.net.total().msgs
    }

    /// Total bytes on the wire.
    pub fn data_bytes(&self) -> u64 {
        self.net.total().bytes
    }

    /// Total kilobytes — the y-axis of the even-numbered figures.
    pub fn data_kbytes(&self) -> f64 {
        self.net.total().kbytes()
    }

    /// Traffic of one operation class (Table 1 column).
    pub fn class(&self, class: OpClass) -> Counter {
        self.net.class(class)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @{}B: {} msgs, {:.1} kbytes",
            self.kind,
            self.page_bytes,
            self.messages(),
            self.data_kbytes()
        )
    }
}

/// Deterministically synthesizes the bytes written by trace event
/// `event_index` — a splitmix64 stream, so the protocol replay and the
/// sequential-consistency oracle write identical data without the trace
/// having to carry payloads.
pub fn synth_write_bytes(event_index: usize, len: usize) -> Vec<u8> {
    let mut out = vec![0; len];
    fill_write_bytes(event_index, &mut out);
    out
}

/// [`synth_write_bytes`] into a buffer the caller owns: the replay loop
/// fills one buffer for every write of a trace.
fn fill_write_bytes(event_index: usize, out: &mut [u8]) {
    let mut state =
        (event_index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd1b5_4a32_d192_ed03;
    for chunk in out.chunks_mut(8) {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
    }
}

/// Replays `trace` over protocol `kind` with pages of `page_bytes`.
///
/// # Errors
///
/// * [`SimError::Config`] for invalid parameters;
/// * [`SimError::Protocol`] if the trace is illegal for the engine
///   (validate traces first);
/// * [`SimError::ReadDivergence`] if [`SimOptions::check_sc`] is set and a
///   read disagrees with the sequentially consistent replay.
pub fn run_trace(
    trace: &Trace,
    kind: ProtocolKind,
    page_bytes: usize,
    options: &SimOptions,
) -> Result<RunReport, SimError> {
    let mut engine = AnyEngine::build(kind, &params_for(trace, page_bytes, options))?;
    replay(trace, kind, page_bytes, options, &mut engine)
}

/// The engine parameters a replay of `trace` needs: the system shape from
/// the trace's metadata, the protocol settings from `options`.
pub(crate) fn params_for(trace: &Trace, page_bytes: usize, options: &SimOptions) -> EngineParams {
    let meta = trace.meta();
    EngineParams {
        n_procs: meta.n_procs(),
        mem_bytes: meta.mem_bytes(),
        page_bytes,
        n_locks: meta.n_locks().max(1),
        n_barriers: meta.n_barriers().max(1),
        piggyback_notices: options.piggyback_notices,
        full_page_misses: options.full_page_misses,
        gc_at_barriers: options.gc_at_barriers,
        ..EngineParams::default()
    }
}

/// Replays `trace` through a pre-built engine (shared by [`run_trace`] and
/// [`run_traced`](crate::run_traced)).
pub(crate) fn replay(
    trace: &Trace,
    kind: ProtocolKind,
    page_bytes: usize,
    options: &SimOptions,
    engine: &mut AnyEngine,
) -> Result<RunReport, SimError> {
    let mut oracle = options
        .check_sc
        .then(|| Memory::zeroed(engine.core().space()));

    let mut read_buf = Vec::new();
    let mut write_buf = Vec::new();
    for (at, event) in trace.events().iter().enumerate() {
        let p = event.proc;
        match event.op {
            Op::Read { addr, len } => {
                read_buf.clear();
                read_buf.resize(len as usize, 0);
                engine.read_into(p, addr, &mut read_buf);
                if let Some(oracle) = &oracle {
                    let expected = oracle.read_vec(addr, len as usize);
                    if expected != read_buf {
                        return Err(SimError::ReadDivergence {
                            at,
                            kind,
                            addr,
                            expected,
                            got: read_buf,
                        });
                    }
                }
            }
            Op::Write { addr, len } => {
                write_buf.resize(len as usize, 0);
                fill_write_bytes(at, &mut write_buf);
                engine.write(p, addr, &write_buf);
                if let Some(oracle) = &mut oracle {
                    oracle.write(addr, &write_buf);
                }
            }
            Op::Acquire(lock) => {
                engine.acquire(p, lock).map_err(|e| SimError::Protocol {
                    at,
                    detail: e.to_string(),
                })?;
            }
            Op::Release(lock) => {
                engine.release(p, lock).map_err(|e| SimError::Protocol {
                    at,
                    detail: e.to_string(),
                })?;
            }
            Op::Barrier(barrier) => {
                engine.barrier(p, barrier).map_err(|e| SimError::Protocol {
                    at,
                    detail: e.to_string(),
                })?;
            }
        }
    }
    let history_bytes = engine.as_lazy().map(|e| e.store().diff_bytes());
    Ok(RunReport {
        kind,
        page_bytes,
        net: engine.net_stats(),
        events: trace.len(),
        history_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_sync::{BarrierId, LockId};
    use lrc_trace::{TraceBuilder, TraceMeta};
    use lrc_vclock::ProcId;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn lock_trace() -> Trace {
        let mut b = TraceBuilder::new(TraceMeta::new("t", 4, 1, 1, 1 << 14));
        for round in 0..8u16 {
            let proc = p(round % 4);
            b.acquire(proc, LockId::new(0)).unwrap();
            b.read(proc, 0, 8).unwrap();
            b.write(proc, 0, 8).unwrap();
            b.release(proc, LockId::new(0)).unwrap();
        }
        b.barrier_all(BarrierId::new(0)).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn all_protocols_pass_the_oracle_on_a_labeled_trace() {
        let trace = lock_trace();
        for kind in ProtocolKind::ALL {
            let report = run_trace(&trace, kind, 512, &SimOptions::checked()).unwrap();
            assert!(report.messages() > 0, "{kind}");
            assert_eq!(report.events, trace.len());
        }
    }

    #[test]
    fn lazy_sends_fewer_messages_than_eager_on_migratory_data() {
        let trace = lock_trace();
        let li = run_trace(
            &trace,
            ProtocolKind::LazyInvalidate,
            512,
            &SimOptions::fast(),
        )
        .unwrap();
        let eu = run_trace(&trace, ProtocolKind::EagerUpdate, 512, &SimOptions::fast()).unwrap();
        let ei = run_trace(
            &trace,
            ProtocolKind::EagerInvalidate,
            512,
            &SimOptions::fast(),
        )
        .unwrap();
        assert!(li.messages() < eu.messages());
        assert!(li.messages() <= ei.messages());
        assert!(li.data_bytes() < ei.data_bytes());
    }

    #[test]
    fn oracle_flags_racy_traces() {
        // p0 writes page 1 (home p1) without synchronization; p1's read of
        // its own home page sees the initial zeros: divergence from SC.
        let mut b = TraceBuilder::new(TraceMeta::new("racy", 4, 0, 0, 1 << 14));
        b.write(p(0), 512, 8).unwrap(); // page 1 under 512-byte pages
        b.read(p(1), 512, 8).unwrap();
        let racy = b.finish().unwrap();
        assert!(
            lrc_trace::check_labeling(&racy).is_err(),
            "trace really is racy"
        );
        for kind in [ProtocolKind::LazyInvalidate, ProtocolKind::EagerInvalidate] {
            let err = run_trace(&racy, kind, 512, &SimOptions::checked()).unwrap_err();
            assert!(
                matches!(err, SimError::ReadDivergence { at: 1, .. }),
                "{kind}: {err}"
            );
        }
    }

    #[test]
    fn synth_bytes_are_deterministic_and_distinct() {
        assert_eq!(synth_write_bytes(7, 16), synth_write_bytes(7, 16));
        assert_ne!(synth_write_bytes(7, 16), synth_write_bytes(8, 16));
        assert_eq!(synth_write_bytes(3, 5).len(), 5);
        assert!(synth_write_bytes(0, 8).iter().any(|&b| b != 0));
    }

    #[test]
    fn illegal_event_reports_position() {
        // Build a trace that is legal for the builder but mismatched for a
        // smaller engine: a lock id beyond the engine's table cannot happen
        // (params derive from meta), so exercise double-acquire instead by
        // replaying a hand-assembled illegal trace.
        let meta = TraceMeta::new("bad", 2, 1, 0, 4096);
        let events = vec![
            lrc_trace::Event::new(p(0), Op::Acquire(LockId::new(0))),
            lrc_trace::Event::new(p(1), Op::Acquire(LockId::new(0))),
        ];
        // Bypass validation deliberately.
        let trace = Trace::from_parts(meta, events);
        assert!(trace.is_err(), "the validating constructor refuses it");
    }

    #[test]
    fn report_accessors() {
        let trace = lock_trace();
        let r = run_trace(
            &trace,
            ProtocolKind::LazyInvalidate,
            1024,
            &SimOptions::fast(),
        )
        .unwrap();
        assert_eq!(r.page_bytes, 1024);
        assert_eq!(r.data_bytes(), r.net.total().bytes);
        assert!(r.to_string().contains("LI @1024B"));
        let by_class: u64 = lrc_simnet::OpClass::ALL
            .iter()
            .map(|&c| r.class(c).msgs)
            .sum();
        assert_eq!(by_class, r.messages(), "classes partition the traffic");
    }
}
