use std::fmt;

use lrc_simnet::MsgRecord;
use lrc_trace::Trace;
use lrc_vclock::ProcId;

use crate::runner::{params_for, replay};
use crate::{AnyEngine, ProtocolKind, RunReport, SimError, SimOptions};

/// A processor-to-processor traffic matrix.
///
/// Entry `(src, dst)` counts the messages and bytes `src` sent to `dst`.
/// The matrix makes the paper's intuition visible: under LRC, migratory
/// data produces a lock-transfer *chain* (each processor talks to the next
/// acquirer and the lock home), while eager update produces a dense matrix
/// (every release talks to every cacher).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommMatrix {
    n: usize,
    msgs: Vec<u64>,
    bytes: Vec<u64>,
}

impl CommMatrix {
    /// Builds a matrix from a message log.
    pub fn from_records(n_procs: usize, records: &[MsgRecord]) -> Self {
        let mut m = CommMatrix {
            n: n_procs,
            msgs: vec![0; n_procs * n_procs],
            bytes: vec![0; n_procs * n_procs],
        };
        for rec in records {
            let i = rec.src.index() * n_procs + rec.dst.index();
            m.msgs[i] += 1;
            m.bytes[i] += lrc_simnet::MSG_HEADER_BYTES + rec.payload;
        }
        m
    }

    /// Number of processors.
    pub fn n_procs(&self) -> usize {
        self.n
    }

    /// Messages sent from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn msgs(&self, src: ProcId, dst: ProcId) -> u64 {
        self.msgs[src.index() * self.n + dst.index()]
    }

    /// Bytes sent from `src` to `dst` (headers included).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn bytes(&self, src: ProcId, dst: ProcId) -> u64 {
        self.bytes[src.index() * self.n + dst.index()]
    }

    /// Total messages.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Number of ordered processor pairs that exchanged at least one
    /// message — the matrix's *density* (out of `n·(n-1)` possible).
    pub fn active_pairs(&self) -> usize {
        self.msgs.iter().filter(|&&m| m > 0).count()
    }

    /// The heaviest communicating pairs, by message count, descending.
    pub fn hotspots(&self, top: usize) -> Vec<(ProcId, ProcId, u64)> {
        let mut pairs: Vec<(ProcId, ProcId, u64)> = (0..self.n)
            .flat_map(|s| (0..self.n).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d)
            .map(|(s, d)| {
                (
                    ProcId::new(s as u16),
                    ProcId::new(d as u16),
                    self.msgs[s * self.n + d],
                )
            })
            .filter(|&(_, _, m)| m > 0)
            .collect();
        pairs.sort_by_key(|&(s, d, m)| (std::cmp::Reverse(m), s, d));
        pairs.truncate(top);
        pairs
    }

    /// Renders the message matrix as an aligned table.
    pub fn render(&self) -> String {
        let mut out = String::from("      ");
        for d in 0..self.n {
            out.push_str(&format!("{:>8}", format!("->p{d}")));
        }
        out.push('\n');
        for s in 0..self.n {
            out.push_str(&format!("p{s:<5}"));
            for d in 0..self.n {
                out.push_str(&format!("{:>8}", self.msgs[s * self.n + d]));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for CommMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Replays a trace with per-message logging and returns the run report
/// together with the processor-to-processor traffic matrix.
///
/// # Errors
///
/// Same as [`run_trace`](crate::run_trace).
///
/// # Example
///
/// ```
/// use lrc_sim::{run_traced, ProtocolKind, SimOptions};
/// use lrc_workloads::micro::migratory;
///
/// let trace = migratory(4, 10, 8);
/// let (report, matrix) =
///     run_traced(&trace, ProtocolKind::LazyInvalidate, 1024, &SimOptions::fast())?;
/// assert_eq!(matrix.total_msgs(), report.messages());
/// # Ok::<(), lrc_sim::SimError>(())
/// ```
pub fn run_traced(
    trace: &Trace,
    kind: ProtocolKind,
    page_bytes: usize,
    options: &SimOptions,
) -> Result<(RunReport, CommMatrix), SimError> {
    let mut engine = AnyEngine::build(kind, &params_for(trace, page_bytes, options))?;
    engine.core().enable_net_trace();
    let report = replay(trace, kind, page_bytes, options, &mut engine)?;
    let matrix = CommMatrix::from_records(trace.meta().n_procs(), &engine.net_records());
    Ok((report, matrix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_workloads::micro::{migratory, producer_consumer};

    #[test]
    fn matrix_totals_match_the_report() {
        let trace = migratory(4, 20, 8);
        for kind in ProtocolKind::ALL {
            let (report, matrix) = run_traced(&trace, kind, 512, &SimOptions::fast()).unwrap();
            assert_eq!(matrix.total_msgs(), report.messages(), "{kind}");
            assert_eq!(matrix.total_bytes(), report.data_bytes(), "{kind}");
            assert_eq!(matrix.n_procs(), 4);
        }
    }

    #[test]
    fn eager_update_is_denser_than_lazy() {
        let trace = producer_consumer(6, 30, 8);
        let (_, lazy) =
            run_traced(&trace, ProtocolKind::LazyUpdate, 512, &SimOptions::fast()).unwrap();
        let (_, eager) =
            run_traced(&trace, ProtocolKind::EagerUpdate, 512, &SimOptions::fast()).unwrap();
        assert!(
            eager.total_msgs() > lazy.total_msgs(),
            "EU floods more traffic overall"
        );
        assert!(eager.active_pairs() >= lazy.active_pairs());
    }

    #[test]
    fn hotspots_and_render() {
        let trace = migratory(3, 10, 8);
        let (_, matrix) = run_traced(
            &trace,
            ProtocolKind::LazyInvalidate,
            512,
            &SimOptions::fast(),
        )
        .unwrap();
        let hot = matrix.hotspots(3);
        assert!(!hot.is_empty());
        assert!(
            hot.windows(2).all(|w| w[0].2 >= w[1].2),
            "sorted descending"
        );
        let text = matrix.render();
        assert!(text.contains("->p0"));
        assert_eq!(text.lines().count(), 4, "header + one row per processor");
        // Diagonal is empty: processors never message themselves.
        for i in 0..3u16 {
            assert_eq!(matrix.msgs(ProcId::new(i), ProcId::new(i)), 0);
        }
    }
}
