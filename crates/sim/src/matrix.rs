use std::fmt;

use lrc_simnet::MsgRecord;
use lrc_trace::Trace;

use crate::engine_any::EitherEngine;
use crate::runner::{params_for, replay};
use crate::{ProtocolKind, RunReport, SimError, SimOptions};

/// A processor-to-processor traffic matrix.
///
/// Entry `(src, dst)` counts the messages `src` sent to `dst`.
/// The matrix makes the paper's intuition visible: under LRC, migratory
/// data produces a lock-transfer *chain* (each processor talks to the next
/// acquirer and the lock home), while eager update produces a dense matrix
/// (every release talks to every cacher).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommMatrix {
    n: usize,
    msgs: Vec<u64>,
}

impl CommMatrix {
    /// Builds a matrix from a message log.
    pub(crate) fn from_records(n_procs: usize, records: &[MsgRecord]) -> Self {
        let mut m = CommMatrix {
            n: n_procs,
            msgs: vec![0; n_procs * n_procs],
        };
        for rec in records {
            m.msgs[rec.src.index() * n_procs + rec.dst.index()] += 1;
        }
        m
    }

    /// Number of ordered processor pairs that exchanged at least one
    /// message — the matrix's *density* (out of `n·(n-1)` possible).
    pub fn active_pairs(&self) -> usize {
        self.msgs.iter().filter(|&&m| m > 0).count()
    }

    /// Renders the message matrix as an aligned table.
    pub(crate) fn render(&self) -> String {
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
/// assert!(report.messages() > 0 && matrix.active_pairs() > 0);
/// println!("{matrix}");
/// # Ok::<(), lrc_sim::SimError>(())
/// ```
pub fn run_traced(
    trace: &Trace,
    kind: ProtocolKind,
    page_bytes: usize,
    options: &SimOptions,
) -> Result<(RunReport, CommMatrix), SimError> {
    let mut engine = EitherEngine::new(kind, &params_for(trace, page_bytes, options))?;
    engine.core_mut().enable_net_trace();
    let report = replay(trace, kind, page_bytes, options, &mut engine)?;
    let matrix = CommMatrix::from_records(trace.meta().n_procs(), &engine.net_records());
    Ok((report, matrix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_workloads::micro::{migratory, producer_consumer};

    /// The message counts of the rendered table, row by row.
    fn rendered_counts(matrix: &CommMatrix) -> Vec<Vec<u64>> {
        matrix
            .render()
            .lines()
            .skip(1)
            .map(|row| {
                row.split_whitespace()
                    .skip(1)
                    .map(|n| n.parse().unwrap())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matrix_totals_match_the_report() {
        let trace = migratory(4, 20, 8);
        for kind in ProtocolKind::ALL {
            let (report, matrix) = run_traced(&trace, kind, 512, &SimOptions::fast()).unwrap();
            let counts = rendered_counts(&matrix);
            assert_eq!(counts.len(), 4, "{kind}");
            let total: u64 = counts.iter().flatten().sum();
            assert_eq!(total, report.messages(), "{kind}");
        }
    }

    #[test]
    fn eager_update_is_denser_than_lazy() {
        let trace = producer_consumer(6, 30, 8);
        let (lazy_report, lazy) =
            run_traced(&trace, ProtocolKind::LazyUpdate, 512, &SimOptions::fast()).unwrap();
        let (eager_report, eager) =
            run_traced(&trace, ProtocolKind::EagerUpdate, 512, &SimOptions::fast()).unwrap();
        assert!(
            eager_report.messages() > lazy_report.messages(),
            "EU floods more traffic overall"
        );
        assert!(eager.active_pairs() >= lazy.active_pairs());
    }

    #[test]
    fn render_shows_one_row_per_processor() {
        let trace = migratory(3, 10, 8);
        let (_, matrix) = run_traced(
            &trace,
            ProtocolKind::LazyInvalidate,
            512,
            &SimOptions::fast(),
        )
        .unwrap();
        let text = matrix.render();
        assert!(text.contains("->p0"));
        assert_eq!(text.lines().count(), 4, "header + one row per processor");
        // Diagonal is empty: processors never message themselves.
        let counts = rendered_counts(&matrix);
        for (i, row) in counts.iter().enumerate() {
            assert_eq!(row.len(), 3);
            assert_eq!(row[i], 0);
        }
    }
}
