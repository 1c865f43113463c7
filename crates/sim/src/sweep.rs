use std::fmt;

use lrc_pagemem::PageSize;
use lrc_trace::Trace;

use crate::{run_trace, ProtocolKind, RunReport, SimError, SimOptions};

/// Which quantity a rendered table reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Message counts (the paper's odd-numbered figures).
    Messages,
    /// Data volume in kilobytes (the even-numbered figures).
    DataKbytes,
}

impl Metric {
    /// Human-readable axis label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Metric::Messages => "messages",
            Metric::DataKbytes => "data (kbytes)",
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Parameters of a page-size × protocol sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Page sizes to sweep (defaults to the paper's 512–8192).
    pub page_sizes: Vec<usize>,
    /// Protocols to run (defaults to all four).
    pub kinds: Vec<ProtocolKind>,
    /// Per-run options.
    pub options: SimOptions,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            page_sizes: PageSize::PAPER_SWEEP.to_vec(),
            kinds: ProtocolKind::ALL.to_vec(),
            options: SimOptions::fast(),
        }
    }
}

/// All runs of one trace across the sweep grid.
#[derive(Clone, Debug)]
pub struct SweepResult {
    name: String,
    page_sizes: Vec<usize>,
    kinds: Vec<ProtocolKind>,
    cells: Vec<RunReport>,
}

/// Replays `trace` for every `(page size, protocol)` cell of the sweep —
/// the procedure behind each of the paper's Figures 5–14 pairs.
///
/// # Errors
///
/// Propagates the first [`SimError`] encountered.
///
/// # Example
///
/// ```
/// use lrc_sim::{sweep, SweepConfig};
/// use lrc_trace::{TraceBuilder, TraceMeta};
/// use lrc_vclock::ProcId;
///
/// let mut b = TraceBuilder::new(TraceMeta::new("tiny", 2, 0, 0, 1 << 14));
/// b.write(ProcId::new(0), 0, 8)?;
/// b.read(ProcId::new(1), 4096, 8)?;
/// let trace = b.finish()?;
///
/// let result = sweep(&trace, &SweepConfig::default())?;
/// println!("{}", result.render(lrc_sim::Metric::Messages));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn sweep(trace: &Trace, config: &SweepConfig) -> Result<SweepResult, SimError> {
    let mut cells = Vec::with_capacity(config.page_sizes.len() * config.kinds.len());
    for &page_bytes in &config.page_sizes {
        for &kind in &config.kinds {
            cells.push(run_trace(trace, kind, page_bytes, &config.options)?);
        }
    }
    Ok(SweepResult {
        name: trace.meta().name().to_string(),
        page_sizes: config.page_sizes.clone(),
        kinds: config.kinds.clone(),
        cells,
    })
}

impl SweepResult {
    /// The report of one cell.
    pub fn get(&self, kind: ProtocolKind, page_bytes: usize) -> Option<&RunReport> {
        self.cells
            .iter()
            .find(|r| r.kind == kind && r.page_bytes == page_bytes)
    }

    /// One protocol's series across page sizes, in sweep order — a figure
    /// line.
    pub fn series(&self, kind: ProtocolKind, metric: Metric) -> Vec<f64> {
        self.page_sizes
            .iter()
            .filter_map(|&ps| self.get(kind, ps))
            .map(|r| match metric {
                Metric::Messages => r.messages() as f64,
                Metric::DataKbytes => r.data_kbytes(),
            })
            .collect()
    }

    /// Renders the sweep as the paper would tabulate one figure: rows are
    /// page sizes, columns are protocols.
    pub fn render(&self, metric: Metric) -> String {
        let mut out = format!("{} — {}\n", self.name, metric);
        out.push_str(&format!("{:>10}", "page"));
        for kind in &self.kinds {
            out.push_str(&format!("{:>14}", kind.label()));
        }
        out.push('\n');
        for &ps in &self.page_sizes {
            out.push_str(&format!("{ps:>10}"));
            for &kind in &self.kinds {
                match (self.get(kind, ps), metric) {
                    (Some(r), Metric::Messages) => out.push_str(&format!("{:>14}", r.messages())),
                    (Some(r), Metric::DataKbytes) => {
                        out.push_str(&format!("{:>14.1}", r.data_kbytes()))
                    }
                    (None, _) => out.push_str(&format!("{:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_sync::LockId;
    use lrc_trace::{TraceBuilder, TraceMeta};
    use lrc_vclock::ProcId;

    fn trace() -> Trace {
        let mut b = TraceBuilder::new(TraceMeta::new("mini", 2, 1, 0, 1 << 14));
        for round in 0..4u16 {
            let p = ProcId::new(round % 2);
            b.acquire(p, LockId::new(0)).unwrap();
            b.read(p, 128, 8).unwrap();
            b.write(p, 128, 8).unwrap();
            b.release(p, LockId::new(0)).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn sweep_covers_the_grid() {
        let result = sweep(&trace(), &SweepConfig::default()).unwrap();
        for kind in ProtocolKind::ALL {
            for ps in PageSize::PAPER_SWEEP {
                assert!(result.get(kind, ps).is_some(), "{kind} @{ps}");
            }
        }
        assert!(result.get(ProtocolKind::LazyUpdate, 123).is_none());
    }

    #[test]
    fn series_matches_cells() {
        let result = sweep(&trace(), &SweepConfig::default()).unwrap();
        let series = result.series(ProtocolKind::LazyInvalidate, Metric::Messages);
        assert_eq!(series.len(), 5);
        assert_eq!(
            series[0],
            result
                .get(ProtocolKind::LazyInvalidate, 512)
                .unwrap()
                .messages() as f64
        );
    }

    #[test]
    fn render_is_tabular() {
        let result = sweep(&trace(), &SweepConfig::default()).unwrap();
        let text = result.render(Metric::Messages);
        assert!(text.starts_with("mini — messages"));
        assert!(text.contains("LI"));
        assert!(text.contains("EU"));
        assert_eq!(
            text.lines().count(),
            2 + 5,
            "header rows + one per page size"
        );
        let data = result.render(Metric::DataKbytes);
        assert!(data.contains("kbytes"));
    }

    #[test]
    fn custom_grid_is_respected() {
        let config = SweepConfig {
            page_sizes: vec![1024],
            kinds: vec![ProtocolKind::LazyInvalidate],
            options: SimOptions::checked(),
        };
        let result = sweep(&trace(), &config).unwrap();
        assert!(result.get(ProtocolKind::LazyInvalidate, 1024).is_some());
        assert!(result.get(ProtocolKind::LazyInvalidate, 512).is_none());
        assert!(result.get(ProtocolKind::LazyUpdate, 1024).is_none());
    }
}
