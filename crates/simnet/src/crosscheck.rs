//! Modeled-vs-measured byte accounting.
//!
//! The fabric charges every message the *modeled* sizes of
//! [`crate::MSG_HEADER_BYTES`] and the `sizes` module; a real transport
//! (`lrc-net`) counts the bytes its codec actually produces. This module
//! is the bridge: a [`SizeCrosscheck`] collects `(label, modeled,
//! measured)` rows and reports the deviation, turning the simulator's
//! byte estimates into audited measurements.

use std::fmt;

/// One audited quantity: what the model charged vs what the codec
/// produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct CrosscheckRow {
    /// What was measured (message kind, payload family, …).
    pub label: String,
    /// Bytes the simulation model charges for it.
    pub modeled: u64,
    /// Bytes the real encoding occupies.
    pub measured: u64,
}

impl CrosscheckRow {
    /// Signed deviation of the measurement from the model.
    pub(crate) fn delta(&self) -> i64 {
        self.measured as i64 - self.modeled as i64
    }
}

/// A table of modeled-vs-measured byte counts.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SizeCrosscheck {
    rows: Vec<CrosscheckRow>,
}

impl SizeCrosscheck {
    /// Creates an empty cross-check.
    pub fn new() -> Self {
        SizeCrosscheck::default()
    }

    /// Records one audited quantity.
    pub fn record(&mut self, label: impl Into<String>, modeled: u64, measured: u64) {
        self.rows.push(CrosscheckRow {
            label: label.into(),
            modeled,
            measured,
        });
    }

    /// Total bytes the model charged.
    pub(crate) fn total_modeled(&self) -> u64 {
        self.rows.iter().map(|r| r.modeled).sum()
    }

    /// Total bytes measured on the wire.
    pub(crate) fn total_measured(&self) -> u64 {
        self.rows.iter().map(|r| r.measured).sum()
    }

    /// Largest relative deviation `|measured - modeled| / modeled` across
    /// rows with a non-zero model; `0.0` for an empty table.
    pub fn max_relative_error(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.modeled > 0)
            .map(|r| r.delta().unsigned_abs() as f64 / r.modeled as f64)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for SizeCrosscheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(5)
            .max(5);
        writeln!(
            f,
            "{:width$}  {:>10}  {:>10}  {:>7}",
            "what", "modeled", "measured", "delta"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:width$}  {:>10}  {:>10}  {:>+7}",
                r.label,
                r.modeled,
                r.measured,
                r.delta()
            )?;
        }
        write!(
            f,
            "{:width$}  {:>10}  {:>10}  {:>+7}",
            "total",
            self.total_modeled(),
            self.total_measured(),
            self.total_measured() as i64 - self.total_modeled() as i64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut cc = SizeCrosscheck::new();
        cc.record("clock", 16, 16);
        cc.record("notices", 20, 24);
        assert_eq!(cc.total_modeled(), 36);
        assert_eq!(cc.total_measured(), 40);
        let rows: Vec<String> = cc.to_string().lines().map(str::to_string).collect();
        assert_eq!(rows.len(), 4, "header, two rows, total");
        assert!(rows[2].starts_with("notices") && rows[2].ends_with("+4"));
        assert!((cc.max_relative_error() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_table_has_no_error() {
        let cc = SizeCrosscheck::new();
        assert_eq!(cc.max_relative_error(), 0.0);
        assert!(cc.to_string().contains("total"));
    }

    #[test]
    fn renders_aligned_table() {
        let mut cc = SizeCrosscheck::new();
        cc.record("diff", 100, 100);
        let s = cc.to_string();
        assert!(s.contains("modeled"));
        assert!(s.contains("diff"));
        assert!(s.lines().count() >= 3);
    }
}
