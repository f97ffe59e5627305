//! The unified result model: every analysis returns a [`Dataset`].
//!
//! A dataset is a set of named signal columns over one independent axis
//! (time, a swept source value, or none for an operating point) plus the
//! [`EngineStats`] of the run that produced it. Every engine builds its
//! result as a dataset directly, so downstream code handles every analysis
//! kind with the same few calls (`curve()` / `peak()` / `at()`).

use crate::em::PeakSummary;
use crate::report::EngineStats;
use crate::waveform::Waveform;
use crate::{Result, SimError};
use nanosim_numeric::stats::{percentile, RunningStats};
use std::fmt;

/// What kind of analysis a [`Dataset`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisKind {
    /// DC operating point: one solution, no axis.
    Op,
    /// DC sweep over a source value.
    Dc,
    /// Transient over time.
    Tran,
    /// Stochastic (Euler–Maruyama) ensemble over time: mean columns plus
    /// `std(<name>)` envelopes and per-path maxima.
    Em,
}

impl AnalysisKind {
    /// Short tag for reports ("op", "dc", "tran", "em").
    pub fn as_str(&self) -> &'static str {
        match self {
            AnalysisKind::Op => "op",
            AnalysisKind::Dc => "dc",
            AnalysisKind::Tran => "tran",
            AnalysisKind::Em => "em",
        }
    }
}

impl fmt::Display for AnalysisKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The independent axis of a [`Dataset`].
#[derive(Debug, Clone, PartialEq)]
pub enum Axis {
    /// No axis: a single operating point.
    None,
    /// Simulation time in seconds.
    Time(Vec<f64>),
    /// Swept values of a named source.
    Sweep {
        /// Name of the swept V/I source.
        source: String,
        /// The sweep values.
        values: Vec<f64>,
    },
}

impl Axis {
    /// The axis sample values (empty for [`Axis::None`]).
    pub fn values(&self) -> &[f64] {
        match self {
            Axis::None => &[],
            Axis::Time(t) => t,
            Axis::Sweep { values, .. } => values,
        }
    }

    /// Column label for CSV export ("op", "time", "sweep(<source>)").
    pub fn label(&self) -> String {
        match self {
            Axis::None => "op".into(),
            Axis::Time(_) => "time".into(),
            Axis::Sweep { source, .. } => format!("sweep({source})"),
        }
    }
}

/// Uniform result of any [`crate::sim::Simulator`] analysis.
///
/// # Example
/// ```
/// use nanosim_core::sim::{Analysis, Simulator};
/// use nanosim_circuit::Circuit;
/// use nanosim_devices::sources::SourceWaveform;
///
/// # fn main() -> Result<(), nanosim_core::SimError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let b = ckt.node("b");
/// ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(2.0))?;
/// ckt.add_resistor("R1", a, b, 1e3)?;
/// ckt.add_resistor("R2", b, Circuit::GROUND, 1e3)?;
/// let mut sim = Simulator::new(ckt)?;
/// let ds = sim.run(Analysis::dc_sweep("V1", 0.0, 2.0, 0.5))?;
/// assert_eq!(ds.points(), 5);
/// assert!((ds.at("b", 2.0).unwrap() - 1.0).abs() < 1e-9);
/// let (v_at_peak, peak) = ds.peak("b").unwrap();
/// assert_eq!((v_at_peak, peak), (2.0, 1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    kind: AnalysisKind,
    engine: &'static str,
    axis: Axis,
    names: Vec<String>,
    columns: Vec<Vec<f64>>,
    /// Per-variable, per-path running maxima (EM ensembles only).
    maxima: Vec<Vec<f64>>,
    /// `Some(t)` when the producing transient stopped early at `t`
    /// (step-size underflow under `allow_partial`).
    truncated_at: Option<f64>,
    /// Work accounting for the run that produced this dataset.
    pub stats: EngineStats,
}

impl Dataset {
    /// Assembles a dataset. Column lengths must match the axis length
    /// ([`Axis::None`] implies exactly one sample per column).
    ///
    /// # Panics
    /// Panics on name/column count or column/axis length mismatches.
    pub fn new(
        kind: AnalysisKind,
        engine: &'static str,
        axis: Axis,
        names: Vec<String>,
        columns: Vec<Vec<f64>>,
        stats: EngineStats,
    ) -> Self {
        assert_eq!(names.len(), columns.len(), "one name per column");
        let expected = match &axis {
            Axis::None => 1,
            other => other.values().len(),
        };
        for c in &columns {
            assert_eq!(c.len(), expected, "column length mismatch");
        }
        Dataset {
            kind,
            engine,
            axis,
            names,
            columns,
            maxima: Vec::new(),
            truncated_at: None,
            stats,
        }
    }

    /// Marks this dataset as the accepted prefix of a run that stopped
    /// early (step-size underflow or an exhausted run budget under
    /// `SwecOptions::allow_partial`); `at` is the last accepted axis value.
    #[must_use]
    pub fn truncated(mut self, at: f64) -> Self {
        self.truncated_at = Some(at);
        self
    }

    /// Whether this dataset is the accepted prefix of a run that stopped
    /// early — a transient that died of step-size underflow or ran out of
    /// budget, or a sweep whose tail was budget-killed (only possible
    /// with `SwecOptions::allow_partial` set).
    pub fn is_truncated(&self) -> bool {
        self.truncated_at.is_some()
    }

    /// The axis value (time, or last accepted sweep value) at which a
    /// truncated run gave up.
    pub fn truncated_at(&self) -> Option<f64> {
        self.truncated_at
    }

    /// Wraps an operating-point solution.
    pub fn from_op(
        engine: &'static str,
        names: Vec<String>,
        values: Vec<f64>,
        stats: EngineStats,
    ) -> Self {
        let columns = values.into_iter().map(|v| vec![v]).collect();
        Dataset::new(AnalysisKind::Op, engine, Axis::None, names, columns, stats)
    }

    /// Attaches an EM ensemble's per-variable, per-path running maxima
    /// (`maxima[i]` belongs to column `i`), the data behind
    /// [`Dataset::peak_summary`] / [`Dataset::exceedance`].
    #[must_use]
    pub(crate) fn with_maxima(mut self, maxima: Vec<Vec<f64>>) -> Self {
        self.maxima = maxima;
        self
    }

    /// The analysis kind this dataset came from.
    pub fn kind(&self) -> AnalysisKind {
        self.kind
    }

    /// The engine that produced it: "swec", "mla", "pwl", "em", or
    /// "newton" for a standalone [`crate::nr::NrEngine`].
    pub fn engine(&self) -> &'static str {
        self.engine
    }

    /// Borrows this dataset after checking its kind — the structured
    /// replacement for matching on a result enum and panicking on the
    /// wrong arm.
    ///
    /// # Errors
    /// [`SimError::AnalysisMismatch`] when the kinds differ.
    pub fn require(&self, kind: AnalysisKind) -> Result<&Dataset> {
        if self.kind == kind {
            Ok(self)
        } else {
            Err(SimError::AnalysisMismatch {
                expected: kind.as_str(),
                got: self.kind.as_str(),
            })
        }
    }

    /// The independent axis.
    pub fn axis(&self) -> &Axis {
        &self.axis
    }

    /// Axis sample values (empty for an operating point).
    pub fn axis_values(&self) -> &[f64] {
        self.axis.values()
    }

    /// Signal names in column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of samples per signal (1 for an operating point).
    pub fn points(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Column index of a named signal.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Raw samples of a named signal.
    pub fn column(&self, name: &str) -> Option<&[f64]> {
        self.column_index(name).map(|i| self.columns[i].as_slice())
    }

    /// A named signal as an owned [`Waveform`] over the axis, in ascending
    /// axis order (a descending sweep is reversed). `None` for unknown
    /// names and for operating points (use [`Dataset::value`]).
    pub fn curve(&self, name: &str) -> Option<Waveform> {
        if matches!(self.axis, Axis::None) {
            return None;
        }
        self.column(name)
            .map(|c| Waveform::from_sweep(self.axis_values(), c))
    }

    /// The ensemble standard-deviation envelope of a node (EM datasets).
    pub fn std_curve(&self, name: &str) -> Option<Waveform> {
        self.curve(&format!("std({name})"))
    }

    /// Signal value at axis coordinate `x` (linear interpolation, clamped).
    /// For an operating point the single solved value is returned
    /// regardless of `x`.
    pub fn at(&self, name: &str, x: f64) -> Option<f64> {
        match self.axis {
            Axis::None => self.value(name),
            _ => Some(self.curve(name)?.value_at(x)),
        }
    }

    /// The scalar value of a signal: the operating-point solution, or the
    /// final sample of a sweep/transient.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.column(name).and_then(|c| c.last().copied())
    }

    /// Global maximum of a signal as `(axis value, signal value)`; for an
    /// operating point the axis value is reported as `0.0`.
    pub fn peak(&self, name: &str) -> Option<(f64, f64)> {
        match self.axis {
            Axis::None => self.value(name).map(|v| (0.0, v)),
            _ => self.curve(name)?.peak(),
        }
    }

    /// Running-maximum statistics of a node over an EM ensemble; `None`
    /// for non-ensemble datasets or unknown names.
    pub fn peak_summary(&self, name: &str) -> Option<PeakSummary> {
        let maxima = self.maxima.get(self.column_index(name)?)?;
        let stats: RunningStats = maxima.iter().copied().collect();
        Some(PeakSummary {
            mean_peak: stats.mean(),
            p95_peak: percentile(maxima, 0.95)?,
            worst_peak: stats.max(),
        })
    }

    /// Fraction of EM paths whose running maximum of `name` reached
    /// `level`; `None` for non-ensemble datasets or unknown names.
    pub fn exceedance(&self, name: &str, level: f64) -> Option<f64> {
        let maxima = self.maxima.get(self.column_index(name)?)?;
        let hits = maxima.iter().filter(|&&m| m >= level).count();
        Some(hits as f64 / maxima.len() as f64)
    }

    /// Number of ensemble paths behind an EM dataset (0 otherwise).
    pub fn paths(&self) -> usize {
        self.maxima.first().map_or(0, Vec::len)
    }

    /// Writes CSV (`<axis>,var1,var2,...`) to any writer.
    ///
    /// # Errors
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        write!(w, "{}", self.axis.label())?;
        for n in &self.names {
            write!(w, ",{n}")?;
        }
        writeln!(w)?;
        let axis_vals = self.axis_values();
        for k in 0..self.points() {
            let x = axis_vals.get(k).copied().unwrap_or(0.0);
            write!(w, "{x:.9e}")?;
            for c in &self.columns {
                write!(w, ",{:.9e}", c[k])?;
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// CSV as a string (convenience for examples and tests).
    pub fn to_csv(&self) -> String {
        let mut buf = Vec::new();
        self.write_csv(&mut buf).expect("vec write cannot fail");
        String::from_utf8(buf).expect("csv is utf8")
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} signals x {} points, {}",
            self.kind,
            self.engine,
            self.names.len(),
            self.points(),
            self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_dataset() -> Dataset {
        Dataset::new(
            AnalysisKind::Dc,
            "swec",
            Axis::Sweep {
                source: "V1".into(),
                values: vec![0.0, 0.5, 1.0],
            },
            vec!["mid".into(), "I(X1)".into()],
            vec![vec![0.0, 0.4, 0.9], vec![0.0, 2e-3, 1e-3]],
            EngineStats::new(),
        )
    }

    #[test]
    fn accessors_on_a_sweep() {
        let ds = sweep_dataset();
        assert_eq!(ds.kind(), AnalysisKind::Dc);
        assert_eq!(ds.points(), 3);
        assert_eq!(ds.axis_values(), &[0.0, 0.5, 1.0]);
        assert_eq!(ds.column("mid").unwrap()[1], 0.4);
        assert_eq!(ds.at("mid", 0.25).unwrap(), 0.2);
        assert_eq!(ds.value("mid").unwrap(), 0.9);
        assert_eq!(ds.peak("I(X1)").unwrap(), (0.5, 2e-3));
        assert!(ds.curve("nope").is_none());
        assert_eq!(ds.curve("I(X1)").unwrap().value_at(0.25), 1e-3);
        assert_eq!(ds.paths(), 0);
        assert!(ds.peak_summary("mid").is_none());
    }

    #[test]
    fn require_matches_and_mismatches() {
        let ds = sweep_dataset();
        assert!(ds.require(AnalysisKind::Dc).is_ok());
        let err = ds.require(AnalysisKind::Tran).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::AnalysisMismatch {
                    expected: "tran",
                    got: "dc"
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("expected tran"));
    }

    #[test]
    fn op_dataset_is_scalar() {
        let ds = Dataset::from_op(
            "swec",
            vec!["a".into(), "b".into()],
            vec![2.0, 1.5],
            EngineStats::new(),
        );
        assert_eq!(ds.kind(), AnalysisKind::Op);
        assert_eq!(ds.points(), 1);
        assert_eq!(ds.value("b").unwrap(), 1.5);
        assert_eq!(ds.at("b", 123.0).unwrap(), 1.5);
        assert_eq!(ds.peak("a").unwrap(), (0.0, 2.0));
        assert!(ds.curve("a").is_none(), "no axis to plot against");
        let csv = ds.to_csv();
        assert!(csv.starts_with("op,a,b"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn csv_header_carries_axis_label() {
        let ds = sweep_dataset();
        let csv = ds.to_csv();
        assert!(csv.starts_with("sweep(V1),mid,I(X1)"));
        assert_eq!(csv.lines().count(), 4);
        assert!(ds.to_string().contains("dc[swec]"));
    }

    #[test]
    fn transient_dataset_roundtrip() {
        let mut stats = EngineStats::new();
        stats.steps = 2;
        let ds = Dataset::new(
            AnalysisKind::Tran,
            "swec",
            Axis::Time(vec![0.0, 1e-9, 2e-9]),
            vec!["out".into(), "I(V1)".into()],
            vec![vec![0.0, 2.5, 5.0], vec![0.0, -1e-3, -2e-3]],
            stats,
        );
        assert_eq!(ds.points(), 3);
        assert_eq!(ds.column_index("out"), Some(0));
        assert_eq!(ds.column("I(V1)").unwrap()[2], -2e-3);
        assert_eq!(ds.curve("out").unwrap().final_value(), 5.0);
        assert!(ds.curve("nope").is_none());
        assert!(!ds.is_truncated());
        let csv = ds.to_csv();
        assert!(csv.starts_with("time,out,I(V1)"));
        assert_eq!(csv.lines().count(), 4);
        assert!(ds.to_string().contains("tran[swec]: 2 signals x 3 points"));
        let partial = ds.truncated(2e-9);
        assert_eq!(partial.truncated_at(), Some(2e-9));
    }

    #[test]
    #[should_panic(expected = "column length mismatch")]
    fn rejects_ragged_columns() {
        Dataset::new(
            AnalysisKind::Tran,
            "swec",
            Axis::Time(vec![0.0, 1.0]),
            vec!["a".into()],
            vec![vec![0.0]],
            EngineStats::new(),
        );
    }
}
