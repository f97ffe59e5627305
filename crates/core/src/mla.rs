//! MLA — the Modified Limiting Algorithm baseline (paper reference \[1\],
//! Bhattacharya & Mazumder, IEEE TCAD 2001).
//!
//! The paper compares SWEC against its own re-implementation of MLA ("due
//! to the unavailability of the MLA code, we present the comparison between
//! SWEC and the implementation of the MLA done by us", §5.1); this module
//! is that same re-implementation. MLA augments SPICE's Newton–Raphson
//! with the three mechanisms \[1\] describes for RTD circuits:
//!
//! 1. **device voltage limiting** — each Newton iteration may move an RTD's
//!    terminal voltage by at most a region-scale `ΔV`, preventing the
//!    iterates from jumping across the NDR region;
//! 2. **source/current stepping** — failed bias points are approached
//!    through a ramp of intermediate source values;
//! 3. **automatic time-step reduction** — transient steps whose Newton
//!    solve fails are halved and retried.
//!
//! MLA *converges* where plain NR oscillates — but pays for it with many
//! Newton iterations per point, each one a device evaluation plus an LU
//! solve. That cost difference is exactly the paper's **Table I**.

use crate::nr::{FailurePolicy, NrEngine, NrOptions, NrSweepResult};
use crate::sim::Dataset;
use crate::{Result, SimError};
use nanosim_circuit::{Circuit, MnaSystem};

/// Per-iteration clamp (V) on each nonlinear device's voltage change, the
/// MLA's device limiting. \[1\] scales this to the RTD's region widths;
/// 50 mV is a conservative setting that converges on every workload here.
pub(crate) const DEVICE_V_LIMIT: f64 = 0.05;

/// Options of the MLA baseline.
///
/// The device voltage limit is the fixed 50 mV of the crate's
/// `DEVICE_V_LIMIT`, and the automatic step reduction stops at the crate's
/// `H_MIN` (1e-18 s).
#[derive(Debug, Clone, PartialEq)]
pub struct MlaOptions {
    /// Newton iteration cap per solve (MLA typically needs tens).
    pub max_iterations: usize,
    /// Substeps of the current/source-stepping ramp.
    pub source_steps: usize,
    /// Solve every DC point from scratch through the ramp (the \[1\]
    /// procedure, used for Table I) instead of warm-starting from the
    /// previous sweep point.
    pub cold_start: bool,
}

impl Default for MlaOptions {
    fn default() -> Self {
        MlaOptions {
            max_iterations: 500,
            source_steps: 3,
            cold_start: true,
        }
    }
}

impl MlaOptions {
    /// Warm-started variant: continuation from the previous sweep point
    /// (an ablation showing how much of MLA's Table I cost is the
    /// per-point current-stepping ramp).
    pub fn warm_start() -> Self {
        MlaOptions {
            cold_start: false,
            source_steps: 20,
            ..MlaOptions::default()
        }
    }
}

/// The MLA engine — a configured [`NrEngine`] exposing the same analyses.
#[derive(Debug, Clone)]
pub struct MlaEngine {
    inner: NrEngine,
}

impl Default for MlaEngine {
    fn default() -> Self {
        MlaEngine::new(MlaOptions::default())
    }
}

impl MlaEngine {
    /// Creates the engine with the given options.
    pub fn new(opts: MlaOptions) -> Self {
        let mut inner = NrEngine::new(NrOptions {
            max_iterations: opts.max_iterations,
            device_v_limit: Some(DEVICE_V_LIMIT),
            source_steps: opts.source_steps,
            cold_start: opts.cold_start,
            failure_policy: FailurePolicy::ReduceStep,
            ..NrOptions::default()
        });
        inner.tag = "mla";
        MlaEngine { inner }
    }

    /// Attaches a run budget (forwarded to the underlying [`NrEngine`]).
    #[must_use]
    pub fn with_meter(mut self, meter: nanosim_numeric::BudgetMeter) -> Self {
        self.inner = self.inner.with_meter(meter);
        self
    }

    /// The underlying Newton configuration.
    pub fn newton_options(&self) -> &NrOptions {
        self.inner.options()
    }

    /// DC sweep (see [`NrEngine::run_dc_sweep`]).
    ///
    /// # Errors
    /// Propagates structural/parameter errors; per-point convergence is
    /// reported in the result, and an additional
    /// [`SimError::NonConvergence`] is raised if *any* point failed, since
    /// MLA is expected to converge everywhere.
    pub fn run_dc_sweep(
        &self,
        circuit: &Circuit,
        source: &str,
        start: f64,
        stop: f64,
        step: f64,
    ) -> Result<Dataset> {
        converged(
            self.inner
                .run_dc_sweep(circuit, source, start, stop, step)?,
        )
    }

    /// [`MlaEngine::run_dc_sweep`] on a built system (see
    /// [`NrEngine::run_dc_sweep_mna`]).
    pub(crate) fn run_dc_sweep_mna(
        &self,
        mna: &MnaSystem,
        source: &str,
        start: f64,
        step: f64,
        n_points: usize,
    ) -> Result<Dataset> {
        converged(
            self.inner
                .run_dc_sweep_mna(mna, source, start, step, n_points)?,
        )
    }

    /// Transient analysis with automatic step reduction
    /// (see [`NrEngine::run_transient`]). A step whose Newton solve fails
    /// is halved and retried, so every accepted point converged.
    ///
    /// # Errors
    /// Propagates invalid parameters, singular structure and step
    /// underflow, and returns [`SimError::NonConvergence`] when the `t = 0`
    /// operating point does not converge, even through source stepping.
    pub fn run_transient(&self, circuit: &Circuit, tstep: f64, tstop: f64) -> Result<Dataset> {
        Ok(self.inner.run_transient(circuit, tstep, tstop)?.result)
    }

    /// [`MlaEngine::run_transient`] on a built system (see
    /// [`NrEngine::run_transient_mna`]).
    pub(crate) fn run_transient_mna(
        &self,
        mna: &MnaSystem,
        tstep: f64,
        tstop: f64,
    ) -> Result<Dataset> {
        Ok(self.inner.run_transient_mna(mna, tstep, tstop)?.result)
    }
}

/// The sweep of an MLA run, or a [`SimError::NonConvergence`] pinpointing
/// its first failed point: MLA is expected to converge everywhere.
fn converged(r: NrSweepResult) -> Result<Dataset> {
    let Some(idx) = r.outcomes.iter().position(|o| !o.is_converged()) else {
        return Ok(r.sweep);
    };
    // Every outcome has its sweep value.
    let at = r.sweep.axis_values()[idx];
    let fx = crate::error::Forensics {
        point_index: Some(idx),
        sweep_value: Some(at),
        ..crate::error::Forensics::default()
    };
    Err(SimError::non_convergence_with(
        at,
        format!(
            "MLA failed on {} of {} points (first at point {})",
            r.failures(),
            r.outcomes.len(),
            idx
        ),
        fx,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanosim_devices::rtd::Rtd;
    use nanosim_devices::sources::SourceWaveform;
    use nanosim_devices::traits::NonlinearTwoTerminal;
    use nanosim_numeric::FlopCounter;

    fn rtd_divider(r: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("mid");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(0.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, r).unwrap();
        ckt.add_rtd("X1", b, Circuit::GROUND, Rtd::date2005())
            .unwrap();
        ckt
    }

    #[test]
    fn mla_sweeps_through_ndr_without_failures() {
        let engine = MlaEngine::new(MlaOptions::default());
        let sweep = engine
            .run_dc_sweep(&rtd_divider(50.0), "V1", 0.0, 5.0, 0.05)
            .unwrap();
        assert_eq!(sweep.points(), 101);
        // The captured curve satisfies KCL at a mid-NDR point.
        let v_mid = sweep.column("mid").unwrap();
        let idx = 80; // 4.0 V, past the peak
        let v = v_mid[idx];
        let mut f = FlopCounter::new();
        let i_rtd = Rtd::date2005().current(v, &mut f);
        let i_r = (4.0 - v) / 50.0;
        assert!((i_rtd - i_r).abs() < 1e-4, "KCL: {i_rtd} vs {i_r}");
    }

    #[test]
    fn mla_uses_many_more_iterations_than_points() {
        // This is the Table I story: MLA converges but iterates.
        let engine = MlaEngine::new(MlaOptions::default());
        let sweep = engine
            .run_dc_sweep(&rtd_divider(50.0), "V1", 0.0, 5.0, 0.05)
            .unwrap();
        let per_point = sweep.stats.iterations_per_step();
        assert!(
            per_point >= 2.0,
            "expected several Newton iterations per point, got {per_point}"
        );
        assert!(sweep.stats.linear_solves >= sweep.points() as u64 * 2);
    }

    #[test]
    fn mla_options_map_to_newton_config() {
        let engine = MlaEngine::new(MlaOptions {
            max_iterations: 99,
            source_steps: 7,
            cold_start: true,
        });
        let o = engine.newton_options();
        assert_eq!(o.device_v_limit, Some(DEVICE_V_LIMIT));
        assert_eq!(o.max_iterations, 99);
        assert_eq!(o.source_steps, 7);
        assert_eq!(o.failure_policy, FailurePolicy::ReduceStep);
    }

    #[test]
    fn mla_transient_on_rtd_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("mid");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pwl(vec![(0.0, 0.0), (5e-9, 3.0), (10e-9, 3.0)]).unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", a, b, 50.0).unwrap();
        ckt.add_rtd("X1", b, Circuit::GROUND, Rtd::date2005())
            .unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-13).unwrap();
        let engine = MlaEngine::new(MlaOptions::default());
        let r = engine.run_transient(&ckt, 0.05e-9, 10e-9).unwrap();
        let mid = r.curve("mid").unwrap();
        let end = mid.final_value();
        assert!(end > 2.0 && end < 3.0, "end {end}");
    }
}
