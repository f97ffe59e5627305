//! SWEC transient analysis: implicit integration of the linear
//! time-varying system (paper §3.2–3.4).
//!
//! Each step attempt performs exactly **one sparse LU solve**: the
//! nonlinear devices enter as positive step-wise equivalent conductances
//! predicted from the previous accepted point (optionally
//! Taylor-extrapolated, eq. 5), so no Newton iteration ever runs. The
//! step size comes from the adaptive controller of §3.4 and steps are
//! additionally rejected (and halved) when a node moves more than
//! `dv_max` in one step — the "too large a time step might lead to the
//! failure of implicit integration" guard of §3.2. The device models are
//! evaluated once per accepted point, not per attempt (see
//! [`crate::swec::conductance`]).
//!
//! The per-step solve is a values-only refactorization of one cached
//! analysis. On stiff transients whose conductances swing over many
//! decades, a cached pivot may decay; the embedded
//! [`nanosim_numeric::solve::SparseLuSolver`] then applies one
//! iterative-refinement step at solve time instead of re-pivoting, so
//! the analysis survives the stiff stretch — `EngineStats::refinement_steps`
//! counts those recoveries.

use crate::assemble::{
    branch_voltage, check_transient_window, mna_var_names, mosfet_bias, AssemblyWorkspace, GMIN,
    V_ABSTOL,
};
use crate::error::LastAccepted;
use crate::report::EngineStats;
use crate::sim::{AnalysisKind, Axis, Dataset};
use crate::swec::conductance::GeqTracker;
use crate::swec::dc::SwecDcSweep;
use crate::swec::timestep::{StepConstraint, TimeStepController, TimeStepOptions};
use crate::swec::{IntegrationMethod, StepControl, SwecOptions};
use crate::{Result, SimError};
use nanosim_circuit::element::ElementKind;
use nanosim_circuit::{Circuit, MnaSystem};
use nanosim_numeric::solve::LuStats;
use nanosim_numeric::sparse::OrderingChoice;
use nanosim_numeric::{BudgetMeter, FlopCounter};
use std::time::Instant;

/// Maximum consecutive step rejections before giving up.
const MAX_REJECTIONS: usize = 60;

/// Per-run reusable buffers of the transient stepper (see
/// [`SwecTransient::step`]); allocated once, rewritten every attempt.
#[derive(Debug, Default)]
struct StepBuffers {
    /// Right-hand side of the step's linear system.
    rhs: Vec<f64>,
    /// `b(t)` for the trapezoidal average.
    b_now: Vec<f64>,
    /// Stamped `G` values (no `C/h`) of the current attempt.
    g_vals: Vec<f64>,
    /// Solution of the step's linear system.
    x_new: Vec<f64>,
}

/// The SWEC transient engine.
///
/// # Example
/// ```
/// use nanosim_circuit::Circuit;
/// use nanosim_core::swec::{SwecOptions, SwecTransient};
/// use nanosim_devices::sources::SourceWaveform;
///
/// # fn main() -> Result<(), nanosim_core::SimError> {
/// // RC charging: v(t) = 1 - e^{-t/RC}, RC = 1 ns.
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let b = ckt.node("out");
/// ckt.add_voltage_source("V1", a, Circuit::GROUND,
///     SourceWaveform::pwl(vec![(0.0, 0.0), (1e-12, 1.0), (1.0, 1.0)])?)?;
/// ckt.add_resistor("R1", a, b, 1e3)?;
/// ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-12)?;
/// let result = SwecTransient::new(SwecOptions::default()).run(&ckt, 0.05e-9, 5e-9)?;
/// let out = result.curve("out").expect("node exists");
/// assert!((out.final_value() - 1.0).abs() < 0.02);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SwecTransient {
    opts: SwecOptions,
    meter: BudgetMeter,
}

impl SwecTransient {
    /// Creates the engine with the given options.
    pub fn new(opts: SwecOptions) -> Self {
        SwecTransient {
            opts,
            meter: BudgetMeter::unlimited(),
        }
    }

    /// Attaches a run budget. The meter's deadline clock is shared with
    /// every fork, so a session-created meter spans the whole request.
    #[must_use]
    pub fn with_meter(mut self, meter: BudgetMeter) -> Self {
        self.meter = meter;
        self
    }

    /// Runs a transient from `t = 0` to `tstop`. `tstep` bounds the maximum
    /// step (the `.tran` print step); the adaptive controller works below
    /// it.
    ///
    /// # Errors
    /// Fails on invalid parameters, singular matrices, step-size underflow
    /// or a failed initial operating point.
    pub fn run(&self, circuit: &Circuit, tstep: f64, tstop: f64) -> Result<Dataset> {
        let mna = MnaSystem::new(circuit)?;
        let mut ws = AssemblyWorkspace::new(&mna, false, true, OrderingChoice::default());
        let mut op_ws = AssemblyWorkspace::new(&mna, false, false, OrderingChoice::default());
        self.run_with(&mna, &mut ws, &mut op_ws, tstep, tstop)
    }

    /// [`SwecTransient::run`] against a caller-owned MNA system and
    /// assembly workspaces (the [`crate::sim::Simulator`] path: the
    /// workspaces' cached LU analyses survive across analyses). `ws` must
    /// have been built from `mna` with `with_c = true`, and `op_ws`, which
    /// solves the initial operating point, with `with_c = false`. Factor
    /// and refactor accounting is delta-based on both workspaces, so warm
    /// caches are not double counted.
    pub(crate) fn run_with(
        &self,
        mna: &MnaSystem,
        ws: &mut AssemblyWorkspace,
        op_ws: &mut AssemblyWorkspace,
        tstep: f64,
        tstop: f64,
    ) -> Result<Dataset> {
        check_transient_window(tstep, tstop)?;
        let t_start = Instant::now();
        let lu0 = ws.lu_stats();
        let dim = mna.dim();
        let mut stats = EngineStats::new();
        let mut flops = FlopCounter::new();

        // Initial state: capacitor ICs when given, DC operating point
        // otherwise.
        let has_ics = mna.circuit().elements().iter().any(|e| {
            matches!(
                e.kind(),
                ElementKind::Capacitor {
                    initial_voltage: Some(_),
                    ..
                }
            )
        });
        let mut run_meter = self.meter.fork();
        let mut x = if has_ics {
            mna.initial_state()
        } else {
            let dc = SwecDcSweep::new(self.opts.clone()).with_meter(run_meter.fork());
            let mut op_stats = EngineStats::new();
            let op_lu0 = op_ws.lu_stats();
            let op = dc.solve_op_ws(mna, op_ws, &mut op_stats)?;
            op_stats.absorb_lu(&op_lu0, &op_ws.lu_stats());
            stats.merge(&op_stats);
            op
        };

        // Device history trackers.
        let bindings = mna.nonlinear_bindings();
        let mosfets = mna.mosfet_bindings();
        let mut tracker = GeqTracker::new(
            bindings.len(),
            mosfets.len(),
            self.opts.taylor_extrapolation,
        );
        for (i, b) in bindings.iter().enumerate() {
            tracker.seed(i, branch_voltage(&x, b.var_plus, b.var_minus));
        }
        for (k, m) in mosfets.iter().enumerate() {
            let (vgs, vds) = mosfet_bias(m, &x);
            tracker.set_mosfet_bias(k, vgs, vds);
        }

        let node_caps = mna.node_capacitance();
        // The step never exceeds the print step.
        let mut controller = TimeStepController::new(
            TimeStepOptions {
                epsilon: self.opts.epsilon,
                h_min: self.opts.h_min,
                h_max: tstep,
                safety: 0.9,
                max_growth: 2.0,
            },
            tstep / 100.0,
        );

        // Records.
        let names = mna_var_names(mna);
        let mut times = vec![0.0];
        let mut columns: Vec<Vec<f64>> = (0..dim).map(|i| vec![x[i]]).collect();

        // Step buffers shared by every attempted step of the run (the
        // assembly workspace — pattern + cached refactorizable LU — comes
        // from the caller).
        let mut buf = StepBuffers {
            rhs: vec![0.0; dim],
            b_now: vec![0.0; dim],
            g_vals: Vec::new(),
            x_new: Vec::with_capacity(dim),
        };
        // G-only values (before C/h) of the previously *accepted* step
        // (trapezoidal's G_n).
        let mut g_prev_vals: Option<Vec<f64>> = None;
        // Row sums of |G| per node for the RC constraint (PaperConstraints
        // mode); refreshed after every accepted step.
        let mut g_rowsum = vec![0.0f64; mna.num_nodes()];
        // Previous accepted state and step for the eq. (10) error estimate.
        let mut x_prev: Option<Vec<f64>> = None;
        let mut h_prev = 0.0f64;
        // Local-error mode's own step reference (starts conservative).
        let mut h_ref = tstep / 100.0;

        // The initial point is already recorded; charge it before stepping.
        if let Err(stop) = run_meter.charge_bytes(8 * (1 + dim as u64)) {
            return self.partial_exit(
                SimError::budget_exceeded(stop, "swec transient initial point"),
                0.0,
                names,
                times,
                columns,
                stats,
                flops,
                &lu0,
                ws,
                t_start,
            );
        }

        let mut t = 0.0f64;
        let t_end = tstop * (1.0 - 1e-12);
        while t < t_end {
            // Deterministic budget checkpoint: once per candidate time
            // point, before any step attempt.
            if let Err(stop) = run_meter.checkpoint() {
                return self.partial_exit(
                    SimError::budget_exceeded(stop, format!("swec transient at t = {t:.3e} s")),
                    t,
                    names,
                    times,
                    columns,
                    stats,
                    flops,
                    &lu0,
                    ws,
                    t_start,
                );
            }
            let next_bp = self.next_source_breakpoint(mna, t);
            let mut h = match self.opts.step_control {
                StepControl::PaperConstraints => {
                    // Closed-form constraints (paper eq. 12).
                    let source_slew = mna.max_source_slew(t);
                    let nodes = (0..mna.num_nodes()).map(|j| StepConstraint::NodeRc {
                        capacitance: node_caps[j],
                        conductance: g_rowsum[j],
                    });
                    let devices = (0..bindings.len()).map(|i| StepConstraint::DeviceSlew {
                        v: tracker.voltage(i).abs().max(0.05),
                        alpha: tracker.slew(i).abs().max(source_slew * 0.1),
                    });
                    let mosfets = (0..mosfets.len()).map(|k| StepConstraint::DeviceSlew {
                        v: tracker.mosfet_bias(k).0.abs().max(0.05),
                        alpha: source_slew,
                    });
                    controller.suggest(nodes.chain(devices).chain(mosfets), t, tstop, next_bp)
                }
                StepControl::LocalError => {
                    let mut h = h_ref.min(tstep).min(tstop - t);
                    if let Some(bp) = next_bp {
                        if bp > t {
                            h = h.min(bp - t);
                        }
                    }
                    h.max(self.opts.h_min)
                }
            };

            // Attempt / reject loop.
            let mut accepted = false;
            let mut error_ratio = 0.0f64;
            for _ in 0..MAX_REJECTIONS {
                if h < self.opts.h_min {
                    let err = underflow_error(t, h, &x, &names, &stats);
                    return self.partial_exit(
                        err, t, names, times, columns, stats, flops, &lu0, ws, t_start,
                    );
                }
                if let Err(e) = self.step(
                    mna,
                    ws,
                    &mut tracker,
                    &x,
                    t,
                    h,
                    g_prev_vals.as_deref(),
                    &mut buf,
                    &mut stats,
                    &mut flops,
                ) {
                    match e {
                        // A numeric fault (e.g. an injected pivot collapse or
                        // NaN poison) may be transient: the step is fully
                        // re-stamped from clean values, so one retry either
                        // reproduces the failure deterministically or
                        // produces a solution bit-identical to an unfaulted
                        // step.
                        SimError::Numeric(_) => {
                            stats.rescue_rungs += 1;
                            self.step(
                                mna,
                                ws,
                                &mut tracker,
                                &x,
                                t,
                                h,
                                g_prev_vals.as_deref(),
                                &mut buf,
                                &mut stats,
                                &mut flops,
                            )?;
                            stats.rescues += 1;
                        }
                        other => return Err(other),
                    }
                }
                let solution = &buf.x_new;
                // Hard guard: no *nonlinear device* may see its branch
                // voltage move more than dv_max in one step — that is what
                // invalidates the step-wise Geq linearization. Source-forced
                // linear nodes may jump arbitrarily (their solution is
                // exact).
                let mut max_dv = 0.0f64;
                for b in bindings.iter() {
                    let v_old = branch_voltage(&x, b.var_plus, b.var_minus);
                    let v_new = branch_voltage(solution, b.var_plus, b.var_minus);
                    max_dv = max_dv.max((v_new - v_old).abs());
                }
                for (k, m) in mosfets.iter().enumerate() {
                    let (vgs, vds) = mosfet_bias(m, solution);
                    let (vgs_old, vds_old) = tracker.mosfet_bias(k);
                    max_dv = max_dv.max((vgs - vgs_old).abs()).max((vds - vds_old).abs());
                }
                if max_dv > self.opts.dv_max {
                    stats.rejected_steps += 1;
                    controller.reject();
                    h *= 0.5;
                    continue;
                }
                // Local-error test (paper eq. 10): compare the actual change
                // with the linear extrapolation of the previous step.
                if self.opts.step_control == StepControl::LocalError {
                    if let Some(xp) = &x_prev {
                        let scale = h / h_prev;
                        let mut r = 0.0f64;
                        for j in 0..mna.num_nodes() {
                            let actual = solution[j] - x[j];
                            let predicted = (x[j] - xp[j]) * scale;
                            let tol =
                                V_ABSTOL + self.opts.epsilon * actual.abs().max(x[j].abs() * 0.01);
                            r = r.max((actual - predicted).abs() / tol);
                        }
                        error_ratio = r;
                        if r > 1.0 && h > self.opts.h_min * 2.0 {
                            stats.rejected_steps += 1;
                            // Shrink toward (but never below) the floor; at
                            // the floor the step is accepted as-is.
                            h = (h * (0.9 / r.sqrt()).clamp(0.1, 0.5)).max(self.opts.h_min * 1.01);
                            continue;
                        }
                    }
                }
                accepted = true;
                break;
            }
            if !accepted {
                let err = underflow_error(t, h, &x, &names, &stats);
                return self.partial_exit(
                    err, t, names, times, columns, stats, flops, &lu0, ws, t_start,
                );
            }

            // Budget accounting per *accepted* step (rejected attempts are
            // bounded by MAX_REJECTIONS and carry no payload): the step cap
            // and the result-byte cap both move here, before the step is
            // committed, so a stopped run's prefix never contains the
            // tripping step.
            if let Err(stop) = run_meter
                .tick_step()
                .and_then(|()| run_meter.charge_bytes(8 * (1 + dim as u64)))
            {
                return self.partial_exit(
                    SimError::budget_exceeded(stop, format!("swec transient at t = {t:.3e} s")),
                    t,
                    names,
                    times,
                    columns,
                    stats,
                    flops,
                    &lu0,
                    ws,
                    t_start,
                );
            }

            // Commit device histories.
            for (i, b) in bindings.iter().enumerate() {
                tracker.commit(i, branch_voltage(&buf.x_new, b.var_plus, b.var_minus), h);
            }
            for (k, m) in mosfets.iter().enumerate() {
                let (vgs, vds) = mosfet_bias(m, &buf.x_new);
                tracker.set_mosfet_bias(k, vgs, vds);
            }
            // Refresh node conductance row sums from the stamped G.
            ws.row_abs_sums(&buf.g_vals, &mut g_rowsum);
            if self.opts.integration == IntegrationMethod::Trapezoidal {
                // Keep this step's G values as the next step's G_n,
                // recycling the buffer.
                match &mut g_prev_vals {
                    Some(prev) => std::mem::swap(prev, &mut buf.g_vals),
                    None => g_prev_vals = Some(buf.g_vals.clone()),
                }
            }

            // Next-step reference for the local-error mode.
            if self.opts.step_control == StepControl::LocalError {
                let grow = if error_ratio > 0.0 {
                    (0.9 / error_ratio.sqrt()).clamp(0.3, 2.0)
                } else {
                    2.0
                };
                h_ref = (h * grow).clamp(self.opts.h_min, tstep);
            }

            match &mut x_prev {
                Some(p) => p.copy_from_slice(&x),
                None => x_prev = Some(x.clone()),
            }
            h_prev = h;
            std::mem::swap(&mut x, &mut buf.x_new);
            t += h;
            controller.accept(h);
            stats.steps += 1;
            times.push(t);
            for (i, c) in columns.iter_mut().enumerate() {
                c.push(x[i]);
            }
        }
        Ok(finish(
            names, times, columns, stats, flops, &lu0, ws, t_start,
        ))
    }

    /// Terminal handling of a run stopped at `t` by `err` (a step-size
    /// underflow or a budget stop): with `allow_partial` set, the accepted
    /// prefix is returned marked truncated at `t`; otherwise `err` is
    /// raised.
    #[allow(clippy::too_many_arguments)]
    fn partial_exit(
        &self,
        err: SimError,
        t: f64,
        names: Vec<String>,
        times: Vec<f64>,
        columns: Vec<Vec<f64>>,
        stats: EngineStats,
        flops: FlopCounter,
        lu0: &LuStats,
        ws: &AssemblyWorkspace,
        t_start: Instant,
    ) -> Result<Dataset> {
        if !self.opts.allow_partial {
            return Err(err);
        }
        let ds = finish(names, times, columns, stats, flops, lu0, ws, t_start);
        Ok(ds.truncated(t))
    }

    /// Assembles and solves one candidate step in place: the workspace
    /// pattern is re-stamped (no matrix clone / CSR rebuild), the cached LU
    /// is refactored, and the results land in `buf` — `buf.x_new` holds the
    /// solution and `buf.g_vals` the stamped `G` values without the `C/h`
    /// part (for the step controller's row sums and trapezoidal history).
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        mna: &MnaSystem,
        ws: &mut AssemblyWorkspace,
        tracker: &mut GeqTracker,
        x: &[f64],
        t: f64,
        h: f64,
        g_prev: Option<&[f64]>,
        buf: &mut StepBuffers,
        stats: &mut EngineStats,
        flops: &mut FlopCounter,
    ) -> Result<()> {
        let dim = mna.dim();
        let StepBuffers {
            rhs,
            b_now,
            g_vals,
            x_new,
        } = buf;
        // G(t+h) with SWEC device stamps. The device models are evaluated
        // at the accepted point before its first attempt; every attempt
        // only extrapolates to its own `h`.
        stats.device_evals +=
            tracker.evaluate(mna.nonlinear_bindings(), mna.mosfet_bindings(), flops);
        ws.begin();
        for i in 0..tracker.len() {
            let geq = tracker.predict(i, h, flops) + GMIN;
            ws.stamp_nonlinear(i, geq);
        }
        for k in 0..mna.mosfet_bindings().len() {
            ws.stamp_mosfet_cond(k, tracker.mosfet_geq(k) + GMIN);
        }
        ws.snapshot_values(g_vals);

        // System matrix and right-hand side per the integration rule.
        match self.opts.integration {
            IntegrationMethod::BackwardEuler => {
                // (G + C/h) x_{n+1} = b(t+h) + (C/h) x_n
                ws.add_c_over_h(h, flops);
                mna.stamp_rhs(t + h, rhs);
                mna.c_matrix().matvec_acc(1.0 / h, x, rhs, flops)?;
            }
            IntegrationMethod::Trapezoidal => {
                // (C/h + G_{n+1}/2) x_{n+1}
                //     = (C/h) x_n - (G_n/2) x_n + (b_n + b_{n+1})/2
                ws.scale_values(0.5, flops);
                ws.add_c_over_h(h, flops);
                mna.stamp_rhs(t, b_now);
                mna.stamp_rhs(t + h, rhs);
                for i in 0..dim {
                    rhs[i] = 0.5 * (rhs[i] + b_now[i]);
                }
                flops.fma(dim as u64);
                mna.c_matrix().matvec_acc(1.0 / h, x, rhs, flops)?;
                let g_n: &[f64] = g_prev.unwrap_or(g_vals);
                ws.matvec_acc_with(g_n, -0.5, x, rhs, flops);
            }
        }
        ws.factor_solve(rhs, x_new, flops)?;
        stats.linear_solves += 1;
        Ok(())
    }

    /// Earliest breakpoint of any source strictly after `t`.
    fn next_source_breakpoint(&self, mna: &MnaSystem, t: f64) -> Option<f64> {
        let mut best: Option<f64> = None;
        for (i, _) in mna.circuit().elements().iter().enumerate() {
            if let Some(wf) = mna.source_waveform(i) {
                if let Some(bp) = wf.next_breakpoint(t) {
                    best = Some(match best {
                        Some(b) => b.min(bp),
                        None => bp,
                    });
                }
            }
        }
        best
    }
}

/// Closes a run's work accounting and packs its accepted time points
/// into the result dataset.
#[allow(clippy::too_many_arguments)]
fn finish(
    names: Vec<String>,
    times: Vec<f64>,
    columns: Vec<Vec<f64>>,
    mut stats: EngineStats,
    flops: FlopCounter,
    lu0: &LuStats,
    ws: &AssemblyWorkspace,
    t_start: Instant,
) -> Dataset {
    stats.flops += flops;
    stats.absorb_lu(lu0, &ws.lu_stats());
    stats.elapsed = t_start.elapsed();
    Dataset::new(
        AnalysisKind::Tran,
        "swec",
        Axis::Time(times),
        names,
        columns,
        stats,
    )
}

/// The [`SimError::StepSizeUnderflow`] of a run that could not step past
/// `t` with `h`, carrying the last accepted time and state.
fn underflow_error(t: f64, h: f64, x: &[f64], names: &[String], stats: &EngineStats) -> SimError {
    let state = names.iter().cloned().zip(x.iter().copied()).collect();
    SimError::step_underflow_with(
        t,
        h,
        LastAccepted {
            time: t,
            steps: stats.steps as usize,
            state,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;
    use nanosim_devices::rtd::Rtd;
    use nanosim_devices::sources::{PulseParams, SourceWaveform};
    use nanosim_devices::NonlinearTwoTerminal;
    use nanosim_numeric::approx_eq;

    fn engine() -> SwecTransient {
        SwecTransient::new(SwecOptions::default())
    }

    fn rc_step_circuit(r: f64, c: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("out");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pwl(vec![(0.0, 0.0), (1e-12, 1.0), (1.0, 1.0)]).unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", a, b, r).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, c).unwrap();
        ckt
    }

    #[test]
    fn rc_charging_matches_analytic() {
        // tau = 1 ns; run 5 tau.
        let result = engine()
            .run(&rc_step_circuit(1e3, 1e-12), 0.05e-9, 5e-9)
            .unwrap();
        let out = result.curve("out").unwrap();
        for frac in [0.5, 1.0, 2.0, 3.0] {
            let t = frac * 1e-9;
            let expected = 1.0 - (-frac as f64).exp();
            let got = out.value_at(t);
            assert!((got - expected).abs() < 0.02, "t={t}: {got} vs {expected}");
        }
        assert!(result.stats.steps > 10);
        assert!(result.stats.flops.total() > 0);
    }

    #[test]
    fn capacitor_initial_condition_respected() {
        let mut ckt = Circuit::new();
        let b = ckt.node("out");
        ckt.add_resistor("R1", b, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor_ic("C1", b, Circuit::GROUND, 1e-12, Some(2.0))
            .unwrap();
        let result = engine().run(&ckt, 0.05e-9, 5e-9).unwrap();
        assert!(approx_eq(result.column("out").unwrap()[0], 2.0, 1e-9));
        // Discharges toward zero with tau = 1 ns.
        let at_tau = result.curve("out").unwrap().value_at(1e-9);
        assert!((at_tau - 2.0 * (-1.0f64).exp()).abs() < 0.05, "{at_tau}");
    }

    #[test]
    fn pulse_edges_are_captured() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("out");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pulse(PulseParams {
                v1: 0.0,
                v2: 5.0,
                delay: 1e-9,
                rise: 0.1e-9,
                fall: 0.1e-9,
                width: 2e-9,
                period: 10e-9,
            })
            .unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", a, b, 100.0).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-13).unwrap();
        let result = engine().run(&ckt, 0.05e-9, 6e-9).unwrap();
        let out = result.curve("out").unwrap();
        // Before the pulse: 0; on the plateau: ~5; after the fall: ~0.
        assert!(out.value_at(0.5e-9).abs() < 1e-3);
        assert!((out.value_at(2.5e-9) - 5.0).abs() < 0.05);
        assert!(out.value_at(5.0e-9).abs() < 0.1);
        // A time point lands exactly on the pulse start.
        assert!(
            result
                .axis_values()
                .iter()
                .any(|&t| (t - 1e-9).abs() < 1e-15),
            "breakpoint not hit"
        );
    }

    #[test]
    fn rtd_divider_transient_is_stable_in_ndr() {
        // Drive an RTD through its NDR region with a ramp: SWEC must not
        // oscillate or fail (this is the paper's core robustness claim).
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("mid");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pwl(vec![(0.0, 0.0), (10e-9, 5.0), (20e-9, 5.0)]).unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", a, b, 50.0).unwrap();
        ckt.add_rtd("X1", b, Circuit::GROUND, Rtd::date2005())
            .unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-13).unwrap();
        let result = engine().run(&ckt, 0.1e-9, 20e-9).unwrap();
        let mid = result.curve("mid").unwrap();
        // The node follows the ramp monotonically-ish and ends near 5 V
        // minus the RTD drop across 50 ohms.
        let end = mid.final_value();
        assert!(end > 4.0 && end < 5.0, "end {end}");
        // No wild oscillation: successive samples never jump more than dv_max.
        let vals = mid.values();
        for w in vals.windows(2) {
            assert!((w[1] - w[0]).abs() <= 0.5 + 1e-9);
        }
    }

    #[test]
    fn paper_constraint_stepping_is_pinned() {
        // Paper eq. 11/12 step control on the RTD ramp: the node and
        // device-slew bounds fix every step, so the whole run is pinned
        // by one bitwise digest of its time axis and columns.
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("mid");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pwl(vec![(0.0, 0.0), (10e-9, 5.0), (20e-9, 5.0)]).unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", a, b, 50.0).unwrap();
        ckt.add_rtd("X1", b, Circuit::GROUND, Rtd::date2005())
            .unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
        let result = SwecTransient::new(SwecOptions {
            step_control: StepControl::PaperConstraints,
            ..SwecOptions::default()
        })
        .run(&ckt, 0.1e-9, 2e-9)
        .unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let columns = result.names().iter().map(|n| result.column(n).unwrap());
        for x in std::iter::once(result.axis_values())
            .chain(columns)
            .flatten()
        {
            for byte in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(
            (result.stats.steps, h),
            (10_641, 0xff4e_d3dc_a7c8_9112),
            "steps and digest {h:#018x}"
        );
    }

    /// An RTD that counts its model evaluations: calls of `Geq`, alone or
    /// with its slope.
    #[derive(Debug)]
    struct CountingRtd {
        rtd: Rtd,
        evals: std::sync::atomic::AtomicU64,
    }

    impl CountingRtd {
        fn count(&self) {
            self.evals
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl NonlinearTwoTerminal for CountingRtd {
        fn current(&self, v: f64, flops: &mut FlopCounter) -> f64 {
            self.rtd.current(v, flops)
        }

        fn differential_conductance(&self, v: f64, flops: &mut FlopCounter) -> f64 {
            self.rtd.differential_conductance(v, flops)
        }

        fn equivalent_conductance(&self, v: f64, flops: &mut FlopCounter) -> f64 {
            self.count();
            self.rtd.equivalent_conductance(v, flops)
        }

        fn equivalent_conductance_and_slope(&self, v: f64, flops: &mut FlopCounter) -> (f64, f64) {
            self.count();
            self.rtd.equivalent_conductance_and_slope(v, flops)
        }

        fn device_kind(&self) -> &'static str {
            "counting-rtd"
        }

        fn for_each_param(&self, f: &mut dyn FnMut(&'static str, f64)) {
            self.rtd.for_each_param(f);
        }
    }

    #[test]
    fn devices_are_evaluated_once_per_accepted_point() {
        // The RTD ramp from a capacitor initial condition (no operating
        // point): the controller rejects many attempts, yet each device
        // model runs once per accepted point that a step starts from.
        for taylor in [true, false] {
            let mut ckt = Circuit::new();
            let a = ckt.node("in");
            let b = ckt.node("mid");
            ckt.add_voltage_source(
                "V1",
                a,
                Circuit::GROUND,
                SourceWaveform::pwl(vec![(0.0, 0.0), (10e-9, 5.0), (20e-9, 5.0)]).unwrap(),
            )
            .unwrap();
            ckt.add_resistor("R1", a, b, 50.0).unwrap();
            let device = std::sync::Arc::new(CountingRtd {
                rtd: Rtd::date2005(),
                evals: Default::default(),
            });
            ckt.add_nonlinear("X1", b, Circuit::GROUND, device.clone())
                .unwrap();
            ckt.add_capacitor_ic("C1", b, Circuit::GROUND, 1e-13, Some(0.0))
                .unwrap();
            let result = SwecTransient::new(SwecOptions {
                taylor_extrapolation: taylor,
                ..SwecOptions::default()
            })
            .run(&ckt, 0.1e-9, 20e-9)
            .unwrap();
            let s = &result.stats;
            assert!(s.rejected_steps > 100, "taylor {taylor}: {s}");
            let evals = device.evals.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(evals, s.steps as u64, "taylor {taylor}: {s}");
            assert_eq!(s.device_evals, evals, "taylor {taylor}");
        }
    }

    #[test]
    fn trapezoidal_matches_backward_euler_on_rc() {
        let ckt = rc_step_circuit(1e3, 1e-12);
        let be = engine().run(&ckt, 0.05e-9, 5e-9).unwrap();
        let tr = SwecTransient::new(SwecOptions {
            integration: IntegrationMethod::Trapezoidal,
            ..SwecOptions::default()
        })
        .run(&ckt, 0.05e-9, 5e-9)
        .unwrap();
        let wb = be.curve("out").unwrap();
        let wt = tr.curve("out").unwrap();
        assert!(wb.rms_difference(&wt) < 0.02, "{}", wb.rms_difference(&wt));
    }

    #[test]
    fn taylor_off_still_works() {
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
        let with = engine().run(&ckt, 0.1e-9, 10e-9).unwrap();
        let without = SwecTransient::new(SwecOptions {
            taylor_extrapolation: false,
            ..SwecOptions::default()
        })
        .run(&ckt, 0.1e-9, 10e-9)
        .unwrap();
        let a1 = with.curve("mid").unwrap();
        let a2 = without.curve("mid").unwrap();
        assert!(a1.rms_difference(&a2) < 0.05);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let ckt = rc_step_circuit(1e3, 1e-12);
        let e = engine();
        assert!(e.run(&ckt, 0.0, 1e-9).is_err());
        assert!(e.run(&ckt, 1e-9, 0.0).is_err());
        assert!(e.run(&ckt, 2e-9, 1e-9).is_err());
    }

    #[test]
    fn branch_current_recorded() {
        let result = engine()
            .run(&rc_step_circuit(1e3, 1e-12), 0.05e-9, 5e-9)
            .unwrap();
        let i_v1: Waveform = result.curve("I(V1)").unwrap();
        // After charging, the source current decays to ~0; early it is
        // ~-1 mA (current flows out of the source's + terminal).
        assert!(i_v1.value_at(0.05e-9) < -0.5e-3);
        assert!(i_v1.final_value().abs() < 1e-4);
    }

    #[test]
    fn adaptive_step_grows_in_quiet_regions() {
        // After the transient settles the controller should take steps near
        // the print-step bound, so the run uses far fewer points than tstop/h_min.
        let result = engine()
            .run(&rc_step_circuit(1e3, 1e-12), 0.1e-9, 50e-9)
            .unwrap();
        assert!(
            result.stats.steps < 5000,
            "too many steps: {}",
            result.stats.steps
        );
    }
}
