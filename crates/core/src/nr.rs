//! Newton–Raphson baseline engine (the SPICE-like simulator of §3.1).
//!
//! Devices are linearized with their **differential** conductance
//! `gd = dI/dV` and a companion current source — the classic SPICE companion
//! model. On monotone devices this converges quadratically; on
//! non-monotonic nano-devices `gd` is negative inside the NDR region and
//! the iteration oscillates between two operating points or converges to a
//! wrong solution, exactly as the paper's Figure 2/Figure 8(c) show. The
//! engine therefore *reports* oscillation and false convergence instead of
//! hiding them, and implements the standard SPICE rescue strategies (Newton
//! damping, gmin stepping, source stepping) plus the per-device voltage
//! limiting that the MLA baseline builds on.
//!
//! Newton iterations share the same cached-LU policy as the SWEC
//! engines: each iteration refactors one analysis, degraded pivots are
//! absorbed by a solve-time refinement step when possible, and the
//! factor/refactor/solve flop split (plus any refinement steps) lands in
//! [`EngineStats`].

use crate::assemble::{
    branch_voltage, charge_sweep, check_transient_window, mna_var_names, mosfet_bias,
    override_source_rhs, require_sweepable_source, sweep_columns, sweep_points, AssemblyWorkspace,
    GMIN, H_MIN, V_ABSTOL,
};
use crate::error::Forensics;
use crate::report::EngineStats;
use crate::rescue::{self, RescueTrace, RungError, Shunt};
use crate::sim::{AnalysisKind, Axis, Dataset};
use crate::{Result, SimError};
use nanosim_circuit::{Circuit, MnaSystem};
use nanosim_numeric::solve::LuStats;
use nanosim_numeric::sparse::OrderingChoice;
use nanosim_numeric::{BudgetMeter, FlopCounter, NumericError};
use std::time::Instant;

/// Iterate-history window for cycle detection: [`detect_vector_cycle`]
/// looks back at most `2 * 4` iterates, so nine suffice.
const HISTORY_WINDOW: usize = 9;

/// Relative node-voltage tolerance of the Newton convergence test.
const V_RELTOL: f64 = 1e-3;

/// Outcome of one Newton solve.
#[derive(Debug, Clone, PartialEq)]
pub enum NrOutcome {
    /// Converged within tolerances.
    Converged {
        /// Newton iterations used.
        iterations: usize,
    },
    /// The iterates entered a cycle (the Figure 2 NDR failure mode).
    Oscillating {
        /// Detected cycle period (2..4).
        period: usize,
    },
    /// Iteration budget exhausted without convergence.
    MaxIterations,
    /// The Jacobian became singular (negative conductance canceling a
    /// load).
    Singular,
}

impl NrOutcome {
    /// Whether the solve produced a trustworthy solution.
    pub fn is_converged(&self) -> bool {
        matches!(self, NrOutcome::Converged { .. })
    }
}

/// Result of [`NrEngine::solve_op_rescued`]: the operating point, the
/// ladder trace (empty when the plain solve converged directly), and the
/// work accounting.
#[derive(Debug, Clone)]
pub struct NrRescuedOp {
    /// The converged operating-point solution.
    pub x: Vec<f64>,
    /// Rungs attempted; empty means no rescue was needed.
    pub trace: RescueTrace,
    /// Iterations, solves, flops, and the `rescues` / `rescue_rungs`
    /// counters.
    pub stats: EngineStats,
}

/// What a transient step does when Newton fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FailurePolicy {
    /// Keep the last iterate and move on — reproduces SPICE3's wrong
    /// waveform in Figure 8(c).
    #[default]
    AcceptLast,
    /// Halve the time step and retry (the MLA "automatic time-step
    /// reduction"); abort on underflow.
    ReduceStep,
}

/// Newton–Raphson engine options.
///
/// The default is the SPICE3-like configuration of Figure 8(c): plain
/// full-step Newton, no device limiting, no source stepping, failed
/// transient steps accepted as they are — the configuration that fails on
/// NDR circuits. The tolerances and floors every run shares are fixed: the
/// crate's `V_ABSTOL` (1 µV) plus `V_RELTOL` (1e-3) of the node voltage,
/// `GMIN` (1e-12 S) across every device, and `H_MIN` (1e-18 s) as the
/// step floor of [`FailurePolicy::ReduceStep`].
#[derive(Debug, Clone, PartialEq)]
pub struct NrOptions {
    /// Maximum Newton iterations per solve.
    pub max_iterations: usize,
    /// Step damping in `(0, 1]` (1 = full Newton, SPICE3 default).
    pub damping: f64,
    /// Per-iteration clamp on each nonlinear device's voltage change (V);
    /// `None` disables limiting. The MLA baseline sets this.
    pub device_v_limit: Option<f64>,
    /// DC source-stepping substeps used when a point fails directly
    /// (1 = disabled).
    pub source_steps: usize,
    /// When `true`, every DC sweep point is solved from a zero initial
    /// guess through a full source-stepping ramp — how \[1\]'s current
    /// stepping obtains each bias independently. When `false`, points are
    /// warm-started from the previous solution (cheaper, SPICE `.dc`
    /// style).
    pub cold_start: bool,
    /// Transient failure policy.
    pub failure_policy: FailurePolicy,
    /// Convergence-rescue ladder for [`NrEngine::solve_op_rescued`].
    /// **Disabled by default**: the NR engine's job is to *reproduce* the
    /// paper's Newton failures (Figure 2 / 8(c)), so nothing rescues a
    /// plain solve unless explicitly asked to.
    pub rescue: crate::rescue::RescueOptions,
}

impl Default for NrOptions {
    fn default() -> Self {
        NrOptions {
            max_iterations: 100,
            damping: 1.0,
            device_v_limit: None,
            source_steps: 1,
            cold_start: false,
            failure_policy: FailurePolicy::default(),
            rescue: crate::rescue::RescueOptions::disabled(),
        }
    }
}

/// A DC sweep result annotated with the per-point Newton outcome.
#[derive(Debug, Clone)]
pub struct NrSweepResult {
    /// The numeric sweep data (whatever Newton produced, converged or not).
    pub sweep: Dataset,
    /// Outcome at each sweep point.
    pub outcomes: Vec<NrOutcome>,
}

impl NrSweepResult {
    /// Number of points that failed to converge.
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.is_converged()).count()
    }
}

/// A transient result annotated with Newton failures.
#[derive(Debug, Clone)]
pub struct NrTransientResult {
    /// The waveform data.
    pub result: Dataset,
    /// `(time, outcome)` for every step where Newton did not converge.
    pub failures: Vec<(f64, NrOutcome)>,
}

/// The Newton–Raphson engine.
#[derive(Debug, Clone)]
pub struct NrEngine {
    opts: NrOptions,
    meter: BudgetMeter,
    /// Engine tag of the datasets this engine returns ("newton", or "mla"
    /// when it runs inside [`crate::mla::MlaEngine`]).
    pub(crate) tag: &'static str,
}

impl Default for NrEngine {
    fn default() -> Self {
        NrEngine::new(NrOptions::default())
    }
}

impl NrEngine {
    /// Creates the engine with the given options.
    pub fn new(opts: NrOptions) -> Self {
        NrEngine {
            opts,
            meter: BudgetMeter::unlimited(),
            tag: "newton",
        }
    }

    /// Attaches a run budget / cancellation meter. Every analysis forks it,
    /// so the deadline clock is shared with the caller while iteration and
    /// step accounting stays local to each solve (see the determinism
    /// contract in `nanosim_numeric::budget`). Without this the engine runs
    /// on an inert unlimited meter.
    #[must_use]
    pub fn with_meter(mut self, meter: BudgetMeter) -> Self {
        self.meter = meter;
        self
    }

    /// The engine options.
    pub fn options(&self) -> &NrOptions {
        &self.opts
    }

    /// DC sweep of a named source; never errors on non-convergence — the
    /// outcome of every point is reported instead (so failures can be
    /// plotted, as the paper does for SPICE3).
    ///
    /// # Errors
    /// Fails only on invalid parameters or structurally singular circuits.
    pub fn run_dc_sweep(
        &self,
        circuit: &Circuit,
        source: &str,
        start: f64,
        stop: f64,
        step: f64,
    ) -> Result<NrSweepResult> {
        let n_points = sweep_points(start, stop, step)?;
        let mna = MnaSystem::new(circuit)?;
        require_sweepable_source(&mna, source)?;
        self.run_dc_sweep_mna(&mna, source, start, step, n_points)
    }

    /// [`NrEngine::run_dc_sweep`] on a built system: `n_points` points of
    /// `source` from `start` in increments of `step`, as checked by
    /// [`crate::assemble::checked_sweep_points`].
    pub(crate) fn run_dc_sweep_mna(
        &self,
        mna: &MnaSystem,
        source: &str,
        start: f64,
        step: f64,
        n_points: usize,
    ) -> Result<NrSweepResult> {
        let t0 = Instant::now();
        // The result shape is known up front: charge it all before any work.
        let mut run_meter = self.meter.fork();
        charge_sweep(&mut run_meter, mna, n_points)?;
        let mut stats = EngineStats::new();
        let mut ws = AssemblyWorkspace::new(mna, true, true, OrderingChoice::default());
        let mut sweep = Vec::with_capacity(n_points);
        let mut solutions = Vec::with_capacity(n_points);
        let mut outcomes = Vec::with_capacity(n_points);

        let mut x = vec![0.0; mna.dim()];
        for k in 0..n_points {
            run_meter
                .checkpoint()
                .map_err(|stop| SimError::budget_exceeded(stop, format!("dc sweep point {k}")))?;
            // Iteration accounting restarts at every sweep point: the cap is
            // per operating-point solve, a pure function of the point index.
            let mut pm = run_meter.fork();
            let value = start + step * k as f64;
            let (mut x_new, mut outcome) = if self.opts.cold_start {
                // Current/source stepping from zero at every point, as the
                // MLA description in [1] prescribes.
                let ramp = self.opts.source_steps.max(1);
                let mut xs = vec![0.0; mna.dim()];
                let mut oc = NrOutcome::MaxIterations;
                for s in 1..=ramp {
                    let v = value * s as f64 / ramp as f64;
                    let (xi, oi) = self.solve_dc_ws(
                        mna,
                        &mut ws,
                        Some((source, v)),
                        &xs,
                        None,
                        None,
                        &mut stats,
                        &mut pm,
                    )?;
                    xs = xi;
                    oc = oi;
                    if !oc.is_converged() {
                        break;
                    }
                }
                (xs, oc)
            } else {
                self.solve_dc_ws(
                    mna,
                    &mut ws,
                    Some((source, value)),
                    &x,
                    None,
                    None,
                    &mut stats,
                    &mut pm,
                )?
            };
            if !outcome.is_converged() && self.opts.source_steps > 1 {
                // Source stepping: approach this point gradually from the
                // previous one.
                let prev = sweep.last().copied().unwrap_or(0.0);
                let mut xs = x.clone();
                let mut last_outcome = outcome.clone();
                let mut ok = true;
                for s in 1..=self.opts.source_steps {
                    let frac = s as f64 / self.opts.source_steps as f64;
                    let v = prev + (value - prev) * frac;
                    let (xi, oi) = self.solve_dc_ws(
                        mna,
                        &mut ws,
                        Some((source, v)),
                        &xs,
                        None,
                        None,
                        &mut stats,
                        &mut pm,
                    )?;
                    xs = xi;
                    ok = oi.is_converged();
                    last_outcome = oi;
                    if !ok {
                        break;
                    }
                }
                if ok {
                    x_new = xs;
                    outcome = last_outcome;
                }
            }
            x = x_new;
            sweep.push(value);
            outcomes.push(outcome);
            solutions.push(x.clone());
            stats.steps += 1;
        }
        let (names, columns) = sweep_columns(mna, &solutions, &mut stats.flops);
        stats.absorb_lu(&LuStats::default(), &ws.lu_stats());
        stats.elapsed = t0.elapsed();
        let axis = Axis::Sweep {
            source: source.to_string(),
            values: sweep,
        };
        Ok(NrSweepResult {
            sweep: Dataset::new(AnalysisKind::Dc, self.tag, axis, names, columns, stats),
            outcomes,
        })
    }

    /// Transient analysis with fixed print step `tstep` and the configured
    /// failure policy.
    ///
    /// # Errors
    /// Fails on invalid parameters, singular structure, or, with
    /// [`FailurePolicy::ReduceStep`], step underflow and a `t = 0`
    /// operating point that source stepping does not converge
    /// ([`SimError::NonConvergence`]).
    pub fn run_transient(
        &self,
        circuit: &Circuit,
        tstep: f64,
        tstop: f64,
    ) -> Result<NrTransientResult> {
        check_transient_window(tstep, tstop)?;
        self.run_transient_mna(&MnaSystem::new(circuit)?, tstep, tstop)
    }

    /// [`NrEngine::run_transient`] on a built system, for a window checked
    /// by [`crate::assemble::check_transient_window`].
    pub(crate) fn run_transient_mna(
        &self,
        mna: &MnaSystem,
        tstep: f64,
        tstop: f64,
    ) -> Result<NrTransientResult> {
        let t0 = Instant::now();
        let dim = mna.dim();
        let mut stats = EngineStats::new();
        let mut ws = AssemblyWorkspace::new(mna, true, true, OrderingChoice::default());

        let mut run_meter = self.meter.fork();

        let mut failures = Vec::new();

        // DC operating point at t = 0 (with source stepping as fallback).
        let mut op_meter = run_meter.fork();
        let (mut x, op_outcome) = self.solve_dc_ws(
            mna,
            &mut ws,
            None,
            &vec![0.0; dim],
            None,
            None,
            &mut stats,
            &mut op_meter,
        )?;
        if !op_outcome.is_converged() {
            let mut xs = vec![0.0; dim];
            let mut outcome = op_outcome;
            let steps = self.opts.source_steps.max(10);
            for s in 1..=steps {
                let scale = s as f64 / steps as f64;
                let mut sm = run_meter.fork();
                (xs, outcome) = self.solve_dc_ws(
                    mna,
                    &mut ws,
                    None,
                    &xs,
                    Some(scale),
                    None,
                    &mut stats,
                    &mut sm,
                )?;
            }
            // Only SPICE3's accept-last policy may start from a failed
            // operating point (Figure 8(c)).
            if self.opts.failure_policy == FailurePolicy::ReduceStep && !outcome.is_converged() {
                return Err(SimError::non_convergence(
                    0.0,
                    format!(
                        "{} operating point: source-stepping ramp ended {outcome:?}",
                        self.tag
                    ),
                ));
            }
            if !outcome.is_converged() {
                failures.push((0.0, outcome));
            }
            x = xs;
        }

        let names = mna_var_names(mna);
        let mut times = vec![0.0];
        let mut columns: Vec<Vec<f64>> = (0..dim).map(|i| vec![x[i]]).collect();

        let mut t = 0.0;
        let t_end = tstop * (1.0 - 1e-12);
        while t < t_end {
            let mut h = tstep.min(tstop - t);
            loop {
                let mut sm = run_meter.fork();
                let (x_new, outcome) =
                    self.solve_transient_step(mna, &mut ws, &x, t, h, &mut stats, &mut sm)?;
                if outcome.is_converged() {
                    x = x_new;
                    break;
                }
                match self.opts.failure_policy {
                    FailurePolicy::AcceptLast => {
                        failures.push((t + h, outcome));
                        x = x_new;
                        break;
                    }
                    FailurePolicy::ReduceStep => {
                        stats.rejected_steps += 1;
                        h *= 0.5;
                        if h < H_MIN {
                            return Err(SimError::step_underflow(t, h));
                        }
                    }
                }
            }
            t += h;
            stats.steps += 1;
            run_meter
                .tick_step()
                .and_then(|()| run_meter.charge_bytes(8 * (1 + dim as u64)))
                .map_err(|stop| {
                    SimError::budget_exceeded(stop, format!("newton transient at t = {t:.3e} s"))
                })?;
            times.push(t);
            for (i, c) in columns.iter_mut().enumerate() {
                c.push(x[i]);
            }
        }
        stats.absorb_lu(&LuStats::default(), &ws.lu_stats());
        stats.elapsed = t0.elapsed();
        let axis = Axis::Time(times);
        Ok(NrTransientResult {
            result: Dataset::new(AnalysisKind::Tran, self.tag, axis, names, columns, stats),
            failures,
        })
    }

    /// DC operating point solved through the convergence-rescue ladder.
    ///
    /// A plain Newton solve runs first; when it fails (oscillation,
    /// iteration exhaustion, or a singular Jacobian) and
    /// [`NrOptions::rescue`] is enabled, the engine escalates
    /// deterministically: damped retry → gmin stepping → source stepping →
    /// pseudo-transient continuation. Every rung attempt lands in the
    /// returned [`RescueTrace`] and the `rescues` / `rescue_rungs` stats
    /// counters. With rescue disabled (the default) this behaves exactly
    /// like a plain operating-point solve.
    ///
    /// # Errors
    /// Structural and parameter errors propagate unchanged. A failed plain
    /// solve with rescue disabled, or an exhausted ladder, returns
    /// [`SimError::NonConvergence`] with the trace attached as forensics.
    pub fn solve_op_rescued(&self, circuit: &Circuit) -> Result<NrRescuedOp> {
        let t0 = Instant::now();
        let mna = MnaSystem::new(circuit)?;
        let dim = mna.dim();
        let mut ws = AssemblyWorkspace::new(&mna, true, true, OrderingChoice::default());
        let mut stats = EngineStats::new();
        let meter = self.meter.fork();
        let zeros = vec![0.0; dim];
        let (x0, outcome) = self.solve_dc_ws(
            &mna,
            &mut ws,
            None,
            &zeros,
            None,
            None,
            &mut stats,
            &mut meter.fork(),
        )?;
        let (x, trace) = if outcome.is_converged() {
            (x0, RescueTrace::new())
        } else if !self.opts.rescue.enabled {
            return Err(SimError::non_convergence(
                0.0,
                format!("newton operating point: {outcome:?} (rescue disabled)"),
            ));
        } else {
            // Every rung runs damped; a non-converged outcome fails the
            // rung, an error aborts the rescue.
            let damped = NrEngine::new(NrOptions {
                damping: self.opts.rescue.damping,
                ..self.opts.clone()
            });
            let (x, trace) = rescue::climb(
                &self.opts.rescue,
                dim,
                &meter,
                &mut stats,
                |_, x0, shunt, source_scale, stats| {
                    let (x, outcome) = damped
                        .solve_dc_ws(
                            &mna,
                            &mut ws,
                            None,
                            x0,
                            source_scale,
                            shunt,
                            stats,
                            &mut meter.fork(),
                        )
                        .map_err(RungError::Abort)?;
                    if outcome.is_converged() {
                        Ok(x)
                    } else {
                        Err(RungError::Failed(format!("{outcome:?}")))
                    }
                },
            )?;
            let Some(x) = x else {
                return Err(SimError::non_convergence_with(
                    0.0,
                    format!("newton operating point: {outcome:?}; rescue ladder exhausted"),
                    Forensics {
                        rescue_trace: trace,
                        ..Forensics::default()
                    },
                ));
            };
            (x, trace)
        };
        stats.absorb_lu(&LuStats::default(), &ws.lu_stats());
        stats.elapsed = t0.elapsed();
        Ok(NrRescuedOp { x, trace, stats })
    }

    /// One Newton DC solve against a caller-owned [`AssemblyWorkspace`]
    /// (pattern, factorization and buffers reused across calls).
    /// `override_src` replaces a named source value; `source_scale` scales
    /// *all* sources (source stepping); `shunt` adds a conductance from
    /// every node to an anchor state (the rescue ladder's gmin and
    /// pseudo-transient rungs).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_dc_ws(
        &self,
        mna: &MnaSystem,
        ws: &mut AssemblyWorkspace,
        override_src: Option<(&str, f64)>,
        x0: &[f64],
        source_scale: Option<f64>,
        shunt: Shunt<'_>,
        stats: &mut EngineStats,
        meter: &mut BudgetMeter,
    ) -> Result<(Vec<f64>, NrOutcome)> {
        self.newton_loop(mna, ws, x0, shunt, stats, meter, |mna, rhs, flops| {
            mna.stamp_rhs(0.0, rhs);
            if let Some((name, value)) = override_src {
                override_source_rhs(mna, name, value, 0.0, rhs);
            }
            if let Some(scale) = source_scale {
                for r in rhs.iter_mut() {
                    *r *= scale;
                }
                flops.mul(rhs.len() as u64);
            }
            None
        })
    }

    /// One backward-Euler transient step solved with Newton.
    #[allow(clippy::too_many_arguments)]
    fn solve_transient_step(
        &self,
        mna: &MnaSystem,
        ws: &mut AssemblyWorkspace,
        x_prev: &[f64],
        t: f64,
        h: f64,
        stats: &mut EngineStats,
        meter: &mut BudgetMeter,
    ) -> Result<(Vec<f64>, NrOutcome)> {
        self.newton_loop(mna, ws, x_prev, None, stats, meter, |mna, rhs, flops| {
            mna.stamp_rhs(t + h, rhs);
            // rhs += (C/h) x_prev; the matrix side adds C/h stamps.
            mna.c_matrix()
                .matvec_acc(1.0 / h, x_prev, rhs, flops)
                .expect("shape checked at construction");
            Some(h)
        })
    }

    /// The shared Newton iteration. `prepare` fills the source right-hand
    /// side and returns `Some(h)` when `C/h` companion stamps are needed
    /// (transient) or `None` for DC.
    ///
    /// The loop assembles into `ws`'s prebuilt pattern (scatter-updates, no
    /// matrix clone), reuses the cached LU via refactorization, and cycles a
    /// fixed set of buffers — zero heap allocations per iteration once the
    /// history window is warm.
    ///
    /// Every iteration charges `meter` before assembling, so a budgeted or
    /// cancelled run stops at a deterministic iteration boundary with
    /// [`SimError::BudgetExceeded`].
    #[allow(clippy::too_many_arguments)]
    fn newton_loop<F>(
        &self,
        mna: &MnaSystem,
        ws: &mut AssemblyWorkspace,
        x0: &[f64],
        shunt: Option<(f64, &[f64])>,
        stats: &mut EngineStats,
        meter: &mut BudgetMeter,
        prepare: F,
    ) -> Result<(Vec<f64>, NrOutcome)>
    where
        F: Fn(&MnaSystem, &mut [f64], &mut FlopCounter) -> Option<f64>,
    {
        let dim = mna.dim();
        let mut flops = FlopCounter::new();
        let mut x = x0.to_vec();
        let mut x_new: Vec<f64> = Vec::with_capacity(dim);
        let mut rhs = vec![0.0; dim];
        // Linearization voltages per nonlinear device (for limiting).
        let mut v_lin: Vec<f64> = mna
            .nonlinear_bindings()
            .iter()
            .map(|b| branch_voltage(&x, b.var_plus, b.var_minus))
            .collect();
        let mut v_next = vec![0.0; v_lin.len()];
        // Trailing iterate window for cycle detection; old buffers are
        // recycled once the window is full.
        let mut history: Vec<Vec<f64>> = vec![x.clone()];

        for iter in 0..self.opts.max_iterations {
            if let Err(stop) = meter.tick_iteration() {
                stats.flops += flops;
                return Err(SimError::budget_exceeded(
                    stop,
                    format!("newton iteration {iter}"),
                ));
            }
            ws.begin();
            let h = prepare(mna, &mut rhs, &mut flops);
            if let Some(h) = h {
                ws.add_c_over_h(h, &mut flops);
            }
            // Companion models at the linearization voltages.
            for (i, b) in mna.nonlinear_bindings().iter().enumerate() {
                let v = v_lin[i];
                let id = b.device.current(v, &mut flops);
                let gd = b.device.differential_conductance(v, &mut flops) + GMIN;
                stats.device_evals += 2;
                let ieq = id - gd * v;
                flops.fma(1);
                ws.stamp_nonlinear(i, gd);
                if let Some(p) = b.var_plus {
                    rhs[p] -= ieq;
                }
                if let Some(m) = b.var_minus {
                    rhs[m] += ieq;
                }
                flops.add(2);
            }
            for (k, m) in mna.mosfet_bindings().iter().enumerate() {
                let (vgs, vds) = mosfet_bias(m, &x);
                let id = m.model.ids(vgs, vds, &mut flops);
                let gds = m.model.gds(vgs, vds, &mut flops) + GMIN;
                let gm = m.model.gm(vgs, vds, &mut flops);
                stats.device_evals += 3;
                // i_d = ieq + gds*vds + gm*vgs with ieq from the expansion.
                let ieq = id - gds * vds - gm * vgs;
                flops.fma(2);
                ws.stamp_mosfet_cond(k, gds);
                // Transconductance stamps (drain current driven by vgs).
                ws.stamp_mosfet_gm(k, gm);
                if let Some(d) = m.var_drain {
                    rhs[d] -= ieq;
                }
                if let Some(s) = m.var_source {
                    rhs[s] += ieq;
                }
                flops.add(2);
            }

            if let Some((g, anchor)) = shunt {
                ws.stamp_diag_shunt(mna.num_nodes(), g);
                let n = mna.num_nodes().min(anchor.len());
                for (r, a) in rhs.iter_mut().zip(anchor.iter()).take(n) {
                    *r += g * a;
                }
                flops.fma(n as u64);
            }

            match ws.factor_solve(&rhs, &mut x_new, &mut flops) {
                Ok(()) => {}
                Err(NumericError::SingularMatrix { .. }) => {
                    stats.flops += flops;
                    return Ok((x, NrOutcome::Singular));
                }
                Err(e) => return Err(e.into()),
            }
            stats.linear_solves += 1;
            stats.iterations += 1;

            // Damped update (in place over the raw Newton solution).
            let lambda = self.opts.damping;
            for i in 0..dim {
                x_new[i] = x[i] + lambda * (x_new[i] - x[i]);
            }
            flops.fma(dim as u64);

            // Device voltage limiting (the MLA augmentation).
            for (i, b) in mna.nonlinear_bindings().iter().enumerate() {
                v_next[i] = branch_voltage(&x_new, b.var_plus, b.var_minus);
            }
            if let Some(limit) = self.opts.device_v_limit {
                for (i, v) in v_next.iter_mut().enumerate() {
                    let dv = *v - v_lin[i];
                    if dv.abs() > limit {
                        *v = v_lin[i] + limit * dv.signum();
                    }
                }
            }

            // Convergence: node voltages between successive iterates.
            let mut converged = true;
            for i in 0..mna.num_nodes() {
                let tol = V_ABSTOL + V_RELTOL * x_new[i].abs();
                if (x_new[i] - x[i]).abs() > tol {
                    converged = false;
                    break;
                }
            }
            // Device linearization voltages must also have settled.
            if converged {
                for (i, &v) in v_next.iter().enumerate() {
                    let tol = V_ABSTOL + V_RELTOL * v.abs();
                    if (v - v_lin[i]).abs() > tol {
                        converged = false;
                        break;
                    }
                }
            }
            std::mem::swap(&mut x, &mut x_new);
            std::mem::swap(&mut v_lin, &mut v_next);
            if history.len() == HISTORY_WINDOW {
                // Recycle the oldest buffer instead of allocating.
                let mut oldest = history.remove(0);
                oldest.copy_from_slice(&x);
                history.push(oldest);
            } else {
                history.push(x.clone());
            }
            if converged {
                stats.flops += flops;
                return Ok((
                    x,
                    NrOutcome::Converged {
                        iterations: iter + 1,
                    },
                ));
            }
            if let Some(period) = detect_vector_cycle(&history, V_ABSTOL) {
                stats.flops += flops;
                return Ok((x, NrOutcome::Oscillating { period }));
            }
        }
        stats.flops += flops;
        Ok((x, NrOutcome::MaxIterations))
    }
}

/// Detects a period-2..4 cycle at the tail of the iterate history (the
/// vector analogue of the scalar detection in `nanosim-numeric`).
fn detect_vector_cycle(history: &[Vec<f64>], abstol: f64) -> Option<usize> {
    let n = history.len();
    for period in 2..=4usize {
        if n < 2 * period + 1 {
            continue;
        }
        let same = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b.iter())
                .all(|(x, y)| (x - y).abs() <= abstol * 10.0 + 1e-3 * x.abs().max(y.abs()))
        };
        let mut is_cycle = true;
        for i in 0..period {
            if !same(&history[n - 1 - i], &history[n - 1 - i - period]) {
                is_cycle = false;
                break;
            }
        }
        if is_cycle {
            // Require genuine movement within the cycle.
            let a = &history[n - 1];
            let b = &history[n - 2];
            let moved = a
                .iter()
                .zip(b.iter())
                .any(|(x, y)| (x - y).abs() > abstol * 100.0 + 1e-2 * x.abs().max(y.abs()));
            if moved {
                return Some(period);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanosim_devices::diode::Diode;
    use nanosim_devices::mosfet::Mosfet;
    use nanosim_devices::rtd::Rtd;
    use nanosim_devices::sources::SourceWaveform;
    use nanosim_devices::traits::NonlinearTwoTerminal;
    use nanosim_numeric::approx_eq;

    fn engine() -> NrEngine {
        NrEngine::new(NrOptions::default())
    }

    /// One Newton DC solve from a zero start on a fresh workspace.
    fn solve_dc(
        engine: &NrEngine,
        mna: &MnaSystem,
        override_src: Option<(&str, f64)>,
        stats: &mut EngineStats,
    ) -> (Vec<f64>, NrOutcome) {
        let mut ws = AssemblyWorkspace::new(mna, true, true, OrderingChoice::default());
        let x0 = vec![0.0; mna.dim()];
        let mut meter = BudgetMeter::unlimited();
        engine
            .solve_dc_ws(
                mna,
                &mut ws,
                override_src,
                &x0,
                None,
                None,
                stats,
                &mut meter,
            )
            .unwrap()
    }

    fn diode_divider() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("mid");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(5.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_diode("D1", b, Circuit::GROUND, Diode::silicon())
            .unwrap();
        ckt
    }

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
    fn diode_dc_converges() {
        let mna = MnaSystem::new(&diode_divider()).unwrap();
        let mut stats = EngineStats::new();
        let (x, outcome) = solve_dc(&engine(), &mna, None, &mut stats);
        match outcome {
            NrOutcome::Converged { iterations } => assert!(iterations < 60),
            other => panic!("unexpected {other:?}"),
        }
        // KCL: (5 - v)/1k = I_d(v).
        let v = x[1];
        let mut f = FlopCounter::new();
        let i_d = Diode::silicon().current(v, &mut f);
        assert!(approx_eq((5.0 - v) / 1e3, i_d, 1e-3), "v={v}");
    }

    #[test]
    fn linear_circuit_converges_immediately() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        let mut stats = EngineStats::new();
        let (x, outcome) = solve_dc(&engine(), &mna, None, &mut stats);
        assert!(outcome.is_converged());
        assert!(approx_eq(x[0], 1.0, 1e-9));
    }

    #[test]
    fn rtd_in_pdr1_converges() {
        let mna = MnaSystem::new(&rtd_divider(50.0)).unwrap();
        let mut stats = EngineStats::new();
        let (_, outcome) = solve_dc(&engine(), &mna, Some(("V1", 1.0)), &mut stats);
        assert!(outcome.is_converged(), "{outcome:?}");
    }

    /// Current-driven sharp RTD: `I_rtd(v) = I` with `I` above the valley
    /// current puts the Newton iterates in the non-monotone trap of the
    /// paper's Figure 2 (tiny `gd` in the valley catapults the iterate).
    fn current_driven_rtd() -> Circuit {
        let mut ckt = Circuit::new();
        let b = ckt.node("mid");
        ckt.add_current_source("I1", Circuit::GROUND, b, SourceWaveform::dc(0.0))
            .unwrap();
        ckt.add_rtd("X1", b, Circuit::GROUND, Rtd::sharp_valley())
            .unwrap();
        ckt.add_resistor("Rsh", b, Circuit::GROUND, 1e6).unwrap();
        ckt
    }

    #[test]
    fn rtd_ndr_from_cold_start_fails_plain_nr() {
        // Bias between the valley (~0.34 mA) and peak (~1.4 mA) currents
        // from a zero initial guess: plain differential-conductance NR must
        // NOT converge to a physical solution — the NDR problem of §3.1.
        let mna = MnaSystem::new(&current_driven_rtd()).unwrap();
        let mut stats = EngineStats::new();
        let (x, outcome) = solve_dc(&engine(), &mna, Some(("I1", 1e-3)), &mut stats);
        let physical = outcome.is_converged() && x[0].abs() < 10.0;
        assert!(
            !physical,
            "plain NR unexpectedly found a physical solution: {outcome:?}, v={}",
            x[0]
        );
    }

    #[test]
    fn device_limiting_rescues_ndr_point() {
        // The same point with MLA-style voltage limiting converges to a
        // genuine intersection of the I-V curve.
        let limited = NrEngine::new(NrOptions {
            device_v_limit: Some(0.05),
            max_iterations: 500,
            ..NrOptions::default()
        });
        let mna = MnaSystem::new(&current_driven_rtd()).unwrap();
        let mut stats = EngineStats::new();
        let (x, outcome) = solve_dc(&limited, &mna, Some(("I1", 1e-3)), &mut stats);
        assert!(outcome.is_converged(), "{outcome:?}");
        let v = x[0];
        assert!(v > 0.0 && v < 10.0, "physical bias, got {v}");
        let mut f = FlopCounter::new();
        let i_rtd = Rtd::sharp_valley().current(v, &mut f) + v / 1e6;
        assert!(approx_eq(i_rtd, 1e-3, 1e-3), "KCL: {i_rtd} at v={v}");
    }

    #[test]
    fn dc_sweep_reports_outcomes() {
        let r = engine()
            .run_dc_sweep(&rtd_divider(50.0), "V1", 0.0, 2.0, 0.1)
            .unwrap();
        assert_eq!(r.outcomes.len(), 21);
        assert_eq!(r.failures(), 0, "continuation keeps early points easy");
        assert!(r.sweep.stats.iterations > 21);
    }

    #[test]
    fn mosfet_pulldown_dc() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        let gate = ckt.node("g");
        ckt.add_voltage_source("Vdd", vdd, Circuit::GROUND, SourceWaveform::dc(5.0))
            .unwrap();
        ckt.add_voltage_source("Vg", gate, Circuit::GROUND, SourceWaveform::dc(5.0))
            .unwrap();
        ckt.add_resistor("RL", vdd, out, 10e3).unwrap();
        ckt.add_mosfet("M1", out, gate, Circuit::GROUND, Mosfet::nmos())
            .unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        let mut stats = EngineStats::new();
        let (x, outcome) = solve_dc(&engine(), &mna, None, &mut stats);
        assert!(outcome.is_converged(), "{outcome:?}");
        let out_var = mna.var_of_node(out).unwrap();
        assert!(x[out_var] < 1.0, "out = {}", x[out_var]);
    }

    #[test]
    fn transient_rc_matches_analytic() {
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
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
        let r = engine().run_transient(&ckt, 0.02e-9, 5e-9).unwrap();
        assert!(r.failures.is_empty());
        let out = r.result.curve("out").unwrap();
        let got = out.value_at(1e-9);
        let expected = 1.0 - (-1.0f64).exp();
        assert!((got - expected).abs() < 0.02, "{got} vs {expected}");
    }

    #[test]
    fn invalid_configs_rejected() {
        let ckt = diode_divider();
        let e = engine();
        assert!(e.run_dc_sweep(&ckt, "V1", 0.0, 1.0, 0.0).is_err());
        assert!(e.run_dc_sweep(&ckt, "nope", 0.0, 1.0, 0.1).is_err());
        assert!(e.run_transient(&ckt, 0.0, 1e-9).is_err());
    }

    #[test]
    fn cycle_detector_finds_period_two() {
        let a = vec![0.0, 0.0];
        let b = vec![1.0, 1.0];
        let history = vec![
            a.clone(),
            b.clone(),
            a.clone(),
            b.clone(),
            a.clone(),
            b.clone(),
        ];
        assert_eq!(detect_vector_cycle(&history, 1e-6), Some(2));
        let history = vec![a.clone(); 6];
        assert_eq!(detect_vector_cycle(&history, 1e-6), None);
    }

    #[test]
    fn outcome_helpers() {
        assert!(NrOutcome::Converged { iterations: 3 }.is_converged());
        assert!(!NrOutcome::MaxIterations.is_converged());
        assert!(!NrOutcome::Oscillating { period: 2 }.is_converged());
        assert!(!NrOutcome::Singular.is_converged());
    }

    /// The NDR bias from [`rtd_ndr_from_cold_start_fails_plain_nr`], driven
    /// at its DC value (no source override).
    fn current_driven_rtd_biased() -> Circuit {
        let mut ckt = Circuit::new();
        let b = ckt.node("mid");
        ckt.add_current_source("I1", Circuit::GROUND, b, SourceWaveform::dc(1e-3))
            .unwrap();
        ckt.add_rtd("X1", b, Circuit::GROUND, Rtd::sharp_valley())
            .unwrap();
        ckt.add_resistor("Rsh", b, Circuit::GROUND, 1e6).unwrap();
        ckt
    }

    #[test]
    fn rescue_ladder_recovers_ndr_operating_point() {
        let ckt = current_driven_rtd_biased();
        let rescued = NrEngine::new(NrOptions {
            rescue: crate::rescue::RescueOptions::default(),
            ..NrOptions::default()
        });
        let op = rescued
            .solve_op_rescued(&ckt)
            .expect("ladder rescues NDR OP");
        assert!(!op.trace.is_empty(), "plain solve should have failed");
        assert!(op.trace.succeeded());
        assert!(op.stats.rescues >= 1);
        assert!(op.stats.rescue_rungs >= 1);
        let v = op.x[0];
        assert!(v > 0.0 && v < 10.0, "physical bias, got {v}");
        let mut f = FlopCounter::new();
        let i = Rtd::sharp_valley().current(v, &mut f) + v / 1e6;
        assert!(approx_eq(i, 1e-3, 1e-3), "KCL: {i} at v={v}");
    }

    #[test]
    fn rescue_disabled_keeps_op_failure_structured() {
        // Default options: the ladder never runs and the failure surfaces
        // as a structured NonConvergence, not a panic or silent wrong OP.
        let err = engine()
            .solve_op_rescued(&current_driven_rtd_biased())
            .unwrap_err();
        assert!(matches!(err, SimError::NonConvergence { .. }), "{err}");
        assert!(err.to_string().contains("rescue disabled"), "{err}");
    }

    #[test]
    fn rescue_ladder_is_inactive_on_healthy_deck() {
        let rescued = NrEngine::new(NrOptions {
            rescue: crate::rescue::RescueOptions::default(),
            ..NrOptions::default()
        });
        let op = rescued.solve_op_rescued(&rtd_divider(50.0)).unwrap();
        assert!(op.trace.is_empty());
        assert_eq!(op.stats.rescues, 0);
        assert_eq!(op.stats.rescue_rungs, 0);
    }
}
