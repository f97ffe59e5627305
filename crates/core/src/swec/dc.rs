//! SWEC DC analysis: damped equivalent-conductance fixed point with source
//! continuation.
//!
//! At each sweep value the nonlinear devices are replaced by
//! `Geq(v) = I(v)/v` evaluated at the current iterate, the resulting
//! *linear* system is solved, and the iterate is relaxed toward the
//! solution until self-consistent. No Jacobian is ever formed, and every
//! stamped conductance is positive — even when the operating point sits in
//! an NDR region, which is where Newton-based solvers oscillate (paper
//! §3.1/§5.1, Figure 7). Each sweep point starts from the previous point's
//! solution (continuation), so a handful of iterations usually suffice.

use crate::assemble::{
    branch_voltage, mna_var_names, override_source_rhs, require_sweepable_source,
    AssemblyWorkspace, CircuitMatrices,
};
use crate::error::Forensics;
use crate::report::EngineStats;
use crate::rescue::{RescueRung, RescueTrace};
use crate::swec::SwecOptions;
use crate::waveform::DcSweepResult;
use crate::{Result, SimError};
use nanosim_circuit::Circuit;
use nanosim_numeric::solve::LuStats;
use nanosim_numeric::sparse::OrderingChoice;
use nanosim_numeric::{BudgetMeter, FlopCounter};
use std::time::Instant;

/// Reusable buffers of the DC fixed-point iteration; allocated once per run.
#[derive(Debug, Default)]
pub(crate) struct DcBuffers {
    rhs: Vec<f64>,
    x_new: Vec<f64>,
    best_x: Vec<f64>,
    /// Per-iteration update norms of the most recent fixed-point solve;
    /// becomes the forensics `residual_history` when the solve fails.
    history: Vec<f64>,
}

/// The SWEC DC sweep engine.
///
/// See the crate-level example for usage; [`SwecDcSweep::solve_op`] exposes
/// the single-point solver used for operating points.
#[derive(Debug, Clone, Default)]
pub struct SwecDcSweep {
    opts: SwecOptions,
    meter: BudgetMeter,
}

impl SwecDcSweep {
    /// Creates the engine with the given options.
    pub fn new(opts: SwecOptions) -> Self {
        SwecDcSweep {
            opts,
            meter: BudgetMeter::unlimited(),
        }
    }

    /// Attaches a run budget / cancellation meter; analyses fork it so the
    /// deadline clock is shared with the caller while iteration accounting
    /// stays per-solve. Defaults to an inert unlimited meter.
    #[must_use]
    pub fn with_meter(mut self, meter: BudgetMeter) -> Self {
        self.meter = meter;
        self
    }

    /// The engine options.
    pub fn options(&self) -> &SwecOptions {
        &self.opts
    }

    /// Sweeps the named V/I source from `start` to `stop` (inclusive) in
    /// increments of `step`.
    ///
    /// # Errors
    /// Fails on invalid sweep parameters, unknown source names, singular
    /// matrices, or fixed-point non-convergence.
    pub fn run(
        &self,
        circuit: &Circuit,
        source: &str,
        start: f64,
        stop: f64,
        step: f64,
    ) -> Result<DcSweepResult> {
        if step == 0.0 || !step.is_finite() || (stop - start) * step < 0.0 {
            return Err(SimError::InvalidConfig {
                context: format!("dc sweep {start}..{stop} with step {step}"),
            });
        }
        let t0 = Instant::now();
        let mats = CircuitMatrices::new(circuit)?;
        require_sweepable_source(&mats.mna, source)?;
        let mut stats = EngineStats::new();
        let mut ws = AssemblyWorkspace::new(&mats, false, false, OrderingChoice::default());
        let mut buf = DcBuffers::default();
        let n_points = ((stop - start) / step).round() as i64 + 1;
        let n_points = n_points.max(1) as usize;

        let var_names = mna_var_names(&mats.mna);
        let mut names = var_names.clone();
        for b in mats.mna.nonlinear_bindings() {
            names.push(format!("I({})", b.name));
        }
        for m in mats.mna.mosfet_bindings() {
            names.push(format!("I({})", m.name));
        }
        let mut columns: Vec<Vec<f64>> = vec![Vec::with_capacity(n_points); names.len()];
        let mut sweep = Vec::with_capacity(n_points);

        // The result shape is known up front: charge it all before any work.
        let mut run_meter = self.meter.fork();
        run_meter
            .charge_bytes(8 * (n_points as u64) * (1 + names.len() as u64))
            .map_err(|stop| {
                SimError::budget_exceeded(stop, format!("dc sweep of {n_points} points"))
            })?;

        let mut x = vec![0.0; mats.mna.dim()];
        for k in 0..n_points {
            run_meter
                .checkpoint()
                .map_err(|stop| SimError::budget_exceeded(stop, format!("dc sweep point {k}")))?;
            // Iteration accounting restarts at every point (per-solve cap).
            let mut pm = run_meter.fork();
            let value = start + step * k as f64;
            // The first point is always solved to self-consistency (there is
            // no previous point to borrow Geq from); afterwards the
            // non-iterative mode performs exactly one solve per point.
            x = if k == 0 || self.opts.dc_mode == crate::swec::DcMode::FixedPoint {
                match self.solve_point_ws(
                    &mats,
                    &mut ws,
                    &mut buf,
                    Some((source, value)),
                    &x,
                    None,
                    &mut stats,
                    &mut pm,
                ) {
                    Ok(x_new) => x_new,
                    // At a genuine bistability fold the fixed point has no
                    // single answer; step across it like the quasi-transient
                    // the paper runs.
                    Err(SimError::NonConvergence { .. }) if k > 0 => self.solve_noniterative_ws(
                        &mats,
                        &mut ws,
                        &mut buf,
                        Some((source, value)),
                        &x,
                        &mut stats,
                        &mut run_meter.fork(),
                    )?,
                    Err(e) => return Err(e),
                }
            } else {
                self.solve_noniterative_ws(
                    &mats,
                    &mut ws,
                    &mut buf,
                    Some((source, value)),
                    &x,
                    &mut stats,
                    &mut pm,
                )?
            };
            sweep.push(value);
            for (i, &xi) in x.iter().enumerate() {
                columns[i].push(xi);
            }
            let mut col = var_names.len();
            let mut flops = FlopCounter::new();
            for b in mats.mna.nonlinear_bindings() {
                let v = branch_voltage(&x, b.var_plus, b.var_minus);
                columns[col].push(b.device.current(v, &mut flops));
                col += 1;
            }
            for m in mats.mna.mosfet_bindings() {
                let vd = m.var_drain.map_or(0.0, |i| x[i]);
                let vg = m.var_gate.map_or(0.0, |i| x[i]);
                let vs = m.var_source.map_or(0.0, |i| x[i]);
                columns[col].push(m.model.ids(vg - vs, vd - vs, &mut flops));
                col += 1;
            }
            stats.flops += flops;
            stats.steps += 1;
        }
        stats.absorb_lu(&LuStats::default(), &ws.lu_stats());
        stats.elapsed = t0.elapsed();
        Ok(DcSweepResult::new(sweep, names, columns, stats))
    }

    /// Solves the operating point of a circuit with all sources at their
    /// `t = 0` values, returning the MNA solution vector. Falls back to
    /// source-ramp continuation (the paper's quasi-transient start) when
    /// the direct fixed point cycles between branches of a bistable
    /// circuit.
    ///
    /// # Errors
    /// Fails on singular matrices or fixed-point non-convergence even
    /// under continuation.
    pub fn solve_op(&self, circuit: &Circuit) -> Result<Vec<f64>> {
        let mats = CircuitMatrices::new(circuit)?;
        let mut stats = EngineStats::new();
        self.solve_op_inner(&mats, &mut stats)
    }

    /// Operating point with continuation fallback (internal; shares stats
    /// with the calling engine).
    pub(crate) fn solve_op_inner(
        &self,
        mats: &CircuitMatrices,
        stats: &mut EngineStats,
    ) -> Result<Vec<f64>> {
        let mut ws = AssemblyWorkspace::new(mats, false, false, OrderingChoice::default());
        let result = self.solve_op_ws(mats, &mut ws, stats);
        stats.absorb_lu(&LuStats::default(), &ws.lu_stats());
        result
    }

    /// Operating point with rescue-ladder fallback against a caller-owned
    /// workspace. Factor/refactor accounting is the *caller's* job (the
    /// workspace counts are cumulative, so a reused session workspace must
    /// be delta-accounted).
    ///
    /// A converging deck never enters the ladder; a failing one escalates
    /// deterministically through damped retry, gmin stepping, source
    /// stepping (the paper's quasi-transient power-up) and pseudo-transient
    /// continuation, in that order.
    pub(crate) fn solve_op_ws(
        &self,
        mats: &CircuitMatrices,
        ws: &mut AssemblyWorkspace,
        stats: &mut EngineStats,
    ) -> Result<Vec<f64>> {
        let mut buf = DcBuffers::default();
        let x0 = vec![0.0; mats.mna.dim()];
        let meter = self.meter.fork();
        match self.solve_point_ws(
            mats,
            ws,
            &mut buf,
            None,
            &x0,
            None,
            stats,
            &mut meter.fork(),
        ) {
            Ok(x) => Ok(x),
            Err(e @ (SimError::NonConvergence { .. } | SimError::Numeric(_)))
                if self.opts.rescue.enabled =>
            {
                self.rescue_op(mats, ws, &mut buf, stats, e, &meter)
            }
            Err(e) => Err(e),
        }
    }

    /// The convergence-rescue ladder for an operating point whose direct
    /// solve failed with `original`. Each rung is attempted in order; the
    /// first success returns its solution and counts one rescue. On
    /// exhaustion the original error is returned, annotated (when it is a
    /// [`SimError::NonConvergence`]) with the full [`RescueTrace`].
    fn rescue_op(
        &self,
        mats: &CircuitMatrices,
        ws: &mut AssemblyWorkspace,
        buf: &mut DcBuffers,
        stats: &mut EngineStats,
        original: SimError,
        meter: &BudgetMeter,
    ) -> Result<Vec<f64>> {
        // Budget checkpoint at the foot of every rung: a cancelled or
        // expired run stops *between* rungs with the partial trace attached.
        let rung_gate = |rung: RescueRung, trace: &RescueTrace| -> Result<()> {
            meter.checkpoint().map_err(|stop| {
                SimError::budget_exceeded_with(
                    stop,
                    format!("rescue rung {rung}"),
                    Forensics {
                        rescue_trace: trace.clone(),
                        ..Forensics::default()
                    },
                )
            })
        };
        let r = &self.opts.rescue;
        let zeros = vec![0.0; mats.mna.dim()];
        let mut trace = RescueTrace::new();

        // Rung 1 — damped retry: same cold start, heavier initial damping.
        rung_gate(RescueRung::DampedRetry, &trace)?;
        stats.rescue_rungs += 1;
        match self.solve_point_inner(
            mats,
            ws,
            buf,
            None,
            &zeros,
            None,
            r.damping,
            None,
            stats,
            &mut meter.fork(),
        ) {
            Ok(x) => {
                trace.record(
                    RescueRung::DampedRetry,
                    true,
                    format!("lambda0 = {}", r.damping),
                );
                stats.rescues += 1;
                return Ok(x);
            }
            Err(e @ SimError::BudgetExceeded { .. }) => return Err(e),
            Err(e) => trace.record(RescueRung::DampedRetry, false, e.to_string()),
        }

        // Rung 2 — gmin stepping: a shunt to ground on every node keeps the
        // fixed-point map contractive; relax it a decade at a time, then
        // confirm without it.
        rung_gate(RescueRung::GminStep, &trace)?;
        stats.rescue_rungs += 1;
        match self.gmin_continuation(mats, ws, buf, stats, meter) {
            Ok(x) => {
                trace.record(
                    RescueRung::GminStep,
                    true,
                    format!("{} steps from {:.1e} S", r.gmin_steps, r.gmin_start),
                );
                stats.rescues += 1;
                return Ok(x);
            }
            Err(e @ SimError::BudgetExceeded { .. }) => return Err(e),
            Err(e) => trace.record(RescueRung::GminStep, false, e.to_string()),
        }

        // Rung 3 — source stepping: approach the bias from zero the way a
        // power-up transient would, so bistable circuits land on the
        // continuation branch.
        rung_gate(RescueRung::SourceStep, &trace)?;
        stats.rescue_rungs += 1;
        match self.source_continuation(mats, ws, buf, stats, meter) {
            Ok(x) => {
                trace.record(
                    RescueRung::SourceStep,
                    true,
                    format!("{}-step ramp", r.source_steps.max(1)),
                );
                stats.rescues += 1;
                return Ok(x);
            }
            Err(e @ SimError::BudgetExceeded { .. }) => return Err(e),
            Err(e) => trace.record(RescueRung::SourceStep, false, e.to_string()),
        }

        // Rung 4 — pseudo-transient continuation: anchor each solve to the
        // previous pseudo-state through a decaying diagonal conductance
        // (a backward-Euler march with a growing implicit time step).
        rung_gate(RescueRung::PseudoTransient, &trace)?;
        stats.rescue_rungs += 1;
        match self.ptran_continuation(mats, ws, buf, stats, meter) {
            Ok(x) => {
                trace.record(
                    RescueRung::PseudoTransient,
                    true,
                    format!("{} pseudo-steps", r.ptran_steps.max(1)),
                );
                stats.rescues += 1;
                return Ok(x);
            }
            Err(e @ SimError::BudgetExceeded { .. }) => return Err(e),
            Err(e) => trace.record(RescueRung::PseudoTransient, false, e.to_string()),
        }

        match original {
            SimError::NonConvergence {
                at,
                context,
                forensics,
            } => {
                let mut fx = forensics.map_or_else(Forensics::default, |b| *b);
                fx.rescue_trace = trace;
                Err(SimError::non_convergence_with(at, context, fx))
            }
            // Keep the error type (e.g. a structurally singular matrix
            // stays `SimError::Numeric`) so callers can still match on it.
            other => Err(other),
        }
    }

    /// Gmin-stepping rung: solve with a node-diagonal shunt relaxed one
    /// decade per step, then confirm the solution with the shunt removed.
    fn gmin_continuation(
        &self,
        mats: &CircuitMatrices,
        ws: &mut AssemblyWorkspace,
        buf: &mut DcBuffers,
        stats: &mut EngineStats,
        meter: &BudgetMeter,
    ) -> Result<Vec<f64>> {
        let r = &self.opts.rescue;
        let zeros = vec![0.0; mats.mna.dim()];
        let mut x = zeros.clone();
        let mut g = r.gmin_start;
        for _ in 0..r.gmin_steps.max(1) {
            x = self.solve_point_inner(
                mats,
                ws,
                buf,
                None,
                &x,
                None,
                r.damping,
                Some((g, &zeros)),
                stats,
                &mut meter.fork(),
            )?;
            g *= 0.1;
        }
        self.solve_point_inner(
            mats,
            ws,
            buf,
            None,
            &x,
            None,
            r.damping,
            None,
            stats,
            &mut meter.fork(),
        )
    }

    /// Source-stepping rung: ramp every independent source from zero to its
    /// full value, re-converging at each scale from the previous solution.
    fn source_continuation(
        &self,
        mats: &CircuitMatrices,
        ws: &mut AssemblyWorkspace,
        buf: &mut DcBuffers,
        stats: &mut EngineStats,
        meter: &BudgetMeter,
    ) -> Result<Vec<f64>> {
        let steps = self.opts.rescue.source_steps.max(1);
        let mut x = vec![0.0; mats.mna.dim()];
        for s in 1..=steps {
            let scale = s as f64 / steps as f64;
            x = self.solve_point_ws(
                mats,
                ws,
                buf,
                None,
                &x,
                Some(scale),
                stats,
                &mut meter.fork(),
            )?;
        }
        Ok(x)
    }

    /// Pseudo-transient rung: each pseudo-step solves the circuit with a
    /// conductance `g` from every node to its previous pseudo-state (the
    /// companion model of a grounded capacitor under backward Euler, so
    /// `g = C/h`); `g` decays geometrically toward zero, equivalent to an
    /// exponentially growing time step. A final unshunted solve confirms
    /// the stationary point.
    fn ptran_continuation(
        &self,
        mats: &CircuitMatrices,
        ws: &mut AssemblyWorkspace,
        buf: &mut DcBuffers,
        stats: &mut EngineStats,
        meter: &BudgetMeter,
    ) -> Result<Vec<f64>> {
        let r = &self.opts.rescue;
        let steps = r.ptran_steps.max(1);
        let mut x = vec![0.0; mats.mna.dim()];
        let mut g = 1.0_f64;
        let decay = (1e-12_f64).powf(1.0 / steps as f64);
        for _ in 0..steps {
            let anchor = x.clone();
            x = self.solve_point_inner(
                mats,
                ws,
                buf,
                None,
                &anchor,
                None,
                r.damping,
                Some((g, &anchor)),
                stats,
                &mut meter.fork(),
            )?;
            g *= decay;
        }
        self.solve_point_inner(
            mats,
            ws,
            buf,
            None,
            &x,
            None,
            r.damping,
            None,
            stats,
            &mut meter.fork(),
        )
    }

    /// One non-iterative SWEC step: stamp `Geq` at the previous solution
    /// `x0` and solve once — the paper's DC procedure ("a range of voltages
    /// were applied ... SWEC is a non iterative method") — against
    /// caller-owned workspace and buffers (the sweep's per-point hot path;
    /// also the [`crate::sim`] sharded-sweep building block).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_noniterative_ws(
        &self,
        mats: &CircuitMatrices,
        ws: &mut AssemblyWorkspace,
        buf: &mut DcBuffers,
        override_src: Option<(&str, f64)>,
        x0: &[f64],
        stats: &mut EngineStats,
        meter: &mut BudgetMeter,
    ) -> Result<Vec<f64>> {
        let mna = &mats.mna;
        let dim = mna.dim();
        meter
            .tick_iteration()
            .map_err(|stop| SimError::budget_exceeded(stop, "swec non-iterative solve"))?;
        let mut flops = FlopCounter::new();
        self.stamp_geq(mats, ws, x0, stats, &mut flops);
        buf.rhs.resize(dim, 0.0);
        mna.stamp_rhs(0.0, &mut buf.rhs);
        if let Some((name, value)) = override_src {
            override_source_rhs(mna, name, value, 0.0, &mut buf.rhs);
        }
        ws.factor_solve(&buf.rhs, &mut buf.x_new, &mut flops)?;
        stats.linear_solves += 1;
        stats.iterations += 1;
        stats.flops += flops;
        Ok(buf.x_new.clone())
    }

    /// Batched non-iterative SWEC solves: one `Geq(x0)` assembly and one
    /// factorization serve *every* source value in `values`, the linear
    /// systems differing only in their right-hand sides. Used by the
    /// sharded sweep to compute all chunks' first warm-start ramp points
    /// with a single multi-RHS solve instead of one refactor per chunk —
    /// each returned solution is bit-identical to the corresponding
    /// [`SwecDcSweep::solve_noniterative_ws`] call from the same state.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_noniterative_batch_ws(
        &self,
        mats: &CircuitMatrices,
        ws: &mut AssemblyWorkspace,
        buf: &mut DcBuffers,
        source: &str,
        values: &[f64],
        x0: &[f64],
        stats: &mut EngineStats,
        meter: &BudgetMeter,
    ) -> Result<Vec<Vec<f64>>> {
        let mna = &mats.mna;
        let dim = mna.dim();
        let k = values.len();
        if k == 0 {
            return Ok(Vec::new());
        }
        meter
            .checkpoint()
            .map_err(|stop| SimError::budget_exceeded(stop, "swec batched ramp solve"))?;
        let mut flops = FlopCounter::new();
        self.stamp_geq(mats, ws, x0, stats, &mut flops);
        buf.rhs.resize(dim, 0.0);
        let mut rhs_block = vec![0.0; dim * k];
        for (j, &value) in values.iter().enumerate() {
            mna.stamp_rhs(0.0, &mut buf.rhs);
            override_source_rhs(mna, source, value, 0.0, &mut buf.rhs);
            rhs_block[j * dim..(j + 1) * dim].copy_from_slice(&buf.rhs);
        }
        let mut x_block = Vec::new();
        ws.factor_solve_many(&rhs_block, k, &mut x_block, &mut flops)?;
        stats.linear_solves += k as u64;
        stats.iterations += k as u64;
        stats.flops += flops;
        Ok((0..k)
            .map(|j| x_block[j * dim..(j + 1) * dim].to_vec())
            .collect())
    }

    /// Stamps the linear G plus every device's `Geq(x0)` into the workspace.
    fn stamp_geq(
        &self,
        mats: &CircuitMatrices,
        ws: &mut AssemblyWorkspace,
        x0: &[f64],
        stats: &mut EngineStats,
        flops: &mut FlopCounter,
    ) {
        let mna = &mats.mna;
        ws.begin();
        for (i, b) in mna.nonlinear_bindings().iter().enumerate() {
            let v = branch_voltage(x0, b.var_plus, b.var_minus);
            let geq = b.device.equivalent_conductance(v, flops) + self.opts.gmin;
            stats.device_evals += 1;
            ws.stamp_nonlinear(i, geq);
        }
        for (k, m) in mna.mosfet_bindings().iter().enumerate() {
            let vd = m.var_drain.map_or(0.0, |i| x0[i]);
            let vg = m.var_gate.map_or(0.0, |i| x0[i]);
            let vs = m.var_source.map_or(0.0, |i| x0[i]);
            let geq = m.model.geq(vg - vs, vd - vs, flops) + self.opts.gmin;
            stats.device_evals += 1;
            ws.stamp_mosfet_cond(k, geq);
        }
    }

    /// Damped Geq fixed point at one bias point. `override_src` optionally
    /// replaces a named source's value; `x0` seeds the iteration
    /// (continuation).
    #[allow(dead_code)] // convenience wrapper kept for tests
    pub(crate) fn solve_point(
        &self,
        mats: &CircuitMatrices,
        override_src: Option<(&str, f64)>,
        x0: &[f64],
        stats: &mut EngineStats,
    ) -> Result<Vec<f64>> {
        let mut ws = AssemblyWorkspace::new(mats, false, false, OrderingChoice::default());
        let mut buf = DcBuffers::default();
        let mut meter = self.meter.fork();
        self.solve_point_ws(
            mats,
            &mut ws,
            &mut buf,
            override_src,
            x0,
            None,
            stats,
            &mut meter,
        )
    }

    /// [`SwecDcSweep::solve_point`] against caller-owned workspace/buffers,
    /// with all sources optionally scaled by `source_scale` (continuation
    /// ramp). The iteration assembles by scatter-update into the prebuilt
    /// pattern and refactors the cached LU — no allocation per iteration.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_point_ws(
        &self,
        mats: &CircuitMatrices,
        ws: &mut AssemblyWorkspace,
        buf: &mut DcBuffers,
        override_src: Option<(&str, f64)>,
        x0: &[f64],
        source_scale: Option<f64>,
        stats: &mut EngineStats,
        meter: &mut BudgetMeter,
    ) -> Result<Vec<f64>> {
        self.solve_point_inner(
            mats,
            ws,
            buf,
            override_src,
            x0,
            source_scale,
            1.0,
            None,
            stats,
            meter,
        )
    }

    /// The fixed-point kernel behind [`SwecDcSweep::solve_point_ws`], with
    /// two extra knobs used only by the rescue ladder: `lambda0` is the
    /// initial relaxation factor (healthy callers pass `1.0`), and `shunt`
    /// adds a conductance `g` from every node to the `anchor` state —
    /// `(g, zeros)` is gmin stepping, `(g, previous x)` a pseudo-transient
    /// backward-Euler step. With `lambda0 = 1.0` and no shunt this is
    /// bit-identical to the historical implementation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_point_inner(
        &self,
        mats: &CircuitMatrices,
        ws: &mut AssemblyWorkspace,
        buf: &mut DcBuffers,
        override_src: Option<(&str, f64)>,
        x0: &[f64],
        source_scale: Option<f64>,
        lambda0: f64,
        shunt: Option<(f64, &[f64])>,
        stats: &mut EngineStats,
        meter: &mut BudgetMeter,
    ) -> Result<Vec<f64>> {
        let mna = &mats.mna;
        let dim = mna.dim();
        let mut x = x0.to_vec();
        let mut flops = FlopCounter::new();
        let mut lambda: f64 = lambda0;
        let mut prev_delta = f64::INFINITY;
        // Best (smallest-residual) iterate seen: at a bistability fold the
        // damped map can cycle between branches without ever meeting the
        // tight tolerance; a near-converged iterate is still useful.
        let mut best_delta = f64::INFINITY;
        let mut have_best = false;
        let is_linear = mna.nonlinear_bindings().is_empty() && mna.mosfet_bindings().is_empty();
        buf.history.clear();
        for iter in 0..self.opts.dc_max_iterations {
            if let Err(stop) = meter.tick_iteration() {
                stats.flops += flops;
                return Err(SimError::budget_exceeded(
                    stop,
                    format!("swec fixed-point iteration {iter}"),
                ));
            }
            // Stamp G with Geq at the current iterate.
            self.stamp_geq(mats, ws, &x, stats, &mut flops);
            if let Some((g, _)) = shunt {
                ws.stamp_diag_shunt(mna.num_nodes(), g);
            }
            buf.rhs.resize(dim, 0.0);
            mna.stamp_rhs(0.0, &mut buf.rhs);
            if let Some((name, value)) = override_src {
                override_source_rhs(mna, name, value, 0.0, &mut buf.rhs);
            }
            if let Some(scale) = source_scale {
                for r in buf.rhs.iter_mut() {
                    *r *= scale;
                }
                flops.mul(dim as u64);
            }
            if let Some((g, anchor)) = shunt {
                let n = mna.num_nodes().min(anchor.len());
                for (r, a) in buf.rhs.iter_mut().zip(anchor.iter()).take(n) {
                    *r += g * a;
                }
                flops.fma(n as u64);
            }
            ws.factor_solve(&buf.rhs, &mut buf.x_new, &mut flops)?;
            stats.linear_solves += 1;
            stats.iterations += 1;

            // Convergence on node voltages (branch currents scale badly).
            let delta = x
                .iter()
                .zip(buf.x_new.iter())
                .take(mna.num_nodes())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            buf.history.push(delta);
            if delta < self.opts.dc_tolerance || (is_linear && iter >= 1) {
                stats.flops += flops;
                return Ok(buf.x_new.clone());
            }
            if !have_best || delta < best_delta {
                best_delta = delta;
                buf.best_x.clear();
                buf.best_x.extend_from_slice(&buf.x_new);
                have_best = true;
            }
            if is_linear {
                // One more pass confirms the (already exact) solution.
                x.copy_from_slice(&buf.x_new);
                continue;
            }
            // Adaptive damping: if the map stopped contracting, damp harder.
            if delta > 0.9 * prev_delta {
                lambda = (lambda * 0.5).max(0.05);
            }
            prev_delta = delta;
            for i in 0..dim {
                x[i] += lambda * (buf.x_new[i] - x[i]);
            }
        }
        stats.flops += flops;
        // Accept a near-converged iterate (loose but bounded) before giving
        // up entirely — the cycling amplitude at a fold point is tiny
        // compared to the voltage scale.
        if have_best && best_delta < 1e-4 {
            return Ok(buf.best_x.clone());
        }
        // Post-mortem: the nodes still moving the most, and the full
        // per-iteration update history (the oscillation signature).
        let names = mna_var_names(mna);
        let mut worst: Vec<(String, f64)> = names
            .into_iter()
            .take(mna.num_nodes())
            .enumerate()
            .map(|(j, name)| {
                let solved = buf.x_new.get(j).copied().unwrap_or(0.0);
                (name, (solved - x[j]).abs())
            })
            .collect();
        worst.sort_by(|a, b| b.1.total_cmp(&a.1));
        worst.truncate(3);
        let fx = Forensics {
            worst_nodes: worst,
            residual_history: buf.history.clone(),
            ..Forensics::default()
        };
        Err(SimError::non_convergence_with(
            override_src.map(|(_, v)| v).unwrap_or(0.0),
            format!(
                "SWEC fixed point: {} iterations without reaching {:.1e} V",
                self.opts.dc_max_iterations, self.opts.dc_tolerance
            ),
            fx,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanosim_devices::nanowire::Nanowire;
    use nanosim_devices::rtd::Rtd;
    use nanosim_devices::sources::SourceWaveform;
    use nanosim_devices::traits::NonlinearTwoTerminal;
    use nanosim_numeric::approx_eq;

    fn engine() -> SwecDcSweep {
        SwecDcSweep::new(SwecOptions::default())
    }

    fn resistive_divider() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(2.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 3e3).unwrap();
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
    fn linear_divider_exact() {
        let x = engine().solve_op(&resistive_divider()).unwrap();
        // v(a) = 2, v(b) = 1.5, branch current = -0.5 mA.
        assert!(approx_eq(x[0], 2.0, 1e-12));
        assert!(approx_eq(x[1], 1.5, 1e-12));
        assert!(approx_eq(x[2], -0.5e-3, 1e-12));
    }

    #[test]
    fn sweep_shapes_and_names() {
        let r = engine()
            .run(&resistive_divider(), "V1", 0.0, 1.0, 0.25)
            .unwrap();
        assert_eq!(r.points(), 5);
        assert_eq!(r.sweep_values(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert!(r.names().contains(&"b".to_string()));
        assert!(r.names().contains(&"I(V1)".to_string()));
        // Divider ratio holds across the sweep.
        let vb = r.column("b").unwrap();
        assert!(approx_eq(vb[4], 0.75, 1e-12));
    }

    #[test]
    fn rtd_operating_point_consistent() {
        // The solution must satisfy KCL: (Vs - v)/R = I_rtd(v).
        let ckt = rtd_divider(50.0);
        let engine = engine();
        let mats = CircuitMatrices::new(&ckt).unwrap();
        let mut stats = EngineStats::new();
        let x = engine
            .solve_point(&mats, Some(("V1", 1.0)), &vec![0.0; 3], &mut stats)
            .unwrap();
        let v = x[1];
        let mut f = FlopCounter::new();
        let i_rtd = Rtd::date2005().current(v, &mut f);
        let i_res = (1.0 - v) / 50.0;
        assert!(
            (i_rtd - i_res).abs() < 1e-6,
            "KCL violated: rtd {i_rtd} vs resistor {i_res}"
        );
    }

    #[test]
    fn rtd_sweep_covers_ndr_region() {
        // Figure 7(a): sweeping through the peak must not fail, and the
        // captured I-V must show the peak then the NDR droop.
        let r = engine()
            .run(&rtd_divider(50.0), "V1", 0.0, 5.0, 0.05)
            .unwrap();
        let iv = r.curve("I(X1)").unwrap();
        let (v_peak, i_peak) = iv.peak().unwrap();
        assert!(v_peak > 2.0 && v_peak < 4.5, "peak at {v_peak}");
        // Current past the peak drops below the peak value (NDR captured).
        let late = iv.value_at(5.0);
        assert!(late < i_peak, "late {late} vs peak {i_peak}");
    }

    #[test]
    fn nanowire_sweep_staircase() {
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("mid");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(0.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 100.0).unwrap();
        ckt.add_nanowire("W1", b, Circuit::GROUND, Nanowire::metallic_cnt())
            .unwrap();
        let r = engine().run(&ckt, "V1", -2.5, 2.5, 0.05).unwrap();
        let iv = r.curve("I(W1)").unwrap();
        // Odd symmetry and monotone current.
        assert!(iv.value_at(0.0).abs() < 1e-6);
        assert!(iv.value_at(2.5) > 0.0);
        assert!(iv.value_at(-2.5) < 0.0);
        let vals = iv.values();
        for w in vals.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "nanowire current must be monotone");
        }
    }

    #[test]
    fn stats_are_populated() {
        let r = engine()
            .run(&rtd_divider(50.0), "V1", 0.0, 1.0, 0.1)
            .unwrap();
        assert_eq!(r.stats.steps, 11);
        assert!(r.stats.iterations >= 11);
        assert!(r.stats.linear_solves >= 11);
        assert!(r.stats.device_evals > 0);
        assert!(r.stats.flops.total() > 0);
    }

    #[test]
    fn invalid_sweeps_rejected() {
        let ckt = resistive_divider();
        let e = engine();
        assert!(e.run(&ckt, "V1", 0.0, 1.0, 0.0).is_err());
        assert!(e.run(&ckt, "V1", 0.0, 1.0, -0.1).is_err());
        assert!(e.run(&ckt, "Vmissing", 0.0, 1.0, 0.1).is_err());
    }

    #[test]
    fn noniterative_tracks_fixed_point_closely() {
        // Paper Figure 7: the non-iterative sweep "captures the negative
        // resistance region very closely" — compare against the fully
        // converged fixed-point sweep.
        let ckt = rtd_divider(50.0);
        let ni = SwecDcSweep::new(SwecOptions {
            dc_mode: crate::swec::DcMode::NonIterative,
            ..SwecOptions::default()
        })
        .run(&ckt, "V1", 0.0, 5.0, 0.02)
        .unwrap();
        let fp = SwecDcSweep::new(SwecOptions {
            dc_mode: crate::swec::DcMode::FixedPoint,
            ..SwecOptions::default()
        })
        .run(&ckt, "V1", 0.0, 5.0, 0.02)
        .unwrap();
        let a = ni.curve("I(X1)").unwrap();
        let b = fp.curve("I(X1)").unwrap();
        let rms = a.rms_difference(&b);
        let peak = b.peak().unwrap().1;
        assert!(rms < 0.05 * peak, "rms {rms} vs peak {peak}");
        // And it is much cheaper: about one solve per point.
        assert!(ni.stats.linear_solves < fp.stats.linear_solves);
        assert!(ni.stats.linear_solves <= (ni.points() as u64) + 40);
    }

    #[test]
    fn descending_sweep_works() {
        let r = engine()
            .run(&resistive_divider(), "V1", 1.0, 0.0, -0.5)
            .unwrap();
        assert_eq!(r.sweep_values(), &[1.0, 0.5, 0.0]);
    }
}
