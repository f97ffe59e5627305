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
    charge_sweep, checked_sweep_points, mna_var_names, override_source_rhs, sweep_columns,
    AssemblyWorkspace,
};
use crate::error::Forensics;
use crate::report::EngineStats;
use crate::rescue::{self, RescueRung, RungError, Shunt};
use crate::sim::{AnalysisKind, Axis, Dataset};
use crate::swec::{DcMode, SwecOptions};
use crate::{Result, SimError};
use nanosim_circuit::{Circuit, MnaSystem};
use nanosim_numeric::parallel::par_map;
use nanosim_numeric::sparse::OrderingChoice;
use nanosim_numeric::{BudgetMeter, FlopCounter};
use std::ops::Range;
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

/// How one fixed-point solve ([`SwecDcSweep::solve_point`]) drives the
/// circuit. The default is a plain solve at the sources' own values.
#[derive(Debug)]
pub(crate) struct PointOptions<'a> {
    /// Replaces a named source's value.
    pub override_src: Option<(&'a str, f64)>,
    /// Scales every independent source (source stepping).
    pub source_scale: Option<f64>,
    /// Initial relaxation factor: `1.0` on healthy solves, damped on the
    /// rescue ladder's.
    pub lambda0: f64,
    /// A conductance from every node to an anchor state (rescue ladder
    /// only).
    pub shunt: Shunt<'a>,
}

impl Default for PointOptions<'_> {
    fn default() -> Self {
        PointOptions {
            override_src: None,
            source_scale: None,
            lambda0: 1.0,
            shunt: None,
        }
    }
}

impl<'a> PointOptions<'a> {
    /// A plain solve with `source` set to `value`.
    fn at(source: &'a str, value: f64) -> Self {
        PointOptions {
            override_src: Some((source, value)),
            ..PointOptions::default()
        }
    }
}

/// Non-iterative solves a chunk past the first spends to approach its first
/// point from the sweep start (the per-chunk continuation ramp).
const WARM_START_RAMP: usize = 8;

#[cfg(test)]
thread_local! {
    /// Chunks [`SwecDcSweep::sweep_chunk`] has run on this thread; lets
    /// tests count rescue retries.
    pub(crate) static CHUNK_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The solutions of a run of consecutive sweep points, and its work
/// accounting.
#[derive(Debug)]
pub(crate) struct SweepChunk {
    /// The points accepted, in order: all of them unless `failure` is set.
    pub xs: Vec<Vec<f64>>,
    pub stats: EngineStats,
    /// The error that stopped the chunk before its last point.
    pub failure: Option<SimError>,
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

    /// Sweeps the named V/I source from `start` to `stop` (inclusive) in
    /// increments of `step`: one unbroken continuation chain on a fresh
    /// workspace, bit-identical to a default session sweep.
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
    ) -> Result<Dataset> {
        let mna = MnaSystem::new(circuit)?;
        let n_points = checked_sweep_points(&mna, source, start, stop, step)?;
        let mut ws = AssemblyWorkspace::new(&mna, false, false, OrderingChoice::default());
        self.sweep_ws(&mna, &mut ws, source, start, step, n_points, None, 1, false)
    }

    /// The sweep driver behind [`SwecDcSweep::run`] and the session's
    /// sweeps: solves `n_points` points of `source` from `start` in
    /// increments of `step`, cut into chunks of `chunk_points` points (the
    /// whole sweep when `None`) run by the one sweep loop,
    /// [`SwecDcSweep::sweep_chunk`], each on its own clone of `ws`, on
    /// `workers` threads. The caller has checked the range with
    /// [`checked_sweep_points`].
    ///
    /// With `warm_up`, `ws` is first solved once at the sweep start, the
    /// matrix the first chunk assembles first. A session workspace lives
    /// across runs; the warm-up puts it in the same LU state for every run,
    /// and every chunk clone inherits that state and refactors.
    ///
    /// Every chunk past the first begins its continuation ramp at the same
    /// state (`x = 0`, `Geq(0)`), so all those first ramp points are
    /// computed up front by one batched multi-RHS solve
    /// ([`AssemblyWorkspace::factor_solve_many`]) instead of one refactor
    /// per chunk, bit-identically and before the fan-out. Chunk boundaries,
    /// warm starts and rescue retries depend only on the point index, so
    /// results are bit-identical for every worker count.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_ws(
        &self,
        mna: &MnaSystem,
        ws: &mut AssemblyWorkspace,
        source: &str,
        start: f64,
        step: f64,
        n_points: usize,
        chunk_points: Option<usize>,
        workers: usize,
        warm_up: bool,
    ) -> Result<Dataset> {
        let t0 = Instant::now();
        let mut run_meter = self.meter.fork();
        let mut stats = EngineStats::new();
        let lu0 = ws.lu_stats();
        let mut buf = DcBuffers::default();
        let x0 = vec![0.0; mna.dim()];
        if warm_up {
            self.solve_noniterative_ws(
                mna,
                ws,
                &mut buf,
                Some((source, start)),
                &x0,
                &mut stats,
                &mut run_meter.fork(),
            )?;
        }
        // The result shape is known up front: charge the whole payload
        // before any chunk work is fanned out, so a byte budget too small
        // for the sweep fails immediately and identically at every worker
        // count.
        charge_sweep(&mut run_meter, mna, n_points)?;
        let values: Vec<f64> = (0..n_points).map(|k| start + step * k as f64).collect();
        let chunk = chunk_points.unwrap_or(n_points);
        let n_chunks = n_points.div_ceil(chunk);
        let ramp_values: Vec<f64> = (1..n_chunks)
            .map(|ci| start + (values[ci * chunk - 1] - start) / WARM_START_RAMP as f64)
            .collect();
        let seeds = self.solve_noniterative_batch_ws(
            mna,
            ws,
            &mut buf,
            source,
            &ramp_values,
            &x0,
            &mut stats,
            &run_meter,
        )?;
        stats.absorb_lu(&lu0, &ws.lu_stats());

        let base_ws = &*ws;
        let run_chunk = |ci: usize, seed: Option<&[f64]>, ramp_steps: usize| {
            let points = ci * chunk..n_points.min((ci + 1) * chunk);
            let mut ws = base_ws.clone();
            self.sweep_chunk(
                mna, &mut ws, source, &values, points, seed, ramp_steps, &run_meter,
            )
        };
        let chunks = par_map(n_chunks, workers, |ci| {
            let seed = ci.checked_sub(1).map(|i| &seeds[i][..]);
            let first = run_chunk(ci, seed, WARM_START_RAMP);
            // Rescue: retry a failed chunk with an 8x finer continuation
            // ramp, recomputed locally (the batched seed only applies to
            // the default ramp). Chunk 0 has no ramp, and its clone replays
            // the same faults, so a retry could only repeat its failure.
            // Budget stops are excluded: a chunk killed by the budget must
            // not burn 8x the work retrying.
            let retry = ci > 0
                && self.opts.rescue.enabled
                && matches!(
                    first.failure,
                    Some(SimError::NonConvergence { .. } | SimError::Numeric(_))
                );
            if !retry {
                return first;
            }
            let mut c = run_chunk(ci, None, WARM_START_RAMP * 8);
            if c.failure.is_none() {
                c.stats.rescues += 1;
                c.stats.rescue_rungs += 1;
            }
            c
        });

        // Deterministic stitch in chunk order. The first failure ends the
        // sweep: with `allow_partial`, a budget stop keeps every point
        // accepted before it (the chunks before the failing one plus that
        // chunk's accepted prefix), so the salvage is bit-identical at
        // every worker count; any other failure is an error.
        let mut solutions: Vec<Vec<f64>> = Vec::with_capacity(n_points);
        let mut truncated_at = None;
        for (ci, c) in chunks.into_iter().enumerate() {
            solutions.extend(c.xs);
            stats.merge(&c.stats);
            if let Some(e) = c.failure {
                let salvage = self.opts.allow_partial
                    && matches!(e, SimError::BudgetExceeded { .. })
                    && !solutions.is_empty();
                if !salvage {
                    return Err(tag_chunk_failure(e, ci));
                }
                truncated_at = Some(values[solutions.len() - 1]);
                break;
            }
        }
        let mut values = values;
        values.truncate(solutions.len());
        let (names, columns) = sweep_columns(mna, &solutions, &mut stats.flops);
        stats.elapsed = t0.elapsed();
        let axis = Axis::Sweep {
            source: source.to_string(),
            values,
        };
        let ds = Dataset::new(AnalysisKind::Dc, "swec", axis, names, columns, stats);
        Ok(match truncated_at {
            Some(at) => ds.truncated(at),
            None => ds,
        })
    }

    /// Solves sweep points `points` of `values` (sweeping `source`) against
    /// `ws`: the one SWEC sweep loop, run once per chunk by
    /// [`SwecDcSweep::sweep_ws`].
    ///
    /// The first sweep point is always solved to self-consistency; after
    /// it, [`DcMode::NonIterative`] performs exactly one solve per point,
    /// and [`DcMode::FixedPoint`] falls back to one non-iterative step
    /// across a bistability fold (where the fixed point has no single
    /// answer — stepping across it is the quasi-transient the paper runs).
    ///
    /// A chunk that does not start at point 0 first warm-starts: a forward
    /// non-iterative continuation ramp of `ramp_steps` solves from the
    /// sweep start to the point *before* the chunk — so through an
    /// NDR/hysteresis region it lands on the branch the serial
    /// continuation chain selects — continuing from `warm_seed` (the
    /// ramp's first solve, computed by the caller) when given. The ramp
    /// iterate is then refined to self-consistency, or kept at a genuine
    /// fold.
    ///
    /// A failure stops the chunk; the points accepted before it stay in
    /// the returned chunk next to the error.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_chunk(
        &self,
        mna: &MnaSystem,
        ws: &mut AssemblyWorkspace,
        source: &str,
        values: &[f64],
        points: Range<usize>,
        warm_seed: Option<&[f64]>,
        ramp_steps: usize,
        meter: &BudgetMeter,
    ) -> SweepChunk {
        #[cfg(test)]
        CHUNK_RUNS.with(|n| n.set(n.get() + 1));
        let lu0 = ws.lu_stats();
        let mut buf = DcBuffers::default();
        let mut stats = EngineStats::new();
        let mut xs = Vec::with_capacity(points.len());
        let fixed_point = self.opts.dc_mode == DcMode::FixedPoint;
        let mut solve = || -> Result<()> {
            let mut x = vec![0.0; mna.dim()];
            if points.start > 0 {
                let (start, prev) = (values[0], values[points.start - 1]);
                meter.checkpoint().map_err(|stop| {
                    SimError::budget_exceeded(
                        stop,
                        format!("dc sweep warm start for point {}", points.start),
                    )
                })?;
                let first_step = match warm_seed {
                    Some(seed) => {
                        x = seed.to_vec();
                        2
                    }
                    None => 1,
                };
                for s in first_step..=ramp_steps {
                    let v = start + (prev - start) * (s as f64 / ramp_steps as f64);
                    x = self
                        .solve_noniterative_ws(
                            mna,
                            ws,
                            &mut buf,
                            Some((source, v)),
                            &x,
                            &mut stats,
                            &mut meter.fork(),
                        )
                        .map_err(|e| tag_sweep_failure(e, points.start - 1, v))?;
                }
                match self.solve_point(
                    mna,
                    ws,
                    &mut buf,
                    &x,
                    PointOptions::at(source, prev),
                    &mut stats,
                    &mut meter.fork(),
                ) {
                    Ok(x_new) => x = x_new,
                    Err(SimError::NonConvergence { .. }) => {}
                    Err(e) => return Err(tag_sweep_failure(e, points.start - 1, prev)),
                }
            }

            for k in points.clone() {
                let value = values[k];
                meter.checkpoint().map_err(|stop| {
                    SimError::budget_exceeded(stop, format!("dc sweep point {k}"))
                })?;
                // `None` takes one non-iterative step: every point past the
                // first in `NonIterative` mode, and a fold in `FixedPoint`
                // mode.
                let solved = if k == 0 || fixed_point {
                    match self.solve_point(
                        mna,
                        ws,
                        &mut buf,
                        &x,
                        PointOptions::at(source, value),
                        &mut stats,
                        &mut meter.fork(),
                    ) {
                        Err(SimError::NonConvergence { .. }) if k > 0 => None,
                        result => Some(result),
                    }
                } else {
                    None
                };
                x = solved
                    .unwrap_or_else(|| {
                        self.solve_noniterative_ws(
                            mna,
                            ws,
                            &mut buf,
                            Some((source, value)),
                            &x,
                            &mut stats,
                            &mut meter.fork(),
                        )
                    })
                    .map_err(|e| tag_sweep_failure(e, k, value))?;
                stats.steps += 1;
                xs.push(x.clone());
            }
            Ok(())
        };
        let failure = solve().err();
        stats.absorb_lu(&lu0, &ws.lu_stats());
        SweepChunk { xs, stats, failure }
    }

    /// Solves the operating point of a circuit with all sources at their
    /// `t = 0` values, returning the MNA solution vector. Falls back to
    /// the convergence-rescue ladder when the direct fixed point fails.
    ///
    /// # Errors
    /// Fails on singular matrices or fixed-point non-convergence even
    /// under continuation.
    pub fn solve_op(&self, circuit: &Circuit) -> Result<Vec<f64>> {
        let mna = MnaSystem::new(circuit)?;
        let mut ws = AssemblyWorkspace::new(&mna, false, false, OrderingChoice::default());
        self.solve_op_ws(&mna, &mut ws, &mut EngineStats::new())
    }

    /// Operating point with rescue-ladder fallback against a caller-owned
    /// workspace. Factor/refactor accounting is the *caller's* job (the
    /// workspace counts are cumulative, so a reused session workspace must
    /// be delta-accounted).
    ///
    /// A converging deck never enters the ladder; a failing one climbs
    /// [`rescue::climb`]. Its rungs run damped at the rescue damping,
    /// except source stepping (the paper's quasi-transient power-up), which
    /// runs undamped. A budget stop aborts the rescue; any other failure
    /// fails the rung. On exhaustion the original error is returned, with
    /// the full trace attached when it is a [`SimError::NonConvergence`].
    pub(crate) fn solve_op_ws(
        &self,
        mna: &MnaSystem,
        ws: &mut AssemblyWorkspace,
        stats: &mut EngineStats,
    ) -> Result<Vec<f64>> {
        let mut buf = DcBuffers::default();
        let dim = mna.dim();
        let meter = self.meter.fork();
        let x0 = vec![0.0; dim];
        let opts = PointOptions::default();
        let original =
            match self.solve_point(mna, ws, &mut buf, &x0, opts, stats, &mut meter.fork()) {
                Err(e @ (SimError::NonConvergence { .. } | SimError::Numeric(_)))
                    if self.opts.rescue.enabled =>
                {
                    e
                }
                result => return result,
            };
        let r = &self.opts.rescue;
        let (x, trace) = rescue::climb(
            r,
            dim,
            &meter,
            stats,
            |rung, x0, shunt, source_scale, stats| {
                let lambda0 = if rung == RescueRung::SourceStep {
                    1.0
                } else {
                    r.damping
                };
                let opts = PointOptions {
                    override_src: None,
                    source_scale,
                    lambda0,
                    shunt,
                };
                self.solve_point(mna, ws, &mut buf, x0, opts, stats, &mut meter.fork())
                    .map_err(|e| match e {
                        SimError::BudgetExceeded { .. } => RungError::Abort(e),
                        e => RungError::Failed(e.to_string()),
                    })
            },
        )?;
        match (x, original) {
            (Some(x), _) => Ok(x),
            (
                None,
                SimError::NonConvergence {
                    at,
                    context,
                    forensics,
                },
            ) => {
                let mut fx = forensics.map_or_else(Forensics::default, |b| *b);
                fx.rescue_trace = trace;
                Err(SimError::non_convergence_with(at, context, fx))
            }
            // Keep the error type (e.g. a structurally singular matrix
            // stays `SimError::Numeric`) so callers can still match on it.
            (None, other) => Err(other),
        }
    }

    /// One non-iterative SWEC step: stamp `Geq` at the previous solution
    /// `x0` and solve once — the paper's DC procedure ("a range of voltages
    /// were applied ... SWEC is a non iterative method") — against
    /// caller-owned workspace and buffers (the sweep's per-point hot path;
    /// also the [`crate::sim`] sharded-sweep building block).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_noniterative_ws(
        &self,
        mna: &MnaSystem,
        ws: &mut AssemblyWorkspace,
        buf: &mut DcBuffers,
        override_src: Option<(&str, f64)>,
        x0: &[f64],
        stats: &mut EngineStats,
        meter: &mut BudgetMeter,
    ) -> Result<Vec<f64>> {
        let dim = mna.dim();
        meter
            .tick_iteration()
            .map_err(|stop| SimError::budget_exceeded(stop, "swec non-iterative solve"))?;
        let mut flops = FlopCounter::new();
        stats.device_evals += ws.stamp_geq(mna, x0, &mut flops);
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
        mna: &MnaSystem,
        ws: &mut AssemblyWorkspace,
        buf: &mut DcBuffers,
        source: &str,
        values: &[f64],
        x0: &[f64],
        stats: &mut EngineStats,
        meter: &BudgetMeter,
    ) -> Result<Vec<Vec<f64>>> {
        let dim = mna.dim();
        let k = values.len();
        if k == 0 {
            return Ok(Vec::new());
        }
        meter
            .checkpoint()
            .map_err(|stop| SimError::budget_exceeded(stop, "swec batched ramp solve"))?;
        let mut flops = FlopCounter::new();
        stats.device_evals += ws.stamp_geq(mna, x0, &mut flops);
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

    /// Damped `Geq` fixed point at one bias point, seeded with `x0`
    /// (continuation) and driven as `opts` says. The iteration assembles by
    /// scatter-update into the prebuilt pattern and refactors the cached LU
    /// — no allocation per iteration. A shunt `(g, anchor)` adds a
    /// conductance `g` from every node to `anchor`: `(g, zeros)` is gmin
    /// stepping, `(g, previous x)` a pseudo-transient backward-Euler step.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_point(
        &self,
        mna: &MnaSystem,
        ws: &mut AssemblyWorkspace,
        buf: &mut DcBuffers,
        x0: &[f64],
        opts: PointOptions<'_>,
        stats: &mut EngineStats,
        meter: &mut BudgetMeter,
    ) -> Result<Vec<f64>> {
        let PointOptions {
            override_src,
            source_scale,
            lambda0,
            shunt,
        } = opts;
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
            stats.device_evals += ws.stamp_geq(mna, &x, &mut flops);
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

/// Annotates a failed chunk's error with the chunk index (the failing
/// point index and sweep value ride in the forensics payload).
fn tag_chunk_failure(e: SimError, ci: usize) -> SimError {
    match e {
        SimError::NonConvergence {
            at,
            context,
            forensics,
        } => SimError::NonConvergence {
            at,
            context: format!("{context} [sweep chunk {ci}]"),
            forensics,
        },
        SimError::BudgetExceeded {
            stop,
            context,
            forensics,
        } => SimError::BudgetExceeded {
            stop,
            context: format!("{context} [sweep chunk {ci}]"),
            forensics,
        },
        other => other,
    }
}

/// Attaches the failing point index and sweep value to a per-point
/// non-convergence or budget error.
fn tag_sweep_failure(e: SimError, k: usize, value: f64) -> SimError {
    match e {
        SimError::NonConvergence {
            at,
            context,
            forensics,
        } => {
            let mut fx = forensics.map_or_else(Forensics::default, |b| *b);
            fx.point_index = Some(k);
            fx.sweep_value = Some(value);
            SimError::non_convergence_with(at, context, fx)
        }
        SimError::BudgetExceeded {
            stop,
            context,
            forensics,
        } => {
            let mut fx = forensics.map_or_else(Forensics::default, |b| *b);
            fx.point_index = Some(k);
            fx.sweep_value = Some(value);
            SimError::budget_exceeded_with(stop, context, fx)
        }
        other => other,
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
        assert_eq!(r.axis_values(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
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
        let mna = MnaSystem::new(&ckt).unwrap();
        let mut ws = AssemblyWorkspace::new(&mna, false, false, OrderingChoice::default());
        let x = engine
            .solve_point(
                &mna,
                &mut ws,
                &mut DcBuffers::default(),
                &[0.0; 3],
                PointOptions::at("V1", 1.0),
                &mut EngineStats::new(),
                &mut BudgetMeter::unlimited(),
            )
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
        assert_eq!(r.axis_values(), &[1.0, 0.5, 0.0]);
    }
}
