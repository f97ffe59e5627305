//! Euler–Maruyama stochastic transient engine (paper §4, Figure 10).
//!
//! Circuits with white-noise ("uncertain") inputs obey the nodal SDE of
//! paper eq. (13)/(17),
//!
//! ```text
//! C·dx = (b(t) - G(x,t)·x)·dt + B·dW
//! ```
//!
//! which the EM method (eq. 18) discretizes as
//!
//! ```text
//! x_{j+1} = x_j + C⁻¹·(b - G·x_j)·Δt + C⁻¹·B·ΔW_j .
//! ```
//!
//! `G` is re-evaluated each step with the SWEC equivalent conductance, so
//! nonlinear nano-devices are handled exactly as the paper notes ("Since G
//! is time variant, Equation (13) also includes cases with the nonlinear
//! nanodevices"). The engine factors `C` once, runs an ensemble of Wiener
//! paths, and returns one [`AnalysisKind::Em`] [`Dataset`]: per-node mean
//! and `std(<name>)` envelopes over the time axis, plus the per-path
//! running maxima behind its "peak performance" statistics.
//!
//! **Parallelism and determinism.** Monte-Carlo paths are independent, so
//! the ensemble executes on a scoped-thread worker pool
//! ([`nanosim_numeric::parallel`]) in fixed-size chunks of
//! [`PATH_CHUNK`] paths. Every path's PCG64 generator is derived
//! *deterministically up front* by splitting the seed stream in path order,
//! per-chunk statistics are accumulated with Welford's algorithm and merged
//! in chunk order, and per-path maxima are concatenated in path order —
//! none of which depends on scheduling. Results are therefore **bit
//! identical for every [`EmOptions::threads`] setting**, including the
//! serial `threads = 1`; `tests/stochastic.rs` locks this guarantee in.
//!
//! **The lockstep kernel.** Within a chunk the paths advance as one block
//! (`PathBlock`), so each time step does the path-independent work once:
//!
//! - `b(t)` is stamped once per step for the whole chunk;
//! - a circuit without nonlinear devices or MOSFETs assembles `G` once;
//!   otherwise every path restamps its own `G` at its own state;
//! - `G·x` for every path comes from one walk of `G`'s CSR pattern, with
//!   the chunk's states interleaved and one accumulator per path;
//! - with nominal parameters every path shares the one factorization of
//!   `C`, so a single multi-RHS [`SparseLu::solve_many_into`] advances the
//!   chunk; with [`EmOptions::param_spread`] each path solves against its
//!   own factors;
//! - the chunk's statistics are time-major structure-of-arrays Welford
//!   moments ([`MomentBlock`]: `mean` and `m2` per `(step, variable)`,
//!   one shared count), merged across chunks with
//!   [`nanosim_numeric::stats::RunningStats::merge`]'s arithmetic.
//!
//! Every path keeps the arithmetic of a lone path — its own generator, its
//! own summation order in `G·x`, the batched solve's lanes matching
//! independent solves bit for bit — and the accumulators see the paths in
//! ascending order, so the kernel is purely a throughput optimization.
//! [`EmEngine::run_with_paths`] steps its one realization through the same
//! kernel.
//!
//! **Supported circuits**: every MNA unknown must be a node voltage with
//! capacitance to ground (no voltage sources, no inductors) — the standard
//! state-space form. Drive the circuit with current sources; a Thevenin
//! source becomes a Norton equivalent.

use crate::assemble::{mna_var_names, whole_steps, AssemblyWorkspace};
use crate::report::EngineStats;
use crate::sim::{AnalysisKind, Axis, Dataset};
use crate::{Result, SimError};
use nanosim_circuit::{Circuit, MnaSystem};
use nanosim_numeric::parallel::try_par_map;
use nanosim_numeric::rng::Pcg64;
use nanosim_numeric::sparse::{CsrMatrix, OrderingChoice, PivotStrategy, SparseLu};
use nanosim_numeric::stats::MomentBlock;
use nanosim_numeric::{BudgetMeter, FlopCounter};
use nanosim_sde::wiener::WienerPath;
use std::time::Instant;

/// Monte-Carlo paths per work-stealing chunk. Chunk boundaries are a
/// function of the path index only (never of the thread count), which is
/// what keeps ensemble statistics bit-identical at any parallelism level.
pub const PATH_CHUNK: usize = 8;

/// Options of the EM engine.
///
/// The conductance in parallel with every nonlinear device is no option:
/// it is the crate's `GMIN` (1e-12 S), the same in every engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EmOptions {
    /// Fixed integration step `Δt` (s).
    pub dt: f64,
    /// Number of Monte-Carlo paths.
    pub paths: usize,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
    /// Worker threads for the ensemble: `0` = one per hardware thread,
    /// `1` = serial. Results are bit-identical for every setting (see the
    /// module docs), so this is purely a wall-clock knob.
    pub threads: usize,
    /// Relative per-path device-parameter spread `s` (`0 ≤ s < 1`). Each
    /// Monte-Carlo path scales every capacitance entry and the conductance
    /// stamp by independent factors drawn uniformly from `[1-s, 1+s]`
    /// (path-ordered stream seeded from [`EmOptions::seed`]). With
    /// `s > 0` every chunk factors its first path's `C` once and refactors
    /// that template with each path's values, then advances them in
    /// lockstep;
    /// `s = 0` (the default) keeps the single shared factorization and is
    /// bit-identical to previous behavior. Ignored by
    /// [`EmEngine::run_with_paths`], which integrates nominal parameters.
    pub param_spread: f64,
}

impl Default for EmOptions {
    fn default() -> Self {
        EmOptions {
            dt: 1e-12,
            paths: 200,
            seed: 0x5eed_cafe,
            threads: 0,
            param_spread: 0.0,
        }
    }
}

/// Peak ("performance") summary of one node over the ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct PeakSummary {
    /// Mean of per-path running maxima.
    pub mean_peak: f64,
    /// 95th percentile of per-path maxima.
    pub p95_peak: f64,
    /// Largest maximum seen in the ensemble.
    pub worst_peak: f64,
}

/// The Euler–Maruyama circuit engine.
#[derive(Debug, Clone, Default)]
pub struct EmEngine {
    opts: EmOptions,
    meter: BudgetMeter,
}

impl EmEngine {
    /// Creates the engine with the given options.
    pub fn new(opts: EmOptions) -> Self {
        EmEngine {
            opts,
            meter: BudgetMeter::unlimited(),
        }
    }

    /// Attaches a run budget. Checkpoints are placed per integration step
    /// inside every path chunk, so cancellation and deadlines take effect
    /// within one step's worth of work per worker.
    #[must_use]
    pub fn with_meter(mut self, meter: BudgetMeter) -> Self {
        self.meter = meter;
        self
    }

    /// Runs the Monte-Carlo ensemble from `t = 0` in whole steps of
    /// [`EmOptions::dt`], never past `horizon`, distributing paths over
    /// [`EmOptions::threads`] workers. Statistics stream through
    /// per-chunk Welford accumulators merged in chunk order, so no path
    /// series is ever materialized and the result is bit-identical at any
    /// thread count.
    ///
    /// Returns an [`AnalysisKind::Em`] dataset tagged "em": one mean column
    /// per MNA variable, then one `std(<name>)` envelope per variable, with
    /// the per-path running maxima behind [`Dataset::peak_summary`] and
    /// [`Dataset::exceedance`].
    ///
    /// # Errors
    /// Fails on unsupported circuits, invalid options or singular matrices.
    pub fn run(&self, circuit: &Circuit, horizon: f64) -> Result<Dataset> {
        self.check_run(horizon)?;
        self.run_mna(&MnaSystem::new(circuit)?, horizon)
    }

    /// Checks the options of an ensemble run to `horizon`.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] for a step outside `0 < dt < horizon`,
    /// no paths, or a spread outside `0 <= s < 1`.
    pub(crate) fn check_run(&self, horizon: f64) -> Result<()> {
        if !(self.opts.dt > 0.0 && horizon > self.opts.dt) {
            return Err(SimError::InvalidConfig {
                context: format!(
                    "em needs 0 < dt < horizon (dt={}, horizon={horizon})",
                    self.opts.dt
                ),
            });
        }
        if self.opts.paths == 0 {
            return Err(SimError::InvalidConfig {
                context: "em needs at least one path".into(),
            });
        }
        if !(0.0..1.0).contains(&self.opts.param_spread) {
            return Err(SimError::InvalidConfig {
                context: format!(
                    "em needs 0 <= param_spread < 1 (got {})",
                    self.opts.param_spread
                ),
            });
        }
        Ok(())
    }

    /// [`EmEngine::run`] on a built system, with options checked by
    /// [`EmEngine::check_run`].
    pub(crate) fn run_mna(&self, mna: &MnaSystem, horizon: f64) -> Result<Dataset> {
        let t0 = Instant::now();
        check_state_space(mna)?;
        let dim = mna.dim();
        // Never integrate past the horizon: a dt that does not divide it
        // stops at the last whole step before it.
        let steps = whole_steps(horizon, self.opts.dt) as usize;
        let paths = self.opts.paths;
        let mut stats = EngineStats::new();
        let mut flops = FlopCounter::new();

        // The result shape (time axis, mean and std-dev columns, per-path
        // maxima) is known up front: charge it before any path work so a
        // byte budget too small for the ensemble fails immediately and
        // identically at every worker count.
        let mut run_meter = self.meter.fork();
        let result_f64s = (steps as u64 + 1) * (1 + 2 * dim as u64) + (paths as u64) * dim as u64;
        run_meter.charge_bytes(8 * result_f64s).map_err(|stop| {
            SimError::budget_exceeded(
                stop,
                format!("em ensemble of {paths} paths x {steps} steps"),
            )
        })?;

        // Per-path parameter variation, drawn in path order from its own
        // seed-derived stream so enabling it never perturbs the noise RNGs.
        let variation = if self.opts.param_spread > 0.0 {
            Some(PathVariation::build(
                mna.c_matrix(),
                paths,
                self.opts.param_spread,
                self.opts.seed,
            ))
        } else {
            None
        };
        // Nominal parameters: factor C once; the factorization is immutable
        // and shared by every worker (each solves into its own buffers).
        // With per-path spread each chunk instead factors its own paths' C
        // matrices (see `simulate_chunk`).
        let c_lu = if variation.is_none() {
            Some(SparseLu::factor(mna.c_matrix(), &mut flops)?)
        } else {
            None
        };
        let times: Vec<f64> = (0..=steps).map(|k| k as f64 * self.opts.dt).collect();

        // Per-path generators derived up front in path order: the stream of
        // splits depends only on the seed, never on scheduling.
        let mut rng = Pcg64::seed_from_u64(self.opts.seed);
        let path_rngs: Vec<Pcg64> = (0..paths).map(|_| rng.split()).collect();

        // One pattern and set of scatter maps for every chunk's block.
        let template = AssemblyWorkspace::new(mna, false, false, OrderingChoice::default());
        let n_chunks = paths.div_ceil(PATH_CHUNK);
        let chunk_meter = &run_meter;
        let chunks = try_par_map(n_chunks, self.opts.threads, |ci| {
            let lo = ci * PATH_CHUNK;
            let hi = paths.min(lo + PATH_CHUNK);
            self.simulate_chunk(
                mna,
                &template,
                c_lu.as_ref(),
                steps,
                &path_rngs[lo..hi],
                lo,
                variation.as_ref(),
                chunk_meter,
            )
        })?;

        // Order-deterministic reduction: Welford-merge chunk moments and
        // concatenate per-path maxima, both in chunk order.
        let mut moments = MomentBlock::new((steps + 1) * dim);
        let mut maxima: Vec<Vec<f64>> = (0..dim).map(|_| Vec::with_capacity(paths)).collect();
        for chunk in &chunks {
            moments.merge(&chunk.moments);
            for (i, m) in maxima.iter_mut().enumerate() {
                m.extend_from_slice(&chunk.maxima[i]);
            }
            stats.merge(&chunk.stats);
        }

        // Columns: every variable's mean, then every variable's std-dev,
        // read out of the time-major moments (`k * dim + i`).
        let moments = &moments;
        let envelope = |f: fn(&MomentBlock, usize) -> f64| {
            (0..dim).map(move |i| (0..=steps).map(|k| f(moments, k * dim + i)).collect())
        };
        let columns = envelope(MomentBlock::mean)
            .chain(envelope(MomentBlock::std_dev))
            .collect();
        let mut names = mna_var_names(mna);
        let std_names: Vec<String> = names.iter().map(|n| format!("std({n})")).collect();
        names.extend(std_names);

        stats.flops += flops;
        stats.steps = steps * paths;
        stats.elapsed = t0.elapsed();
        Ok(Dataset::new(
            AnalysisKind::Em,
            "em",
            Axis::Time(times),
            names,
            columns,
            stats,
        )
        .with_maxima(maxima))
    }

    /// Integrates a single realization along caller-provided Wiener paths
    /// (one per stochastic source, in binding order). This is how Figure 10
    /// compares EM against the exact solution *of the same path*.
    ///
    /// # Errors
    /// Fails when the number or shape of the paths does not match the
    /// circuit's noise sources.
    pub fn run_with_paths(&self, circuit: &Circuit, wieners: &[WienerPath]) -> Result<Dataset> {
        let t0 = Instant::now();
        let mna = MnaSystem::new(circuit)?;
        check_state_space(&mna)?;
        let noise_count = mna.noise_bindings().len();
        if wieners.len() != noise_count {
            return Err(SimError::InvalidConfig {
                context: format!(
                    "{} wiener paths supplied for {} stochastic sources",
                    wieners.len(),
                    noise_count
                ),
            });
        }
        let steps = wieners.first().map_or(0, WienerPath::steps);
        if steps == 0 || wieners.iter().any(|w| w.steps() != steps) {
            return Err(SimError::InvalidConfig {
                context: "wiener paths must be nonempty and equal length".into(),
            });
        }
        // Every path is integrated on one time grid, so their steps must
        // agree too.
        let dt = wieners[0].dt();
        if let Some(w) = wieners.iter().find(|w| w.dt() != dt) {
            return Err(SimError::InvalidConfig {
                context: format!(
                    "wiener paths must share one time step (dt {dt:e} and {:e})",
                    w.dt()
                ),
            });
        }
        let mut stats = EngineStats::new();
        let mut flops = FlopCounter::new();
        let dim = mna.dim();
        let mut run_meter = self.meter.fork();
        run_meter
            .charge_bytes(8 * (steps as u64 + 1) * (1 + dim as u64))
            .map_err(|stop| {
                SimError::budget_exceeded(stop, format!("em realization of {steps} steps"))
            })?;
        let c_lu = SparseLu::factor(mna.c_matrix(), &mut flops)?;
        let factors = Factors::PerPath(std::slice::from_ref(&c_lu));
        // The ensemble's kernel with one nominal path.
        let ws = AssemblyWorkspace::new(&mna, false, false, OrderingChoice::default());
        let mut block = PathBlock::new(&mna, ws, vec![1.0], dt);
        let mut columns: Vec<Vec<f64>> = block.x.iter().map(|&x| vec![x]).collect();
        let mut times = vec![0.0];
        for k in 0..steps {
            run_meter.checkpoint().map_err(|stop| {
                SimError::budget_exceeded(stop, format!("em realization at step {k}"))
            })?;
            let t = k as f64 * dt;
            for (dw, w) in block.dws.iter_mut().zip(wieners.iter()) {
                *dw = w.increment(k);
            }
            block.step(&mna, factors, t, &mut stats, &mut flops)?;
            times.push(t + dt);
            for (c, &x) in columns.iter_mut().zip(&block.x) {
                c.push(x);
            }
        }
        stats.steps = steps;
        stats.flops += flops;
        stats.elapsed = t0.elapsed();
        Ok(Dataset::new(
            AnalysisKind::Tran,
            "em",
            Axis::Time(times),
            mna_var_names(&mna),
            columns,
            stats,
        ))
    }

    /// Simulates one chunk of consecutive paths (global indices
    /// `lo..lo + path_rngs.len()`), streaming every sample into the chunk's
    /// time-major moments (`moments[k * dim + i]`) and per-path running
    /// maxima.
    ///
    /// The paths advance in **lockstep** through one [`PathBlock`]: at
    /// each time step every path draws its increments from its own
    /// generator, then the block assembles all right-hand sides and solves
    /// them together. Path `p` pushes its samples as sample `p + 1` of
    /// each accumulator, so every `(step, variable)` accumulator sees the
    /// paths in ascending order, exactly as if the paths were stepped one
    /// after another.
    ///
    /// With `variation` set the chunk factors its first path's capacitance
    /// matrix once, gives every path a values-only refactor of that
    /// template with its own values, and each step solves every path
    /// against its own factors — no refactor per path switch.
    #[allow(clippy::too_many_arguments)]
    fn simulate_chunk(
        &self,
        mna: &MnaSystem,
        template: &AssemblyWorkspace,
        c_lu: Option<&SparseLu>,
        steps: usize,
        path_rngs: &[Pcg64],
        lo: usize,
        variation: Option<&PathVariation>,
        meter: &BudgetMeter,
    ) -> Result<ChunkStats> {
        let dim = mna.dim();
        let npaths = path_rngs.len();
        let sqrt_dt = self.opts.dt.sqrt();
        let mut stats = EngineStats::new();
        let mut flops = FlopCounter::new();

        // Per-path C factors: path 0's factorization fixes the pivot order
        // and structure, and every path refactors a copy with its values,
        // written in turn into one scratch matrix on C's pattern.
        let path_lus = match variation {
            Some(var) => {
                let before = flops.total();
                let mut path_c = mna.c_matrix().clone();
                path_c.values_mut().copy_from_slice(var.path_c(lo));
                let template = SparseLu::factor_ordered(
                    &path_c,
                    OrderingChoice::Natural,
                    PivotStrategy::default(),
                    &mut flops,
                )?;
                let mut lus = vec![template; npaths];
                for (p, lu) in lus.iter_mut().enumerate() {
                    path_c.values_mut().copy_from_slice(var.path_c(lo + p));
                    let ratio = lu.refactor_tolerant(&path_c, &mut flops)?;
                    stats.min_recip_pivot = stats.min_recip_pivot.min(ratio);
                }
                stats.full_factors += 1;
                stats.batched_factors += 1;
                stats.factor_flops += flops.total() - before;
                Some(lus)
            }
            None => None,
        };
        let (factors, g_scale) = match (&path_lus, c_lu, variation) {
            (Some(lus), _, Some(var)) => {
                (Factors::PerPath(lus), var.g_scale[lo..lo + npaths].to_vec())
            }
            (None, Some(lu), _) => (Factors::Batched(lu), vec![1.0; npaths]),
            _ => unreachable!("run_mna() factors C when no per-path variation is set"),
        };
        let mut block = PathBlock::new(mna, template.clone(), g_scale, self.opts.dt);
        let noise = mna.noise_bindings().len();
        let mut rngs: Vec<Pcg64> = path_rngs.to_vec();
        let mut moments = MomentBlock::new(dim * (steps + 1));
        // Every path starts at `x = 0`, which is also its first maximum.
        let mut max_v = block.x.clone();
        for (p, x) in block.x.chunks_exact(dim).enumerate() {
            moments.push(p as u64 + 1, 0, x);
        }
        for k in 0..steps {
            // Deterministic budget checkpoint: once per lockstep time step.
            // `try_par_map` keeps the smallest failing chunk index, so a
            // tripped budget reports the same chunk at every worker count.
            meter.checkpoint().map_err(|stop| {
                SimError::budget_exceeded(stop, format!("em paths {lo}.. at step {k}"))
            })?;
            for (p, rng) in rngs.iter_mut().enumerate() {
                for dw in &mut block.dws[p * noise..(p + 1) * noise] {
                    *dw = sqrt_dt * rng.next_gaussian();
                }
            }
            let t = k as f64 * self.opts.dt;
            block.step(mna, factors, t, &mut stats, &mut flops)?;
            let row = (k + 1) * dim;
            for (p, (x, mv)) in block
                .x
                .chunks_exact(dim)
                .zip(max_v.chunks_exact_mut(dim))
                .enumerate()
            {
                moments.push(p as u64 + 1, row, x);
                for (m, &v) in mv.iter_mut().zip(x) {
                    // A select, not a branch: a rising path would
                    // mispredict it at random.
                    *m = if v > *m { v } else { *m };
                }
            }
        }
        let maxima = (0..dim)
            .map(|i| max_v.iter().skip(i).step_by(dim).copied().collect())
            .collect();
        stats.flops += flops;
        Ok(ChunkStats {
            moments,
            maxima,
            stats,
        })
    }
}

/// Checks that `mna` satisfies the EM engine's state-space restrictions.
///
/// # Errors
/// [`SimError::UnsupportedCircuit`] for a branch-current unknown or a node
/// without capacitance.
fn check_state_space(mna: &MnaSystem) -> Result<()> {
    if mna.num_branches() > 0 {
        return Err(SimError::UnsupportedCircuit {
            reason: "EM engine needs a pure state-space circuit: replace voltage sources \
                     with Norton equivalents and remove inductors"
                .into(),
        });
    }
    // Every node needs capacitance for C to be invertible.
    let caps = mna.node_capacitance();
    if let Some(j) = caps.iter().position(|&c| c <= 0.0) {
        let name = mna_var_names(mna)[j].clone();
        return Err(SimError::UnsupportedCircuit {
            reason: format!("node {name} has no capacitance; C must be nonsingular"),
        });
    }
    Ok(())
}

/// Per-path parameter realizations for [`EmOptions::param_spread`]: the
/// jittered capacitance values and conductance scale of every path, drawn
/// in path order from a dedicated seed-derived stream (independent of the
/// noise generators, so enabling spread never shifts the Wiener paths).
#[derive(Debug)]
struct PathVariation {
    /// Every path's values on the nominal `C` pattern, path-major (`nnz`
    /// per path): the structure is untouched, so each path's factors are a
    /// values-only refactor of one template.
    c_values: Vec<f64>,
    /// Stored entries of `C`.
    nnz: usize,
    /// Per-path conductance scale applied to `G·x` during RHS assembly.
    g_scale: Vec<f64>,
}

impl PathVariation {
    fn build(c: &CsrMatrix, paths: usize, spread: f64, seed: u64) -> Self {
        let mut rng = Pcg64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let nominal = c.values();
        let mut c_values = Vec::with_capacity(paths * nominal.len());
        let mut g_scale = Vec::with_capacity(paths);
        for _ in 0..paths {
            for &v in nominal {
                c_values.push(v * (1.0 + spread * rng.uniform(-1.0, 1.0)));
            }
            g_scale.push(1.0 + spread * rng.uniform(-1.0, 1.0));
        }
        PathVariation {
            c_values,
            nnz: nominal.len(),
            g_scale,
        }
    }

    /// Path `p`'s capacitance values, aligned with `C`'s stored entries.
    fn path_c(&self, p: usize) -> &[f64] {
        &self.c_values[p * self.nnz..(p + 1) * self.nnz]
    }
}

/// The factors a [`PathBlock`] solves against.
#[derive(Debug, Clone, Copy)]
enum Factors<'a> {
    /// Nominal `C`, shared: one multi-RHS solve advances the whole block.
    Batched(&'a SparseLu),
    /// One factorization per path, in path order.
    PerPath(&'a [SparseLu]),
}

/// The [`PATH_CHUNK`] values of entry `i` of an interleaved array. The
/// width is a compile-time constant, so a `G·x` row's accumulators stay in
/// registers.
fn lanes(v: &[f64], i: usize) -> &[f64; PATH_CHUNK] {
    v[i * PATH_CHUNK..(i + 1) * PATH_CHUNK]
        .try_into()
        .expect("PATH_CHUNK values")
}

/// A block of up to [`PATH_CHUNK`] paths advancing in lockstep: the time-step
/// kernel of every EM run. Per-path vectors are stored path-major (path
/// `p`'s `dim` values at `[p * dim..(p + 1) * dim]`), which is the
/// column-major block the multi-RHS solve takes.
///
/// Each [`PathBlock::step`] stamps `b(t)` once for the block, forms `G·x`
/// for every path in one walk of `G`'s CSR pattern with one accumulator
/// per path, and solves all right-hand sides. A path's arithmetic —
/// summation order included — is that of a lone path, so results do not
/// depend on the block size. The walk always runs [`PATH_CHUNK`] lanes
/// wide; the lanes of a smaller block hold zeros and are never read.
#[derive(Debug)]
struct PathBlock {
    /// Carries `G`'s pattern and restamps nonlinear circuits per path.
    ws: AssemblyWorkspace,
    /// The fixed step `Δt`.
    dt: f64,
    /// Whether `G` is the same for every path at every step: a circuit
    /// without nonlinear devices or MOSFETs.
    linear: bool,
    /// `G` values on the pattern: the one array of a linear circuit,
    /// stamped once; else every path's values at its state, interleaved
    /// (`g_vals[e * PATH_CHUNK + p]`).
    g_vals: Vec<f64>,
    /// Paths in the block.
    paths: usize,
    /// Per-path conductance spread factor (`1.0` when nominal).
    g_scale: Vec<f64>,
    /// `b(t)` of the current step, shared by every path.
    b: Vec<f64>,
    /// States, right-hand sides and updates, path-major.
    x: Vec<f64>,
    rhs: Vec<f64>,
    delta: Vec<f64>,
    /// The states interleaved (`xt[i * PATH_CHUNK + p]`), so one pattern entry
    /// meets every path's operand side by side.
    xt: Vec<f64>,
    /// Wiener increments, path-major, one per noise source.
    dws: Vec<f64>,
    /// `B`'s entries as `(source, row, coefficient)`, in source order.
    noise: Vec<(usize, usize, f64)>,
    /// One path's update and the solver scratch.
    path_delta: Vec<f64>,
    solve_work: Vec<f64>,
}

impl PathBlock {
    /// A block of `g_scale.len()` paths at `x = 0`, stepping by `dt` and
    /// assembling `G` in `ws`, a no-C workspace of `mna`. A circuit without
    /// nonlinear devices or MOSFETs has its `G` assembled here, once.
    fn new(mna: &MnaSystem, mut ws: AssemblyWorkspace, g_scale: Vec<f64>, dt: f64) -> Self {
        let (dim, npaths) = (mna.dim(), g_scale.len());
        assert!(
            npaths <= PATH_CHUNK,
            "{npaths} paths in a block of {PATH_CHUNK} lanes"
        );
        ws.begin();
        let linear = mna.nonlinear_bindings().is_empty() && mna.mosfet_bindings().is_empty();
        let g_vals = if linear {
            ws.matrix().values().to_vec()
        } else {
            vec![0.0; ws.matrix().nnz() * PATH_CHUNK]
        };
        let noise = mna.noise_bindings();
        PathBlock {
            ws,
            dt,
            linear,
            g_vals,
            paths: npaths,
            g_scale,
            b: vec![0.0; dim],
            x: vec![0.0; dim * npaths],
            rhs: vec![0.0; dim * npaths],
            delta: Vec::with_capacity(dim * npaths),
            xt: vec![0.0; dim * PATH_CHUNK],
            dws: vec![0.0; noise.len() * npaths],
            noise: noise
                .iter()
                .enumerate()
                .flat_map(|(s, nb)| nb.rows.iter().map(move |&(row, coeff)| (s, row, coeff)))
                .collect(),
            path_delta: Vec::with_capacity(dim),
            solve_work: Vec::with_capacity(dim),
        }
    }

    /// One EM step of every path in place,
    /// `x += C⁻¹·[(b(t) - g_scale·G(x)·x)·dt + B·dW]`, with the increments
    /// already in `dws`. Zero heap allocations after the first step.
    fn step(
        &mut self,
        mna: &MnaSystem,
        factors: Factors<'_>,
        t: f64,
        stats: &mut EngineStats,
        flops: &mut FlopCounter,
    ) -> Result<()> {
        self.stamp_g(mna, stats, flops);
        self.assemble_rhs(mna, t, flops);
        let (dim, npaths) = (self.b.len(), self.paths);
        match factors {
            Factors::Batched(lu) => lu.solve_many_into(
                &self.rhs,
                npaths,
                &mut self.delta,
                &mut self.solve_work,
                flops,
            )?,
            Factors::PerPath(lus) => {
                self.delta.resize(dim * npaths, 0.0);
                let paths = self
                    .rhs
                    .chunks_exact(dim)
                    .zip(self.delta.chunks_exact_mut(dim));
                for (lu, (rhs, delta)) in lus.iter().zip(paths) {
                    lu.solve_into(rhs, &mut self.path_delta, &mut self.solve_work, flops)?;
                    delta.copy_from_slice(&self.path_delta);
                }
            }
        }
        stats.linear_solves += npaths as u64;
        for (x, d) in self.x.iter_mut().zip(&self.delta) {
            *x += d;
        }
        flops.add(self.x.len() as u64);
        Ok(())
    }

    /// Restamps every path's `G` at its current state (linear + SWEC
    /// conductances); a linear circuit's `G` never changes.
    fn stamp_g(&mut self, mna: &MnaSystem, stats: &mut EngineStats, flops: &mut FlopCounter) {
        if self.linear {
            return;
        }
        let dim = self.b.len();
        for (p, x) in self.x.chunks_exact(dim).enumerate() {
            stats.device_evals += self.ws.stamp_geq(mna, x, flops);
            for (e, &v) in self.ws.matrix().values().iter().enumerate() {
                self.g_vals[e * PATH_CHUNK + p] = v;
            }
        }
    }

    /// Assembles every path's `rhs = (b(t) - g_scale·G·x)·dt + B·dW`:
    /// `b(t)` is stamped once, and one walk of `G`'s pattern forms all the
    /// paths' `G·x` rows, each summed in the order of a lone matvec.
    fn assemble_rhs(&mut self, mna: &MnaSystem, t: f64, flops: &mut FlopCounter) {
        let (dim, npaths) = (self.b.len(), self.paths);
        mna.stamp_rhs(t, &mut self.b);
        for (p, x) in self.x.chunks_exact(dim).enumerate() {
            for (i, &v) in x.iter().enumerate() {
                self.xt[i * PATH_CHUNK + p] = v;
            }
        }
        let (row_ptr, col_idx) = self.ws.matrix().structure();
        for (r, &b) in self.b.iter().enumerate() {
            let mut acc = [0.0; PATH_CHUNK];
            let entries = row_ptr[r]..row_ptr[r + 1];
            if self.linear {
                for (&g, &c) in self.g_vals[entries.clone()].iter().zip(&col_idx[entries]) {
                    for (a, &x) in acc.iter_mut().zip(lanes(&self.xt, c)) {
                        *a += g * x;
                    }
                }
            } else {
                for (e, &c) in entries.clone().zip(&col_idx[entries]) {
                    let (gs, xs) = (lanes(&self.g_vals, e), lanes(&self.xt, c));
                    for ((a, &g), &x) in acc.iter_mut().zip(gs).zip(xs) {
                        *a += g * x;
                    }
                }
            }
            // `g_scale` has one entry per live path: dead lanes stop here.
            for (p, (&a, &g)) in acc.iter().zip(&self.g_scale).enumerate() {
                // `1.0 * x == x` bitwise, so nominal paths are unchanged.
                self.rhs[p * dim + r] = (b - g * a) * self.dt;
            }
        }
        let scaled = self.g_scale.iter().filter(|&&g| g != 1.0).count();
        flops.fma(((col_idx.len() + dim + self.noise.len()) * npaths) as u64);
        flops.mul((dim * scaled) as u64);
        let sources = self.dws.len() / npaths;
        for (p, rhs) in self.rhs.chunks_exact_mut(dim).enumerate() {
            let dws = &self.dws[p * sources..(p + 1) * sources];
            for &(s, row, coeff) in &self.noise {
                rhs[row] += coeff * dws[s];
            }
        }
    }
}

/// One chunk's contribution to the ensemble reduction.
#[derive(Debug)]
struct ChunkStats {
    /// Time-major `(steps + 1) x dim` Welford moments.
    moments: MomentBlock,
    /// Per-variable running maxima, one entry per path in the chunk.
    maxima: Vec<Vec<f64>>,
    /// Work accounting of the chunk.
    stats: EngineStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Analysis, Simulator};
    use nanosim_devices::sources::SourceWaveform;
    use nanosim_sde::ou::OrnsteinUhlenbeck;

    /// Noisy RC node: g = 1 mS, c = 1 pF, mean drive 0, noise intensity
    /// sigma_i.
    fn noisy_rc(sigma_i: f64, i_dc: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let n = ckt.node("v");
        ckt.add_current_source(
            "In",
            Circuit::GROUND,
            n,
            SourceWaveform::white_noise(i_dc, sigma_i).unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", n, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor("C1", n, Circuit::GROUND, 1e-12).unwrap();
        ckt
    }

    fn ou_equivalent(sigma_i: f64, i_dc: f64) -> OrnsteinUhlenbeck {
        // theta = G/C, mu = i_dc/G, sigma = sigma_i/C.
        OrnsteinUhlenbeck::from_rc_node(1e-3, 1e-12, i_dc, sigma_i)
    }

    #[test]
    fn rejects_unsupported_circuits() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.add_capacitor("C1", a, Circuit::GROUND, 1e-12).unwrap();
        let e = EmEngine::new(EmOptions::default());
        assert!(matches!(
            e.run(&ckt, 1e-9),
            Err(SimError::UnsupportedCircuit { .. })
        ));
        // Node without capacitance.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_current_source("I1", Circuit::GROUND, a, SourceWaveform::dc(1e-3))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        assert!(matches!(
            e.run(&ckt, 1e-9),
            Err(SimError::UnsupportedCircuit { .. })
        ));
    }

    #[test]
    fn invalid_options_rejected() {
        let ckt = noisy_rc(1e-9, 0.0);
        let e = EmEngine::new(EmOptions {
            dt: 0.0,
            ..EmOptions::default()
        });
        assert!(e.run(&ckt, 1e-9).is_err());
        let e = EmEngine::new(EmOptions {
            paths: 0,
            ..EmOptions::default()
        });
        assert!(e.run(&ckt, 1e-9).is_err());
        let e = EmEngine::new(EmOptions {
            param_spread: 1.0,
            ..EmOptions::default()
        });
        assert!(e.run(&ckt, 1e-9).is_err());
        let e = EmEngine::new(EmOptions {
            param_spread: -0.1,
            ..EmOptions::default()
        });
        assert!(e.run(&ckt, 1e-9).is_err());
    }

    #[test]
    fn param_spread_batches_factors_and_stays_thread_deterministic() {
        // 21 paths over PATH_CHUNK=8 -> 3 chunks, each factoring its lanes
        // against one template. The chunk decomposition depends only on
        // path indices, so the spread ensemble is bit-identical at every
        // worker count, exactly like the nominal path. A coupling cap makes
        // C non-diagonal so the lane refactors do real elimination work.
        let mut ckt = noisy_rc(1e-9, 1e-3);
        let n = ckt.node("v");
        let n2 = ckt.node("v2");
        ckt.add_capacitor("Cc", n, n2, 2e-13).unwrap();
        ckt.add_capacitor("C2", n2, Circuit::GROUND, 1e-12).unwrap();
        ckt.add_resistor("R2", n2, Circuit::GROUND, 1e3).unwrap();
        let opts = EmOptions {
            dt: 5e-12,
            paths: 21,
            seed: 77,
            threads: 1,
            param_spread: 0.05,
        };
        let serial = EmEngine::new(opts.clone()).run(&ckt, 1e-10).unwrap();
        assert_eq!(serial.stats.batched_factors, 3);
        assert_eq!(serial.stats.full_factors, 3);
        assert!(serial.stats.factor_flops > 0);
        // Spread jitters C and scales G per path: with drive the paths now
        // disagree even before noise does.
        let sd = serial.std_curve("v").unwrap();
        assert!(sd.final_value() > 0.0);
        for threads in [2, 3, 8] {
            let par = EmEngine::new(EmOptions {
                threads,
                ..opts.clone()
            })
            .run(&ckt, 1e-10)
            .unwrap();
            for name in par.names() {
                let (a, b) = (serial.column(name), par.column(name));
                assert_eq!(a, b, "threads={threads} {name}");
            }
        }
    }

    #[test]
    fn zero_spread_is_bitwise_nominal() {
        // `param_spread: 0.0` must take the shared-factor path and produce
        // exactly the stats/values of a build without the feature.
        let ckt = noisy_rc(2e-9, 0.0);
        let opts = EmOptions {
            dt: 5e-12,
            paths: 9,
            seed: 5,
            ..EmOptions::default()
        };
        let r = EmEngine::new(opts).run(&ckt, 1e-10).unwrap();
        assert_eq!(r.stats.batched_factors, 0);
        assert_eq!(r.stats.full_factors, 0);
    }

    #[test]
    fn ensemble_statistics_match_ou_theory() {
        // Var[X(t)] -> sigma^2/(2 theta); tau = 1 ns, run 3 tau.
        let sigma_i = 2e-9; // A sqrt(s)
        let ckt = noisy_rc(sigma_i, 0.0);
        let engine = EmEngine::new(EmOptions {
            dt: 5e-12,
            paths: 400,
            seed: 42,
            ..EmOptions::default()
        });
        let r = engine.run(&ckt, 3e-9).unwrap();
        let ou = ou_equivalent(sigma_i, 0.0);
        let sd = r.std_curve("v").unwrap();
        let expected_sd = ou.variance(3e-9).sqrt();
        let got = sd.final_value();
        assert!(
            (got - expected_sd).abs() < 0.15 * expected_sd,
            "sd {got} vs {expected_sd}"
        );
        // Mean stays near zero.
        let mean = r.curve("v").unwrap();
        assert!(mean.final_value().abs() < 0.2 * expected_sd);
        assert_eq!(r.paths(), 400);
    }

    #[test]
    fn deterministic_drive_reaches_dc_level() {
        // i_dc = 1 mA into 1 kOhm -> 1 V, no noise.
        let ckt = noisy_rc(0.0, 1e-3);
        let engine = EmEngine::new(EmOptions {
            dt: 5e-12,
            paths: 3,
            ..EmOptions::default()
        });
        let r = engine.run(&ckt, 5e-9).unwrap();
        let mean = r.curve("v").unwrap();
        assert!(
            (mean.final_value() - 1.0).abs() < 0.02,
            "{}",
            mean.final_value()
        );
        // All paths identical without noise.
        let sd = r.std_curve("v").unwrap();
        assert!(sd.final_value() < 1e-12);
    }

    #[test]
    fn em_path_matches_ou_em_on_same_wiener_path() {
        // Integrating the circuit along an explicit Wiener path must equal
        // the scalar OU EM integration of the same path (the engine *is*
        // that equation in matrix form).
        let sigma_i = 1e-9;
        let ckt = noisy_rc(sigma_i, 0.0);
        let engine = EmEngine::new(EmOptions {
            dt: 1e-12,
            ..EmOptions::default()
        });
        let mut rng = Pcg64::seed_from_u64(7);
        let path = WienerPath::generate(1e-9, 1000, &mut rng);
        let r = engine.run_with_paths(&ckt, &[path.clone()]).unwrap();
        let ou = ou_equivalent(sigma_i, 0.0);
        let scalar = ou.em_path(0.0, &path);
        let circuit_v = r.column("v").unwrap();
        for (a, b) in circuit_v.iter().zip(scalar.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn run_with_paths_validates_shape() {
        let ckt = noisy_rc(1e-9, 0.0);
        let engine = EmEngine::new(EmOptions::default());
        assert!(engine.run_with_paths(&ckt, &[]).is_err());
        let mut rng = Pcg64::seed_from_u64(1);
        let p1 = WienerPath::generate(1e-9, 100, &mut rng);
        let p2 = WienerPath::generate(1e-9, 50, &mut rng);
        assert!(engine.run_with_paths(&ckt, &[p1.clone(), p2]).is_err());
        assert!(engine.run_with_paths(&ckt, &[p1]).is_ok());
    }

    #[test]
    fn run_with_paths_rejects_paths_on_different_time_steps() {
        // Two noise sources whose paths have equal step counts but cover
        // different horizons: integrating both at the first path's dt
        // would silently rescale the second path's increments.
        let mut ckt = noisy_rc(1e-9, 0.0);
        let v = ckt.node("v");
        ckt.add_current_source(
            "In2",
            Circuit::GROUND,
            v,
            SourceWaveform::white_noise(0.0, 1e-9).unwrap(),
        )
        .unwrap();
        let engine = EmEngine::new(EmOptions::default());
        let mut rng = Pcg64::seed_from_u64(3);
        let p1 = WienerPath::generate(1e-9, 100, &mut rng);
        let p2 = WienerPath::generate(2e-9, 100, &mut rng);
        let err = engine
            .run_with_paths(&ckt, &[p1.clone(), p2])
            .expect_err("paths on different time steps");
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("time step"), "{err}");
        let p3 = WienerPath::generate(1e-9, 100, &mut rng);
        assert!(engine.run_with_paths(&ckt, &[p1, p3]).is_ok());
    }

    #[test]
    fn peak_summary_and_exceedance() {
        let ckt = noisy_rc(2e-9, 0.0);
        let engine = EmEngine::new(EmOptions {
            dt: 5e-12,
            paths: 100,
            seed: 9,
            ..EmOptions::default()
        });
        let r = engine.run(&ckt, 2e-9).unwrap();
        let peak = r.peak_summary("v").unwrap();
        assert!(peak.mean_peak > 0.0, "noise pushes the max above 0");
        assert!(peak.p95_peak >= peak.mean_peak);
        assert!(peak.worst_peak >= peak.p95_peak);
        let p_low = r.exceedance("v", 0.0).unwrap();
        assert!(p_low > 0.9, "almost every path exceeds 0 at some point");
        let p_high = r.exceedance("v", peak.worst_peak * 1.01).unwrap();
        assert_eq!(p_high, 0.0);
        assert!(r.peak_summary("zz").is_none());
    }

    #[test]
    fn nonlinear_devices_enter_through_swec_geq() {
        // A noisy node loaded by an RTD: "Since G is time variant, Equation
        // (13) also includes cases with the nonlinear nanodevices" (§4.1).
        // Drive the node near 1 V where the RTD conducts strongly; the
        // mean must settle where I_rtd(v) + v/R = i_dc, which it only does
        // because `Geq` is re-evaluated at every step.
        use nanosim_devices::rtd::Rtd;
        use nanosim_devices::traits::NonlinearTwoTerminal as _;
        let mut ckt = Circuit::new();
        let n = ckt.node("v");
        ckt.add_current_source(
            "In",
            Circuit::GROUND,
            n,
            SourceWaveform::white_noise(8e-3, 1e-9).unwrap(),
        )
        .unwrap();
        ckt.add_rtd("X1", n, Circuit::GROUND, Rtd::date2005())
            .unwrap();
        ckt.add_resistor("R1", n, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor("C1", n, Circuit::GROUND, 1e-12).unwrap();
        let engine = EmEngine::new(EmOptions {
            dt: 2e-12,
            paths: 60,
            seed: 11,
            ..EmOptions::default()
        });
        let r = engine.run(&ckt, 3e-9).unwrap();
        // One `Geq` evaluation per path per step.
        assert_eq!(r.stats.device_evals, r.stats.steps as u64);
        let v_end = r.curve("v").unwrap().final_value();
        // Self-consistency of the mean operating point.
        let mut f = nanosim_numeric::FlopCounter::new();
        let residual = Rtd::date2005().current(v_end, &mut f) + v_end / 1e3 - 8e-3;
        assert!(
            residual.abs() < 8e-4,
            "operating point residual {residual} at v = {v_end}"
        );
    }

    #[test]
    fn ensemble_never_integrates_past_the_horizon() {
        let ckt = noisy_rc(1e-9, 0.0);
        let run = |horizon: f64, dt: f64| {
            let engine = EmEngine::new(EmOptions {
                dt,
                paths: 2,
                ..EmOptions::default()
            });
            engine.run(&ckt, horizon).unwrap()
        };
        // A dt that does not divide the horizon stops at the last whole
        // step before it: 1 ns in steps of 0.4 ns ends at 0.8 ns.
        let r = run(1e-9, 0.4e-9);
        assert_eq!(r.stats.steps, 2 * 2);
        assert_eq!(r.axis_values(), &[0.0, 0.4e-9, 0.8e-9]);
        let opts = EmOptions {
            dt: 0.4e-9,
            paths: 2,
            ..EmOptions::default()
        };
        let mut sim = Simulator::new(ckt.clone()).unwrap();
        let ds = sim.run(Analysis::em_ensemble(1e-9).options(opts)).unwrap();
        assert_eq!(ds.axis_values(), r.axis_values());
        // Whole step counts are kept despite rounding in horizon / dt.
        for (dt, steps) in [(1e-11, 100), (1e-12, 1000), (5e-12, 200)] {
            let r = run(1e-9, dt);
            assert_eq!(r.points(), steps + 1, "dt {dt}");
            assert!(*r.axis_values().last().unwrap() <= 1e-9 * (1.0 + 1e-9));
        }
    }
}
