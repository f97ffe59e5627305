//! Shared matrix-assembly state used by every engine.
//!
//! Every engine runs on one [`MnaSystem`]: its variable numbering, its
//! stamped linear `G` and its `C` (triplets and CSR). The session builds
//! that system once, lints it, and hands it to every analysis.
//! [`AssemblyWorkspace`] holds the per-run mutable state that makes the hot
//! loops allocation-free: a CSR matrix whose sparsity pattern is
//! [`MnaSystem::system_pattern`] (linear G + every possible device stamp +
//! optionally C — the pattern the preflight rank pass matches over too),
//! built **once per circuit**, value-scatter maps from each device to its
//! slots in that pattern, a cached LU factorization that is *refactored*
//! (values-only) instead of re-analyzed every solve, and reusable
//! right-hand-side/solution buffers.

use nanosim_circuit::mna::MosfetBinding;
use nanosim_circuit::{Circuit, MnaSystem};
use nanosim_numeric::solve::{LuStats, SparseLuSolver};
use nanosim_numeric::sparse::{CsrMatrix, OrderingChoice};
use nanosim_numeric::{BudgetMeter, FaultPlan, FlopCounter};

/// Conductance (S) every engine adds in parallel with each nonlinear
/// device and MOSFET channel (SPICE gmin), keeping matrices nonsingular
/// when a device cuts off.
pub(crate) const GMIN: f64 = 1e-12;

/// Smallest time step (s) of the transient engines: the Newton/MLA and PWL
/// step-halving floor, and the default of [`crate::swec::SwecOptions`]'s
/// `h_min`.
pub(crate) const H_MIN: f64 = 1e-18;

/// Absolute node-voltage tolerance (V): the floor of the Newton
/// convergence and cycle tests and of the SWEC local-error test.
pub(crate) const V_ABSTOL: f64 = 1e-6;

/// Value-slot indices of one two-terminal conductance stamp
/// (`+g` at `(p,p)`/`(m,m)`, `-g` at `(p,m)`/`(m,p)`); `None` = grounded
/// terminal, no slot.
#[derive(Debug, Clone, Copy, Default)]
struct CondSites {
    pp: Option<usize>,
    pm: Option<usize>,
    mp: Option<usize>,
    mm: Option<usize>,
}

impl CondSites {
    fn lookup(a: &CsrMatrix, p: Option<usize>, m: Option<usize>) -> CondSites {
        let (pm, mp) = match (p, m) {
            (Some(i), Some(j)) => (Some(slot(a, i, j)), Some(slot(a, j, i))),
            _ => (None, None),
        };
        CondSites {
            pp: p.map(|i| slot(a, i, i)),
            pm,
            mp,
            mm: m.map(|i| slot(a, i, i)),
        }
    }
}

/// Value-slot indices of one MOSFET's stamps: the drain–source conductance
/// plus (when Newton transconductance stamps are enabled) the `gm` entries
/// at `(d,g)`, `(d,s)`, `(s,g)`, `(s,s)`.
#[derive(Debug, Clone, Copy, Default)]
struct MosSites {
    cond: CondSites,
    dg: Option<usize>,
    ds: Option<usize>,
    sg: Option<usize>,
    ss: Option<usize>,
}

fn slot(a: &CsrMatrix, r: usize, c: usize) -> usize {
    a.position(r, c)
        .expect("stamp site present in prebuilt pattern")
}

/// Per-run assembly + solve state: a prebuilt sparsity pattern re-stamped in
/// place, a pattern-reusing cached LU, and reusable vectors. After the first
/// solve, one `begin → stamp → solve` cycle performs zero heap allocations.
#[derive(Debug, Clone)]
pub(crate) struct AssemblyWorkspace {
    /// The pattern, its linear-G values and the stamp-site maps.
    parts: PatternParts,
    /// Caching sparse solver (factor once, refactor on same pattern).
    solver: SparseLuSolver,
    /// Armed fault-injection plan: advanced once per factor-solve, right
    /// after assembly and before factorization (so injected faults hit the
    /// exact matrix the solver sees). `None` — the production default —
    /// costs one branch per solve.
    fault: Option<FaultPlan>,
    /// The device currents of the most recent [`Self::stamp_geq`].
    currents: Vec<Option<f64>>,
}

/// The value-and-scatter half of a workspace: everything derived from the
/// MNA system except the caching solver. Split out so
/// [`AssemblyWorkspace::rebind`] can rebuild it for a same-pattern circuit
/// while the solver (and its symbolic analysis) survives.
#[derive(Debug, Clone)]
struct PatternParts {
    /// The system matrix; pattern fixed, values rewritten per assembly.
    a: CsrMatrix,
    /// Linear-G values aligned with `a`'s value slots (structural zeros at
    /// device/C sites).
    base_vals: Vec<f64>,
    /// `(slot, c)` pairs; `add_c_over_h` adds `c/h` at each slot.
    c_sites: Vec<(usize, f64)>,
    /// Stamp sites per nonlinear two-terminal binding.
    nl_sites: Vec<CondSites>,
    /// Stamp sites per MOSFET binding.
    mos_sites: Vec<MosSites>,
}

impl PatternParts {
    fn build(mna: &MnaSystem, with_mos_gm: bool, with_c: bool) -> Self {
        let a = mna.system_pattern(with_mos_gm, with_c);
        let base_vals = a.values().to_vec();

        let c_sites = if with_c {
            // Duplicate C triplets at one position are pre-summed so the
            // per-step loop touches each slot once.
            let mut summed: Vec<(usize, f64)> = Vec::new();
            for &(r, c, v) in mna.c_triplets().iter() {
                let s = slot(&a, r, c);
                match summed.iter_mut().find(|(slot, _)| *slot == s) {
                    Some((_, acc)) => *acc += v,
                    None => summed.push((s, v)),
                }
            }
            summed
        } else {
            Vec::new()
        };
        let nl_sites = mna
            .nonlinear_bindings()
            .iter()
            .map(|b| CondSites::lookup(&a, b.var_plus, b.var_minus))
            .collect();
        let mos_sites = mna
            .mosfet_bindings()
            .iter()
            .map(|m| {
                let cond = CondSites::lookup(&a, m.var_drain, m.var_source);
                let mut sites = MosSites {
                    cond,
                    ..MosSites::default()
                };
                if with_mos_gm {
                    if let Some(d) = m.var_drain {
                        sites.dg = m.var_gate.map(|g| slot(&a, d, g));
                        sites.ds = m.var_source.map(|s| slot(&a, d, s));
                    }
                    if let Some(s) = m.var_source {
                        sites.sg = m.var_gate.map(|g| slot(&a, s, g));
                        sites.ss = Some(slot(&a, s, s));
                    }
                }
                sites
            })
            .collect();

        PatternParts {
            a,
            base_vals,
            c_sites,
            nl_sites,
            mos_sites,
        }
    }
}

impl AssemblyWorkspace {
    /// Builds the workspace for an MNA system. `with_mos_gm` reserves slots
    /// for the Newton transconductance stamps (NR/MLA engines); `with_c`
    /// merges the C pattern into the matrix so `G + C/h` systems assemble in
    /// place (transient engines); `ordering` selects the fill-reducing
    /// ordering the embedded sparse solver applies inside its cached
    /// symbolic analysis (the scatter maps are in original numbering either
    /// way — the solver permutes on scatter-in/solve-out, so per-step
    /// assembly stays zero-alloc and ordering-agnostic).
    pub fn new(mna: &MnaSystem, with_mos_gm: bool, with_c: bool, ordering: OrderingChoice) -> Self {
        AssemblyWorkspace {
            parts: PatternParts::build(mna, with_mos_gm, with_c),
            solver: SparseLuSolver::with_ordering(ordering),
            fault: None,
            currents: Vec::new(),
        }
    }

    /// Rebinds the workspace to a *different circuit with the same sparsity
    /// pattern*: rebuilds the base values and scatter maps from `mna`
    /// (built with the same `with_mos_gm`/`with_c` flags as this workspace)
    /// while keeping the cached solver — and with it the symbolic analysis
    /// and pivot order — alive, so the next solve refactors instead of
    /// re-analyzing. Returns `false` (workspace untouched) when the new
    /// pattern differs; the caller must then build a fresh workspace.
    pub fn rebind(&mut self, mna: &MnaSystem, with_mos_gm: bool, with_c: bool) -> bool {
        let parts = PatternParts::build(mna, with_mos_gm, with_c);
        if parts.a.structure() != self.parts.a.structure() {
            return false;
        }
        self.parts = parts;
        true
    }

    /// Arms a deterministic fault-injection plan: each subsequent
    /// factor-solve advances the plan by one call, applying whatever
    /// faults are scheduled at that call number. Cloning the workspace
    /// clones the plan's position, so sharded sweeps replay the same fault
    /// schedule per chunk at every worker count.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The armed fault plan, if any (for inspecting injected/missed
    /// counters after a run).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Advances the armed fault plan (if any) against the assembled
    /// matrix, returning an error for a scheduled singular pivot.
    fn apply_faults(&mut self) -> nanosim_numeric::Result<()> {
        if let Some(plan) = &mut self.fault {
            let action = plan.advance(&mut self.parts.a);
            if let Some(pivot) = action.singular_pivot {
                return Err(nanosim_numeric::NumericError::SingularMatrix { pivot });
            }
            if action.degrade {
                self.solver.force_degraded();
            }
        }
        Ok(())
    }

    /// Starts a fresh assembly: resets the matrix values to the linear part
    /// of `G` (device and C slots back to zero).
    pub fn begin(&mut self) {
        self.parts
            .a
            .values_mut()
            .copy_from_slice(&self.parts.base_vals);
    }

    /// Adds conductance `g` across nonlinear binding `i`'s terminals.
    pub fn stamp_nonlinear(&mut self, i: usize, g: f64) {
        Self::stamp_cond(self.parts.a.values_mut(), &self.parts.nl_sites[i], g);
    }

    /// Adds conductance `g` across MOSFET `k`'s drain–source terminals.
    pub fn stamp_mosfet_cond(&mut self, k: usize, g: f64) {
        let sites = self.parts.mos_sites[k].cond;
        Self::stamp_cond(self.parts.a.values_mut(), &sites, g);
    }

    /// Starts a fresh assembly and stamps every nonlinear device's and
    /// MOSFET's SWEC conductance `Geq` at state `x`, each plus [`GMIN`].
    /// Returns the number of device evaluations.
    ///
    /// Each `Geq = I(v)/v` is formed from one current evaluation, and the
    /// workspace keeps those currents until the next stamp (see
    /// [`Self::take_currents`]): one per device in [`sweep_column_names`]
    /// order (two-terminals, then MOSFETs), bit for bit the device's
    /// `current`/`ids` at `x`. A device whose stamp took the `v -> 0`
    /// limit, which evaluates no current, keeps `None`.
    pub fn stamp_geq(&mut self, mna: &MnaSystem, x: &[f64], flops: &mut FlopCounter) -> u64 {
        let n = mna.nonlinear_bindings().len() + mna.mosfet_bindings().len();
        self.begin();
        self.currents.clear();
        self.currents.reserve(n);
        for (i, b) in mna.nonlinear_bindings().iter().enumerate() {
            let v = branch_voltage(x, b.var_plus, b.var_minus);
            let (geq, current) = b.device.equivalent_conductance_and_current(v, flops);
            self.stamp_nonlinear(i, geq + GMIN);
            self.currents.push(current);
        }
        for (k, m) in mna.mosfet_bindings().iter().enumerate() {
            let (vgs, vds) = mosfet_bias(m, x);
            let (geq, current) = m.model.geq_and_ids(vgs, vds, flops);
            self.stamp_mosfet_cond(k, geq + GMIN);
            self.currents.push(current);
        }
        n as u64
    }

    /// Moves the currents of the most recent [`Self::stamp_geq`] into
    /// `out` by swapping buffers, so neither allocates once both are sized.
    pub fn take_currents(&mut self, out: &mut Vec<Option<f64>>) {
        std::mem::swap(&mut self.currents, out);
    }

    /// Adds the Newton transconductance stamps of MOSFET `k` (requires the
    /// workspace to have been built `with_mos_gm`).
    pub fn stamp_mosfet_gm(&mut self, k: usize, gm: f64) {
        let sites = self.parts.mos_sites[k];
        let vals = self.parts.a.values_mut();
        if let Some(p) = sites.dg {
            vals[p] += gm;
        }
        if let Some(p) = sites.ds {
            vals[p] -= gm;
        }
        if let Some(p) = sites.sg {
            vals[p] -= gm;
        }
        if let Some(p) = sites.ss {
            vals[p] += gm;
        }
    }

    fn stamp_cond(vals: &mut [f64], sites: &CondSites, g: f64) {
        if let Some(p) = sites.pp {
            vals[p] += g;
        }
        if let Some(p) = sites.mm {
            vals[p] += g;
        }
        if let Some(p) = sites.pm {
            vals[p] -= g;
        }
        if let Some(p) = sites.mp {
            vals[p] -= g;
        }
    }

    /// Adds conductance `g` on the diagonal of the first `rows` rows (the
    /// node rows) wherever the pattern has a diagonal slot — the shunt
    /// behind the rescue ladder's gmin-stepping and pseudo-transient
    /// rungs. Rows without a diagonal slot (possible for a node touched
    /// only by branch-current constraints) are skipped, which is safe: the
    /// shunt is a regularization aid, not a correctness requirement.
    pub fn stamp_diag_shunt(&mut self, rows: usize, g: f64) {
        for r in 0..rows.min(self.parts.a.rows()) {
            if let Some(p) = self.parts.a.position(r, r) {
                self.parts.a.values_mut()[p] += g;
            }
        }
    }

    /// Adds `C/h` over the merged C pattern (requires `with_c`).
    pub fn add_c_over_h(&mut self, h: f64, flops: &mut FlopCounter) {
        let vals = self.parts.a.values_mut();
        for &(s, c) in &self.parts.c_sites {
            vals[s] += c / h;
        }
        flops.div(self.parts.c_sites.len() as u64);
    }

    /// Scales every assembled value by `alpha` (trapezoidal's `G/2`).
    pub fn scale_values(&mut self, alpha: f64, flops: &mut FlopCounter) {
        for v in self.parts.a.values_mut() {
            *v *= alpha;
        }
        flops.mul(self.parts.a.nnz() as u64);
    }

    /// The assembled matrix (for matvec products against the current state).
    pub fn matrix(&self) -> &CsrMatrix {
        &self.parts.a
    }

    /// Snapshots the assembled values into `out` (e.g. the G-only values
    /// before `C/h` is added).
    pub fn snapshot_values(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(self.parts.a.values());
    }

    /// Accumulates `y += alpha · A(vals)·x` where `vals` is a value snapshot
    /// over this workspace's pattern.
    pub fn matvec_acc_with(
        &self,
        vals: &[f64],
        alpha: f64,
        x: &[f64],
        y: &mut [f64],
        flops: &mut FlopCounter,
    ) {
        let (row_ptr, col_idx) = self.parts.a.structure();
        debug_assert_eq!(vals.len(), col_idx.len());
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for p in row_ptr[r]..row_ptr[r + 1] {
                acc += vals[p] * x[col_idx[p]];
            }
            *yr += alpha * acc;
        }
        flops.fma(vals.len() as u64 + y.len() as u64);
    }

    /// Per-row sums of `|A(vals)|` over the first `out.len()` rows (the RC
    /// time-step constraint of the SWEC controller).
    pub fn row_abs_sums(&self, vals: &[f64], out: &mut [f64]) {
        let (row_ptr, _) = self.parts.a.structure();
        for (r, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for p in row_ptr[r]..row_ptr[r + 1] {
                acc += vals[p].abs();
            }
            *o = acc;
        }
    }

    /// Factors (or refactors, when the cached symbolic analysis applies) the
    /// assembled matrix and solves into `x`.
    ///
    /// # Errors
    /// Propagates singular-matrix errors from the factorization.
    pub fn factor_solve(
        &mut self,
        rhs: &[f64],
        x: &mut Vec<f64>,
        flops: &mut FlopCounter,
    ) -> nanosim_numeric::Result<()> {
        self.apply_faults()?;
        self.solver.solve_into(&self.parts.a, rhs, x, flops)
    }

    /// Batched variant of [`AssemblyWorkspace::factor_solve`]: one factor
    /// (or refactor) of the assembled matrix serves `nrhs` right-hand
    /// sides given column-major in `rhs` (`rhs[j*n..][..n]` is column
    /// `j`), solutions written column-major into `x`. The solver walks the
    /// factor structure once for the whole block; results are
    /// bit-identical to `nrhs` separate [`AssemblyWorkspace::factor_solve`]
    /// calls on the same assembled values.
    ///
    /// # Errors
    /// Propagates singular-matrix errors and shape mismatches.
    pub fn factor_solve_many(
        &mut self,
        rhs: &[f64],
        nrhs: usize,
        x: &mut Vec<f64>,
        flops: &mut FlopCounter,
    ) -> nanosim_numeric::Result<()> {
        self.apply_faults()?;
        self.solver
            .solve_many_into(&self.parts.a, rhs, nrhs, x, flops)
    }

    /// Cumulative sparse-LU telemetry of the embedded solver: factor /
    /// refactor counts, the flop split between them, and the fill of the
    /// cached analysis. Engines delta-account this into
    /// [`crate::report::EngineStats`] via
    /// [`crate::report::EngineStats::absorb_lu`].
    pub fn lu_stats(&self) -> LuStats {
        self.solver.lu_stats()
    }

    /// Name of the fill ordering the solver applies ("natural" or "amd";
    /// the configured tag while cold).
    pub fn ordering_name(&self) -> &'static str {
        self.solver.ordering_name()
    }
}

/// Names of all MNA variables in column order: non-ground node names first,
/// then `I(<element>)` for every branch-current variable.
pub(crate) fn mna_var_names(mna: &MnaSystem) -> Vec<String> {
    let circuit = mna.circuit();
    let mut names: Vec<String> = Vec::with_capacity(mna.dim());
    for (id, name) in circuit.nodes().iter() {
        if !id.is_ground() {
            names.push(name.to_string());
        }
    }
    for (i, e) in circuit.elements().iter().enumerate() {
        if mna.branch_var(i).is_some() {
            names.push(format!("I({})", e.name()));
        }
    }
    names
}

/// Branch voltage `v(+) - v(-)` of a two-terminal binding given the MNA
/// solution vector.
#[inline]
pub(crate) fn branch_voltage(x: &[f64], var_plus: Option<usize>, var_minus: Option<usize>) -> f64 {
    let vp = var_plus.map_or(0.0, |i| x[i]);
    let vm = var_minus.map_or(0.0, |i| x[i]);
    vp - vm
}

/// `(V_GS, V_DS)` of MOSFET `m` given the MNA solution vector.
#[inline]
pub(crate) fn mosfet_bias(m: &MosfetBinding, x: &[f64]) -> (f64, f64) {
    let vd = m.var_drain.map_or(0.0, |i| x[i]);
    let vg = m.var_gate.map_or(0.0, |i| x[i]);
    let vs = m.var_source.map_or(0.0, |i| x[i]);
    (vg - vs, vd - vs)
}

/// Number of whole `step`s that fit in `span` (same signs): the quotient
/// floored, with a relative tolerance of a few ulps so a `span` that is a
/// whole number of steps in exact arithmetic (5 in steps of 0.05, 1 ns in
/// steps of 10 ps) counts every step. DC sweeps and EM ensembles both take
/// their step count here, so neither ever passes its end point.
pub(crate) fn whole_steps(span: f64, step: f64) -> f64 {
    let steps = span / step;
    (steps + 1e-9 * steps.max(1.0)).floor()
}

/// Checks a transient window: `0 < tstep <= tstop`.
///
/// # Errors
/// [`crate::SimError::InvalidConfig`] for any other window.
pub(crate) fn check_transient_window(tstep: f64, tstop: f64) -> crate::Result<()> {
    if tstep > 0.0 && tstop > 0.0 && tstep <= tstop {
        Ok(())
    } else {
        Err(crate::SimError::InvalidConfig {
            context: format!("transient needs 0 < tstep <= tstop (got {tstep}, {tstop})"),
        })
    }
}

/// Number of points of a DC sweep from `start` to `stop` (inclusive) in
/// increments of `step`. Like SPICE `.DC`, the sweep never passes `stop`
/// (see [`whole_steps`]).
///
/// # Errors
/// [`crate::SimError::InvalidConfig`] for a zero, non-finite or
/// wrong-signed step, and for a point count that is not finite or does not
/// fit in a `Vec<f64>`.
pub(crate) fn sweep_points(start: f64, stop: f64, step: f64) -> crate::Result<usize> {
    let invalid = |why: &str| crate::SimError::InvalidConfig {
        context: format!("dc sweep {start}..{stop} with step {step}{why}"),
    };
    if step == 0.0 || !step.is_finite() || (stop - start) * step < 0.0 {
        return Err(invalid(""));
    }
    let n = whole_steps(stop - start, step) + 1.0;
    let max = (isize::MAX as usize / std::mem::size_of::<f64>()) as f64;
    if !n.is_finite() || n > max {
        return Err(invalid(": too many points"));
    }
    Ok(n as usize)
}

/// Checks a sweep of `source` from `start` to `stop` in increments of
/// `step` against the system, and returns its point count.
///
/// # Errors
/// As [`sweep_points`] and [`require_sweepable_source`].
pub(crate) fn checked_sweep_points(
    mna: &MnaSystem,
    source: &str,
    start: f64,
    stop: f64,
    step: f64,
) -> crate::Result<usize> {
    let n_points = sweep_points(start, stop, step)?;
    require_sweepable_source(mna, source)?;
    Ok(n_points)
}

/// Charges the whole result of an `n_points` DC sweep — the axis plus every
/// [`sweep_columns`] column — to `meter`'s byte budget. Engines call this
/// before allocating any per-point buffer, so a budget too small for the
/// sweep fails before any work.
pub(crate) fn charge_sweep(
    meter: &mut BudgetMeter,
    mna: &MnaSystem,
    n_points: usize,
) -> crate::Result<()> {
    let n_cols = 1 + mna.dim() + n_devices(mna);
    meter
        .charge_bytes((n_points as u64).saturating_mul(8 * n_cols as u64))
        .map_err(|stop| {
            crate::SimError::budget_exceeded(stop, format!("dc sweep of {n_points} points"))
        })
}

/// Number of `I(<device>)` columns of a DC sweep: the nonlinear
/// two-terminals, then the MOSFETs.
pub(crate) fn n_devices(mna: &MnaSystem) -> usize {
    mna.nonlinear_bindings().len() + mna.mosfet_bindings().len()
}

/// Names of a DC sweep's columns: the MNA variables, then `I(<device>)`
/// for every nonlinear two-terminal and every MOSFET.
pub(crate) fn sweep_column_names(mna: &MnaSystem) -> Vec<String> {
    let mut names = mna_var_names(mna);
    names.extend(
        mna.nonlinear_bindings()
            .iter()
            .map(|b| format!("I({})", b.name)),
    );
    names.extend(
        mna.mosfet_bindings()
            .iter()
            .map(|m| format!("I({})", m.name)),
    );
    names
}

/// Appends one sweep point's row at solution `x` to `columns`, laid out as
/// [`sweep_column_names`]: the MNA variables, then every device current.
/// A current that a SWEC stamp at `x` kept in `stamped` (see
/// [`AssemblyWorkspace::stamp_geq`]) is taken from there; any other is
/// evaluated here, its flops added to `flops`.
pub(crate) fn push_sweep_row(
    columns: &mut [Vec<f64>],
    mna: &MnaSystem,
    x: &[f64],
    stamped: &[Option<f64>],
    flops: &mut FlopCounter,
) {
    let (vars, devices) = columns.split_at_mut(x.len());
    for (col, &xi) in vars.iter_mut().zip(x) {
        col.push(xi);
    }
    let mut devices = devices.iter_mut();
    let mut stamped = stamped.iter().copied();
    for (b, col) in mna.nonlinear_bindings().iter().zip(&mut devices) {
        col.push(stamped.next().flatten().unwrap_or_else(|| {
            let v = branch_voltage(x, b.var_plus, b.var_minus);
            b.device.current(v, flops)
        }));
    }
    for (m, col) in mna.mosfet_bindings().iter().zip(&mut devices) {
        col.push(stamped.next().flatten().unwrap_or_else(|| {
            let (vgs, vds) = mosfet_bias(m, x);
            m.model.ids(vgs, vds, flops)
        }));
    }
}

/// The output columns of a DC sweep with one row per solution in `xs`,
/// every device current evaluated here (the Newton-family sweeps, which
/// stamp no `Geq`). Device-evaluation flops are added to `flops`.
pub(crate) fn sweep_columns(
    mna: &MnaSystem,
    xs: &[Vec<f64>],
    flops: &mut FlopCounter,
) -> (Vec<String>, Vec<Vec<f64>>) {
    let names = sweep_column_names(mna);
    let mut columns: Vec<Vec<f64>> = (0..names.len())
        .map(|_| Vec::with_capacity(xs.len()))
        .collect();
    for x in xs {
        push_sweep_row(&mut columns, mna, x, &[], flops);
    }
    (names, columns)
}

/// Validates that `source` names an *independent* V/I source that a DC
/// sweep can drive. Dependent (E/G/F/H) sources and passives have no
/// waveform to override — rejecting them here keeps
/// [`override_source_rhs`] from silently no-oping through a whole sweep.
pub(crate) fn require_sweepable_source(mna: &MnaSystem, source: &str) -> crate::Result<()> {
    let circuit = mna.circuit();
    let Some(index) = find_element_index(circuit, source) else {
        return Err(crate::SimError::InvalidConfig {
            context: format!("unknown sweep source `{source}`"),
        });
    };
    if mna.source_waveform(index).is_none() {
        return Err(crate::SimError::InvalidConfig {
            context: format!(
                "sweep source `{source}` is a `{}` element, not an independent V/I source",
                circuit.elements()[index].kind().type_tag()
            ),
        });
    }
    Ok(())
}

/// Element index by name — exact match first, then case-insensitive (SPICE
/// decks are case-insensitive, so `.dc v1 ...` must find `V1`). Shared by
/// [`require_sweepable_source`] and [`override_source_rhs`] so validation
/// and the per-point override always resolve the same element.
fn find_element_index(circuit: &Circuit, name: &str) -> Option<usize> {
    circuit
        .elements()
        .iter()
        .position(|e| e.name() == name)
        .or_else(|| {
            circuit
                .elements()
                .iter()
                .position(|e| e.name().eq_ignore_ascii_case(name))
        })
}

/// Adjusts an already-stamped right-hand side so the named independent
/// source takes `value` instead of its waveform value at `time`. Used by the
/// DC sweep engines.
pub(crate) fn override_source_rhs(
    mna: &MnaSystem,
    element_name: &str,
    value: f64,
    time: f64,
    rhs: &mut [f64],
) -> bool {
    let circuit = mna.circuit();
    let Some(i) = find_element_index(circuit, element_name) else {
        return false;
    };
    let e = &circuit.elements()[i];
    if let Some(wf) = mna.source_waveform(i) {
        let delta = value - wf.value(time);
        if let Some(br) = mna.branch_var(i) {
            // Voltage source: branch row carries the source value.
            rhs[br] += delta;
        } else {
            // Current source: node injections.
            if let Some(p) = mna.var_of_node(e.node_plus()) {
                rhs[p] -= delta;
            }
            if let Some(m) = mna.var_of_node(e.nodes()[1]) {
                rhs[m] += delta;
            }
        }
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanosim_devices::sources::SourceWaveform;

    fn divider() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
        ckt
    }

    #[test]
    fn matrices_have_consistent_shapes() {
        let m = MnaSystem::new(&divider()).unwrap();
        assert_eq!(m.dim(), 3);
        assert_eq!(m.linear_g().rows(), 3);
        assert_eq!(m.c_matrix().rows(), 3);
        assert_eq!(m.c_matrix().get(1, 1), 1e-12);
    }

    #[test]
    fn branch_voltage_handles_ground() {
        let x = [2.0, 0.5];
        assert_eq!(branch_voltage(&x, Some(0), Some(1)), 1.5);
        assert_eq!(branch_voltage(&x, Some(0), None), 2.0);
        assert_eq!(branch_voltage(&x, None, Some(1)), -0.5);
        assert_eq!(branch_voltage(&x, None, None), 0.0);
    }

    #[test]
    fn sweep_columns_reserve_every_column() {
        // Variables, a two-terminal device and a MOSFET: each column holds
        // one value per point in exactly the room reserved up front.
        let mut ckt = divider();
        let b = ckt.node("b");
        let a = ckt.node("a");
        ckt.add_rtd(
            "X1",
            b,
            Circuit::GROUND,
            nanosim_devices::rtd::Rtd::date2005(),
        )
        .unwrap();
        ckt.add_mosfet(
            "M1",
            a,
            b,
            Circuit::GROUND,
            nanosim_devices::mosfet::Mosfet::nmos(),
        )
        .unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        let xs: Vec<Vec<f64>> = (0..37).map(|k| vec![0.1 * k as f64; mna.dim()]).collect();
        let (names, columns) = sweep_columns(&mna, &xs, &mut FlopCounter::new());
        assert_eq!(names.len(), mna.dim() + 2);
        assert_eq!(columns.len(), names.len());
        for (name, col) in names.iter().zip(&columns) {
            assert_eq!((col.len(), col.capacity()), (37, 37), "{name}");
        }
    }

    #[test]
    fn override_voltage_source() {
        let ckt = divider();
        let m = MnaSystem::new(&ckt).unwrap();
        let mut rhs = vec![0.0; 3];
        m.stamp_rhs(0.0, &mut rhs);
        assert_eq!(rhs[2], 1.0);
        assert!(override_source_rhs(&m, "V1", 2.5, 0.0, &mut rhs));
        assert_eq!(rhs[2], 2.5);
        assert!(!override_source_rhs(&m, "R1", 2.5, 0.0, &mut rhs));
        assert!(!override_source_rhs(&m, "nope", 2.5, 0.0, &mut rhs));
    }

    #[test]
    fn sweep_source_resolution_is_case_insensitive() {
        let ckt = divider();
        let m = MnaSystem::new(&ckt).unwrap();
        assert!(require_sweepable_source(&m, "V1").is_ok());
        assert!(require_sweepable_source(&m, "v1").is_ok());
        assert!(require_sweepable_source(&m, "V9").is_err());
        // Passives are not sweepable, whatever the case.
        assert!(require_sweepable_source(&m, "r1").is_err());
        // The per-point override resolves the same element.
        let mut rhs = vec![0.0; 3];
        m.stamp_rhs(0.0, &mut rhs);
        assert!(override_source_rhs(&m, "v1", 2.5, 0.0, &mut rhs));
        assert_eq!(rhs[2], 2.5);
    }

    #[test]
    fn dependent_source_not_sweepable() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        ckt.add_vcvs("E1", b, Circuit::GROUND, a, Circuit::GROUND, 2.0)
            .unwrap();
        ckt.add_resistor("RL", b, Circuit::GROUND, 1e3).unwrap();
        let m = MnaSystem::new(&ckt).unwrap();
        let err = require_sweepable_source(&m, "E1").unwrap_err();
        assert!(err.to_string().contains("independent"), "{err}");
    }

    #[test]
    fn armed_faults_fire_once_then_clear() {
        let m = MnaSystem::new(&divider()).unwrap();
        let mut ws = AssemblyWorkspace::new(&m, false, false, OrderingChoice::default());
        ws.arm_faults(FaultPlan::new().with_singular_pivot(0, 1));
        ws.begin();
        let mut rhs = vec![0.0; 3];
        m.stamp_rhs(0.0, &mut rhs);
        let mut x = Vec::new();
        let mut flops = FlopCounter::new();
        let err = ws.factor_solve(&rhs, &mut x, &mut flops).unwrap_err();
        assert!(matches!(
            err,
            nanosim_numeric::NumericError::SingularMatrix { pivot: 1 }
        ));
        // The fault was one-shot: a clean re-assembly solves fine.
        ws.begin();
        ws.factor_solve(&rhs, &mut x, &mut flops).unwrap();
        assert_eq!(ws.fault_plan().unwrap().injected(), 1);
        // And the result matches an unfaulted workspace bit for bit.
        let mut clean = AssemblyWorkspace::new(&m, false, false, OrderingChoice::default());
        clean.begin();
        let mut xc = Vec::new();
        clean.factor_solve(&rhs, &mut xc, &mut flops).unwrap();
        assert_eq!(x, xc);
    }

    #[test]
    fn diag_shunt_stamps_node_rows() {
        let m = MnaSystem::new(&divider()).unwrap();
        let mut ws = AssemblyWorkspace::new(&m, false, false, OrderingChoice::default());
        ws.begin();
        let before: Vec<f64> = (0..2).map(|i| ws.matrix().get(i, i)).collect();
        ws.stamp_diag_shunt(2, 1e-3);
        for (i, b) in before.iter().enumerate() {
            assert!((ws.matrix().get(i, i) - b - 1e-3).abs() < 1e-15);
        }
    }

    #[test]
    fn rebind_same_pattern_refactors_instead_of_reanalyzing() {
        let m = MnaSystem::new(&divider()).unwrap();
        let mut ws = AssemblyWorkspace::new(&m, false, false, OrderingChoice::default());
        ws.begin();
        let mut rhs = vec![0.0; 3];
        m.stamp_rhs(0.0, &mut rhs);
        let mut x = Vec::new();
        let mut flops = FlopCounter::new();
        ws.factor_solve(&rhs, &mut x, &mut flops).unwrap();
        assert_eq!(ws.lu_stats().full_factors, 1);

        // Same topology, different values: rebind keeps the analysis.
        let mut ckt2 = Circuit::new();
        let a = ckt2.node("a");
        let b = ckt2.node("b");
        ckt2.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(2.0))
            .unwrap();
        ckt2.add_resistor("R1", a, b, 2e3).unwrap();
        ckt2.add_resistor("R2", b, Circuit::GROUND, 2e3).unwrap();
        ckt2.add_capacitor("C1", b, Circuit::GROUND, 2e-12).unwrap();
        let m2 = MnaSystem::new(&ckt2).unwrap();
        assert!(ws.rebind(&m2, false, false));
        ws.begin();
        let mut rhs2 = vec![0.0; 3];
        m2.stamp_rhs(0.0, &mut rhs2);
        ws.factor_solve(&rhs2, &mut x, &mut flops).unwrap();
        let stats = ws.lu_stats();
        assert_eq!(stats.full_factors, 1, "rebind must not force a re-analysis");
        assert_eq!(stats.refactors, 1);
        assert!((x[1] - 1.0).abs() < 1e-12, "divider midpoint at 2 V supply");

        // A different pattern is rejected and leaves the workspace intact.
        let mut ckt3 = Circuit::new();
        let a3 = ckt3.node("a");
        ckt3.add_voltage_source("V1", a3, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt3.add_resistor("R1", a3, Circuit::GROUND, 1e3).unwrap();
        let m3 = MnaSystem::new(&ckt3).unwrap();
        assert!(!ws.rebind(&m3, false, false));
        ws.begin();
        ws.factor_solve(&rhs2, &mut x, &mut flops).unwrap();
        assert_eq!(ws.lu_stats().full_factors, 1);
    }

    #[test]
    fn override_current_source() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_current_source("I1", a, Circuit::GROUND, SourceWaveform::dc(1e-3))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let m = MnaSystem::new(&ckt).unwrap();
        let mut rhs = vec![0.0; 1];
        m.stamp_rhs(0.0, &mut rhs);
        assert_eq!(rhs[0], -1e-3);
        assert!(override_source_rhs(&m, "I1", 3e-3, 0.0, &mut rhs));
        assert_eq!(rhs[0], -3e-3);
    }
}
