//! The [`Simulator`] session: one circuit, many analyses, shared solver
//! state.

use crate::assemble::{
    check_transient_window, checked_sweep_points, mna_var_names, AssemblyWorkspace,
};
use crate::em::EmEngine;
use crate::mla::MlaEngine;
use crate::pwl::PwlEngine;
use crate::report::EngineStats;
use crate::sim::dataset::Dataset;
use crate::sim::plan::ExecPlan;
use crate::sim::request::{
    Analysis, BaselineRequest, DcSweep, EmEnsemble, Mla, Op, Pwl, Transient,
};
use crate::swec::{SwecDcSweep, SwecTransient};
use crate::{Result, SimError};
use nanosim_circuit::{Circuit, MnaSystem};
use nanosim_numeric::parallel::try_par_map;
use nanosim_numeric::sparse::OrderingChoice;
use nanosim_numeric::{Budget, BudgetMeter, CancelToken};
use std::time::Instant;

/// What the session does with the preflight static-analysis report
/// ([`nanosim_circuit::lint`]) computed when it opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreflightMode {
    /// Run the analyzer; error-severity diagnostics abort session
    /// construction with [`SimError::Preflight`] before any matrix is
    /// assembled. Warnings are kept and surface in [`EngineStats`]. The
    /// default.
    #[default]
    Enforce,
    /// Run the analyzer and keep the report (warnings still surface), but
    /// never refuse a circuit — structurally singular decks proceed and
    /// fail numerically, which is what the `min_recip_pivot` cross-check
    /// tests exercise.
    WarnOnly,
    /// Skip the analyzer entirely; [`Simulator::preflight`] returns an
    /// empty report.
    Off,
}

/// Session-wide options applying to every analysis run through one
/// [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimOptions {
    /// Fill-reducing ordering for the session's sparse-LU pipeline. The
    /// default [`OrderingChoice::Auto`] picks AMD for systems of at least
    /// [`OrderingChoice::AUTO_AMD_THRESHOLD`] unknowns and the natural
    /// order below; [`OrderingChoice::Natural`] reproduces the
    /// pre-ordering pipeline bit-for-bit. The choice is applied inside the
    /// cached symbolic analyses of the session workspaces, so `swec` DC
    /// sweeps, transients and every analysis sharing those workspaces
    /// inherit it — `Dataset` results stay in original MNA numbering
    /// whatever the ordering, and [`crate::EngineStats`] reports the
    /// resulting `nnz_lu` / `fill_ratio`.
    pub ordering: OrderingChoice,
    /// Preflight static-analysis behavior (default: run and enforce).
    /// Preflight is pattern-only — it performs no factorization and no
    /// numeric solve, so results are bit-identical with it on or off.
    pub preflight: PreflightMode,
}

/// A simulation session bound to one circuit.
///
/// `Simulator::new` builds the circuit's [`MnaSystem`] once, and every
/// analysis run through the session — SWEC, EM, MLA and PWL alike — runs
/// on that one system. The SWEC analyses also share cached assembly
/// workspaces whose sparse-LU symbolic analyses survive across analyses
/// (an `.op` followed by a `.dc` refactors instead of re-analyzing).
/// Analyses are typed [`Analysis`] requests built with builders, every
/// result is a [`Dataset`], and scale-out is an [`ExecPlan`] — not a
/// different engine.
///
/// # Example
/// ```
/// use nanosim_core::sim::{Analysis, ExecPlan, Simulator};
/// use nanosim_circuit::Circuit;
/// use nanosim_devices::rtd::Rtd;
/// use nanosim_devices::sources::SourceWaveform;
///
/// # fn main() -> Result<(), nanosim_core::SimError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let mid = ckt.node("mid");
/// ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(0.0))?;
/// ckt.add_resistor("R1", vin, mid, 50.0)?;
/// ckt.add_rtd("X1", mid, Circuit::GROUND, Rtd::date2005())?;
///
/// let mut sim = Simulator::new(ckt)?;
/// let sweep = sim.run(Analysis::dc_sweep("V1", 0.0, 2.5, 0.1))?;
/// assert_eq!(sweep.points(), 26);
/// // Cut into 8-point chunks, the sweep can run on 4 workers; every
/// // worker count gives the bits of the serial run of the same chunks.
/// let chunked = Analysis::dc_sweep("V1", 0.0, 2.5, 0.1).chunk_points(8);
/// let serial = sim.run(chunked.clone())?;
/// let sharded = sim.run(chunked.plan(ExecPlan::sharded(4)))?;
/// assert_eq!(serial.column("mid"), sharded.column("mid"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    /// The circuit's MNA system, built and linted once.
    mna: MnaSystem,
    opts: SimOptions,
    /// Cached no-C assembly workspace (operating points, DC sweeps).
    dc_ws: Option<AssemblyWorkspace>,
    /// Cached with-C assembly workspace (transients).
    tran_ws: Option<AssemblyWorkspace>,
    /// Armed fault-injection plan; cloned onto every workspace the session
    /// creates (testing/robustness harness — see
    /// [`nanosim_numeric::FaultPlan`]).
    fault: Option<nanosim_numeric::FaultPlan>,
    /// Preflight lint report computed at session construction (empty when
    /// [`PreflightMode::Off`]).
    preflight: nanosim_circuit::LintReport,
    /// Run budget applied to every analysis (default: unlimited — the
    /// budget machinery is completely inert and results are bit-identical
    /// to an unbudgeted session).
    budget: Budget,
    /// Cooperative cancellation token shared with callers; tripping it
    /// stops any running analysis at its next checkpoint with
    /// [`SimError::BudgetExceeded`].
    cancel: CancelToken,
}

impl Simulator {
    /// Opens a session on `circuit` with default [`SimOptions`],
    /// assembling its MNA structure once.
    ///
    /// # Errors
    /// Propagates circuit validation / MNA construction failures.
    pub fn new(circuit: Circuit) -> Result<Simulator> {
        Self::with_options(circuit, SimOptions::default())
    }

    /// Opens a session with explicit [`SimOptions`] (e.g. a pinned
    /// [`OrderingChoice`] or a [`PreflightMode`]).
    ///
    /// The circuit's [`MnaSystem`] is built once; unless preflight is
    /// [`PreflightMode::Off`], the static analyzer runs on it here —
    /// before any matrix is assembled — and, under
    /// [`PreflightMode::Enforce`], error-severity diagnostics (guaranteed
    /// singular topologies, duplicate names, ...) abort construction with
    /// [`SimError::Preflight`]. The same system then backs every
    /// assembly workspace.
    ///
    /// # Errors
    /// Returns [`SimError::Preflight`] for circuits the analyzer rejects
    /// (an MNA construction failure is one of its errors under
    /// [`PreflightMode::Enforce`]), and otherwise propagates circuit
    /// validation / MNA construction failures.
    pub fn with_options(circuit: Circuit, opts: SimOptions) -> Result<Simulator> {
        let mna = MnaSystem::new(&circuit);
        let preflight = run_preflight(&circuit, &mna, opts.preflight)?;
        Ok(Simulator {
            mna: mna?,
            opts,
            dc_ws: None,
            tran_ws: None,
            fault: None,
            preflight,
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
        })
    }

    /// Sets the run budget applied to every subsequent analysis. The
    /// default is [`Budget::unlimited`]; with it, every checkpoint reduces
    /// to one relaxed atomic load and results are bit-identical to an
    /// unbudgeted session.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The session's run budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The session's cancellation token. Clone it (cloning shares the
    /// flag) and call [`CancelToken::cancel`] from another thread — or
    /// before [`Simulator::run`] — to stop analyses at their next
    /// deterministic checkpoint with [`SimError::BudgetExceeded`].
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Replaces the session's cancellation token (e.g. a service layer
    /// installing one token per request so runs are individually
    /// cancellable).
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// Rebinds the session to a new circuit, preserving warm solver state
    /// when the new circuit has the same MNA sparsity pattern.
    ///
    /// This is the cross-request session-reuse hook: a parameter study (or
    /// a service-layer session pool) submits many circuits that differ
    /// only in component values. Rebinding refreshes the assembled base
    /// values and device scatter maps while keeping each cached workspace's
    /// solver — symbolic analysis, fill ordering and pivot order — so
    /// the next analysis *refactors* instead of re-analyzing. Returns
    /// `Ok(true)` when at least one warmed workspace survived the swap
    /// (every subsequent solve reuses its analysis); `Ok(false)` means the
    /// session was rebound cold (no warm workspaces, or a sparsity-pattern
    /// mismatch forced a rebuild).
    ///
    /// Preflight runs on the new circuit under the session's configured
    /// [`PreflightMode`] exactly as in [`Simulator::with_options`]; on a
    /// preflight or assembly error the session keeps its previous circuit
    /// and remains usable.
    ///
    /// # Errors
    /// Returns [`SimError::Preflight`] for circuits the analyzer rejects
    /// under [`PreflightMode::Enforce`], and propagates circuit validation
    /// / MNA construction failures.
    ///
    /// # Example
    /// ```
    /// use nanosim_circuit::parse_netlist;
    /// use nanosim_core::{Analysis, Simulator};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let a = parse_netlist("V1 in 0 DC 1\nR1 in out 100\nR2 out 0 100\n.end\n")?;
    /// let b = parse_netlist("V1 in 0 DC 1\nR1 in out 220\nR2 out 0 100\n.end\n")?;
    /// let mut sim = Simulator::new(a.circuit)?;
    /// let cold = sim.run(Analysis::op())?;
    /// assert_eq!(cold.stats.full_factors, 1);
    /// assert!(sim.rebind(b.circuit)?); // warm: same sparsity pattern
    /// let warm = sim.run(Analysis::op())?;
    /// assert_eq!(warm.stats.full_factors, 0); // values-only refactor
    /// # Ok(())
    /// # }
    /// ```
    pub fn rebind(&mut self, circuit: Circuit) -> Result<bool> {
        let mna = MnaSystem::new(&circuit);
        let preflight = run_preflight(&circuit, &mna, self.opts.preflight)?;
        let mna = mna?;
        let had_warm = self.dc_ws.is_some() || self.tran_ws.is_some();
        let mut all_rebound = true;
        if let Some(mut ws) = self.dc_ws.take() {
            if ws.rebind(&mna, false, false) {
                self.dc_ws = Some(ws);
            } else {
                all_rebound = false;
            }
        }
        if let Some(mut ws) = self.tran_ws.take() {
            if ws.rebind(&mna, false, true) {
                self.tran_ws = Some(ws);
            } else {
                all_rebound = false;
            }
        }
        self.mna = mna;
        self.preflight = preflight;
        Ok(had_warm && all_rebound)
    }

    /// The preflight lint report computed when the session opened (empty
    /// when preflight was [`PreflightMode::Off`]). Under
    /// [`PreflightMode::Enforce`] the report never contains errors — a
    /// session that constructed successfully passed.
    pub fn preflight(&self) -> &nanosim_circuit::LintReport {
        &self.preflight
    }

    /// Arms a deterministic fault-injection plan: every assembly workspace
    /// the session uses (existing and future) gets its own clone, so the
    /// scheduled faults fire at the same factorization calls regardless of
    /// how analyses share or clone workspaces. Testing harness — see
    /// [`nanosim_numeric::FaultPlan`].
    pub fn arm_faults(&mut self, plan: nanosim_numeric::FaultPlan) {
        if let Some(ws) = self.dc_ws.as_mut() {
            ws.arm_faults(plan.clone());
        }
        if let Some(ws) = self.tran_ws.as_mut() {
            ws.arm_faults(plan.clone());
        }
        self.fault = Some(plan);
    }

    /// Total faults actually injected so far across the session's
    /// workspaces (zero when no plan is armed or nothing has fired yet).
    pub fn injected_faults(&self) -> u64 {
        self.dc_ws
            .iter()
            .chain(self.tran_ws.iter())
            .filter_map(|ws| ws.fault_plan())
            .map(|p| p.injected())
            .sum()
    }

    /// The session's circuit.
    pub fn circuit(&self) -> &Circuit {
        self.mna.circuit()
    }

    /// Name of the fill ordering the session's solver applies ("natural"
    /// or "amd"). Before the first analysis warms a workspace this is
    /// the configured choice's tag (`Auto` reports "auto" until resolved
    /// against the system size).
    pub fn ordering_name(&self) -> &'static str {
        self.dc_ws
            .as_ref()
            .or(self.tran_ws.as_ref())
            .map(|ws| ws.ordering_name())
            .unwrap_or_else(|| self.opts.ordering.name())
    }

    /// Names of all MNA variables in solution order (node voltages, then
    /// branch currents).
    pub fn var_names(&self) -> Vec<String> {
        mna_var_names(&self.mna)
    }

    /// Runs one analysis and returns its [`Dataset`].
    ///
    /// # Errors
    /// Propagates request validation failures ([`SimError::InvalidConfig`])
    /// and engine failures.
    pub fn run(&mut self, analysis: impl Into<Analysis>) -> Result<Dataset> {
        let analysis = analysis.into();
        analysis.validate()?;
        // One meter per run: the deadline clock starts here and is shared
        // (via forks) by every engine, loop and sweep chunk the analysis
        // spawns. A pre-cancelled token or zero deadline trips right away.
        let meter = BudgetMeter::new(self.budget, self.cancel.clone());
        meter
            .checkpoint()
            .map_err(|stop| SimError::budget_exceeded(stop, "analysis start"))?;
        let mut ds = match analysis {
            Analysis::Op(op) => self.run_op(op, &meter),
            Analysis::DcSweep(sweep) => self.run_dc_sweep(sweep, &meter),
            Analysis::Transient(tran) => self.run_transient(tran, &meter),
            Analysis::EmEnsemble(em) => self.run_em(em, &meter),
            Analysis::Mla(mla) => self.run_mla(mla, &meter),
            Analysis::Pwl(pwl) => self.run_pwl(pwl, &meter),
        }?;
        ds.stats.preflight_warnings = self.preflight.warning_count() as u64;
        Ok(ds)
    }

    /// Lazily creates the with-C (`tran_ws`) or no-C (`dc_ws`) workspace,
    /// arming any session fault plan.
    fn ensure_ws(&mut self, with_c: bool) {
        let slot = if with_c {
            &mut self.tran_ws
        } else {
            &mut self.dc_ws
        };
        if slot.is_none() {
            let mut ws = AssemblyWorkspace::new(&self.mna, false, with_c, self.opts.ordering);
            if let Some(plan) = &self.fault {
                ws.arm_faults(plan.clone());
            }
            *slot = Some(ws);
        }
    }

    fn run_op(&mut self, op: Op, meter: &BudgetMeter) -> Result<Dataset> {
        let t0 = Instant::now();
        self.ensure_ws(false);
        let ws = self.dc_ws.as_mut().expect("created above");
        let lu0 = ws.lu_stats();
        let engine = SwecDcSweep::new(op.options).with_meter(meter.fork());
        let mut stats = EngineStats::new();
        let values = engine.solve_op_ws(&self.mna, ws, &mut stats)?;
        stats.absorb_lu(&lu0, &ws.lu_stats());
        stats.steps += 1;
        stats.elapsed = t0.elapsed();
        let names = mna_var_names(&self.mna);
        Ok(Dataset::from_op("swec", names, values, stats))
    }

    fn run_transient(&mut self, tran: Transient, meter: &BudgetMeter) -> Result<Dataset> {
        self.ensure_ws(true);
        self.ensure_ws(false);
        let ws = self.tran_ws.as_mut().expect("created above");
        let op_ws = self.dc_ws.as_mut().expect("created above");
        let engine = SwecTransient::new(tran.options).with_meter(meter.fork());
        engine.run_with(&self.mna, ws, op_ws, tran.tstep, tran.tstop)
    }

    fn run_em(&mut self, em: EmEnsemble, meter: &BudgetMeter) -> Result<Dataset> {
        let mut options = em.options;
        // The plan owns scheduling: Serial runs one worker, Sharded{n} runs
        // n (`ExecPlan::sharded(0)` already resolved auto at build time).
        options.threads = em.plan.workers();
        let engine = EmEngine::new(options).with_meter(meter.fork());
        engine.check_run(em.horizon)?;
        engine.run_mna(&self.mna, em.horizon)
    }

    fn run_mla(&mut self, mla: Mla, meter: &BudgetMeter) -> Result<Dataset> {
        let engine = MlaEngine::new(mla.options).with_meter(meter.fork());
        match mla.request {
            BaselineRequest::DcSweep {
                source,
                start,
                stop,
                step,
            } => {
                let n_points = checked_sweep_points(&self.mna, &source, start, stop, step)?;
                engine.run_dc_sweep_mna(&self.mna, &source, start, step, n_points)
            }
            BaselineRequest::Transient { tstep, tstop } => {
                check_transient_window(tstep, tstop)?;
                engine.run_transient_mna(&self.mna, tstep, tstop)
            }
        }
    }

    fn run_pwl(&mut self, pwl: Pwl, meter: &BudgetMeter) -> Result<Dataset> {
        let engine = PwlEngine::new().with_meter(meter.fork());
        match pwl.request {
            BaselineRequest::DcSweep {
                source,
                start,
                stop,
                step,
            } => {
                let n_points = checked_sweep_points(&self.mna, &source, start, stop, step)?;
                engine.run_dc_sweep_mna(&self.mna, &source, start, step, n_points)
            }
            BaselineRequest::Transient { tstep, tstop } => {
                check_transient_window(tstep, tstop)?;
                engine.run_transient_mna(&self.mna, tstep, tstop)
            }
        }
    }

    /// SWEC DC sweep on the session workspace, cut into the chunks the
    /// request asks for and run on the plan's workers
    /// ([`SwecDcSweep::sweep_ws`]). The workspace is warmed at the sweep
    /// start first, so every run starts from the same LU state.
    fn run_dc_sweep(&mut self, req: DcSweep, meter: &BudgetMeter) -> Result<Dataset> {
        let DcSweep {
            source,
            start,
            stop,
            step,
            options,
            plan,
            chunk_points,
        } = req;
        let n_points = checked_sweep_points(&self.mna, &source, start, stop, step)?;
        self.ensure_ws(false);
        let ws = self.dc_ws.as_mut().expect("created above");
        SwecDcSweep::new(options).with_meter(meter.fork()).sweep_ws(
            &self.mna,
            ws,
            &source,
            start,
            step,
            n_points,
            chunk_points,
            plan.workers(),
            true,
        )
    }
}

/// Runs the preflight analyzer on `circuit` and its MNA system (or the
/// error building it failed with) under `mode`: an empty report when
/// [`PreflightMode::Off`], and an error for a report with errors under
/// [`PreflightMode::Enforce`].
fn run_preflight(
    circuit: &Circuit,
    mna: &nanosim_circuit::Result<MnaSystem>,
    mode: PreflightMode,
) -> Result<nanosim_circuit::LintReport> {
    if mode == PreflightMode::Off {
        return Ok(nanosim_circuit::LintReport::default());
    }
    let report = nanosim_circuit::lint_system(circuit, mna);
    if mode == PreflightMode::Enforce && report.has_errors() {
        return Err(SimError::Preflight(Box::new(report)));
    }
    Ok(report)
}

/// Runs the same analysis over many circuit variants in parallel — the
/// parameter-sweep / Monte-Carlo-over-process-variation workload. Each
/// variant gets its own [`Simulator`] (and therefore its own workspaces),
/// results come back in variant order, and
/// [`nanosim_numeric::parallel::par_map`]'s determinism contract makes the
/// output independent of the worker count.
///
/// The per-variant `analysis` is typically [`ExecPlan::Serial`]; a sharded
/// inner plan multiplies thread counts.
///
/// # Errors
/// Returns the failure of the smallest failing variant index, if any.
pub fn run_ensemble(
    variants: &[Circuit],
    analysis: &Analysis,
    plan: ExecPlan,
) -> Result<Vec<Dataset>> {
    plan.validate()?;
    analysis.validate()?;
    try_par_map(variants.len(), plan.workers(), |i| {
        Simulator::new(variants[i].clone())?.run(analysis.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::dataset::AnalysisKind;
    use crate::sim::request::{Analysis, SWEEP_CHUNK};
    use crate::swec::dc::CHUNK_RUNS;
    use nanosim_devices::rtd::Rtd;
    use nanosim_devices::sources::SourceWaveform;
    use nanosim_numeric::FaultPlan;

    fn rtd_divider() -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(0.0))
            .unwrap();
        ckt.add_resistor("R1", vin, mid, 50.0).unwrap();
        ckt.add_rtd("X1", mid, Circuit::GROUND, Rtd::date2005())
            .unwrap();
        ckt
    }

    fn rc_divider() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(2.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
        ckt
    }

    /// Asserts two datasets carry the same kind, engine tag and axis
    /// (sweep source included) and bit-identical columns.
    fn assert_same_data(a: &Dataset, b: &Dataset) {
        assert_eq!(a.kind(), b.kind());
        assert_eq!(a.engine(), b.engine());
        assert_eq!(a.axis().label(), b.axis().label());
        assert_eq!(a.names(), b.names());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.axis_values()), bits(b.axis_values()));
        for name in a.names() {
            assert_eq!(
                bits(a.column(name).unwrap()),
                bits(b.column(name).unwrap()),
                "column {name}"
            );
        }
    }

    #[test]
    fn descending_sweep_reads_like_ascending() {
        let mut sim = Simulator::new(rc_divider()).unwrap();
        let up = sim.run(Analysis::dc_sweep("V1", 0.0, 1.0, 0.25)).unwrap();
        let down = sim.run(Analysis::dc_sweep("V1", 1.0, 0.0, -0.25)).unwrap();
        assert_eq!(down.axis_values(), &[1.0, 0.75, 0.5, 0.25, 0.0]);
        for x in [-1.0, 0.0, 0.3, 0.5, 0.9, 1.0, 2.0] {
            assert_eq!(down.at("b", x), up.at("b", x), "at {x}");
        }
        assert_eq!(down.peak("b"), up.peak("b"));
        assert_eq!(down.peak("b").unwrap().0, 1.0);
        assert!(down.at("b", f64::NAN).unwrap().is_nan());
        let engine = crate::swec::SwecDcSweep::new(Default::default());
        let serial = engine.run(&rc_divider(), "V1", 1.0, 0.0, -0.25).unwrap();
        let curve = serial.curve("b").unwrap();
        assert_eq!(curve.times(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(Some(curve.value_at(0.3)), up.at("b", 0.3));
    }

    #[test]
    fn op_then_sweep_share_the_solver_cache() {
        let mut sim = Simulator::new(rc_divider()).unwrap();
        let op = sim.run(Analysis::op()).unwrap();
        assert_eq!(op.kind(), AnalysisKind::Op);
        assert!((op.value("b").unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(op.stats.full_factors, 1, "cold session factors once");
        // Second op reuses the cached symbolic analysis: zero full factors.
        let op2 = sim.run(Analysis::op()).unwrap();
        assert_eq!(op2.stats.full_factors, 0);
        assert!(op2.stats.refactors >= 1);
        // And so does a sweep: the warm-up solve plus every point refactor
        // against the analysis cached by the ops.
        let sweep = sim.run(Analysis::dc_sweep("V1", 0.0, 2.0, 0.05)).unwrap();
        assert_eq!(sweep.stats.full_factors, 0);
        assert!(sweep.stats.refactors > sweep.points() as u64);
    }

    #[test]
    fn cold_sweep_factors_once_and_refactors_the_rest() {
        // The pre-warm guarantee: one full factor for the whole sweep, no
        // matter how many chunks it spans — every chunk clone inherits the
        // warmed analysis.
        let mut sim = Simulator::new(rtd_divider()).unwrap();
        let ds = sim
            .run(Analysis::dc_sweep("V1", 0.0, 5.0, 0.02).chunk_points(SWEEP_CHUNK))
            .unwrap();
        assert!(ds.points() > 10 * SWEEP_CHUNK);
        assert_eq!(ds.stats.full_factors, 1, "{}", ds.stats);
        assert!(ds.stats.refactors >= ds.points() as u64);
    }

    #[test]
    fn session_transient_matches_engine() {
        let mut sim = Simulator::new(rc_divider()).unwrap();
        let ds = sim.run(Analysis::transient(0.05e-9, 5e-9)).unwrap();
        assert_eq!(ds.kind(), AnalysisKind::Tran);
        let engine_ds = SwecTransient::new(Default::default())
            .run(&rc_divider(), 0.05e-9, 5e-9)
            .unwrap();
        assert_same_data(&ds, &engine_ds);
        // A second transient on the same session reuses both cached
        // workspaces (the transient LU and the initial operating point's
        // no-C workspace): zero full factors.
        let ds2 = sim.run(Analysis::transient(0.05e-9, 5e-9)).unwrap();
        assert_eq!(ds2.stats.full_factors, 0, "{}", ds2.stats);
        assert_eq!(ds2.column("b").unwrap(), ds.column("b").unwrap());
    }

    #[test]
    fn first_chunk_matches_legacy_serial_sweep_exactly() {
        // Chunk 0 is algorithmically identical to the serial engine sweep,
        // so a sweep short enough to fit one chunk must be bit-equal to it.
        let mut sim = Simulator::new(rtd_divider()).unwrap();
        let n = SWEEP_CHUNK as f64;
        let ds = sim
            .run(Analysis::dc_sweep("V1", 0.0, (n - 1.0) * 0.05, 0.05).chunk_points(SWEEP_CHUNK))
            .unwrap();
        assert_eq!(ds.points(), SWEEP_CHUNK);
        let engine_ds = SwecDcSweep::new(Default::default())
            .run(&rtd_divider(), "V1", 0.0, (n - 1.0) * 0.05, 0.05)
            .unwrap();
        assert_same_data(&ds, &engine_ds);
    }

    #[test]
    fn failing_first_chunk_runs_once() {
        // A pivot fault kills the sweep's first chunk. Its clone replays
        // the same fault plan and it has no ramp to refine, so the rescue
        // retry is skipped; every later chunk still gets one retry.
        let runs = |chunk_points: Option<usize>| {
            let mut sim = Simulator::new(rtd_divider()).unwrap();
            sim.arm_faults(FaultPlan::new().with_singular_pivot(5, 1));
            let mut req = Analysis::dc_sweep("V1", 0.0, 5.0, 0.05);
            req.chunk_points = chunk_points;
            let before = CHUNK_RUNS.with(|n| n.get());
            let err = sim.run(req).unwrap_err();
            assert!(matches!(err, SimError::Numeric(_)), "{err}");
            CHUNK_RUNS.with(|n| n.get()) - before
        };
        assert_eq!(runs(None), 1, "the default one-chunk sweep");
        assert_eq!(runs(Some(SWEEP_CHUNK)), 1 + 2 * 6, "7 chunks, 6 retried");
    }

    #[test]
    fn invalid_sweeps_rejected_with_structured_errors() {
        let mut sim = Simulator::new(rtd_divider()).unwrap();
        assert!(matches!(
            sim.run(Analysis::dc_sweep("V1", 0.0, 1.0, 0.0)),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            sim.run(Analysis::dc_sweep("Vmissing", 0.0, 1.0, 0.1)),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            sim.run(Analysis::dc_sweep("V1", 0.0, 1.0, 0.1).plan(ExecPlan::Sharded { workers: 0 })),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            sim.run(Analysis::dc_sweep("V1", 0.0, 1.0, 0.1).chunk_points(0)),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn ensemble_runs_variants_in_order() {
        let variants: Vec<Circuit> = [40.0, 50.0, 60.0, 70.0, 80.0]
            .iter()
            .map(|r| {
                let mut ckt = Circuit::new();
                let vin = ckt.node("in");
                let mid = ckt.node("mid");
                ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(0.0))
                    .unwrap();
                ckt.add_resistor("R1", vin, mid, *r).unwrap();
                ckt.add_rtd("X1", mid, Circuit::GROUND, Rtd::date2005())
                    .unwrap();
                ckt
            })
            .collect();
        let analysis: Analysis = Analysis::dc_sweep("V1", 0.0, 1.0, 0.1).into();
        let serial = run_ensemble(&variants, &analysis, ExecPlan::Serial).unwrap();
        let parallel = run_ensemble(&variants, &analysis, ExecPlan::sharded(4)).unwrap();
        assert_eq!(serial.len(), 5);
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.column("mid"), p.column("mid"), "variant order + bits");
        }
        // Heavier series resistance sags the mid node harder at full drive.
        let v0 = serial[0].at("mid", 1.0).unwrap();
        let v4 = serial[4].at("mid", 1.0).unwrap();
        assert!(v4 < v0, "{v4} !< {v0}");
    }
}
