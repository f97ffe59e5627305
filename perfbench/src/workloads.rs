//! The four workloads. Each is a closed loop with one client and no think
//! time, driven through the public API on one engine thread.
//!
//! A workload's cold start ([`Workload::setup`]) covers deck generation,
//! parse, lint, opening the session or service, and one warm-up op; its
//! output becomes the reference every later op is checked against.

use crate::stats::{column_hashes, fnv, SplitMix, FNV_BASIS};
use crate::trace::Tracer;
use nanosim::circuit::{parse_netlist, write_netlist, Circuit};
use nanosim::core::em::EmOptions;
use nanosim::core::{Analysis, AnalysisKind, Dataset, ExecPlan, Simulator};
use nanosim::serve::json::{self, Json};
use nanosim::serve::{handle_line, mask_volatile, RunId, ServiceOptions, SimService};

/// Exact per-op work counts. Every op of a run, and every run of the same
/// code, must produce identical counts; any difference is a failed op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub points: u64,
    pub iterations: u64,
    pub refactors: u64,
    pub full_factors: u64,
    pub linear_solves: u64,
    pub device_evals: u64,
    pub flops: u64,
    pub rescues: u64,
    pub tran_steps: u64,
    pub tran_rejected: u64,
    pub em_path_steps: u64,
    pub batched_factors: u64,
    pub serve_cold: u64,
    pub serve_warm: u64,
    pub serve_hits: u64,
    pub serve_response_bytes: u64,
}

impl Counts {
    /// Adds one dataset's engine statistics.
    pub fn add(&mut self, ds: &Dataset) {
        let s = &ds.stats;
        self.points += ds.points() as u64;
        self.iterations += s.iterations;
        self.refactors += s.refactors;
        self.full_factors += s.full_factors;
        self.linear_solves += s.linear_solves;
        self.device_evals += s.device_evals;
        self.flops += s.flops.total();
        self.rescues += s.rescues;
        self.batched_factors += s.batched_factors;
        match ds.kind() {
            AnalysisKind::Tran => {
                self.tran_steps += s.steps as u64;
                self.tran_rejected += s.rejected_steps as u64;
            }
            // An ensemble's `steps` counts every path's steps.
            AnalysisKind::Em => self.em_path_steps += s.steps as u64,
            AnalysisKind::Op | AnalysisKind::Dc => {}
        }
    }

    /// Every count under its per-layer metric name.
    pub fn named(&self) -> [(&'static str, u64); 16] {
        [
            ("core.points_per_op", self.points),
            ("core.iterations_per_op", self.iterations),
            ("core.refactors_per_op", self.refactors),
            ("core.full_factors_per_op", self.full_factors),
            ("core.linear_solves_per_op", self.linear_solves),
            ("core.device_evals_per_op", self.device_evals),
            ("core.flops_per_op", self.flops),
            ("core.rescues_per_op", self.rescues),
            ("core.tran.steps_per_op", self.tran_steps),
            ("core.tran.rejected_per_op", self.tran_rejected),
            ("core.em.path_steps_per_op", self.em_path_steps),
            ("core.em.batched_factors_per_op", self.batched_factors),
            ("serve.cold_per_op", self.serve_cold),
            ("serve.warm_per_op", self.serve_warm),
            ("serve.hits_per_op", self.serve_hits),
            ("serve.response_bytes_per_op", self.serve_response_bytes),
        ]
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// What one op returns for checking.
    type Out;

    /// Cold start, ending with one warm-up op whose output is returned.
    fn setup(seed: u64, tr: &mut Tracer) -> Result<(Self, Self::Out), String>;

    /// Checks the warm-up output and records it as the reference. Returns
    /// a digest of the reference, which must be the same for every cold
    /// start of one seed.
    fn set_reference(&mut self, warmup: Self::Out) -> Result<u64, String>;

    /// One op: the timed unit.
    fn op(&mut self, tr: &mut Tracer) -> Result<Self::Out, String>;

    /// Checks an op's output against the reference and a paper-level
    /// invariant; returns its exact counts.
    fn check(&self, out: Self::Out) -> Result<Counts, String>;

    /// Domain work completed by an op with these counts.
    fn work(c: &Counts) -> u64;

    /// The deck texts this workload parses, for the layer calibration.
    fn decks(&self) -> Vec<String>;
}

fn digest(hashes: &[u64]) -> u64 {
    hashes
        .iter()
        .fold(FNV_BASIS, |h, x| fnv(h, &x.to_le_bytes()))
}

fn parse(tr: &mut Tracer, deck: &str) -> Result<Circuit, String> {
    tr.span("circuit.parse", |_| parse_netlist(deck))
        .map(|p| p.circuit)
        .map_err(|e| format!("parse: {e}"))
}

fn open(tr: &mut Tracer, circuit: Circuit) -> Result<Simulator, String> {
    tr.span("core.session.new", |_| Simulator::new(circuit))
        .map_err(|e| format!("session: {e}"))
}

fn run(tr: &mut Tracer, sim: &mut Simulator, a: impl Into<Analysis>) -> Result<Dataset, String> {
    tr.span("core.session.run", |_| sim.run(a))
        .map_err(|e| format!("run: {e}"))
}

fn all_finite(ds: &Dataset) -> Result<(), String> {
    for name in ds.names() {
        if !ds.column(name).unwrap_or(&[]).iter().all(|v| v.is_finite()) {
            return Err(format!("non-finite value in column {name}"));
        }
    }
    Ok(())
}

fn same_hashes(what: &str, got: &[u64], want: &[u64]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: output differs bitwise from the reference"))
    }
}

// ---------------------------------------------------------------- dc_mesh30

/// Table I DC sweep of the 30×30 RTD mesh (902 unknowns): V1 from 0 to 5 V
/// in 50 mV steps, 101 points, on one warm session.
pub struct DcMesh30 {
    deck: String,
    sim: Simulator,
    reference: Vec<u64>,
}

pub const MESH: usize = 30;

/// The Table I sweep request, serial.
pub fn table1_sweep() -> nanosim::core::sim::DcSweep {
    Analysis::dc_sweep("V1", 0.0, 5.0, 0.05).plan(ExecPlan::Serial)
}

/// Paper-level invariant of the mesh sweep: 101 finite points, no rescue,
/// and every node voltage between ground and the source (the network is
/// passive, so no node can leave that range).
pub fn check_mesh_sweep(ds: &Dataset) -> Result<(), String> {
    all_finite(ds)?;
    if ds.points() != 101 || ds.stats.rescues != 0 {
        return Err(format!(
            "sweep has {} points and {} rescues, want 101 and 0",
            ds.points(),
            ds.stats.rescues
        ));
    }
    let v1 = ds.axis_values();
    for name in ds.names().iter().filter(|n| n.starts_with('g')) {
        let col = ds.column(name).unwrap_or(&[]);
        if col.iter().zip(v1).any(|(v, s)| *v < -1e-9 || *v > s + 1e-9) {
            return Err(format!("node {name} leaves [0, V1]"));
        }
    }
    Ok(())
}

impl Workload for DcMesh30 {
    type Out = Dataset;

    fn setup(_seed: u64, tr: &mut Tracer) -> Result<(Self, Dataset), String> {
        let deck = tr.span("deck.generate", |_| nanosim::workloads::rtd_mesh_deck(MESH));
        let circuit = parse(tr, &deck)?;
        let mut sim = open(tr, circuit)?;
        let warm = tr.span("op", |tr| run(tr, &mut sim, table1_sweep()))?;
        let w = DcMesh30 {
            deck,
            sim,
            reference: Vec::new(),
        };
        Ok((w, warm))
    }

    fn set_reference(&mut self, warmup: Dataset) -> Result<u64, String> {
        check_mesh_sweep(&warmup)?;
        self.reference = column_hashes(&warmup);
        Ok(digest(&self.reference))
    }

    fn op(&mut self, tr: &mut Tracer) -> Result<Dataset, String> {
        let sim = &mut self.sim;
        tr.span("op", |tr| run(tr, sim, table1_sweep()))
    }

    fn check(&self, ds: Dataset) -> Result<Counts, String> {
        same_hashes("dc sweep", &column_hashes(&ds), &self.reference)?;
        check_mesh_sweep(&ds)?;
        let mut c = Counts::default();
        c.add(&ds);
        Ok(c)
    }

    fn work(c: &Counts) -> u64 {
        c.points
    }

    fn decks(&self) -> Vec<String> {
        vec![self.deck.clone()]
    }
}

// ----------------------------------------------------------- tran_fig8_fig9

/// SWEC adaptive transients of the Fig 8 FET-RTD inverter (0.2 ns step,
/// 100 ns) and the Fig 9 RTD D flip-flop (0.2 ns step, 500 ns); each op
/// opens a fresh session per circuit.
pub struct TranFig8Fig9 {
    decks: [String; 2],
    circuits: [Circuit; 2],
    reference: [Vec<u64>; 2],
}

const TRAN: [(f64, f64); 2] = [(0.2e-9, 100e-9), (0.2e-9, 500e-9)];

fn at(ds: &Dataset, node: &str, t: f64) -> Result<f64, String> {
    ds.at(node, t).ok_or_else(|| format!("no node {node}"))
}

/// Fig 8: `out` sits near Vdd/2 while Vin is low (2 ns, 60 ns) and is
/// pulled low while Vin is high (20 ns). Fig 9: the latch holds `out` low
/// while D is low (200 ns) and toggles high after D rises at 300 ns
/// (380 ns, 480 ns).
fn check_tran(fig8: &Dataset, fig9: &Dataset) -> Result<(), String> {
    for ds in [fig8, fig9] {
        all_finite(ds)?;
    }
    let (hi0, lo, hi1) = (
        at(fig8, "out", 2e-9)?,
        at(fig8, "out", 20e-9)?,
        at(fig8, "out", 60e-9)?,
    );
    if !(hi0 > 2.4 && hi1 > 2.4 && lo < 0.5) {
        return Err(format!("fig 8 out does not swing: {hi0} / {lo} / {hi1} V"));
    }
    let (before, after0, after1) = (
        at(fig9, "out", 200e-9)?,
        at(fig9, "out", 380e-9)?,
        at(fig9, "out", 480e-9)?,
    );
    if !(before < 0.5 && after0 > 4.0 && after1 > 4.0) {
        return Err(format!(
            "fig 9 latch does not toggle: {before} / {after0} / {after1} V"
        ));
    }
    Ok(())
}

impl Workload for TranFig8Fig9 {
    type Out = [Dataset; 2];

    fn setup(_seed: u64, tr: &mut Tracer) -> Result<(Self, [Dataset; 2]), String> {
        let decks = tr.span("deck.generate", |_| {
            [
                write_netlist(&nanosim::workloads::fet_rtd_inverter()),
                write_netlist(&nanosim::workloads::rtd_d_flip_flop()),
            ]
        });
        let circuits = [parse(tr, &decks[0])?, parse(tr, &decks[1])?];
        let mut w = TranFig8Fig9 {
            decks,
            circuits,
            reference: [Vec::new(), Vec::new()],
        };
        let warm = w.op(tr)?;
        Ok((w, warm))
    }

    fn set_reference(&mut self, warmup: [Dataset; 2]) -> Result<u64, String> {
        check_tran(&warmup[0], &warmup[1])?;
        self.reference = [column_hashes(&warmup[0]), column_hashes(&warmup[1])];
        Ok(digest(&[
            digest(&self.reference[0]),
            digest(&self.reference[1]),
        ]))
    }

    fn op(&mut self, tr: &mut Tracer) -> Result<[Dataset; 2], String> {
        let circuits = &self.circuits;
        tr.span("op", |tr| {
            let mut one = |i: usize| -> Result<Dataset, String> {
                let mut sim = open(tr, circuits[i].clone())?;
                run(tr, &mut sim, Analysis::transient(TRAN[i].0, TRAN[i].1))
            };
            Ok([one(0)?, one(1)?])
        })
    }

    fn check(&self, out: [Dataset; 2]) -> Result<Counts, String> {
        same_hashes("fig 8", &column_hashes(&out[0]), &self.reference[0])?;
        same_hashes("fig 9", &column_hashes(&out[1]), &self.reference[1])?;
        check_tran(&out[0], &out[1])?;
        let mut c = Counts::default();
        c.add(&out[0]);
        c.add(&out[1]);
        Ok(c)
    }

    fn work(c: &Counts) -> u64 {
        c.tran_steps
    }

    fn decks(&self) -> Vec<String> {
        self.decks.to_vec()
    }
}

// ---------------------------------------------------------- em_spread_mesh8

/// Fig 10 Euler–Maruyama ensemble on an 8×8 RC mesh with a noise current
/// source at every node and 5 % per-path parameter spread: 64 paths × 100
/// steps per op, on one session.
pub struct EmSpreadMesh8 {
    deck: String,
    sim: Simulator,
    seed: u64,
    reference: Vec<u64>,
}

const EM_N: usize = 8;
const EM_PATHS: usize = 64;
const EM_DT: f64 = 1e-11;
const EM_HORIZON: f64 = 1e-9;

/// The 8×8 mesh: at every node 1 kΩ and 1 pF to ground and the Fig 10
/// drive `NOISE(0.85 mA, 2.2 nA·√s)`; 1 kΩ between grid neighbours. With
/// every node driven alike no current crosses the grid on average, so each
/// node's mean follows the Fig 10 node, `0.85 V · (1 − e^{−t/1 ns})`.
pub fn em_mesh_deck(n: usize) -> String {
    let mut d = format!(".title noisy rc mesh {n}x{n} (fig 10)\n");
    for r in 0..n {
        for c in 0..n {
            d.push_str(&format!(
                "I{r}_{c} 0 n{r}_{c} NOISE(0.85m 2.2n)\nRg{r}_{c} n{r}_{c} 0 1k\nC{r}_{c} n{r}_{c} 0 1p\n"
            ));
            if c + 1 < n {
                d.push_str(&format!("Rh{r}_{c} n{r}_{c} n{r}_{} 1k\n", c + 1));
            }
            if r + 1 < n {
                d.push_str(&format!("Rv{r}_{c} n{r}_{c} n{}_{c} 1k\n", r + 1));
            }
        }
    }
    d.push_str(".end\n");
    d
}

fn em_request(seed: u64) -> nanosim::core::sim::EmEnsemble {
    Analysis::em_ensemble(EM_HORIZON)
        .options(EmOptions {
            dt: EM_DT,
            paths: EM_PATHS,
            seed,
            threads: 1,
            param_spread: 0.05,
            ..EmOptions::default()
        })
        .plan(ExecPlan::Serial)
}

/// 64 paths; every node's mean at 1 ns near the analytic 0.537 V with a
/// non-zero spread; and the Fig 10 point — the ensemble's worst running
/// peak lies above the mean.
fn check_em(ds: &Dataset) -> Result<(), String> {
    all_finite(ds)?;
    if ds.paths() != EM_PATHS {
        return Err(format!("{} paths, want {EM_PATHS}", ds.paths()));
    }
    for r in 0..EM_N {
        for c in 0..EM_N {
            let node = format!("n{r}_{c}");
            let mean = ds.value(&node).ok_or_else(|| format!("no node {node}"))?;
            let sd = ds.value(&format!("std({node})")).unwrap_or(0.0);
            if !(0.45..0.62).contains(&mean) || sd <= 0.0 {
                return Err(format!("{node}: mean {mean} V, std {sd} V at 1 ns"));
            }
            let peak = ds
                .peak_summary(&node)
                .ok_or_else(|| format!("no peaks for {node}"))?;
            if peak.worst_peak <= mean {
                return Err(format!(
                    "{node}: worst peak {} ≤ mean {mean}",
                    peak.worst_peak
                ));
            }
        }
    }
    Ok(())
}

impl Workload for EmSpreadMesh8 {
    type Out = Dataset;

    fn setup(seed: u64, tr: &mut Tracer) -> Result<(Self, Dataset), String> {
        let deck = tr.span("deck.generate", |_| em_mesh_deck(EM_N));
        let circuit = parse(tr, &deck)?;
        let mut sim = open(tr, circuit)?;
        let warm = tr.span("op", |tr| run(tr, &mut sim, em_request(seed)))?;
        let w = EmSpreadMesh8 {
            deck,
            sim,
            seed,
            reference: Vec::new(),
        };
        Ok((w, warm))
    }

    fn set_reference(&mut self, warmup: Dataset) -> Result<u64, String> {
        check_em(&warmup)?;
        self.reference = column_hashes(&warmup);
        Ok(digest(&self.reference))
    }

    fn op(&mut self, tr: &mut Tracer) -> Result<Dataset, String> {
        let (sim, seed) = (&mut self.sim, self.seed);
        tr.span("op", |tr| run(tr, sim, em_request(seed)))
    }

    fn check(&self, ds: Dataset) -> Result<Counts, String> {
        same_hashes("em ensemble", &column_hashes(&ds), &self.reference)?;
        check_em(&ds)?;
        let mut c = Counts::default();
        c.add(&ds);
        Ok(c)
    }

    fn work(c: &Counts) -> u64 {
        c.em_path_steps
    }

    fn decks(&self) -> Vec<String> {
        vec![self.deck.clone()]
    }
}

// -------------------------------------------------------- serve_param_study

/// JSON-lines parameter study through `handle_line` against a fresh
/// service per op: one `batch` over the grid, a `result` for every run, and
/// a resubmit of every point (all result hits).
pub struct ServeParamStudy {
    deck: String,
    requests: ServeRequests,
    reference: Vec<u64>,
}

/// Side of the parameterised mesh the study runs on.
pub const SERVE_MESH: usize = 10;

/// The study's grid: 10 grid resistances × 2 feed resistances. Fixed, so
/// every count and response size is the same for every seed; the seed only
/// orders the `result` and resubmit requests.
pub fn serve_grid() -> Vec<Vec<(String, f64)>> {
    nanosim::workloads::param_grid(&[
        (
            "rgrid".into(),
            (0..10).map(|k| 60.0 + 10.0 * f64::from(k)).collect(),
        ),
        ("rfeed".into(), vec![40.0, 60.0]),
    ])
}

fn params_json(point: &[(String, f64)]) -> Json {
    Json::Obj(
        point
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

/// A `submit` request for one grid point.
pub fn submit_line(deck: &str, point: &[(String, f64)]) -> String {
    Json::Obj(vec![
        ("cmd".into(), Json::str("submit")),
        ("deck".into(), Json::str(deck)),
        ("params".into(), params_json(point)),
    ])
    .render()
}

/// A `result` request (with data) for one run.
pub fn result_line(run: u64) -> String {
    format!("{{\"cmd\":\"result\",\"run\":{run}}}")
}

/// Request lines of one op.
struct ServeRequests {
    /// The `batch` line.
    batch: String,
    /// One `result` line per run, in seeded order.
    results: Vec<String>,
    /// One `submit` line per grid point, in seeded order.
    resubmits: Vec<String>,
}

impl ServeRequests {
    /// Builds the lines for `deck` over [`serve_grid`], ordered by `seed`.
    fn new(deck: &str, seed: u64) -> ServeRequests {
        let grid = serve_grid();
        let batch = Json::Obj(vec![
            ("cmd".into(), Json::str("batch")),
            ("deck".into(), Json::str(deck)),
            (
                "grid".into(),
                Json::Arr(grid.iter().map(|p| params_json(p)).collect()),
            ),
        ])
        .render();
        let mut rng = SplitMix(seed);
        let mut runs: Vec<u64> = (1..=grid.len() as u64).collect();
        rng.shuffle(&mut runs);
        let results = runs.iter().map(|&r| result_line(r)).collect();
        let mut order: Vec<usize> = (0..grid.len()).collect();
        rng.shuffle(&mut order);
        let resubmits = order.iter().map(|&k| submit_line(deck, &grid[k])).collect();
        ServeRequests {
            batch,
            results,
            resubmits,
        }
    }
}

/// Everything one serve op produced; the service stays alive for checking.
pub struct ServeOut {
    svc: SimService,
    batch: String,
    results: Vec<String>,
    resubmits: Vec<String>,
}

fn response(line: &str) -> Result<Json, String> {
    let v = json::parse(line).map_err(|e| format!("bad response JSON: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request failed: {}", &line[..line.len().min(300)]));
    }
    Ok(v)
}

/// `status/cache` of every run in a response.
pub fn dispositions(v: &Json) -> Vec<String> {
    v.get("runs")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|r| {
            let status = r.get("status").and_then(Json::as_str).unwrap_or("?");
            let cache = r.get("cache").and_then(Json::as_str).unwrap_or("?");
            format!("{status}/{cache}")
        })
        .collect()
}

/// Masked response bytes and hashes, in request order.
fn masked(out: &ServeOut) -> (u64, Vec<u64>) {
    let mut bytes = 0;
    let mut hashes = Vec::with_capacity(1 + out.results.len() + out.resubmits.len());
    for line in std::iter::once(&out.batch)
        .chain(&out.results)
        .chain(&out.resubmits)
    {
        let m = mask_volatile(line);
        bytes += m.len() as u64;
        hashes.push(fnv(FNV_BASIS, m.as_bytes()));
    }
    (bytes, hashes)
}

/// The paper-level invariant of a study: one cold run then warm rebinds,
/// every `result` answered, every resubmit a result hit. Checked in full on
/// the reference; later ops match it response for response.
fn check_responses(out: &ServeOut) -> Result<(), String> {
    let mut want = vec!["done/warm".to_string(); serve_grid().len()];
    want[0] = "done/cold".into();
    let runs = dispositions(&response(&out.batch)?);
    if runs != want {
        return Err(format!("batch dispositions {runs:?}"));
    }
    for line in &out.results {
        response(line)?;
    }
    for line in &out.resubmits {
        if dispositions(&response(line)?) != ["done/result-hit"] {
            return Err(format!("resubmit was not a result hit: {line}"));
        }
    }
    Ok(())
}

/// Exact counts of an op whose responses matched the reference: the
/// dispositions it implies, the masked bytes, and the engine statistics of
/// every run, each a finite 7-point sweep with no rescue.
fn serve_counts(out: &mut ServeOut, response_bytes: u64) -> Result<Counts, String> {
    let g = serve_grid().len() as u64;
    let mut c = Counts {
        serve_cold: 1,
        serve_warm: g - 1,
        serve_hits: out.resubmits.len() as u64,
        serve_response_bytes: response_bytes,
        ..Counts::default()
    };
    for id in 1..=g {
        let rec = out
            .svc
            .result(RunId(id))
            .map_err(|e| format!("run {id}: {e}"))?;
        let ds = &rec
            .result
            .as_ref()
            .ok_or_else(|| format!("run {id} has no result"))?
            .dataset;
        all_finite(ds)?;
        if ds.points() != 7 || ds.stats.rescues != 0 {
            return Err(format!(
                "run {id}: {} points, {} rescues",
                ds.points(),
                ds.stats.rescues
            ));
        }
        c.add(ds);
    }
    Ok(c)
}

impl Workload for ServeParamStudy {
    type Out = ServeOut;

    fn setup(seed: u64, tr: &mut Tracer) -> Result<(Self, ServeOut), String> {
        let (deck, requests) = tr.span("deck.generate", |_| {
            let deck = nanosim::workloads::rtd_mesh_param_deck(SERVE_MESH);
            let requests = ServeRequests::new(&deck, seed);
            (deck, requests)
        });
        // The client checks its deck before sending it.
        let circuit = parse(tr, &deck)?;
        let report = tr.span("circuit.lint", |_| nanosim::circuit::lint_circuit(&circuit));
        if report.has_errors() {
            return Err(format!("lint: {}", report.summary()));
        }
        let mut w = ServeParamStudy {
            deck,
            requests,
            reference: Vec::new(),
        };
        let warm = w.op(tr)?;
        Ok((w, warm))
    }

    fn set_reference(&mut self, mut warmup: ServeOut) -> Result<u64, String> {
        check_responses(&warmup)?;
        let (bytes, hashes) = masked(&warmup);
        serve_counts(&mut warmup, bytes)?;
        self.reference = hashes;
        Ok(digest(&self.reference))
    }

    fn op(&mut self, tr: &mut Tracer) -> Result<ServeOut, String> {
        let req = &self.requests;
        Ok(tr.span("op", |tr| {
            let mut svc = tr.span("serve.service_new", |_| {
                SimService::new(ServiceOptions::default())
            });
            let batch = tr.span("serve.batch", |_| handle_line(&mut svc, &req.batch));
            let results = req
                .results
                .iter()
                .map(|l| tr.span("serve.result", |_| handle_line(&mut svc, l)))
                .collect();
            let resubmits = req
                .resubmits
                .iter()
                .map(|l| tr.span("serve.resubmit", |_| handle_line(&mut svc, l)))
                .collect();
            ServeOut {
                svc,
                batch,
                results,
                resubmits,
            }
        }))
    }

    fn check(&self, mut out: ServeOut) -> Result<Counts, String> {
        let (bytes, hashes) = masked(&out);
        same_hashes("serve responses", &hashes, &self.reference)?;
        serve_counts(&mut out, bytes)
    }

    fn work(c: &Counts) -> u64 {
        c.serve_cold + c.serve_warm + c.serve_hits
    }

    fn decks(&self) -> Vec<String> {
        vec![self.deck.clone()]
    }
}
