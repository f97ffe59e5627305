//! Layer calibration for the traced run: times each layer's public entry
//! points from outside, on the matrices and decks the workloads use, so
//! every traced run reports every per-layer metric.

use crate::trace::Tracer;
use crate::workloads::{
    self, dispositions, result_line, serve_grid, submit_line, table1_sweep, MESH, SERVE_MESH,
};
use nanosim::circuit::{lint_circuit, parse_netlist, parse_netlist_with_params, Circuit};
use nanosim::core::{Analysis, ExecPlan, Simulator};
use nanosim::devices::rtd::Rtd;
use nanosim::devices::NonlinearTwoTerminal;
use nanosim::numeric::sparse::{PivotStrategy, SparseLu};
use nanosim::numeric::{FlopCounter, OrderingChoice};
use nanosim::serve::json;
use nanosim::serve::{handle_line, DeckKey, ServiceOptions, SimService, TopologyKey};
use std::hint::black_box;
use std::time::Instant;

/// `(name, value, unit)` of one per-layer metric.
pub type Metric = (&'static str, f64, &'static str);

/// Times `f` under a span `name` until at least `reps` samples and `secs`
/// seconds are collected; returns the median sample in seconds.
fn timed<R>(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    secs: f64,
    mut f: impl FnMut() -> R,
) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < reps || start.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        black_box(tr.span(name, |_| f()));
        samples.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&samples)
}

/// Runs every calibration and returns the metrics; `decks` are the traced
/// workload's own decks.
pub fn calibrate(tr: &mut Tracer, decks: &[String]) -> Result<Vec<Metric>, String> {
    tr.next_op();
    tr.span("calibrate", |tr| {
        let mut m = deck_layers(tr, decks)?;
        m.extend(dc_layers(tr)?);
        m.extend(serve_layer(tr)?);
        Ok(m)
    })
}

/// Parse, lint, fingerprint and session open of the workload's decks,
/// each the sum over decks of the per-deck median.
fn deck_layers(tr: &mut Tracer, decks: &[String]) -> Result<Vec<Metric>, String> {
    let (mut parse_s, mut lint_s, mut key_s, mut new_s) = (0.0, 0.0, 0.0, 0.0);
    for deck in decks {
        let circuit: Circuit = parse_netlist(deck)
            .map_err(|e| format!("parse: {e}"))?
            .circuit;
        parse_s += timed(tr, "circuit.parse", 9, 0.05, || parse_netlist(deck));
        lint_s += timed(tr, "circuit.lint", 9, 0.05, || lint_circuit(&circuit));
        key_s += timed(tr, "serve.fingerprint", 9, 0.02, || {
            (DeckKey::of(&circuit), TopologyKey::of(&circuit))
        });
        let mut samples = Vec::new();
        for _ in 0..9 {
            let c = circuit.clone();
            let t = Instant::now();
            let sim = tr.span("core.session.new", |_| Simulator::new(c));
            samples.push(t.elapsed().as_secs_f64());
            sim.map_err(|e| format!("session: {e}"))?;
        }
        new_s += crate::stats::median(&samples);
    }
    Ok(vec![
        ("circuit.parse_ms", parse_s * 1e3, "ms"),
        ("circuit.lint_ms", lint_s * 1e3, "ms"),
        ("serve.fingerprint_us", key_s * 1e6, "us"),
        ("core.session.new_ms", new_s * 1e3, "ms"),
    ])
}

const RTD_BATCH: usize = 1000;

/// One batch of RTD `Geq` evaluations across 0–5 V.
fn rtd_batch() -> f64 {
    let rtd = Rtd::date2005();
    let mut flops = FlopCounter::new();
    (0..RTD_BATCH)
        .map(|k| rtd.equivalent_conductance(black_box(k as f64 * 0.005), &mut flops))
        .sum()
}

/// The `dc_mesh30` layer split. A warm mesh30 session runs serial and
/// `ExecPlan::sharded(2)` sweeps (which must be bit-identical); between them
/// the LU kernels run on `table1_mesh_matrix(30, ·)` under the ordering and
/// pivoting the session's solver uses (`Auto`, i.e. AMD at 902 unknowns),
/// and the RTD model is evaluated. Interleaving keeps every per-call time
/// and the op time it is divided by under the same host conditions.
fn dc_layers(tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let deck = nanosim::workloads::rtd_mesh_deck(MESH);
    let circuit = parse_netlist(&deck)
        .map_err(|e| format!("parse: {e}"))?
        .circuit;
    let mut sim = Simulator::new(circuit).map_err(|e| format!("session: {e}"))?;
    let reference = sim.run(table1_sweep()).map_err(|e| format!("run: {e}"))?;
    workloads::check_mesh_sweep(&reference)?;
    let counts = {
        let ds = sim.run(table1_sweep()).map_err(|e| format!("run: {e}"))?;
        ds.stats
    };
    let reference = crate::stats::column_hashes(&reference);

    let a = [
        nanosim_bench::table1_mesh_matrix(MESH, 0.8),
        nanosim_bench::table1_mesh_matrix(MESH, 1.1),
    ];
    let factor = |a| {
        SparseLu::factor_ordered(
            a,
            OrderingChoice::Auto,
            PivotStrategy::default(),
            &mut FlopCounter::new(),
        )
    };
    let mut lu = factor(&a[0]).map_err(|e| format!("factor: {e}"))?;
    eprintln!(
        "numeric calibration: table1_mesh_matrix({MESH}, ·), ordering {} (OrderingChoice::Auto), session ordering {}",
        lu.ordering_name(),
        sim.ordering_name()
    );
    let b: Vec<f64> = (0..a[0].rows()).map(|i| (i as f64 * 0.37).sin()).collect();
    let (mut x, mut work) = (Vec::new(), Vec::new());
    let (mut serial, mut sharded) = (vec![], vec![]);
    let (mut factor_s, mut refactor_s, mut solve_s, mut eval_s) = (vec![], vec![], vec![], vec![]);
    for _ in 0..3 {
        let t = Instant::now();
        let ds = tr.span("core.session.run", |_| sim.run(table1_sweep()));
        serial.push(t.elapsed().as_secs_f64());
        ds.map_err(|e| format!("run: {e}"))?;
        let t = Instant::now();
        let ds = tr.span("core.session.run.sharded2", |_| {
            sim.run(table1_sweep().plan(ExecPlan::sharded(2)))
        });
        sharded.push(t.elapsed().as_secs_f64());
        let ds = ds.map_err(|e| format!("sharded run: {e}"))?;
        if crate::stats::column_hashes(&ds) != reference {
            return Err("sharded(2) sweep differs from the serial one".into());
        }
        factor_s.push(timed(tr, "numeric.lu.factor", 3, 0.0, || factor(&a[0])));
        let mut k = 0;
        refactor_s.push(timed(tr, "numeric.lu.refactor", 40, 0.0, || {
            k += 1;
            // The session's solver refactors tolerantly (see SparseLuSolver).
            lu.refactor_tolerant(&a[k % 2], &mut FlopCounter::new())
        }));
        lu.refactor_tolerant(&a[0], &mut FlopCounter::new())
            .map_err(|e| format!("refactor: {e}"))?;
        solve_s.push(timed(tr, "numeric.lu.solve", 200, 0.0, || {
            lu.solve_into(&b, &mut x, &mut work, &mut FlopCounter::new())
        }));
        eval_s.push(timed(tr, "devices.rtd_eval", 10, 0.0, rtd_batch) / RTD_BATCH as f64);
    }
    let med = crate::stats::median;
    let op_s = med(&serial);
    let refactor_share = counts.refactors as f64 * med(&refactor_s) / op_s;
    let solve_share = counts.linear_solves as f64 * med(&solve_s) / op_s;
    let eval_share = counts.device_evals as f64 * med(&eval_s) / op_s;
    Ok(vec![
        ("numeric.lu.factor_ms", med(&factor_s) * 1e3, "ms"),
        ("numeric.lu.refactor_us", med(&refactor_s) * 1e6, "us"),
        ("numeric.lu.solve_us", med(&solve_s) * 1e6, "us"),
        ("devices.rtd_eval_ns", med(&eval_s) * 1e9, "ns"),
        ("core.dc.op_ms", op_s * 1e3, "ms"),
        ("numeric.lu.refactor_share", refactor_share, "ratio"),
        ("numeric.lu.solve_share", solve_share, "ratio"),
        ("devices.eval_share", eval_share, "ratio"),
        (
            "core.dc.unattributed_share",
            1.0 - refactor_share - solve_share - eval_share,
            "ratio",
        ),
        ("core.dc.shard2_speedup", op_s / med(&sharded), "x"),
    ])
}

/// Single `handle_line` submits against fresh services: the cold first
/// point, warm rebinds for the rest, result hits on resubmission, and
/// result rendering; then `Simulator::rebind` and the warm run it enables,
/// on the same grid.
fn serve_layer(tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let deck = nanosim::workloads::rtd_mesh_param_deck(SERVE_MESH);
    let grid = serve_grid();
    let submits: Vec<String> = grid.iter().map(|p| submit_line(&deck, p)).collect();
    let (mut cold, mut warm, mut hit, mut render) = (vec![], vec![], vec![], vec![]);
    let one = |tr: &mut Tracer, svc: &mut SimService, line: &str, want: &str| {
        let t = Instant::now();
        let out = tr.span("serve.handle_line", |_| handle_line(svc, line));
        let dt = t.elapsed().as_secs_f64();
        if !want.is_empty() {
            let got = json::parse(&out)
                .map(|v| dispositions(&v))
                .map_err(|e| format!("bad response JSON: {e}"))?;
            if got != [format!("done/{want}")] {
                return Err(format!("serve calibration: {got:?}, want done/{want}"));
            }
        }
        Ok(dt)
    };
    for _ in 0..5 {
        let mut svc = SimService::new(ServiceOptions::default());
        for (k, line) in submits.iter().enumerate() {
            let dt = one(tr, &mut svc, line, if k == 0 { "cold" } else { "warm" })?;
            if k == 0 {
                cold.push(dt)
            } else {
                warm.push(dt)
            }
        }
        for line in &submits {
            hit.push(one(tr, &mut svc, line, "result-hit")?);
        }
        for id in 1..=grid.len() as u64 {
            render.push(one(tr, &mut svc, &result_line(id), "")?);
        }
    }
    let circuits = grid
        .iter()
        .map(|p| {
            parse_netlist_with_params(&deck, p)
                .map(|d| d.circuit)
                .map_err(|e| format!("parse: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let sweep = || Analysis::dc_sweep("V1", 0.0, 3.0, 0.5).plan(ExecPlan::Serial);
    let mut sim = Simulator::new(circuits[0].clone()).map_err(|e| e.to_string())?;
    sim.run(sweep()).map_err(|e| e.to_string())?;
    let (mut rebind, mut run) = (vec![], vec![]);
    for _ in 0..2 {
        for c in &circuits[1..] {
            let c = c.clone();
            let t = Instant::now();
            let warm = tr.span("core.session.rebind", |_| sim.rebind(c));
            rebind.push(t.elapsed().as_secs_f64());
            if !warm.map_err(|e| format!("rebind: {e}"))? {
                return Err("rebind did not keep the session warm".into());
            }
            let t = Instant::now();
            tr.span("core.session.run", |_| sim.run(sweep()))
                .map_err(|e| e.to_string())?;
            run.push(t.elapsed().as_secs_f64());
        }
    }
    let med = crate::stats::median;
    Ok(vec![
        ("serve.cold_us", med(&cold) * 1e6, "us"),
        ("serve.warm_us", med(&warm) * 1e6, "us"),
        ("serve.hit_us", med(&hit) * 1e6, "us"),
        ("serve.result_render_us", med(&render) * 1e6, "us"),
        ("core.session.rebind_ms", med(&rebind) * 1e3, "ms"),
        ("core.session.warm_run_ms", med(&run) * 1e3, "ms"),
    ])
}
