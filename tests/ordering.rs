//! Fill-reducing-ordering integration: AMD must cut LU fill on the Table I
//! meshes, every ordering must reproduce the natural-order physics, the
//! default (`Auto`) pipeline must stay bit-identical on small systems, and
//! ordered runs must be deterministic across repeats and worker counts.
//!
//! `fill_regression_amd_vs_natural_mesh10` and `fill_regression_amd_mesh40`
//! are the CI fill-regression gates: they fail the build if AMD ever
//! produces more fill than natural order on the Table I 10×10 mesh, or more
//! fill or factor flops than its recorded bounds on the 40×40 mesh.

use nanosim::core::sim::SWEEP_CHUNK;
use nanosim::prelude::*;
use nanosim::workloads;

/// Runs one op through a session pinned to `ordering` and returns its
/// engine statistics.
fn op_stats(circuit: Circuit, ordering: OrderingChoice) -> EngineStats {
    let mut sim = Simulator::with_options(
        circuit,
        SimOptions {
            ordering,
            ..Default::default()
        },
    )
    .expect("assembles");
    let ds = sim.run(Analysis::op()).expect("op solves");
    ds.stats.clone()
}

/// `|a - b| <= tol * max(1, |b|)` element-wise over two columns.
fn assert_columns_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let scale = y.abs().max(1.0);
        assert!(
            (x - y).abs() <= tol * scale,
            "{what}[{i}]: {x} vs {y} (rel {})",
            (x - y).abs() / scale
        );
    }
}

#[test]
fn fill_regression_amd_vs_natural_mesh10() {
    // CI gate: AMD may never produce more LU fill than natural order on
    // the Table I 10×10 mesh.
    let natural = op_stats(workloads::rtd_mesh(10), OrderingChoice::Natural);
    let amd = op_stats(workloads::rtd_mesh(10), OrderingChoice::Amd);
    assert!(natural.nnz_lu > 0 && amd.nnz_lu > 0, "telemetry missing");
    assert!(
        amd.nnz_lu <= natural.nnz_lu,
        "fill regression: nnz_lu(amd) = {} > nnz_lu(natural) = {}",
        amd.nnz_lu,
        natural.nnz_lu
    );
    println!(
        "mesh10: nnz_lu natural {} vs amd {} ({:+.1}%)",
        natural.nnz_lu,
        amd.nnz_lu,
        100.0 * (amd.nnz_lu as f64 - natural.nnz_lu as f64) / natural.nnz_lu as f64
    );
}

#[test]
fn amd_strictly_reduces_fill_on_mesh20() {
    // Acceptance: on the 20×20 mesh AMD must *strictly* beat natural order.
    let natural = op_stats(workloads::rtd_mesh(20), OrderingChoice::Natural);
    let amd = op_stats(workloads::rtd_mesh(20), OrderingChoice::Amd);
    assert!(
        amd.nnz_lu < natural.nnz_lu,
        "nnz_lu(amd) = {} !< nnz_lu(natural) = {}",
        amd.nnz_lu,
        natural.nnz_lu
    );
    assert!(amd.fill_ratio < natural.fill_ratio);
    assert!(amd.fill_ratio >= 1.0, "L+U cannot be sparser than A");
    println!(
        "mesh20: nnz_lu natural {} (fill {:.2}x) vs amd {} (fill {:.2}x) — {:.1}% less fill",
        natural.nnz_lu,
        natural.fill_ratio,
        amd.nnz_lu,
        amd.fill_ratio,
        100.0 * (natural.nnz_lu - amd.nnz_lu) as f64 / natural.nnz_lu as f64
    );
}

#[test]
fn fill_regression_amd_mesh40() {
    // CI gate for AMD supervariable detection (mass elimination): on the
    // 40×40 mesh AMD must stay at or below the fill and factorization
    // flops it reached when supervariables landed (40 607 / 1 012 788),
    // and strictly below natural order on both.
    const MAX_NNZ_LU: u64 = 40_607;
    const MAX_FACTOR_FLOPS: u64 = 1_012_788;
    let natural = op_stats(workloads::rtd_mesh(40), OrderingChoice::Natural);
    let amd = op_stats(workloads::rtd_mesh(40), OrderingChoice::Amd);
    assert!(
        amd.nnz_lu <= MAX_NNZ_LU,
        "fill regression: nnz_lu(amd) = {} > {MAX_NNZ_LU}",
        amd.nnz_lu
    );
    assert!(
        amd.factor_flops <= MAX_FACTOR_FLOPS,
        "flop regression: factor_flops(amd) = {} > {MAX_FACTOR_FLOPS}",
        amd.factor_flops
    );
    assert!(
        amd.nnz_lu < natural.nnz_lu,
        "nnz_lu(amd) = {} !< nnz_lu(natural) = {}",
        amd.nnz_lu,
        natural.nnz_lu
    );
    assert!(
        amd.factor_flops < natural.factor_flops,
        "factor_flops(amd) = {} !< factor_flops(natural) = {}",
        amd.factor_flops,
        natural.factor_flops
    );
    println!(
        "mesh40: nnz_lu natural {} vs amd {} ({:+.1}%), factor flops natural {} vs amd {} ({:+.1}%)",
        natural.nnz_lu,
        amd.nnz_lu,
        100.0 * (amd.nnz_lu as f64 - natural.nnz_lu as f64) / natural.nnz_lu as f64,
        natural.factor_flops,
        amd.factor_flops,
        100.0 * (amd.factor_flops as f64 - natural.factor_flops as f64)
            / natural.factor_flops as f64,
    );
}

#[test]
fn fig7_dc_sweep_matches_natural_under_any_ordering() {
    // Fig 7(a) workload: the RTD divider swept through its NDR region.
    let sweep = |ordering| {
        let mut sim = Simulator::with_options(
            workloads::rtd_divider(50.0),
            SimOptions {
                ordering,
                ..Default::default()
            },
        )
        .expect("assembles");
        sim.run(Analysis::dc_sweep("V1", 0.0, 5.0, 0.05))
            .expect("sweep runs")
    };
    let natural = sweep(OrderingChoice::Natural);
    for ordering in [OrderingChoice::Amd, OrderingChoice::Auto] {
        let ds = sweep(ordering);
        assert_eq!(ds.axis_values(), natural.axis_values());
        for col in ["mid", "I(X1)"] {
            assert_columns_close(
                ds.column(col).unwrap(),
                natural.column(col).unwrap(),
                1e-9,
                &format!("{ordering:?}/{col}"),
            );
        }
    }
}

#[test]
fn fig8_transient_matches_natural_under_any_ordering() {
    // Fig 8(a) workload: the FET-RTD inverter transient.
    let tran = |ordering| {
        let mut sim = Simulator::with_options(
            workloads::fet_rtd_inverter(),
            SimOptions {
                ordering,
                ..Default::default()
            },
        )
        .expect("assembles");
        sim.run(Analysis::transient(0.5e-9, 20e-9))
            .expect("transient runs")
    };
    let natural = tran(OrderingChoice::Natural);
    for ordering in [OrderingChoice::Amd, OrderingChoice::Auto] {
        let ds = tran(ordering);
        if ds.axis_values() == natural.axis_values() {
            // Same adaptive step sequence: compare sample by sample.
            assert_columns_close(
                ds.column("out").unwrap(),
                natural.column("out").unwrap(),
                1e-9,
                &format!("{ordering:?}/out"),
            );
        } else {
            // Permuted-arithmetic roundoff may legally flip a marginal
            // accept/reject decision and change the step sequence; the
            // *waveform* must still agree wherever both runs sampled.
            for (&t, &v_nat) in natural
                .axis_values()
                .iter()
                .zip(natural.column("out").unwrap())
            {
                let v = ds.at("out", t).unwrap();
                assert!(
                    (v - v_nat).abs() <= 1e-6 * v_nat.abs().max(1.0),
                    "{ordering:?}/out at t = {t}: {v} vs {v_nat}"
                );
            }
        }
    }
}

#[test]
fn mesh20_sweep_matches_natural_under_amd() {
    // The workload where fill actually differs: ordered solves must still
    // track natural-order physics point by point.
    let sweep = |ordering| {
        let mut sim = Simulator::with_options(
            workloads::rtd_mesh(20),
            SimOptions {
                ordering,
                ..Default::default()
            },
        )
        .expect("assembles");
        sim.run(Analysis::dc_sweep("V1", 0.0, 1.0, 0.1))
            .expect("sweep runs")
    };
    let natural = sweep(OrderingChoice::Natural);
    let amd = sweep(OrderingChoice::Amd);
    for col in ["g0_0", "g9_9", "g19_19", "I(V1)"] {
        assert_columns_close(
            amd.column(col).unwrap(),
            natural.column(col).unwrap(),
            1e-9,
            col,
        );
    }
}

#[test]
fn default_auto_is_bit_identical_to_natural_below_threshold() {
    // The Table I 10×10 mesh (102 unknowns) sits below the auto-AMD
    // threshold: a default session must resolve to natural order and stay
    // bit-identical to an explicitly pinned natural session (which is in
    // turn the exact pre-ordering pipeline).
    const { assert!(10 * 10 + 2 < OrderingChoice::AUTO_AMD_THRESHOLD) };
    let mut auto_sim = Simulator::new(workloads::rtd_mesh(10)).expect("assembles");
    let mut nat_sim = Simulator::with_options(
        workloads::rtd_mesh(10),
        SimOptions {
            ordering: OrderingChoice::Natural,
            ..Default::default()
        },
    )
    .expect("assembles");
    let a = auto_sim
        .run(Analysis::dc_sweep("V1", 0.0, 2.0, 0.1))
        .expect("sweep");
    let n = nat_sim
        .run(Analysis::dc_sweep("V1", 0.0, 2.0, 0.1))
        .expect("sweep");
    for name in a.names() {
        assert_eq!(
            a.column(name).unwrap(),
            n.column(name).unwrap(),
            "column {name} not bit-identical under default ordering"
        );
    }
    assert_eq!(auto_sim.ordering_name(), "natural");
}

#[test]
fn auto_resolves_to_amd_above_threshold() {
    let mut sim = Simulator::new(workloads::rtd_mesh(20)).expect("assembles");
    assert_eq!(sim.ordering_name(), "auto", "cold session reports choice");
    sim.run(Analysis::op()).expect("op solves");
    assert_eq!(sim.ordering_name(), "amd");
}

#[test]
fn ordered_sharded_sweep_bit_identical_across_worker_counts() {
    // Ordering is a pure function of the pattern, so sharded sweeps under
    // AMD keep the bit-identical-at-any-worker-count contract.
    let run = |workers: usize| {
        let mut sim = Simulator::with_options(
            workloads::rtd_mesh(12),
            SimOptions {
                ordering: OrderingChoice::Amd,
                ..Default::default()
            },
        )
        .expect("assembles");
        let analysis = Analysis::dc_sweep("V1", 0.0, 2.0, 0.05).chunk_points(SWEEP_CHUNK);
        let analysis = if workers == 0 {
            analysis
        } else {
            analysis.plan(ExecPlan::sharded(workers))
        };
        sim.run(analysis).expect("sweep runs")
    };
    let serial = run(0);
    for workers in [1, 2, 4, 7] {
        let sharded = run(workers);
        for name in serial.names() {
            assert_eq!(
                serial.column(name).unwrap(),
                sharded.column(name).unwrap(),
                "workers={workers}, column {name}"
            );
        }
    }
    // And repeated runs are bit-deterministic.
    let again = run(0);
    assert_eq!(serial.column("g0_0"), again.column("g0_0"));
}

#[test]
fn telemetry_flows_through_datasets() {
    let mut sim = Simulator::with_options(
        workloads::rtd_mesh(10),
        SimOptions {
            ordering: OrderingChoice::Amd,
            ..Default::default()
        },
    )
    .expect("assembles");
    let sweep = sim
        .run(Analysis::dc_sweep("V1", 0.0, 1.0, 0.1))
        .expect("sweep runs");
    assert!(sweep.stats.nnz_lu > 0);
    assert!(sweep.stats.fill_ratio >= 1.0);
    assert!(sweep.stats.factor_flops > 0, "warm-up factor flops counted");
    assert!(
        sweep.stats.refactor_flops > 0,
        "per-point refactor flops counted"
    );
    assert!(
        sweep.stats.refactors > sweep.stats.full_factors,
        "sweep is refactor-dominated: {}",
        sweep.stats
    );
    // The Display form surfaces the new counters.
    let text = sweep.stats.to_string();
    assert!(text.contains("lu nnz"), "{text}");
    assert!(text.contains("fill"), "{text}");
}
