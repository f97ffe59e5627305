//! Session-API integration: sharded execution plans must be bit-identical
//! to serial runs on the paper's workloads, shard warm-starts must match
//! the serial sweep's continuation behavior, and the one-`Dataset` result
//! model must hold across analysis kinds.

use nanosim::core::em::{EmEngine, EmOptions};
use nanosim::core::mla::MlaEngine;
use nanosim::core::pwl::PwlEngine;
use nanosim::core::sim::SWEEP_CHUNK;
use nanosim::core::swec::SwecDcSweep;
use nanosim::prelude::*;
use proptest::prelude::*;

/// Runs one SWEC sweep of the Table I RTD mesh through the session API,
/// cut into [`SWEEP_CHUNK`]-point chunks, with the given plan.
fn mesh_sweep(n: usize, stop: f64, step: f64, plan: ExecPlan) -> Dataset {
    let mut sim = Simulator::new(nanosim::workloads::rtd_mesh(n)).expect("mesh assembles");
    sim.run(
        Analysis::dc_sweep("V1", 0.0, stop, step)
            .chunk_points(SWEEP_CHUNK)
            .plan(plan),
    )
    .expect("sweep runs")
}

#[test]
fn sharded_sweep_bit_identical_on_table1_mesh() {
    // The Table I headline workload: the 10x10 RTD mesh (101 MNA vars),
    // swept through the devices' NDR territory. Every worker count must
    // produce the exact bits of the serial run.
    let serial = mesh_sweep(10, 3.0, 0.05, ExecPlan::Serial);
    assert_eq!(serial.points(), 61);
    assert!(
        serial.points() > SWEEP_CHUNK,
        "the sweep must span several shard chunks for this test to bite"
    );
    for workers in [1usize, 2, 4, 7] {
        let sharded = mesh_sweep(10, 3.0, 0.05, ExecPlan::sharded(workers));
        assert_eq!(sharded.points(), serial.points());
        for name in serial.names() {
            assert_eq!(
                serial.column(name),
                sharded.column(name),
                "column {name} differs at workers = {workers}"
            );
        }
        // Same work happened, just on more threads.
        assert_eq!(serial.stats.linear_solves, sharded.stats.linear_solves);
        assert_eq!(serial.stats.full_factors, sharded.stats.full_factors);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: on random sweep ranges of a smaller Table I mesh, every
    /// worker count in {1, 2, 4, 7} reproduces the serial sweep bit for
    /// bit — including ranges that cross the RTD peak.
    #[test]
    fn sharded_equals_serial_for_any_worker_count(
        widx in 0usize..4,
        stop in 1.0f64..4.0,
        step_idx in 0usize..3,
    ) {
        let workers = [1usize, 2, 4, 7][widx];
        let step = [0.05, 0.1, 0.15][step_idx];
        let serial = mesh_sweep(4, stop, step, ExecPlan::Serial);
        let sharded = mesh_sweep(4, stop, step, ExecPlan::sharded(workers));
        prop_assert_eq!(serial.points(), sharded.points());
        for name in serial.names() {
            prop_assert_eq!(serial.column(name), sharded.column(name));
        }
    }
}

#[test]
fn shard_warm_start_matches_serial_continuation_at_boundaries() {
    // Regression for the per-shard warm-start policy: each shard starts
    // from a self-consistent solve of the point before its range, so at
    // every chunk boundary the session sweep must continue the way the
    // legacy fully-serial engine (unbroken continuation chain) does. The
    // range stays below the mesh's bistable fold so the fixed point is
    // unique and the comparison is meaningful.
    let circuit = nanosim::workloads::rtd_mesh(10);
    let session = {
        let mut sim = Simulator::new(circuit.clone()).unwrap();
        sim.run(Analysis::dc_sweep("V1", 0.0, 2.0, 0.04).chunk_points(SWEEP_CHUNK))
            .unwrap()
    };
    let legacy = SwecDcSweep::new(SwecOptions::default())
        .run(&circuit, "V1", 0.0, 2.0, 0.04)
        .unwrap();
    assert_eq!(session.points(), legacy.points());
    assert!(session.points() > 3 * SWEEP_CHUNK, "several boundaries");

    // The first chunk is algorithmically identical to the legacy engine.
    let s_mid = session.column("g5_5").unwrap();
    let l_mid = legacy.column("g5_5").unwrap();
    assert_eq!(&s_mid[..SWEEP_CHUNK], &l_mid[..SWEEP_CHUNK]);

    // At and after every shard boundary, the warm-started continuation
    // tracks the serial chain to solver-tolerance accuracy.
    for name in ["g0_0", "g5_5", "g9_9", "I(V1)"] {
        let s = session.column(name).unwrap();
        let l = legacy.column(name).unwrap();
        let scale = l.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-12);
        for (k, (a, b)) in s.iter().zip(l.iter()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-6 * scale,
                "{name}[{k}] (chunk {}): session {a} vs legacy {b}",
                k / SWEEP_CHUNK
            );
        }
    }
}

#[test]
fn ndr_sweep_branch_selection_matches_serial_continuation() {
    // Regression for the chunk warm-start policy on bistable circuits: the
    // flagship Figure 7(a) sweep crosses the RTD's NDR/hysteresis region,
    // where a fixed point solved from zero can land on the wrong branch.
    // The forward continuation ramp must keep every chunk on the branch
    // the legacy serial chain selects — no jump discontinuities at chunk
    // boundaries.
    let circuit = nanosim::workloads::rtd_divider(50.0);
    let legacy = SwecDcSweep::new(SwecOptions::default())
        .run(&circuit, "V1", 0.0, 5.0, 0.02)
        .unwrap();
    let chunked = || Analysis::dc_sweep("V1", 0.0, 5.0, 0.02).chunk_points(SWEEP_CHUNK);
    let mut sim = Simulator::new(circuit).unwrap();
    let session = sim.run(chunked()).unwrap();
    assert!(session.points() > 10 * SWEEP_CHUNK);

    let s_iv = session.curve("I(X1)").unwrap();
    let l_iv = legacy.curve("I(X1)").unwrap();
    let peak = l_iv.peak().unwrap().1;
    let rms = s_iv.rms_difference(&l_iv);
    assert!(rms < 0.01 * peak, "rms {rms:.3e} vs peak {peak:.3e}");
    // No branch jump anywhere: the RTD terminal voltage stays within a
    // small fraction of the 5 V range of the legacy curve at every point
    // (a wrong-branch solution differs by O(1) volts).
    let s_mid = session.column("mid").unwrap();
    let l_mid = legacy.column("mid").unwrap();
    for (k, (a, b)) in s_mid.iter().zip(l_mid.iter()).enumerate() {
        assert!(
            (a - b).abs() < 0.05,
            "branch jump at k={k} (chunk {}): session {a} vs legacy {b}",
            k / SWEEP_CHUNK
        );
    }
    // And sharding that bistable sweep stays bit-identical.
    let sharded = sim.run(chunked().plan(ExecPlan::sharded(4))).unwrap();
    assert_eq!(session.column("mid"), sharded.column("mid"));
}

/// Worst node-voltage error of `ds` against `reference`.
fn worst_node_error(ds: &Dataset, reference: &Dataset) -> f64 {
    let mut worst = 0.0f64;
    for name in reference.names().iter().filter(|n| !n.starts_with("I(")) {
        let (a, b) = (ds.column(name).unwrap(), reference.column(name).unwrap());
        for (x, y) in a.iter().zip(b) {
            worst = worst.max((x - y).abs());
        }
    }
    worst
}

#[test]
fn one_chunk_layout_is_as_accurate_as_sixteen_point_chunks() {
    // The non-iterative sweep lags the self-consistent solution; the
    // chunk ramps cost work and must not be what keeps that lag small.
    // Reference: the fixed-point sweep at a 1e-12 V tolerance. Both worst
    // errors sit at the sweep's top end: 1.771036e-3 V for both layouts
    // on the Table I sweep; on Figure 7(a) 2.334826e-2 V for one chunk and
    // 2.334520e-2 V for 16-point chunks, whose last chunk restarts the lag
    // at its refined start. Hence the 0.1% margin.
    let fixed_point = SwecOptions {
        dc_mode: DcMode::FixedPoint,
        dc_tolerance: 1e-12,
        ..SwecOptions::default()
    };
    for (circuit, stop, step) in [
        (nanosim::workloads::rtd_mesh(10), 3.0, 0.05),
        (nanosim::workloads::rtd_divider(50.0), 5.0, 0.02),
    ] {
        let mut sim = Simulator::new(circuit).unwrap();
        let sweep = || Analysis::dc_sweep("V1", 0.0, stop, step);
        let reference = sim.run(sweep().options(fixed_point.clone())).unwrap();
        let one = sim.run(sweep()).unwrap();
        let chunked = sim.run(sweep().chunk_points(SWEEP_CHUNK)).unwrap();
        let (e_one, e_chunked) = (
            worst_node_error(&one, &reference),
            worst_node_error(&chunked, &reference),
        );
        assert!(
            e_one <= e_chunked * (1.0 + 1e-3),
            "{} points: one chunk {e_one:.6e} V vs 16-point chunks {e_chunked:.6e} V",
            one.points()
        );
        // Through the Figure 7(a) hysteresis, the one chain stays on the
        // reference's branch (a wrong-branch point is O(1) V off).
        let (mid, ref_mid) = (one.column("mid"), reference.column("mid"));
        if let (Some(mid), Some(ref_mid)) = (mid, ref_mid) {
            for (k, (a, b)) in mid.iter().zip(ref_mid).enumerate() {
                assert!((a - b).abs() < 0.05, "branch jump at k={k}: {a} vs {b}");
            }
        }
    }
}

#[test]
fn em_ensemble_plan_is_a_pure_wall_clock_knob() {
    // The session maps ExecPlan onto EmOptions::threads; results must be
    // bit-identical to the engine-level run at any worker count.
    let circuit = nanosim::workloads::noisy_rc_node_fig10();
    let opts = EmOptions {
        dt: 4e-12,
        paths: 64,
        seed: 2005,
        ..EmOptions::default()
    };
    let engine_ref = EmEngine::new(EmOptions {
        threads: 1,
        ..opts.clone()
    })
    .run(&circuit, 1e-9)
    .unwrap();

    let mut sim = Simulator::new(circuit).unwrap();
    for plan in [ExecPlan::Serial, ExecPlan::sharded(3), ExecPlan::sharded(0)] {
        let ds = sim
            .run(Analysis::em_ensemble(1e-9).options(opts.clone()).plan(plan))
            .unwrap();
        assert_eq!(ds.kind(), AnalysisKind::Em);
        assert_eq!(ds.engine(), engine_ref.engine());
        assert_eq!(ds.paths(), 64);
        assert_eq!(ds.names(), engine_ref.names());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ds.axis_values()), bits(engine_ref.axis_values()));
        // Every mean and std(..) column, bit for bit.
        for name in ds.names() {
            assert_eq!(
                bits(ds.column(name).unwrap()),
                bits(engine_ref.column(name).unwrap()),
                "{name} under {plan:?}"
            );
        }
        assert_eq!(
            ds.peak_summary("v").unwrap(),
            engine_ref.peak_summary("v").unwrap()
        );
    }
}

/// Asserts a session run equals the engine entry point's run bit for bit:
/// kind, engine tag, axis, every column, and every work counter. Only the
/// wall time and the session's preflight warning count may differ.
fn assert_same_run(session: &Dataset, engine: &Dataset) {
    assert_eq!(session.kind(), engine.kind());
    assert_eq!(session.engine(), engine.engine());
    assert_eq!(session.axis().label(), engine.axis().label());
    assert_eq!(session.names(), engine.names());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(session.axis_values()), bits(engine.axis_values()));
    for name in session.names() {
        assert_eq!(
            bits(session.column(name).unwrap()),
            bits(engine.column(name).unwrap()),
            "column {name}"
        );
    }
    let counters = |ds: &Dataset| EngineStats {
        elapsed: Default::default(),
        preflight_warnings: 0,
        ..ds.stats.clone()
    };
    assert_eq!(counters(session), counters(engine));
}

#[test]
fn session_baselines_match_engine_entry_points() {
    // MLA and PWL run on the session's MNA system; the engines' circuit
    // entry points build their own. Both must give the same run.
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let mid = ckt.node("mid");
    ckt.add_voltage_source(
        "V1",
        vin,
        Circuit::GROUND,
        SourceWaveform::pwl(vec![(0.0, 0.0), (2e-9, 3.0), (4e-9, 3.0)]).unwrap(),
    )
    .unwrap();
    ckt.add_resistor("R1", vin, mid, 50.0).unwrap();
    ckt.add_rtd("X1", mid, Circuit::GROUND, Rtd::date2005())
        .unwrap();
    ckt.add_capacitor("C1", mid, Circuit::GROUND, 1e-13)
        .unwrap();
    let mla = MlaEngine::new(MlaOptions::default());
    let pwl = PwlEngine::new();

    let mut sim = Simulator::new(ckt.clone()).unwrap();
    let session = sim
        .run(Analysis::mla_dc_sweep("V1", 0.0, 5.0, 0.1))
        .unwrap();
    assert_same_run(
        &session,
        &mla.run_dc_sweep(&ckt, "V1", 0.0, 5.0, 0.1).unwrap(),
    );
    let session = sim.run(Analysis::mla_transient(0.1e-9, 4e-9)).unwrap();
    assert_same_run(&session, &mla.run_transient(&ckt, 0.1e-9, 4e-9).unwrap());
    let session = sim
        .run(Analysis::pwl_dc_sweep("V1", 0.0, 5.0, 0.1))
        .unwrap();
    assert_same_run(
        &session,
        &pwl.run_dc_sweep(&ckt, "V1", 0.0, 5.0, 0.1).unwrap(),
    );
    let session = sim.run(Analysis::pwl_transient(0.1e-9, 4e-9)).unwrap();
    assert_same_run(&session, &pwl.run_transient(&ckt, 0.1e-9, 4e-9).unwrap());
}

#[test]
fn transient_parameter_ensembles_are_order_deterministic() {
    // The ROADMAP's "parallel transient ensembles": sweep the load
    // capacitance of an RTD ramp across process-variation variants, once
    // serially and once over 4 workers — identical datasets in variant
    // order.
    let variants: Vec<Circuit> = [0.5e-13, 1e-13, 2e-13, 4e-13]
        .iter()
        .map(|&c| {
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
            ckt.add_capacitor("C1", b, Circuit::GROUND, c).unwrap();
            ckt
        })
        .collect();
    let analysis: nanosim::core::sim::Analysis = Analysis::transient(0.1e-9, 10e-9).into();
    let serial = run_ensemble(&variants, &analysis, ExecPlan::Serial).unwrap();
    let parallel = run_ensemble(&variants, &analysis, ExecPlan::sharded(4)).unwrap();
    assert_eq!(serial.len(), 4);
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.kind(), AnalysisKind::Tran);
        assert_eq!(s.points(), p.points());
        assert_eq!(s.column("mid"), p.column("mid"));
    }
    // The parameter actually matters: heavier load slews slower mid-ramp.
    let light = serial[0].at("mid", 2.4e-9).unwrap();
    let heavy = serial[3].at("mid", 2.4e-9).unwrap();
    assert!(heavy < light, "heavy {heavy} !< light {light}");
}

#[test]
fn dataset_model_is_uniform_across_kinds() {
    let mut sim = Simulator::new(nanosim::workloads::rtd_divider(50.0)).unwrap();
    let op = sim.run(Analysis::op()).unwrap();
    let dc = sim.run(Analysis::dc_sweep("V1", 0.0, 5.0, 0.1)).unwrap();
    let tran = sim
        .run(Analysis::transient(0.5e-9, 5e-9))
        .expect("dc source transient is trivial");

    // Same accessors everywhere.
    for ds in [&op, &dc, &tran] {
        assert!(ds.names().iter().any(|n| n == "mid"));
        assert!(ds.value("mid").is_some());
        assert!(ds.peak("mid").is_some());
        assert!(ds.to_csv().lines().count() == ds.points() + 1);
    }
    assert_eq!(op.kind(), AnalysisKind::Op);
    assert_eq!(dc.kind(), AnalysisKind::Dc);
    assert_eq!(tran.kind(), AnalysisKind::Tran);

    // Kind mismatches are structured errors.
    let err = op.require(AnalysisKind::Dc).unwrap_err();
    assert!(matches!(err, SimError::AnalysisMismatch { .. }));
    assert!(dc.require(AnalysisKind::Dc).is_ok());

    // The sweep axis knows its source.
    match dc.axis() {
        Axis::Sweep { source, values } => {
            assert_eq!(source, "V1");
            assert_eq!(values.len(), dc.points());
        }
        other => panic!("expected sweep axis, got {other:?}"),
    }
}

#[test]
fn every_analysis_reports_its_kind_engine_and_axis() {
    // serve renders `Dataset::engine()` as the `engine` field of every
    // response, so each analysis variant's tag is part of the protocol.
    let mut sim = Simulator::new(nanosim::workloads::rtd_divider(50.0)).unwrap();
    let mut em_sim = Simulator::new(nanosim::workloads::noisy_rc_node_fig10()).unwrap();
    let em_opts = EmOptions {
        dt: 1e-11,
        paths: 8,
        ..EmOptions::default()
    };
    let cases: Vec<(Dataset, AnalysisKind, &str, &str)> = vec![
        (
            sim.run(Analysis::op()).unwrap(),
            AnalysisKind::Op,
            "swec",
            "op",
        ),
        (
            sim.run(Analysis::dc_sweep("V1", 0.0, 1.0, 0.25)).unwrap(),
            AnalysisKind::Dc,
            "swec",
            "sweep(V1)",
        ),
        (
            sim.run(Analysis::transient(0.5e-9, 2e-9)).unwrap(),
            AnalysisKind::Tran,
            "swec",
            "time",
        ),
        (
            em_sim
                .run(Analysis::em_ensemble(1e-10).options(em_opts))
                .unwrap(),
            AnalysisKind::Em,
            "em",
            "time",
        ),
        (
            sim.run(Analysis::mla_dc_sweep("V1", 0.0, 1.0, 0.25))
                .unwrap(),
            AnalysisKind::Dc,
            "mla",
            "sweep(V1)",
        ),
        (
            sim.run(Analysis::mla_transient(0.5e-9, 2e-9)).unwrap(),
            AnalysisKind::Tran,
            "mla",
            "time",
        ),
        (
            sim.run(Analysis::pwl_dc_sweep("V1", 0.0, 1.0, 0.25))
                .unwrap(),
            AnalysisKind::Dc,
            "pwl",
            "sweep(V1)",
        ),
        (
            sim.run(Analysis::pwl_transient(0.5e-9, 2e-9)).unwrap(),
            AnalysisKind::Tran,
            "pwl",
            "time",
        ),
    ];
    for (ds, kind, engine, label) in &cases {
        assert_eq!(ds.kind(), *kind, "{ds}");
        assert_eq!(ds.engine(), *engine, "{ds}");
        assert_eq!(ds.axis().label(), *label, "{ds}");
    }
}
