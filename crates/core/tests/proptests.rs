//! Property-based tests of the simulation engines.
//!
//! The invariants here are the ones the paper's method rests on: every
//! conductance SWEC stamps is positive, DC solutions satisfy Kirchhoff's
//! current law at the nonlinear node, transients approach the right steady
//! state, and engines agree where all are trustworthy.

use nanosim_circuit::Circuit;
use nanosim_core::nr::{NrEngine, NrOptions};
use nanosim_core::sim::{Analysis, SimOptions, Simulator, SWEEP_CHUNK};
use nanosim_core::swec::{DcMode, SwecDcSweep, SwecOptions, SwecTransient};
use nanosim_core::OrderingChoice;
use nanosim_devices::rtd::{Rtd, RtdParams};
use nanosim_devices::sources::SourceWaveform;
use nanosim_devices::traits::NonlinearTwoTerminal;
use nanosim_numeric::FlopCounter;
use proptest::prelude::*;

/// Physically sensible random RTD parameter sets (same family as the
/// devices crate's strategy, restricted so peaks stay below ~8 V).
fn rtd_params() -> impl Strategy<Value = RtdParams> {
    // The excess-current factors (h, n2) are bounded so J2 stays small over
    // a 0..6 V sweep: the paper's method targets staircase resonant I-V,
    // not diode-style exponentials (which SPICE handles with junction
    // limiting instead).
    (
        1e-5f64..5e-4,
        0.1f64..0.4,
        0.4f64..1.5,
        0.05f64..0.4,
        1e-9f64..1e-8,
        0.25f64..0.55,
        0.015f64..0.04,
    )
        .prop_map(|(a, b, c, d, h, n1, n2)| RtdParams {
            a,
            b,
            c,
            d,
            h,
            n1,
            n2,
            temperature: 300.0,
        })
}

/// Strategy: a random *connected* resistor network (spanning tree + extra
/// chords) with RTDs to ground on a random subset of nodes and one DC
/// source at the root. Connectivity is by construction: node `k` always
/// attaches to an earlier node.
fn connected_circuit() -> impl Strategy<Value = Circuit> {
    (3usize..18).prop_flat_map(|n| {
        let tree_parents = proptest::collection::vec(0usize..1_000_000, n - 1);
        let chords = proptest::collection::vec((0usize..1_000_000, 0usize..1_000_000), 0..n);
        let resistances = proptest::collection::vec(20.0f64..2e3, 2 * n);
        let rtd_mask = proptest::collection::vec(0usize..2, n);
        (Just(n), tree_parents, chords, resistances, rtd_mask).prop_map(
            |(n, parents, chords, res, rtd_mask)| {
                let mut ckt = Circuit::new();
                let nodes: Vec<_> = (0..n).map(|k| ckt.node(&format!("n{k}"))).collect();
                ckt.add_voltage_source("V1", nodes[0], Circuit::GROUND, SourceWaveform::dc(1.0))
                    .unwrap();
                let mut ri = 0usize;
                let r = |i: &mut usize| {
                    let v = res[*i % res.len()];
                    *i += 1;
                    v
                };
                for k in 1..n {
                    let parent = parents[k - 1] % k;
                    ckt.add_resistor(&format!("Rt{k}"), nodes[parent], nodes[k], r(&mut ri))
                        .unwrap();
                }
                for (idx, &(a, b)) in chords.iter().enumerate() {
                    let (a, b) = (a % n, b % n);
                    if a != b {
                        ckt.add_resistor(&format!("Rc{idx}"), nodes[a], nodes[b], r(&mut ri))
                            .unwrap();
                    }
                }
                let mut any_rtd = false;
                for (k, &on) in rtd_mask.iter().enumerate() {
                    if on == 1 {
                        any_rtd = true;
                        ckt.add_rtd(&format!("X{k}"), nodes[k], Circuit::GROUND, Rtd::date2005())
                            .unwrap();
                    }
                }
                if !any_rtd {
                    // Keep at least one shunt so every node has a DC path.
                    ckt.add_resistor("Rg", nodes[n - 1], Circuit::GROUND, 500.0)
                        .unwrap();
                }
                ckt
            },
        )
    })
}

fn divider(rtd: Rtd, series: f64, vs: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let a = ckt.node("in");
    let b = ckt.node("mid");
    ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(vs))
        .unwrap();
    ckt.add_resistor("R1", a, b, series).unwrap();
    ckt.add_rtd("X1", b, Circuit::GROUND, rtd).unwrap();
    ckt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SWEC fixed-point DC solutions satisfy KCL at the RTD node for random
    /// devices, loads and biases — including biases that land in the NDR
    /// region.
    #[test]
    fn swec_dc_satisfies_kcl(
        params in rtd_params(),
        series in 20.0f64..500.0,
        vs in 0.1f64..6.0
    ) {
        let rtd = Rtd::new(params).unwrap();
        let ckt = divider(rtd.clone(), series, vs);
        let engine = SwecDcSweep::new(SwecOptions {
            dc_mode: DcMode::FixedPoint,
            ..SwecOptions::default()
        });
        let x = engine.solve_op(&ckt).unwrap();
        let v_mid = x[1];
        let mut flops = FlopCounter::new();
        let i_rtd = rtd.current(v_mid, &mut flops);
        let i_res = (vs - v_mid) / series;
        let scale = i_res.abs().max(1e-9);
        prop_assert!(
            (i_rtd - i_res).abs() < 1e-4 * scale + 1e-9,
            "KCL: rtd {i_rtd} vs resistor {i_res} at v={v_mid}"
        );
        // The node voltage is physical: between 0 and the source.
        prop_assert!(v_mid >= -1e-9 && v_mid <= vs + 1e-9);
    }

    /// The non-iterative sweep tracks the fixed-point sweep within a few
    /// percent of the peak current for random devices — restricted to
    /// configurations with a unique operating point everywhere (load
    /// conductance above the steepest NDR slope); outside that regime the
    /// two sweeps may legally settle on different hysteresis branches.
    #[test]
    fn noniterative_tracks_fixed_point(params in rtd_params(), series in 20.0f64..200.0) {
        let rtd = Rtd::new(params).unwrap();
        let mut flops = FlopCounter::new();
        let steepest_ndr = {
            let mut worst = 0.0f64;
            let mut v = 0.0;
            while v <= 6.0 {
                worst = worst.max(-rtd.differential_conductance(v, &mut flops));
                v += 0.02;
            }
            worst
        };
        prop_assume!(series * steepest_ndr < 0.8, "unique-solution load line");
        let ckt = divider(rtd, series, 0.0);
        let stop = 6.0;
        let ni = SwecDcSweep::new(SwecOptions::default())
            .run(&ckt, "V1", 0.0, stop, 0.02)
            .unwrap();
        let fp = SwecDcSweep::new(SwecOptions {
            dc_mode: DcMode::FixedPoint,
            ..SwecOptions::default()
        })
        .run(&ckt, "V1", 0.0, stop, 0.02)
        .unwrap();
        let a = ni.curve("I(X1)").unwrap();
        let b = fp.curve("I(X1)").unwrap();
        let peak = b.peak().unwrap().1.max(1e-9);
        prop_assert!(
            a.rms_difference(&b) < 0.08 * peak,
            "rms {} vs peak {peak}",
            a.rms_difference(&b)
        );
    }

    /// SWEC and Newton agree on the operating point whenever Newton
    /// converges — restricted, like the sweep-agreement property, to
    /// unique-solution load lines (otherwise each method may follow a
    /// different hysteresis branch and both are "right").
    #[test]
    fn swec_matches_converged_newton(params in rtd_params(), series in 30.0f64..300.0) {
        let rtd = Rtd::new(params).unwrap();
        let mut flops = FlopCounter::new();
        let steepest_ndr = {
            let mut worst = 0.0f64;
            let mut v = 0.0;
            while v <= 3.0 {
                worst = worst.max(-rtd.differential_conductance(v, &mut flops));
                v += 0.02;
            }
            worst
        };
        prop_assume!(series * steepest_ndr < 0.8, "unique-solution load line");
        let ckt = divider(rtd, series, 0.0);
        let swec = SwecDcSweep::new(SwecOptions {
            dc_mode: DcMode::FixedPoint,
            ..SwecOptions::default()
        })
        .run(&ckt, "V1", 0.0, 3.0, 0.05)
        .unwrap();
        let nr = NrEngine::new(NrOptions::default())
            .run_dc_sweep(&ckt, "V1", 0.0, 3.0, 0.05)
            .unwrap();
        let a = swec.curve("mid").unwrap();
        let b = nr.sweep.curve("mid").unwrap();
        for (k, outcome) in nr.outcomes.iter().enumerate() {
            if outcome.is_converged() {
                let v = 0.05 * k as f64;
                let d = (a.value_at(v) - b.value_at(v)).abs();
                prop_assert!(d < 5e-3 * (1.0 + a.value_at(v).abs()), "at {v}: {d}");
            }
        }
    }

    /// A linear RC transient driven by a random step ends at the step value
    /// regardless of R, C (time scaled to 5 tau).
    #[test]
    fn rc_transient_settles(
        r in 10.0f64..1e5,
        c in 1e-14f64..1e-10,
        vstep in 0.1f64..10.0
    ) {
        let tau = r * c;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("out");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pwl(vec![(0.0, 0.0), (tau * 1e-3, vstep), (1.0, vstep)]).unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", a, b, r).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, c).unwrap();
        let result = SwecTransient::new(SwecOptions::default())
            .run(&ckt, tau / 10.0, 5.0 * tau)
            .unwrap();
        let out = result.curve("out").unwrap();
        let expected = vstep * (1.0 - (-5.0f64).exp());
        prop_assert!(
            (out.final_value() - expected).abs() < 0.02 * vstep,
            "{} vs {expected}",
            out.final_value()
        );
        // No overshoot for a first-order system.
        let peak = out.peak().unwrap().1;
        prop_assert!(peak <= vstep * 1.001);
    }

    /// On random connected circuits, AMD-ordered operating points match
    /// the natural-order solution within 1e-10 relative error —
    /// the fill permutation is invisible to the physics.
    #[test]
    fn ordered_ops_match_natural_on_random_circuits(ckt in connected_circuit()) {
        let solve = |ordering| {
            let mut sim = Simulator::with_options(ckt.clone(), SimOptions { ordering, ..Default::default() })
                .expect("assembles");
            sim.run(Analysis::op()).expect("op solves")
        };
        let natural = solve(OrderingChoice::Natural);
        let ds = solve(OrderingChoice::Amd);
        for name in natural.names() {
            let a = ds.value(name).unwrap();
            let b = natural.value(name).unwrap();
            prop_assert!(
                (a - b).abs() <= 1e-10 * b.abs().max(1.0),
                "{name}: {a} vs {b}"
            );
        }
    }

    /// A fixed ordering is bit-deterministic: the same circuit solved
    /// twice, and through sharded sweeps at several worker counts, gives
    /// byte-identical results.
    #[test]
    fn ordered_results_bit_deterministic(ckt in connected_circuit()) {
        use nanosim_core::sim::ExecPlan;
        let run = |workers: usize| {
            let mut sim = Simulator::with_options(
                ckt.clone(),
                SimOptions { ordering: OrderingChoice::Amd, ..Default::default() },
            )
            .expect("assembles");
            let a = Analysis::dc_sweep("V1", 0.0, 1.0, 0.05).chunk_points(SWEEP_CHUNK);
            let a = if workers == 0 { a } else { a.plan(ExecPlan::sharded(workers)) };
            sim.run(a).expect("sweep runs")
        };
        let first = run(0);
        let second = run(0);
        for name in first.names() {
            prop_assert_eq!(first.column(name).unwrap(), second.column(name).unwrap());
        }
        for workers in [2usize, 5] {
            let sharded = run(workers);
            for name in first.names() {
                prop_assert_eq!(
                    first.column(name).unwrap(),
                    sharded.column(name).unwrap(),
                    "workers={}, column {}", workers, name
                );
            }
        }
    }

    /// Transient node voltages of the RTD divider stay within the source
    /// range for random ramps (passivity — the engine never manufactures
    /// energy).
    #[test]
    fn rtd_ramp_stays_bounded(params in rtd_params(), vtop in 1.0f64..6.0) {
        let rtd = Rtd::new(params).unwrap();
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("mid");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pwl(vec![(0.0, 0.0), (10e-9, vtop), (20e-9, vtop)]).unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", a, b, 50.0).unwrap();
        ckt.add_rtd("X1", b, Circuit::GROUND, rtd).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-13).unwrap();
        let result = SwecTransient::new(SwecOptions::default())
            .run(&ckt, 0.1e-9, 20e-9)
            .unwrap();
        let mid = result.curve("mid").unwrap();
        for &v in mid.values() {
            prop_assert!(v >= -0.05 && v <= vtop + 0.05, "v={v} outside [0, {vtop}]");
        }
    }
}
