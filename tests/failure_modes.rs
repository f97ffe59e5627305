//! Failure-injection integration tests: pathological circuits must produce
//! descriptive errors, never panics or silent garbage.

use nanosim::core::em::EmEngine;
use nanosim::core::pwl::PwlEngine;
use nanosim::core::swec::{SwecDcSweep, SwecTransient};
use nanosim::prelude::*;

#[test]
fn conflicting_voltage_sources_are_singular_not_panic() {
    // Two ideal sources forcing different voltages on the same node: the
    // MNA matrix is singular and the engine must say so.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
        .unwrap();
    ckt.add_voltage_source("V2", a, Circuit::GROUND, SourceWaveform::dc(2.0))
        .unwrap();
    ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
    let err = SwecDcSweep::new(SwecOptions::default())
        .solve_op(&ckt)
        .unwrap_err();
    assert!(
        matches!(err, SimError::Numeric(_)),
        "expected a numeric (singular) error, got {err:?}"
    );
}

#[test]
fn floating_node_rejected_before_any_solve() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let orphan1 = ckt.node("x");
    let orphan2 = ckt.node("y");
    ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
        .unwrap();
    ckt.add_resistor("R0", a, Circuit::GROUND, 10.0).unwrap();
    ckt.add_resistor("R1", orphan1, orphan2, 1e3).unwrap();
    let err = SwecTransient::new(SwecOptions::default())
        .run(&ckt, 1e-12, 1e-9)
        .unwrap_err();
    assert!(matches!(err, SimError::Circuit(_)), "got {err:?}");
    assert!(err.to_string().contains("path to ground"), "{err}");
}

#[test]
fn empty_circuit_rejected_everywhere() {
    let ckt = Circuit::new();
    assert!(SwecDcSweep::new(SwecOptions::default())
        .solve_op(&ckt)
        .is_err());
    assert!(SwecTransient::new(SwecOptions::default())
        .run(&ckt, 1e-12, 1e-9)
        .is_err());
    assert!(NrEngine::new(NrOptions::default())
        .run_transient(&ckt, 1e-12, 1e-9)
        .is_err());
    assert!(EmEngine::new(EmOptions::default()).run(&ckt, 1e-9).is_err());
}

#[test]
fn unknown_sweep_source_named_in_error() {
    let ckt = nanosim::workloads::rtd_divider(50.0);
    for msg in [
        SwecDcSweep::new(SwecOptions::default())
            .run(&ckt, "Vmissing", 0.0, 1.0, 0.1)
            .unwrap_err()
            .to_string(),
        NrEngine::new(NrOptions::default())
            .run_dc_sweep(&ckt, "Vmissing", 0.0, 1.0, 0.1)
            .unwrap_err()
            .to_string(),
        PwlEngine::new()
            .run_dc_sweep(&ckt, "Vmissing", 0.0, 1.0, 0.1)
            .unwrap_err()
            .to_string(),
    ] {
        assert!(msg.contains("Vmissing"), "{msg}");
    }
}

/// A step so small that the point count overflows every integer type must
/// be refused up front by every DC sweep entry point, never truncated to a
/// one-point sweep or allowed to overflow.
#[test]
fn sweep_point_count_overflow_is_invalid_config() {
    let ckt = nanosim::workloads::rtd_divider(50.0);
    let (start, stop, step) = (0.0, 1.0, 1e-300);
    let results = [
        (
            "SwecDcSweep::run",
            SwecDcSweep::new(SwecOptions::default())
                .run(&ckt, "V1", start, stop, step)
                .map(|_| ()),
        ),
        (
            "Simulator::run",
            Simulator::new(ckt.clone())
                .unwrap()
                .run(Analysis::dc_sweep("V1", start, stop, step))
                .map(|_| ()),
        ),
        (
            "NrEngine::run_dc_sweep",
            NrEngine::new(NrOptions::default())
                .run_dc_sweep(&ckt, "V1", start, stop, step)
                .map(|_| ()),
        ),
        (
            "PwlEngine::run_dc_sweep",
            PwlEngine::new()
                .run_dc_sweep(&ckt, "V1", start, stop, step)
                .map(|_| ()),
        ),
    ];
    for (entry, r) in results {
        assert!(
            matches!(r, Err(SimError::InvalidConfig { .. })),
            "{entry}: {r:?}"
        );
    }
}

/// Like SPICE `.DC`, a sweep whose step does not divide `stop - start`
/// stops at the last whole step short of `stop`, never past it, on every
/// DC sweep entry point — while a sweep that is a whole number of steps
/// long in exact arithmetic still ends on `stop`.
#[test]
fn dc_sweep_never_passes_stop() {
    let mut ckt = Circuit::new();
    let (a, mid) = (ckt.node("in"), ckt.node("mid"));
    ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
        .unwrap();
    ckt.add_resistor("R1", a, mid, 1e3).unwrap();
    ckt.add_resistor("R2", mid, Circuit::GROUND, 1e3).unwrap();
    for (stop, step, points, last) in [
        (1.0, 2.0, 1, 0.0),
        (1.0, 0.4, 3, 0.8),
        (5.0, 0.05, 101, 5.0),
    ] {
        let axes = [
            (
                "SwecDcSweep::run",
                SwecDcSweep::new(SwecOptions::default())
                    .run(&ckt, "V1", 0.0, stop, step)
                    .unwrap()
                    .axis_values()
                    .to_vec(),
            ),
            (
                "Simulator::run",
                Simulator::new(ckt.clone())
                    .unwrap()
                    .run(Analysis::dc_sweep("V1", 0.0, stop, step))
                    .unwrap()
                    .axis_values()
                    .to_vec(),
            ),
            (
                "NrEngine::run_dc_sweep",
                NrEngine::new(NrOptions::default())
                    .run_dc_sweep(&ckt, "V1", 0.0, stop, step)
                    .unwrap()
                    .sweep
                    .axis_values()
                    .to_vec(),
            ),
            (
                "PwlEngine::run_dc_sweep",
                PwlEngine::new()
                    .run_dc_sweep(&ckt, "V1", 0.0, stop, step)
                    .unwrap()
                    .axis_values()
                    .to_vec(),
            ),
        ];
        for (entry, axis) in axes {
            assert_eq!(axis.len(), points, "{entry} ({stop}, {step}): {axis:?}");
            let end = *axis.last().unwrap();
            assert!(
                (end - last).abs() < 1e-12,
                "{entry} ({stop}, {step}) ends at {end}"
            );
        }
    }
    // The peak of the divider's midpoint sits at the last point swept.
    let ds = Simulator::new(ckt)
        .unwrap()
        .run(Analysis::dc_sweep("V1", 0.0, 1.0, 0.4))
        .unwrap();
    let (v, mid) = ds.peak("mid").unwrap();
    assert!(
        (v - 0.8).abs() < 1e-12 && (mid - 0.4).abs() < 1e-12,
        "{v} {mid}"
    );
}

#[test]
fn parse_errors_carry_line_numbers() {
    let text = "V1 a 0 1\nR1 a 0 1k\nC1 a 0 frog\n";
    let err = parse_netlist(text).unwrap_err();
    assert!(err.to_string().contains("line 3"), "{err}");
}

#[test]
fn em_engine_refuses_what_it_cannot_integrate() {
    // Inductor -> branch variable -> not a state-space circuit.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add_current_source("I1", Circuit::GROUND, a, SourceWaveform::dc(1e-3))
        .unwrap();
    ckt.add_inductor("L1", a, Circuit::GROUND, 1e-9).unwrap();
    ckt.add_capacitor("C1", a, Circuit::GROUND, 1e-12).unwrap();
    let err = EmEngine::new(EmOptions::default())
        .run(&ckt, 1e-9)
        .unwrap_err();
    assert!(matches!(err, SimError::UnsupportedCircuit { .. }));
    assert!(
        err.to_string().contains("Norton"),
        "actionable message: {err}"
    );
}

#[test]
fn transient_of_pure_resistive_circuit_works() {
    // No capacitors at all: the "C" matrix is empty but backward Euler
    // still solves the algebraic system at every step.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_voltage_source(
        "V1",
        a,
        Circuit::GROUND,
        SourceWaveform::pwl(vec![(0.0, 0.0), (1e-9, 1.0), (2e-9, 1.0)]).unwrap(),
    )
    .unwrap();
    ckt.add_resistor("R1", a, b, 1e3).unwrap();
    ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
    let r = SwecTransient::new(SwecOptions::default())
        .run(&ckt, 0.05e-9, 2e-9)
        .unwrap();
    let out = r.curve("b").unwrap();
    assert!((out.final_value() - 0.5).abs() < 1e-9);
}

#[test]
fn zero_volt_source_is_fine_for_swec() {
    // V = 0 exactly: every RTD sees 0 V, Geq uses the analytic dI/dV(0)
    // limit; nothing divides by zero.
    let ckt = nanosim::workloads::rtd_divider(50.0);
    let x = SwecDcSweep::new(SwecOptions::default())
        .solve_op(&ckt)
        .unwrap();
    assert!(x.iter().all(|v| v.is_finite()));
    assert!(x[1].abs() < 1e-9, "mid node at 0 V");
}

#[test]
fn near_instant_source_step_survives() {
    // A source step of 5 V in 1 fs: the source-forced node jumps exactly
    // (no dv_max rejection — its solution is not a linearization), the RC
    // output follows its 10 ps time constant, and the run completes.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("out");
    ckt.add_voltage_source(
        "V1",
        a,
        Circuit::GROUND,
        SourceWaveform::pwl(vec![(0.0, 0.0), (1e-15, 5.0), (1.0, 5.0)]).unwrap(),
    )
    .unwrap();
    ckt.add_resistor("R1", a, b, 100.0).unwrap();
    ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-13).unwrap();
    let r = SwecTransient::new(SwecOptions::default())
        .run(&ckt, 0.05e-9, 2e-9)
        .unwrap();
    let out = r.curve("out").unwrap();
    assert!(out.values().iter().all(|v| v.is_finite()));
    assert!((out.final_value() - 5.0).abs() < 0.01);
    // ~63% at one time constant after the edge.
    let at_tau = out.value_at(1e-15 + 1e-11);
    assert!(
        (at_tau - 5.0 * (1.0 - (-1.0f64).exp())).abs() < 0.5,
        "{at_tau}"
    );
}

#[test]
fn dv_max_guard_bounds_rtd_branch_voltage_steps() {
    // The guard's real job: the RTD's branch voltage may never move more
    // than dv_max between accepted points, even under a fast ramp.
    let mut ckt = Circuit::new();
    let a = ckt.node("in");
    let b = ckt.node("mid");
    ckt.add_voltage_source(
        "V1",
        a,
        Circuit::GROUND,
        SourceWaveform::pwl(vec![(0.0, 0.0), (0.5e-9, 5.0), (5e-9, 5.0)]).unwrap(),
    )
    .unwrap();
    ckt.add_resistor("R1", a, b, 50.0).unwrap();
    ckt.add_rtd("X1", b, Circuit::GROUND, Rtd::date2005())
        .unwrap();
    ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-13).unwrap();
    let opts = SwecOptions::default();
    let dv_max = opts.dv_max;
    let r = SwecTransient::new(opts).run(&ckt, 0.05e-9, 5e-9).unwrap();
    let mid = r.curve("mid").unwrap();
    for w in mid.values().windows(2) {
        assert!(
            (w[1] - w[0]).abs() <= dv_max + 1e-9,
            "RTD voltage jumped {}",
            (w[1] - w[0]).abs()
        );
    }
}

#[test]
fn mla_transient_rejects_a_non_converged_operating_point() {
    // One Newton iteration per solve: neither the t = 0 solve nor any solve
    // of its source-stepping ramp converges. MLA promises that every
    // accepted point converged, so the run must fail at t = 0 rather than
    // integrate from the unconverged state.
    let mut sim = Simulator::new(nanosim::workloads::fet_rtd_inverter()).unwrap();
    let err = sim
        .run(Analysis::mla_transient(0.05e-9, 2e-9).options(MlaOptions {
            max_iterations: 1,
            ..MlaOptions::default()
        }))
        .expect_err("an unconverged operating point is not a start state");
    match &err {
        SimError::NonConvergence { at, context, .. } => {
            assert_eq!(*at, 0.0, "{err}");
            assert!(context.contains("mla operating point"), "{err}");
            assert!(context.contains("MaxIterations"), "{err}");
        }
        other => panic!("expected NonConvergence, got {other:?}"),
    }
    // SPICE3's accept-last policy still starts from the last iterate, as
    // Figure 8(c) needs.
    let spice3 = NrEngine::new(NrOptions {
        max_iterations: 1,
        ..NrOptions::default()
    })
    .run_transient(&nanosim::workloads::fet_rtd_inverter(), 0.05e-9, 2e-9)
    .expect("accept-last never rejects a point");
    assert_eq!(spice3.result.points(), 41);
}

#[test]
fn newton_accept_last_records_an_unconverged_operating_point() {
    // Accept-last starts from the last iterate of a source-stepping ramp
    // that never converged; that t = 0 point is a failed Newton solve and is
    // listed first among the run's failures.
    let r = NrEngine::new(NrOptions {
        max_iterations: 1,
        ..NrOptions::default()
    })
    .run_transient(&nanosim::workloads::fet_rtd_inverter(), 0.05e-9, 2e-9)
    .expect("accept-last never rejects a point");
    assert_eq!(
        r.failures.first(),
        Some(&(0.0, nanosim::core::nr::NrOutcome::MaxIterations)),
        "{:?}",
        r.failures
    );
    assert!(r.failures[1..].iter().all(|&(t, _)| t > 0.0));
}
