//! Fault-injection recovery: under a deterministic [`FaultPlan`] every
//! analysis must either complete — with the rescue counters showing the
//! recovery and results matching the unfaulted run — or fail with a
//! structured forensics error. Panics are never acceptable, and outcomes
//! must be identical at every worker count. Healthy golden workloads must
//! report `rescues == 0` (the CI gate for "the ladder is inactive on
//! healthy decks").

use nanosim::core::error::Forensics;
use nanosim::core::mla::{MlaEngine, MlaOptions};
use nanosim::core::sim::{DcSweep, SWEEP_CHUNK};
use nanosim::prelude::*;
use proptest::prelude::*;

/// The Figure 7(a) divider biased at a fixed DC voltage (the stock
/// workload drives V1 at 0 V for sweeping).
fn biased_divider(bias: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let mid = ckt.node("mid");
    ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(bias))
        .unwrap();
    ckt.add_resistor("R1", vin, mid, 50.0).unwrap();
    ckt.add_rtd("X1", mid, Circuit::GROUND, Rtd::date2005())
        .unwrap();
    ckt
}

/// Ramped RTD + RC load: a transient with real dynamics on every node.
fn ramp_rtd_rc() -> Circuit {
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
    ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-13).unwrap();
    ckt
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// CI gate: the ladder is inactive on healthy decks.
// ---------------------------------------------------------------------------

#[test]
fn healthy_golden_workloads_report_zero_rescues() {
    // DC sweep of the Figure 7(a) divider: serial in one chunk, and
    // sharded in SWEEP_CHUNK-point chunks.
    let mut sim = Simulator::new(nanosim::workloads::rtd_divider(50.0)).unwrap();
    for req in [
        Analysis::dc_sweep("V1", 0.0, 5.0, 0.05),
        chunked_sweep().plan(ExecPlan::sharded(4)),
    ] {
        let plan = req.plan;
        let dc = sim.run(req).unwrap();
        assert_eq!(dc.stats.rescues, 0, "plan {plan:?}");
        assert_eq!(dc.stats.rescue_rungs, 0, "plan {plan:?}");
        assert_eq!(dc.stats.health(), HealthVerdict::Healthy, "plan {plan:?}");
    }
    assert_eq!(sim.injected_faults(), 0);

    // The Table I mesh sweep.
    let mut sim = Simulator::new(nanosim::workloads::rtd_mesh(4)).unwrap();
    let dc = sim.run(Analysis::dc_sweep("V1", 0.0, 2.0, 0.05)).unwrap();
    assert_eq!(dc.stats.rescues, 0);
    assert_eq!(dc.stats.health(), HealthVerdict::Healthy);

    // A transient with real dynamics.
    let mut sim = Simulator::new(ramp_rtd_rc()).unwrap();
    let tr = sim.run(Analysis::transient(0.05e-9, 10e-9)).unwrap();
    assert_eq!(tr.stats.rescues, 0);
    assert_eq!(tr.stats.rescue_rungs, 0);
    assert_eq!(tr.stats.health(), HealthVerdict::Healthy);
    assert!(!tr.is_truncated());
}

// ---------------------------------------------------------------------------
// Transient recovery: a NaN poison mid-run is absorbed bit-identically.
// ---------------------------------------------------------------------------

#[test]
fn nan_poison_mid_transient_recovers_bit_identically() {
    let clean = Simulator::new(ramp_rtd_rc())
        .unwrap()
        .run(Analysis::transient(0.05e-9, 10e-9))
        .unwrap();

    let mut sim = Simulator::new(ramp_rtd_rc()).unwrap();
    // Call 25 lands mid-transient (the t=0 OP uses only a handful of
    // factor-solves); entry (1, 1) is the `mid` node diagonal.
    sim.arm_faults(FaultPlan::new().with_nan_entry(25, 1, 1));
    let faulted = sim.run(Analysis::transient(0.05e-9, 10e-9)).unwrap();

    assert_eq!(sim.injected_faults(), 1, "exactly one poison fired");
    assert!(faulted.stats.rescues >= 1, "the retry must be counted");
    assert!(faulted.stats.rescue_rungs >= 1);
    assert_eq!(faulted.stats.health(), HealthVerdict::Rescued);
    // The retried step re-stamps from clean values: the waveform is the
    // unfaulted one, bit for bit.
    assert_eq!(clean.points(), faulted.points());
    for name in clean.names() {
        assert_eq!(
            bits(clean.column(name).unwrap()),
            bits(faulted.column(name).unwrap()),
            "column {name}"
        );
    }
}

// ---------------------------------------------------------------------------
// Operating-point recovery through the ladder.
// ---------------------------------------------------------------------------

#[test]
fn op_nan_poison_is_rescued_by_the_ladder() {
    let clean = Simulator::new(biased_divider(0.5))
        .unwrap()
        .run(Analysis::op())
        .unwrap();

    let mut sim = Simulator::new(biased_divider(0.5)).unwrap();
    sim.arm_faults(FaultPlan::new().with_nan_entry(1, 1, 1));
    let rescued = sim.run(Analysis::op()).unwrap();

    assert_eq!(sim.injected_faults(), 1);
    assert!(rescued.stats.rescues >= 1);
    assert_eq!(rescued.stats.health(), HealthVerdict::Rescued);
    // The rescued OP is the same fixed point within solver tolerance.
    let a = clean.value("mid").unwrap();
    let b = rescued.value("mid").unwrap();
    assert!((a - b).abs() <= 1e-9, "clean {a} vs rescued {b}");
}

#[test]
fn op_singular_pivot_is_rescued_by_the_ladder() {
    let mut sim = Simulator::new(biased_divider(0.5)).unwrap();
    sim.arm_faults(FaultPlan::new().with_singular_pivot(0, 1));
    let rescued = sim.run(Analysis::op()).unwrap();
    assert!(rescued.stats.rescues >= 1);
    assert_eq!(rescued.stats.health(), HealthVerdict::Rescued);
    let v = rescued.value("mid").unwrap();
    assert!(v > 0.0 && v < 0.5, "divider physics, got {v}");
}

// ---------------------------------------------------------------------------
// Sweep faults: structured, worker-count-invariant outcomes.
// ---------------------------------------------------------------------------

/// The divider sweep in [`SWEEP_CHUNK`]-point chunks.
fn chunked_sweep() -> DcSweep {
    Analysis::dc_sweep("V1", 0.0, 5.0, 0.05).chunk_points(SWEEP_CHUNK)
}

/// Runs the chunked divider sweep with `plan_faults` armed, at `workers`.
fn faulted_sweep(fault: FaultPlan, workers: usize) -> Result<Dataset, SimError> {
    let mut sim = Simulator::new(nanosim::workloads::rtd_divider(50.0)).unwrap();
    sim.arm_faults(fault);
    sim.run(chunked_sweep().plan(ExecPlan::sharded(workers)))
}

#[test]
fn sweep_singular_pivot_fails_structured_and_worker_count_invariant() {
    // The pivot fault re-fires in the chunk's rescue retry (each chunk
    // clone replays the plan), so this sweep must fail — with the same
    // structured error at every worker count, naming the chunk or point.
    let mut messages = Vec::new();
    for workers in [1usize, 2, 4] {
        let plan = FaultPlan::new().with_singular_pivot(60, 1);
        match faulted_sweep(plan, workers) {
            Ok(ds) => {
                // If the fault call index fell outside any chunk's working
                // range the sweep may legitimately complete; it must then
                // be rescue-free and healthy.
                messages.push(format!("ok:{}", ds.points()));
            }
            Err(e) => {
                assert!(
                    matches!(e, SimError::Numeric(_) | SimError::NonConvergence { .. }),
                    "unexpected error shape: {e:?}"
                );
                messages.push(format!("err:{e}"));
            }
        }
    }
    assert_eq!(messages[0], messages[1], "workers 1 vs 2");
    assert_eq!(messages[0], messages[2], "workers 1 vs 4");
}

#[test]
fn sweep_conductance_collapse_never_panics() {
    // A 12-decade conductance collapse on the `mid` diagonal: either the
    // fixed-point iteration absorbs the one bad solve and the sweep
    // completes near the clean result, or the failure is structured.
    let clean = Simulator::new(nanosim::workloads::rtd_divider(50.0))
        .unwrap()
        .run(chunked_sweep())
        .unwrap();
    for at in [5u64, 40, 120] {
        let plan = FaultPlan::new().with_entry_scale(at, 1, 1, 1e-12);
        match faulted_sweep(plan, 2) {
            Ok(ds) => {
                assert_eq!(ds.points(), clean.points());
                let a = clean.column("mid").unwrap();
                let b = ds.column("mid").unwrap();
                for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                    assert!(
                        (x - y).abs() <= 1e-6,
                        "point {k} diverged: clean {x} vs faulted {y} (at={at})"
                    );
                }
            }
            Err(e) => {
                assert!(
                    matches!(e, SimError::Numeric(_) | SimError::NonConvergence { .. }),
                    "unexpected error shape: {e:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: a seeded random fault plan yields the SAME outcome at
    /// every worker count — bit-identical datasets on recovery, identical
    /// structured errors on failure. Never a panic.
    #[test]
    fn seeded_fault_plans_are_worker_count_invariant(seed in 0u64..64) {
        let outcomes: Vec<String> = [1usize, 2, 4]
            .iter()
            .map(|&workers| {
                let plan = FaultPlan::seeded(seed, 3, 80, 3);
                match faulted_sweep(plan, workers) {
                    Ok(ds) => {
                        let mut s = format!("ok:{}:", ds.points());
                        for name in ds.names() {
                            for b in bits(ds.column(name).unwrap()) {
                                s.push_str(&format!("{b:x},"));
                            }
                        }
                        s
                    }
                    Err(e) => {
                        prop_assert!(
                            matches!(
                                e,
                                SimError::Numeric(_) | SimError::NonConvergence { .. }
                            ),
                            "seed {}: unexpected error shape {:?}", seed, e
                        );
                        format!("err:{e}")
                    }
                }
            })
            .collect();
        prop_assert_eq!(&outcomes[0], &outcomes[1]);
        prop_assert_eq!(&outcomes[0], &outcomes[2]);
    }
}

// ---------------------------------------------------------------------------
// Fig 7 bistable OP from cold start via the ladder, damping disabled.
// ---------------------------------------------------------------------------

#[test]
fn bistable_op_succeeds_from_cold_start_with_damping_disabled() {
    // The bistable cold-start OP: the Figure 7 RTD driven by a current
    // source biased between valley and peak — the operating point the
    // voltage sweep's hysteresis region is made of, and the configuration
    // where the undamped secant fixed point fails outright (singular
    // pivot on the first cold iterate). With rescue damping disabled
    // (damping = 1, so the damped-retry rung is a plain retry), only the
    // homotopy rungs (gmin / source / pseudo-transient) can deliver the
    // OP.
    let mut ckt = Circuit::new();
    let m = ckt.node("mid");
    ckt.add_current_source("I1", Circuit::GROUND, m, SourceWaveform::dc(1e-3))
        .unwrap();
    ckt.add_rtd("X1", m, Circuit::GROUND, Rtd::sharp_valley())
        .unwrap();
    ckt.add_resistor("Rsh", m, Circuit::GROUND, 1e6).unwrap();

    let undamped_rescue = RescueOptions {
        damping: 1.0,
        ..RescueOptions::default()
    };
    // Without the ladder the plain solve fails with a structured error.
    let mut sim = Simulator::new(ckt.clone()).unwrap();
    let plain = sim.run(Analysis::op().options(SwecOptions {
        rescue: RescueOptions::disabled(),
        ..SwecOptions::default()
    }));
    assert!(
        matches!(plain, Err(SimError::Numeric(_))),
        "expected undamped cold start to fail, got {plain:?}"
    );

    let mut sim = Simulator::new(ckt).unwrap();
    let op = sim
        .run(Analysis::op().options(SwecOptions {
            rescue: undamped_rescue,
            ..SwecOptions::default()
        }))
        .expect("ladder delivers the bistable OP");
    assert!(op.stats.rescues >= 1, "the plain solve must have failed");
    assert!(op.stats.rescue_rungs >= 2, "damped retry alone cannot help");
    assert_eq!(op.stats.health(), HealthVerdict::Rescued);
    // KCL at the solved point: source current splits between RTD and shunt.
    let v = op.value("mid").unwrap();
    assert!(v > 0.0 && v < 10.0, "physical bias, got {v}");
    let mut f = FlopCounter::new();
    let i = Rtd::sharp_valley().current(v, &mut f) + v / 1e6;
    assert!((i - 1e-3).abs() <= 1e-5, "KCL: {i} at v={v}");
}

// ---------------------------------------------------------------------------
// Satellite: MLA sweep failures name the failing point.
// ---------------------------------------------------------------------------

#[test]
fn mla_sweep_failure_pinpoints_point_and_value() {
    // A one-iteration budget: every point past the exact 0 V solution
    // fails to converge, so the sweep must fail and name the first one.
    let engine = MlaEngine::new(MlaOptions {
        max_iterations: 1,
        ..MlaOptions::default()
    });
    let err = engine
        .run_dc_sweep(&nanosim::workloads::rtd_divider(50.0), "V1", 0.0, 2.0, 0.5)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("first at point"), "{msg}");
    let fx: &Forensics = err.forensics().expect("sweep failures carry forensics");
    let idx = fx.point_index.expect("failing point index");
    assert!(idx >= 1, "point 0 (0 V) is exact");
    let value = fx.sweep_value.expect("failing sweep value");
    assert!((value - 0.5 * idx as f64).abs() < 1e-12, "value {value}");
}

// ---------------------------------------------------------------------------
// Satellite: step underflow carries the last accepted state; allow_partial
// returns the accepted prefix instead.
// ---------------------------------------------------------------------------

/// Options that make the first real transient step impossible: any RTD
/// branch-voltage movement beyond 1e-12 V rejects the step, so `h` halves
/// down to `h_min` and underflows.
fn impossible_step_options() -> SwecOptions {
    SwecOptions {
        dv_max: 1e-12,
        h_min: 1e-12,
        ..SwecOptions::default()
    }
}

#[test]
fn step_underflow_reports_last_accepted_state() {
    let mut sim = Simulator::new(ramp_rtd_rc()).unwrap();
    let err = sim
        .run(Analysis::transient(0.05e-9, 10e-9).options(impossible_step_options()))
        .unwrap_err();
    assert!(matches!(err, SimError::StepSizeUnderflow { .. }), "{err:?}");
    let last = err.last_accepted().expect("underflow carries state");
    assert!(last.time >= 0.0 && last.time < 10e-9);
    assert!(!last.state.is_empty(), "state summary present");
    assert!(
        last.state.iter().any(|(name, _)| name == "mid"),
        "named node voltages: {:?}",
        last.state
    );
    // The Display surfaces it for triage.
    let msg = err.to_string();
    assert!(msg.contains("last accepted"), "{msg}");
}

#[test]
fn allow_partial_returns_accepted_prefix() {
    let mut sim = Simulator::new(ramp_rtd_rc()).unwrap();
    let ds = sim
        .run(
            Analysis::transient(0.05e-9, 10e-9)
                .options(impossible_step_options())
                .allow_partial(),
        )
        .expect("allow_partial converts underflow into a truncated dataset");
    assert!(ds.is_truncated());
    let at = ds.truncated_at().unwrap();
    assert!(at < 10e-9, "truncated before tstop, at {at}");
    assert!(ds.points() >= 1, "the t=0 OP is always accepted");
    // The prefix is a valid dataset: named columns, aligned lengths.
    assert!(ds.names().iter().any(|n| n == "mid"));
    assert_eq!(ds.column("mid").unwrap().len(), ds.points());
}
