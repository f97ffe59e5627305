//! Bitwise pins of the convergence-rescue ladder, the serial DC sweep, the
//! SWEC transients and the PWL, MLA and plain Newton baselines.
//!
//! Each pinned test folds everything a run produces — solution bits, the
//! rung sequence with its outcomes, and the exact work counters — into one
//! FNV-1a digest, so a refactor of the ladder or the sweep loop that moves
//! a single bit or a single solve fails here. The digests were recorded
//! before the ladder and the sweep kernel were each reduced to one
//! implementation, and the baseline pins before their engines' never-set
//! options became constants.
//!
//! The budget-gate tests check the one contract the pins cannot: a run
//! cancelled between two rungs stops at the rung gate with the partial
//! [`RescueTrace`] in its forensics.

use nanosim::core::mla::{MlaEngine, MlaOptions};
use nanosim::core::sim::SWEEP_CHUNK;
use nanosim::core::swec::SwecDcSweep;
use nanosim::numeric::BudgetMeter;
use nanosim::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn text(&mut self, s: &str) {
        for byte in s.bytes() {
            self.word(u64::from(byte));
        }
    }

    /// The counters every pin covers.
    fn stats(&mut self, s: &EngineStats) {
        self.word(s.rescues);
        self.word(s.rescue_rungs);
        self.word(s.iterations);
        self.word(s.linear_solves);
        self.word(s.flops.total());
    }

    /// Rung names and outcomes; the free-text details are not pinned.
    fn trace(&mut self, t: &RescueTrace) {
        self.word(t.rungs() as u64);
        for e in t.events() {
            self.text(&e.rung.to_string());
            self.word(u64::from(e.succeeded));
        }
    }
}

/// The Figure 7(a) divider biased at a fixed DC voltage.
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

/// The sharp-valley RTD driven by 1 mA, between its valley and peak
/// currents: the bistable operating point of the Figure 2 trap.
fn current_driven_rtd_biased() -> Circuit {
    let mut ckt = Circuit::new();
    let m = ckt.node("mid");
    ckt.add_current_source("I1", Circuit::GROUND, m, SourceWaveform::dc(1e-3))
        .unwrap();
    ckt.add_rtd("X1", m, Circuit::GROUND, Rtd::sharp_valley())
        .unwrap();
    ckt.add_resistor("Rsh", m, Circuit::GROUND, 1e6).unwrap();
    ckt
}

/// Digest of a session operating point: every value, then the counters.
fn op_digest(ds: &Dataset) -> u64 {
    let mut d = Digest::new();
    for name in ds.names() {
        d.floats(&[ds.value(name).unwrap()]);
    }
    d.stats(&ds.stats);
    d.0
}

/// Runs a SWEC operating point with `fault` armed and returns its digest.
/// A successful SWEC rescue reports no trace; its rung sequence is
/// `rescue_rungs - 1` failed rungs then one success, so the counters pin it.
fn swec_op_digest(ckt: Circuit, fault: Option<FaultPlan>, opts: SwecOptions) -> (u64, Dataset) {
    let mut sim = Simulator::new(ckt).unwrap();
    if let Some(plan) = fault {
        sim.arm_faults(plan);
    }
    let ds = sim
        .run(Analysis::op().options(opts))
        .expect("ladder rescues");
    assert_eq!(ds.stats.rescues, 1);
    (op_digest(&ds), ds)
}

#[test]
fn pinned_swec_op_nan_poison_rescue() {
    let (digest, ds) = swec_op_digest(
        biased_divider(0.5),
        Some(FaultPlan::new().with_nan_entry(1, 1, 1)),
        SwecOptions::default(),
    );
    assert_eq!(ds.stats.rescue_rungs, 1, "{}", ds.stats);
    assert_eq!(
        digest, 0x560c_c2df_3bc0_3188,
        "swec NaN-poison rescue digest {digest:#018x}"
    );
}

#[test]
fn pinned_swec_op_singular_pivot_rescue() {
    let (digest, ds) = swec_op_digest(
        biased_divider(0.5),
        Some(FaultPlan::new().with_singular_pivot(0, 1)),
        SwecOptions::default(),
    );
    assert_eq!(ds.stats.rescue_rungs, 1, "{}", ds.stats);
    assert_eq!(
        digest, 0x3baf_cb08_e411_f068,
        "swec singular-pivot rescue digest {digest:#018x}"
    );
}

#[test]
fn pinned_swec_op_undamped_rescue() {
    let (digest, ds) = swec_op_digest(
        current_driven_rtd_biased(),
        None,
        SwecOptions {
            rescue: RescueOptions {
                damping: 1.0,
                ..RescueOptions::default()
            },
            ..SwecOptions::default()
        },
    );
    assert!(ds.stats.rescue_rungs >= 2, "{}", ds.stats);
    assert_eq!(
        digest, 0x97de_da77_1fe7_5dd6,
        "swec undamped rescue digest {digest:#018x}"
    );
}

#[test]
fn pinned_nr_op_rescue() {
    let op = NrEngine::new(NrOptions {
        rescue: RescueOptions::default(),
        ..NrOptions::default()
    })
    .solve_op_rescued(&current_driven_rtd_biased())
    .expect("ladder rescues the NDR operating point");
    assert!(op.trace.succeeded());
    let mut d = Digest::new();
    d.floats(&op.x);
    d.trace(&op.trace);
    d.stats(&op.stats);
    assert_eq!(d.0, 0x0132_6811_c226_3995, "nr rescue digest {:#018x}", d.0);
    // The digest leaves the free-text details out; pin the rescuing rung's.
    let last = op.trace.events().last().unwrap();
    assert_eq!(
        (last.rung, last.detail.as_str()),
        (RescueRung::GminStep, "8 decades from 1.0e-2 S")
    );
}

/// One fixed-point or Newton iteration per solve: every rung fails.
#[test]
fn pinned_exhausted_ladders() {
    let mut sim = Simulator::new(biased_divider(0.5)).unwrap();
    let swec = sim
        .run(Analysis::op().options(SwecOptions {
            dc_max_iterations: 1,
            ..SwecOptions::default()
        }))
        .expect_err("one iteration per solve cannot converge");
    let nr = NrEngine::new(NrOptions {
        max_iterations: 1,
        rescue: RescueOptions::default(),
        ..NrOptions::default()
    })
    .solve_op_rescued(&current_driven_rtd_biased())
    .expect_err("one iteration per solve cannot converge");
    let mut d = Digest::new();
    for e in [&swec, &nr] {
        assert!(matches!(e, SimError::NonConvergence { .. }), "{e:?}");
        let trace = &e
            .forensics()
            .expect("exhausted ladders carry forensics")
            .rescue_trace;
        assert_eq!(trace.rungs(), RescueRung::LADDER.len(), "{e}");
        assert!(trace.events().iter().all(|ev| !ev.succeeded), "{e}");
        d.trace(trace);
    }
    assert_eq!(
        d.0, 0xcbec_5c01_6ae0_3905,
        "exhausted-ladder digest {:#018x}",
        d.0
    );
}

// ---------------------------------------------------------------------------
// Budget stop between rungs.
// ---------------------------------------------------------------------------

/// An RTD that trips a cancellation token on its `trip_at`-th
/// linearization (`Geq` for SWEC, `dI/dV` for Newton). With one iteration
/// per solve, evaluation 2 is the damped retry, so the token trips after
/// the first rung's last iteration check and the next rung gate stops.
#[derive(Debug)]
struct TrippingRtd {
    rtd: Rtd,
    token: CancelToken,
    evals: AtomicUsize,
    trip_at: usize,
}

impl TrippingRtd {
    fn count(&self) {
        if self.evals.fetch_add(1, Ordering::SeqCst) + 1 == self.trip_at {
            self.token.cancel();
        }
    }
}

impl NonlinearTwoTerminal for TrippingRtd {
    fn current(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        self.rtd.current(v, flops)
    }

    fn differential_conductance(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        self.count();
        self.rtd.differential_conductance(v, flops)
    }

    fn equivalent_conductance_and_current(
        &self,
        v: f64,
        flops: &mut FlopCounter,
    ) -> (f64, Option<f64>) {
        self.count();
        self.rtd.equivalent_conductance_and_current(v, flops)
    }

    fn device_kind(&self) -> &'static str {
        self.rtd.device_kind()
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&'static str, f64)) {
        self.rtd.for_each_param(f);
    }
}

fn tripping_divider(token: &CancelToken) -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let mid = ckt.node("mid");
    ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(0.5))
        .unwrap();
    ckt.add_resistor("R1", vin, mid, 50.0).unwrap();
    let device = TrippingRtd {
        rtd: Rtd::date2005(),
        token: token.clone(),
        evals: AtomicUsize::new(0),
        trip_at: 2,
    };
    ckt.add_nonlinear("X1", mid, Circuit::GROUND, Arc::new(device))
        .unwrap();
    ckt
}

/// The stop happened at the gate of the second rung, after exactly one
/// failed damped retry.
fn assert_stopped_at_gmin_gate(e: &SimError) {
    assert_eq!(e.budget_stop(), Some(BudgetStop::Cancelled), "{e:?}");
    assert!(e.to_string().contains("rescue rung gmin-step"), "{e}");
    let trace = &e
        .forensics()
        .expect("gate stops carry forensics")
        .rescue_trace;
    assert_eq!(trace.rungs(), 1, "{e}");
    assert_eq!(trace.events()[0].rung, RescueRung::DampedRetry);
    assert!(!trace.events()[0].succeeded);
}

#[test]
fn swec_budget_stop_between_rungs_keeps_partial_trace() {
    let token = CancelToken::new();
    let mut sim = Simulator::new(tripping_divider(&token)).unwrap();
    sim.set_cancel_token(token.clone());
    let e = sim
        .run(Analysis::op().options(SwecOptions {
            dc_max_iterations: 1,
            ..SwecOptions::default()
        }))
        .expect_err("cancelled mid-ladder");
    assert!(token.is_cancelled());
    assert_stopped_at_gmin_gate(&e);
}

#[test]
fn nr_budget_stop_between_rungs_keeps_partial_trace() {
    let token = CancelToken::new();
    let e = NrEngine::new(NrOptions {
        max_iterations: 1,
        rescue: RescueOptions::default(),
        ..NrOptions::default()
    })
    .with_meter(BudgetMeter::new(Budget::unlimited(), token.clone()))
    .solve_op_rescued(&tripping_divider(&token))
    .expect_err("cancelled mid-ladder");
    assert!(token.is_cancelled());
    assert_stopped_at_gmin_gate(&e);
}

// ---------------------------------------------------------------------------
// The serial DC sweep, bit for bit.
// ---------------------------------------------------------------------------

/// Digest of a result's axis, then every column by name, without any
/// counter: the part of a pin that holds whatever the work accounting does.
fn columns_digest(ds: &Dataset) -> u64 {
    let mut d = Digest::new();
    d.floats(ds.axis_values());
    for name in ds.names() {
        d.text(name);
        d.floats(ds.column(name).unwrap());
    }
    d.0
}

/// Digest of a sweep result: axis, every column, then the counters.
fn sweep_digest(r: &Dataset) -> u64 {
    let mut d = Digest::new();
    d.floats(r.axis_values());
    for name in r.names() {
        d.text(name);
        d.floats(r.column(name).unwrap());
    }
    d.word(r.stats.steps as u64);
    d.stats(&r.stats);
    d.0
}

/// The 251-point Figure 7(a) sweep through the serial SWEC engine.
fn fig7a_serial(mode: DcMode) -> Dataset {
    let r = SwecDcSweep::new(SwecOptions {
        dc_mode: mode,
        ..SwecOptions::default()
    })
    .run(&nanosim::workloads::rtd_divider(50.0), "V1", 0.0, 5.0, 0.02)
    .unwrap();
    assert_eq!(r.points(), 251);
    r
}

#[test]
fn pinned_serial_sweep_fixed_point() {
    let r = fig7a_serial(DcMode::FixedPoint);
    let columns = columns_digest(&r);
    assert_eq!(
        columns, 0x0718_2480_de6d_eb36,
        "fixed-point sweep columns digest {columns:#018x}"
    );
    let digest = sweep_digest(&r);
    assert_eq!(
        digest, 0xae25_b06b_d007_e446,
        "fixed-point sweep digest {digest:#018x}"
    );
}

#[test]
fn pinned_serial_sweep_non_iterative() {
    let r = fig7a_serial(DcMode::NonIterative);
    let columns = columns_digest(&r);
    assert_eq!(
        columns, 0xe2e6_2868_3a64_2695,
        "non-iterative sweep columns digest {columns:#018x}"
    );
    let digest = sweep_digest(&r);
    assert_eq!(
        digest, 0x7442_5d1c_61aa_eed5,
        "non-iterative sweep digest {digest:#018x}"
    );
}

#[test]
fn pinned_newton_sweep_mla_cold_start() {
    let opts = MlaEngine::new(MlaOptions::default())
        .newton_options()
        .clone();
    assert!(opts.cold_start);
    let r = NrEngine::new(opts)
        .run_dc_sweep(&nanosim::workloads::rtd_divider(50.0), "V1", 0.0, 5.0, 0.02)
        .unwrap();
    assert_eq!(r.sweep.points(), 251);
    let mut d = Digest::new();
    d.word(sweep_digest(&r.sweep));
    for o in &r.outcomes {
        d.text(&format!("{o:?}"));
    }
    assert_eq!(
        d.0, 0x3f68_87cc_59cb_c9fa,
        "MLA cold-start sweep digest {:#018x}",
        d.0
    );
}

// ---------------------------------------------------------------------------
// The Table I mesh sweep, serial and sharded.
// ---------------------------------------------------------------------------

/// Digest of a session sweep: axis, every column, then the counters,
/// including the factor/refactor/solve split of the sparse LU.
fn dataset_digest(ds: &Dataset) -> u64 {
    let mut d = Digest::new();
    d.floats(ds.axis_values());
    for name in ds.names() {
        d.text(name);
        d.floats(ds.column(name).unwrap());
    }
    let s = &ds.stats;
    for w in [
        s.steps as u64,
        s.full_factors,
        s.refactors,
        s.factor_flops,
        s.refactor_flops,
        s.solve_flops,
        s.device_evals,
    ] {
        d.word(w);
    }
    d.stats(s);
    d.0
}

#[test]
fn pinned_table1_mesh30_sweep() {
    // The 902-unknown Table I mesh with default options, over four
    // SWEEP_CHUNK-point chunks, serial and on two shards.
    let sweep = |plan: ExecPlan| {
        let mut sim = Simulator::new(nanosim::workloads::rtd_mesh(30)).unwrap();
        sim.run(
            Analysis::dc_sweep("V1", 0.0, 5.0, 0.1)
                .chunk_points(SWEEP_CHUNK)
                .plan(plan),
        )
        .unwrap()
    };
    let serial = sweep(ExecPlan::Serial);
    assert_eq!(serial.points(), 51);
    assert!(serial.points() > 2 * SWEEP_CHUNK);
    let sharded = sweep(ExecPlan::sharded(2));
    let columns = [columns_digest(&serial), columns_digest(&sharded)];
    assert_eq!(
        columns, [0x1ff4_e5fa_cafd_1a9b; 2],
        "serial/sharded mesh30 sweep columns digests {columns:#018x?}"
    );
    let digests = [dataset_digest(&serial), dataset_digest(&sharded)];
    assert_eq!(
        digests, [0x363b_8f63_757d_6956; 2],
        "serial/sharded mesh30 sweep digests {digests:#018x?}"
    );
}

// ---------------------------------------------------------------------------
// The default one-chunk layout.
// ---------------------------------------------------------------------------

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn pinned_one_chunk_sweep_matches_serial_engine() {
    // A default session sweep is one unbroken continuation chain: the bits
    // of `SwecDcSweep::run`, on the Table I mesh10 sweep and on the Figure
    // 7(a) divider sweep through its hysteresis. The session pays one
    // warm-up solve more and nothing else.
    for (circuit, stop, step, points) in [
        (nanosim::workloads::rtd_mesh(10), 3.0, 0.05, 61),
        (nanosim::workloads::rtd_divider(50.0), 5.0, 0.02, 251),
    ] {
        let engine = SwecDcSweep::new(SwecOptions::default())
            .run(&circuit, "V1", 0.0, stop, step)
            .unwrap();
        let mut sim = Simulator::new(circuit).unwrap();
        let session = sim.run(Analysis::dc_sweep("V1", 0.0, stop, step)).unwrap();
        assert_eq!(session.points(), points);
        assert_eq!(bits(session.axis_values()), bits(engine.axis_values()));
        assert_eq!(session.names(), engine.names());
        for name in engine.names() {
            assert_eq!(
                bits(session.column(name).unwrap()),
                bits(engine.column(name).unwrap()),
                "{points}-point sweep: column {name}"
            );
        }
        assert_eq!(session.stats.steps, engine.stats.steps);
        assert_eq!(
            session.stats.linear_solves,
            engine.stats.linear_solves + 1,
            "{points}-point sweep"
        );
    }
}

#[test]
fn pinned_one_chunk_mesh30_sweep_counts() {
    // The `dc_mesh30` op: the 101-point Table I sweep of the 902-unknown
    // mesh on a warm session, in the default layout: one solve per point
    // plus the warm-up, each one a refactor. In 16-point chunks the same
    // op takes 185 solves, 180 refactors, 162 000 device evaluations and
    // 75 760 761 flops.
    let mut sim = Simulator::new(nanosim::workloads::rtd_mesh(30)).unwrap();
    let sweep = || Analysis::dc_sweep("V1", 0.0, 5.0, 0.05);
    sim.run(sweep()).unwrap();
    let ds = sim.run(sweep()).unwrap();
    let columns = columns_digest(&ds);
    assert_eq!(
        columns, 0x0d4b_4b22_0e3c_4175,
        "warm mesh30 sweep columns digest {columns:#018x}"
    );
    let s = &ds.stats;
    let counts = [
        ds.points() as u64,
        s.linear_solves,
        s.full_factors,
        s.refactors,
        s.device_evals,
        s.flops.total(),
    ];
    assert_eq!(counts, [101, 102, 0, 102, 91_800, 43_380_344], "{s}");
}

// ---------------------------------------------------------------------------
// The Figure 8 and Figure 9 SWEC transients.
// ---------------------------------------------------------------------------

#[test]
fn pinned_fig8_fig9_transients() {
    // The `tran_fig8_fig9` transients on fresh default sessions, plus the
    // Figure 8 inverter without Taylor extrapolation and under the
    // trapezoidal rule: every axis and column bit, and the step, rejection,
    // refactor and solve counts. Model-evaluation and flop counts are not
    // pinned; they measure how the stamps are computed, not what they are.
    let run = |ckt: Circuit, tstop: f64, opts: SwecOptions| {
        let mut sim = Simulator::new(ckt).unwrap();
        let ds = sim
            .run(Analysis::transient(0.2e-9, tstop).options(opts))
            .unwrap();
        let s = &ds.stats;
        (
            columns_digest(&ds),
            [
                s.steps as u64,
                s.rejected_steps as u64,
                s.refactors,
                s.linear_solves,
            ],
        )
    };
    let fig8 = nanosim::workloads::fet_rtd_inverter;
    let got = [
        run(fig8(), 100e-9, SwecOptions::default()),
        run(
            nanosim::workloads::rtd_d_flip_flop(),
            500e-9,
            SwecOptions::default(),
        ),
        run(
            fig8(),
            100e-9,
            SwecOptions {
                taylor_extrapolation: false,
                ..SwecOptions::default()
            },
        ),
        run(
            fig8(),
            100e-9,
            SwecOptions {
                integration: IntegrationMethod::Trapezoidal,
                ..SwecOptions::default()
            },
        ),
    ];
    let want: [(u64, [u64; 4]); 4] = [
        (0xcc54_b1ca_a47a_a2ae, [8_867, 8_289, 17_156, 17_158]),
        (0x06f9_575b_f422_4582, [11_140, 3_343, 14_482, 14_484]),
        (0x3785_61f4_ab60_2af5, [9_304, 8_734, 18_038, 18_040]),
        (0x44f2_144e_23b8_84a7, [7_533, 6_877, 14_410, 14_412]),
    ];
    assert_eq!(
        got, want,
        "fig 8, fig 9, fig 8 no-taylor, fig 8 trapezoidal: {got:#x?}"
    );
}

// ---------------------------------------------------------------------------
// The PWL, MLA and plain Newton baselines.
// ---------------------------------------------------------------------------

/// Every axis and column bit of a baseline run, then its step, rejection,
/// iteration, solve, device-evaluation and total flop counts.
fn baseline_pin(ds: &Dataset) -> (u64, [u64; 6]) {
    let s = &ds.stats;
    (
        columns_digest(ds),
        [
            s.steps as u64,
            s.rejected_steps as u64,
            s.iterations,
            s.linear_solves,
            s.device_evals,
            s.flops.total(),
        ],
    )
}

#[test]
fn pinned_pwl_and_mla_baselines() {
    // The PWL sweep of the Figure 7(a) divider, and the PWL and MLA
    // transients of the Figure 8 inverter, each through a fresh session.
    let run = |ckt: Circuit, analysis: Analysis| {
        let mut sim = Simulator::new(ckt).unwrap();
        baseline_pin(&sim.run(analysis).unwrap())
    };
    let fig8 = nanosim::workloads::fet_rtd_inverter;
    let got = [
        run(
            nanosim::workloads::rtd_divider(50.0),
            Analysis::pwl_dc_sweep("V1", 0.0, 5.0, 0.02).into(),
        ),
        run(fig8(), Analysis::pwl_transient(0.2e-9, 100e-9).into()),
        run(fig8(), Analysis::mla_transient(0.2e-9, 100e-9).into()),
    ];
    let want: [(u64, [u64; 6]); 3] = [
        (0x8195_867e_3c05_65b7, [251, 0, 251, 251, 251, 7_022]),
        (0x82d4_307d_7927_b599, [567, 604, 8, 1_179, 3_537, 69_683]),
        (0xa812_21c2_7448_7cf2, [500, 0, 650, 650, 4_550, 136_158]),
    ];
    assert_eq!(
        got, want,
        "pwl fig 7(a) sweep, pwl fig 8, mla fig 8: {got:#x?}"
    );
}

#[test]
fn pinned_newton_transients() {
    // Plain SPICE3-like Newton on the Figure 8 inverter and its stress
    // variant, including every step whose solve did not converge.
    let run = |ckt: Circuit, tstep: f64, tstop: f64| {
        let r = NrEngine::new(NrOptions::default())
            .run_transient(&ckt, tstep, tstop)
            .unwrap();
        let mut d = Digest::new();
        for (t, outcome) in &r.failures {
            d.floats(&[*t]);
            d.text(&format!("{outcome:?}"));
        }
        (baseline_pin(&r.result), r.failures.len(), d.0)
    };
    let got = [
        run(nanosim::workloads::fet_rtd_inverter(), 0.2e-9, 100e-9),
        run(nanosim::workloads::fet_rtd_inverter_stress(), 0.5e-9, 30e-9),
    ];
    let want: [((u64, [u64; 6]), usize, u64); 2] = [
        (
            (0x9c35_e59c_7863_008a, [500, 0, 530, 530, 3_710, 112_129]),
            0,
            0xcbf2_9ce4_8422_2325,
        ),
        (
            (0xfbfc_8d39_173e_7152, [60, 0, 402, 402, 2_814, 89_667]),
            3,
            0xa5f5_ad3e_727c_ec2b,
        ),
    ];
    assert_eq!(got, want, "newton fig 8, newton fig 8 stress: {got:#x?}");
}
