//! Cross-crate integration: the four deterministic engines must agree on
//! circuits where all of them are trustworthy, and disagree in the
//! documented ways where they are not.

use nanosim::core::mla::MlaEngine;
use nanosim::core::pwl::PwlEngine;
use nanosim::core::swec::{SwecDcSweep, SwecTransient};
use nanosim::prelude::*;

fn rc_step() -> Circuit {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("out");
    ckt.add_voltage_source(
        "V1",
        a,
        Circuit::GROUND,
        SourceWaveform::pwl(vec![(0.0, 0.0), (1e-12, 1.0), (1.0, 1.0)]).unwrap(),
    )
    .unwrap();
    ckt.add_resistor("R1", a, b, 1e3).unwrap();
    ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
    ckt
}

#[test]
fn all_engines_agree_on_linear_rc() {
    let ckt = rc_step();
    let (tstep, tstop) = (0.02e-9, 5e-9);
    let swec = SwecTransient::new(SwecOptions::default())
        .run(&ckt, tstep, tstop)
        .unwrap();
    let nr = NrEngine::new(NrOptions::default())
        .run_transient(&ckt, tstep, tstop)
        .unwrap();
    let pwl = PwlEngine::new().run_transient(&ckt, tstep, tstop).unwrap();
    let s = swec.curve("out").unwrap();
    let n = nr.result.curve("out").unwrap();
    let p = pwl.curve("out").unwrap();
    assert!(
        s.rms_difference(&n) < 5e-3,
        "swec vs nr: {}",
        s.rms_difference(&n)
    );
    assert!(
        s.rms_difference(&p) < 5e-3,
        "swec vs pwl: {}",
        s.rms_difference(&p)
    );
    assert!(nr.failures.is_empty());
}

#[test]
fn swec_and_mla_agree_on_rtd_dc_curve() {
    // Figure 7(a): both engines capture the same I-V including the NDR
    // branch; SWEC does it in ~1 solve/point, MLA in many.
    let ckt = nanosim::workloads::rtd_divider(50.0);
    let swec = SwecDcSweep::new(SwecOptions::default())
        .run(&ckt, "V1", 0.0, 5.0, 0.02)
        .unwrap();
    let mla = MlaEngine::new(MlaOptions::default())
        .run_dc_sweep(&ckt, "V1", 0.0, 5.0, 0.02)
        .unwrap();
    let a = swec.curve("I(X1)").unwrap();
    let b = mla.curve("I(X1)").unwrap();
    let peak = b.peak().unwrap().1;
    assert!(
        a.rms_difference(&b) < 0.03 * peak,
        "rms {} vs peak {peak}",
        a.rms_difference(&b)
    );
    // The Table I story in one assertion.
    assert!(
        mla.stats.flops.total() > 5 * swec.stats.flops.total(),
        "MLA {} vs SWEC {}",
        mla.stats.flops.total(),
        swec.stats.flops.total()
    );
}

#[test]
fn swec_succeeds_where_plain_nr_fails() {
    // Figure 8(c): the stress inverter breaks plain Newton on some steps;
    // SWEC completes and both engines agree before the first failure.
    let ckt = nanosim::workloads::fet_rtd_inverter_stress();
    let (tstep, tstop) = (0.5e-9, 30e-9);
    let nr = NrEngine::new(NrOptions::default())
        .run_transient(&ckt, tstep, tstop)
        .unwrap();
    assert!(
        !nr.failures.is_empty(),
        "the stress deck must break plain NR"
    );
    let swec = SwecTransient::new(SwecOptions::default())
        .run(&ckt, tstep, tstop)
        .unwrap();
    let out = swec.curve("out").unwrap();
    assert!(out.values().iter().all(|v| v.is_finite()));
}

#[test]
fn pwl_conductance_sign_vs_swec() {
    // Figure 3 at circuit level: stamped PWL conductance goes negative in
    // NDR; SWEC's never does. Exercised through the public APIs.
    use nanosim::circuit::element::SharedDevice;
    use nanosim::core::pwl::PwlDeviceTable;
    use std::sync::Arc;
    let rtd = Rtd::date2005();
    let peak = rtd.peak().unwrap();
    let dev: SharedDevice = Arc::new(rtd);
    let table = PwlDeviceTable::tabulate(&dev, -1.0, 6.0, 300).unwrap();
    let mut flops = FlopCounter::new();
    let mut saw_negative = false;
    let mut v = 0.1;
    while v < 6.0 {
        let g_pwl = table.segment_conductance(v);
        let g_swec = dev.equivalent_conductance(v, &mut flops);
        assert!(g_swec > 0.0, "SWEC Geq({v}) = {g_swec}");
        if g_pwl < 0.0 {
            saw_negative = true;
            assert!(v > peak.voltage, "negative slope only after the peak");
        }
        v += 0.05;
    }
    assert!(saw_negative, "the PWL table must expose the NDR region");
}

#[test]
fn netlist_deck_runs_end_to_end() {
    let deck = parse_netlist(
        "* integration deck\n\
         .model mrtd RTD (a=1e-4 b=2 c=1.5 d=0.3 n1=0.35 n2=0.0172 h=1.43e-8)\n\
         V1 in 0 PWL(0 0 5n 5 10n 5)\n\
         R1 in mid 50\n\
         YRTD1 mid 0 mrtd\n\
         C1 mid 0 0.1p\n\
         .tran 0.05n 10n\n\
         .end\n",
    )
    .unwrap();
    assert_eq!(deck.analyses.len(), 1);
    let AnalysisDirective::Tran { tstep, tstop } = deck.analyses[0] else {
        panic!("expected tran");
    };
    let r = SwecTransient::new(SwecOptions::default())
        .run(&deck.circuit, tstep, tstop)
        .unwrap();
    let mid = r.curve("mid").unwrap();
    // Ramp to 5 V: the RTD ends up past its peak.
    assert!(mid.final_value() > 4.0);
    // And the deck's device is the same model as the builder's.
    let builder = nanosim::workloads::rtd_divider(50.0);
    let sweep_deck = SwecDcSweep::new(SwecOptions::default())
        .run(&deck.circuit, "V1", 0.0, 5.0, 0.05)
        .unwrap();
    let sweep_builder = SwecDcSweep::new(SwecOptions::default())
        .run(&builder, "V1", 0.0, 5.0, 0.05)
        .unwrap();
    let a = sweep_deck.curve("I(YRTD1)").unwrap();
    let b = sweep_builder.curve("I(X1)").unwrap();
    assert!(a.rms_difference(&b) < 1e-6);
}

#[test]
fn integration_methods_agree_on_smooth_problem() {
    let ckt = rc_step();
    let be = SwecTransient::new(SwecOptions::default())
        .run(&ckt, 0.05e-9, 5e-9)
        .unwrap();
    let tr = SwecTransient::new(SwecOptions {
        integration: IntegrationMethod::Trapezoidal,
        ..SwecOptions::default()
    })
    .run(&ckt, 0.05e-9, 5e-9)
    .unwrap();
    let a = be.curve("out").unwrap();
    let b = tr.curve("out").unwrap();
    assert!(a.rms_difference(&b) < 0.01);
}
