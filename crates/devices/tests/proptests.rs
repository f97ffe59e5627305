//! Property-based tests for the device models.
//!
//! The invariants here are the physical facts the Nano-Sim engines rely on:
//! passivity (`sign(I) == sign(V)`), positivity of the step-wise equivalent
//! conductance, and consistency between analytic derivatives and finite
//! differences.

use nanosim_devices::diode::Diode;
use nanosim_devices::mosfet::{Mosfet, MosfetParams};
use nanosim_devices::nanowire::{Nanowire, NanowireParams};
use nanosim_devices::rtd::{Rtd, RtdParams};
use nanosim_devices::rtt::Rtt;
use nanosim_devices::sources::{PulseParams, SourceWaveform};
use nanosim_devices::traits::NonlinearTwoTerminal;
use nanosim_numeric::FlopCounter;
use proptest::prelude::*;

fn flops() -> FlopCounter {
    FlopCounter::new()
}

/// Random-but-physical RTD parameter sets.
fn rtd_params() -> impl Strategy<Value = RtdParams> {
    (
        1e-5f64..1e-3, // a
        0.05f64..0.5,  // b
        0.3f64..2.0,   // c
        0.03f64..0.5,  // d
        1e-9f64..1e-6, // h
        0.2f64..0.6,   // n1
        0.01f64..0.1,  // n2
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

proptest! {
    /// RTDs are passive: current has the sign of the voltage, so the SWEC
    /// conductance I/V is positive — the paper's core claim in §3.2.
    #[test]
    fn rtd_geq_always_positive(params in rtd_params(), v in -6.0f64..6.0) {
        let rtd = Rtd::new(params).unwrap();
        let g = rtd.equivalent_conductance(v, &mut flops());
        prop_assert!(g > 0.0, "Geq({v}) = {g} for {params:?}");
    }

    /// Analytic dI/dV of the Schulman model matches a finite difference.
    #[test]
    fn rtd_derivative_consistent(params in rtd_params(), v in -5.0f64..5.0) {
        let rtd = Rtd::new(params).unwrap();
        let h = 1e-7 * (1.0 + v.abs());
        let num = (rtd.current(v + h, &mut flops()) - rtd.current(v - h, &mut flops())) / (2.0 * h);
        let ana = rtd.differential_conductance(v, &mut flops());
        let scale = num.abs().max(ana.abs()).max(1e-12);
        prop_assert!((num - ana).abs() / scale < 1e-3, "v={v}: {num} vs {ana}");
    }

    /// dGeq/dV (paper eq. 7-8) is consistent with differentiating Geq.
    #[test]
    fn rtd_dgeq_consistent(params in rtd_params(), v in 0.2f64..5.0) {
        let rtd = Rtd::new(params).unwrap();
        let h = 1e-6;
        let num = (rtd.equivalent_conductance(v + h, &mut flops())
            - rtd.equivalent_conductance(v - h, &mut flops()))
            / (2.0 * h);
        let (_, ana) = rtd.equivalent_conductance_and_slope(v, &mut flops());
        let scale = num.abs().max(ana.abs()).max(1e-9);
        prop_assert!((num - ana).abs() / scale < 1e-3, "v={v}: {num} vs {ana}");
    }

    /// The resonant component is passive: it sinks current in the direction
    /// of the applied voltage at every bias (its magnitude is asymmetric in
    /// V — real RTDs are not symmetric devices — but its sign follows V).
    #[test]
    fn rtd_j1_passive(params in rtd_params(), v in 0.01f64..5.0) {
        let rtd = Rtd::new(params).unwrap();
        let p = rtd.current_j1(v, &mut flops());
        let m = rtd.current_j1(-v, &mut flops());
        prop_assert!(p > 0.0, "J1({v}) = {p}");
        prop_assert!(m < 0.0, "J1(-{v}) = {m}");
    }

    /// Nanowire conductance never decreases with |V| and never exceeds the
    /// fully-open channel count.
    #[test]
    fn nanowire_staircase_bounds(
        steps in 1u32..8,
        dv in 0.2f64..1.0,
        w in 0.005f64..0.1,
        v in -4.0f64..4.0
    ) {
        let wire = Nanowire::new(NanowireParams {
            base_channels: 1,
            step_voltage: dv,
            num_steps: steps,
            smearing: w,
            ..NanowireParams::metallic_cnt()
        })
        .unwrap();
        let g = wire.differential_conductance(v, &mut flops());
        let g0 = wire.params().g_quantum;
        prop_assert!(g >= g0 * 0.9);
        prop_assert!(g <= g0 * (1.0 + 2.0 * steps as f64) + 1e-12);
    }

    /// MOSFET: Geq equals Ids/Vds whenever Vds is nonzero (paper eq. 3).
    #[test]
    fn mosfet_geq_is_secant(vgs in -1.0f64..6.0, vds in 0.01f64..6.0) {
        let fet = Mosfet::new(MosfetParams::nmos_default()).unwrap();
        let i = fet.ids(vgs, vds, &mut flops());
        let g = fet.geq(vgs, vds, &mut flops());
        prop_assert!((g - i / vds).abs() < 1e-12 * (1.0 + g.abs()));
        prop_assert!(g >= 0.0);
    }

    /// MOSFET current is continuous in Vds (no jump at the region boundary).
    #[test]
    fn mosfet_current_continuous(vgs in 1.0f64..6.0, vds in 0.0f64..6.0) {
        let fet = Mosfet::new(MosfetParams::nmos_default()).unwrap();
        let h = 1e-7;
        let below = fet.ids(vgs, vds - h, &mut flops());
        let above = fet.ids(vgs, vds + h, &mut flops());
        prop_assert!((above - below).abs() < 1e-6);
    }

    /// Diode passivity and monotonicity (non-strict in deep reverse bias
    /// where the exponential underflows to exactly -Is).
    #[test]
    fn diode_monotone(v1 in -2.0f64..1.0, dv in 0.001f64..0.5) {
        let d = Diode::silicon();
        let i1 = d.current(v1, &mut flops());
        let i2 = d.current(v1 + dv, &mut flops());
        prop_assert!(i2 >= i1);
        if v1 > -0.3 {
            prop_assert!(i2 > i1, "strictly increasing near and above zero bias");
        }
        prop_assert!(d.equivalent_conductance(v1, &mut flops()) > 0.0);
    }

    /// RTT equivalent conductance stays positive over bias and gate sweeps.
    #[test]
    fn rtt_geq_positive(v in 0.05f64..6.0, vbe in -1.0f64..2.0) {
        let mut rtt = Rtt::three_peak();
        rtt.set_vbe(vbe);
        prop_assert!(rtt.equivalent_conductance(v, &mut flops()) > 0.0);
    }

    /// Pulse waveform values stay within [min(v1,v2), max(v1,v2)].
    #[test]
    fn pulse_bounded(
        v1 in -5.0f64..5.0,
        v2 in -5.0f64..5.0,
        t in 0.0f64..1e-6
    ) {
        let s = SourceWaveform::pulse(PulseParams {
            v1,
            v2,
            delay: 10e-9,
            rise: 1e-9,
            fall: 2e-9,
            width: 20e-9,
            period: 100e-9,
        })
        .unwrap();
        let lo = v1.min(v2) - 1e-12;
        let hi = v1.max(v2) + 1e-12;
        let val = s.value(t);
        prop_assert!(val >= lo && val <= hi, "value {val} outside [{lo}, {hi}]");
    }

    /// Waveform slew is the numerical derivative of value (away from
    /// breakpoints).
    #[test]
    fn pulse_slew_consistent(t in 0.0f64..1e-6) {
        let s = SourceWaveform::pulse(PulseParams {
            v1: 0.0,
            v2: 5.0,
            delay: 10e-9,
            rise: 4e-9,
            fall: 4e-9,
            width: 30e-9,
            period: 100e-9,
        })
        .unwrap();
        let h = 1e-13;
        let num = (s.value(t + h) - s.value(t - h)) / (2.0 * h);
        let ana = s.slew(t);
        // Allow mismatch only right at the corner points.
        if (num - ana).abs() > 1.0 {
            let tt = ((t - 10e-9).rem_euclid(100e-9)) / 1e-9;
            let near_corner = [0.0, 4.0, 34.0, 38.0, 100.0]
                .iter()
                .any(|&c| (tt - c).abs() < 0.01);
            prop_assert!(near_corner, "slew mismatch at t={t}: {num} vs {ana}");
        }
    }
}
