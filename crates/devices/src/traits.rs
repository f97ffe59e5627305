//! The nonlinear two-terminal device abstraction.
//!
//! Every simulation engine in `nanosim-core` (SWEC, Newton–Raphson, MLA,
//! piecewise-linear) is written against this trait, so the *same model code*
//! is exercised by the paper's method and its baselines — exactly how the
//! paper compares them.

use nanosim_numeric::FlopCounter;
use std::fmt::Debug;

/// Voltage below which `I(V)/V` switches to its analytic `V -> 0` limit.
pub const GEQ_ZERO_VOLTAGE: f64 = 1e-9;

/// Voltage below which `dGeq/dV` is a symmetric finite difference of `Geq`
/// (with this half-width) instead of the quotient rule, which cancels
/// catastrophically as `v -> 0`.
pub const GEQ_SLOPE_FD_VOLTAGE: f64 = 1e-6;

// The quotient-rule branch computes the secant `I(v)/v` itself, which is
// `Geq` only where the `v -> 0` limit does not apply.
const _: () = assert!(GEQ_SLOPE_FD_VOLTAGE > GEQ_ZERO_VOLTAGE);

/// A voltage-controlled two-terminal nonlinear branch `i = I(v)`.
///
/// All methods thread a [`FlopCounter`] because the paper's Table I compares
/// simulators by floating point operation counts, and model evaluations are
/// a large share of them.
pub trait NonlinearTwoTerminal: Debug {
    /// Branch current at branch voltage `v` (amperes).
    fn current(&self, v: f64, flops: &mut FlopCounter) -> f64;

    /// Differential (small-signal) conductance `dI/dV` at `v`.
    ///
    /// This is the linearization SPICE-like simulators stamp; it is
    /// *negative* inside an NDR region, which is what breaks them.
    fn differential_conductance(&self, v: f64, flops: &mut FlopCounter) -> f64;

    /// Step-wise equivalent conductance `Geq(v) = I(v)/v` (paper §3.2).
    ///
    /// For a passive device (`sign(I) == sign(v)`) this is positive even
    /// where `dI/dV < 0`, which is the paper's fix for the NDR problem. At
    /// `v -> 0` the secant degenerates and the analytic limit
    /// `Geq(0) = dI/dV(0)` is used instead.
    fn equivalent_conductance(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        if v.abs() < GEQ_ZERO_VOLTAGE {
            self.differential_conductance(0.0, flops)
        } else {
            let i = self.current(v, flops);
            flops.div(1);
            i / v
        }
    }

    /// The equivalent conductance and its voltage derivative together,
    /// `(Geq(v), dGeq/dV(v))`, with `dGeq/dV = (I'(v)·v - I(v)) / v²`
    /// (paper eq. 7–8). The SWEC engine's first-order Taylor extrapolation
    /// (paper eq. 5) needs both at every accepted time point.
    ///
    /// `Geq` is bit for bit [`NonlinearTwoTerminal::equivalent_conductance`].
    /// Away from zero one [`NonlinearTwoTerminal::current`] call feeds both
    /// the secant and the quotient rule; below [`GEQ_SLOPE_FD_VOLTAGE`] the
    /// slope is a symmetric finite difference of `Geq` of that half-width.
    fn equivalent_conductance_and_slope(&self, v: f64, flops: &mut FlopCounter) -> (f64, f64) {
        if v.abs() < GEQ_SLOPE_FD_VOLTAGE {
            let h = GEQ_SLOPE_FD_VOLTAGE;
            let geq = self.equivalent_conductance(v, flops);
            let gp = self.equivalent_conductance(v + h, flops);
            let gm = self.equivalent_conductance(v - h, flops);
            flops.add(1);
            flops.div(1);
            (geq, (gp - gm) / (2.0 * h))
        } else {
            let i = self.current(v, flops);
            let di = self.differential_conductance(v, flops);
            flops.mul(2);
            flops.add(1);
            flops.div(2);
            (i / v, (di * v - i) / (v * v))
        }
    }

    /// Short identifier used in reports ("rtd", "nanowire", ...).
    fn device_kind(&self) -> &'static str;

    /// Calls `f` with every parameter that determines the device's
    /// behaviour, as `(name, value)` pairs in a fixed order. Where the
    /// netlist `.model` card has a key for a parameter, `name` is that key.
    ///
    /// Deck fingerprints hash these values bit for bit and the netlist
    /// writer renders them, so two devices of one kind that report the
    /// same list behave identically.
    fn for_each_param(&self, f: &mut dyn FnMut(&'static str, f64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanosim_numeric::approx_eq;

    /// A simple cubic test device i = v^3 - used to validate the trait's
    /// default method implementations against hand-derived values.
    #[derive(Debug)]
    struct Cubic;

    impl NonlinearTwoTerminal for Cubic {
        fn current(&self, v: f64, flops: &mut FlopCounter) -> f64 {
            flops.mul(2);
            v * v * v
        }

        fn differential_conductance(&self, v: f64, flops: &mut FlopCounter) -> f64 {
            flops.mul(2);
            3.0 * v * v
        }

        fn device_kind(&self) -> &'static str {
            "cubic-test"
        }

        fn for_each_param(&self, _f: &mut dyn FnMut(&'static str, f64)) {}
    }

    #[test]
    fn default_geq_is_secant_through_origin() {
        let d = Cubic;
        let mut f = FlopCounter::new();
        // i(2)/2 = 8/2 = 4
        assert!(approx_eq(d.equivalent_conductance(2.0, &mut f), 4.0, 1e-12));
    }

    #[test]
    fn default_geq_uses_derivative_at_zero() {
        let d = Cubic;
        let mut f = FlopCounter::new();
        assert_eq!(d.equivalent_conductance(0.0, &mut f), 0.0);
        assert_eq!(d.equivalent_conductance(1e-12, &mut f), 0.0);
    }

    #[test]
    fn default_dgeq_matches_quotient_rule() {
        let d = Cubic;
        let mut f = FlopCounter::new();
        // Geq = v^2 so dGeq/dv = 2v.
        let (geq, slope) = d.equivalent_conductance_and_slope(1.5, &mut f);
        assert!(approx_eq(geq, 2.25, 1e-12));
        assert!(approx_eq(slope, 3.0, 1e-9));
    }

    #[test]
    fn default_dgeq_finite_difference_near_zero() {
        let d = Cubic;
        let mut f = FlopCounter::new();
        // dGeq/dv at 0 is 0 for Geq = v^2.
        let (_, slope) = d.equivalent_conductance_and_slope(0.0, &mut f);
        assert!(slope.abs() < 1e-5);
    }

    /// The slope as it was computed on its own before `Geq` and `dGeq/dV`
    /// shared one `current` call: a finite difference of `Geq` near zero,
    /// the quotient rule from fresh `current` and `dI/dV` calls elsewhere.
    fn separate_slope(d: &dyn NonlinearTwoTerminal, v: f64, flops: &mut FlopCounter) -> f64 {
        if v.abs() < 1e-6 {
            let h = 1e-6;
            let gp = d.equivalent_conductance(v + h, flops);
            let gm = d.equivalent_conductance(v - h, flops);
            flops.add(1);
            flops.div(1);
            (gp - gm) / (2.0 * h)
        } else {
            let i = d.current(v, flops);
            let di = d.differential_conductance(v, flops);
            flops.mul(2);
            flops.add(1);
            flops.div(1);
            (di * v - i) / (v * v)
        }
    }

    #[test]
    fn combined_geq_and_slope_match_separate_evaluations_bit_for_bit() {
        use crate::{Diode, Nanowire, Rtd, Rtt};
        let devices: [&dyn NonlinearTwoTerminal; 5] = [
            &Rtd::date2005(),
            &Nanowire::metallic_cnt(),
            &Rtt::three_peak(),
            &Diode::silicon(),
            &Cubic,
        ];
        let magnitudes = [0.0, 5e-10, 1e-9, 5e-7, 1e-6, 0.3, 1.5, 4.0];
        for d in devices {
            for v in magnitudes.iter().flat_map(|&m| [m, -m]) {
                let mut separate = FlopCounter::new();
                let geq = d.equivalent_conductance(v, &mut separate);
                let slope = separate_slope(d, v, &mut separate);
                let mut combined = FlopCounter::new();
                let (geq_c, slope_c) = d.equivalent_conductance_and_slope(v, &mut combined);
                let kind = d.device_kind();
                assert_eq!(geq_c.to_bits(), geq.to_bits(), "{kind} Geq at {v}");
                assert_eq!(slope_c.to_bits(), slope.to_bits(), "{kind} slope at {v}");
                // Away from zero the shared `current` call is the saving.
                let mut one_current = FlopCounter::new();
                if v.abs() >= GEQ_SLOPE_FD_VOLTAGE {
                    d.current(v, &mut one_current);
                }
                let saved = separate.since(&combined);
                assert_eq!(saved, one_current, "{kind} flops at {v}");
            }
        }
    }

    #[test]
    fn flops_recorded_by_defaults() {
        let d = Cubic;
        let mut f = FlopCounter::new();
        d.equivalent_conductance(1.0, &mut f);
        assert!(f.divs() >= 1);
    }

    #[test]
    fn trait_is_object_safe() {
        let d: Box<dyn NonlinearTwoTerminal> = Box::new(Cubic);
        assert_eq!(d.device_kind(), "cubic-test");
    }
}
