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

    /// Voltage derivative of the equivalent conductance,
    /// `dGeq/dV = (I'(v)·v - I(v)) / v²` (paper eq. 7–8), used by the SWEC
    /// engine's first-order Taylor extrapolation (paper eq. 5).
    ///
    /// The default implementation evaluates the quotient rule from
    /// [`NonlinearTwoTerminal::current`] and
    /// [`NonlinearTwoTerminal::differential_conductance`]; near `v = 0` it
    /// falls back to a symmetric finite difference of `Geq`.
    fn d_equivalent_conductance_dv(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        if v.abs() < 1e-6 {
            let h = 1e-6;
            let gp = self.equivalent_conductance(v + h, flops);
            let gm = self.equivalent_conductance(v - h, flops);
            flops.add(1);
            flops.div(1);
            (gp - gm) / (2.0 * h)
        } else {
            let i = self.current(v, flops);
            let di = self.differential_conductance(v, flops);
            flops.mul(2);
            flops.add(1);
            flops.div(1);
            (di * v - i) / (v * v)
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
        assert!(approx_eq(
            d.d_equivalent_conductance_dv(1.5, &mut f),
            3.0,
            1e-9
        ));
    }

    #[test]
    fn default_dgeq_finite_difference_near_zero() {
        let d = Cubic;
        let mut f = FlopCounter::new();
        // dGeq/dv at 0 is 0 for Geq = v^2.
        assert!(d.d_equivalent_conductance_dv(0.0, &mut f).abs() < 1e-5);
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
