//! Resonant tunneling diode: the Schulman–De Los Santos–Chow model.
//!
//! The paper (eq. 4, after \[5\]) describes the RTD current density as
//! `J(V) = J1(V) + J2(V)` with
//!
//! ```text
//! J1(V) = A · ln[ (1 + e^{q(B - C + n1·V)/kT}) / (1 + e^{q(B - C - n1·V)/kT}) ]
//!           · [ π/2 + atan((C - n1·V)/D) ]
//! J2(V) = H · (e^{q·n2·V/kT} - 1)
//! ```
//!
//! `J1` is the resonant-tunneling component whose `atan` factor collapses as
//! the bias pulls the well out of resonance, producing the peak and the
//! negative differential resistance (NDR) region; `J2` is the thermionic
//! excess current that restores a positive slope at high bias (PDR2).
//!
//! The equivalent conductance `Geq = J/V` (paper eq. 6) and its voltage
//! derivative (paper eq. 8) are implemented analytically.

use crate::constants::{ln_1p_exp, logistic, thermal_voltage, ROOM_TEMPERATURE};
use crate::error::DeviceError;
use crate::traits::NonlinearTwoTerminal;
use crate::Result;
use nanosim_numeric::FlopCounter;
use std::f64::consts::FRAC_PI_2;

/// Operating region of an RTD at a given bias (paper Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtdRegion {
    /// First positive differential resistance region (before the peak).
    Pdr1,
    /// Negative differential resistance region (between peak and valley).
    Ndr,
    /// Second positive differential resistance region (after the valley).
    Pdr2,
}

/// Parameters of the Schulman RTD equation.
///
/// All voltages (`b`, `c`, `d`) are in volts, `a` and `h` in amperes, `n1`
/// and `n2` dimensionless, `temperature` in kelvin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtdParams {
    /// Resonance current scale (A).
    pub a: f64,
    /// Energy-level alignment offset (V).
    pub b: f64,
    /// Resonance center (V); the tunneling peak sits near `c/n1`.
    pub c: f64,
    /// Resonance linewidth (V).
    pub d: f64,
    /// Excess (thermionic) current scale (A).
    pub h: f64,
    /// Voltage-division factor of the resonant level.
    pub n1: f64,
    /// Ideality-like factor of the excess current.
    pub n2: f64,
    /// Device temperature (K).
    pub temperature: f64,
}

impl RtdParams {
    /// The exact parameter set the paper reports for its FET-RTD inverter
    /// transient (§5.2): `A = 1e-4, B = 2, C = 1.5, D = 0.3, n1 = 0.35,
    /// n2 = 0.0172, H = 1.43e-8` at 300 K.
    pub fn date2005() -> Self {
        RtdParams {
            a: 1e-4,
            b: 2.0,
            c: 1.5,
            d: 0.3,
            h: 1.43e-8,
            n1: 0.35,
            n2: 0.0172,
            temperature: ROOM_TEMPERATURE,
        }
    }

    /// A variant with a narrow resonance linewidth and stronger excess
    /// current so the peak (~1.2 V), valley (~2.4 V) and the second PDR
    /// region all fall inside a 0–6 V sweep — used to render the three
    /// labelled regions of the paper's Figure 4 on one plot.
    pub fn sharp_valley() -> Self {
        RtdParams {
            a: 1e-4,
            b: 0.2,
            c: 0.5,
            d: 0.05,
            h: 1e-8,
            n1: 0.4,
            n2: 0.1,
            temperature: ROOM_TEMPERATURE,
        }
    }

    /// Validates the parameter ranges.
    ///
    /// # Errors
    /// Returns [`DeviceError::InvalidParameter`] when a parameter is outside
    /// its physical range (`a, d, n1 > 0`, `h, n2 >= 0`, `temperature > 0`).
    pub fn validate(&self) -> Result<()> {
        let check = |name: &'static str, value: f64, ok: bool, req: &'static str| {
            if ok && value.is_finite() {
                Ok(())
            } else {
                Err(DeviceError::InvalidParameter {
                    device: "rtd",
                    parameter: name,
                    value,
                    requirement: req,
                })
            }
        };
        check("a", self.a, self.a > 0.0, "must be positive")?;
        check("d", self.d, self.d > 0.0, "must be positive")?;
        check("n1", self.n1, self.n1 > 0.0, "must be positive")?;
        check("h", self.h, self.h >= 0.0, "must be non-negative")?;
        check("n2", self.n2, self.n2 >= 0.0, "must be non-negative")?;
        check("b", self.b, true, "must be finite")?;
        check("c", self.c, true, "must be finite")?;
        check(
            "temperature",
            self.temperature,
            self.temperature > 0.0,
            "must be positive",
        )
    }
}

impl Default for RtdParams {
    fn default() -> Self {
        RtdParams::date2005()
    }
}

/// A resonant tunneling diode device.
///
/// # Example
/// ```
/// use nanosim_devices::rtd::{Rtd, RtdRegion};
/// use nanosim_devices::traits::NonlinearTwoTerminal;
/// use nanosim_numeric::FlopCounter;
///
/// let rtd = Rtd::date2005();
/// let mut flops = FlopCounter::new();
/// let peak = rtd.peak().expect("this RTD has a peak");
/// assert!(rtd.current(peak.voltage, &mut flops) > 0.0);
/// assert_eq!(rtd.region(peak.voltage * 0.5), RtdRegion::Pdr1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rtd {
    params: RtdParams,
    /// Precomputed q/kT (1/V).
    u: f64,
}

/// A located extremum of the RTD I-V curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvExtremum {
    /// Bias voltage of the extremum (V).
    pub voltage: f64,
    /// Current at the extremum (A).
    pub current: f64,
}

impl Rtd {
    /// Creates an RTD from validated parameters.
    ///
    /// # Errors
    /// Returns [`DeviceError::InvalidParameter`] for out-of-range values.
    pub fn new(params: RtdParams) -> Result<Self> {
        params.validate()?;
        Ok(Rtd {
            u: 1.0 / thermal_voltage(params.temperature),
            params,
        })
    }

    /// RTD with the paper's §5.2 parameter set.
    pub fn date2005() -> Self {
        Rtd::new(RtdParams::date2005()).expect("paper parameters are valid")
    }

    /// RTD with the sharp-valley parameter set (paper Figure 4 rendering).
    pub fn sharp_valley() -> Self {
        Rtd::new(RtdParams::sharp_valley()).expect("sharp-valley parameters are valid")
    }

    /// The model parameters.
    pub fn params(&self) -> &RtdParams {
        &self.params
    }

    /// Resonant tunneling component `J1(V)`.
    pub fn current_j1(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        let p = &self.params;
        let arg_pos = self.u * (p.b - p.c + p.n1 * v);
        let arg_neg = self.u * (p.b - p.c - p.n1 * v);
        // 2 muls + 3 adds per argument, softplus ~ 2 func.
        flops.mul(4);
        flops.add(6);
        let log_ratio = ln_1p_exp(arg_pos) - ln_1p_exp(arg_neg);
        flops.func(2);
        flops.add(1);
        let resonance = FRAC_PI_2 + ((p.c - p.n1 * v) / p.d).atan();
        flops.mul(1);
        flops.add(2);
        flops.div(1);
        flops.func(1);
        flops.mul(2);
        p.a * log_ratio * resonance
    }

    /// Excess (thermionic) component `J2(V)`.
    pub fn current_j2(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        let p = &self.params;
        flops.mul(3);
        flops.add(1);
        flops.func(1);
        p.h * ((self.u * p.n2 * v).exp() - 1.0)
    }

    /// Analytic `dJ1/dV`.
    fn dj1_dv(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        let p = &self.params;
        let arg_pos = self.u * (p.b - p.c + p.n1 * v);
        let arg_neg = self.u * (p.b - p.c - p.n1 * v);
        let log_ratio = ln_1p_exp(arg_pos) - ln_1p_exp(arg_neg);
        let dlog = self.u * p.n1 * (logistic(arg_pos) + logistic(arg_neg));
        let x = (p.c - p.n1 * v) / p.d;
        let resonance = FRAC_PI_2 + x.atan();
        let dresonance = -(p.n1 / p.d) / (1.0 + x * x);
        // Bookkeeping: softplus/logistic/atan evaluations plus arithmetic.
        flops.func(5);
        flops.mul(12);
        flops.add(10);
        flops.div(2);
        p.a * (dlog * resonance + log_ratio * dresonance)
    }

    /// Analytic `dJ2/dV`.
    fn dj2_dv(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        let p = &self.params;
        flops.func(1);
        flops.mul(5);
        p.h * self.u * p.n2 * (self.u * p.n2 * v).exp()
    }

    /// Finds the first current peak for `v` in `(0, v_max]`, if any.
    ///
    /// Scans `dI/dV` sign changes on a fine grid and refines by bisection.
    pub fn peak(&self) -> Option<IvExtremum> {
        self.find_extremum(true)
    }

    /// Finds the valley (current minimum after the peak), if any.
    pub fn valley(&self) -> Option<IvExtremum> {
        self.find_extremum(false)
    }

    fn find_extremum(&self, peak: bool) -> Option<IvExtremum> {
        let mut flops = FlopCounter::new();
        let v_max = 4.0 * self.params.c / self.params.n1;
        let n = 4000;
        let dv = v_max / n as f64;
        let mut prev = self.differential_conductance(dv * 0.5, &mut flops);
        let mut seen_peak = false;
        for i in 1..n {
            let v = dv * (0.5 + i as f64);
            let cur = self.differential_conductance(v, &mut flops);
            let crossing_down = prev > 0.0 && cur <= 0.0; // peak
            let crossing_up = prev < 0.0 && cur >= 0.0; // valley
            if crossing_down {
                seen_peak = true;
                if peak {
                    let root = self.refine_extremum(v - dv, v);
                    return Some(IvExtremum {
                        voltage: root,
                        current: self.current(root, &mut flops),
                    });
                }
            }
            if crossing_up && seen_peak && !peak {
                let root = self.refine_extremum(v - dv, v);
                return Some(IvExtremum {
                    voltage: root,
                    current: self.current(root, &mut flops),
                });
            }
            prev = cur;
        }
        None
    }

    fn refine_extremum(&self, mut lo: f64, mut hi: f64) -> f64 {
        let mut flops = FlopCounter::new();
        let flo = self.differential_conductance(lo, &mut flops);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            let fmid = self.differential_conductance(mid, &mut flops);
            if fmid == 0.0 {
                return mid;
            }
            if (fmid > 0.0) == (flo > 0.0) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Classifies the bias point into PDR1 / NDR / PDR2 (paper Figure 4).
    ///
    /// Voltages at or below zero are reported as [`RtdRegion::Pdr1`].
    pub fn region(&self, v: f64) -> RtdRegion {
        let mut flops = FlopCounter::new();
        if v <= 0.0 {
            return RtdRegion::Pdr1;
        }
        let peak_v = self.peak().map(|e| e.voltage);
        let valley_v = self.valley().map(|e| e.voltage);
        match (peak_v, valley_v) {
            (Some(p), _) if v <= p => RtdRegion::Pdr1,
            (Some(_), Some(val)) if v < val => RtdRegion::Ndr,
            (Some(_), Some(_)) => RtdRegion::Pdr2,
            (Some(_), None) => {
                if self.differential_conductance(v, &mut flops) < 0.0 {
                    RtdRegion::Ndr
                } else {
                    RtdRegion::Pdr2
                }
            }
            _ => RtdRegion::Pdr1,
        }
    }

    /// Peak-to-valley current ratio, when both extrema exist.
    pub fn peak_to_valley_ratio(&self) -> Option<f64> {
        let p = self.peak()?;
        let v = self.valley()?;
        if v.current.abs() > 0.0 {
            Some(p.current / v.current)
        } else {
            None
        }
    }
}

impl NonlinearTwoTerminal for Rtd {
    fn current(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        flops.add(1);
        self.current_j1(v, flops) + self.current_j2(v, flops)
    }

    fn differential_conductance(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        flops.add(1);
        self.dj1_dv(v, flops) + self.dj2_dv(v, flops)
    }

    fn device_kind(&self) -> &'static str {
        "rtd"
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&'static str, f64)) {
        let p = &self.params;
        f("a", p.a);
        f("b", p.b);
        f("c", p.c);
        f("d", p.d);
        f("n1", p.n1);
        f("n2", p.n2);
        f("h", p.h);
        f("temp", p.temperature);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanosim_numeric::approx_eq;

    fn flops() -> FlopCounter {
        FlopCounter::new()
    }

    #[test]
    fn zero_bias_zero_current() {
        let rtd = Rtd::date2005();
        assert!(rtd.current(0.0, &mut flops()).abs() < 1e-18);
    }

    #[test]
    fn current_is_odd_like_passive() {
        // sign(I) == sign(V): the device absorbs power at every bias.
        let rtd = Rtd::date2005();
        for v in [-5.0, -2.0, -0.3, 0.3, 2.0, 5.0] {
            let i = rtd.current(v, &mut flops());
            assert!(i * v > 0.0, "v={v}, i={i}");
        }
    }

    #[test]
    fn paper_parameters_have_peak_near_3v() {
        let rtd = Rtd::date2005();
        let peak = rtd.peak().expect("peak exists");
        assert!(
            peak.voltage > 2.0 && peak.voltage < 4.0,
            "peak at {}",
            peak.voltage
        );
        // Peak current on the order of 10 mA for the paper's parameters.
        assert!(peak.current > 1e-3 && peak.current < 1e-1);
    }

    #[test]
    fn ndr_region_has_negative_differential_conductance() {
        let rtd = Rtd::date2005();
        let peak = rtd.peak().unwrap();
        let v = peak.voltage + 0.4;
        assert!(rtd.differential_conductance(v, &mut flops()) < 0.0);
        // ... while the SWEC equivalent conductance stays positive (paper
        // Figure 5).
        assert!(rtd.equivalent_conductance(v, &mut flops()) > 0.0);
    }

    #[test]
    fn geq_positive_across_full_sweep() {
        let rtd = Rtd::date2005();
        let mut v = -6.0;
        while v <= 6.0 {
            let g = rtd.equivalent_conductance(v, &mut flops());
            assert!(g > 0.0, "Geq({v}) = {g}");
            v += 0.05;
        }
    }

    #[test]
    fn geq_limit_matches_derivative_at_zero() {
        let rtd = Rtd::date2005();
        let g0 = rtd.equivalent_conductance(0.0, &mut flops());
        let gd = rtd.differential_conductance(0.0, &mut flops());
        assert!(approx_eq(g0, gd, 1e-12));
        // And the secant at small voltage approaches the same value.
        let gs = rtd.equivalent_conductance(1e-5, &mut flops());
        assert!(approx_eq(g0, gs, 1e-3), "{g0} vs {gs}");
    }

    #[test]
    fn differential_conductance_matches_finite_difference() {
        let rtd = Rtd::date2005();
        let h = 1e-7;
        for v in [-2.0, 0.0, 1.0, 2.5, 3.2, 4.0, 5.5] {
            let num =
                (rtd.current(v + h, &mut flops()) - rtd.current(v - h, &mut flops())) / (2.0 * h);
            let ana = rtd.differential_conductance(v, &mut flops());
            assert!(
                approx_eq(num, ana, 1e-4),
                "v={v}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn dgeq_dv_matches_finite_difference() {
        let rtd = Rtd::date2005();
        let h = 1e-6;
        for v in [0.5, 1.5, 3.0, 4.5] {
            let num = (rtd.equivalent_conductance(v + h, &mut flops())
                - rtd.equivalent_conductance(v - h, &mut flops()))
                / (2.0 * h);
            let (_, ana) = rtd.equivalent_conductance_and_slope(v, &mut flops());
            assert!(
                approx_eq(num, ana, 1e-4),
                "v={v}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn sharp_valley_has_three_regions_within_6v() {
        let rtd = Rtd::sharp_valley();
        let peak = rtd.peak().expect("peak");
        let valley = rtd.valley().expect("valley");
        assert!(peak.voltage < valley.voltage);
        assert!(valley.voltage < 6.0, "valley at {}", valley.voltage);
        assert_eq!(rtd.region(peak.voltage * 0.5), RtdRegion::Pdr1);
        assert_eq!(
            rtd.region(0.5 * (peak.voltage + valley.voltage)),
            RtdRegion::Ndr
        );
        assert_eq!(rtd.region(valley.voltage + 0.5), RtdRegion::Pdr2);
    }

    #[test]
    fn peak_to_valley_ratio_is_large() {
        let rtd = Rtd::sharp_valley();
        let pvr = rtd.peak_to_valley_ratio().expect("pvr");
        assert!(pvr > 2.0, "pvr = {pvr}");
    }

    #[test]
    fn region_at_negative_bias_is_pdr1() {
        let rtd = Rtd::date2005();
        assert_eq!(rtd.region(-1.0), RtdRegion::Pdr1);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let bad = RtdParams {
            d: 0.0,
            ..RtdParams::date2005()
        };
        assert!(Rtd::new(bad).is_err());
        let bad = RtdParams {
            a: -1.0,
            ..RtdParams::date2005()
        };
        assert!(Rtd::new(bad).is_err());
        let bad = RtdParams {
            temperature: -5.0,
            ..RtdParams::date2005()
        };
        assert!(Rtd::new(bad).is_err());
        let bad = RtdParams {
            b: f64::NAN,
            ..RtdParams::date2005()
        };
        assert!(Rtd::new(bad).is_err());
    }

    #[test]
    fn flops_are_recorded() {
        let rtd = Rtd::date2005();
        let mut f = flops();
        rtd.current(1.0, &mut f);
        assert!(f.funcs() >= 3, "J1 uses softplus twice and atan once");
        assert!(f.total() > 10);
    }

    #[test]
    fn j1_j2_sum_to_current() {
        let rtd = Rtd::date2005();
        let v = 2.2;
        let j1 = rtd.current_j1(v, &mut flops());
        let j2 = rtd.current_j2(v, &mut flops());
        let j = rtd.current(v, &mut flops());
        assert!(approx_eq(j, j1 + j2, 1e-15));
    }

    #[test]
    fn default_params_are_paper_params() {
        assert_eq!(RtdParams::default(), RtdParams::date2005());
    }

    #[test]
    fn cooling_sharpens_the_resonance() {
        // In the Schulman model the only temperature dependence is the
        // kT/q smearing: cooling from 300 K to 77 K quadruples q/kT, which
        // (a) keeps the resonance (peak) position set by C/n1, and
        // (b) steepens the current characteristics everywhere the
        // logarithmic term is still thermally smeared.
        let warm = Rtd::date2005();
        let cold = Rtd::new(RtdParams {
            temperature: 77.0,
            ..RtdParams::date2005()
        })
        .unwrap();
        let mut f = flops();
        let peak_warm = warm.peak().unwrap();
        let peak_cold = cold.peak().unwrap();
        // Peak position is set by the resonance (C/n1), not temperature.
        assert!(
            (peak_cold.voltage - peak_warm.voltage).abs() < 0.5,
            "{} vs {}",
            peak_cold.voltage,
            peak_warm.voltage
        );
        // The low-bias conductance scales like q/kT (degenerate limit):
        // the cold device conducts ~300/77 times more per volt.
        let g_warm = warm.differential_conductance(0.0, &mut f);
        let g_cold = cold.differential_conductance(0.0, &mut f);
        let ratio = g_cold / g_warm;
        assert!(
            (ratio - 300.0 / 77.0).abs() < 0.4,
            "conductance ratio {ratio}"
        );
        // The colder device still has a genuine NDR region.
        assert!(cold.differential_conductance(peak_cold.voltage + 0.4, &mut f) < 0.0);
    }
}
