//! Resonant tunneling transistor (RTT) with multiple resonant peaks.
//!
//! Paper §2.1.1: "the different discrete energy levels of each material
//! within the transistor terminals act as barriers to current flow. Current
//! flows only when a modulated voltage aligns these energy levels. [...] The
//! resulting I-V characteristics exhibit multiple peaks with a staircase
//! contour" (Figure 1(a), `I_C` versus `V_CE`).
//!
//! The model sums one Schulman-style resonance term per discrete level and
//! adds the thermionic excess current; a logistic base-emitter coupling
//! modulates the resonant component so the device can be used as a
//! three-terminal switch (as in the RTD-D flip-flop's data input).

use crate::constants::{ln_1p_exp, logistic, thermal_voltage, ROOM_TEMPERATURE};
use crate::error::DeviceError;
use crate::traits::NonlinearTwoTerminal;
use crate::Result;
use nanosim_numeric::FlopCounter;
use std::f64::consts::FRAC_PI_2;

/// One resonant level of the RTT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resonance {
    /// Current scale of this resonance (A).
    pub amplitude: f64,
    /// Resonance center voltage parameter (V); the peak sits near
    /// `center/n1`.
    pub center: f64,
    /// Resonance linewidth (V).
    pub width: f64,
}

/// RTT model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RttParams {
    /// Energy-alignment offset shared by all resonances (V).
    pub b: f64,
    /// Voltage-division factor of the resonant levels.
    pub n1: f64,
    /// The discrete resonant levels (at least one).
    pub resonances: Vec<Resonance>,
    /// Excess (thermionic) current scale (A).
    pub h: f64,
    /// Ideality-like factor of the excess current.
    pub n2: f64,
    /// Temperature (K).
    pub temperature: f64,
    /// Base-emitter voltage at which the device turns half-on (V).
    pub vbe_on: f64,
    /// Logistic steepness of the gate coupling (V).
    pub vbe_slope: f64,
}

impl RttParams {
    /// A three-level RTT whose collector curve shows three peaks below 6 V,
    /// matching the multi-peak staircase of the paper's Figure 1(a).
    pub fn three_peak() -> Self {
        RttParams {
            b: 0.15,
            n1: 0.4,
            resonances: vec![
                Resonance {
                    amplitude: 8e-5,
                    center: 0.4,
                    width: 0.04,
                },
                Resonance {
                    amplitude: 6e-5,
                    center: 0.8,
                    width: 0.04,
                },
                Resonance {
                    amplitude: 5e-5,
                    center: 1.2,
                    width: 0.04,
                },
            ],
            h: 1e-8,
            n2: 0.05,
            temperature: ROOM_TEMPERATURE,
            vbe_on: 0.8,
            vbe_slope: 0.1,
        }
    }

    /// Validates the parameter ranges.
    ///
    /// # Errors
    /// Returns [`DeviceError::InvalidParameter`] when no resonance is given
    /// or any scale parameter is out of range.
    pub fn validate(&self) -> Result<()> {
        if self.resonances.is_empty() {
            return Err(DeviceError::InvalidParameter {
                device: "rtt",
                parameter: "resonances",
                value: 0.0,
                requirement: "needs at least one resonant level",
            });
        }
        for r in &self.resonances {
            if !(r.amplitude > 0.0 && r.amplitude.is_finite()) {
                return Err(DeviceError::InvalidParameter {
                    device: "rtt",
                    parameter: "resonance.amplitude",
                    value: r.amplitude,
                    requirement: "must be positive",
                });
            }
            if !(r.width > 0.0 && r.width.is_finite()) {
                return Err(DeviceError::InvalidParameter {
                    device: "rtt",
                    parameter: "resonance.width",
                    value: r.width,
                    requirement: "must be positive",
                });
            }
        }
        if !(self.n1 > 0.0 && self.n1.is_finite()) {
            return Err(DeviceError::InvalidParameter {
                device: "rtt",
                parameter: "n1",
                value: self.n1,
                requirement: "must be positive",
            });
        }
        if !(self.vbe_slope > 0.0 && self.vbe_slope.is_finite()) {
            return Err(DeviceError::InvalidParameter {
                device: "rtt",
                parameter: "vbe_slope",
                value: self.vbe_slope,
                requirement: "must be positive",
            });
        }
        if !(self.temperature > 0.0) {
            return Err(DeviceError::InvalidParameter {
                device: "rtt",
                parameter: "temperature",
                value: self.temperature,
                requirement: "must be positive",
            });
        }
        Ok(())
    }
}

/// A resonant tunneling transistor evaluated at a fixed base-emitter bias.
///
/// The [`NonlinearTwoTerminal`] impl exposes the collector-emitter branch
/// `I_C(V_CE)` at the stored `V_BE`; engines set the gate bias through
/// [`Rtt::set_vbe`] when the base node voltage changes.
///
/// # Example
/// ```
/// use nanosim_devices::rtt::Rtt;
/// use nanosim_devices::traits::NonlinearTwoTerminal;
/// use nanosim_numeric::FlopCounter;
///
/// let rtt = Rtt::three_peak();
/// let mut flops = FlopCounter::new();
/// let peaks = rtt.peak_voltages();
/// assert!(peaks.len() >= 3, "multi-peak staircase (paper Figure 1(a))");
/// assert!(rtt.current(peaks[0], &mut flops) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rtt {
    params: RttParams,
    u: f64,
    vbe: f64,
}

impl Rtt {
    /// Creates an RTT from validated parameters, fully on (`V_BE` well above
    /// `vbe_on`).
    ///
    /// # Errors
    /// Returns [`DeviceError::InvalidParameter`] for out-of-range values.
    pub fn new(params: RttParams) -> Result<Self> {
        params.validate()?;
        let vbe = params.vbe_on + 10.0 * params.vbe_slope;
        Ok(Rtt {
            u: 1.0 / thermal_voltage(params.temperature),
            params,
            vbe,
        })
    }

    /// Three-peak default device (paper Figure 1(a) shape).
    pub fn three_peak() -> Self {
        Rtt::new(RttParams::three_peak()).expect("defaults valid")
    }

    /// The model parameters.
    pub fn params(&self) -> &RttParams {
        &self.params
    }

    /// Current base-emitter bias (V).
    pub fn vbe(&self) -> f64 {
        self.vbe
    }

    /// Sets the base-emitter bias used by subsequent collector evaluations.
    pub fn set_vbe(&mut self, vbe: f64) {
        self.vbe = vbe;
    }

    /// Gate modulation factor in `[0, 1]` at bias `vbe`.
    pub fn gate_factor(&self, vbe: f64) -> f64 {
        logistic((vbe - self.params.vbe_on) / self.params.vbe_slope)
    }

    /// Resonant component of the collector current at `vce` (before gate
    /// modulation).
    pub fn resonant_current(&self, vce: f64, flops: &mut FlopCounter) -> f64 {
        let p = &self.params;
        let mut total = 0.0;
        for r in &p.resonances {
            let arg_pos = self.u * (p.b - r.center + p.n1 * vce);
            let arg_neg = self.u * (p.b - r.center - p.n1 * vce);
            let log_ratio = ln_1p_exp(arg_pos) - ln_1p_exp(arg_neg);
            let bracket = FRAC_PI_2 + ((r.center - p.n1 * vce) / r.width).atan();
            total += r.amplitude * log_ratio * bracket;
            flops.func(3);
            flops.mul(9);
            flops.add(9);
            flops.div(1);
        }
        total
    }

    /// Approximate peak voltages of the collector I-V (grid scan of the
    /// differential conductance sign changes).
    pub fn peak_voltages(&self) -> Vec<f64> {
        let mut flops = FlopCounter::new();
        let v_max = 2.0
            * self
                .params
                .resonances
                .iter()
                .map(|r| r.center / self.params.n1)
                .fold(0.0f64, f64::max);
        let n = 3000;
        let dv = v_max / n as f64;
        let mut peaks = Vec::new();
        let mut prev = self.differential_conductance(dv * 0.5, &mut flops);
        for i in 1..n {
            let v = dv * (0.5 + i as f64);
            let cur = self.differential_conductance(v, &mut flops);
            if prev > 0.0 && cur <= 0.0 {
                peaks.push(v - 0.5 * dv);
            }
            prev = cur;
        }
        peaks
    }
}

impl NonlinearTwoTerminal for Rtt {
    fn current(&self, vce: f64, flops: &mut FlopCounter) -> f64 {
        let p = &self.params;
        let gate = self.gate_factor(self.vbe);
        flops.func(1);
        flops.mul(2);
        flops.add(2);
        let excess = p.h * ((self.u * p.n2 * vce).exp() - 1.0);
        flops.func(1);
        flops.mul(3);
        flops.add(1);
        gate * self.resonant_current(vce, flops) + excess
    }

    fn differential_conductance(&self, vce: f64, flops: &mut FlopCounter) -> f64 {
        // Analytic per-resonance derivative.
        let p = &self.params;
        let gate = self.gate_factor(self.vbe);
        let mut total = 0.0;
        for r in &p.resonances {
            let arg_pos = self.u * (p.b - r.center + p.n1 * vce);
            let arg_neg = self.u * (p.b - r.center - p.n1 * vce);
            let log_ratio = ln_1p_exp(arg_pos) - ln_1p_exp(arg_neg);
            let dlog = self.u * p.n1 * (logistic(arg_pos) + logistic(arg_neg));
            let x = (r.center - p.n1 * vce) / r.width;
            let bracket = FRAC_PI_2 + x.atan();
            let dbracket = -(p.n1 / r.width) / (1.0 + x * x);
            total += r.amplitude * (dlog * bracket + log_ratio * dbracket);
            flops.func(5);
            flops.mul(14);
            flops.add(11);
            flops.div(2);
        }
        let dexcess = p.h * self.u * p.n2 * (self.u * p.n2 * vce).exp();
        flops.func(2);
        flops.mul(6);
        flops.add(1);
        gate * total + dexcess
    }

    fn device_kind(&self) -> &'static str {
        "rtt"
    }

    /// The netlist card sets only `vbe`; the other parameters have no card
    /// key and are reported under their field names.
    fn for_each_param(&self, f: &mut dyn FnMut(&'static str, f64)) {
        let p = &self.params;
        f("vbe", self.vbe);
        f("b", p.b);
        f("n1", p.n1);
        f("h", p.h);
        f("n2", p.n2);
        f("temp", p.temperature);
        f("vbe_on", p.vbe_on);
        f("vbe_slope", p.vbe_slope);
        for r in &p.resonances {
            f("amplitude", r.amplitude);
            f("center", r.center);
            f("width", r.width);
        }
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
        let rtt = Rtt::three_peak();
        assert!(rtt.current(0.0, &mut flops()).abs() < 1e-18);
    }

    #[test]
    fn three_peaks_found() {
        let rtt = Rtt::three_peak();
        let peaks = rtt.peak_voltages();
        assert!(peaks.len() >= 3, "found {} peaks", peaks.len());
        // Peaks are ordered and distinct.
        for w in peaks.windows(2) {
            assert!(w[1] > w[0] + 0.1);
        }
    }

    #[test]
    fn staircase_has_ndr_between_peaks() {
        let rtt = Rtt::three_peak();
        let peaks = rtt.peak_voltages();
        let mid = 0.5 * (peaks[0] + peaks[1]);
        // Between peak 1 and peak 2 there is a valley: gd < 0 right after
        // peak 1 ...
        assert!(rtt.differential_conductance(peaks[0] + 0.05, &mut flops()) < 0.0);
        // ... but the SWEC conductance is positive there (key invariant).
        assert!(rtt.equivalent_conductance(peaks[0] + 0.05, &mut flops()) > 0.0);
        assert!(rtt.equivalent_conductance(mid, &mut flops()) > 0.0);
    }

    #[test]
    fn differential_conductance_matches_finite_difference() {
        let rtt = Rtt::three_peak();
        let h = 1e-7;
        for v in [0.5, 1.2, 2.0, 3.1, 4.4] {
            let num =
                (rtt.current(v + h, &mut flops()) - rtt.current(v - h, &mut flops())) / (2.0 * h);
            let ana = rtt.differential_conductance(v, &mut flops());
            assert!(approx_eq(num, ana, 1e-4), "v={v}: {num} vs {ana}");
        }
    }

    #[test]
    fn gate_turns_the_device_off() {
        let mut rtt = Rtt::three_peak();
        let peaks = rtt.peak_voltages();
        let v = peaks[0];
        let i_on = rtt.current(v, &mut flops());
        rtt.set_vbe(0.0);
        let i_off = rtt.current(v, &mut flops());
        assert!(
            i_off < i_on * 0.01,
            "gated off current {i_off} vs on {i_on}"
        );
        assert_eq!(rtt.vbe(), 0.0);
    }

    #[test]
    fn gate_factor_is_logistic() {
        let rtt = Rtt::three_peak();
        assert!(approx_eq(rtt.gate_factor(rtt.params().vbe_on), 0.5, 1e-12));
        assert!(rtt.gate_factor(5.0) > 0.99);
        assert!(rtt.gate_factor(-5.0) < 0.01);
    }

    #[test]
    fn geq_positive_across_sweep() {
        let rtt = Rtt::three_peak();
        let mut v = 0.05;
        while v < 6.0 {
            assert!(rtt.equivalent_conductance(v, &mut flops()) > 0.0, "v={v}");
            v += 0.05;
        }
    }

    #[test]
    fn empty_resonances_rejected() {
        let bad = RttParams {
            resonances: vec![],
            ..RttParams::three_peak()
        };
        assert!(Rtt::new(bad).is_err());
    }

    #[test]
    fn invalid_resonance_rejected() {
        let mut p = RttParams::three_peak();
        p.resonances[0].width = 0.0;
        assert!(Rtt::new(p).is_err());
        let mut p = RttParams::three_peak();
        p.resonances[1].amplitude = -1.0;
        assert!(Rtt::new(p).is_err());
    }

    #[test]
    fn flops_recorded() {
        let rtt = Rtt::three_peak();
        let mut f = flops();
        rtt.current(1.0, &mut f);
        assert!(f.funcs() >= 9, "3 resonances x 3 funcs plus excess");
    }
}
