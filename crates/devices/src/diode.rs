//! Shockley diode model.
//!
//! Not a nano-device, but every SPICE-class simulator carries one; it is
//! used here for parser coverage, Newton-baseline tests (a monotone device
//! NR handles easily, in contrast to the RTD) and hybrid workloads.

use crate::constants::{thermal_voltage, ROOM_TEMPERATURE};
use crate::error::DeviceError;
use crate::traits::NonlinearTwoTerminal;
use crate::Result;
use nanosim_numeric::FlopCounter;

/// Shockley diode parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodeParams {
    /// Saturation current `I_S` (A).
    pub saturation_current: f64,
    /// Ideality factor `n`.
    pub ideality: f64,
    /// Temperature (K).
    pub temperature: f64,
}

impl DiodeParams {
    /// Small-signal silicon diode: `I_S = 1e-14 A`, `n = 1`, 300 K.
    pub fn silicon() -> Self {
        DiodeParams {
            saturation_current: 1e-14,
            ideality: 1.0,
            temperature: ROOM_TEMPERATURE,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    /// Returns [`DeviceError::InvalidParameter`] for non-positive
    /// `saturation_current`, `ideality` or `temperature`.
    pub fn validate(&self) -> Result<()> {
        let check = |name: &'static str, value: f64, ok: bool| {
            if ok && value.is_finite() {
                Ok(())
            } else {
                Err(DeviceError::InvalidParameter {
                    device: "diode",
                    parameter: name,
                    value,
                    requirement: "must be positive",
                })
            }
        };
        check(
            "saturation_current",
            self.saturation_current,
            self.saturation_current > 0.0,
        )?;
        check("ideality", self.ideality, self.ideality > 0.0)?;
        check("temperature", self.temperature, self.temperature > 0.0)
    }
}

impl Default for DiodeParams {
    fn default() -> Self {
        DiodeParams::silicon()
    }
}

/// A Shockley diode: `I = I_S·(e^{V/(n·V_T)} - 1)`.
///
/// The exponential is linearized above `v_explode` (40 thermal voltages) to
/// keep Newton iterations finite — the standard SPICE "junction limiting".
///
/// # Example
/// ```
/// use nanosim_devices::diode::Diode;
/// use nanosim_devices::traits::NonlinearTwoTerminal;
/// use nanosim_numeric::FlopCounter;
///
/// let d = Diode::silicon();
/// let mut flops = FlopCounter::new();
/// assert!(d.current(0.7, &mut flops) > 1e-4);
/// assert!(d.current(-0.7, &mut flops) < 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Diode {
    params: DiodeParams,
    n_vt: f64,
    v_explode: f64,
}

impl Diode {
    /// Creates a diode from validated parameters.
    ///
    /// # Errors
    /// Returns [`DeviceError::InvalidParameter`] for out-of-range values.
    pub fn new(params: DiodeParams) -> Result<Self> {
        params.validate()?;
        let n_vt = params.ideality * thermal_voltage(params.temperature);
        Ok(Diode {
            params,
            n_vt,
            v_explode: 40.0 * n_vt,
        })
    }

    /// Silicon defaults.
    pub fn silicon() -> Self {
        Diode::new(DiodeParams::silicon()).expect("defaults valid")
    }

    /// The model parameters.
    pub fn params(&self) -> &DiodeParams {
        &self.params
    }

    /// `n·V_T` in volts.
    pub fn n_vt(&self) -> f64 {
        self.n_vt
    }
}

impl NonlinearTwoTerminal for Diode {
    fn current(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        let is = self.params.saturation_current;
        flops.div(1);
        flops.func(1);
        flops.add(1);
        flops.mul(1);
        if v <= self.v_explode {
            is * ((v / self.n_vt).exp() - 1.0)
        } else {
            // Linear continuation beyond the explosion voltage.
            let ie = is * ((self.v_explode / self.n_vt).exp() - 1.0);
            let ge = is / self.n_vt * (self.v_explode / self.n_vt).exp();
            flops.fma(1);
            ie + ge * (v - self.v_explode)
        }
    }

    fn differential_conductance(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        let is = self.params.saturation_current;
        flops.div(2);
        flops.func(1);
        flops.mul(1);
        let v_eff = v.min(self.v_explode);
        is / self.n_vt * (v_eff / self.n_vt).exp()
    }

    fn device_kind(&self) -> &'static str {
        "diode"
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&'static str, f64)) {
        let p = &self.params;
        f("is", p.saturation_current);
        f("n", p.ideality);
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
        let d = Diode::silicon();
        assert_eq!(d.current(0.0, &mut flops()), 0.0);
    }

    #[test]
    fn reverse_bias_saturates() {
        let d = Diode::silicon();
        let i = d.current(-5.0, &mut flops());
        assert!(approx_eq(i, -1e-14, 1e-6));
    }

    #[test]
    fn forward_bias_exponential() {
        let d = Diode::silicon();
        let i1 = d.current(0.6, &mut flops());
        let i2 = d.current(0.66, &mut flops());
        // 60 mV/decade at n=1, 300K: one decade of current.
        assert!(i2 / i1 > 8.0 && i2 / i1 < 12.0, "ratio {}", i2 / i1);
    }

    #[test]
    fn conductance_matches_finite_difference() {
        let d = Diode::silicon();
        let h = 1e-8;
        for v in [-1.0, 0.0, 0.3, 0.6] {
            let num = (d.current(v + h, &mut flops()) - d.current(v - h, &mut flops())) / (2.0 * h);
            let ana = d.differential_conductance(v, &mut flops());
            assert!(approx_eq(num, ana, 1e-4), "v={v}: {num} vs {ana}");
        }
    }

    #[test]
    fn current_continuous_at_explosion_voltage() {
        let d = Diode::silicon();
        let ve = 40.0 * d.n_vt();
        let below = d.current(ve - 1e-9, &mut flops());
        let above = d.current(ve + 1e-9, &mut flops());
        assert!(approx_eq(below, above, 1e-6));
        // No overflow far beyond.
        assert!(d.current(1000.0, &mut flops()).is_finite());
    }

    #[test]
    fn geq_positive_everywhere() {
        let d = Diode::silicon();
        for v in [-3.0, -0.5, 0.3, 0.7, 1.0] {
            assert!(d.equivalent_conductance(v, &mut flops()) > 0.0, "v={v}");
        }
    }

    #[test]
    fn monotone_no_ndr() {
        let d = Diode::silicon();
        let mut v = -2.0;
        while v < 1.0 {
            assert!(d.differential_conductance(v, &mut flops()) > 0.0);
            v += 0.05;
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let bad = DiodeParams {
            saturation_current: 0.0,
            ..DiodeParams::silicon()
        };
        assert!(Diode::new(bad).is_err());
        let bad = DiodeParams {
            ideality: -1.0,
            ..DiodeParams::silicon()
        };
        assert!(Diode::new(bad).is_err());
    }
}
