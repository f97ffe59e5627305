//! Quantum wire / carbon nanotube model with conductance quantization.
//!
//! The paper's Figure 1(b) shows the I-V characteristics of an individual
//! carbon nanotube: "the staircase characteristics of the conductance signal
//! confirms that the carbon nanotubes behave as quantum wires". Each 1D
//! subband that enters the transport window contributes one conductance
//! quantum `G0 = 2e²/h`; thermal smearing rounds the step edges.
//!
//! The model integrates the smeared conductance staircase analytically so
//! current and conductance are exactly consistent:
//!
//! ```text
//! I(V) = G0·n0·V + G0·w·Σ_k [ softplus((V - Vk)/w) - softplus((-V - Vk)/w) ]
//! G(V) = dI/dV = G0·n0 + G0·Σ_k [ σ((V - Vk)/w) + σ((-V - Vk)/w) ]
//! ```
//!
//! with `Vk = k·ΔV` the subband onsets, `σ` the logistic function, and `n0`
//! the number of channels already open at zero bias (2 for a metallic CNT's
//! two degenerate bands, but configurable).

use crate::constants::{ln_1p_exp, logistic, QUANTUM_CONDUCTANCE};
use crate::error::DeviceError;
use crate::traits::NonlinearTwoTerminal;
use crate::Result;
use nanosim_numeric::FlopCounter;

/// Parameters of the quantum-wire staircase model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NanowireParams {
    /// Conductance per channel (S). Defaults to `G0 = 2e²/h`.
    pub g_quantum: f64,
    /// Channels open at zero bias.
    pub base_channels: u32,
    /// Voltage spacing between successive subband onsets (V).
    pub step_voltage: f64,
    /// Number of additional subbands within the modeled range.
    pub num_steps: u32,
    /// Thermal smearing width of each step edge (V).
    pub smearing: f64,
}

impl NanowireParams {
    /// A metallic single-wall CNT: two base channels, subband steps every
    /// 0.5 V, 4 further subbands, 25 mV smearing — matches the shape of the
    /// paper's Figure 1(b).
    pub fn metallic_cnt() -> Self {
        NanowireParams {
            g_quantum: QUANTUM_CONDUCTANCE,
            base_channels: 2,
            step_voltage: 0.5,
            num_steps: 4,
            smearing: 0.025,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    /// Returns [`DeviceError::InvalidParameter`] for non-positive
    /// `g_quantum`, `step_voltage` or `smearing`.
    pub fn validate(&self) -> Result<()> {
        let check = |name: &'static str, value: f64, ok: bool| {
            if ok && value.is_finite() {
                Ok(())
            } else {
                Err(DeviceError::InvalidParameter {
                    device: "nanowire",
                    parameter: name,
                    value,
                    requirement: "must be positive",
                })
            }
        };
        check("g_quantum", self.g_quantum, self.g_quantum > 0.0)?;
        check("step_voltage", self.step_voltage, self.step_voltage > 0.0)?;
        check("smearing", self.smearing, self.smearing > 0.0)
    }
}

impl Default for NanowireParams {
    fn default() -> Self {
        NanowireParams::metallic_cnt()
    }
}

/// A quantum wire / CNT two-terminal device.
///
/// # Example
/// ```
/// use nanosim_devices::nanowire::Nanowire;
/// use nanosim_devices::traits::NonlinearTwoTerminal;
/// use nanosim_numeric::FlopCounter;
///
/// let wire = Nanowire::metallic_cnt();
/// let mut flops = FlopCounter::new();
/// // Conductance climbs by ~one quantum per subband onset.
/// let g_low = wire.differential_conductance(0.1, &mut flops);
/// let g_high = wire.differential_conductance(2.3, &mut flops);
/// assert!(g_high > g_low * 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Nanowire {
    params: NanowireParams,
}

impl Nanowire {
    /// Creates a nanowire from validated parameters.
    ///
    /// # Errors
    /// Returns [`DeviceError::InvalidParameter`] for out-of-range values.
    pub fn new(params: NanowireParams) -> Result<Self> {
        params.validate()?;
        Ok(Nanowire { params })
    }

    /// Metallic CNT defaults (paper Figure 1(b) shape).
    pub fn metallic_cnt() -> Self {
        Nanowire::new(NanowireParams::metallic_cnt()).expect("defaults are valid")
    }

    /// The model parameters.
    pub fn params(&self) -> &NanowireParams {
        &self.params
    }

    /// Number of (smeared) channels conducting at bias `v`.
    pub fn open_channels(&self, v: f64) -> f64 {
        let p = &self.params;
        let mut n = p.base_channels as f64;
        for k in 1..=p.num_steps {
            let vk = k as f64 * p.step_voltage;
            n += logistic((v - vk) / p.smearing) + logistic((-v - vk) / p.smearing);
        }
        n
    }
}

impl NonlinearTwoTerminal for Nanowire {
    fn current(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        let p = &self.params;
        let mut i = p.base_channels as f64 * v;
        flops.mul(1);
        for k in 1..=p.num_steps {
            let vk = k as f64 * p.step_voltage;
            // Odd-in-V integral of one smeared step pair.
            i +=
                p.smearing * (ln_1p_exp((v - vk) / p.smearing) - ln_1p_exp((-v - vk) / p.smearing));
            flops.func(2);
            flops.mul(2);
            flops.div(2);
            flops.add(4);
        }
        flops.mul(1);
        p.g_quantum * i
    }

    fn differential_conductance(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        let p = &self.params;
        flops.func(2 * p.num_steps as u64);
        flops.mul(p.num_steps as u64 * 2 + 1);
        flops.add(p.num_steps as u64 * 3);
        p.g_quantum * self.open_channels(v)
    }

    fn device_kind(&self) -> &'static str {
        "nanowire"
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&'static str, f64)) {
        let p = &self.params;
        f("g0", p.g_quantum);
        f("base", f64::from(p.base_channels));
        f("step", p.step_voltage);
        f("steps", f64::from(p.num_steps));
        f("smear", p.smearing);
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
        let w = Nanowire::metallic_cnt();
        assert!(w.current(0.0, &mut flops()).abs() < 1e-18);
    }

    #[test]
    fn current_is_odd() {
        let w = Nanowire::metallic_cnt();
        for v in [0.2, 0.75, 1.3, 2.4] {
            let ip = w.current(v, &mut flops());
            let im = w.current(-v, &mut flops());
            assert!(approx_eq(ip, -im, 1e-12), "v={v}");
        }
    }

    #[test]
    fn conductance_is_staircase() {
        let w = Nanowire::metallic_cnt();
        let g0 = QUANTUM_CONDUCTANCE;
        // Plateau levels halfway between onsets: 2, 3, 4, 5 channels.
        for (v, channels) in [(0.25, 2.0), (0.75, 3.0), (1.25, 4.0), (1.75, 5.0)] {
            let g = w.differential_conductance(v, &mut flops());
            assert!(
                approx_eq(g, channels * g0, 1e-3),
                "v={v}: g={g}, expected {} G0",
                channels
            );
        }
    }

    #[test]
    fn conductance_monotone_nondecreasing_in_magnitude() {
        let w = Nanowire::metallic_cnt();
        let mut prev = 0.0;
        let mut v = 0.0;
        while v < 3.0 {
            let g = w.differential_conductance(v, &mut flops());
            assert!(g >= prev - 1e-9, "staircase dipped at v={v}");
            prev = g;
            v += 0.01;
        }
    }

    #[test]
    fn no_ndr_anywhere() {
        // Unlike the RTD, the quantum wire is monotone: gd >= 0 everywhere.
        let w = Nanowire::metallic_cnt();
        let mut v = -3.0;
        while v <= 3.0 {
            assert!(w.differential_conductance(v, &mut flops()) > 0.0);
            v += 0.05;
        }
    }

    #[test]
    fn geq_positive_and_below_gmax() {
        let w = Nanowire::metallic_cnt();
        let p = w.params();
        let gmax = p.g_quantum * (p.base_channels + p.num_steps) as f64 * 2.0;
        let mut v = -3.0;
        while v <= 3.0 {
            let g = w.equivalent_conductance(v, &mut flops());
            assert!(g > 0.0 && g < gmax, "v={v}, g={g}");
            v += 0.1;
        }
    }

    #[test]
    fn conductance_matches_current_derivative() {
        let w = Nanowire::metallic_cnt();
        let h = 1e-6;
        for v in [0.1, 0.5, 1.0, 1.9, 2.6] {
            let num = (w.current(v + h, &mut flops()) - w.current(v - h, &mut flops())) / (2.0 * h);
            let ana = w.differential_conductance(v, &mut flops());
            assert!(approx_eq(num, ana, 1e-5), "v={v}: {num} vs {ana}");
        }
    }

    #[test]
    fn open_channels_counts_base_at_zero() {
        let w = Nanowire::metallic_cnt();
        assert!(approx_eq(w.open_channels(0.0), 2.0, 1e-6));
    }

    #[test]
    fn invalid_params_rejected() {
        let bad = NanowireParams {
            smearing: 0.0,
            ..NanowireParams::metallic_cnt()
        };
        assert!(Nanowire::new(bad).is_err());
        let bad = NanowireParams {
            step_voltage: -1.0,
            ..NanowireParams::metallic_cnt()
        };
        assert!(Nanowire::new(bad).is_err());
        let bad = NanowireParams {
            g_quantum: f64::INFINITY,
            ..NanowireParams::metallic_cnt()
        };
        assert!(Nanowire::new(bad).is_err());
    }

    #[test]
    fn flops_recorded() {
        let w = Nanowire::metallic_cnt();
        let mut f = flops();
        w.current(1.0, &mut f);
        assert!(f.funcs() >= 8, "2 softplus per step");
    }
}
