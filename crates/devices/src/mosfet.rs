//! Level-1 (square-law) MOSFET model.
//!
//! The paper's eq. (2) gives the classic long-channel drain current and
//! eq. (3) its step-wise equivalent conductance `G(t) = I_DS/V_DS`:
//!
//! ```text
//! triode     (V_DS <= V_GS - V_th):  I = k·W/L·((V_GS - V_th)·V_DS - V_DS²/2)
//! saturation (V_DS >  V_GS - V_th):  I = k·W/L·(V_GS - V_th)²/2
//! cutoff     (V_GS <= V_th):         I = 0
//! ```
//!
//! The MOSFET is a three-terminal device; in the SWEC engine its channel is
//! stamped as the equivalent conductance between drain and source evaluated
//! at the *previous* time point's `(V_GS, V_DS)`, exactly as the paper does
//! for the FET of the FET-RTD inverter.

use crate::error::DeviceError;
use crate::Result;
use nanosim_numeric::FlopCounter;

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosType {
    /// N-channel: conducts for `V_GS > V_th`, positive drain current.
    Nmos,
    /// P-channel: mirror-image polarity.
    Pmos,
}

/// Operating region of the square-law model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosRegion {
    /// `|V_GS| <= |V_th|`: channel off.
    Cutoff,
    /// `|V_DS| < |V_GS - V_th|`: resistive region.
    Triode,
    /// `|V_DS| >= |V_GS - V_th|`: current-source region.
    Saturation,
}

/// Level-1 MOSFET parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetParams {
    /// Polarity.
    pub mos_type: MosType,
    /// Transconductance parameter `k` (A/V²) — `µ·C_ox`.
    pub k: f64,
    /// Effective channel width (m, or any unit consistent with `l`).
    pub w: f64,
    /// Effective channel length.
    pub l: f64,
    /// Threshold voltage (V); positive for NMOS, negative for PMOS.
    pub vth: f64,
    /// Channel-length modulation (1/V); zero for the paper's ideal model.
    pub lambda: f64,
}

impl MosfetParams {
    /// A generic n-channel device: `k = 100 µA/V², W/L = 10, V_th = 1 V`.
    pub fn nmos_default() -> Self {
        MosfetParams {
            mos_type: MosType::Nmos,
            k: 1e-4,
            w: 10.0,
            l: 1.0,
            vth: 1.0,
            lambda: 0.0,
        }
    }

    /// A generic p-channel device (`V_th = -1 V`, lower mobility).
    pub fn pmos_default() -> Self {
        MosfetParams {
            mos_type: MosType::Pmos,
            k: 4e-5,
            w: 20.0,
            l: 1.0,
            vth: -1.0,
            lambda: 0.0,
        }
    }

    /// Validates the parameter ranges.
    ///
    /// # Errors
    /// Returns [`DeviceError::InvalidParameter`] when `k`, `w` or `l` are
    /// not positive, `lambda` is negative, or the threshold sign disagrees
    /// with the polarity.
    pub fn validate(&self) -> Result<()> {
        let check = |name: &'static str, value: f64, ok: bool, req: &'static str| {
            if ok && value.is_finite() {
                Ok(())
            } else {
                Err(DeviceError::InvalidParameter {
                    device: "mosfet",
                    parameter: name,
                    value,
                    requirement: req,
                })
            }
        };
        check("k", self.k, self.k > 0.0, "must be positive")?;
        check("w", self.w, self.w > 0.0, "must be positive")?;
        check("l", self.l, self.l > 0.0, "must be positive")?;
        check(
            "lambda",
            self.lambda,
            self.lambda >= 0.0,
            "must be non-negative",
        )?;
        match self.mos_type {
            MosType::Nmos => check("vth", self.vth, self.vth >= 0.0, "NMOS needs vth >= 0"),
            MosType::Pmos => check("vth", self.vth, self.vth <= 0.0, "PMOS needs vth <= 0"),
        }
    }
}

/// A level-1 MOSFET.
///
/// # Example
/// ```
/// use nanosim_devices::mosfet::{Mosfet, MosfetParams, MosRegion};
/// use nanosim_numeric::FlopCounter;
///
/// # fn main() -> Result<(), nanosim_devices::DeviceError> {
/// let fet = Mosfet::new(MosfetParams::nmos_default())?;
/// let mut flops = FlopCounter::new();
/// assert_eq!(fet.region(3.0, 0.5), MosRegion::Triode);
/// assert!(fet.ids(3.0, 0.5, &mut flops) > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mosfet {
    params: MosfetParams,
    /// Precomputed `k·W/L`.
    beta: f64,
}

impl Mosfet {
    /// Creates a MOSFET from validated parameters.
    ///
    /// # Errors
    /// Returns [`DeviceError::InvalidParameter`] for out-of-range values.
    pub fn new(params: MosfetParams) -> Result<Self> {
        params.validate()?;
        Ok(Mosfet {
            beta: params.k * params.w / params.l,
            params,
        })
    }

    /// Generic NMOS device.
    pub fn nmos() -> Self {
        Mosfet::new(MosfetParams::nmos_default()).expect("defaults valid")
    }

    /// Generic PMOS device.
    pub fn pmos() -> Self {
        Mosfet::new(MosfetParams::pmos_default()).expect("defaults valid")
    }

    /// The model parameters.
    pub fn params(&self) -> &MosfetParams {
        &self.params
    }

    /// `k·W/L` in A/V².
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Maps terminal voltages to the NMOS-normalized frame: PMOS devices are
    /// computed as mirrored NMOS and the current negated on the way out.
    fn normalize(&self, vgs: f64, vds: f64) -> (f64, f64, f64, f64) {
        match self.params.mos_type {
            MosType::Nmos => (vgs, vds, self.params.vth, 1.0),
            MosType::Pmos => (-vgs, -vds, -self.params.vth, -1.0),
        }
    }

    /// Operating region for the given terminal voltages.
    pub fn region(&self, vgs: f64, vds: f64) -> MosRegion {
        let (vgs, vds, vth, _) = self.normalize(vgs, vds);
        let vov = vgs - vth;
        if vov <= 0.0 {
            MosRegion::Cutoff
        } else if vds < vov {
            MosRegion::Triode
        } else {
            MosRegion::Saturation
        }
    }

    /// Drain current `I_DS(V_GS, V_DS)` per paper eq. (2).
    ///
    /// Negative `V_DS` (for NMOS) is handled by source/drain symmetry:
    /// `I(vgs, vds) = -I(vgs - vds, -vds)`.
    pub fn ids(&self, vgs: f64, vds: f64, flops: &mut FlopCounter) -> f64 {
        let (nvgs, nvds, vth, sign) = self.normalize(vgs, vds);
        sign * self.ids_normalized(nvgs, nvds, vth, flops)
    }

    fn ids_normalized(&self, vgs: f64, vds: f64, vth: f64, flops: &mut FlopCounter) -> f64 {
        if vds < 0.0 {
            // Source/drain swap for reverse conduction.
            flops.add(2);
            return -self.ids_normalized(vgs - vds, -vds, vth, flops);
        }
        let vov = vgs - vth;
        flops.add(1);
        if vov <= 0.0 {
            return 0.0;
        }
        let lambda_term = 1.0 + self.params.lambda * vds;
        flops.mul(1);
        flops.add(1);
        if vds < vov {
            flops.mul(4);
            flops.add(2);
            self.beta * (vov * vds - 0.5 * vds * vds) * lambda_term
        } else {
            flops.mul(3);
            self.beta * 0.5 * vov * vov * lambda_term
        }
    }

    /// Step-wise equivalent channel conductance `Geq = I_DS/V_DS`
    /// (paper eq. 3):
    ///
    /// ```text
    /// triode:     Geq = k·W/L·(V_GS - V_th - V_DS/2)
    /// saturation: Geq = k·W/L·(V_GS - V_th)²/(2·V_DS)
    /// cutoff:     Geq = 0
    /// ```
    pub fn geq(&self, vgs: f64, vds: f64, flops: &mut FlopCounter) -> f64 {
        self.geq_and_ids(vgs, vds, flops).0
    }

    /// [`Mosfet::geq`] together with the drain current it was formed from,
    /// bit for bit [`Mosfet::ids`], or `None` in the `V_DS -> 0` limit,
    /// which needs no current.
    pub fn geq_and_ids(&self, vgs: f64, vds: f64, flops: &mut FlopCounter) -> (f64, Option<f64>) {
        let (nvgs, nvds, vth, sign) = self.normalize(vgs, vds);
        if nvds.abs() < 1e-12 {
            // Channel conductance limit at vds -> 0: beta * vov in triode.
            let vov = nvgs - vth;
            flops.add(1);
            flops.mul(1);
            return (if vov > 0.0 { self.beta * vov } else { 0.0 }, None);
        }
        let i = self.ids_normalized(nvgs, nvds, vth, flops);
        flops.div(1);
        (i / nvds, Some(sign * i))
    }

    /// Small-signal output conductance `dI_DS/dV_DS` — the quantity SPICE
    /// stamps. Zero in saturation when `lambda = 0`.
    pub fn gds(&self, vgs: f64, vds: f64, flops: &mut FlopCounter) -> f64 {
        let h = 1e-7;
        flops.add(1);
        flops.div(1);
        (self.ids(vgs, vds + h, flops) - self.ids(vgs, vds - h, flops)) / (2.0 * h)
    }

    /// Small-signal transconductance `dI_DS/dV_GS`.
    pub fn gm(&self, vgs: f64, vds: f64, flops: &mut FlopCounter) -> f64 {
        let h = 1e-7;
        flops.add(1);
        flops.div(1);
        (self.ids(vgs + h, vds, flops) - self.ids(vgs - h, vds, flops)) / (2.0 * h)
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
    fn cutoff_region_zero_current() {
        let fet = Mosfet::nmos();
        assert_eq!(fet.region(0.5, 2.0), MosRegion::Cutoff);
        assert_eq!(fet.ids(0.5, 2.0, &mut flops()), 0.0);
        assert_eq!(fet.geq(0.5, 2.0, &mut flops()), 0.0);
    }

    #[test]
    fn triode_current_matches_formula() {
        let fet = Mosfet::nmos();
        let (vgs, vds) = (3.0, 0.5);
        assert_eq!(fet.region(vgs, vds), MosRegion::Triode);
        let expected = 1e-3 * ((vgs - 1.0) * vds - 0.5 * vds * vds);
        assert!(approx_eq(fet.ids(vgs, vds, &mut flops()), expected, 1e-12));
    }

    #[test]
    fn saturation_current_matches_formula() {
        let fet = Mosfet::nmos();
        let (vgs, vds) = (2.0, 3.0);
        assert_eq!(fet.region(vgs, vds), MosRegion::Saturation);
        let expected = 1e-3 * 0.5 * (vgs - 1.0) * (vgs - 1.0);
        assert!(approx_eq(fet.ids(vgs, vds, &mut flops()), expected, 1e-12));
    }

    #[test]
    fn geq_matches_paper_eq3_triode() {
        let fet = Mosfet::nmos();
        let (vgs, vds) = (3.0, 0.5);
        let expected = 1e-3 * (vgs - 1.0 - vds / 2.0);
        assert!(approx_eq(fet.geq(vgs, vds, &mut flops()), expected, 1e-12));
    }

    #[test]
    fn geq_matches_paper_eq3_saturation() {
        let fet = Mosfet::nmos();
        let (vgs, vds) = (2.0, 3.0);
        let expected = 1e-3 * (vgs - 1.0f64).powi(2) / (2.0 * vds);
        assert!(approx_eq(fet.geq(vgs, vds, &mut flops()), expected, 1e-12));
    }

    #[test]
    fn geq_is_current_over_voltage() {
        let fet = Mosfet::nmos();
        for (vgs, vds) in [(2.0, 0.3), (3.0, 1.5), (4.0, 4.0)] {
            let i = fet.ids(vgs, vds, &mut flops());
            let g = fet.geq(vgs, vds, &mut flops());
            assert!(approx_eq(g, i / vds, 1e-12), "vgs={vgs} vds={vds}");
        }
    }

    #[test]
    fn geq_keeps_ids_bit_for_bit() {
        // Both polarities, every region, both signs of V_DS: the current
        // kept beside `Geq` is `ids`, except in the `V_DS -> 0` limit.
        for fet in [Mosfet::nmos(), Mosfet::pmos()] {
            for vgs in [-3.0, -0.5, 0.0, 1.2, 2.5, 4.0] {
                for vds in [-2.0, -0.1, -1e-13, 0.0, 1e-13, 0.3, 1.5, 4.0] {
                    let (geq, ids) = fet.geq_and_ids(vgs, vds, &mut flops());
                    assert_eq!(geq.to_bits(), fet.geq(vgs, vds, &mut flops()).to_bits());
                    match ids {
                        Some(i) => assert_eq!(
                            i.to_bits(),
                            fet.ids(vgs, vds, &mut flops()).to_bits(),
                            "vgs={vgs} vds={vds}"
                        ),
                        None => assert!(vds.abs() < 1e-12, "vgs={vgs} vds={vds}"),
                    }
                }
            }
        }
    }

    #[test]
    fn current_continuous_at_triode_saturation_boundary() {
        let fet = Mosfet::nmos();
        let vgs = 2.5;
        let vov = vgs - 1.0;
        let below = fet.ids(vgs, vov - 1e-9, &mut flops());
        let above = fet.ids(vgs, vov + 1e-9, &mut flops());
        assert!(approx_eq(below, above, 1e-6));
    }

    #[test]
    fn reverse_conduction_antisymmetric() {
        let fet = Mosfet::nmos();
        // I(vgs, -vds) = -I(vgs + vds, vds) by source/drain swap.
        let i_rev = fet.ids(3.0, -0.5, &mut flops());
        let i_fwd = fet.ids(3.5, 0.5, &mut flops());
        assert!(approx_eq(i_rev, -i_fwd, 1e-12));
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let n = Mosfet::nmos();
        let p = Mosfet::new(MosfetParams {
            mos_type: MosType::Pmos,
            k: 1e-4,
            w: 10.0,
            l: 1.0,
            vth: -1.0,
            lambda: 0.0,
        })
        .unwrap();
        let i_n = n.ids(3.0, 2.0, &mut flops());
        let i_p = p.ids(-3.0, -2.0, &mut flops());
        assert!(approx_eq(i_p, -i_n, 1e-12));
        assert_eq!(p.region(-3.0, -2.0), n.region(3.0, 2.0));
        // Geq is positive for both polarities (I and V flip together).
        assert!(p.geq(-3.0, -2.0, &mut flops()) > 0.0);
    }

    #[test]
    fn gds_zero_in_ideal_saturation_positive_in_triode() {
        let fet = Mosfet::nmos();
        assert!(fet.gds(2.0, 3.0, &mut flops()).abs() < 1e-9);
        assert!(fet.gds(3.0, 0.5, &mut flops()) > 0.0);
    }

    #[test]
    fn lambda_gives_finite_output_conductance() {
        let fet = Mosfet::new(MosfetParams {
            lambda: 0.05,
            ..MosfetParams::nmos_default()
        })
        .unwrap();
        let g = fet.gds(2.0, 3.0, &mut flops());
        let expected = 1e-3 * 0.5 * 1.0 * 0.05; // beta/2 * vov^2 * lambda
        assert!(approx_eq(g, expected, 1e-6));
    }

    #[test]
    fn gm_positive_when_on() {
        let fet = Mosfet::nmos();
        assert!(fet.gm(2.0, 3.0, &mut flops()) > 0.0);
        assert_eq!(fet.gm(0.2, 3.0, &mut flops()), 0.0);
    }

    #[test]
    fn geq_at_zero_vds_is_channel_conductance() {
        let fet = Mosfet::nmos();
        let g = fet.geq(3.0, 0.0, &mut flops());
        assert!(approx_eq(g, 1e-3 * 2.0, 1e-12));
        assert_eq!(fet.geq(0.5, 0.0, &mut flops()), 0.0);
    }

    #[test]
    fn invalid_params_rejected() {
        let bad = MosfetParams {
            k: 0.0,
            ..MosfetParams::nmos_default()
        };
        assert!(Mosfet::new(bad).is_err());
        let bad = MosfetParams {
            vth: -0.5,
            ..MosfetParams::nmos_default()
        };
        assert!(Mosfet::new(bad).is_err(), "NMOS with negative vth");
        let bad = MosfetParams {
            lambda: -0.1,
            ..MosfetParams::nmos_default()
        };
        assert!(Mosfet::new(bad).is_err());
        let bad = MosfetParams {
            vth: 1.0,
            ..MosfetParams::pmos_default()
        };
        assert!(Mosfet::new(bad).is_err(), "PMOS with positive vth");
    }

    #[test]
    fn flops_recorded() {
        let fet = Mosfet::nmos();
        let mut f = flops();
        fet.ids(3.0, 0.5, &mut f);
        assert!(f.total() > 0);
    }
}
