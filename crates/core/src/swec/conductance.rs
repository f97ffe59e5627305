//! Per-device equivalent conductances of the SWEC transient, held as a
//! property of the last accepted time point.
//!
//! Paper eq. (5) predicts the equivalent conductance a device presents
//! over the next step `h_n` as
//!
//! ```text
//! Geq(n+1) = Geq(n) + (h_n / 2) · G'eq(n)
//! ```
//!
//! where `G'eq = dGeq/dV · dV/dt` (eq. 7) with the analytic `dGeq/dV` of
//! eq. (8) and the backward difference `dV/dt = (V(t_n) - V(t_{n-1}))/h_{n-1}`
//! of eq. (9). Every term but `h_n` belongs to the accepted point `n`:
//! `Geq(n)`, `dGeq/dV(n)` and `dV/dt(n)` stay fixed while the step
//! controller tries step sizes from that point. The tracker therefore
//! evaluates each device model once per accepted point, before the first
//! attempt from it ([`GeqTracker::evaluate`]), and each attempt — rejected,
//! retried after a numeric fault, or accepted — redoes only the
//! `h`-dependent arithmetic ([`GeqTracker::predict`]). MOSFET stamps, which
//! are not extrapolated, are held the same way ([`GeqTracker::mosfet_geq`]).

use nanosim_circuit::mna::{MosfetBinding, NonlinearBinding};
use nanosim_numeric::FlopCounter;

/// History and accepted-point model values of one two-terminal device.
#[derive(Debug, Clone, Default)]
struct DeviceState {
    /// Voltage at the last accepted time point.
    v: f64,
    /// Voltage one accepted point earlier.
    v_prev: f64,
    /// Step size between those two points.
    h_prev: f64,
    /// `Geq(v)` at the last accepted point.
    geq: f64,
    /// `(dGeq/dV, dV/dt)` at the last accepted point, when the eq. 5
    /// extrapolation applies there.
    slope: Option<(f64, f64)>,
}

/// Bias and accepted-point conductance of one MOSFET.
#[derive(Debug, Clone, Default)]
struct MosfetState {
    vgs: f64,
    vds: f64,
    geq: f64,
}

/// Tracks the stamped conductance of every transient device: `Geq` with
/// its eq. 5 extrapolation for the nonlinear two-terminal devices, and the
/// channel `Geq` for the MOSFETs.
#[derive(Debug, Clone)]
pub struct GeqTracker {
    states: Vec<DeviceState>,
    mosfets: Vec<MosfetState>,
    taylor: bool,
    /// Whether the model values belong to the current accepted point.
    evaluated: bool,
}

impl GeqTracker {
    /// Creates a tracker for `n` two-terminal devices and `n_mosfets`
    /// MOSFETs with all voltages at zero.
    pub fn new(n: usize, n_mosfets: usize, taylor_extrapolation: bool) -> Self {
        GeqTracker {
            states: vec![DeviceState::default(); n],
            mosfets: vec![MosfetState::default(); n_mosfets],
            taylor: taylor_extrapolation,
            evaluated: false,
        }
    }

    /// Number of tracked two-terminal devices.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the tracker has no two-terminal devices.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Seeds the voltage history of device `i` (used after the DC operating
    /// point so the first transient step starts from consistent voltages).
    pub fn seed(&mut self, i: usize, v: f64) {
        let s = &mut self.states[i];
        s.v = v;
        s.v_prev = v;
        s.h_prev = 0.0;
        self.evaluated = false;
    }

    /// Records the accepted solution for device `i` after a step of size `h`.
    pub fn commit(&mut self, i: usize, v_new: f64, h: f64) {
        let s = &mut self.states[i];
        s.v_prev = s.v;
        s.v = v_new;
        s.h_prev = h;
        self.evaluated = false;
    }

    /// Sets MOSFET `k`'s accepted `(V_GS, V_DS)`, at the operating point or
    /// after an accepted step.
    pub fn set_mosfet_bias(&mut self, k: usize, vgs: f64, vds: f64) {
        let m = &mut self.mosfets[k];
        m.vgs = vgs;
        m.vds = vds;
        self.evaluated = false;
    }

    /// Evaluates every device model at the accepted point, unless that was
    /// already done since the point last moved: `Geq` for each device,
    /// with `dGeq/dV` and `dV/dt` where the eq. 5 extrapolation applies,
    /// and each MOSFET's channel `Geq`. Returns the number of model
    /// evaluations made (zero when the values were current).
    pub fn evaluate(
        &mut self,
        bindings: &[NonlinearBinding],
        mosfets: &[MosfetBinding],
        flops: &mut FlopCounter,
    ) -> u64 {
        if self.evaluated {
            return 0;
        }
        self.evaluated = true;
        for (s, b) in self.states.iter_mut().zip(bindings) {
            if self.taylor && s.h_prev > 0.0 {
                let (geq, dgeq_dv) = b.device.equivalent_conductance_and_slope(s.v, flops);
                // dV/dt by backward difference (eq. 9).
                let dv_dt = (s.v - s.v_prev) / s.h_prev;
                flops.add(1);
                flops.div(1);
                s.geq = geq;
                s.slope = Some((dgeq_dv, dv_dt));
            } else {
                s.geq = b.device.equivalent_conductance_and_current(s.v, flops).0;
                s.slope = None;
            }
        }
        for (m, b) in self.mosfets.iter_mut().zip(mosfets) {
            m.geq = b.model.geq(m.vgs, m.vds, flops);
        }
        (self.states.len() + self.mosfets.len()) as u64
    }

    /// Predicted equivalent conductance of device `i` for a step of size
    /// `h` ahead of the last accepted point (paper eq. 5–9), from the
    /// values [`GeqTracker::evaluate`] holds for that point.
    pub fn predict(&self, i: usize, h: f64, flops: &mut FlopCounter) -> f64 {
        debug_assert!(self.evaluated, "predict before evaluate");
        let s = &self.states[i];
        let Some((dgeq_dv, dv_dt)) = s.slope else {
            return s.geq.max(0.0);
        };
        // Geq + (h/2) · G'eq with G'eq = dGeq/dV · dV/dt (eq. 5, 7).
        flops.mul(3);
        flops.add(1);
        let predicted = s.geq + 0.5 * h * dgeq_dv * dv_dt;
        // The prediction must stay a *positive* conductance — that is the
        // whole point of SWEC; clamp at a fraction of the unextrapolated
        // value rather than zero to avoid manufacturing an open circuit.
        if predicted > 0.0 {
            predicted
        } else {
            s.geq.max(0.0) * 0.5
        }
    }

    /// Channel `Geq` of MOSFET `k` at the accepted point, as held by
    /// [`GeqTracker::evaluate`].
    pub fn mosfet_geq(&self, k: usize) -> f64 {
        debug_assert!(self.evaluated, "mosfet_geq before evaluate");
        self.mosfets[k].geq
    }

    /// Accepted `(V_GS, V_DS)` of MOSFET `k`.
    pub fn mosfet_bias(&self, k: usize) -> (f64, f64) {
        let m = &self.mosfets[k];
        (m.vgs, m.vds)
    }

    /// Last accepted voltage of device `i`.
    pub fn voltage(&self, i: usize) -> f64 {
        self.states[i].v
    }

    /// Estimated voltage slew of device `i` from its history (V/s); zero
    /// before two points are recorded. Feeds the adaptive step controller.
    pub fn slew(&self, i: usize) -> f64 {
        let s = &self.states[i];
        if s.h_prev > 0.0 {
            (s.v - s.v_prev) / s.h_prev
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanosim_circuit::Circuit;
    use nanosim_circuit::MnaSystem;
    use nanosim_devices::mosfet::Mosfet;
    use nanosim_devices::rtd::Rtd;
    use nanosim_devices::sources::SourceWaveform;

    fn rtd_binding() -> NonlinearBinding {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        let b = ckt.node("b");
        ckt.add_resistor("R1", a, b, 50.0).unwrap();
        ckt.add_rtd("X1", b, Circuit::GROUND, Rtd::date2005())
            .unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        mna.nonlinear_bindings()[0].clone()
    }

    #[test]
    fn without_history_prediction_is_plain_geq() {
        let b = rtd_binding();
        let mut tracker = GeqTracker::new(1, 0, true);
        tracker.seed(0, 2.0);
        let mut f = FlopCounter::new();
        let geq = b.device.equivalent_conductance(2.0, &mut f);
        tracker.evaluate(std::slice::from_ref(&b), &[], &mut f);
        let pred = tracker.predict(0, 1e-12, &mut f);
        assert!((pred - geq).abs() < 1e-15);
    }

    #[test]
    fn taylor_prediction_tracks_rising_voltage() {
        let b = rtd_binding();
        let mut tracker = GeqTracker::new(1, 0, true);
        let mut f = FlopCounter::new();
        // Voltage ramping up at 1 V/ns in the PDR1 region (Geq rising? at
        // small bias Geq falls slowly; check against direct evaluation at
        // the extrapolated voltage instead).
        tracker.commit(0, 1.0, 1e-9);
        tracker.commit(0, 1.1, 1e-9);
        let h = 1e-9;
        tracker.evaluate(std::slice::from_ref(&b), &[], &mut f);
        let pred = tracker.predict(0, h, &mut f);
        let geq_now = b.device.equivalent_conductance(1.1, &mut f);
        let geq_ahead = b.device.equivalent_conductance(1.15, &mut f);
        // Prediction moves from Geq(now) toward Geq at the half-step-ahead
        // voltage.
        let toward = (pred - geq_now) * (geq_ahead - geq_now);
        assert!(toward >= 0.0, "prediction moves the right way");
        assert!((pred - geq_ahead).abs() <= (geq_now - geq_ahead).abs() + 1e-9);
    }

    #[test]
    fn prediction_never_goes_negative() {
        let b = rtd_binding();
        let mut tracker = GeqTracker::new(1, 0, true);
        // Huge downward slew in the NDR region tries to push Geq negative.
        tracker.commit(0, 4.5, 1e-12);
        tracker.commit(0, 3.5, 1e-12);
        let mut f = FlopCounter::new();
        tracker.evaluate(std::slice::from_ref(&b), &[], &mut f);
        let pred = tracker.predict(0, 1e-9, &mut f);
        assert!(
            pred > 0.0,
            "SWEC conductance must stay positive, got {pred}"
        );
    }

    #[test]
    fn disabled_taylor_ignores_history() {
        let b = rtd_binding();
        let mut tracker = GeqTracker::new(1, 0, false);
        tracker.commit(0, 1.0, 1e-9);
        tracker.commit(0, 2.0, 1e-9);
        let mut f = FlopCounter::new();
        tracker.evaluate(std::slice::from_ref(&b), &[], &mut f);
        let pred = tracker.predict(0, 1e-9, &mut f);
        let geq = b.device.equivalent_conductance(2.0, &mut f);
        assert!((pred - geq).abs() < 1e-15);
    }

    #[test]
    fn models_are_evaluated_once_per_accepted_point() {
        let b = rtd_binding();
        let bindings = std::slice::from_ref(&b);
        let mut tracker = GeqTracker::new(1, 0, true);
        tracker.commit(0, 1.0, 1e-9);
        tracker.commit(0, 1.1, 1e-9);
        let mut f = FlopCounter::new();
        assert_eq!(tracker.evaluate(bindings, &[], &mut f), 1);
        let model_flops = f;
        // Later attempts from the same point: no model call, only eq. 5.
        assert_eq!(tracker.evaluate(bindings, &[], &mut f), 0);
        assert_eq!(f, model_flops);
        let first = tracker.predict(0, 1e-9, &mut f);
        let retry = tracker.predict(0, 1e-9, &mut f);
        assert_eq!(first.to_bits(), retry.to_bits());
        assert_eq!(f.total() - model_flops.total(), 2 * 4);
        // A commit moves the point, so the next attempt evaluates again.
        tracker.commit(0, 1.2, 1e-9);
        assert_eq!(tracker.evaluate(bindings, &[], &mut f), 1);
    }

    #[test]
    fn mosfet_geq_is_held_at_the_accepted_bias() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add_mosfet("M1", d, g, Circuit::GROUND, Mosfet::nmos())
            .unwrap();
        ckt.add_resistor("R1", d, Circuit::GROUND, 1e3).unwrap();
        ckt.add_resistor("R2", g, Circuit::GROUND, 1e3).unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        let m = &mna.mosfet_bindings()[0];
        let mut tracker = GeqTracker::new(0, 1, true);
        tracker.set_mosfet_bias(0, 2.0, 0.5);
        assert_eq!(tracker.mosfet_bias(0), (2.0, 0.5));
        let mut f = FlopCounter::new();
        assert_eq!(tracker.evaluate(&[], mna.mosfet_bindings(), &mut f), 1);
        let direct = m.model.geq(2.0, 0.5, &mut FlopCounter::new());
        assert_eq!(tracker.mosfet_geq(0).to_bits(), direct.to_bits());
        assert_eq!(tracker.evaluate(&[], mna.mosfet_bindings(), &mut f), 0);
    }

    #[test]
    fn slew_and_voltage_track_commits() {
        let mut tracker = GeqTracker::new(2, 0, true);
        assert_eq!(tracker.len(), 2);
        assert!(!tracker.is_empty());
        assert_eq!(tracker.slew(0), 0.0);
        tracker.commit(0, 1.0, 1e-9);
        tracker.commit(0, 2.0, 1e-9);
        assert_eq!(tracker.voltage(0), 2.0);
        assert!((tracker.slew(0) - 1e9).abs() < 1.0);
        // Device 1 untouched.
        assert_eq!(tracker.voltage(1), 0.0);
    }

    #[test]
    fn seed_resets_history() {
        let mut tracker = GeqTracker::new(1, 0, true);
        tracker.commit(0, 1.0, 1e-9);
        tracker.commit(0, 2.0, 1e-9);
        tracker.seed(0, 0.7);
        assert_eq!(tracker.voltage(0), 0.7);
        assert_eq!(tracker.slew(0), 0.0);
    }
}
