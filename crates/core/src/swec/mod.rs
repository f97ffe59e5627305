//! The Step-Wise Equivalent Conductance engine — the paper's method.
//!
//! SWEC replaces every nonlinear device at each time point by the constant
//! conductance `Geq = I(V)/V` evaluated from the previous solution (§3.2).
//! Because a passive device's current has the sign of its voltage, `Geq` is
//! *positive even inside a negative-differential-resistance region*, so the
//! linear solves stay well conditioned and no Newton iteration is needed —
//! the paper's cure for the NDR problem. The submodules:
//!
//! * [`conductance`] — per-device `Geq` tracking with the first-order Taylor
//!   extrapolation of paper eq. (5).
//! * [`timestep`] — the adaptive time-step controller of paper eq. (10)–(12).
//! * [`transient`] — backward-Euler / trapezoidal integration of the linear
//!   time-varying system.
//! * [`dc`] — DC sweeps via damped `Geq` fixed-point iteration with source
//!   continuation (used for the paper's Figure 7 and Table I).

pub mod conductance;
pub mod dc;
pub mod timestep;
pub mod transient;

pub use conductance::GeqTracker;
pub use dc::SwecDcSweep;
pub use timestep::{TimeStepController, TimeStepOptions};
pub use transient::SwecTransient;

/// Time integration rule for the linear time-varying system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IntegrationMethod {
    /// First-order implicit (A-stable, damps numerical ringing) — the
    /// paper's choice.
    #[default]
    BackwardEuler,
    /// Second-order trapezoidal rule (less dissipative; ablation option).
    Trapezoidal,
}

/// How the DC sweep treats each point (paper §5.1 and Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DcMode {
    /// One linear solve per sweep point with `Geq` taken from the previous
    /// point's voltages — "SWEC is a non iterative method and thus yields
    /// high simulation speed" (the Table I configuration). Accuracy follows
    /// the sweep step, exactly like the quasi-transient the paper runs.
    #[default]
    NonIterative,
    /// Damped fixed-point iteration to full self-consistency at every
    /// point (refinement beyond the paper; costs a few solves per point).
    FixedPoint,
}

/// Which adaptive time-step scheme the transient engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StepControl {
    /// Accept/reject on the measured local error of paper eq. (10):
    /// `ε = |ΔV_actual - ΔV_estimated| / |ΔV_actual|`, with the estimate
    /// from linear extrapolation of the previous step. Self-scaling: grows
    /// the step in quiet regions, shrinks it at edges. Default.
    #[default]
    LocalError,
    /// The closed-form a-priori bounds of paper eq. (11)/(12):
    /// `h ≤ 3·ε·V/α` per device and `h ≤ ε·C_j/ΣG_jk` per node. Very
    /// conservative for stiff nodes (an ablation shows the step-count
    /// difference).
    PaperConstraints,
}

/// Options shared by the SWEC transient and DC engines.
///
/// Three settings are fixed rather than optional: the transient's largest
/// step is its print step `tstep`, the local-error test's absolute voltage
/// floor is the crate's `V_ABSTOL` (1 µV), and every device stamp adds the
/// crate's `GMIN` (1e-12 S).
#[derive(Debug, Clone, PartialEq)]
pub struct SwecOptions {
    /// Target local error `ε` of paper eq. (10); drives the adaptive step.
    pub epsilon: f64,
    /// Hard minimum time step (s); going below raises
    /// [`crate::SimError::StepSizeUnderflow`].
    pub h_min: f64,
    /// Enable the Geq Taylor extrapolation of paper eq. (5).
    pub taylor_extrapolation: bool,
    /// Integration rule.
    pub integration: IntegrationMethod,
    /// Adaptive step scheme.
    pub step_control: StepControl,
    /// Largest accepted per-step node-voltage change (V); larger changes
    /// reject the step and halve `h`.
    pub dv_max: f64,
    /// DC sweep mode (non-iterative per the paper, or fixed point).
    pub dc_mode: DcMode,
    /// DC fixed-point: convergence tolerance on node voltages (V).
    pub dc_tolerance: f64,
    /// DC fixed-point: iteration cap per sweep point.
    pub dc_max_iterations: usize,
    /// Convergence-rescue ladder configuration (see [`crate::rescue`]).
    /// The ladder only runs after a solve has already failed, so enabling
    /// it cannot change the results of a deck that converges directly.
    pub rescue: crate::rescue::RescueOptions,
    /// When `true`, a transient that dies of step-size underflow, or a
    /// DC sweep stopped by its budget, returns the accepted prefix (marked
    /// truncated) instead of an error. Off by default: partial data must
    /// be asked for explicitly.
    pub allow_partial: bool,
}

impl Default for SwecOptions {
    fn default() -> Self {
        SwecOptions {
            epsilon: 0.01,
            h_min: crate::assemble::H_MIN,
            taylor_extrapolation: true,
            integration: IntegrationMethod::BackwardEuler,
            step_control: StepControl::default(),
            dv_max: 0.5,
            dc_mode: DcMode::default(),
            dc_tolerance: 1e-9,
            dc_max_iterations: 400,
            rescue: crate::rescue::RescueOptions::default(),
            allow_partial: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = SwecOptions::default();
        assert!(o.epsilon > 0.0 && o.epsilon < 1.0);
        assert!(o.h_min < 1e-12);
        assert!(o.taylor_extrapolation);
        assert_eq!(o.integration, IntegrationMethod::BackwardEuler);
    }

    #[test]
    fn integration_method_default() {
        assert_eq!(
            IntegrationMethod::default(),
            IntegrationMethod::BackwardEuler
        );
    }
}
