//! The Nano-Sim simulation engines — the paper's contribution.
//!
//! Four engines share the `nanosim-circuit` MNA substrate and the
//! `nanosim-devices` models, so they are compared on equal footing exactly
//! as in the paper:
//!
//! * [`swec`] — the paper's method. **S**tep-**W**ise **E**quivalent
//!   **C**onductance: every nonlinear device is replaced at each time point
//!   by the positive secant conductance `Geq = I(V)/V` (optionally Taylor-
//!   extrapolated, paper eq. 5), turning the circuit into a linear
//!   time-varying system solved with one sparse LU per step — no Newton
//!   iterations, no NDR failures. Includes the adaptive time-step control
//!   of paper eq. 10–12 and a DC sweep built on damped Geq fixed-point
//!   iteration with source continuation.
//! * [`nr`] — the SPICE-like baseline: full Newton–Raphson with
//!   differential-conductance companion models, optional damping, gmin and
//!   source stepping. On NDR devices it oscillates or falsely converges —
//!   reproducing Figure 8(c).
//! * [`mla`] — the Modified Limiting Algorithm baseline after Bhattacharya &
//!   Mazumder (paper ref. \[1\]): Newton–Raphson augmented with RTD voltage
//!   limiting, source stepping and automatic step reduction. Converges, but
//!   at many iterations per point — the paper's Table I comparison.
//! * [`pwl`] — an ACES-like piecewise-linear engine (paper ref. \[2\]):
//!   devices are tabulated into PWL segments whose *differential* segment
//!   conductance is stamped non-iteratively; in the NDR region that
//!   conductance is negative (Figure 3's contrast with SWEC).
//! * [`em`] — the stochastic engine of §4: the nodal SDE
//!   `C·dx = (b - G·x)·dt + B·dW` integrated with Euler–Maruyama over
//!   Wiener-process inputs, with ensemble statistics and peak prediction
//!   (Figure 10).
//!
//! Every engine returns its result as one [`Dataset`]: named signals over
//! a time or sweep axis, with [`report::EngineStats`] carrying the FLOP
//! counts behind the paper's Table I.
//!
//! # Example
//!
//! ```
//! use nanosim_circuit::Circuit;
//! use nanosim_core::swec::{SwecDcSweep, SwecOptions};
//! use nanosim_devices::rtd::Rtd;
//! use nanosim_devices::sources::SourceWaveform;
//!
//! # fn main() -> Result<(), nanosim_core::SimError> {
//! // The paper's Figure 7(a): RTD + 50 ohm divider swept 0..2.5 V.
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let mid = ckt.node("mid");
//! ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(0.0))?;
//! ckt.add_resistor("R1", vin, mid, 50.0)?;
//! ckt.add_rtd("X1", mid, Circuit::GROUND, Rtd::date2005())?;
//! let sweep = SwecDcSweep::new(SwecOptions::default())
//!     .run(&ckt, "V1", 0.0, 2.5, 0.1)?;
//! assert_eq!(sweep.points(), 26);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod analysis;
pub(crate) mod assemble;
pub mod em;
pub mod error;
pub mod mla;
pub mod nr;
pub mod pwl;
pub mod report;
pub mod rescue;
pub mod sim;
pub mod swec;
pub mod waveform;

pub use error::SimError;
pub use nanosim_numeric::sparse::OrderingChoice;
pub use nanosim_numeric::{Budget, BudgetMeter, BudgetStop, CancelToken, FaultPlan};
pub use report::{EngineStats, HealthVerdict};
pub use rescue::{RescueOptions, RescueRung, RescueTrace};
pub use sim::{Analysis, AnalysisKind, Dataset, ExecPlan, PreflightMode, SimOptions, Simulator};
pub use waveform::Waveform;

/// Convenience alias for fallible simulation results.
pub type Result<T> = std::result::Result<T, SimError>;
