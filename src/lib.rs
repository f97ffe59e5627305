//! # Nano-Sim
//!
//! A step-wise equivalent conductance (SWEC) based statistical circuit
//! simulator for nanotechnology devices — a from-scratch Rust reproduction
//! of *"Nano-Sim: A Step Wise Equivalent Conductance based Statistical
//! Simulator for Nanotechnology Circuit Design"* (Sukhwani, Padmanabhan,
//! Wang — DATE 2005).
//!
//! Nano-devices such as resonant tunneling diodes and carbon nanotubes have
//! *non-monotonic* I-V curves whose negative differential resistance (NDR)
//! breaks Newton–Raphson simulators. Nano-Sim's two ideas:
//!
//! 1. **SWEC** — replace each nonlinear device at every time point by the
//!    *positive* secant conductance `Geq = I(V)/V`, making each step one
//!    linear solve with no Newton iteration and no NDR failure;
//! 2. **Euler–Maruyama** — model uncertain inputs as Wiener processes and
//!    integrate the resulting stochastic state equation directly,
//!    predicting transient peaks instead of only averages.
//!
//! The public surface is the **session API**: open a
//! [`Simulator`](crate::core::sim::Simulator) on a circuit, run typed
//! [`Analysis`](crate::core::sim::Analysis) requests through it, and read
//! every result through the one [`Dataset`](crate::core::sim::Dataset)
//! model. Scale-out (chunked DC sweeps, parallel ensembles) is an
//! [`ExecPlan`](crate::core::sim::ExecPlan), not a different engine — and
//! sharded runs are bit-identical to serial runs of the same request.
//!
//! This facade crate re-exports the workspace and provides the
//! [`workloads`] used by the paper's experiments (RTD dividers, the FET-RTD
//! inverter of Figure 8, the RTD D-flip-flop of Figure 9, the noisy node of
//! Figure 10, and scalable RTD meshes for Table I).
//!
//! ## Quickstart
//!
//! ```
//! use nanosim::prelude::*;
//!
//! # fn main() -> Result<(), nanosim::core::SimError> {
//! // Sweep the paper's RTD divider (Figure 7(a)) and find the peak.
//! let circuit = nanosim::workloads::rtd_divider(50.0);
//! let mut sim = Simulator::new(circuit)?;
//! let sweep = sim.run(Analysis::dc_sweep("V1", 0.0, 5.0, 0.05))?;
//! let (v_peak, i_peak) = sweep.peak("I(X1)").expect("RTD has a peak");
//! assert!(v_peak > 2.0 && v_peak < 4.5);
//! assert!(i_peak > 1e-3);
//!
//! // Cut into 16-point chunks, the sweep can run on 4 workers, and every
//! // worker count gives the bits of the serial run of the same chunks.
//! let chunked = Analysis::dc_sweep("V1", 0.0, 5.0, 0.05).chunk_points(16);
//! let serial = sim.run(chunked.clone())?;
//! let sharded = sim.run(chunked.plan(ExecPlan::sharded(4)))?;
//! assert_eq!(serial.column("I(X1)"), sharded.column("I(X1)"));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub use nanosim_circuit as circuit;
pub use nanosim_core as core;
pub use nanosim_devices as devices;
pub use nanosim_numeric as numeric;
pub use nanosim_sde as sde;
pub use nanosim_serve as serve;

pub mod workloads;

/// Commonly used types, importable in one line.
pub mod prelude {
    pub use nanosim_circuit::{
        lint_circuit, lint_deck, Diagnostic, LintCode, LintReport, Severity,
    };
    pub use nanosim_circuit::{
        parse_netlist, write_netlist, AnalysisDirective, Circuit, CircuitBuilder, ParamValue,
        SubcktDef, SubcktLib,
    };
    pub use nanosim_circuit::{CircuitError, MnaSystem};
    pub use nanosim_core::analysis::{run_deck, run_deck_with};
    pub use nanosim_core::em::EmOptions;
    pub use nanosim_core::mla::MlaOptions;
    pub use nanosim_core::nr::{FailurePolicy, NrEngine, NrOptions};
    pub use nanosim_core::sim::{
        run_ensemble, Analysis, AnalysisKind, Axis, Dataset, ExecPlan, PreflightMode, SimOptions,
        Simulator,
    };
    pub use nanosim_core::swec::{DcMode, IntegrationMethod, SwecOptions};
    pub use nanosim_core::OrderingChoice;
    pub use nanosim_core::{Budget, BudgetStop, CancelToken, SimError};
    pub use nanosim_core::{EngineStats, Waveform};
    pub use nanosim_core::{HealthVerdict, RescueOptions, RescueRung, RescueTrace};
    pub use nanosim_devices::mosfet::{MosType, Mosfet, MosfetParams};
    pub use nanosim_devices::nanowire::{Nanowire, NanowireParams};
    pub use nanosim_devices::rtd::{Rtd, RtdParams, RtdRegion};
    pub use nanosim_devices::rtt::Rtt;
    pub use nanosim_devices::sources::{PulseParams, SinParams, SourceWaveform};
    pub use nanosim_devices::NonlinearTwoTerminal;
    pub use nanosim_numeric::fault::{Fault, FaultPlan};
    pub use nanosim_numeric::FlopCounter;

    // The engine types (`SwecDcSweep`, `SwecTransient`, `EmEngine`,
    // `MlaEngine`, `PwlEngine`) are not in the prelude. They live under
    // `nanosim::core::{swec, em, mla, pwl}` for engine-level comparisons
    // and failure forensics, and return the same `Dataset` as
    // `Simulator::run(Analysis::...)`, which new code should go through:
    // each engine call builds the circuit's `MnaSystem` anew, while a
    // session builds it once for all its analyses.
}
