//! Numerical substrate for the Nano-Sim circuit simulator.
//!
//! This crate provides every piece of numerics the simulator engines need,
//! implemented from scratch so that the floating-point operation accounting
//! used by the paper's Table I is exact and auditable:
//!
//! * [`dense`] — small dense matrices with LU factorization (reference
//!   solver and `C`-matrix factorization for the Euler–Maruyama engine).
//! * [`sparse`] — triplet (COO) assembly and compressed sparse row storage
//!   with a partial-pivoting sparse LU whose symbolic analysis is cached so
//!   the many nearly-identical solves of a transient run go through a
//!   values-only [`sparse::SparseLu::refactor`] instead of a full
//!   factorization.
//! * [`fault`] — a deterministic fault-injection harness ([`FaultPlan`])
//!   that schedules singular pivots, degraded pivots, conductance
//!   collapses, NaN poisons and deterministic stalls at exact solver
//!   calls, so every recovery path is testable on demand.
//! * [`budget`] — run budgets ([`Budget`]) and cooperative cancellation
//!   ([`CancelToken`]): deterministic checkpoints that bound any analysis
//!   in wall-clock, iterations, steps or result bytes.
//! * [`parallel`] — deterministic order-preserving scoped-thread map used
//!   by the Monte-Carlo ensemble engine (offline stand-in for rayon).
//! * [`solve`] — [`solve::SparseLuSolver`], the caching sparse solver the
//!   engines call (factor once, refactor per point, refine degraded
//!   pivots).
//! * [`rng`] — a deterministic PCG64-family pseudo random number generator
//!   plus Gaussian variates (the ziggurat), so stochastic experiments are
//!   reproducible without external dependencies.
//! * [`stats`] — running moments, histograms and percentile estimation for
//!   Monte-Carlo ensembles.
//! * [`flops`] — the floating-point operation counters behind the paper's
//!   Table I ("Comparison of DC simulations performance").
//! * [`interp`] — piecewise-linear functions used by source waveforms and
//!   the ACES-like PWL baseline engine.
//! * [`roots`] — scalar Newton–Raphson and bisection; the Newton iteration
//!   history reproduces the paper's Figure 2 (oscillation of NR on
//!   non-monotone curves depending on the initial guess).
//!
//! # Example
//!
//! Solving a small conductance system `G·v = i`:
//!
//! ```
//! use nanosim_numeric::sparse::TripletMatrix;
//! use nanosim_numeric::solve::SparseLuSolver;
//! use nanosim_numeric::flops::FlopCounter;
//!
//! # fn main() -> Result<(), nanosim_numeric::NumericError> {
//! let mut t = TripletMatrix::new(2, 2);
//! t.push(0, 0, 3.0);
//! t.push(0, 1, -1.0);
//! t.push(1, 0, -1.0);
//! t.push(1, 1, 2.0);
//! let mut solver = SparseLuSolver::new();
//! let mut flops = FlopCounter::new();
//! let x = solver.solve(&t.to_csr(), &[1.0, 0.0], &mut flops)?;
//! assert!((x[0] - 0.4).abs() < 1e-12);
//! assert!((x[1] - 0.2).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod budget;
pub mod dense;
pub mod error;
pub mod fault;
pub mod flops;
pub mod interp;
pub mod parallel;
pub mod rng;
pub mod roots;
pub mod solve;
pub mod sparse;
pub mod stats;

pub use budget::{Budget, BudgetMeter, BudgetStop, CancelToken};
pub use dense::DenseMatrix;
pub use error::NumericError;
pub use fault::FaultPlan;
pub use flops::FlopCounter;
pub use rng::Pcg64;
pub use sparse::{CsrMatrix, OrderingChoice, TripletMatrix};

/// Convenience alias used across the workspace for fallible numeric results.
pub type Result<T> = std::result::Result<T, NumericError>;

/// Relative/absolute comparison used throughout the test-suites.
///
/// Returns `true` when `a` and `b` agree to within `tol` either absolutely or
/// relative to the larger magnitude. `NaN` never compares close.
///
/// # Example
/// ```
/// assert!(nanosim_numeric::approx_eq(1.0, 1.0 + 1e-13, 1e-9));
/// assert!(!nanosim_numeric::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return false;
    }
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_window() {
        assert!(approx_eq(0.0, 1e-12, 1e-9));
        assert!(!approx_eq(0.0, 1e-6, 1e-9));
    }

    #[test]
    fn approx_eq_relative_window() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.1e12, 1e-9));
    }

    #[test]
    fn approx_eq_rejects_nan() {
        assert!(!approx_eq(f64::NAN, 0.0, 1.0));
        assert!(!approx_eq(0.0, f64::NAN, 1.0));
        assert!(!approx_eq(f64::NAN, f64::NAN, 1.0));
    }

    #[test]
    fn approx_eq_symmetric() {
        assert_eq!(approx_eq(3.0, 3.1, 0.05), approx_eq(3.1, 3.0, 0.05));
    }
}
