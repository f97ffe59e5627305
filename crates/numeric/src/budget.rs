//! Run budgets and cooperative cancellation.
//!
//! Long-running analyses (sharded DC sweeps, stiff transients, Monte-Carlo
//! ensembles) need a way to be *bounded* — in wall-clock, in iterations, in
//! steps, in result size — and a way to be *stopped* from outside without
//! killing the process. This module provides both halves:
//!
//! * [`Budget`] — a declarative, [`Copy`]able set of optional limits. A
//!   default budget is unlimited and costs one branch per checkpoint.
//! * [`CancelToken`] — a cheap cooperative cancellation flag
//!   (`Arc<AtomicBool>`); cloning shares the flag, [`CancelToken::cancel`]
//!   trips every holder at its next checkpoint.
//! * [`BudgetMeter`] — the runtime companion the engines actually carry: it
//!   owns the local spend counters and answers `Err(BudgetStop)` at the
//!   deterministic checkpoints placed in every long-running loop.
//!
//! # Determinism contract
//!
//! The iteration/step/byte limits are accounted in *deterministic units*
//! (Newton iterations, accepted transient steps, result samples) against
//! counters local to one serial unit of work — [`BudgetMeter::fork`] starts
//! a sweep chunk or ensemble chunk from zero, so the accounting is a pure
//! function of the chunk index and never of thread scheduling. A run killed
//! by a unit budget therefore fails at the *same checkpoint with the same
//! [`BudgetStop`] at every worker count*, exactly like the fault-injection
//! plans in [`crate::fault`]. The wall-clock deadline and the cancel token
//! are inherently asynchronous; their [`BudgetStop`] payloads carry no
//! clock values, so a token cancelled *before* a run starts still produces
//! a bit-identical error everywhere.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Declarative resource limits of one analysis run. All limits are optional;
/// the default budget is unlimited. `Copy`, so it embeds freely in option
/// structs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock ceiling measured from the creation of the
    /// [`BudgetMeter`]. Checked at every checkpoint; a `Duration::ZERO`
    /// deadline trips deterministically at the first one.
    pub deadline: Option<Duration>,
    /// Cap on nonlinear (Newton / fixed-point) iterations per solve — one
    /// operating point, one sweep point, or one transient step. Engines
    /// fork the meter at each solve so the accounting is a pure function of
    /// the solve's position in the analysis.
    pub max_newton_iterations: Option<u64>,
    /// Cap on accepted transient time steps (per transient run).
    pub max_transient_steps: Option<u64>,
    /// Cap on the approximate size of the produced dataset in bytes.
    pub max_result_bytes: Option<u64>,
}

impl Budget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the per-unit Newton/fixed-point iteration cap.
    #[must_use]
    pub fn with_max_newton_iterations(mut self, limit: u64) -> Self {
        self.max_newton_iterations = Some(limit);
        self
    }

    /// Sets the accepted-transient-step cap.
    #[must_use]
    pub fn with_max_transient_steps(mut self, limit: u64) -> Self {
        self.max_transient_steps = Some(limit);
        self
    }

    /// Sets the result-size cap in bytes.
    #[must_use]
    pub fn with_max_result_bytes(mut self, limit: u64) -> Self {
        self.max_result_bytes = Some(limit);
        self
    }

    /// `true` when no limit is set (every checkpoint reduces to one cancel
    /// check).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_newton_iterations.is_none()
            && self.max_transient_steps.is_none()
            && self.max_result_bytes.is_none()
    }
}

/// Cooperative cancellation flag. Cloning shares the flag; every holder
/// observes [`CancelToken::cancel`] at its next checkpoint. One relaxed
/// atomic load per check — cheap enough for per-iteration placement.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token. Idempotent; there is no un-cancel.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a budgeted run was stopped. Deliberately free of wall-clock values
/// so the same stop compares equal wherever and whenever it is observed —
/// the payload of `SimError::BudgetExceeded` upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetStop {
    /// The run's [`CancelToken`] was tripped.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The per-unit Newton/fixed-point iteration cap was hit.
    NewtonIterations {
        /// The configured cap.
        limit: u64,
    },
    /// The accepted-transient-step cap was hit.
    TransientSteps {
        /// The configured cap.
        limit: u64,
    },
    /// The projected or accumulated result size exceeded the byte cap.
    ResultBytes {
        /// The configured cap.
        limit: u64,
    },
}

impl fmt::Display for BudgetStop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetStop::Cancelled => f.write_str("cancelled"),
            BudgetStop::DeadlineExceeded => f.write_str("deadline exceeded"),
            BudgetStop::NewtonIterations { limit } => {
                write!(f, "newton-iteration budget exhausted (limit {limit})")
            }
            BudgetStop::TransientSteps { limit } => {
                write!(f, "transient-step budget exhausted (limit {limit})")
            }
            BudgetStop::ResultBytes { limit } => {
                write!(f, "result-byte budget exhausted (limit {limit})")
            }
        }
    }
}

/// The runtime half of a [`Budget`]: local spend counters plus the shared
/// [`CancelToken`] and deadline clock. Engines carry one meter per serial
/// unit of work and call the `tick_*`/`checkpoint` methods at the
/// deterministic checkpoints (see the module docs).
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    budget: Budget,
    token: CancelToken,
    start: Instant,
    iterations: u64,
    steps: u64,
    bytes: u64,
}

impl Default for BudgetMeter {
    fn default() -> Self {
        BudgetMeter::unlimited()
    }
}

impl BudgetMeter {
    /// A meter over `budget`, cancellable through `token`. The deadline
    /// clock starts now.
    pub fn new(budget: Budget, token: CancelToken) -> Self {
        BudgetMeter {
            budget,
            token,
            start: Instant::now(),
            iterations: 0,
            steps: 0,
            bytes: 0,
        }
    }

    /// An unlimited meter with a private token — the zero-cost default
    /// engines fall back to when no budget is threaded in.
    pub fn unlimited() -> Self {
        BudgetMeter::new(Budget::unlimited(), CancelToken::new())
    }

    /// Starts a fresh serial unit of work: same budget, same token, same
    /// deadline clock, *zeroed local counters*. Sweep and ensemble chunks
    /// fork so their iteration accounting is a function of the chunk alone,
    /// never of how chunks were scheduled onto workers.
    #[must_use]
    pub fn fork(&self) -> Self {
        BudgetMeter {
            budget: self.budget,
            token: self.token.clone(),
            start: self.start,
            iterations: 0,
            steps: 0,
            bytes: 0,
        }
    }

    /// The configured limits.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The shared cancellation token.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// The pure cancel + deadline check every checkpoint performs.
    ///
    /// # Errors
    /// [`BudgetStop::Cancelled`] once the token trips;
    /// [`BudgetStop::DeadlineExceeded`] once the wall-clock deadline passes.
    pub fn checkpoint(&self) -> Result<(), BudgetStop> {
        if self.token.is_cancelled() {
            return Err(BudgetStop::Cancelled);
        }
        if let Some(deadline) = self.budget.deadline {
            if self.start.elapsed() >= deadline {
                return Err(BudgetStop::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Charges one nonlinear iteration against the per-unit cap, then runs
    /// the [`BudgetMeter::checkpoint`] checks.
    ///
    /// # Errors
    /// [`BudgetStop::NewtonIterations`] past the cap, plus everything
    /// [`BudgetMeter::checkpoint`] raises.
    pub fn tick_iteration(&mut self) -> Result<(), BudgetStop> {
        self.iterations += 1;
        if let Some(limit) = self.budget.max_newton_iterations {
            if self.iterations > limit {
                return Err(BudgetStop::NewtonIterations { limit });
            }
        }
        self.checkpoint()
    }

    /// Charges one accepted transient step, then runs the checkpoint
    /// checks.
    ///
    /// # Errors
    /// [`BudgetStop::TransientSteps`] past the cap, plus everything
    /// [`BudgetMeter::checkpoint`] raises.
    pub fn tick_step(&mut self) -> Result<(), BudgetStop> {
        self.steps += 1;
        if let Some(limit) = self.budget.max_transient_steps {
            if self.steps > limit {
                return Err(BudgetStop::TransientSteps { limit });
            }
        }
        self.checkpoint()
    }

    /// Charges `bytes` of produced result data against the byte cap. Also
    /// used up front with the full projected size of analyses whose result
    /// shape is known before any work runs (sweeps, ensembles).
    ///
    /// # Errors
    /// [`BudgetStop::ResultBytes`] once the accumulated charge passes the
    /// cap.
    pub fn charge_bytes(&mut self, bytes: u64) -> Result<(), BudgetStop> {
        self.bytes = self.bytes.saturating_add(bytes);
        if let Some(limit) = self.budget.max_result_bytes {
            if self.bytes > limit {
                return Err(BudgetStop::ResultBytes { limit });
            }
        }
        Ok(())
    }

    /// Nonlinear iterations charged to this unit so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Accepted transient steps charged so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Result bytes charged so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = Budget::default();
        assert!(b.is_unlimited());
        assert!(!b.with_max_newton_iterations(5).is_unlimited());
        assert!(!Budget::unlimited()
            .with_deadline(Duration::from_millis(1))
            .is_unlimited());
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn inert_meter_never_stops() {
        let mut m = BudgetMeter::unlimited();
        for _ in 0..1000 {
            m.tick_iteration().unwrap();
            m.tick_step().unwrap();
            m.charge_bytes(1 << 20).unwrap();
        }
        m.checkpoint().unwrap();
    }

    #[test]
    fn iteration_budget_trips_past_the_limit() {
        let mut m = BudgetMeter::new(
            Budget::unlimited().with_max_newton_iterations(3),
            CancelToken::new(),
        );
        for _ in 0..3 {
            m.tick_iteration().unwrap();
        }
        assert_eq!(
            m.tick_iteration(),
            Err(BudgetStop::NewtonIterations { limit: 3 })
        );
        assert_eq!(m.iterations(), 4);
    }

    #[test]
    fn step_and_byte_budgets_trip() {
        let mut m = BudgetMeter::new(
            Budget::unlimited()
                .with_max_transient_steps(2)
                .with_max_result_bytes(100),
            CancelToken::new(),
        );
        m.tick_step().unwrap();
        m.tick_step().unwrap();
        assert_eq!(m.tick_step(), Err(BudgetStop::TransientSteps { limit: 2 }));
        m.charge_bytes(100).unwrap();
        assert_eq!(
            m.charge_bytes(1),
            Err(BudgetStop::ResultBytes { limit: 100 })
        );
    }

    #[test]
    fn cancellation_beats_every_other_check() {
        let token = CancelToken::new();
        let mut m = BudgetMeter::new(
            Budget::unlimited().with_max_newton_iterations(1000),
            token.clone(),
        );
        m.tick_iteration().unwrap();
        token.cancel();
        assert_eq!(m.checkpoint(), Err(BudgetStop::Cancelled));
        assert_eq!(m.tick_iteration(), Err(BudgetStop::Cancelled));
    }

    #[test]
    fn zero_deadline_trips_at_first_checkpoint() {
        let m = BudgetMeter::new(
            Budget::unlimited().with_deadline(Duration::ZERO),
            CancelToken::new(),
        );
        assert_eq!(m.checkpoint(), Err(BudgetStop::DeadlineExceeded));
    }

    #[test]
    fn fork_resets_local_spend_but_shares_token_and_clock() {
        let token = CancelToken::new();
        let mut m = BudgetMeter::new(
            Budget::unlimited().with_max_newton_iterations(2),
            token.clone(),
        );
        m.tick_iteration().unwrap();
        m.tick_iteration().unwrap();
        assert!(m.tick_iteration().is_err());
        let mut chunk = m.fork();
        assert_eq!(chunk.iterations(), 0);
        chunk.tick_iteration().unwrap();
        token.cancel();
        assert_eq!(chunk.tick_iteration(), Err(BudgetStop::Cancelled));
    }

    #[test]
    fn stop_reasons_display() {
        assert_eq!(BudgetStop::Cancelled.to_string(), "cancelled");
        assert!(BudgetStop::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(BudgetStop::NewtonIterations { limit: 7 }
            .to_string()
            .contains('7'));
        assert!(BudgetStop::TransientSteps { limit: 9 }
            .to_string()
            .contains('9'));
        assert!(BudgetStop::ResultBytes { limit: 11 }
            .to_string()
            .contains("11"));
    }
}
