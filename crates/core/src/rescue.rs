//! The convergence-rescue ladder.
//!
//! When an operating-point or sweep-point solve fails — Newton oscillation,
//! fixed-point stagnation, or a singular/collapsed pivot — the engines do
//! not give up immediately. They climb a deterministic ladder of
//! progressively heavier continuation strategies, in a fixed order so two
//! runs of the same deck always attempt the same rungs:
//!
//! 1. [`RescueRung::DampedRetry`] — re-run the failed solve from a cold
//!    start with heavy iterate damping. Cheap; rescues mild oscillation.
//! 2. [`RescueRung::GminStep`] — gmin-stepping homotopy: solve with a
//!    large shunt conductance from every node to ground (which makes the
//!    Jacobian diagonally dominant), then relax the shunt decade by decade
//!    re-seeding each solve from the last.
//! 3. [`RescueRung::SourceStep`] — source-stepping: ramp every independent
//!    source from zero (where the zero solution is exact) up to full value
//!    in small increments, warm-starting each solve.
//! 4. [`RescueRung::PseudoTransient`] — pseudo-transient continuation:
//!    treat the DC problem as the steady state of an artificial transient
//!    and let the physical damping of the integration find the attractor.
//!
//! Both engines climb the ladder through one driver, `climb`, which owns
//! the rung order, the continuation schedules, the budget gate between
//! rungs and the bookkeeping. Each engine supplies only a closure that runs
//! one solve and classifies its result as converged, a failed rung, or an
//! abort: SWEC fails the rung on any error but a budget stop, Newton on any
//! non-converged outcome.
//!
//! Every attempt is recorded in a [`RescueTrace`], which travels inside the
//! [`crate::error::Forensics`] payload of a terminal failure and feeds the
//! `rescues` / `rescue_rungs` counters of [`crate::EngineStats`]. The
//! ladder is *inactive* on healthy decks: it only runs after a failure
//! that would otherwise have been returned to the caller, so enabling it
//! cannot change the results of a deck that already converges.

use crate::error::Forensics;
use crate::report::EngineStats;
use crate::{Result, SimError};
use nanosim_numeric::BudgetMeter;
use std::fmt;

/// One strategy of the convergence-rescue ladder, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RescueRung {
    /// Cold-start retry with heavy iterate damping.
    DampedRetry,
    /// Gmin-stepping homotopy (shunt conductance relaxed to zero).
    GminStep,
    /// Source-stepping (independent sources ramped from zero).
    SourceStep,
    /// Pseudo-transient continuation toward the DC attractor.
    PseudoTransient,
}

impl RescueRung {
    /// The full ladder, in the order the engines climb it.
    pub const LADDER: [RescueRung; 4] = [
        RescueRung::DampedRetry,
        RescueRung::GminStep,
        RescueRung::SourceStep,
        RescueRung::PseudoTransient,
    ];
}

impl fmt::Display for RescueRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RescueRung::DampedRetry => "damped-retry",
            RescueRung::GminStep => "gmin-step",
            RescueRung::SourceStep => "source-step",
            RescueRung::PseudoTransient => "pseudo-transient",
        })
    }
}

/// The outcome of attempting one rung during a rescue.
#[derive(Debug, Clone, PartialEq)]
pub struct RescueEvent {
    /// Which rung was attempted.
    pub rung: RescueRung,
    /// Whether this rung produced a converged solution.
    pub succeeded: bool,
    /// Short human-readable note (steps taken, last error, ...).
    pub detail: String,
}

/// Ordered record of every rung attempted while rescuing one failed solve.
///
/// An empty trace means the ladder never ran (the healthy path).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RescueTrace {
    events: Vec<RescueEvent>,
}

impl RescueTrace {
    /// An empty trace.
    pub fn new() -> Self {
        RescueTrace::default()
    }

    /// Appends one rung attempt.
    pub fn record(&mut self, rung: RescueRung, succeeded: bool, detail: impl Into<String>) {
        self.events.push(RescueEvent {
            rung,
            succeeded,
            detail: detail.into(),
        });
    }

    /// The recorded attempts, in order.
    pub fn events(&self) -> &[RescueEvent] {
        &self.events
    }

    /// Number of rungs attempted.
    pub fn rungs(&self) -> usize {
        self.events.len()
    }

    /// `true` when no rung was ever attempted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// `true` when the rescue ended in a converged solution (i.e. the last
    /// attempted rung succeeded).
    pub fn succeeded(&self) -> bool {
        self.events.last().is_some_and(|e| e.succeeded)
    }
}

impl fmt::Display for RescueTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return f.write_str("no rescue attempted");
        }
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(
                f,
                "{} ({}{})",
                e.rung,
                if e.succeeded { "ok" } else { "failed" },
                if e.detail.is_empty() {
                    String::new()
                } else {
                    format!(": {}", e.detail)
                }
            )?;
        }
        Ok(())
    }
}

/// Starting shunt conductance (S) of the gmin-stepping rung.
const GMIN_START: f64 = 1e-2;

/// Decades over which the gmin-stepping rung relaxes its shunt.
const GMIN_STEPS: usize = 8;

/// Increments of the source-stepping rung's ramp.
const SOURCE_STEPS: usize = 25;

/// Artificial time steps of the pseudo-transient rung.
const PTRAN_STEPS: usize = 40;

/// Switches for the rescue ladder.
///
/// The rung schedules are fixed: gmin stepping relaxes a 1e-2 S shunt over
/// 8 decades (`GMIN_START`, `GMIN_STEPS`), source stepping ramps in 25
/// increments (`SOURCE_STEPS`), and the pseudo-transient rung takes 40
/// steps (`PTRAN_STEPS`).
#[derive(Debug, Clone, PartialEq)]
pub struct RescueOptions {
    /// Master switch. When `false` a failed solve returns its original
    /// error untouched.
    pub enabled: bool,
    /// Iterate damping factor used by the damped-retry rung (0 < d ≤ 1;
    /// smaller is heavier damping).
    pub damping: f64,
}

impl Default for RescueOptions {
    fn default() -> Self {
        RescueOptions {
            enabled: true,
            damping: 0.25,
        }
    }
}

impl RescueOptions {
    /// A ladder that never runs.
    pub fn disabled() -> Self {
        RescueOptions {
            enabled: false,
            ..RescueOptions::default()
        }
    }
}

/// How one solve inside a rung went wrong, as classified by the engine
/// that ran it.
#[derive(Debug)]
pub(crate) enum RungError {
    /// The solve did not converge: the rung fails with this note and the
    /// ladder moves on to the next rung.
    Failed(String),
    /// The whole rescue stops with this error (a budget stop, or a failure
    /// the engine does not retry).
    Abort(SimError),
}

/// The outcome of one solve inside a rung.
pub(crate) type RungResult = std::result::Result<Vec<f64>, RungError>;

/// A conductance `g` from every node to an anchor state: with a zero
/// anchor a gmin shunt, with the previous iterate one pseudo-transient
/// (backward-Euler) step.
pub(crate) type Shunt<'a> = Option<(f64, &'a [f64])>;

/// Climbs [`RescueRung::LADDER`] for a failed operating point of a system
/// with `dim` unknowns, the one ladder driver both engines share.
///
/// `solve(rung, x0, shunt, source_scale, stats)` runs one solve from `x0`
/// with an optional [`Shunt`] and all independent sources scaled by
/// `source_scale`, and classifies its result. Every rung is gated by a
/// budget checkpoint on `meter`, so a cancelled or expired run stops
/// *between* rungs with the partial trace in its forensics. Each attempted
/// rung counts one `rescue_rungs`, a success one `rescues`.
///
/// Returns the rescued solution (`None` when every rung failed) and the
/// trace; the engine builds its own terminal error from the latter.
pub(crate) fn climb<S>(
    opts: &RescueOptions,
    dim: usize,
    meter: &BudgetMeter,
    stats: &mut EngineStats,
    mut solve: S,
) -> Result<(Option<Vec<f64>>, RescueTrace)>
where
    S: FnMut(RescueRung, &[f64], Shunt<'_>, Option<f64>, &mut EngineStats) -> RungResult,
{
    let zeros = vec![0.0; dim];
    let mut trace = RescueTrace::new();
    for rung in RescueRung::LADDER {
        meter.checkpoint().map_err(|stop| {
            SimError::budget_exceeded_with(
                stop,
                format!("rescue rung {rung}"),
                Forensics {
                    rescue_trace: trace.clone(),
                    ..Forensics::default()
                },
            )
        })?;
        stats.rescue_rungs += 1;
        let mut rung_solve =
            |x0: &[f64], shunt: Shunt<'_>, scale: Option<f64>| solve(rung, x0, shunt, scale, stats);
        match climb_rung(rung, &zeros, &mut rung_solve) {
            Ok(x) => {
                let detail = match rung {
                    RescueRung::DampedRetry => format!("damping {}", opts.damping),
                    RescueRung::GminStep => {
                        format!("{GMIN_STEPS} decades from {GMIN_START:.1e} S")
                    }
                    RescueRung::SourceStep => format!("{SOURCE_STEPS} substeps"),
                    RescueRung::PseudoTransient => format!("{PTRAN_STEPS} pseudo-steps"),
                };
                trace.record(rung, true, detail);
                stats.rescues += 1;
                return Ok((Some(x), trace));
            }
            Err(RungError::Failed(note)) => trace.record(rung, false, note),
            Err(RungError::Abort(e)) => return Err(e),
        }
    }
    Ok((None, trace))
}

/// Runs the solves of one rung, each warm-started from the last.
fn climb_rung<S>(rung: RescueRung, zeros: &[f64], solve: &mut S) -> RungResult
where
    S: FnMut(&[f64], Shunt<'_>, Option<f64>) -> RungResult,
{
    match rung {
        // Same cold start, heavier damping.
        RescueRung::DampedRetry => solve(zeros, None, None),
        // A shunt to ground on every node keeps the iteration contractive;
        // relax it a decade at a time, then confirm without it.
        RescueRung::GminStep => {
            let mut x = zeros.to_vec();
            let mut g = GMIN_START;
            for _ in 0..GMIN_STEPS {
                x = solve(&x, Some((g, zeros)), None)?;
                g *= 0.1;
            }
            solve(&x, None, None)
        }
        // Approach the bias from zero the way a power-up transient would,
        // so bistable circuits land on the continuation branch.
        RescueRung::SourceStep => {
            let mut x = zeros.to_vec();
            for s in 1..=SOURCE_STEPS {
                x = solve(&x, None, Some(s as f64 / SOURCE_STEPS as f64))?;
            }
            Ok(x)
        }
        // Anchor each solve to the previous pseudo-state through a
        // conductance decaying from 1 S to 1 pS (a backward-Euler march
        // with a growing time step), then confirm without it.
        RescueRung::PseudoTransient => {
            let mut x = zeros.to_vec();
            let mut g = 1.0_f64;
            let decay = 1e-12_f64.powf(1.0 / PTRAN_STEPS as f64);
            for _ in 0..PTRAN_STEPS {
                x = solve(&x, Some((g, &x)), None)?;
                g *= decay;
            }
            solve(&x, None, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_order_is_fixed() {
        assert_eq!(RescueRung::LADDER[0], RescueRung::DampedRetry);
        assert_eq!(RescueRung::LADDER[3], RescueRung::PseudoTransient);
        // Ord agrees with escalation order.
        assert!(RescueRung::DampedRetry < RescueRung::GminStep);
        assert!(RescueRung::SourceStep < RescueRung::PseudoTransient);
    }

    #[test]
    fn trace_records_in_order_and_reports_outcome() {
        let mut t = RescueTrace::new();
        assert!(t.is_empty());
        assert!(!t.succeeded());
        t.record(RescueRung::DampedRetry, false, "still oscillating");
        t.record(RescueRung::GminStep, true, "converged at gmin 1e-9");
        assert_eq!(t.rungs(), 2);
        assert!(t.succeeded());
        assert_eq!(t.events()[0].rung, RescueRung::DampedRetry);
        let s = t.to_string();
        assert!(s.contains("damped-retry (failed"));
        assert!(s.contains("gmin-step (ok"));
    }

    #[test]
    fn default_options_are_sane() {
        let o = RescueOptions::default();
        assert!(o.enabled);
        assert!(o.damping > 0.0 && o.damping <= 1.0);
        assert!(!RescueOptions::disabled().enabled);
    }
}
