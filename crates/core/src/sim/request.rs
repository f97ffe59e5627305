//! Typed analysis requests and their builders.
//!
//! An [`Analysis`] is everything the [`crate::sim::Simulator`] needs to run
//! one analysis: the kind, its parameters, the engine options, and an
//! [`ExecPlan`]. Builders start from [`Analysis::op`],
//! [`Analysis::dc_sweep`], [`Analysis::transient`],
//! [`Analysis::em_ensemble`], [`Analysis::mla_dc_sweep`] /
//! [`Analysis::mla_transient`] and [`Analysis::pwl_dc_sweep`] /
//! [`Analysis::pwl_transient`]; every builder type converts into
//! [`Analysis`] with `into()` (or can be passed to
//! [`crate::sim::Simulator::run`] directly).

use crate::em::EmOptions;
use crate::mla::MlaOptions;
use crate::sim::dataset::AnalysisKind;
use crate::sim::plan::ExecPlan;
use crate::swec::SwecOptions;
use crate::{Result, SimError};
use nanosim_circuit::AnalysisDirective;

/// Sweep points per chunk of the chunked layout the worker-count and
/// chunk-boundary tests request through [`DcSweep::chunk_points`]: small
/// enough that a sweep of a few dozen points spreads over several workers.
pub const SWEEP_CHUNK: usize = 16;

/// A typed analysis request.
#[derive(Debug, Clone)]
pub enum Analysis {
    /// DC operating point (SWEC fixed point with continuation fallback).
    Op(Op),
    /// SWEC DC sweep of a named source.
    DcSweep(DcSweep),
    /// SWEC transient.
    Transient(Transient),
    /// Euler–Maruyama Monte-Carlo ensemble.
    EmEnsemble(EmEnsemble),
    /// MLA baseline (Newton with RTD limiting) sweep or transient.
    Mla(Mla),
    /// PWL baseline (ACES-like piecewise linear) sweep or transient.
    Pwl(Pwl),
}

/// Sweep-or-transient request of a baseline engine ([`Mla`], [`Pwl`]).
#[derive(Debug, Clone)]
pub enum BaselineRequest {
    /// DC sweep of a named source.
    DcSweep {
        /// Name of the swept V/I source.
        source: String,
        /// Sweep start value.
        start: f64,
        /// Sweep end value.
        stop: f64,
        /// Sweep increment.
        step: f64,
    },
    /// Transient analysis.
    Transient {
        /// Maximum (print) time step in seconds.
        tstep: f64,
        /// Stop time in seconds.
        tstop: f64,
    },
}

/// Builder for an operating-point analysis.
#[derive(Debug, Clone, Default)]
pub struct Op {
    /// SWEC engine options.
    pub options: SwecOptions,
}

impl Op {
    /// Replaces the engine options.
    #[must_use]
    pub fn options(mut self, options: SwecOptions) -> Self {
        self.options = options;
        self
    }
}

/// Builder for a SWEC DC sweep.
///
/// By default the sweep is one unbroken continuation chain: one linear
/// solve per point after the first, as in [`crate::swec::SwecDcSweep::run`]
/// and bit-identical to it. [`DcSweep::chunk_points`] cuts it into chunks
/// that an [`ExecPlan::Sharded`] plan can run in parallel; each chunk past
/// the first then re-derives its start with a short continuation ramp from
/// the sweep start. Chunk boundaries depend only on the point index, so
/// for a given request every worker count gives the same bits.
#[derive(Debug, Clone)]
pub struct DcSweep {
    /// Name of the swept V/I source.
    pub source: String,
    /// Sweep start value.
    pub start: f64,
    /// Sweep end value.
    pub stop: f64,
    /// Sweep increment.
    pub step: f64,
    /// SWEC engine options.
    pub options: SwecOptions,
    /// Execution plan ([`ExecPlan::Serial`] by default; sweeps also accept
    /// [`ExecPlan::Sharded`]). The plan only picks how many workers run the
    /// chunks; a one-chunk sweep runs on one whatever the plan.
    pub plan: ExecPlan,
    /// Sweep points per chunk; `None` (the default) runs the whole sweep as
    /// one chunk. `Some(0)` is rejected by validation.
    pub chunk_points: Option<usize>,
}

impl DcSweep {
    /// Starts a sweep request over `source` from `start` to `stop`
    /// (inclusive) in increments of `step`. As in SPICE `.DC`, a step that
    /// does not divide the range ends the sweep at the last whole step
    /// before `stop`, never past it.
    pub fn new(source: impl Into<String>, start: f64, stop: f64, step: f64) -> Self {
        DcSweep {
            source: source.into(),
            start,
            stop,
            step,
            options: SwecOptions::default(),
            plan: ExecPlan::Serial,
            chunk_points: None,
        }
    }

    /// Replaces the engine options.
    #[must_use]
    pub fn options(mut self, options: SwecOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the execution plan.
    #[must_use]
    pub fn plan(mut self, plan: ExecPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Cuts the sweep into chunks of `n` points (the last may be shorter),
    /// so that a sharded plan can run them in parallel. Each chunk past the
    /// first pays a continuation ramp from the sweep start, so a serial run
    /// is fastest with the default single chunk.
    #[must_use]
    pub fn chunk_points(mut self, n: usize) -> Self {
        self.chunk_points = Some(n);
        self
    }

    /// Opts into partial results: a sweep killed by a run budget returns
    /// every point accepted before the stop (marked truncated — see
    /// [`crate::sim::Dataset::is_truncated`]) instead of an error, as long
    /// as at least one point was accepted.
    #[must_use]
    pub fn allow_partial(mut self) -> Self {
        self.options.allow_partial = true;
        self
    }
}

/// Builder for a SWEC transient.
#[derive(Debug, Clone)]
pub struct Transient {
    /// Maximum (print) time step in seconds.
    pub tstep: f64,
    /// Stop time in seconds.
    pub tstop: f64,
    /// SWEC engine options.
    pub options: SwecOptions,
}

impl Transient {
    /// Starts a transient request from `t = 0` to `tstop` with print step
    /// `tstep`.
    pub fn new(tstep: f64, tstop: f64) -> Self {
        Transient {
            tstep,
            tstop,
            options: SwecOptions::default(),
        }
    }

    /// Replaces the engine options.
    #[must_use]
    pub fn options(mut self, options: SwecOptions) -> Self {
        self.options = options;
        self
    }

    /// Opts into partial results: a run that dies of step-size underflow
    /// returns its accepted prefix (marked truncated — see
    /// [`crate::sim::Dataset::is_truncated`]) instead of an error.
    #[must_use]
    pub fn allow_partial(mut self) -> Self {
        self.options.allow_partial = true;
        self
    }
}

/// Builder for an Euler–Maruyama ensemble.
#[derive(Debug, Clone)]
pub struct EmEnsemble {
    /// Integration horizon in seconds.
    pub horizon: f64,
    /// EM engine options. The `threads` field is owned by the plan (the
    /// session overwrites it): [`ExecPlan::Serial`] runs one worker,
    /// [`ExecPlan::Sharded`] runs `workers`. Results are bit-identical
    /// either way — the plan is purely a wall-clock knob.
    pub options: EmOptions,
    /// Execution plan. Defaults to `ExecPlan::sharded(0)` (auto: one
    /// worker per hardware thread), matching the engine's own
    /// `EmOptions::default().threads == 0` behavior.
    pub plan: ExecPlan,
}

impl EmEnsemble {
    /// Starts an ensemble request over `0..horizon` seconds.
    pub fn new(horizon: f64) -> Self {
        EmEnsemble {
            horizon,
            options: EmOptions::default(),
            plan: ExecPlan::sharded(0),
        }
    }

    /// Replaces the engine options.
    #[must_use]
    pub fn options(mut self, options: EmOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the execution plan.
    #[must_use]
    pub fn plan(mut self, plan: ExecPlan) -> Self {
        self.plan = plan;
        self
    }
}

/// Builder for an MLA-baseline analysis.
#[derive(Debug, Clone)]
pub struct Mla {
    /// Sweep or transient parameters.
    pub request: BaselineRequest,
    /// MLA engine options.
    pub options: MlaOptions,
}

impl Mla {
    /// Replaces the engine options.
    #[must_use]
    pub fn options(mut self, options: MlaOptions) -> Self {
        self.options = options;
        self
    }
}

/// Builder for a PWL-baseline analysis (the engine has no options; see
/// [`crate::pwl::PwlEngine`]).
#[derive(Debug, Clone)]
pub struct Pwl {
    /// Sweep or transient parameters.
    pub request: BaselineRequest,
}

macro_rules! into_analysis {
    ($($builder:ident => $variant:ident),* $(,)?) => {
        $(impl From<$builder> for Analysis {
            fn from(b: $builder) -> Analysis {
                Analysis::$variant(b)
            }
        })*
    };
}

into_analysis!(
    Op => Op,
    DcSweep => DcSweep,
    Transient => Transient,
    EmEnsemble => EmEnsemble,
    Mla => Mla,
    Pwl => Pwl,
);

impl Analysis {
    /// Operating-point request with default options.
    pub fn op() -> Op {
        Op::default()
    }

    /// SWEC DC sweep request (see [`DcSweep::new`]).
    pub fn dc_sweep(source: impl Into<String>, start: f64, stop: f64, step: f64) -> DcSweep {
        DcSweep::new(source, start, stop, step)
    }

    /// SWEC transient request (see [`Transient::new`]).
    pub fn transient(tstep: f64, tstop: f64) -> Transient {
        Transient::new(tstep, tstop)
    }

    /// Euler–Maruyama ensemble request (see [`EmEnsemble::new`]).
    pub fn em_ensemble(horizon: f64) -> EmEnsemble {
        EmEnsemble::new(horizon)
    }

    /// MLA-baseline DC sweep request.
    pub fn mla_dc_sweep(source: impl Into<String>, start: f64, stop: f64, step: f64) -> Mla {
        Mla {
            request: BaselineRequest::DcSweep {
                source: source.into(),
                start,
                stop,
                step,
            },
            options: MlaOptions::default(),
        }
    }

    /// MLA-baseline transient request.
    pub fn mla_transient(tstep: f64, tstop: f64) -> Mla {
        Mla {
            request: BaselineRequest::Transient { tstep, tstop },
            options: MlaOptions::default(),
        }
    }

    /// PWL-baseline DC sweep request.
    pub fn pwl_dc_sweep(source: impl Into<String>, start: f64, stop: f64, step: f64) -> Pwl {
        Pwl {
            request: BaselineRequest::DcSweep {
                source: source.into(),
                start,
                stop,
                step,
            },
        }
    }

    /// PWL-baseline transient request.
    pub fn pwl_transient(tstep: f64, tstop: f64) -> Pwl {
        Pwl {
            request: BaselineRequest::Transient { tstep, tstop },
        }
    }

    /// Lowers a parsed netlist directive to an analysis request with the
    /// given SWEC options (the `run_deck` path).
    pub fn from_directive(directive: &AnalysisDirective, options: &SwecOptions) -> Analysis {
        match directive {
            AnalysisDirective::Op => Analysis::Op(Op {
                options: options.clone(),
            }),
            AnalysisDirective::Dc {
                source,
                start,
                stop,
                step,
            } => Analysis::DcSweep(
                DcSweep::new(source.clone(), *start, *stop, *step).options(options.clone()),
            ),
            AnalysisDirective::Tran { tstep, tstop } => {
                Analysis::Transient(Transient::new(*tstep, *tstop).options(options.clone()))
            }
        }
    }

    /// The kind of dataset this request produces.
    pub fn kind(&self) -> AnalysisKind {
        match self {
            Analysis::Op(_) => AnalysisKind::Op,
            Analysis::DcSweep(_) => AnalysisKind::Dc,
            Analysis::Transient(_) => AnalysisKind::Tran,
            Analysis::EmEnsemble(_) => AnalysisKind::Em,
            Analysis::Mla(m) => match m.request {
                BaselineRequest::DcSweep { .. } => AnalysisKind::Dc,
                BaselineRequest::Transient { .. } => AnalysisKind::Tran,
            },
            Analysis::Pwl(p) => match p.request {
                BaselineRequest::DcSweep { .. } => AnalysisKind::Dc,
                BaselineRequest::Transient { .. } => AnalysisKind::Tran,
            },
        }
    }

    /// The execution plan of this request ([`ExecPlan::Serial`] for
    /// analyses that only run serially).
    pub fn plan(&self) -> ExecPlan {
        match self {
            Analysis::DcSweep(s) => s.plan,
            Analysis::EmEnsemble(e) => e.plan,
            _ => ExecPlan::Serial,
        }
    }

    /// Checks plan/parameter consistency before any work runs.
    ///
    /// # Errors
    /// [`crate::SimError::InvalidConfig`] on invalid plans (a literal
    /// `Sharded { workers: 0 }`, or a sharded plan on an analysis that
    /// cannot shard) and on a zero-point sweep chunk.
    pub fn validate(&self) -> Result<()> {
        match self {
            Analysis::DcSweep(s) if s.chunk_points == Some(0) => Err(SimError::InvalidConfig {
                context: "DcSweep::chunk_points(0): a chunk needs at least one point".into(),
            }),
            Analysis::DcSweep(s) => s.plan.validate(),
            Analysis::EmEnsemble(e) => e.plan.validate(),
            _ => Ok(()),
        }
    }

    /// Short tag for progress reports ("op", "dc", "tran", "em", "mla",
    /// "pwl").
    pub fn tag(&self) -> &'static str {
        match self {
            Analysis::Op(_) => "op",
            Analysis::DcSweep(_) => "dc",
            Analysis::Transient(_) => "tran",
            Analysis::EmEnsemble(_) => "em",
            Analysis::Mla(_) => "mla",
            Analysis::Pwl(_) => "pwl",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_convert_into_analysis() {
        let a: Analysis = Analysis::dc_sweep("V1", 0.0, 1.0, 0.1)
            .plan(ExecPlan::sharded(2))
            .into();
        assert_eq!(a.kind(), AnalysisKind::Dc);
        assert_eq!(a.plan().workers(), 2);
        assert!(a.validate().is_ok());

        let a: Analysis = Analysis::transient(1e-12, 1e-9).into();
        assert_eq!(a.kind(), AnalysisKind::Tran);
        assert_eq!(a.plan(), ExecPlan::Serial);

        let a: Analysis = Analysis::mla_transient(1e-12, 1e-9).into();
        assert_eq!(a.kind(), AnalysisKind::Tran);
        assert_eq!(a.tag(), "mla");

        let a: Analysis = Analysis::pwl_dc_sweep("V1", 0.0, 1.0, 0.1).into();
        assert_eq!(a.kind(), AnalysisKind::Dc);
    }

    #[test]
    fn literal_zero_workers_rejected_at_validation() {
        let a: Analysis = Analysis::dc_sweep("V1", 0.0, 1.0, 0.1)
            .plan(ExecPlan::Sharded { workers: 0 })
            .into();
        assert!(matches!(a.validate(), Err(SimError::InvalidConfig { .. })));
    }

    #[test]
    fn zero_point_chunks_rejected_at_validation() {
        let a: Analysis = Analysis::dc_sweep("V1", 0.0, 1.0, 0.1).into();
        assert!(a.validate().is_ok());
        let a: Analysis = Analysis::dc_sweep("V1", 0.0, 1.0, 0.1)
            .chunk_points(0)
            .into();
        assert!(matches!(a.validate(), Err(SimError::InvalidConfig { .. })));
        let a: Analysis = Analysis::dc_sweep("V1", 0.0, 1.0, 0.1)
            .chunk_points(1)
            .into();
        assert!(a.validate().is_ok());
    }

    #[test]
    fn directive_lowering_preserves_parameters() {
        let opts = SwecOptions {
            epsilon: 0.05,
            ..SwecOptions::default()
        };
        let a = Analysis::from_directive(
            &AnalysisDirective::Dc {
                source: "V1".into(),
                start: 0.0,
                stop: 2.0,
                step: 0.5,
            },
            &opts,
        );
        let Analysis::DcSweep(s) = a else {
            panic!("expected dc sweep");
        };
        assert_eq!(s.source, "V1");
        assert_eq!(s.step, 0.5);
        assert_eq!(s.options.epsilon, 0.05);
        assert_eq!(s.plan, ExecPlan::Serial);
        assert_eq!(s.chunk_points, None, "decks run the one-chunk layout");

        let a = Analysis::from_directive(&AnalysisDirective::Op, &opts);
        assert_eq!(a.kind(), AnalysisKind::Op);
        let a = Analysis::from_directive(
            &AnalysisDirective::Tran {
                tstep: 1e-12,
                tstop: 1e-9,
            },
            &opts,
        );
        assert_eq!(a.kind(), AnalysisKind::Tran);
    }
}
