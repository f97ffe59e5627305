//! Run-budget determinism across the session API: a budget-killed sharded
//! run must fail with the *same* structured error at every worker count, a
//! salvaged partial result must be bit-identical everywhere (and a bit-exact
//! prefix of the unbudgeted run), and budget-disabled runs must be
//! bit-identical to runs with no budget machinery engaged at all.

use nanosim::core::em::EmOptions;
use nanosim::core::sim::{Pwl, SWEEP_CHUNK};
use nanosim::prelude::*;
use proptest::prelude::*;

/// Runs the Table I 4x4 RTD mesh sweep, in [`SWEEP_CHUNK`]-point chunks,
/// under a per-solve iteration cap.
fn budgeted_sweep(limit: u64, workers: usize, partial: bool) -> Result<Dataset, SimError> {
    let mut sim = Simulator::new(nanosim::workloads::rtd_mesh(4)).expect("mesh assembles");
    sim.set_budget(Budget::unlimited().with_max_newton_iterations(limit));
    let mut req = Analysis::dc_sweep("V1", 0.0, 3.0, 0.05)
        .chunk_points(SWEEP_CHUNK)
        .plan(ExecPlan::sharded(workers));
    if partial {
        req = req.allow_partial();
    }
    sim.run(req)
}

/// Everything that must be worker-count-invariant about a failure: the
/// rendered message (checkpoint context included), the structured stop, and
/// the forensics sweep position.
fn fingerprint(e: &SimError) -> (String, Option<BudgetStop>, Option<usize>, Option<f64>) {
    let fx = e.forensics();
    (
        e.to_string(),
        e.budget_stop(),
        fx.and_then(|f| f.point_index),
        fx.and_then(|f| f.sweep_value),
    )
}

/// Smallest iteration cap that kills the sweep *after* the first chunk, so
/// partial salvage has a prefix to keep. Scanned, not hard-coded, so the
/// test survives solver-tolerance tuning.
fn mid_sweep_killing_limit() -> u64 {
    for limit in 1..200 {
        match budgeted_sweep(limit, 1, true) {
            Ok(ds) if ds.is_truncated() => return limit,
            _ => {}
        }
    }
    panic!("no iteration cap yields a truncated partial sweep");
}

#[test]
fn budget_killed_sharded_sweep_fails_identically_at_every_worker_count() {
    // A cap of 1 fixed-point iteration dies in the first chunk's warm
    // start: no salvage, structured error only.
    let serial = budgeted_sweep(1, 1, false).expect_err("cap of 1 must kill the sweep");
    assert!(
        matches!(
            serial.budget_stop(),
            Some(BudgetStop::NewtonIterations { limit: 1 })
        ),
        "unexpected error: {serial}"
    );
    for workers in [2usize, 4] {
        let e = budgeted_sweep(1, workers, false).expect_err("same budget, same death");
        assert_eq!(
            fingerprint(&e),
            fingerprint(&serial),
            "error diverged at workers = {workers}"
        );
    }
}

#[test]
fn salvaged_partial_sweep_is_identical_everywhere_and_a_prefix_of_the_full_run() {
    let limit = mid_sweep_killing_limit();
    let serial = budgeted_sweep(limit, 1, true).expect("limit was chosen to salvage");
    assert!(serial.is_truncated());
    let kept = serial.points();
    assert!(kept > 0, "salvage must keep at least one chunk");

    let full = budgeted_sweep(u64::MAX, 1, false).expect("unlimited cap runs to completion");
    assert!(kept < full.points(), "the budget must actually bite");

    // The salvaged prefix is bit-identical to the unbudgeted sweep.
    assert_eq!(&full.axis_values()[..kept], serial.axis_values());
    for name in serial.names() {
        assert_eq!(
            &full.column(name).unwrap()[..kept],
            serial.column(name).unwrap(),
            "column {name} is not a bit-exact prefix"
        );
    }

    // And every worker count reproduces the same truncated dataset.
    for workers in [2usize, 4] {
        let sharded = budgeted_sweep(limit, workers, true).expect("salvage is plan-invariant");
        assert!(sharded.is_truncated());
        assert_eq!(sharded.truncated_at(), serial.truncated_at());
        assert_eq!(sharded.points(), kept, "workers = {workers}");
        for name in serial.names() {
            assert_eq!(
                serial.column(name),
                sharded.column(name),
                "column {name} differs at workers = {workers}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: whatever a random iteration cap does to the sweep —
    /// complete it, truncate it, or kill it — the outcome is bit-identical
    /// at workers 1, 2 and 4.
    #[test]
    fn budget_outcome_is_worker_invariant(limit in 1u64..60, pidx in 0usize..2) {
        let partial = pidx == 1;
        let reference = budgeted_sweep(limit, 1, partial);
        for workers in [2usize, 4] {
            let got = budgeted_sweep(limit, workers, partial);
            match (&reference, &got) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.points(), b.points());
                    prop_assert_eq!(a.truncated_at(), b.truncated_at());
                    for name in a.names() {
                        prop_assert_eq!(a.column(name), b.column(name));
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(fingerprint(a), fingerprint(b)),
                _ => prop_assert!(
                    false,
                    "outcome kind diverged at workers = {}: {:?} vs {:?}",
                    workers,
                    reference.as_ref().map(|_| "ok").map_err(ToString::to_string),
                    got.as_ref().map(|_| "ok").map_err(ToString::to_string)
                ),
            }
        }
    }
}

#[test]
fn transient_step_budget_salvages_a_bit_exact_prefix() {
    let run = |budget: Budget, partial: bool| -> Result<Dataset, SimError> {
        let mut sim =
            Simulator::new(nanosim::workloads::rtd_divider(50.0)).expect("divider assembles");
        sim.set_budget(budget);
        let mut req = Analysis::transient(0.5e-9, 5e-9);
        if partial {
            req = req.allow_partial();
        }
        sim.run(req)
    };
    let full = run(Budget::unlimited(), false).expect("unbudgeted transient completes");

    let capped = Budget::unlimited().with_max_transient_steps(3);
    let e = run(capped, false).expect_err("3-step cap without allow_partial fails");
    assert!(matches!(
        e.budget_stop(),
        Some(BudgetStop::TransientSteps { limit: 3 })
    ));

    let partial = run(capped, true).expect("allow_partial salvages the prefix");
    assert!(partial.is_truncated());
    assert_eq!(partial.points(), 4, "initial point + 3 accepted steps");
    assert_eq!(
        &full.axis_values()[..partial.points()],
        partial.axis_values()
    );
    for name in partial.names() {
        assert_eq!(
            &full.column(name).unwrap()[..partial.points()],
            partial.column(name).unwrap()
        );
    }
}

#[test]
fn em_ensemble_byte_budget_fails_identically_at_every_plan() {
    // The EM engine charges its full projected result size before fanning
    // out, so a byte cap kills the ensemble with the same structured error
    // no matter how many workers would have run.
    let run = |plan: ExecPlan| -> Result<Dataset, SimError> {
        let mut sim = Simulator::new(nanosim::workloads::noisy_rc_node_fig10())
            .expect("fig10 node assembles");
        sim.set_budget(Budget::unlimited().with_max_result_bytes(64));
        sim.run(
            Analysis::em_ensemble(1e-9)
                .options(EmOptions {
                    dt: 4e-12,
                    paths: 8,
                    seed: 2005,
                    ..EmOptions::default()
                })
                .plan(plan),
        )
    };
    let serial = run(ExecPlan::Serial).expect_err("64 bytes cannot hold an ensemble");
    assert!(matches!(
        serial.budget_stop(),
        Some(BudgetStop::ResultBytes { limit: 64 })
    ));
    for plan in [ExecPlan::sharded(2), ExecPlan::sharded(4)] {
        let e = run(plan).expect_err("same budget, same death");
        assert_eq!(fingerprint(&e), fingerprint(&serial), "plan {plan:?}");
    }
}

#[test]
fn em_byte_charge_equals_the_dataset_size() {
    // The ensemble charges exactly the f64s it returns: the time axis, a
    // mean and a std(..) column per variable, and one running maximum per
    // path per variable. A budget of exactly that size runs; a byte less
    // does not.
    let (dim, paths, steps) = (1u64, 8u64, 250u64); // 1 ns in 4 ps steps
    let bytes = 8 * ((steps + 1) * (1 + 2 * dim) + paths * dim);
    let run = |limit: u64| -> Result<Dataset, SimError> {
        let mut sim = Simulator::new(nanosim::workloads::noisy_rc_node_fig10())
            .expect("fig10 node assembles");
        sim.set_budget(Budget::unlimited().with_max_result_bytes(limit));
        sim.run(Analysis::em_ensemble(1e-9).options(EmOptions {
            dt: 4e-12,
            paths: paths as usize,
            seed: 2005,
            ..EmOptions::default()
        }))
    };
    let ds = run(bytes).expect("a budget of the dataset's size suffices");
    let f64s = ds.points() * (1 + ds.names().len()) + ds.paths() * ds.names().len() / 2;
    assert_eq!(8 * f64s as u64, bytes);
    let e = run(bytes - 1).expect_err("one byte short");
    assert_eq!(
        e.budget_stop(),
        Some(BudgetStop::ResultBytes { limit: bytes - 1 })
    );
}

#[test]
fn pwl_analyses_obey_the_session_budget() {
    let run = |budget: Budget, analysis: Pwl| -> Result<Dataset, SimError> {
        let mut sim =
            Simulator::new(nanosim::workloads::rtd_divider(50.0)).expect("divider assembles");
        sim.set_budget(budget);
        sim.run(analysis)
    };
    let tran = || Analysis::pwl_transient(0.05e-9, 5e-9);
    let sweep = || Analysis::pwl_dc_sweep("V1", 0.0, 5.0, 0.025);

    // A step cap stops the transient; a byte cap stops the sweep before
    // any point is solved.
    let e = run(Budget::unlimited().with_max_transient_steps(5), tran())
        .expect_err("5 steps cannot cover 100");
    assert_eq!(
        e.budget_stop(),
        Some(BudgetStop::TransientSteps { limit: 5 })
    );
    let e = run(Budget::unlimited().with_max_result_bytes(64), sweep())
        .expect_err("64 bytes cannot hold 201 points");
    assert_eq!(e.budget_stop(), Some(BudgetStop::ResultBytes { limit: 64 }));

    // Budgets that do not bite leave every bit of the result unchanged.
    let roomy = Budget::unlimited()
        .with_max_transient_steps(1_000)
        .with_max_result_bytes(1 << 30);
    for analysis in [tran(), sweep()] {
        let free = run(Budget::unlimited(), analysis.clone()).expect("unbudgeted run");
        let capped = run(roomy, analysis).expect("roomy budget");
        assert!(free.points() > 100);
        assert_eq!(free.axis_values(), capped.axis_values());
        for name in free.names() {
            assert_eq!(free.column(name), capped.column(name), "{name}");
        }
    }
}

#[test]
fn pre_cancelled_token_kills_every_plan_with_the_same_error() {
    for workers in [1usize, 2, 4] {
        let mut sim = Simulator::new(nanosim::workloads::rtd_mesh(4)).expect("mesh assembles");
        let token = CancelToken::new();
        token.cancel();
        sim.set_cancel_token(token);
        let e = sim
            .run(
                Analysis::dc_sweep("V1", 0.0, 3.0, 0.05)
                    .chunk_points(SWEEP_CHUNK)
                    .plan(ExecPlan::sharded(workers)),
            )
            .expect_err("cancelled before start");
        assert_eq!(e.budget_stop(), Some(BudgetStop::Cancelled));
        assert_eq!(
            e.to_string(),
            "budget exceeded: cancelled at analysis start",
            "workers = {workers}"
        );
    }
}

#[test]
fn unlimited_budget_is_bit_identical_to_no_budget() {
    // The contract the serve layer relies on: threading an explicit
    // unlimited budget through every engine changes nothing.
    let baseline = {
        let mut sim = Simulator::new(nanosim::workloads::rtd_mesh(4)).unwrap();
        sim.run(Analysis::dc_sweep("V1", 0.0, 3.0, 0.05)).unwrap()
    };
    let threaded = {
        let mut sim = Simulator::new(nanosim::workloads::rtd_mesh(4)).unwrap();
        sim.set_budget(Budget::unlimited());
        sim.set_cancel_token(CancelToken::new());
        sim.run(Analysis::dc_sweep("V1", 0.0, 3.0, 0.05)).unwrap()
    };
    assert_eq!(baseline.points(), threaded.points());
    for name in baseline.names() {
        assert_eq!(baseline.column(name), threaded.column(name));
    }
    assert_eq!(baseline.stats.linear_solves, threaded.stats.linear_solves);
}

/// Runs the 4x4 mesh sweep in one chunk, in [`DcMode::FixedPoint`], under a
/// per-solve iteration cap, with partial results allowed.
fn capped_fixed_point_sweep(limit: u64, workers: usize) -> Result<Dataset, SimError> {
    let mut sim = Simulator::new(nanosim::workloads::rtd_mesh(4)).expect("mesh assembles");
    sim.set_budget(Budget::unlimited().with_max_newton_iterations(limit));
    let options = SwecOptions {
        dc_mode: DcMode::FixedPoint,
        ..SwecOptions::default()
    };
    sim.run(
        Analysis::dc_sweep("V1", 0.0, 3.0, 0.05)
            .options(options)
            .plan(ExecPlan::sharded(workers))
            .allow_partial(),
    )
}

#[test]
fn one_chunk_sweep_salvages_every_point_accepted_before_the_stop() {
    // In one chunk, the points accepted before a budget stop are the
    // chunk's own prefix. The smallest cap that stops the sweep past its
    // first 10 points is scanned, not hard-coded.
    let full = capped_fixed_point_sweep(u64::MAX, 1).expect("no cap, no stop");
    assert!(!full.is_truncated());
    let (limit, partial) = (1..200)
        .find_map(|limit| {
            let ds = capped_fixed_point_sweep(limit, 1).ok()?;
            (ds.is_truncated() && ds.points() > 10).then_some((limit, ds))
        })
        .expect("some cap truncates the sweep mid-way");
    let kept = partial.points();
    assert!(kept < full.points(), "the budget must actually bite");
    assert_eq!(
        partial.truncated_at(),
        partial.axis_values().last().copied()
    );
    assert_eq!(&full.axis_values()[..kept], partial.axis_values());
    for name in full.names() {
        assert_eq!(
            &full.column(name).unwrap()[..kept],
            partial.column(name).unwrap(),
            "column {name} is not a bit-exact prefix (cap {limit})"
        );
    }
    for workers in [2usize, 4] {
        let ds = capped_fixed_point_sweep(limit, workers).expect("salvage is plan-invariant");
        assert_eq!(
            ds.truncated_at(),
            partial.truncated_at(),
            "workers = {workers}"
        );
        for name in full.names() {
            assert_eq!(ds.column(name), partial.column(name), "workers = {workers}");
        }
    }
}
