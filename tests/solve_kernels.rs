//! Triangular-solve equivalence: the batched multi-RHS
//! `SparseLu::solve_many_into` must be **bit-identical** to independent
//! `solve_into` calls over random patterns, random orderings and every
//! right-hand-side count — and engine results flowing through the sparse
//! LU must stay bit-identical at every worker count.

use nanosim::core::sim::{Analysis, ExecPlan, SimOptions, Simulator, SWEEP_CHUNK};
use nanosim::core::swec::SwecDcSweep;
use nanosim::workloads;
use nanosim_numeric::flops::FlopCounter;
use nanosim_numeric::sparse::{CsrMatrix, OrderingChoice, PivotStrategy, SparseLu};
use proptest::prelude::*;

/// Strategy: a random diagonally dominant n × n sparse system (guaranteed
/// nonsingular — degraded pivots are exercised separately), a value
/// perturbation for the refactor pass, and a right-hand-side block.
#[allow(clippy::type_complexity)]
fn dominant_system() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>, Vec<f64>, usize)> {
    (4usize..24, 1usize..6).prop_flat_map(|(n, k)| {
        let offdiag = proptest::collection::vec(((0..n), (0..n), -2.0f64..2.0), 0..(n * 3));
        let rhs = proptest::collection::vec(-10.0f64..10.0, n * k);
        (Just(n), offdiag, rhs, Just(k)).prop_map(|(n, off, rhs, k)| {
            let mut entries: Vec<(usize, usize, f64)> = Vec::new();
            let mut rowsum = vec![0.0f64; n];
            for &(r, c, v) in &off {
                if r != c {
                    entries.push((r, c, v));
                    rowsum[r] += v.abs();
                }
            }
            for (i, rs) in rowsum.iter().enumerate() {
                entries.push((i, i, rs + 1.0));
            }
            (n, entries, rhs, k)
        })
    })
}

const ORDERINGS: [OrderingChoice; 2] = [OrderingChoice::Natural, OrderingChoice::Amd];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched multi-RHS solves are bit-identical to `k` independent
    /// single-RHS solves, column by column, flops included.
    #[test]
    fn multi_rhs_matches_singles((n, entries, rhs, k) in dominant_system()) {
        let a = CsrMatrix::from_triplets(n, n, &entries);
        for choice in ORDERINGS {
            let lu = SparseLu::factor_ordered(
                &a, choice, PivotStrategy::default(), &mut FlopCounter::new(),
            ).unwrap();
            let mut fm = FlopCounter::new();
            let (mut xm, mut work) = (Vec::new(), Vec::new());
            lu.solve_many_into(&rhs[..n * k], k, &mut xm, &mut work, &mut fm).unwrap();
            let mut fs = FlopCounter::new();
            for j in 0..k {
                let xj = lu.solve(&rhs[j * n..(j + 1) * n], &mut fs).unwrap();
                prop_assert_eq!(&xm[j * n..(j + 1) * n], &xj[..], "{:?} col {}", choice, j);
            }
            prop_assert_eq!(fm, fs, "{:?}: batched flop accounting", choice);
        }
    }
}

/// Sharded sweeps (and the batched multi-RHS chunk warm-start) stay
/// bit-identical to serial at every worker count,
/// for every ordering.
#[test]
fn sharded_sweep_bit_identical_at_every_worker_count() {
    for ordering in ORDERINGS {
        let mk = || {
            Simulator::with_options(
                workloads::rtd_mesh(6),
                SimOptions {
                    ordering,
                    ..Default::default()
                },
            )
            .expect("assembles")
        };
        let request = || Analysis::dc_sweep("V1", 0.0, 3.0, 0.05).chunk_points(SWEEP_CHUNK);
        let serial = mk().run(request()).unwrap();
        for workers in [1usize, 2, 4, 7] {
            let sharded = mk()
                .run(request().plan(ExecPlan::sharded(workers)))
                .unwrap();
            for name in serial.names() {
                assert_eq!(
                    serial.column(name),
                    sharded.column(name),
                    "{ordering:?}: column {name} differs at workers = {workers}"
                );
            }
            assert_eq!(serial.stats.linear_solves, sharded.stats.linear_solves);
            assert_eq!(serial.stats.full_factors, sharded.stats.full_factors);
        }
    }
}

/// The EM ensemble's lockstep multi-RHS batching stays bit-identical at
/// every thread count (mean, spread and per-path maxima all flow through
/// the batched `C` solves).
#[test]
fn em_ensemble_bit_identical_at_every_worker_count() {
    use nanosim::core::em::{EmEngine, EmOptions};
    let circuit = workloads::noisy_rc_node_fig10();
    let run = |threads: usize| {
        EmEngine::new(EmOptions {
            dt: 5e-12,
            paths: 21, // deliberately not a multiple of PATH_CHUNK
            seed: 77,
            threads,
            ..EmOptions::default()
        })
        .run(&circuit, 1e-9)
        .expect("ensemble runs")
    };
    let serial = run(1);
    for threads in [2usize, 4, 7] {
        let parallel = run(threads);
        // Every mean and std(..) column; per-path maxima exist for the
        // node columns only.
        for name in serial.names() {
            assert_eq!(
                serial.column(name),
                parallel.column(name),
                "{name} at {threads} threads"
            );
            assert_eq!(
                serial.peak_summary(name),
                parallel.peak_summary(name),
                "peaks at {threads} threads"
            );
        }
        assert!(serial.peak_summary("v").is_some());
    }
}

/// Iterative refinement extends a cached analysis's life through pivot
/// decay: marching a stiff transient-shaped matrix sequence (one fixed
/// sparsity pattern, a diagonal entry collapsing over twelve decades —
/// the shape of a conductance switching off against a fixed `C/h`)
/// through one `SparseLuSolver` must stay accurate at every step while
/// performing **no** additional full factorization — refinement steps,
/// counted in `LuStats`, absorb the degradation the old policy re-pivoted
/// for.
#[test]
fn stiff_sequence_refines_instead_of_repivoting() {
    use nanosim_numeric::solve::SparseLuSolver;
    use nanosim_numeric::sparse::TripletMatrix;

    let n = 12;
    let system = |g: f64| {
        // Chain conductance matrix whose head node carries only `g` to
        // ground: its (first-eliminated) pivot is `g` against a fixed
        // unit coupling, so the cached pivot's ratio marches through the
        // degradation threshold as `g` collapses.
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            let gi = if i == 0 { g } else { 2.5 };
            t.push(i, i, gi + 1e-9);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.to_csr()
    };
    let b: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).sin()).collect();
    let mut solver = SparseLuSolver::new();
    let mut x = Vec::new();
    let mut flops = FlopCounter::new();
    for step in 0..60 {
        // 2.5 → 2.5e-12: sweeps straight through the 1e-6 pivot-decay
        // threshold that used to force a full re-pivot per step.
        let g = 2.5 * (10.0f64).powf(-(step as f64) * 0.2);
        let a = system(g);
        solver.solve_into(&a, &b, &mut x, &mut flops).unwrap();
        let ax = a.matvec(&x, &mut FlopCounter::new()).unwrap();
        for (i, (l, r)) in ax.iter().zip(b.iter()).enumerate() {
            assert!(
                (l - r).abs() <= 1e-8 * r.abs().max(1.0),
                "step {step} (g = {g:.2e}): residual[{i}] = {}",
                (l - r).abs()
            );
        }
    }
    let stats = solver.lu_stats();
    assert_eq!(
        stats.full_factors, 1,
        "refinement must keep the first analysis alive: {stats:?}"
    );
    assert_eq!(stats.refactors, 59);
    assert!(
        stats.refinement_steps > 0,
        "the degraded tail of the sweep must refine: {stats:?}"
    );
    println!(
        "stiff sequence: {} refactors, {} refinement steps, {} full factors",
        stats.refactors, stats.refinement_steps, stats.full_factors
    );
}

/// The batched chunk warm-start seeds are bit-identical to the per-chunk
/// non-iterative solves they replace, so the sharded sweep keeps the PR 2
/// warm-start contract: a sweep long enough to span many chunks matches
/// the *legacy serial engine* within the fixed-point tolerance everywhere
/// the serial continuation chain is well-posed (mesh workload, no
/// bistability).
#[test]
fn batched_warm_start_matches_legacy_continuation() {
    // Monotone pre-peak bias region: the serial continuation chain is
    // well-posed there, so chunked-with-batched-seeds and legacy agree to
    // the fixed-point tolerance (through the NDR region only the
    // branch-tracking contract holds, covered by tests/session.rs).
    let ckt = workloads::rtd_mesh(5);
    let mut sim = Simulator::new(ckt.clone()).unwrap();
    let ds = sim
        .run(Analysis::dc_sweep("V1", 0.0, 1.5, 0.01).chunk_points(SWEEP_CHUNK))
        .unwrap();
    let legacy = SwecDcSweep::new(Default::default())
        .run(&ckt, "V1", 0.0, 1.5, 0.01)
        .unwrap();
    assert!(ds.points() > 100, "spans many chunks");
    for name in legacy.names() {
        let (a, b) = (ds.column(name).unwrap(), legacy.column(name).unwrap());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            let scale = y.abs().max(1.0);
            assert!((x - y).abs() <= 5e-6 * scale, "{name}[{i}]: {x} vs {y}");
        }
    }
}
