//! Property-based tests for the numeric substrate.

use nanosim_numeric::flops::FlopCounter;
use nanosim_numeric::interp::PwlFunction;
use nanosim_numeric::rng::Pcg64;
use nanosim_numeric::solve::SparseLuSolver;
use nanosim_numeric::sparse::{
    CsrMatrix, OrderingChoice, PivotStrategy, SparseLu, SymbolicAnalysis, TripletMatrix,
};
use nanosim_numeric::stats::{percentile, RunningStats};
use nanosim_numeric::NumericError;
use proptest::prelude::*;

/// Strategy: a random diagonally dominant n x n sparse system (guaranteed
/// nonsingular) plus a right-hand side.
fn dominant_system() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>, Vec<f64>)> {
    (2usize..12).prop_flat_map(|n| {
        let offdiag = proptest::collection::vec(((0..n), (0..n), -1.0f64..1.0), 0..(n * 2));
        let rhs = proptest::collection::vec(-10.0f64..10.0, n);
        (Just(n), offdiag, rhs).prop_map(|(n, off, rhs)| {
            let mut entries: Vec<(usize, usize, f64)> = Vec::new();
            // Row sums of |off-diagonal| to size the dominant diagonal.
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
            (n, entries, rhs)
        })
    })
}

proptest! {
    /// Sparse LU agrees with dense LU on random nonsingular systems.
    #[test]
    fn sparse_matches_dense((n, entries, b) in dominant_system()) {
        let a = CsrMatrix::from_triplets(n, n, &entries);
        let mut sparse = SparseLuSolver::new();
        let xd = a.to_dense().solve(&b, &mut FlopCounter::new()).unwrap();
        let xs = sparse.solve(&a, &b, &mut FlopCounter::new()).unwrap();
        for (d, s) in xd.iter().zip(xs.iter()) {
            prop_assert!((d - s).abs() < 1e-8 * (1.0 + d.abs()), "{d} vs {s}");
        }
    }

    /// The sparse solution actually satisfies A x = b.
    #[test]
    fn sparse_residual_is_small((n, entries, b) in dominant_system()) {
        let a = CsrMatrix::from_triplets(n, n, &entries);
        let lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        let x = lu.solve(&b, &mut FlopCounter::new()).unwrap();
        let ax = a.matvec(&x, &mut FlopCounter::new()).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            prop_assert!((l - r).abs() < 1e-8 * (1.0 + r.abs()), "{l} vs {r}");
        }
    }

    /// Partial pivoting and threshold-diagonal pivoting give the same solution.
    #[test]
    fn pivot_strategies_agree((n, entries, b) in dominant_system()) {
        let a = CsrMatrix::from_triplets(n, n, &entries);
        let pp = SparseLu::factor_ordered(
            &a,
            OrderingChoice::Natural,
            PivotStrategy::PartialPivoting,
            &mut FlopCounter::new(),
        )
        .unwrap()
            .solve(&b, &mut FlopCounter::new())
            .unwrap();
        let td = SparseLu::factor(&a, &mut FlopCounter::new())
            .unwrap()
            .solve(&b, &mut FlopCounter::new())
            .unwrap();
        for (p, t) in pp.iter().zip(td.iter()) {
            prop_assert!((p - t).abs() < 1e-8 * (1.0 + p.abs()));
        }
    }

    /// Every fill-reducing ordering solves random systems to the same
    /// answer as natural order (callers never see the permutation).
    #[test]
    fn orderings_agree_with_natural((n, entries, b) in dominant_system()) {
        let a = CsrMatrix::from_triplets(n, n, &entries);
        let xn = SparseLu::factor_ordered(
            &a,
            OrderingChoice::Natural,
            PivotStrategy::default(),
            &mut FlopCounter::new(),
        )
        .unwrap()
        .solve(&b, &mut FlopCounter::new())
        .unwrap();
        let x = SparseLu::factor_ordered(
            &a,
            OrderingChoice::Amd,
            PivotStrategy::default(),
            &mut FlopCounter::new(),
        )
        .unwrap()
        .solve(&b, &mut FlopCounter::new())
        .unwrap();
        for (o, nat) in x.iter().zip(xn.iter()) {
            prop_assert!((o - nat).abs() < 1e-10 * (1.0 + nat.abs()), "{o} vs {nat}");
        }
    }

    /// Orderings are valid permutations and bit-deterministic across
    /// repeated runs *and* across threads (they are pure functions of the
    /// sparsity structure).
    #[test]
    fn orderings_deterministic_across_threads((n, entries, _b) in dominant_system()) {
        let a = CsrMatrix::from_triplets(n, n, &entries);
        for choice in [OrderingChoice::Amd, OrderingChoice::Auto] {
            let reference = SymbolicAnalysis::analyze(&a, choice).unwrap();
            // Valid permutation.
            let mut seen = vec![false; n];
            for &p in reference.fill_perm() {
                prop_assert!(p < n && !seen[p], "{choice:?}: invalid perm");
                seen[p] = true;
            }
            // Same result again on this thread and on 4 fresh threads.
            let again = SymbolicAnalysis::analyze(&a, choice).unwrap();
            prop_assert_eq!(reference.fill_perm(), again.fill_perm());
            let perms: Vec<Vec<usize>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let a = &a;
                        s.spawn(move || {
                            SymbolicAnalysis::analyze(a, choice)
                                .unwrap()
                                .fill_perm()
                                .to_vec()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for p in &perms {
                prop_assert_eq!(reference.fill_perm(), p.as_slice(), "{:?}", choice);
            }
        }
    }

    /// CSR round-trips through dense.
    #[test]
    fn csr_dense_roundtrip((n, entries, _b) in dominant_system()) {
        let a = CsrMatrix::from_triplets(n, n, &entries);
        let back = CsrMatrix::from_dense(&a.to_dense());
        for (r, c, v) in a.iter() {
            prop_assert!((back.get(r, c) - v).abs() < 1e-15);
        }
    }

    /// Triplet duplicate summation matches naive accumulation.
    #[test]
    fn triplet_duplicates_sum(
        n in 1usize..6,
        entries in proptest::collection::vec(((0usize..6), (0usize..6), -5.0f64..5.0), 0..30)
    ) {
        let entries: Vec<_> = entries
            .into_iter()
            .map(|(r, c, v)| (r % n, c % n, v))
            .collect();
        let mut t = TripletMatrix::new(n, n);
        t.extend(entries.iter().cloned());
        let csr = t.to_csr();
        for r in 0..n {
            for c in 0..n {
                let expected: f64 = entries
                    .iter()
                    .filter(|&&(er, ec, _)| er == r && ec == c)
                    .map(|&(_, _, v)| v)
                    .sum();
                prop_assert!((csr.get(r, c) - expected).abs() < 1e-12);
            }
        }
    }

    /// Matvec distributes over vector addition: A(x+y) = Ax + Ay.
    #[test]
    fn matvec_linearity((n, entries, x) in dominant_system(), seed in 0u64..1000) {
        let a = CsrMatrix::from_triplets(n, n, &entries);
        let mut rng = Pcg64::seed_from_u64(seed);
        let y: Vec<f64> = (0..n).map(|_| rng.uniform(-5.0, 5.0)).collect();
        let xy: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let mut f = FlopCounter::new();
        let axy = a.matvec(&xy, &mut f).unwrap();
        let ax = a.matvec(&x, &mut f).unwrap();
        let ay = a.matvec(&y, &mut f).unwrap();
        for i in 0..n {
            prop_assert!((axy[i] - ax[i] - ay[i]).abs() < 1e-9 * (1.0 + axy[i].abs()));
        }
    }

    /// Percentile is monotone in q and bounded by min/max.
    #[test]
    fn percentile_monotone(samples in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
        let p25 = percentile(&samples, 0.25).unwrap();
        let p50 = percentile(&samples, 0.50).unwrap();
        let p75 = percentile(&samples, 0.75).unwrap();
        prop_assert!(p25 <= p50 && p50 <= p75);
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo <= p25 && p75 <= hi);
    }

    /// RunningStats merge is equivalent to pushing everything sequentially.
    #[test]
    fn stats_merge_associative(
        a in proptest::collection::vec(-50.0f64..50.0, 0..30),
        b in proptest::collection::vec(-50.0f64..50.0, 0..30)
    ) {
        let combined: RunningStats = a.iter().chain(b.iter()).copied().collect();
        let mut merged: RunningStats = a.iter().copied().collect();
        let sb: RunningStats = b.iter().copied().collect();
        merged.merge(&sb);
        prop_assert_eq!(merged.count(), combined.count());
        prop_assert!((merged.mean() - combined.mean()).abs() < 1e-9);
        prop_assert!((merged.variance() - combined.variance()).abs() < 1e-7);
    }

    /// PWL eval stays within the convex hull of neighboring breakpoints and
    /// is exact at breakpoints.
    #[test]
    fn pwl_eval_bounded(points in proptest::collection::vec(-10.0f64..10.0, 2..10)) {
        let pts: Vec<(f64, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, &y)| (i as f64, y))
            .collect();
        let f = PwlFunction::new(pts.clone()).unwrap();
        for &(x, y) in &pts {
            prop_assert!((f.eval(x) - y).abs() < 1e-12);
        }
        for w in pts.windows(2) {
            let mid = 0.5 * (w[0].0 + w[1].0);
            let lo = w[0].1.min(w[1].1) - 1e-12;
            let hi = w[0].1.max(w[1].1) + 1e-12;
            let v = f.eval(mid);
            prop_assert!(v >= lo && v <= hi);
        }
    }

    /// The PRNG's uniform doubles honor arbitrary finite ranges.
    #[test]
    fn uniform_in_range(seed in 0u64..10_000, lo in -1e6f64..0.0, width in 1e-3f64..1e6) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let hi = lo + width;
        for _ in 0..32 {
            let x = rng.uniform(lo, hi);
            prop_assert!(x >= lo && x < hi);
        }
    }

    /// Determinant from sparse LU matches the dense determinant.
    #[test]
    fn determinant_matches_dense((n, entries, _b) in dominant_system()) {
        let a = CsrMatrix::from_triplets(n, n, &entries);
        let sparse_det = SparseLu::factor(&a, &mut FlopCounter::new())
            .unwrap()
            .determinant();
        let dense_det = a
            .to_dense()
            .lu(&mut FlopCounter::new())
            .unwrap()
            .determinant();
        prop_assert!(
            (sparse_det - dense_det).abs() < 1e-6 * (1.0 + dense_det.abs()),
            "{sparse_det} vs {dense_det}"
        );
    }

    /// `factor` then `refactor` with perturbed (same-pattern) values matches
    /// a fresh factorization of the perturbed matrix to 1e-12 — the
    /// correctness contract of the KLU-style values-only pass.
    #[test]
    fn refactor_matches_fresh_factor(
        (n, entries, b) in dominant_system(),
        wobble in 0.01f64..0.4,
    ) {
        let a1 = CsrMatrix::from_triplets(n, n, &entries);
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).unwrap();
        // Perturb every stored value deterministically, keeping diagonal
        // dominance (scale, don't sign-flip).
        let mut a2 = a1.clone();
        for (i, v) in a2.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + wobble * ((i % 5) as f64 - 2.0) / 10.0;
        }
        lu.refactor(&a2, &mut FlopCounter::new()).unwrap();
        let fresh = SparseLu::factor(&a2, &mut FlopCounter::new()).unwrap();
        let xr = lu.solve(&b, &mut FlopCounter::new()).unwrap();
        let xf = fresh.solve(&b, &mut FlopCounter::new()).unwrap();
        for (r, f) in xr.iter().zip(xf.iter()) {
            prop_assert!((r - f).abs() < 1e-12 * (1.0 + f.abs()), "{r} vs {f}");
        }
    }

    /// A refactor against a matrix with any *new* structural nonzero is
    /// detected and refused — never silent garbage — and the caching
    /// solver's fallback recovers with a correct full factorization.
    #[test]
    fn refactor_rejects_pattern_growth(
        (n, entries, b) in dominant_system(),
        extra_row in 0usize..12,
        extra_col in 0usize..12,
    ) {
        let a1 = CsrMatrix::from_triplets(n, n, &entries);
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).unwrap();
        let mut solver = SparseLuSolver::new();
        let mut x = Vec::new();
        solver.solve_into(&a1, &b, &mut x, &mut FlopCounter::new()).unwrap();
        let (r, c) = (extra_row % n, extra_col % n);
        prop_assume!(a1.position(r, c).is_none());
        let mut grown = entries.clone();
        grown.push((r, c, 0.5));
        let a2 = CsrMatrix::from_triplets(n, n, &grown);
        match lu.refactor(&a2, &mut FlopCounter::new()) {
            Err(NumericError::PatternChanged { .. }) => {}
            other => prop_assert!(false, "expected PatternChanged, got {other:?}"),
        }
        // The solver falls back to a full factorization whose solution
        // satisfies the grown system.
        solver.solve_into(&a2, &b, &mut x, &mut FlopCounter::new()).unwrap();
        let stats = solver.lu_stats();
        prop_assert_eq!((stats.full_factors, stats.refactors), (2, 0));
        let ax = a2.matvec(&x, &mut FlopCounter::new()).unwrap();
        for (l, rr) in ax.iter().zip(b.iter()) {
            prop_assert!((l - rr).abs() < 1e-7 * (1.0 + rr.abs()), "{l} vs {rr}");
        }
    }

    /// The caching `SparseLuSolver` takes the refactor path across a stream
    /// of same-pattern solves and stays correct on every one.
    #[test]
    fn caching_solver_reuses_and_stays_correct((n, entries, b) in dominant_system()) {
        let mut solver = SparseLuSolver::new();
        let mut x = Vec::new();
        for round in 0..4u32 {
            let mut a = CsrMatrix::from_triplets(n, n, &entries);
            for v in a.values_mut() {
                *v *= 1.0 + 0.1 * round as f64;
            }
            solver.solve_into(&a, &b, &mut x, &mut FlopCounter::new()).unwrap();
            let ax = a.matvec(&x, &mut FlopCounter::new()).unwrap();
            for (l, r) in ax.iter().zip(b.iter()) {
                prop_assert!((l - r).abs() < 1e-8 * (1.0 + r.abs()), "{l} vs {r}");
            }
        }
        let stats = solver.lu_stats();
        prop_assert_eq!(stats.full_factors, 1);
        prop_assert_eq!(stats.refactors, 3);
    }
}
