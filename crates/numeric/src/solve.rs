//! The stateful sparse-LU solver the simulation engines call.
//!
//! [`SparseLuSolver`] keeps the last factorization and, when asked to
//! solve a matrix with the same sparsity pattern, reuses the cached
//! symbolic analysis through a tolerant values-only refactor — the
//! factor-once/refactor-many strategy the transient engines rely on. A
//! refactor whose cached pivot has degraded no longer forces a full
//! re-pivot: the solver completes the pass and recovers accuracy with one
//! **iterative-refinement step** at solve time, re-pivoting only when the
//! refined residual is still unacceptable (counted in
//! [`LuStats::refinement_steps`]). The [`SparseLuSolver::solve_into`]
//! entry point avoids allocating the solution vector, so a warmed-up
//! solver performs zero heap allocations per solve, and
//! [`SparseLuSolver::solve_many_into`] batches many right-hand sides
//! through one factor traversal. Tests check it against the dense
//! reference, [`crate::DenseMatrix::solve`].
//!
//! The solver carries an [`OrderingChoice`]: the fill-reducing ordering
//! is applied inside the cached analysis (phase 1 of the ordering →
//! symbolic → numeric pipeline) and is completely transparent to callers —
//! right-hand sides and solutions stay in original numbering. [`LuStats`]
//! exposes the resulting fill and work telemetry (`nnz_lu`, fill ratio,
//! the factor/refactor/solve flop split and refinement counts) that the
//! engine statistics surface.

use crate::flops::FlopCounter;
use crate::sparse::{CsrMatrix, OrderingChoice, PivotStrategy, SparseLu};
use crate::Result;
use std::sync::Arc;

/// Cumulative factorization telemetry of one [`SparseLuSolver`]: counts,
/// the factor-vs-refactor flop split, and the fill of the current cached
/// factorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuStats {
    /// Full (ordering + symbolic + numeric) factorizations performed.
    pub full_factors: u64,
    /// Values-only refactorizations that reused the cached analysis.
    pub refactors: u64,
    /// Floating point operations spent in full factorizations.
    pub factor_flops: u64,
    /// Floating point operations spent in refactorizations.
    pub refactor_flops: u64,
    /// Floating point operations spent in triangular solves (forward /
    /// backward substitution after the factors were ready).
    pub solve_flops: u64,
    /// Iterative-refinement steps performed on degraded-pivot
    /// refactorizations (each one extends the life of the cached analysis
    /// past a pivot decay that previously forced a full re-pivot).
    pub refinement_steps: u64,
    /// `nnz(L + U)` of the current cached factorization (0 when cold).
    pub nnz_lu: u64,
    /// `nnz(A)` of the current cached factorization (0 when cold).
    pub nnz_a: u64,
    /// Smallest `|pivot| / column-max` ratio seen across every numeric
    /// pass this solver has run — the reciprocal pivot-growth health
    /// monitor. `f64::INFINITY` when no factorization has run yet.
    pub min_recip_pivot: f64,
}

impl Default for LuStats {
    fn default() -> Self {
        LuStats {
            full_factors: 0,
            refactors: 0,
            factor_flops: 0,
            refactor_flops: 0,
            solve_flops: 0,
            refinement_steps: 0,
            nnz_lu: 0,
            nnz_a: 0,
            min_recip_pivot: f64::INFINITY,
        }
    }
}

impl LuStats {
    /// Fill ratio `nnz(L + U) / nnz(A)`; 0 when no factorization is cached.
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz_a == 0 {
            0.0
        } else {
            self.nnz_lu as f64 / self.nnz_a as f64
        }
    }
}

/// Sparse LU solver (Gilbert–Peierls with threshold diagonal pivoting and
/// a selectable fill-reducing ordering) with cached-factorization reuse
/// across same-pattern solves.
#[derive(Debug, Clone, Default)]
pub struct SparseLuSolver {
    ordering: OrderingChoice,
    cached: Option<SparseLu>,
    /// Cached factors carry a degraded pivot (tolerant refactor): solves
    /// run one iterative-refinement step and fall back to a full
    /// re-pivoting factorization only when refinement cannot restore
    /// accuracy.
    degraded: bool,
    /// One-shot override armed by [`SparseLuSolver::force_degraded`]:
    /// consumed by the next `ensure_factors`, which then reports the pass
    /// degraded regardless of the measured pivot ratios.
    force_degrade: bool,
    work: Vec<f64>,
    /// Residual / correction scratch of the refinement step.
    resid: Vec<f64>,
    corr: Vec<f64>,
    full_factors: u64,
    refactors: u64,
    factor_flops: u64,
    refactor_flops: u64,
    solve_flops: u64,
    refinement_steps: u64,
    /// Smallest reciprocal pivot-growth ratio seen across the solver's
    /// lifetime (`None` before the first factorization).
    min_recip_pivot: Option<f64>,
}

impl SparseLuSolver {
    /// Creates a sparse solver with the default pivot strategy and the
    /// default [`OrderingChoice::Auto`] fill ordering.
    pub fn new() -> Self {
        SparseLuSolver::default()
    }

    /// Creates a sparse solver with an explicit fill-reducing ordering.
    pub fn with_ordering(ordering: OrderingChoice) -> Self {
        SparseLuSolver {
            ordering,
            ..SparseLuSolver::default()
        }
    }

    /// Cumulative factorization telemetry: counts, flop split, and the
    /// fill of the cached analysis.
    pub fn lu_stats(&self) -> LuStats {
        let (nnz_lu, nnz_a) = match &self.cached {
            Some(lu) => (lu.nnz() as u64, lu.nnz_a() as u64),
            None => (0, 0),
        };
        LuStats {
            full_factors: self.full_factors,
            refactors: self.refactors,
            factor_flops: self.factor_flops,
            refactor_flops: self.refactor_flops,
            solve_flops: self.solve_flops,
            refinement_steps: self.refinement_steps,
            nnz_lu,
            nnz_a,
            min_recip_pivot: self.min_recip_pivot.unwrap_or(f64::INFINITY),
        }
    }

    /// Name of the ordering applied by the cached factorization, or the
    /// configured choice's tag when cold.
    pub fn ordering_name(&self) -> &'static str {
        match &self.cached {
            Some(lu) => lu.ordering_name(),
            None => self.ordering.name(),
        }
    }

    /// Test-support hook for the fault-injection harness: routes the next
    /// solve through the degraded-pivot refinement path as if its
    /// factorization pass had reported pivot decay. One-shot — the flag is
    /// consumed by the next solve and healthy passes after that clear it
    /// as usual.
    pub fn force_degraded(&mut self) {
        self.force_degrade = true;
    }

    /// Folds a pass's worst reciprocal pivot ratio into the lifetime
    /// minimum.
    fn note_ratio(&mut self, ratio: f64) {
        self.min_recip_pivot = Some(match self.min_recip_pivot {
            Some(m) => m.min(ratio),
            None => ratio,
        });
    }

    /// Solves `a·x = b`, recording floating point operations in `flops`.
    ///
    /// # Errors
    /// Returns a [`crate::NumericError`] when the matrix is singular, the
    /// shapes mismatch or the solution is not finite.
    pub fn solve(&mut self, a: &CsrMatrix, b: &[f64], flops: &mut FlopCounter) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        self.solve_into(a, b, &mut x, flops)?;
        Ok(x)
    }

    /// Solves `a·x = b` into a caller-provided buffer (resized as needed),
    /// refactoring the cached factors when the pattern is unchanged. A
    /// warmed-up solver performs no allocation here.
    ///
    /// # Errors
    /// Same as [`SparseLuSolver::solve`].
    pub fn solve_into(
        &mut self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut Vec<f64>,
        flops: &mut FlopCounter,
    ) -> Result<()> {
        self.ensure_factors(a, flops)?;
        self.solve_one(a, b, x, flops)?;
        Self::screen_finite(x, a.rows(), 0)
    }

    /// Solves `a·X = B` for `nrhs` right-hand sides given column-major in
    /// `b` (`b[j*n..][..n]` is column `j`), writing the solutions
    /// column-major into `x`. One factor (or refactor) serves the block
    /// and healthy factors are traversed **once** for all columns;
    /// results are bit-identical to `nrhs` [`SparseLuSolver::solve_into`]
    /// calls.
    ///
    /// # Errors
    /// Same as [`SparseLuSolver::solve`]; additionally rejects
    /// `nrhs == 0` or a `b` whose length is not `nrhs * a.rows()`.
    pub fn solve_many_into(
        &mut self,
        a: &CsrMatrix,
        b: &[f64],
        nrhs: usize,
        x: &mut Vec<f64>,
        flops: &mut FlopCounter,
    ) -> Result<()> {
        let n = a.rows();
        if nrhs == 0 || b.len() != n * nrhs {
            return Err(crate::NumericError::DimensionMismatch {
                context: format!(
                    "multi-rhs solve: rhs block of {} for n={n} x k={nrhs}",
                    b.len()
                ),
            });
        }
        self.ensure_factors(a, flops)?;
        if self.degraded {
            // Degraded factors refine per right-hand side, exactly like
            // `nrhs` independent `solve_into` calls would — keeping the
            // bit-for-bit equivalence in the degraded regime too.
            x.resize(n * nrhs, 0.0);
            let mut col = Vec::new();
            for j in 0..nrhs {
                self.solve_one(a, &b[j * n..(j + 1) * n], &mut col, flops)?;
                Self::screen_finite(&col, n, j)?;
                x[j * n..(j + 1) * n].copy_from_slice(&col);
            }
            return Ok(());
        }
        let solve_start = flops.total();
        let lu = self.cached.as_ref().expect("factors ensured above");
        lu.solve_many_into(b, nrhs, x, &mut self.work, flops)?;
        self.solve_flops += flops.total() - solve_start;
        Self::screen_finite(x, n, 0)
    }

    /// Refactors (tolerantly) or factors so the cached factorization
    /// matches `a`, maintaining the factor/refactor accounting and the
    /// `degraded` flag the solve paths consult.
    fn ensure_factors(&mut self, a: &CsrMatrix, flops: &mut FlopCounter) -> Result<()> {
        let before = flops.total();
        match &mut self.cached {
            Some(lu) => {
                // Degraded pivots no longer abort the refactor: the pass
                // completes and the solve recovers accuracy with one
                // iterative-refinement step, extending the cached
                // analysis's life past pivot decay. Work burned in a
                // failed attempt is still refactor work, not factor work.
                match lu.refactor_tolerant(a, flops) {
                    Ok(worst_ratio) => {
                        let worst_col = lu.worst_pivot_col();
                        self.refactors += 1;
                        self.refactor_flops += flops.total() - before;
                        self.degraded = worst_ratio < crate::sparse::REFACTOR_PIVOT_RATIO;
                        self.note_ratio(worst_ratio);
                        // A pivot this far gone leaves no trustworthy
                        // digits — refinement cannot rescue it, so the
                        // failure surfaces for the engine-level ladder.
                        if worst_ratio < crate::sparse::PIVOT_COLLAPSE_RATIO {
                            return Err(crate::NumericError::SingularMatrix { pivot: worst_col });
                        }
                    }
                    Err(crate::NumericError::PatternChanged { .. })
                    | Err(crate::NumericError::SingularMatrix { .. }) => {
                        self.refactor_flops += flops.total() - before;
                        self.full_factor(a, flops)?;
                    }
                    Err(e) => return Err(e),
                }
            }
            None => {
                let lu =
                    SparseLu::factor_ordered(a, self.ordering, PivotStrategy::default(), flops)?;
                let ratio = lu.min_recip_pivot();
                self.cached = Some(lu);
                self.full_factors += 1;
                self.factor_flops += flops.total() - before;
                self.degraded = false;
                self.note_ratio(ratio);
            }
        }
        if std::mem::take(&mut self.force_degrade) {
            self.degraded = true;
        }
        Ok(())
    }

    /// Full re-pivoting factorization of `a`, reusing the cached symbolic
    /// analysis when the pattern still matches (only a genuine pattern
    /// change re-runs the ordering).
    fn full_factor(&mut self, a: &CsrMatrix, flops: &mut FlopCounter) -> Result<()> {
        let start = flops.total();
        let fresh = match &self.cached {
            Some(lu) if lu.symbolic().matches(a) => {
                SparseLu::factor_symbolic(Arc::clone(&lu.sym), a, PivotStrategy::default(), flops)?
            }
            _ => SparseLu::factor_ordered(a, self.ordering, PivotStrategy::default(), flops)?,
        };
        let ratio = fresh.min_recip_pivot();
        self.cached = Some(fresh);
        self.full_factors += 1;
        self.factor_flops += flops.total() - start;
        self.degraded = false;
        self.note_ratio(ratio);
        Ok(())
    }

    /// NaN/Inf screen applied to every solution leaving the solver: a
    /// non-finite entry is surfaced as a structured error, naming its row
    /// and right-hand-side column, before it can silently corrupt an
    /// engine iterate. `x` holds column-major columns of `n` rows, the
    /// first being column `first_col`. Read-only — no floating-point
    /// behavior changes on healthy solves.
    fn screen_finite(x: &[f64], n: usize, first_col: usize) -> Result<()> {
        match x.iter().position(|v| !v.is_finite()) {
            Some(i) => Err(crate::NumericError::NonFiniteValue {
                context: format!(
                    "sparse lu solution column {}, row {}",
                    first_col + i / n,
                    i % n
                ),
            }),
            None => Ok(()),
        }
    }

    /// One solve against the already-ensured factors, with the
    /// degraded-pivot refinement policy applied (shared by the single- and
    /// the degraded multi-RHS paths). The caller screens the result.
    fn solve_one(
        &mut self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut Vec<f64>,
        flops: &mut FlopCounter,
    ) -> Result<()> {
        let solve_start = flops.total();
        let lu = self.cached.as_ref().expect("factors ensured");
        lu.solve_into(b, x, &mut self.work, flops)?;
        if self.degraded {
            // Try one residual-refinement step before surrendering the
            // cached pivot order; only an unrecoverable residual pays for
            // a full re-pivot.
            if !self.refine_once(a, b, x, flops)? {
                self.solve_flops += flops.total() - solve_start;
                self.full_factor(a, flops)?;
                let resolve_start = flops.total();
                let lu = self.cached.as_ref().expect("factors ensured");
                lu.solve_into(b, x, &mut self.work, flops)?;
                self.solve_flops += flops.total() - resolve_start;
                return Ok(());
            }
        }
        self.solve_flops += flops.total() - solve_start;
        Ok(())
    }

    /// One iterative-refinement step on `x` (`r = b − A·x`, solve the
    /// correction, apply it), returning whether the refined solution's
    /// residual is acceptably small relative to the problem scale.
    fn refine_once(
        &mut self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        flops: &mut FlopCounter,
    ) -> Result<bool> {
        /// Relative residual (∞-norm, against `‖b‖ + ‖A·x‖`) below which a
        /// refined degraded-pivot solve is accepted without re-pivoting.
        const REFINE_ACCEPT: f64 = 1e-9;
        let n = x.len();
        self.resid.resize(n, 0.0);
        a.matvec_into(x, &mut self.resid, flops)?;
        for (r, bi) in self.resid.iter_mut().zip(b) {
            *r = bi - *r;
        }
        flops.add(n as u64);
        let Self {
            cached, work, corr, ..
        } = self;
        let lu = cached.as_ref().expect("factors ensured");
        lu.solve_into(&self.resid, corr, work, flops)?;
        for (xi, c) in x.iter_mut().zip(&self.corr) {
            *xi += c;
        }
        flops.add(n as u64);
        self.refinement_steps += 1;
        // Accept when the post-refinement residual is small against the
        // natural scale of the system.
        a.matvec_into(x, &mut self.resid, flops)?;
        let mut scale = 0.0f64;
        let mut resid_max = 0.0f64;
        for (ax, bi) in self.resid.iter().zip(b) {
            scale = scale.max(ax.abs()).max(bi.abs());
            resid_max = resid_max.max((bi - ax).abs());
        }
        flops.add(n as u64);
        Ok(resid_max.is_finite() && resid_max <= REFINE_ACCEPT * scale.max(f64::MIN_POSITIVE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::sparse::TripletMatrix;

    /// `(full factorizations, refactorizations)` performed so far.
    fn counts(s: &SparseLuSolver) -> (u64, u64) {
        let stats = s.lu_stats();
        (stats.full_factors, stats.refactors)
    }

    fn test_system() -> (CsrMatrix, Vec<f64>) {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 5.0);
        t.push(0, 1, -1.0);
        t.push(1, 0, -1.0);
        t.push(1, 1, 4.0);
        t.push(1, 2, -2.0);
        t.push(2, 1, -2.0);
        t.push(2, 2, 6.0);
        (t.to_csr(), vec![1.0, 2.0, 3.0])
    }

    #[test]
    fn dense_and_sparse_agree() {
        let (a, b) = test_system();
        let mut sparse = SparseLuSolver::new();
        let xd = a.to_dense().solve(&b, &mut FlopCounter::new()).unwrap();
        let xs = sparse.solve(&a, &b, &mut FlopCounter::new()).unwrap();
        for (d, s) in xd.iter().zip(xs.iter()) {
            assert!(approx_eq(*d, *s, 1e-12));
        }
    }

    #[test]
    fn solution_satisfies_system() {
        let (a, b) = test_system();
        let mut sparse = SparseLuSolver::new();
        let x = sparse.solve(&a, &b, &mut FlopCounter::new()).unwrap();
        let ax = a.matvec(&x, &mut FlopCounter::new()).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!(approx_eq(*l, *r, 1e-12));
        }
    }

    #[test]
    fn repeated_solves_reuse_the_factorization() {
        let (a, b) = test_system();
        let mut sparse = SparseLuSolver::new();
        let mut x = Vec::new();
        sparse
            .solve_into(&a, &b, &mut x, &mut FlopCounter::new())
            .unwrap();
        assert_eq!(counts(&sparse), (1, 0));
        // Same pattern, perturbed values: must refactor, not factor.
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 1.25;
        }
        sparse
            .solve_into(&a2, &b, &mut x, &mut FlopCounter::new())
            .unwrap();
        assert_eq!(counts(&sparse), (1, 1));
        let ax = a2.matvec(&x, &mut FlopCounter::new()).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!(approx_eq(*l, *r, 1e-12));
        }
        // A different pattern falls back to a full factorization.
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        t.push(2, 2, 1.0);
        sparse
            .solve_into(&t.to_csr(), &b, &mut x, &mut FlopCounter::new())
            .unwrap();
        assert_eq!(counts(&sparse), (2, 1));
        assert_eq!(x, b);
    }

    #[test]
    fn lu_stats_split_factor_and_refactor_flops() {
        let (a, b) = test_system();
        let mut sparse = SparseLuSolver::new();
        let mut x = Vec::new();
        let mut flops = FlopCounter::new();
        sparse.solve_into(&a, &b, &mut x, &mut flops).unwrap();
        let s1 = sparse.lu_stats();
        assert_eq!((s1.full_factors, s1.refactors), (1, 0));
        assert!(s1.factor_flops > 0);
        assert_eq!(s1.refactor_flops, 0);
        assert_eq!(s1.nnz_a, a.nnz() as u64);
        assert!(s1.nnz_lu >= s1.nnz_a, "L+U at least as dense as A");
        assert!(s1.fill_ratio() >= 1.0);
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 2.0;
        }
        sparse.solve_into(&a2, &b, &mut x, &mut flops).unwrap();
        let s2 = sparse.lu_stats();
        assert_eq!((s2.full_factors, s2.refactors), (1, 1));
        assert!(s2.refactor_flops > 0);
        assert_eq!(s2.factor_flops, s1.factor_flops, "no new factor flops");
    }

    #[test]
    fn explicit_ordering_is_applied_and_transparent() {
        // Arrow matrix large enough that fill differs between orderings.
        let n = 30;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i > 0 {
                t.push(0, i, 1.0);
                t.push(i, 0, 1.0);
            }
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut nat = SparseLuSolver::with_ordering(OrderingChoice::Natural);
        let mut amd = SparseLuSolver::with_ordering(OrderingChoice::Amd);
        let xn = nat.solve(&a, &b, &mut FlopCounter::new()).unwrap();
        let xa = amd.solve(&a, &b, &mut FlopCounter::new()).unwrap();
        for (l, r) in xn.iter().zip(xa.iter()) {
            assert!(approx_eq(*l, *r, 1e-10), "{l} vs {r}");
        }
        assert!(amd.lu_stats().nnz_lu < nat.lu_stats().nnz_lu);
        assert_eq!(amd.ordering_name(), "amd");
        assert_eq!(nat.ordering_name(), "natural");
    }

    #[test]
    fn cold_solver_reports_configured_ordering() {
        let s = SparseLuSolver::with_ordering(OrderingChoice::Amd);
        assert_eq!(s.ordering_name(), "amd");
        assert_eq!(s.lu_stats(), LuStats::default());
        assert_eq!(s.lu_stats().fill_ratio(), 0.0);
    }

    #[test]
    fn degraded_refactor_refines_instead_of_repivoting() {
        // Healthy factor, then values that collapse the cached pivot to
        // 1e-9 of its column max: the solver must complete the tolerant
        // refactor, apply one refinement step, and keep the cached pivot
        // order alive (no new full factorization).
        let entries = [(0, 0, 5.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 5.0)];
        let a1 = CsrMatrix::from_triplets(2, 2, &entries);
        let mut solver = SparseLuSolver::new();
        let b = [1.0, 6.0];
        let mut x = Vec::new();
        let mut flops = FlopCounter::new();
        solver.solve_into(&a1, &b, &mut x, &mut flops).unwrap();
        assert_eq!(solver.lu_stats().refinement_steps, 0);
        let degraded = [(0, 0, 1e-9), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 5.0)];
        let a2 = CsrMatrix::from_triplets(2, 2, &degraded);
        solver.solve_into(&a2, &b, &mut x, &mut flops).unwrap();
        let stats = solver.lu_stats();
        assert_eq!(stats.full_factors, 1, "refinement avoided the re-pivot");
        assert_eq!(stats.refactors, 1);
        assert_eq!(stats.refinement_steps, 1);
        assert!(stats.solve_flops > 0);
        // The refined solution satisfies the degraded system tightly.
        let ax = a2.matvec(&x, &mut flops).unwrap();
        assert!((ax[0] - 1.0).abs() < 1e-9 && (ax[1] - 6.0).abs() < 1e-9);
        // A healthy refactor afterwards clears the degraded state: no
        // further refinement.
        solver.solve_into(&a1, &b, &mut x, &mut flops).unwrap();
        assert_eq!(solver.lu_stats().refinement_steps, 1);
    }

    #[test]
    fn pivot_collapse_is_reported_as_singular() {
        // Healthy factor, then values that collapse the cached pivot 13
        // decades below its column max: refinement has no digits to work
        // with, so the solver must surface a singular-matrix failure for
        // the engine-level rescue ladder instead of solving garbage.
        let entries = [(0, 0, 5.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 5.0)];
        let a1 = CsrMatrix::from_triplets(2, 2, &entries);
        let mut solver = SparseLuSolver::new();
        let b = [1.0, 6.0];
        let mut x = Vec::new();
        let mut flops = FlopCounter::new();
        solver.solve_into(&a1, &b, &mut x, &mut flops).unwrap();
        let collapsed = [(0, 0, 1e-13), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 5.0)];
        let a2 = CsrMatrix::from_triplets(2, 2, &collapsed);
        let err = solver.solve_into(&a2, &b, &mut x, &mut flops).unwrap_err();
        assert!(
            matches!(err, crate::NumericError::SingularMatrix { .. }),
            "{err:?}"
        );
        // The health monitor recorded the collapse.
        assert!(solver.lu_stats().min_recip_pivot < 1e-12);
        // A clean retry on the healthy values recovers bit-identically.
        let mut fresh = SparseLuSolver::new();
        let mut xf = Vec::new();
        fresh.solve_into(&a1, &b, &mut xf, &mut flops).unwrap();
        solver.solve_into(&a1, &b, &mut x, &mut flops).unwrap();
        assert_eq!(x, xf);
    }

    #[test]
    fn nan_poisoned_system_is_screened_not_solved() {
        let (a, b) = test_system();
        let mut solver = SparseLuSolver::new();
        let mut x = Vec::new();
        let mut flops = FlopCounter::new();
        solver.solve_into(&a, &b, &mut x, &mut flops).unwrap();
        // NaN in the rhs propagates into the solution: the screen must
        // reject it as a structured error, never return NaN silently.
        let bad = [1.0, f64::NAN, 3.0];
        let err = solver.solve_into(&a, &bad, &mut x, &mut flops).unwrap_err();
        assert!(
            matches!(err, crate::NumericError::NonFiniteValue { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn min_recip_pivot_tracks_factorization_health() {
        let (a, b) = test_system();
        let mut solver = SparseLuSolver::new();
        let mut flops = FlopCounter::new();
        solver.solve(&a, &b, &mut flops).unwrap();
        let r1 = solver.lu_stats().min_recip_pivot;
        assert!(r1.is_finite() && r1 > 0.0 && r1 <= 1.0, "{r1}");
        // A refactor with decayed (but not collapsed) pivots drags the
        // lifetime minimum down.
        let mut a2 = a.clone();
        let p = a2.position(0, 0).unwrap();
        a2.values_mut()[p] = 1e-4;
        solver.solve(&a2, &b, &mut flops).unwrap();
        let r2 = solver.lu_stats().min_recip_pivot;
        assert!(r2 < r1, "{r2} !< {r1}");
    }

    #[test]
    fn force_degraded_routes_through_refinement() {
        let (a, b) = test_system();
        let mut solver = SparseLuSolver::new();
        let mut x = Vec::new();
        let mut flops = FlopCounter::new();
        solver.solve_into(&a, &b, &mut x, &mut flops).unwrap();
        assert_eq!(solver.lu_stats().refinement_steps, 0);
        // The one-shot flag must survive the (healthy) refactor the next
        // solve performs and route that solve through refinement.
        solver.force_degraded();
        solver.solve_into(&a, &b, &mut x, &mut flops).unwrap();
        assert!(solver.lu_stats().refinement_steps >= 1);
        let ax = a.matvec(&x, &mut flops).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!(approx_eq(*l, *r, 1e-9));
        }
    }

    #[test]
    fn solver_batched_solve_matches_singles() {
        let (a, _) = test_system();
        let n = a.rows();
        let k = 5;
        let b: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.29).sin()).collect();
        let mut batched = SparseLuSolver::new();
        let mut singles = SparseLuSolver::new();
        let mut xb = Vec::new();
        let mut flops = FlopCounter::new();
        batched
            .solve_many_into(&a, &b, k, &mut xb, &mut flops)
            .unwrap();
        for j in 0..k {
            let xj = singles
                .solve(&a, &b[j * n..(j + 1) * n], &mut FlopCounter::new())
                .unwrap();
            assert_eq!(&xb[j * n..(j + 1) * n], &xj[..], "column {j} bits");
        }
        // One factorization serves the whole batch.
        assert_eq!(counts(&batched), (1, 0));
        assert!(batched.lu_stats().solve_flops > 0);
        // Shape validation.
        assert!(batched
            .solve_many_into(&a, &b[..n], 0, &mut xb, &mut flops)
            .is_err());
        assert!(batched
            .solve_many_into(&a, &b[..n + 1], 2, &mut xb, &mut flops)
            .is_err());
    }

    #[test]
    fn degraded_batched_solve_refines_every_column() {
        let (a, _) = test_system();
        let n = a.rows();
        let k = 4;
        let b: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.43).cos()).collect();
        let mut solver = SparseLuSolver::new();
        let mut x = Vec::new();
        let mut flops = FlopCounter::new();
        solver.solve_into(&a, &b[..n], &mut x, &mut flops).unwrap();
        let before = solver.lu_stats();
        solver.force_degraded();
        solver
            .solve_many_into(&a, &b, k, &mut x, &mut flops)
            .unwrap();
        let after = solver.lu_stats();
        assert_eq!(after.full_factors, before.full_factors);
        assert_eq!(after.refactors, before.refactors + 1, "one refactor");
        assert_eq!(after.refinement_steps, before.refinement_steps + k as u64);
        for j in 0..k {
            let (xj, bj) = (&x[j * n..(j + 1) * n], &b[j * n..(j + 1) * n]);
            let ax = a.matvec(xj, &mut flops).unwrap();
            let norm = |v: &[f64]| v.iter().fold(0.0f64, |m, e| m.max(e.abs()));
            let resid: Vec<f64> = ax.iter().zip(bj).map(|(l, r)| l - r).collect();
            assert!(
                norm(&resid) <= 1e-9 * norm(&ax).max(norm(bj)),
                "column {j}: residual {}",
                norm(&resid)
            );
        }
    }

    #[test]
    fn batched_screen_names_column_and_row() {
        // Diagonal, so the NaN stays in the row it was put in.
        let n = 3;
        let a = CsrMatrix::from_triplets(n, n, &[(0, 0, 2.0), (1, 1, 3.0), (2, 2, 4.0)]);
        let mut b = vec![1.0; n * 3];
        b[2 * n + 1] = f64::NAN;
        let mut solver = SparseLuSolver::new();
        let mut x = Vec::new();
        let err = solver
            .solve_many_into(&a, &b, 3, &mut x, &mut FlopCounter::new())
            .unwrap_err();
        match err {
            crate::NumericError::NonFiniteValue { context } => {
                assert_eq!(context, "sparse lu solution column 2, row 1");
            }
            other => panic!("expected NonFiniteValue, got {other:?}"),
        }
    }
}
