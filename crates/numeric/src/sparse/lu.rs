//! Numeric phase of the sparse-LU pipeline: left-looking factorization with
//! threshold partial pivoting and KLU-style refactorization, running
//! entirely in the permuted index space of a [`SymbolicAnalysis`].
//!
//! The pipeline has three explicit phases:
//!
//! 1. **ordering** ([`super::order`]) — a fill-reducing permutation computed
//!    from the symmetrized pattern (natural or AMD, selected by
//!    [`OrderingChoice`]);
//! 2. **symbolic** ([`SymbolicAnalysis`]) — the permuted compressed-column
//!    structure plus the CSR→CSC value shuffle, built once per pattern;
//! 3. **numeric** (this module) — the Gilbert–Peierls column factorization
//!    and the values-only refactorization.
//!
//! The numeric algorithm is the Gilbert–Peierls column method: for each
//! permuted column `j` a sparse triangular solve `L·x = A'(:, j)` is
//! performed symbolically (a DFS over the pattern of `L` yielding a
//! topological order) and numerically, after which the pivot is chosen among
//! the not-yet-pivotal rows. Diagonal entries are preferred when within a
//! threshold of the magnitude-maximal candidate, which keeps the permutation
//! stable across the nearly identical matrices of consecutive transient
//! time steps.
//!
//! That stability is what [`SparseLu::refactor`] exploits: once a matrix has
//! been factored, subsequent matrices with the *same sparsity pattern* (the
//! situation in every Newton iteration, SWEC step and Euler–Maruyama step,
//! where only device conductances change) skip the symbolic analysis and the
//! pivot search entirely and run a values-only numeric pass over the cached
//! `L`/`U` structure — the factor-once/refactor-many strategy of production
//! simulators such as KLU. A refactorization that encounters a new nonzero
//! or a numerically degraded pivot reports [`NumericError::PatternChanged`]
//! so callers can fall back to a full factorization with fresh pivoting
//! ([`crate::solve::SparseLuSolver`] packages that policy).
//!
//! Callers never see permuted vectors: the fill permutation is applied on
//! scatter-in ([`SymbolicAnalysis::scatter_values`] and the right-hand-side
//! load of [`SparseLu::solve_into`]) and inverted on the way out, so
//! `solve` takes and returns vectors in original MNA numbering whatever the
//! ordering. With [`OrderingChoice::Natural`] every code path degenerates
//! to the identity and results are bit-identical to the pre-ordering
//! pipeline.
//!
//! Factors are stored as flat compressed-column arrays (`colptr`/`rows`/
//! `vals`), not nested `Vec<Vec<_>>`, so the refactor and solve passes are
//! cache-friendly and allocation-free.

use super::order::OrderingChoice;
use super::symbolic::SymbolicAnalysis;
use super::CsrMatrix;
use crate::error::NumericError;
use crate::flops::FlopCounter;
use crate::Result;

/// Pivoting policy for [`SparseLu::factor_ordered`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PivotStrategy {
    /// Pick the largest-magnitude candidate in the column (classic partial
    /// pivoting; maximal numerical robustness).
    PartialPivoting,
    /// Prefer the diagonal entry when its magnitude is at least `threshold`
    /// times the column maximum (0 < threshold <= 1). MNA matrices are close
    /// to diagonally dominant, and a stable permutation keeps fill-in and
    /// pattern identical across transient steps.
    ThresholdDiagonal {
        /// Fraction of the column maximum the diagonal must reach.
        threshold: f64,
    },
}

impl Default for PivotStrategy {
    fn default() -> Self {
        PivotStrategy::ThresholdDiagonal { threshold: 0.1 }
    }
}

/// A refactorization pivot whose magnitude drops below this fraction of its
/// column maximum is considered numerically degraded; the strict refactor
/// bails out so the caller can re-pivot from scratch, while the tolerant
/// refactor completes and reports the worst ratio so
/// [`crate::solve::SparseLuSolver`] can try iterative refinement first.
pub(crate) const REFACTOR_PIVOT_RATIO: f64 = 1e-6;

/// A refactorization whose worst `|pivot| / column-max` ratio falls below
/// this is treated as numerically singular by [`crate::solve::SparseLuSolver`]:
/// a pivot twelve decades below its column leaves no trustworthy digits in
/// f64, so iterative refinement is not attempted and the failure is
/// surfaced for the engine-level rescue ladder instead. Full
/// factorizations can never trip this — fresh pivoting bounds the ratio at
/// the pivot threshold.
pub const PIVOT_COLLAPSE_RATIO: f64 = 1e-12;

/// Lanes of one interleaved multi-RHS row that are nonzero.
fn nonzero_lanes(xs: &[f64]) -> u64 {
    xs.iter().filter(|v| **v != 0.0).count() as u64
}

/// Sparse LU factors of a square matrix under a fill-reducing ordering
/// (`P·A(q,q) = L·U` with `q` the fill permutation and `P` the pivot
/// permutation), with the symbolic analysis cached for cheap values-only
/// refactorization.
///
/// # Example
/// ```
/// use nanosim_numeric::sparse::{SparseLu, TripletMatrix};
/// use nanosim_numeric::flops::FlopCounter;
/// # fn main() -> Result<(), nanosim_numeric::NumericError> {
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 2.0);
/// t.push(1, 1, 4.0);
/// let mut flops = FlopCounter::new();
/// let mut lu = SparseLu::factor(&t.to_csr(), &mut flops)?;
/// let x = lu.solve(&[2.0, 8.0], &mut flops)?;
/// assert_eq!(x, vec![1.0, 2.0]);
///
/// // Same pattern, new values: reuse the symbolic analysis.
/// let mut t2 = TripletMatrix::new(2, 2);
/// t2.push(0, 0, 4.0);
/// t2.push(1, 1, 8.0);
/// lu.refactor(&t2.to_csr(), &mut flops)?;
/// let x = lu.solve(&[2.0, 8.0], &mut flops)?;
/// assert_eq!(x, vec![0.5, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    pub(crate) n: usize,
    /// Column pointers into `l_rows`/`l_vals`; L column `k` holds entries
    /// strictly below the pivot, already divided by the pivot, with rows in
    /// *permuted* numbering.
    pub(crate) l_colptr: Vec<usize>,
    pub(crate) l_rows: Vec<usize>,
    pub(crate) l_vals: Vec<f64>,
    /// Column pointers into `u_rows`/`u_vals`; U column `j` holds entries
    /// strictly above the diagonal keyed by *pivot index*, ascending.
    pub(crate) u_colptr: Vec<usize>,
    pub(crate) u_rows: Vec<usize>,
    pub(crate) u_vals: Vec<f64>,
    /// Diagonal of U by pivot index.
    pub(crate) u_diag: Vec<f64>,
    /// `perm[k]` = permuted row chosen as the k-th pivot.
    pub(crate) perm: Vec<usize>,
    /// Cached symbolic analysis: fill ordering, permuted CSC structure,
    /// value shuffle, pattern fingerprint.
    pub(crate) sym: SymbolicAnalysis,
    /// Scratch buffers reused by `refactor` (values in permuted CSC order,
    /// dense working column).
    pub(crate) csc_vals: Vec<f64>,
    pub(crate) work: Vec<f64>,
    /// Smallest `|pivot| / column-max` ratio seen by the most recent
    /// numeric pass (factor or refactor) — the reciprocal pivot-growth
    /// health monitor.
    pub(crate) worst_ratio: f64,
    /// Pivot column at which `worst_ratio` occurred.
    pub(crate) worst_col: usize,
}

impl SparseLu {
    /// Factors `a` with the default pivoting strategy in natural order
    /// (no fill-reducing permutation — bit-identical to the pre-pipeline
    /// behavior; use [`SparseLu::factor_ordered`] for AMD or another
    /// [`PivotStrategy`]).
    ///
    /// # Errors
    /// Returns [`NumericError::SingularMatrix`] when a column has no usable
    /// pivot and [`NumericError::DimensionMismatch`] for non-square input.
    pub fn factor(a: &CsrMatrix, flops: &mut FlopCounter) -> Result<Self> {
        Self::factor_ordered(a, OrderingChoice::Natural, PivotStrategy::default(), flops)
    }

    /// The full three-phase entry point: computes (or resolves) the fill
    /// ordering, builds the symbolic analysis, and runs the numeric factor.
    ///
    /// # Errors
    /// Same as [`SparseLu::factor`].
    pub fn factor_ordered(
        a: &CsrMatrix,
        ordering: OrderingChoice,
        strategy: PivotStrategy,
        flops: &mut FlopCounter,
    ) -> Result<Self> {
        let sym = SymbolicAnalysis::analyze(a, ordering)?;
        Self::factor_symbolic(sym, a, strategy, flops)
    }

    /// Numeric factorization against an already-computed
    /// [`SymbolicAnalysis`] (phase 3 alone — share one analysis across many
    /// factorizations of the same pattern).
    ///
    /// # Errors
    /// [`NumericError::PatternChanged`] when `a` does not match the
    /// analyzed pattern, otherwise as [`SparseLu::factor`].
    pub fn factor_symbolic(
        sym: SymbolicAnalysis,
        a: &CsrMatrix,
        strategy: PivotStrategy,
        flops: &mut FlopCounter,
    ) -> Result<Self> {
        if !sym.matches(a) {
            return Err(NumericError::PatternChanged {
                context: format!(
                    "numeric factor of {}x{} ({} nnz) against analysis of {}x{} ({} nnz)",
                    a.rows(),
                    a.cols(),
                    a.nnz(),
                    sym.dim(),
                    sym.dim(),
                    sym.nnz()
                ),
            });
        }
        let n = sym.dim();
        // Scatter the values through the cached shuffle: from here on the
        // factorization works exclusively in permuted index space.
        let mut values = Vec::new();
        sym.scatter_values(a, &mut values);
        let col_ptr = &sym.csc_colptr;
        let row_idx = &sym.csc_rows;

        let mut l_colptr = Vec::with_capacity(n + 1);
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<f64> = Vec::new();
        let mut u_colptr = Vec::with_capacity(n + 1);
        let mut u_rows: Vec<usize> = Vec::new();
        let mut u_vals: Vec<f64> = Vec::new();
        l_colptr.push(0);
        u_colptr.push(0);
        let mut u_diag = vec![0.0; n];
        let mut perm = vec![usize::MAX; n];
        // pinv[row] = pivot index of `row`, or usize::MAX when not pivotal yet.
        let mut pinv = vec![usize::MAX; n];

        let mut x = vec![0.0f64; n]; // dense working column
        let mut visited = vec![usize::MAX; n]; // marks per column j
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();
        let mut ucol: Vec<(usize, f64)> = Vec::new();
        let mut worst_ratio = f64::INFINITY;
        let mut worst_col = 0usize;

        for j in 0..n {
            // Scatter A'(:, j) and collect the reachable pattern via DFS.
            topo.clear();
            for p in col_ptr[j]..col_ptr[j + 1] {
                let r = row_idx[p];
                x[r] = values[p];
            }
            for p in col_ptr[j]..col_ptr[j + 1] {
                let start = row_idx[p];
                if visited[start] == j {
                    continue;
                }
                // Iterative DFS producing a post-order.
                dfs_stack.push((start, 0));
                visited[start] = j;
                while let Some(&(node, child)) = dfs_stack.last() {
                    let k = pinv[node];
                    let next = if k != usize::MAX && child < l_colptr[k + 1] - l_colptr[k] {
                        Some(l_rows[l_colptr[k] + child])
                    } else {
                        None
                    };
                    match next {
                        Some(next) => {
                            dfs_stack.last_mut().expect("stack nonempty").1 += 1;
                            if visited[next] != j {
                                visited[next] = j;
                                dfs_stack.push((next, 0));
                            }
                        }
                        None => {
                            topo.push(node);
                            dfs_stack.pop();
                        }
                    }
                }
            }

            // Numeric sparse triangular solve in reverse post-order
            // (dependencies first).
            for &r in topo.iter().rev() {
                let k = pinv[r];
                if k == usize::MAX {
                    continue;
                }
                let xr = x[r];
                if xr != 0.0 {
                    for p in l_colptr[k]..l_colptr[k + 1] {
                        x[l_rows[p]] -= xr * l_vals[p];
                    }
                    flops.fma((l_colptr[k + 1] - l_colptr[k]) as u64);
                }
            }

            // Pivot selection among non-pivotal rows in the pattern.
            let mut max_abs = 0.0f64;
            let mut max_row = usize::MAX;
            let mut diag_abs = -1.0f64;
            for &r in &topo {
                if pinv[r] == usize::MAX {
                    let v = x[r].abs();
                    if !v.is_finite() {
                        return Err(NumericError::SingularMatrix { pivot: j });
                    }
                    if v > max_abs {
                        max_abs = v;
                        max_row = r;
                    }
                    if r == j {
                        diag_abs = v;
                    }
                }
            }
            if max_row == usize::MAX || max_abs == 0.0 {
                return Err(NumericError::SingularMatrix { pivot: j });
            }
            let pivot_row = match strategy {
                PivotStrategy::PartialPivoting => max_row,
                PivotStrategy::ThresholdDiagonal { threshold } => {
                    if diag_abs >= threshold * max_abs {
                        j
                    } else {
                        max_row
                    }
                }
            };
            let pivot_val = x[pivot_row];
            // Health monitor: reciprocal pivot growth of the fresh pivot
            // (observation only — no floating-point behavior changes).
            let ratio = pivot_val.abs() / max_abs;
            if ratio < worst_ratio {
                worst_ratio = ratio;
                worst_col = j;
            }
            perm[j] = pivot_row;
            pinv[pivot_row] = j;
            u_diag[j] = pivot_val;

            // Split the pattern into U (pivotal rows) and L (the rest). The
            // *entire* reached pattern is kept — including exact numerical
            // zeros — so the stored structure is valid for any values with
            // the same input pattern (a refactor requirement).
            ucol.clear();
            for &r in &topo {
                let v = x[r];
                x[r] = 0.0; // clear for next column
                if r == pivot_row {
                    continue;
                }
                let k = pinv[r];
                if k != usize::MAX && k < j {
                    ucol.push((k, v));
                } else if k == usize::MAX {
                    l_rows.push(r);
                    l_vals.push(v / pivot_val);
                    flops.div(1);
                }
            }
            // Sorted U columns make back-substitution cache-friendly,
            // deterministic, and give refactor its topological order.
            ucol.sort_unstable_by_key(|&(k, _)| k);
            for &(k, v) in &ucol {
                u_rows.push(k);
                u_vals.push(v);
            }
            u_colptr.push(u_rows.len());
            l_colptr.push(l_rows.len());
        }

        // The symbolic analysis is kept for refactorization, and the values
        // buffer becomes its scratch space.
        Ok(SparseLu {
            n,
            l_colptr,
            l_rows,
            l_vals,
            u_colptr,
            u_rows,
            u_vals,
            u_diag,
            perm,
            sym,
            csc_vals: values,
            work: x,
            worst_ratio,
            worst_col,
        })
    }

    /// Recomputes the numeric factors of `a`, reusing the cached symbolic
    /// analysis (ordering, pattern, pivot order, fill structure). This
    /// skips the ordering, the DFS and the pivot search and is the hot path
    /// for the nearly identical matrices of consecutive Newton iterations /
    /// transient steps.
    ///
    /// # Errors
    /// Returns [`NumericError::PatternChanged`] when `a`'s sparsity pattern
    /// differs from the factored one (detected up front — the factors are
    /// left unchanged) *or* when a cached pivot has become numerically
    /// degraded (magnitude below `1e-6` of its column maximum), and
    /// [`NumericError::SingularMatrix`] for an exactly zero pivot. The
    /// latter two abort **mid-pass**, leaving the numeric factors partially
    /// updated and unusable: the caller must re-factor before solving
    /// again ([`crate::solve::SparseLuSolver`] packages exactly that
    /// fallback).
    pub fn refactor(&mut self, a: &CsrMatrix, flops: &mut FlopCounter) -> Result<()> {
        self.refactor_values(a, flops, true).map(|_| ())
    }

    /// Values-only refactorization that **tolerates degraded pivots**:
    /// instead of aborting when a cached pivot decays below the degradation
    /// threshold, the pass completes with the weak pivot and returns the
    /// worst `|pivot| / column-max` ratio seen, so the caller can recover
    /// accuracy with one iterative-refinement step at solve time (see
    /// [`crate::solve::SparseLuSolver`]) instead of paying a full
    /// re-pivoting factorization.
    ///
    /// # Errors
    /// [`NumericError::PatternChanged`] on a pattern mismatch (detected up
    /// front) and [`NumericError::SingularMatrix`] on an exactly zero or
    /// non-finite pivot (aborts mid-pass like [`SparseLu::refactor`]).
    pub fn refactor_tolerant(&mut self, a: &CsrMatrix, flops: &mut FlopCounter) -> Result<f64> {
        self.refactor_values(a, flops, false)
    }

    /// The values-only refactorization shared by [`SparseLu::refactor`]
    /// (`strict`: a degraded pivot is an error) and
    /// [`SparseLu::refactor_tolerant`]; returns the worst pivot ratio.
    fn refactor_values(
        &mut self,
        a: &CsrMatrix,
        flops: &mut FlopCounter,
        strict: bool,
    ) -> Result<f64> {
        if !self.sym.matches(a) {
            return Err(NumericError::PatternChanged {
                context: format!(
                    "refactor of {}x{} ({} nnz) against analysis of {}x{} ({} nnz)",
                    a.rows(),
                    a.cols(),
                    a.nnz(),
                    self.n,
                    self.n,
                    self.sym.nnz()
                ),
            });
        }

        // Every factor array is bound to a local slice before the column
        // loop: stores into `work` would otherwise force the compiler to
        // reload the `Vec` headers behind `&mut self` on every update.
        let l_colptr = &self.l_colptr[..];
        let l_rows = &self.l_rows[..];
        let l_vals = &mut self.l_vals[..];
        let u_colptr = &self.u_colptr[..];
        let u_rows = &self.u_rows[..];
        let u_vals = &mut self.u_vals[..];
        let u_diag = &mut self.u_diag[..];
        let perm = &self.perm[..];
        let csc_colptr = &self.sym.csc_colptr[..];
        let csc_rows = &self.sym.csc_rows[..];
        let csc_vals = &mut self.csc_vals[..];
        let work = &mut self.work[..];

        // Shuffle the new values into the cached permuted CSC order.
        for (&dst, &v) in self.sym.csr_to_csc.iter().zip(a.values()) {
            csc_vals[dst] = v;
        }

        // Flop tallies stay local and reach `flops` once per call, on the
        // success path and on the pivot-failure exit alike.
        let (mut fma, mut div) = (0u64, 0u64);
        let mut worst_ratio = f64::INFINITY;
        let mut worst_col = 0usize;
        for j in 0..self.n {
            let (ulo, uhi) = (u_colptr[j], u_colptr[j + 1]);
            let (llo, lhi) = (l_colptr[j], l_colptr[j + 1]);
            let (clo, chi) = (csc_colptr[j], csc_colptr[j + 1]);
            // Zero the working column over this column's pattern, then
            // scatter A'(:, j). The pattern is exactly: the pivot rows of
            // the U entries, the pivot row itself, and the L rows.
            for &k in &u_rows[ulo..uhi] {
                work[perm[k]] = 0.0;
            }
            work[perm[j]] = 0.0;
            for &r in &l_rows[llo..lhi] {
                work[r] = 0.0;
            }
            for (&r, &v) in csc_rows[clo..chi].iter().zip(&csc_vals[clo..chi]) {
                work[r] = v;
            }

            // Eliminate with already-final columns in ascending pivot order
            // (a topological order, since L[r, k] with pinv[r] = k' implies
            // k < k').
            for (&k, uv) in u_rows[ulo..uhi].iter().zip(&mut u_vals[ulo..uhi]) {
                let ukj = work[perm[k]];
                *uv = ukj;
                if ukj != 0.0 {
                    let (lo, hi) = (l_colptr[k], l_colptr[k + 1]);
                    for (&r, &lv) in l_rows[lo..hi].iter().zip(&l_vals[lo..hi]) {
                        work[r] -= ukj * lv;
                    }
                    fma += (hi - lo) as u64;
                }
            }

            // Fixed pivot: check it is still numerically sound.
            let pivot_val = work[perm[j]];
            let mut col_max = pivot_val.abs();
            for &r in &l_rows[llo..lhi] {
                col_max = col_max.max(work[r].abs());
            }
            let ratio = pivot_val.abs() / col_max;
            let failure = if !pivot_val.is_finite() || pivot_val == 0.0 {
                Some(if pivot_val == 0.0 && col_max > 0.0 && strict {
                    NumericError::PatternChanged {
                        context: format!(
                            "pivot {j} collapsed to 0 against column max {col_max:.3e}"
                        ),
                    }
                } else {
                    NumericError::SingularMatrix { pivot: j }
                })
            } else if strict && ratio < REFACTOR_PIVOT_RATIO {
                Some(NumericError::PatternChanged {
                    context: format!(
                        "pivot {j} degraded to {:.3e} against column max {:.3e}",
                        pivot_val.abs(),
                        col_max
                    ),
                })
            } else {
                None
            };
            if let Some(err) = failure {
                flops.fma(fma);
                flops.div(div);
                return Err(err);
            }
            if ratio < worst_ratio {
                worst_ratio = ratio;
                worst_col = j;
            }
            u_diag[j] = pivot_val;
            for (lv, &r) in l_vals[llo..lhi].iter_mut().zip(&l_rows[llo..lhi]) {
                *lv = work[r] / pivot_val;
            }
            div += (lhi - llo) as u64;
        }
        flops.fma(fma);
        flops.div(div);
        self.worst_ratio = worst_ratio;
        self.worst_col = worst_col;
        Ok(worst_ratio)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Total stored entries in `L` and `U` (fill-in diagnostic).
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.n
    }

    /// Nonzeros of the factored input matrix `A`.
    pub fn nnz_a(&self) -> usize {
        self.sym.nnz()
    }

    /// Fill ratio `nnz(L + U) / nnz(A)` — 1.0 means zero fill-in.
    pub fn fill_ratio(&self) -> f64 {
        self.nnz() as f64 / self.nnz_a().max(1) as f64
    }

    /// Name of the fill ordering actually applied ("natural" or "amd").
    pub fn ordering_name(&self) -> &'static str {
        self.sym.ordering_name()
    }

    /// The cached symbolic analysis.
    pub fn symbolic(&self) -> &SymbolicAnalysis {
        &self.sym
    }

    /// Smallest `|pivot| / column-max` ratio of the most recent numeric
    /// pass — the reciprocal pivot-growth health monitor. `1.0` means
    /// every pivot dominated its column; values below the `1e-6`
    /// degradation threshold indicate decayed pivots, and below
    /// [`PIVOT_COLLAPSE_RATIO`] the factors carry no trustworthy digits.
    pub fn min_recip_pivot(&self) -> f64 {
        self.worst_ratio
    }

    /// Pivot column at which [`SparseLu::min_recip_pivot`] occurred.
    pub fn worst_pivot_col(&self) -> usize {
        self.worst_col
    }

    /// Solves `A·x = b` with the stored factors.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64], flops: &mut FlopCounter) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.n];
        let mut work = vec![0.0; self.n];
        self.solve_into(b, &mut x, &mut work, flops)?;
        Ok(x)
    }

    /// Allocation-free solve `A·x = b` into caller-provided buffers. `x`
    /// receives the solution *in original numbering* — the fill permutation
    /// is applied to `b` on the way in and inverted on the way out, so
    /// callers are ordering-agnostic. `work` is scratch. Both are resized
    /// to the matrix dimension, so reusing the same buffers across calls
    /// performs no allocation after the first.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve_into(
        &self,
        b: &[f64],
        x: &mut Vec<f64>,
        work: &mut Vec<f64>,
        flops: &mut FlopCounter,
    ) -> Result<()> {
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                context: format!("sparse lu solve: rhs of {} for n={}", b.len(), self.n),
            });
        }
        let n = self.n;
        x.resize(n, 0.0);
        work.resize(n, 0.0);
        // Local slices keep the factor arrays out of reach of the stores
        // into `x` and `work` (see `refactor_values`).
        let (x, work) = (&mut x[..], &mut work[..]);
        let (l_colptr, l_rows, l_vals) = (&self.l_colptr[..], &self.l_rows[..], &self.l_vals[..]);
        let (u_colptr, u_rows, u_vals) = (&self.u_colptr[..], &self.u_rows[..], &self.u_vals[..]);
        let fill_perm = &self.sym.fill_perm[..];
        // Forward solve L·z = P·b', working in permuted row numbering
        // (b'[i] = b[q[i]]; the identity fast path keeps the natural-order
        // pipeline bit-exact).
        if self.sym.identity {
            work.copy_from_slice(b);
        } else {
            for (w, &src) in work.iter_mut().zip(fill_perm) {
                *w = b[src];
            }
        }
        let mut fma = 0u64;
        for (k, &row) in self.perm.iter().enumerate() {
            let val = work[row];
            x[k] = val;
            if val != 0.0 {
                let (lo, hi) = (l_colptr[k], l_colptr[k + 1]);
                for (&r, &lv) in l_rows[lo..hi].iter().zip(&l_vals[lo..hi]) {
                    work[r] -= val * lv;
                }
                fma += (hi - lo) as u64;
            }
        }
        // Backward solve U·y = z; the solution index equals the permuted
        // column index.
        for (k, &d) in self.u_diag.iter().enumerate().rev() {
            x[k] /= d;
            let xk = x[k];
            if xk != 0.0 {
                let (lo, hi) = (u_colptr[k], u_colptr[k + 1]);
                for (&r, &uv) in u_rows[lo..hi].iter().zip(&u_vals[lo..hi]) {
                    x[r] -= uv * xk;
                }
                fma += (hi - lo) as u64;
            }
        }
        flops.fma(fma);
        flops.div(n as u64);
        // Undo the fill permutation: x_out[q[k]] = y[k].
        if !self.sym.identity {
            work.copy_from_slice(x);
            for (&w, &dst) in work.iter().zip(fill_perm) {
                x[dst] = w;
            }
        }
        Ok(())
    }

    /// Batched multi-RHS solve `A·X = B` over `nrhs` right-hand sides,
    /// column-major (`b[j*n..][..n]` is column `j`, and the solution lands
    /// in `x[j*n..][..n]`). The sweeps of [`SparseLu::solve_into`] run over
    /// interleaved lanes — the `nrhs` values of one row sit side by side —
    /// so each factor entry is loaded once for every column. Results are
    /// **bit-identical** to `nrhs` independent solves; per-lane flop
    /// accounting matches too.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] if
    /// `b.len() != nrhs * self.dim()` or `nrhs == 0`.
    pub fn solve_many_into(
        &self,
        b: &[f64],
        nrhs: usize,
        x: &mut Vec<f64>,
        work: &mut Vec<f64>,
        flops: &mut FlopCounter,
    ) -> Result<()> {
        let n = self.n;
        if nrhs == 0 || b.len() != n * nrhs {
            return Err(NumericError::DimensionMismatch {
                context: format!(
                    "sparse lu multi-solve: rhs block of {} for n={} x k={}",
                    b.len(),
                    n,
                    nrhs
                ),
            });
        }
        x.resize(n * nrhs, 0.0);
        // One buffer holds both interleaved blocks: `z` in permuted row
        // numbering for the forward sweep, `y` in pivot order for the
        // backward sweep.
        work.resize(2 * n * nrhs, 0.0);
        let (z, y) = work.split_at_mut(n * nrhs);
        let (l_colptr, l_rows, l_vals) = (&self.l_colptr[..], &self.l_rows[..], &self.l_vals[..]);
        let (u_colptr, u_rows, u_vals) = (&self.u_colptr[..], &self.u_rows[..], &self.u_vals[..]);
        let fill_perm = &self.sym.fill_perm[..];
        for (zi, &src) in z.chunks_exact_mut(nrhs).zip(fill_perm) {
            for (r, v) in zi.iter_mut().enumerate() {
                *v = b[r * n + src];
            }
        }
        // Forward solve L·z = P·b'. A column is skipped only when every
        // lane is zero; the flop count charges the nonzero lanes alone,
        // as `nrhs` single solves would.
        let mut fma = 0u64;
        for (k, (vals, &row)) in y.chunks_exact_mut(nrhs).zip(&self.perm).enumerate() {
            vals.copy_from_slice(&z[row * nrhs..(row + 1) * nrhs]);
            let nz = nonzero_lanes(vals);
            if nz > 0 {
                let (lo, hi) = (l_colptr[k], l_colptr[k + 1]);
                for (&r, &lv) in l_rows[lo..hi].iter().zip(&l_vals[lo..hi]) {
                    for (d, &v) in z[r * nrhs..(r + 1) * nrhs].iter_mut().zip(&*vals) {
                        *d -= v * lv;
                    }
                }
                fma += nz * (hi - lo) as u64;
            }
        }
        // Backward solve U·y = z.
        for (k, &d) in self.u_diag.iter().enumerate().rev() {
            let (head, tail) = y.split_at_mut(k * nrhs);
            let vals = &mut tail[..nrhs];
            for v in vals.iter_mut() {
                *v /= d;
            }
            let nz = nonzero_lanes(vals);
            if nz > 0 {
                let (lo, hi) = (u_colptr[k], u_colptr[k + 1]);
                for (&r, &uv) in u_rows[lo..hi].iter().zip(&u_vals[lo..hi]) {
                    for (d, &v) in head[r * nrhs..(r + 1) * nrhs].iter_mut().zip(&*vals) {
                        *d -= uv * v;
                    }
                }
                fma += nz * (hi - lo) as u64;
            }
        }
        flops.fma(fma);
        flops.div((n * nrhs) as u64);
        // Scatter out, undoing the fill permutation per lane.
        for (yk, &dst) in y.chunks_exact(nrhs).zip(fill_perm) {
            for (r, &v) in yk.iter().enumerate() {
                x[r * n + dst] = v;
            }
        }
        Ok(())
    }

    /// Determinant of the original matrix (product of pivots times the
    /// pivot-permutation parity; the symmetric fill permutation has even
    /// combined parity and never changes the sign).
    pub fn determinant(&self) -> f64 {
        let mut det: f64 = self.u_diag.iter().product();
        // Parity of the permutation perm.
        let mut seen = vec![false; self.n];
        for start in 0..self.n {
            if seen[start] {
                continue;
            }
            let mut len = 0usize;
            let mut cur = start;
            while !seen[cur] {
                seen[cur] = true;
                cur = self.perm[cur];
                len += 1;
            }
            if len % 2 == 0 {
                det = -det;
            }
        }
        det
    }

    /// The pivot permutation (`perm[k]` = permuted row chosen as the k-th
    /// pivot). Exposed for tests.
    #[cfg(test)]
    pub(crate) fn pivot_perm(&self) -> &[usize] {
        &self.perm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::sparse::TripletMatrix;

    fn solve_via_sparse(entries: &[(usize, usize, f64)], n: usize, b: &[f64]) -> Vec<f64> {
        let a = CsrMatrix::from_triplets(n, n, entries);
        let lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        lu.solve(b, &mut FlopCounter::new()).unwrap()
    }

    #[test]
    fn diagonal_system() {
        let x = solve_via_sparse(
            &[(0, 0, 2.0), (1, 1, 4.0), (2, 2, 8.0)],
            3,
            &[2.0, 4.0, 8.0],
        );
        assert_eq!(x, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn dense_agreement_on_fixed_matrix() {
        let entries = [
            (0, 0, 4.0),
            (0, 1, -1.0),
            (0, 2, 0.5),
            (1, 0, -1.0),
            (1, 1, 3.0),
            (1, 2, -1.0),
            (2, 0, 0.5),
            (2, 1, -1.0),
            (2, 2, 5.0),
        ];
        let b = [1.0, -2.0, 3.0];
        let xs = solve_via_sparse(&entries, 3, &b);
        let dense = TripletMatrix::new(3, 3);
        let mut t = dense;
        t.extend(entries.iter().cloned());
        let xd = t.to_dense().solve(&b, &mut FlopCounter::new()).unwrap();
        for (a, b) in xs.iter().zip(xd.iter()) {
            assert!(approx_eq(*a, *b, 1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // a11 = 0 forces off-diagonal pivot.
        let entries = [(0, 1, 1.0), (1, 0, 1.0)];
        let x = solve_via_sparse(&entries, 2, &[5.0, 9.0]);
        assert!(approx_eq(x[0], 9.0, 1e-15));
        assert!(approx_eq(x[1], 5.0, 1e-15));
    }

    #[test]
    fn singular_matrix_detected() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0)]);
        match SparseLu::factor(&a, &mut FlopCounter::new()) {
            Err(NumericError::SingularMatrix { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn structurally_empty_column_is_singular() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 0.0)]);
        assert!(SparseLu::factor(&a, &mut FlopCounter::new()).is_err());
    }

    #[test]
    fn non_square_rejected() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(SparseLu::factor(&a, &mut FlopCounter::new()).is_err());
    }

    #[test]
    fn rhs_length_checked() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        assert!(lu.solve(&[1.0], &mut FlopCounter::new()).is_err());
    }

    #[test]
    fn determinant_matches_dense() {
        let entries = [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)];
        let a = CsrMatrix::from_triplets(2, 2, &entries);
        let lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        assert!(approx_eq(lu.determinant(), 5.0, 1e-12));
    }

    #[test]
    fn determinant_sign_with_permutation() {
        let entries = [(0, 1, 1.0), (1, 0, 1.0)];
        let a = CsrMatrix::from_triplets(2, 2, &entries);
        let lu = SparseLu::factor_ordered(
            &a,
            OrderingChoice::Natural,
            PivotStrategy::PartialPivoting,
            &mut FlopCounter::new(),
        )
        .unwrap();
        assert!(approx_eq(lu.determinant(), -1.0, 1e-12));
    }

    #[test]
    fn partial_pivoting_strategy_picks_max() {
        // Column 0 has entries 1.0 (row 0) and -10.0 (row 1): PP must pick row 1.
        let entries = [(0, 0, 1.0), (1, 0, -10.0), (0, 1, 1.0), (1, 1, 1.0)];
        let a = CsrMatrix::from_triplets(2, 2, &entries);
        let lu = SparseLu::factor_ordered(
            &a,
            OrderingChoice::Natural,
            PivotStrategy::PartialPivoting,
            &mut FlopCounter::new(),
        )
        .unwrap();
        assert_eq!(lu.pivot_perm()[0], 1);
    }

    #[test]
    fn threshold_diagonal_prefers_diagonal() {
        let entries = [(0, 0, 1.0), (1, 0, -5.0), (0, 1, 1.0), (1, 1, 1.0)];
        let a = CsrMatrix::from_triplets(2, 2, &entries);
        let lu = SparseLu::factor_ordered(
            &a,
            OrderingChoice::Natural,
            PivotStrategy::ThresholdDiagonal { threshold: 0.1 },
            &mut FlopCounter::new(),
        )
        .unwrap();
        assert_eq!(lu.pivot_perm()[0], 0);
        // And the solve is still correct.
        let x = lu.solve(&[2.0, -4.0], &mut FlopCounter::new()).unwrap();
        // A = [[1, 1], [-5, 1]]; b = [2, -4] -> x = [1, 1]
        assert!(approx_eq(x[0], 1.0, 1e-12));
        assert!(approx_eq(x[1], 1.0, 1e-12));
    }

    #[test]
    fn tridiagonal_large_system() {
        // -u'' discretization: tridiagonal [-1, 2, -1], solution recoverable.
        let n = 50;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
        }
        let a = t.to_csr();
        let lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        let b = vec![1.0; n];
        let x = lu.solve(&b, &mut FlopCounter::new()).unwrap();
        // Verify A·x = b.
        let ax = a.matvec(&x, &mut FlopCounter::new()).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!(approx_eq(*l, *r, 1e-9), "{l} vs {r}");
        }
        // Fill-in for a tridiagonal matrix with diagonal pivoting is zero.
        assert_eq!(lu.nnz(), a.nnz());
        assert!(approx_eq(lu.fill_ratio(), 1.0, 1e-15));
    }

    #[test]
    fn flops_counted_during_factor_and_solve() {
        let entries = [(0, 0, 4.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 3.0)];
        let a = CsrMatrix::from_triplets(2, 2, &entries);
        let mut f = FlopCounter::new();
        let lu = SparseLu::factor(&a, &mut f).unwrap();
        assert!(f.total() > 0);
        let before = f;
        lu.solve(&[1.0, 1.0], &mut f).unwrap();
        assert!(f.total() > before.total());
    }

    #[test]
    fn refactor_matches_fresh_factor() {
        // Same pattern, different values: refactor must reproduce a fresh
        // factorization's solution exactly (identical pivot order => the
        // same floating-point operations).
        let n = 30;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0 + i as f64 * 0.1);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -0.5);
            }
            if i + 5 < n {
                t.push(i, i + 5, 0.25);
            }
        }
        let a1 = t.to_csr();
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).unwrap();

        // Perturb every value, keeping the pattern.
        let mut a2 = a1.clone();
        for (i, v) in a2.values_mut().iter_mut().enumerate() {
            *v += 0.01 * (i as f64 % 7.0 - 3.0);
        }
        lu.refactor(&a2, &mut FlopCounter::new()).unwrap();
        let fresh = SparseLu::factor(&a2, &mut FlopCounter::new()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let xr = lu.solve(&b, &mut FlopCounter::new()).unwrap();
        let xf = fresh.solve(&b, &mut FlopCounter::new()).unwrap();
        for (r, f) in xr.iter().zip(xf.iter()) {
            assert!(approx_eq(*r, *f, 1e-12), "{r} vs {f}");
        }
    }

    #[test]
    fn refactor_detects_new_nonzero() {
        let a1 = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 4.0)]);
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).unwrap();
        // A new structural nonzero must be rejected, not silently dropped.
        let a2 = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 4.0)]);
        match lu.refactor(&a2, &mut FlopCounter::new()) {
            Err(NumericError::PatternChanged { .. }) => {}
            other => panic!("expected PatternChanged, got {other:?}"),
        }
        // The original factors survive the failed refactor.
        let x = lu.solve(&[2.0, 8.0], &mut FlopCounter::new()).unwrap();
        assert_eq!(x, vec![1.0, 2.0]);
        // A full factorization of the grown pattern solves it.
        let lu = SparseLu::factor(&a2, &mut FlopCounter::new()).unwrap();
        let x = lu.solve(&[2.0, 4.0], &mut FlopCounter::new()).unwrap();
        assert!(approx_eq(x[0], 0.5, 1e-15), "{}", x[0]);
        assert!(approx_eq(x[1], 1.0, 1e-15), "{}", x[1]);
    }

    #[test]
    fn refactor_detects_degraded_pivot() {
        // Factor with a healthy diagonal, then refactor with the diagonal
        // collapsed so the cached pivot is 1e-9 of the column max: the
        // refactor must refuse rather than amplify rounding error.
        let entries = [(0, 0, 5.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 5.0)];
        let a1 = CsrMatrix::from_triplets(2, 2, &entries);
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).unwrap();
        let degraded = [(0, 0, 1e-9), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 5.0)];
        let a2 = CsrMatrix::from_triplets(2, 2, &degraded);
        match lu.refactor(&a2, &mut FlopCounter::new()) {
            Err(NumericError::PatternChanged { .. }) => {}
            other => panic!("expected degraded-pivot rejection, got {other:?}"),
        }
        // A full factorization re-pivots and solves correctly.
        let lu = SparseLu::factor(&a2, &mut FlopCounter::new()).unwrap();
        let x = lu.solve(&[1.0, 6.0], &mut FlopCounter::new()).unwrap();
        let ax0 = 1e-9 * x[0] + 1.0 * x[1];
        let ax1 = 1.0 * x[0] + 5.0 * x[1];
        assert!(approx_eq(ax0, 1.0, 1e-9), "{ax0}");
        assert!(approx_eq(ax1, 6.0, 1e-9), "{ax1}");
    }

    #[test]
    fn refactor_handles_permuted_factors() {
        // Force an off-diagonal pivot, then refactor with new values: the
        // permuted structure must still round-trip.
        let entries = [(0, 1, 2.0), (1, 0, 3.0), (1, 1, 0.5)];
        let a1 = CsrMatrix::from_triplets(2, 2, &entries);
        let mut lu = SparseLu::factor_ordered(
            &a1,
            OrderingChoice::Natural,
            PivotStrategy::PartialPivoting,
            &mut FlopCounter::new(),
        )
        .unwrap();
        let entries2 = [(0, 1, 4.0), (1, 0, 5.0), (1, 1, 1.0)];
        let a2 = CsrMatrix::from_triplets(2, 2, &entries2);
        lu.refactor(&a2, &mut FlopCounter::new()).unwrap();
        let x = lu.solve(&[4.0, 6.0], &mut FlopCounter::new()).unwrap();
        // [[0, 4], [5, 1]] x = [4, 6] -> x = [1, 1]
        assert!(approx_eq(x[0], 1.0, 1e-12), "{}", x[0]);
        assert!(approx_eq(x[1], 1.0, 1e-12), "{}", x[1]);
    }

    #[test]
    fn refactor_with_fill_in_columns() {
        // A matrix whose factorization has fill-in: refactor must scatter
        // zeros into fill positions that A does not touch.
        let entries = [
            (0, 0, 4.0),
            (0, 2, 1.0),
            (1, 0, 1.0),
            (1, 1, 4.0),
            (2, 1, 1.0),
            (2, 2, 4.0),
        ];
        let a1 = CsrMatrix::from_triplets(3, 3, &entries);
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).unwrap();
        let entries2 = [
            (0, 0, 5.0),
            (0, 2, 2.0),
            (1, 0, 2.0),
            (1, 1, 5.0),
            (2, 1, 2.0),
            (2, 2, 5.0),
        ];
        let a2 = CsrMatrix::from_triplets(3, 3, &entries2);
        lu.refactor(&a2, &mut FlopCounter::new()).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = lu.solve(&b, &mut FlopCounter::new()).unwrap();
        let ax = a2.matvec(&x, &mut FlopCounter::new()).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!(approx_eq(*l, *r, 1e-12), "{l} vs {r}");
        }
    }

    #[test]
    fn solve_into_reuses_buffers() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 4.0)]);
        let lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        let mut x = Vec::new();
        let mut work = Vec::new();
        lu.solve_into(&[2.0, 8.0], &mut x, &mut work, &mut FlopCounter::new())
            .unwrap();
        assert_eq!(x, vec![1.0, 2.0]);
        let cap_x = x.capacity();
        lu.solve_into(&[4.0, 4.0], &mut x, &mut work, &mut FlopCounter::new())
            .unwrap();
        assert_eq!(x, vec![2.0, 1.0]);
        assert_eq!(x.capacity(), cap_x, "no reallocation on reuse");
    }

    /// Arrow matrix: dense first row/column + diagonal. Natural order
    /// fills completely; minimum degree keeps L+U as sparse as A.
    fn arrow(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0 + i as f64 * 0.01);
            if i > 0 {
                t.push(0, i, 1.0);
                t.push(i, 0, 1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn amd_ordering_eliminates_arrow_fill() {
        let a = arrow(40);
        let mut f = FlopCounter::new();
        let nat = SparseLu::factor_ordered(
            &a,
            OrderingChoice::Natural,
            PivotStrategy::default(),
            &mut f,
        )
        .unwrap();
        let amd =
            SparseLu::factor_ordered(&a, OrderingChoice::Amd, PivotStrategy::default(), &mut f)
                .unwrap();
        assert!(
            amd.nnz() < nat.nnz(),
            "amd nnz {} !< natural nnz {}",
            amd.nnz(),
            nat.nnz()
        );
        // AMD eliminates the hub last: zero fill on an arrow matrix.
        assert_eq!(amd.nnz(), a.nnz());
        assert_eq!(amd.ordering_name(), "amd");
        assert_eq!(nat.ordering_name(), "natural");
    }

    #[test]
    fn ordered_solutions_match_natural() {
        let a = arrow(25);
        let b: Vec<f64> = (0..25).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut f = FlopCounter::new();
        let x_nat = SparseLu::factor(&a, &mut f)
            .unwrap()
            .solve(&b, &mut f)
            .unwrap();
        let x = SparseLu::factor_ordered(&a, OrderingChoice::Amd, PivotStrategy::default(), &mut f)
            .unwrap()
            .solve(&b, &mut f)
            .unwrap();
        for (o, n) in x.iter().zip(x_nat.iter()) {
            assert!(approx_eq(*o, *n, 1e-10), "{o} vs {n}");
        }
    }

    #[test]
    fn ordered_refactor_round_trips() {
        // Refactor under a fill-reducing ordering must solve as exactly as
        // a fresh ordered factor.
        let a1 = arrow(20);
        let mut lu = SparseLu::factor_ordered(
            &a1,
            OrderingChoice::Amd,
            PivotStrategy::default(),
            &mut FlopCounter::new(),
        )
        .unwrap();
        let mut a2 = a1.clone();
        for (i, v) in a2.values_mut().iter_mut().enumerate() {
            *v += 0.02 * ((i % 5) as f64 - 2.0);
        }
        lu.refactor(&a2, &mut FlopCounter::new()).unwrap();
        let b: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
        let x = lu.solve(&b, &mut FlopCounter::new()).unwrap();
        let ax = a2.matvec(&x, &mut FlopCounter::new()).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!(approx_eq(*l, *r, 1e-10), "{l} vs {r}");
        }
    }

    #[test]
    fn ordered_fallback_keeps_ordering_choice() {
        let mut solver = crate::solve::SparseLuSolver::with_ordering(OrderingChoice::Amd);
        let (mut x, mut f) = (Vec::new(), FlopCounter::new());
        solver
            .solve_into(&arrow(15), &[1.0; 15], &mut x, &mut f)
            .unwrap();
        // A different pattern forces the solver's full-factor fallback,
        // which must re-analyze under the same ordering choice.
        solver
            .solve_into(&arrow(16), &[1.0; 16], &mut x, &mut f)
            .unwrap();
        assert_eq!(solver.lu_stats().full_factors, 2);
        assert_eq!(solver.ordering_name(), "amd");
        assert_eq!(x.len(), 16);
    }

    #[test]
    fn factor_symbolic_shares_analysis() {
        let a = arrow(12);
        let sym = SymbolicAnalysis::analyze(&a, OrderingChoice::Amd).unwrap();
        let lu1 = SparseLu::factor_symbolic(
            sym.clone(),
            &a,
            PivotStrategy::default(),
            &mut FlopCounter::new(),
        )
        .unwrap();
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 1.5;
        }
        let lu2 = SparseLu::factor_symbolic(
            sym.clone(),
            &a2,
            PivotStrategy::default(),
            &mut FlopCounter::new(),
        )
        .unwrap();
        assert_eq!(lu1.nnz(), lu2.nnz());
        // A mismatched matrix is rejected up front.
        let b = arrow(13);
        assert!(matches!(
            SparseLu::factor_symbolic(sym, &b, PivotStrategy::default(), &mut FlopCounter::new()),
            Err(NumericError::PatternChanged { .. })
        ));
    }

    fn mesh(m: usize) -> CsrMatrix {
        // 2-D grid conductance pattern (the Table I mesh structure).
        let n = m * m;
        let mut t = TripletMatrix::new(n, n);
        for r in 0..m {
            for c in 0..m {
                let v = r * m + c;
                t.push(v, v, 4.0 + (v as f64) * 0.01);
                if c + 1 < m {
                    t.push(v, v + 1, -1.0);
                    t.push(v + 1, v, -1.0);
                }
                if r + 1 < m {
                    t.push(v, v + m, -1.0);
                    t.push(v + m, v, -1.0);
                }
            }
        }
        t.to_csr()
    }

    /// FNV-1a over 64-bit words: folds solution bits and flop counts into
    /// one pinned value.
    struct Digest(u64);

    impl Digest {
        fn word(&mut self, w: u64) {
            for byte in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        fn floats(&mut self, xs: &[f64]) {
            for x in xs {
                self.word(x.to_bits());
            }
        }

        fn flops(&mut self, f: &FlopCounter) {
            for w in [f.adds(), f.muls(), f.divs(), f.funcs()] {
                self.word(w);
            }
        }
    }

    #[test]
    fn pinned_mesh30_factor_refactor_solves() {
        // A 900-unknown grid under natural and AMD order: factor, tolerant
        // refactor, one solve and a 6-RHS batched solve, pinned bit for
        // bit together with the exact flop count of each phase.
        let a1 = mesh(30);
        let n = a1.rows();
        assert_eq!(n, 900);
        let mut a2 = a1.clone();
        for (i, v) in a2.values_mut().iter_mut().enumerate() {
            *v += 0.01 * ((i % 5) as f64 - 2.0);
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
        let k = 6;
        // Lane 2 is zero but for one entry, so lanes go live at different
        // columns and the per-lane flop accounting is exercised.
        let bm: Vec<f64> = (0..n * k)
            .map(|i| match i / n {
                2 if i % n == n / 2 => 1.0,
                2 => 0.0,
                _ => (i as f64 * 0.17).sin(),
            })
            .collect();
        let mut digests = Vec::new();
        for choice in [OrderingChoice::Natural, OrderingChoice::Amd] {
            let mut d = Digest(0xcbf2_9ce4_8422_2325);
            let mut f = FlopCounter::new();
            let mut lu =
                SparseLu::factor_ordered(&a1, choice, PivotStrategy::default(), &mut f).unwrap();
            d.flops(&f);
            let mut f = FlopCounter::new();
            let ratio = lu.refactor_tolerant(&a2, &mut f).unwrap();
            d.floats(&[ratio]);
            d.flops(&f);
            let (mut x, mut w) = (Vec::new(), Vec::new());
            let mut f = FlopCounter::new();
            lu.solve_into(&b, &mut x, &mut w, &mut f).unwrap();
            d.floats(&x);
            d.flops(&f);
            let mut f = FlopCounter::new();
            lu.solve_many_into(&bm, k, &mut x, &mut w, &mut f).unwrap();
            d.floats(&x);
            d.flops(&f);
            digests.push(d.0);
        }
        assert_eq!(
            digests,
            [0x4ad8_6e46_cade_c8ec, 0x6409_172a_5b5d_5bf7],
            "natural/AMD digests {digests:#018x?}"
        );
    }

    #[test]
    fn solve_many_matches_independent_solves() {
        let a = mesh(7);
        let n = a.rows();
        let lu = SparseLu::factor_ordered(
            &a,
            OrderingChoice::Amd,
            PivotStrategy::default(),
            &mut FlopCounter::new(),
        )
        .unwrap();
        let k = 5;
        let b: Vec<f64> = (0..n * k).map(|i| ((i as f64) * 0.17).sin()).collect();
        let mut fm = FlopCounter::new();
        let (mut xm, mut work) = (Vec::new(), Vec::new());
        lu.solve_many_into(&b, k, &mut xm, &mut work, &mut fm)
            .unwrap();
        let mut fs = FlopCounter::new();
        for j in 0..k {
            let xj = lu.solve(&b[j * n..(j + 1) * n], &mut fs).unwrap();
            assert_eq!(&xm[j * n..(j + 1) * n], &xj[..], "column {j} bits");
        }
        assert_eq!(fm, fs, "multi-RHS flops match k independent solves");
    }

    #[test]
    fn solve_many_validates_shapes() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        let (mut x, mut work) = (Vec::new(), Vec::new());
        let mut solve = |b: &[f64], nrhs| {
            lu.solve_many_into(b, nrhs, &mut x, &mut work, &mut FlopCounter::new())
        };
        assert!(solve(&[1.0, 2.0], 0).is_err());
        assert!(solve(&[1.0, 2.0, 3.0], 2).is_err());
        solve(&[1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn tolerant_refactor_reports_degraded_ratio() {
        let entries = [(0, 0, 5.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 5.0)];
        let a1 = CsrMatrix::from_triplets(2, 2, &entries);
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).unwrap();
        // Healthy values: ratio close to 1.
        let ratio = lu.refactor_tolerant(&a1, &mut FlopCounter::new()).unwrap();
        assert!(ratio > REFACTOR_PIVOT_RATIO, "healthy ratio {ratio}");
        // Collapsed diagonal: strict refuses, tolerant completes and
        // reports how weak the pivot is.
        let degraded = [(0, 0, 1e-9), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 5.0)];
        let a2 = CsrMatrix::from_triplets(2, 2, &degraded);
        assert!(lu.refactor(&a2, &mut FlopCounter::new()).is_err());
        let ratio = lu.refactor_tolerant(&a2, &mut FlopCounter::new()).unwrap();
        assert!(ratio < REFACTOR_PIVOT_RATIO, "degraded ratio {ratio}");
        // The weak factors still solve approximately; one refinement step
        // recovers full accuracy (the SparseLuSolver policy).
        let b = [1.0, 6.0];
        let mut x = lu.solve(&b, &mut FlopCounter::new()).unwrap();
        let r: Vec<f64> = {
            let ax = a2.matvec(&x, &mut FlopCounter::new()).unwrap();
            b.iter().zip(ax.iter()).map(|(bi, ai)| bi - ai).collect()
        };
        let dx = lu.solve(&r, &mut FlopCounter::new()).unwrap();
        for (xi, di) in x.iter_mut().zip(dx.iter()) {
            *xi += di;
        }
        let ax = a2.matvec(&x, &mut FlopCounter::new()).unwrap();
        assert!((ax[0] - 1.0).abs() < 1e-9 && (ax[1] - 6.0).abs() < 1e-9);
    }

    /// `(adds, muls, divs)` of a counter, for exact flop pins.
    fn tally(f: &FlopCounter) -> (u64, u64, u64) {
        (f.adds(), f.muls(), f.divs())
    }

    #[test]
    fn pinned_refactor_early_exits() {
        // Every abort of the values-only refactor, pinned with its error
        // variant and the exact flops charged before the abort. The 3×3
        // tridiagonal factors healthy; the refactor values then cancel
        // column 1's pivot after one elimination step.
        let healthy = [
            (0, 0, 4.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 4.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (2, 2, 4.0),
        ];
        let a = CsrMatrix::from_triplets(3, 3, &healthy);
        let fresh = || SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        let with_diag1 = |v: f64| {
            let mut e = healthy;
            for t in &mut e {
                t.2 = if t.0 == 1 && t.1 == 1 { v } else { 1.0 };
            }
            CsrMatrix::from_triplets(3, 3, &e)
        };

        // Strict, degraded pivot: 1 + 2^-40 - 1 against a column max of 1.
        let mut f = FlopCounter::new();
        let r = fresh().refactor(&with_diag1(1.0 + 2f64.powi(-40)), &mut f);
        assert!(
            matches!(r, Err(NumericError::PatternChanged { .. })),
            "{r:?}"
        );
        assert_eq!(tally(&f), (1, 1, 1));

        // Strict, pivot collapsed to exactly 0 in a nonzero column.
        let mut f = FlopCounter::new();
        let r = fresh().refactor(&with_diag1(1.0), &mut f);
        assert!(
            matches!(r, Err(NumericError::PatternChanged { .. })),
            "{r:?}"
        );
        assert_eq!(tally(&f), (1, 1, 1));

        // Tolerant, the same zero pivot.
        let mut f = FlopCounter::new();
        let r = fresh().refactor_tolerant(&with_diag1(1.0), &mut f);
        assert!(
            matches!(r, Err(NumericError::SingularMatrix { pivot: 1 })),
            "{r:?}"
        );
        assert_eq!(tally(&f), (1, 1, 1));

        // NaN pivot, strict and tolerant, deep in a 36-unknown grid.
        let m = mesh(6);
        let mut nan = m.clone();
        nan.values_mut()[m.position(20, 20).unwrap()] = f64::NAN;
        for strict in [true, false] {
            let mut lu = SparseLu::factor(&m, &mut FlopCounter::new()).unwrap();
            let mut f = FlopCounter::new();
            let r = if strict {
                lu.refactor(&nan, &mut f)
            } else {
                lu.refactor_tolerant(&nan, &mut f).map(|_| ())
            };
            assert!(
                matches!(r, Err(NumericError::SingularMatrix { pivot: 20 })),
                "{r:?}"
            );
            assert_eq!(tally(&f), (540, 540, 110), "strict={strict}");
        }

        // Pattern mismatch: rejected up front with zero flops.
        let mut f = FlopCounter::new();
        let r = fresh().refactor_tolerant(&m, &mut f);
        assert!(
            matches!(r, Err(NumericError::PatternChanged { .. })),
            "{r:?}"
        );
        assert_eq!(tally(&f), (0, 0, 0));
    }

    #[test]
    fn determinant_invariant_under_ordering() {
        let a = arrow(9);
        let mut f = FlopCounter::new();
        let d_nat = SparseLu::factor(&a, &mut f).unwrap().determinant();
        let d = SparseLu::factor_ordered(&a, OrderingChoice::Amd, PivotStrategy::default(), &mut f)
            .unwrap()
            .determinant();
        let rel = (d - d_nat).abs() / d_nat.abs().max(1e-300);
        assert!(rel < 1e-9, "{d} vs {d_nat}");
    }
}
