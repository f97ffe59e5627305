//! The symbolic phase of the sparse-LU pipeline: apply a fill-reducing
//! ordering and build the permuted column structure once.
//!
//! A [`SymbolicAnalysis`] is everything about a factorization that depends
//! only on the *sparsity pattern* of the input: the resolved fill ordering,
//! the permuted compressed-column structure the numeric factor iterates
//! over, the CSR→permuted-CSC value shuffle that makes re-scattering new
//! values allocation-free, and the CSR fingerprint used to detect pattern
//! changes. One analysis serves arbitrarily many numeric factorizations
//! and refactorizations of matrices with the same pattern — the
//! factor-once/refactor-many strategy of production simulators, now with
//! the ordering decision lifted out of the factorizer.
//!
//! The factor's own structure does **not** live here: the `L`/`U`
//! pattern depends on the pivot order the numeric phase chooses, so
//! [`super::SparseLu`] records it once its pivots are fixed. The
//! analysis's job is to hand the numeric phase a fill-reducing permutation
//! (AMD with supervariables + elimination-tree postorder).

use super::order::OrderingChoice;
use super::CsrMatrix;
use crate::error::NumericError;
use crate::Result;

/// Pattern-only analysis shared by every numeric factorization of one
/// sparsity structure: fill ordering + permuted CSC structure + value
/// shuffle + fingerprint.
#[derive(Debug, Clone)]
pub struct SymbolicAnalysis {
    pub(crate) n: usize,
    /// Name of the resolved ordering actually applied.
    pub(crate) ordering_name: &'static str,
    /// `fill_perm[k]` = original index at permuted position `k`.
    pub(crate) fill_perm: Vec<usize>,
    /// Inverse: `fill_pinv[orig]` = permuted position.
    pub(crate) fill_pinv: Vec<usize>,
    /// Fast path flag: the permutation is the identity.
    pub(crate) identity: bool,
    /// CSR fingerprint of the analyzed pattern.
    pub(crate) csr_rowptr: Vec<usize>,
    pub(crate) csr_colidx: Vec<usize>,
    /// Permuted compressed-column structure of the pattern.
    pub(crate) csc_colptr: Vec<usize>,
    pub(crate) csc_rows: Vec<usize>,
    /// Position shuffle: CSR value slot `p` lands in permuted CSC slot
    /// `csr_to_csc[p]`.
    pub(crate) csr_to_csc: Vec<usize>,
}

impl SymbolicAnalysis {
    /// Analyzes the pattern of `a` under the given ordering choice
    /// (`Auto` resolves against the dimension here).
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] for non-square input.
    pub fn analyze(a: &CsrMatrix, choice: OrderingChoice) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(NumericError::DimensionMismatch {
                context: format!("symbolic analysis of non-square {}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let (row_ptr, col_idx) = a.structure();
        let fill_perm = choice.perm(n, row_ptr, col_idx);
        let identity = fill_perm.iter().enumerate().all(|(k, &v)| k == v);
        let mut fill_pinv = vec![0usize; n];
        for (k, &v) in fill_perm.iter().enumerate() {
            fill_pinv[v] = k;
        }
        let (csc_colptr, csc_rows, csr_to_csc) =
            permuted_csc_shuffle(n, row_ptr, col_idx, &fill_pinv);
        Ok(SymbolicAnalysis {
            n,
            ordering_name: choice.resolve(n).name(),
            fill_perm,
            fill_pinv,
            identity,
            csr_rowptr: row_ptr.to_vec(),
            csr_colidx: col_idx.to_vec(),
            csc_colptr,
            csc_rows,
            csr_to_csc,
        })
    }

    /// Dimension of the analyzed pattern.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Nonzeros in the analyzed pattern.
    pub fn nnz(&self) -> usize {
        self.csr_colidx.len()
    }

    /// Name of the resolved ordering ("natural" or "amd").
    pub fn ordering_name(&self) -> &'static str {
        self.ordering_name
    }

    /// The fill permutation (`perm[k]` = original index at position `k`).
    pub fn fill_perm(&self) -> &[usize] {
        &self.fill_perm
    }

    /// The inverse fill permutation (`pinv[orig]` = permuted position).
    pub fn fill_pinv(&self) -> &[usize] {
        &self.fill_pinv
    }

    /// Whether `a` has exactly the analyzed sparsity pattern.
    pub fn matches(&self, a: &CsrMatrix) -> bool {
        let (row_ptr, col_idx) = a.structure();
        a.rows() == self.n
            && a.cols() == self.n
            && row_ptr == self.csr_rowptr.as_slice()
            && col_idx == self.csr_colidx.as_slice()
    }
}

/// Builds the CSC structure of the symmetrically permuted pattern
/// `A(perm, perm)` plus the position shuffle mapping each CSR value slot of
/// `A` to its permuted CSC slot. With the identity permutation this is
/// exactly the plain CSR→CSC transpose shuffle.
fn permuted_csc_shuffle(
    n: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
    pinv: &[usize],
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let nnz = col_idx.len();
    let mut counts = vec![0usize; n];
    for &c in col_idx {
        counts[pinv[c]] += 1;
    }
    let mut col_ptr = vec![0usize; n + 1];
    for j in 0..n {
        col_ptr[j + 1] = col_ptr[j] + counts[j];
    }
    let mut rows = vec![0usize; nnz];
    let mut shuffle = vec![0usize; nnz];
    let mut next = col_ptr.clone();
    for r in 0..n {
        for p in row_ptr[r]..row_ptr[r + 1] {
            let c = pinv[col_idx[p]];
            let q = next[c];
            rows[q] = pinv[r];
            shuffle[p] = q;
            next[c] += 1;
        }
    }
    (col_ptr, rows, shuffle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    fn arrow_matrix(n: usize) -> CsrMatrix {
        // Dense first row/column + diagonal: natural order fills
        // completely, minimum degree keeps it sparse.
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i > 0 {
                t.push(0, i, 1.0);
                t.push(i, 0, 1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn natural_analysis_is_identity() {
        let a = arrow_matrix(6);
        let s = SymbolicAnalysis::analyze(&a, OrderingChoice::Natural).unwrap();
        assert!(s.identity);
        assert_eq!(s.ordering_name(), "natural");
        assert_eq!(s.fill_perm(), (0..6).collect::<Vec<_>>());
        assert!(s.matches(&a));
    }

    #[test]
    fn amd_eliminates_arrow_hub_last() {
        let a = arrow_matrix(8);
        let s = SymbolicAnalysis::analyze(&a, OrderingChoice::Amd).unwrap();
        assert_eq!(s.ordering_name(), "amd");
        // The hub (vertex 0, degree 7) is deferred while leaves (degree 1)
        // are eliminated; once its degree decays to 1 it may tie-break in,
        // so it lands in the last two positions — either way zero fill.
        let hub_pos = s.fill_perm().iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= 6, "hub eliminated too early: position {hub_pos}");
    }

    #[test]
    fn auto_resolves_small_to_natural() {
        let a = arrow_matrix(6);
        let s = SymbolicAnalysis::analyze(&a, OrderingChoice::Auto).unwrap();
        assert_eq!(s.ordering_name(), "natural");
    }

    #[test]
    fn mismatched_pattern_detected() {
        let a = arrow_matrix(6);
        let s = SymbolicAnalysis::analyze(&a, OrderingChoice::Natural).unwrap();
        let b = arrow_matrix(7);
        assert!(!s.matches(&b));
    }

    #[test]
    fn non_square_rejected() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(SymbolicAnalysis::analyze(&a, OrderingChoice::Natural).is_err());
    }

    #[test]
    fn permuted_shuffle_round_trips_values() {
        let a = arrow_matrix(5);
        let s = SymbolicAnalysis::analyze(&a, OrderingChoice::Amd).unwrap();
        let mut vals = vec![0.0; a.nnz()];
        for (&p, &v) in s.csr_to_csc.iter().zip(a.values()) {
            vals[p] = v;
        }
        // Every permuted CSC slot (j', i') must hold A[perm[i'], perm[j']].
        for j in 0..5 {
            for p in s.csc_colptr[j]..s.csc_colptr[j + 1] {
                let i = s.csc_rows[p];
                let (r, c) = (s.fill_perm[i], s.fill_perm[j]);
                assert_eq!(vals[p], a.get(r, c), "slot ({i},{j}) orig ({r},{c})");
            }
        }
    }
}
