//! Dense row-major matrices with LU factorization.
//!
//! Dense storage is used for small systems (the reference results tests
//! compare [`crate::solve::SparseLuSolver`] against, and the capacitance
//! matrix factored once by the Euler–Maruyama engine). MNA systems of any
//! real size go through [`crate::sparse`].

use crate::error::NumericError;
use crate::flops::FlopCounter;
use crate::Result;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `rows x cols` matrix of `f64`.
///
/// # Example
/// ```
/// use nanosim_numeric::DenseMatrix;
/// let mut m = DenseMatrix::zeros(2, 2);
/// m[(0, 0)] = 4.0;
/// m[(1, 1)] = 2.0;
/// assert_eq!(m[(0, 0)], 4.0);
/// assert_eq!(m.rows(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(NumericError::DimensionMismatch {
                context: format!(
                    "{} elements supplied for a {rows}x{cols} matrix",
                    data.len()
                ),
            });
        }
        Ok(DenseMatrix {
            rows,
            cols,
            data: data.to_vec(),
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the element at `(row, col)`, or `None` when out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Adds `value` to the element at `(row, col)` (the MNA "stamp" op).
    ///
    /// # Errors
    /// Returns [`NumericError::IndexOutOfBounds`] when outside the matrix.
    pub fn stamp(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(NumericError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.data[row * self.cols + col] += value;
        Ok(())
    }

    /// Returns a view of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `y = A·x`, recording FLOPs.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64], flops: &mut FlopCounter) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(NumericError::DimensionMismatch {
                context: format!(
                    "matvec: {}x{} by vector of {}",
                    self.rows,
                    self.cols,
                    x.len()
                ),
            });
        }
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut acc = 0.0;
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            flops.fma(self.cols as u64);
            y[i] = acc;
        }
        Ok(y)
    }

    /// Matrix–matrix product `self · other`.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] on incompatible shapes.
    pub fn matmul(&self, other: &DenseMatrix, flops: &mut FlopCounter) -> Result<DenseMatrix> {
        if self.cols != other.rows {
            return Err(NumericError::DimensionMismatch {
                context: format!(
                    "matmul: {}x{} by {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += aik * other.data[k * other.cols + j];
                }
                flops.fma(other.cols as u64);
            }
        }
        Ok(out)
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    /// Returns [`NumericError::SingularMatrix`] if a pivot column is all zero,
    /// and [`NumericError::DimensionMismatch`] for non-square matrices.
    pub fn lu(&self, flops: &mut FlopCounter) -> Result<DenseLu> {
        if self.rows != self.cols {
            return Err(NumericError::DimensionMismatch {
                context: format!("lu of non-square {}x{}", self.rows, self.cols),
            });
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            // Partial pivoting: find the largest magnitude entry in column k.
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val == 0.0 || !pivot_val.is_finite() {
                return Err(NumericError::SingularMatrix { pivot: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    lu.swap(k * n + j, pivot_row * n + j);
                }
                perm.swap(k, pivot_row);
                sign = -sign;
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                flops.div(1);
                lu[i * n + k] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        lu[i * n + j] -= factor * lu[k * n + j];
                    }
                    flops.fma((n - k - 1) as u64);
                }
            }
        }
        Ok(DenseLu { n, lu, perm, sign })
    }

    /// Solves `A·x = b` through a fresh LU factorization.
    ///
    /// # Errors
    /// Propagates factorization errors and shape mismatches.
    pub fn solve(&self, b: &[f64], flops: &mut FlopCounter) -> Result<Vec<f64>> {
        let lu = self.lu(flops)?;
        lu.solve(b, flops)
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:12.5e}", self.data[i * self.cols + j])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// LU factorization (with row permutation) of a dense square matrix.
///
/// Produced by [`DenseMatrix::lu`]; can be reused for many right-hand sides.
#[derive(Debug, Clone)]
pub struct DenseLu {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
    sign: f64,
}

impl DenseLu {
    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64], flops: &mut FlopCounter) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                context: format!("lu solve: rhs of {} for n={}", b.len(), self.n),
            });
        }
        let n = self.n;
        // Apply the permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * x[j];
            }
            flops.fma(i as u64);
            x[i] = acc;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[i * n + j] * x[j];
            }
            flops.fma((n - i - 1) as u64);
            x[i] = acc / self.lu[i * n + i];
            flops.div(1);
        }
        Ok(x)
    }

    /// Determinant of the original matrix (product of pivots times the
    /// permutation sign).
    pub fn determinant(&self) -> f64 {
        let mut det = self.sign;
        for i in 0..self.n {
            det *= self.lu[i * self.n + i];
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn flops() -> FlopCounter {
        FlopCounter::new()
    }

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert_eq!(z.get(1, 2), Some(0.0));
        assert_eq!(z.get(2, 0), None);
        let i = DenseMatrix::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_checks_length() {
        assert!(DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0]).is_err());
        let m = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn stamp_accumulates() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.stamp(0, 0, 1.5).unwrap();
        m.stamp(0, 0, 2.5).unwrap();
        assert_eq!(m[(0, 0)], 4.0);
        assert!(m.stamp(5, 0, 1.0).is_err());
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = DenseMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let mut f = flops();
        let y = m.matvec(&[1.0, 1.0, 1.0], &mut f).unwrap();
        assert_eq!(y, vec![6.0, 15.0]);
        assert_eq!(f.muls(), 6);
        assert!(m.matvec(&[1.0], &mut f).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let id = DenseMatrix::identity(2);
        let p = m.matmul(&id, &mut flops()).unwrap();
        assert_eq!(p, m);
    }

    #[test]
    fn transpose_involution() {
        let m = DenseMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn lu_solves_small_system() {
        let a =
            DenseMatrix::from_rows(3, 3, &[2.0, 1.0, 1.0, 4.0, -6.0, 0.0, -2.0, 7.0, 2.0]).unwrap();
        let mut f = flops();
        let x = a.solve(&[5.0, -2.0, 9.0], &mut f).unwrap();
        assert!(approx_eq(x[0], 1.0, 1e-12));
        assert!(approx_eq(x[1], 1.0, 1e-12));
        assert!(approx_eq(x[2], 2.0, 1e-12));
        assert!(f.total() > 0);
    }

    #[test]
    fn lu_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = DenseMatrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = a.solve(&[3.0, 7.0], &mut flops()).unwrap();
        assert!(approx_eq(x[0], 7.0, 1e-15));
        assert!(approx_eq(x[1], 3.0, 1e-15));
    }

    #[test]
    fn lu_detects_singular() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]).unwrap();
        match a.lu(&mut flops()) {
            Err(NumericError::SingularMatrix { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn lu_rejects_non_square() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(a.lu(&mut flops()).is_err());
    }

    #[test]
    fn determinant_of_permuted_matrix() {
        let a = DenseMatrix::from_rows(2, 2, &[0.0, 2.0, 3.0, 0.0]).unwrap();
        let lu = a.lu(&mut flops()).unwrap();
        assert!(approx_eq(lu.determinant(), -6.0, 1e-12));
        assert_eq!(lu.dim(), 2);
    }

    #[test]
    fn solve_reuses_factorization_for_multiple_rhs() {
        let a = DenseMatrix::from_rows(2, 2, &[4.0, 1.0, 1.0, 3.0]).unwrap();
        let lu = a.lu(&mut flops()).unwrap();
        let x1 = lu.solve(&[1.0, 0.0], &mut flops()).unwrap();
        let x2 = lu.solve(&[0.0, 1.0], &mut flops()).unwrap();
        // A * [x1 x2] = I
        assert!(approx_eq(4.0 * x1[0] + x1[1], 1.0, 1e-12));
        assert!(approx_eq(x1[0] + 3.0 * x1[1], 0.0, 1e-12));
        assert!(approx_eq(4.0 * x2[0] + x2[1], 0.0, 1e-12));
        assert!(approx_eq(x2[0] + 3.0 * x2[1], 1.0, 1e-12));
    }

    #[test]
    fn rhs_length_checked() {
        let a = DenseMatrix::identity(3);
        let lu = a.lu(&mut flops()).unwrap();
        assert!(lu.solve(&[1.0], &mut flops()).is_err());
    }

    #[test]
    fn norm_inf_is_max_row_sum() {
        let m = DenseMatrix::from_rows(2, 2, &[1.0, -2.0, 0.5, 0.25]).unwrap();
        assert!(approx_eq(m.norm_inf(), 3.0, 1e-15));
    }

    #[test]
    fn display_is_nonempty() {
        let m = DenseMatrix::identity(2);
        let s = m.to_string();
        assert!(s.contains("1.00000"));
    }
}
