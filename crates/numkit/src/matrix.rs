//! Dense row-major `f64` matrices with LU factorisation.
//!
//! Circuit Newton solves go through the sparse analyze/factor/refactor
//! solver in [`crate::sparse`]; this dense solver serves `tablemodel`'s
//! RBF fits, whose kernel matrices are dense, and is the kernel-level
//! reference in this crate's tests. The elimination itself lives in
//! [`crate::lu`], shared with the complex solver.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use numkit::matrix::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 0)] = 4.0;
/// m[(1, 1)] = 2.0;
/// assert_eq!(m[(0, 0)], 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Error returned when a linear solve fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveMatrixError {
    /// The matrix is singular to working precision (pivot below threshold).
    Singular {
        /// Elimination step at which the zero pivot was found.
        step: usize,
    },
    /// The right-hand side length does not match the matrix dimension.
    DimensionMismatch {
        /// Matrix dimension.
        expected: usize,
        /// Provided right-hand side length.
        got: usize,
    },
    /// The matrix is not square.
    NotSquare {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
}

impl fmt::Display for SolveMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveMatrixError::Singular { step } => {
                write!(f, "matrix is singular at elimination step {step}")
            }
            SolveMatrixError::DimensionMismatch { expected, got } => {
                write!(f, "right-hand side has length {got}, expected {expected}")
            }
            SolveMatrixError::NotSquare { rows, cols } => {
                write!(f, "matrix is {rows}x{cols}, expected square")
            }
        }
    }
}

impl std::error::Error for SolveMatrixError {}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets every entry to zero, retaining the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds `value` to entry `(r, c)` — the natural operation for MNA
    /// stamping.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    pub fn add_at(&mut self, r: usize, c: usize, value: f64) {
        self[(r, c)] += value;
    }

    /// Multiplies `self` by the vector `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        let mut y = vec![0.0; self.rows];
        for (r, y_r) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *y_r = acc;
        }
        y
    }

    /// Factorises the matrix as `P·A = L·U` with partial pivoting.
    ///
    /// The factorisation can be reused to solve multiple right-hand sides.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::NotSquare`] for non-square matrices and
    /// [`SolveMatrixError::Singular`] when the best pivot falls below the
    /// relative threshold [`crate::lu::pivot_threshold`].
    pub fn lu(&self) -> Result<LuFactors, SolveMatrixError> {
        if self.rows != self.cols {
            return Err(SolveMatrixError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let perm = crate::lu::factor_in_place(&mut lu, n)?;
        Ok(LuFactors { n, lu, perm })
    }

    /// Solves `A·x = b` for `x`.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is not square, is singular, or `b`
    /// has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveMatrixError> {
        let factors = self.lu()?;
        factors.solve(b)
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| {
                self.data[r * self.cols..(r + 1) * self.cols]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.4e} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// LU factorisation of a square matrix, reusable across right-hand sides.
///
/// Produced by [`Matrix::lu`].
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` using the stored factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveMatrixError> {
        if b.len() != self.n {
            return Err(SolveMatrixError::DimensionMismatch {
                expected: self.n,
                got: b.len(),
            });
        }
        Ok(crate::lu::solve_factored(&self.lu, &self.perm, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let m = Matrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = m.solve(&b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn solve_known_3x3() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - -1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_reports_error() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match a.solve(&[1.0, 2.0]) {
            Err(SolveMatrixError::Singular { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn not_square_reports_error() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.lu(),
            Err(SolveMatrixError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(3);
        let f = a.lu().unwrap();
        assert!(matches!(
            f.solve(&[1.0]),
            Err(SolveMatrixError::DimensionMismatch {
                expected: 3,
                got: 1
            })
        ));
    }

    #[test]
    fn mul_vec_matches_solve_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[3.0, 6.0, -4.0], &[2.0, 1.0, 8.0]]);
        let x_true = [0.5, -1.25, 2.0];
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).unwrap();
        for (xs, xt) in x.iter().zip(x_true.iter()) {
            assert!((xs - xt).abs() < 1e-10);
        }
    }

    #[test]
    fn norm_inf_of_identity_is_one() {
        assert_eq!(Matrix::identity(5).norm_inf(), 1.0);
    }

    #[test]
    fn add_at_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_at(0, 0, 1.5);
        m.add_at(0, 0, 2.5);
        assert_eq!(m[(0, 0)], 4.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }
}
