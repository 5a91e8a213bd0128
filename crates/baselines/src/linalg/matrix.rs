//! A dense, row-major `f64` matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense matrix of `f64` values stored in row-major order.
///
/// The type is intentionally small: it has only the operations the
/// statistical baselines use (standardization, covariance, PCA). All
/// mutating operations preserve the invariant `data.len() == rows * cols`.
#[derive(Clone, PartialEq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub(crate) fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "a {rows}x{cols} matrix needs {} elements",
            rows * cols
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub(crate) fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterates over the rows of the matrix.
    pub(crate) fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Frobenius norm (`sqrt` of the sum of squared elements).
    pub(crate) fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!((z.rows(), z.cols()), (2, 3));
        assert!(z.iter_rows().flatten().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i, Matrix::from_fn(3, 3, |r, c| f64::from(r == c)));
    }

    #[test]
    fn from_vec_and_indexing() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "a 2x2 matrix needs 4 elements")]
    fn from_vec_checks_length() {
        Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn debug_output_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn iter_rows_yields_all_rows() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }
}
