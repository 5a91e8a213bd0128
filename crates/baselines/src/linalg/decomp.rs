//! The symmetric Jacobi eigendecomposition behind the PCA-SVD baseline
//! (principal components of the feature covariance matrix).

use super::matrix::Matrix;

/// Result of a symmetric eigendecomposition: `a == v * diag(values) * v^T`.
#[derive(Debug, Clone)]
pub(crate) struct SymmetricEigen {
    /// Eigenvalues in descending order.
    pub(crate) values: Vec<f64>,
    /// Eigenvectors stored as columns, ordered to match [`Self::values`].
    pub(crate) vectors: Matrix,
}

/// Computes the eigendecomposition of a symmetric matrix using the cyclic
/// Jacobi rotation method.
///
/// Eigenvalues are returned in descending order with matching eigenvector
/// columns.
///
/// # Errors
///
/// Returns an error if off-diagonal mass does not vanish within 100 sweeps
/// (practically unreachable for real symmetric input).
///
/// # Panics
///
/// Panics if `a` is not square.
pub(crate) fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen, &'static str> {
    assert!(a.is_square(), "eigendecomposition needs a square matrix");
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    if n <= 1 {
        return Ok(SymmetricEigen {
            values: (0..n).map(|i| m[(i, i)]).collect(),
            vectors: v,
        });
    }

    const MAX_SWEEPS: usize = 100;
    let eps = 1e-14 * a.frobenius_norm().max(1.0);
    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[(p, q)] * m[(p, q)];
            }
        }
        if off.sqrt() <= eps {
            return Ok(sorted_eigen(m, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= eps * 1e-2 / (n as f64) {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable computation of tan(rotation angle).
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply the rotation J(p, q, theta) on both sides.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err("jacobi eigendecomposition did not converge within 100 sweeps")
}

fn sorted_eigen(m: Matrix, v: Matrix) -> SymmetricEigen {
    let n = m.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&i, &j| {
        diag[j]
            .partial_cmp(&diag[i])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let values = order.iter().map(|&i| diag[i]).collect();
    let vectors = Matrix::from_fn(n, n, |r, c| v[(r, order[c])]);
    SymmetricEigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        let pairs = a.iter_rows().flatten().zip(b.iter_rows().flatten());
        pairs.map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    /// `V · diag(values) · Vᵀ` as a plain triple loop.
    fn reconstruct_eigen(eig: &SymmetricEigen) -> Matrix {
        let (n, v) = (eig.values.len(), &eig.vectors);
        Matrix::from_fn(n, n, |i, j| {
            (0..n).map(|k| v[(i, k)] * eig.values[k] * v[(j, k)]).sum()
        })
    }

    #[test]
    fn eigen_of_diagonal() {
        let a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 1.0]);
        let eig = symmetric_eigen(&a).unwrap();
        assert!((eig.values[0] - 3.0).abs() < 1e-12);
        assert!((eig.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eigen_of_known_matrix() {
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let eig = symmetric_eigen(&a).unwrap();
        assert!((eig.values[0] - 3.0).abs() < 1e-10);
        assert!((eig.values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_reconstructs_input() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0]);
        let eig = symmetric_eigen(&a).unwrap();
        assert!(max_abs_diff(&a, &reconstruct_eigen(&eig)) < 1e-9);
    }

    #[test]
    fn eigen_values_sorted_descending() {
        let a = Matrix::from_vec(3, 3, vec![1.0, 0.3, 0.1, 0.3, 5.0, 0.2, 0.1, 0.2, 3.0]);
        let eig = symmetric_eigen(&a).unwrap();
        assert!(eig.values.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_vec(3, 3, vec![2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0]);
        let eig = symmetric_eigen(&a).unwrap();
        let v = &eig.vectors;
        let vtv = Matrix::from_fn(3, 3, |i, j| (0..3).map(|k| v[(k, i)] * v[(k, j)]).sum());
        assert!(max_abs_diff(&vtv, &Matrix::identity(3)) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "square matrix")]
    fn eigen_rejects_non_square() {
        let _ = symmetric_eigen(&Matrix::zeros(2, 3));
    }

    #[test]
    fn eigen_trivial_sizes() {
        let e0 = symmetric_eigen(&Matrix::zeros(0, 0)).unwrap();
        assert!(e0.values.is_empty());
        let e1 = symmetric_eigen(&Matrix::from_vec(1, 1, vec![7.0])).unwrap();
        assert_eq!(e1.values, vec![7.0]);
    }
}
