//! Descriptive statistics: column means, covariance matrices and z-score
//! standardization.
//!
//! The covariance helpers back the PCA-SVD baseline; [`standardize`] is the
//! first step of all three numeric baselines.

use super::matrix::Matrix;

/// Per-column means of a data matrix with one sample per row.
///
/// # Panics
///
/// Panics if the matrix has no rows.
fn column_means(data: &Matrix) -> Vec<f64> {
    assert!(data.rows() > 0, "column means need at least one row");
    let mut means = vec![0.0; data.cols()];
    for row in data.iter_rows() {
        for (m, &x) in means.iter_mut().zip(row.iter()) {
            *m += x;
        }
    }
    let n = data.rows() as f64;
    for m in means.iter_mut() {
        *m /= n;
    }
    means
}

/// Sample covariance matrix (denominator `n - 1`) of a data matrix with one
/// sample per row.
///
/// # Panics
///
/// Panics if the matrix has fewer than two rows.
pub(crate) fn covariance_matrix(data: &Matrix) -> Matrix {
    assert!(data.rows() >= 2, "a covariance needs at least two rows");
    let means = column_means(data);
    let d = data.cols();
    let mut cov = Matrix::zeros(d, d);
    for row in data.iter_rows() {
        for i in 0..d {
            let di = row[i] - means[i];
            for j in i..d {
                cov[(i, j)] += di * (row[j] - means[j]);
            }
        }
    }
    let denom = (data.rows() - 1) as f64;
    for i in 0..d {
        for j in i..d {
            cov[(i, j)] /= denom;
            cov[(j, i)] = cov[(i, j)];
        }
    }
    cov
}

/// Stacks `samples` (one row each, all of one width) into a [`Matrix`], fits
/// a [`Standardizer`] on it and returns the standardizer with the
/// standardized matrix.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub(crate) fn standardize(samples: &[Vec<f64>]) -> (Standardizer, Matrix) {
    assert!(
        !samples.is_empty(),
        "standardization needs at least one row"
    );
    let flat: Vec<f64> = samples.iter().flatten().copied().collect();
    let data = Matrix::from_vec(samples.len(), samples[0].len(), flat);
    let standardizer = Standardizer::fit(&data);
    let standardized = standardizer.transform(&data);
    (standardizer, standardized)
}

/// Z-score standardizer fit on training data and applied to new samples.
///
/// Columns with zero variance are passed through unscaled (divisor 1), which
/// keeps constant features from producing NaNs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits per-column mean/standard deviation on `data` (one sample per row).
    ///
    /// # Panics
    ///
    /// Panics if `data` has no rows.
    fn fit(data: &Matrix) -> Self {
        let means = column_means(data);
        let mut stds = vec![0.0; data.cols()];
        if data.rows() > 1 {
            for row in data.iter_rows() {
                for (s, (&x, &m)) in stds.iter_mut().zip(row.iter().zip(means.iter())) {
                    *s += (x - m) * (x - m);
                }
            }
            let denom = (data.rows() - 1) as f64;
            for s in stds.iter_mut() {
                *s = (*s / denom).sqrt();
            }
        }
        for s in stds.iter_mut() {
            if *s == 0.0 || !s.is_finite() {
                *s = 1.0;
            }
        }
        Standardizer { means, stds }
    }

    /// Standardizes one sample in place.
    ///
    /// # Panics
    ///
    /// Panics if `sample.len()` differs from the fitted dimensionality.
    pub(crate) fn transform_in_place(&self, sample: &mut [f64]) {
        assert_eq!(
            sample.len(),
            self.means.len(),
            "standardizer width mismatch"
        );
        for ((x, &m), &s) in sample
            .iter_mut()
            .zip(self.means.iter())
            .zip(self.stds.iter())
        {
            *x = (*x - m) / s;
        }
    }

    /// Returns a standardized copy of the whole data matrix.
    fn transform(&self, data: &Matrix) -> Matrix {
        let mut out = data.clone();
        for r in 0..out.rows() {
            self.transform_in_place(out.row_mut(r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one row")]
    fn column_means_of_no_rows_panics() {
        column_means(&Matrix::zeros(0, 3));
    }

    #[test]
    #[should_panic(expected = "at least two rows")]
    fn covariance_of_one_row_panics() {
        covariance_matrix(&Matrix::zeros(1, 3));
    }

    #[test]
    fn covariance_of_independent_columns() {
        let data = Matrix::from_vec(3, 2, vec![1.0, 10.0, 2.0, 10.0, 3.0, 10.0]);
        let cov = covariance_matrix(&data);
        assert!((cov[(0, 0)] - 1.0).abs() < 1e-12);
        assert_eq!(cov[(1, 1)], 0.0);
        assert_eq!(cov[(0, 1)], 0.0);
        assert_eq!(cov[(1, 0)], 0.0);
    }

    #[test]
    fn covariance_of_correlated_columns() {
        let data = Matrix::from_vec(3, 2, vec![1.0, 2.0, 2.0, 4.0, 3.0, 6.0]);
        let cov = covariance_matrix(&data);
        // Perfect correlation: cov(x, y) = 2 * var(x).
        assert!((cov[(0, 1)] - 2.0 * cov[(0, 0)]).abs() < 1e-12);
        assert_eq!(cov[(1, 0)], cov[(0, 1)]);
    }

    #[test]
    fn standardizer_zero_mean_unit_variance() {
        let (_, t) = standardize(&[vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]]);
        let m = column_means(&t);
        assert!(m[0].abs() < 1e-12);
        // Constant column stays untouched relative to its mean: all zeros.
        assert!(t.col(1).iter().all(|&x| x == 0.0));
        // Unbiased sample variance of the standardized column.
        let v = t
            .col(0)
            .iter()
            .map(|x| (x - m[0]) * (x - m[0]))
            .sum::<f64>()
            / 2.0;
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardizer_transform_new_sample() {
        let data = Matrix::from_vec(2, 1, vec![0.0, 10.0]);
        let s = Standardizer::fit(&data);
        let mut sample = vec![5.0];
        s.transform_in_place(&mut sample);
        assert!(sample[0].abs() < 1e-12); // 5 is the mean
    }
}
