//! K-means clustering (Lloyd's algorithm with k-means++ seeding).
//!
//! Used for features that "exhibit clustering characteristics by nature"
//! (paper §IV-B): the inter-package time interval, the CRC rate, and the
//! jointly clustered 5-dimensional PID parameter vector (Table III).
//!
//! Fitted models remember, per cluster, the maximum distance of any training
//! point to its centroid; assignment of a new point farther than that radius
//! yields the *out-of-range* sentinel the paper assigns "to represent those
//! values that cannot be assigned to any of the clusters".

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::codec::{put_f64, put_usize, Reader};
use crate::error::FeatureError;

/// A fitted k-means model over points of fixed dimensionality.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: Vec<Vec<f64>>,
    /// Per-cluster maximum training distance (the outlier radius).
    radii: Vec<f64>,
}

/// Result of assigning a point to a fitted model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// Index of the nearest centroid.
    pub cluster: usize,
    /// Euclidean distance to that centroid.
    pub distance: f64,
    /// `true` if the point lies within the cluster's training radius.
    pub in_range: bool,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl KMeans {
    /// Fits `k` clusters to `points` with k-means++ seeding and at most
    /// `max_iters` Lloyd iterations.
    ///
    /// If the data has fewer distinct points than `k`, the model is fitted
    /// with one centroid per distinct point instead (the effective `k` is
    /// then smaller — harmless for discretization).
    ///
    /// # Errors
    ///
    /// * [`FeatureError::InvalidConfig`] if `k == 0`, `points` have unequal
    ///   dimensions, or any coordinate is non-finite.
    /// * [`FeatureError::InsufficientData`] if `points` is empty.
    pub fn fit(
        points: &[Vec<f64>],
        k: usize,
        max_iters: usize,
        seed: u64,
    ) -> Result<Self, FeatureError> {
        if k == 0 {
            return Err(FeatureError::InvalidConfig {
                reason: "k must be positive".into(),
            });
        }
        if points.is_empty() {
            return Err(FeatureError::InsufficientData {
                what: "kmeans",
                found: 0,
                required: 1,
            });
        }
        let dim = points[0].len();
        if dim == 0 {
            return Err(FeatureError::InvalidConfig {
                reason: "points must have at least one dimension".into(),
            });
        }
        for p in points {
            if p.len() != dim {
                return Err(FeatureError::InvalidConfig {
                    reason: "points must share one dimensionality".into(),
                });
            }
            if p.iter().any(|x| !x.is_finite()) {
                return Err(FeatureError::InvalidConfig {
                    reason: "points must be finite".into(),
                });
            }
        }

        let mut rng = ChaCha12Rng::seed_from_u64(seed);

        // Count distinct points; cap k accordingly.
        let mut distinct: Vec<&Vec<f64>> = Vec::new();
        for p in points {
            if !distinct.iter().any(|d| sq_dist(d, p) == 0.0) {
                distinct.push(p);
                if distinct.len() > k {
                    break;
                }
            }
        }
        let k = k.min(distinct.len());

        // k-means++ seeding.
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(points[rng.gen_range(0..points.len())].clone());
        let mut dists: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
        while centroids.len() < k {
            let total: f64 = dists.iter().sum();
            let next = if total <= 0.0 {
                // All remaining points coincide with a centroid; pick any
                // distinct one.
                distinct
                    .iter()
                    .find(|d| centroids.iter().all(|c| sq_dist(c, d) > 0.0))
                    .map(|d| (*d).clone())
            } else {
                let mut roll = rng.gen::<f64>() * total;
                let mut chosen = points.len() - 1;
                for (i, &d) in dists.iter().enumerate() {
                    if roll < d {
                        chosen = i;
                        break;
                    }
                    roll -= d;
                }
                Some(points[chosen].clone())
            };
            match next {
                Some(c) => {
                    for (d, p) in dists.iter_mut().zip(points.iter()) {
                        *d = d.min(sq_dist(p, &c));
                    }
                    centroids.push(c);
                }
                None => break,
            }
        }

        // Lloyd iterations.
        let mut assign = vec![0usize; points.len()];
        for _ in 0..max_iters {
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let (best, _) = centroids
                    .iter()
                    .enumerate()
                    .map(|(j, c)| (j, sq_dist(p, c)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .expect("at least one centroid");
                if assign[i] != best {
                    assign[i] = best;
                    changed = true;
                }
            }
            let mut sums = vec![vec![0.0; dim]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (p, &a) in points.iter().zip(assign.iter()) {
                counts[a] += 1;
                for (s, &x) in sums[a].iter_mut().zip(p.iter()) {
                    *s += x;
                }
            }
            for (j, c) in centroids.iter_mut().enumerate() {
                if counts[j] > 0 {
                    for (cc, s) in c.iter_mut().zip(sums[j].iter()) {
                        *cc = s / counts[j] as f64;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Outlier radii: max training distance per cluster.
        let mut radii = vec![0.0f64; centroids.len()];
        for (p, &a) in points.iter().zip(assign.iter()) {
            radii[a] = radii[a].max(sq_dist(p, &centroids[a]).sqrt());
        }

        Ok(KMeans { centroids, radii })
    }

    /// Convenience fit for one-dimensional data.
    ///
    /// # Errors
    ///
    /// Same as [`KMeans::fit`].
    pub fn fit_1d(
        values: &[f64],
        k: usize,
        max_iters: usize,
        seed: u64,
    ) -> Result<Self, FeatureError> {
        let points: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        KMeans::fit(&points, k, max_iters, seed)
    }

    /// Number of clusters actually fitted.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Dimensionality of the fitted points (every centroid's length).
    pub fn dim(&self) -> usize {
        self.centroids[0].len()
    }

    /// Assigns a point to its nearest cluster.
    ///
    /// # Panics
    ///
    /// Panics if the point's dimensionality differs from the training data.
    pub fn assign(&self, point: &[f64]) -> Assignment {
        assert_eq!(
            point.len(),
            self.centroids[0].len(),
            "dimensionality mismatch"
        );
        let (cluster, d2) = self
            .centroids
            .iter()
            .enumerate()
            .map(|(j, c)| (j, sq_dist(point, c)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("model has at least one centroid");
        let distance = d2.sqrt();
        // A small tolerance keeps boundary training points in range.
        let in_range = distance <= self.radii[cluster] * (1.0 + 1e-9) + 1e-12;
        Assignment {
            cluster,
            distance,
            in_range,
        }
    }

    /// Assigns a 1-dimensional value.
    pub fn assign_1d(&self, value: f64) -> Assignment {
        self.assign(&[value])
    }

    /// Appends the fitted model (centroids and outlier radii; floats as
    /// exact bit patterns).
    pub(crate) fn write_into(&self, out: &mut Vec<u8>) {
        put_usize(out, self.centroids.len());
        put_usize(out, self.centroids[0].len());
        for c in &self.centroids {
            for &x in c {
                put_f64(out, x);
            }
        }
        for &radius in &self.radii {
            put_f64(out, radius);
        }
    }

    /// Reads a model written by [`KMeans::write_into`]; `None` if the bytes
    /// run out or encode an invalid model (zero clusters/dimensions, more
    /// clusters than the `u16` category space holds, non-finite coordinates,
    /// or negative radii).
    pub(crate) fn read_from(r: &mut Reader<'_>) -> Option<Self> {
        let k = r.usize_()?;
        let dim = r.usize_()?;
        if k == 0 || dim == 0 || k.checked_mul(dim)? > (1 << 24) {
            return None;
        }
        // Cluster indices (and the `k + 1` absent sentinel) travel as u16
        // categories downstream; a larger k would silently truncate.
        if k > usize::from(u16::MAX) - 1 {
            return None;
        }
        // A corrupt header could claim huge counts with no payload behind
        // them; check the bytes exist before allocating for them.
        let need = k.checked_mul(dim.checked_add(1)?)?.checked_mul(8)?;
        if r.remaining() < need {
            return None;
        }
        let mut centroids = Vec::with_capacity(k);
        for _ in 0..k {
            let mut c = Vec::with_capacity(dim);
            for _ in 0..dim {
                let x = r.f64()?;
                if !x.is_finite() {
                    return None;
                }
                c.push(x);
            }
            centroids.push(c);
        }
        let mut radii = Vec::with_capacity(k);
        for _ in 0..k {
            let radius = r.f64()?;
            if !radius.is_finite() || radius < 0.0 {
                return None;
            }
            radii.push(radius);
        }
        Some(KMeans { centroids, radii })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every k-means training point assigns in range, and assignment is
        /// the nearest centroid.
        #[test]
        fn kmeans_training_points_in_range(
            values in proptest::collection::vec(-1e3f64..1e3, 2..120),
            k in 1usize..8,
            seed in any::<u64>(),
        ) {
            let km = KMeans::fit_1d(&values, k, 50, seed).unwrap();
            for &v in &values {
                let a = km.assign_1d(v);
                prop_assert!(a.in_range, "training value {v} out of range");
                // Nearest-centroid property.
                for (j, c) in km.centroids.iter().enumerate() {
                    let d = (v - c[0]).abs();
                    prop_assert!(
                        d + 1e-9 >= a.distance,
                        "centroid {j} closer than assigned"
                    );
                }
            }
        }
    }

    #[test]
    fn separates_two_obvious_clusters() {
        let mut values = vec![];
        for i in 0..50 {
            values.push(0.1 + (i as f64) * 0.001);
            values.push(5.0 + (i as f64) * 0.001);
        }
        let km = KMeans::fit_1d(&values, 2, 100, 1).unwrap();
        assert_eq!(km.k(), 2);
        let a = km.assign_1d(0.12).cluster;
        let b = km.assign_1d(5.02).cluster;
        assert_ne!(a, b);
        // Centroids near 0.125 and 5.025.
        let mut cs: Vec<f64> = km.centroids.iter().map(|c| c[0]).collect();
        cs.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((cs[0] - 0.125).abs() < 0.05);
        assert!((cs[1] - 5.025).abs() < 0.05);
    }

    #[test]
    fn out_of_range_detection() {
        let values: Vec<f64> = (0..100).map(|i| (i % 10) as f64 * 0.01).collect();
        let km = KMeans::fit_1d(&values, 2, 50, 2).unwrap();
        assert!(km.assign_1d(0.05).in_range);
        assert!(!km.assign_1d(50.0).in_range);
    }

    #[test]
    fn training_points_always_in_range() {
        let values: Vec<f64> = (0..200).map(|i| ((i * 37) % 17) as f64).collect();
        let km = KMeans::fit_1d(&values, 4, 100, 3).unwrap();
        for &v in &values {
            assert!(km.assign_1d(v).in_range, "training value {v} out of range");
        }
    }

    #[test]
    fn multi_dimensional_clustering() {
        let mut points = Vec::new();
        for i in 0..60 {
            let jitter = (i % 7) as f64 * 0.01;
            points.push(vec![0.0 + jitter, 0.0, 1.0]);
            points.push(vec![10.0, 10.0 + jitter, 1.0]);
            points.push(vec![-10.0, 5.0, 1.0 + jitter]);
        }
        let km = KMeans::fit(&points, 3, 100, 4).unwrap();
        assert_eq!(km.k(), 3);
        let a = km.assign(&[0.0, 0.0, 1.0]).cluster;
        let b = km.assign(&[10.0, 10.0, 1.0]).cluster;
        let c = km.assign(&[-10.0, 5.0, 1.0]).cluster;
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn caps_k_at_distinct_point_count() {
        let values = vec![1.0, 1.0, 2.0, 2.0, 1.0];
        let km = KMeans::fit_1d(&values, 32, 50, 5).unwrap();
        assert_eq!(km.k(), 2);
    }

    #[test]
    fn single_distinct_value() {
        let km = KMeans::fit_1d(&[3.0; 20], 4, 50, 6).unwrap();
        assert_eq!(km.k(), 1);
        assert!(km.assign_1d(3.0).in_range);
        assert!(!km.assign_1d(4.0).in_range);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(KMeans::fit_1d(&[], 2, 10, 0).is_err());
        assert!(KMeans::fit_1d(&[1.0], 0, 10, 0).is_err());
        assert!(KMeans::fit_1d(&[f64::NAN], 1, 10, 0).is_err());
        assert!(KMeans::fit(&[vec![1.0], vec![1.0, 2.0]], 1, 10, 0).is_err());
        assert!(KMeans::fit(&[vec![]], 1, 10, 0).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).sin() * 10.0).collect();
        let a = KMeans::fit_1d(&values, 5, 100, 42).unwrap();
        let b = KMeans::fit_1d(&values, 5, 100, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn assign_wrong_dims_panics() {
        let km = KMeans::fit_1d(&[1.0, 2.0], 2, 10, 0).unwrap();
        km.assign(&[1.0, 2.0]);
    }

    fn to_bytes(km: &KMeans) -> Vec<u8> {
        let mut out = Vec::new();
        km.write_into(&mut out);
        out
    }

    fn from_bytes(bytes: &[u8]) -> Option<KMeans> {
        crate::codec::tests::decode_all(bytes, KMeans::read_from)
    }

    #[test]
    fn serialization_round_trip_preserves_assignments() {
        let values: Vec<f64> = (0..120).map(|i| ((i * 13) % 29) as f64 * 0.37).collect();
        let km = KMeans::fit_1d(&values, 5, 100, 11).unwrap();
        let back = from_bytes(&to_bytes(&km)).unwrap();
        assert_eq!(back, km);
        for &v in &values {
            assert_eq!(back.assign_1d(v), km.assign_1d(v));
        }
        // Multi-dimensional too.
        let points: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, (i % 3) as f64, -0.5 * i as f64])
            .collect();
        let km = KMeans::fit(&points, 4, 50, 12).unwrap();
        assert_eq!(from_bytes(&to_bytes(&km)), Some(km));
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(from_bytes(&[]).is_none());
        let km = KMeans::fit_1d(&[1.0, 2.0, 3.0], 2, 50, 0).unwrap();
        let mut bytes = to_bytes(&km);
        bytes.pop();
        assert!(from_bytes(&bytes).is_none());
        bytes.push(0);
        bytes.push(0);
        assert!(from_bytes(&bytes).is_none());
        // Non-finite centroid coordinate.
        let mut bytes = to_bytes(&km);
        bytes[16..24].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(from_bytes(&bytes).is_none());
        // A header claiming a huge cluster count with no payload behind it
        // must be rejected before anything is allocated for it.
        let mut huge = Vec::new();
        crate::codec::put_usize(&mut huge, 1 << 24);
        crate::codec::put_usize(&mut huge, 1);
        assert!(from_bytes(&huge).is_none());
        // A cluster count beyond the u16 category space is rejected even
        // when the payload bytes are all present.
        let k = usize::from(u16::MAX);
        let mut wide = Vec::new();
        crate::codec::put_usize(&mut wide, k);
        crate::codec::put_usize(&mut wide, 1);
        for _ in 0..k {
            crate::codec::put_f64(&mut wide, 0.0);
        }
        for _ in 0..k {
            crate::codec::put_f64(&mut wide, 0.0);
        }
        assert!(from_bytes(&wide).is_none());
    }

    #[test]
    fn assignment_distance_is_euclidean() {
        let km = KMeans::fit(&[vec![0.0, 0.0]], 1, 10, 0).unwrap();
        let a = km.assign(&[3.0, 4.0]);
        assert!((a.distance - 5.0).abs() < 1e-12);
    }
}
