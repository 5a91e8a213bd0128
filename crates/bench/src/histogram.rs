//! The fixed-width histogram behind the Figure 4 experiment of the paper
//! (200-bin histograms of the continuous gas-pipeline features).

/// A fixed-width histogram over a closed value range.
///
/// Out-of-range values are clamped into the first or last bin, matching the
/// usual plotting behaviour for the paper's Figure 4 histograms.
///
/// # Examples
///
/// ```
/// use icsad_bench::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
/// for v in [0.5, 1.5, 9.9, 100.0] {
///     h.add(v);
/// }
/// assert_eq!(h.counts()[0], 2); // 0.5 and 1.5 share the first bin
/// assert_eq!(h.counts()[4], 2); // 9.9 plus the clamped 100.0
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi]`.
    ///
    /// Returns `None` if `bins == 0` or `lo >= hi` or either bound is not
    /// finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Option<Self> {
        if bins == 0 || lo >= hi || !lo.is_finite() || !hi.is_finite() {
            return None;
        }
        Some(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        })
    }

    /// Builds a histogram spanning the min/max of `values`.
    ///
    /// Returns `None` if `values` is empty or `bins == 0`. A degenerate
    /// range (all values equal) is widened by ±0.5.
    pub fn from_values(values: &[f64], bins: usize) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo == hi {
            lo -= 0.5;
            hi += 0.5;
        }
        let mut h = Histogram::new(lo, hi, bins)?;
        for &v in values {
            h.add(v);
        }
        Some(h)
    }

    /// Adds one observation; non-finite values are ignored.
    pub fn add(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f64;
        let idx = ((value - self.lo) / width).floor();
        let idx = if idx < 0.0 {
            0
        } else if idx as usize >= bins {
            bins - 1
        } else {
            idx as usize
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Lower bound of the value range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the value range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Midpoint of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * width
    }

    /// Normalized bin densities (counts summing to one); all zeros when empty.
    pub fn densities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        h.add(-5.0); // clamped into bin 0
        h.add(0.0);
        h.add(9.999);
        h.add(10.0); // exactly hi clamps to last bin
        h.add(50.0); // clamped into last bin
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 3);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(f64::NAN);
        h.add(f64::INFINITY);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn histogram_from_values_covers_range() {
        let h = Histogram::from_values(&[1.0, 2.0, 3.0, 4.0], 4).unwrap();
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts().iter().sum::<u64>(), 4);
        assert_eq!(h.lo(), 1.0);
        assert_eq!(h.hi(), 4.0);
    }

    #[test]
    fn histogram_degenerate_range_widened() {
        let h = Histogram::from_values(&[5.0, 5.0], 3).unwrap();
        assert_eq!(h.total(), 2);
        assert!(h.lo() < 5.0 && h.hi() > 5.0);
    }

    #[test]
    fn histogram_invalid_params() {
        assert!(Histogram::new(0.0, 1.0, 0).is_none());
        assert!(Histogram::new(1.0, 1.0, 5).is_none());
        assert!(Histogram::new(2.0, 1.0, 5).is_none());
        assert!(Histogram::new(f64::NAN, 1.0, 5).is_none());
        assert!(Histogram::from_values(&[], 5).is_none());
    }

    #[test]
    fn histogram_densities_sum_to_one() {
        let h = Histogram::from_values(&[1.0, 2.0, 3.0], 2).unwrap();
        let sum: f64 = h.densities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bin_center_positions() {
        let h = Histogram::new(0.0, 10.0, 5).unwrap();
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
        assert!((h.bin_center(4) - 9.0).abs() < 1e-12);
    }
}
