//! Even-interval partitioning for continuous features without natural
//! clusters (paper Table III: pressure measurement and set point).

use crate::codec::{put_f64, put_usize, Reader};
use crate::error::FeatureError;

/// An even partition of a closed training range `[lo, hi]` into `bins`
/// intervals, with values outside the range mapping to the out-of-range
/// sentinel (the "+1" value of Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalPartition {
    lo: f64,
    hi: f64,
    bins: usize,
}

impl IntervalPartition {
    /// Creates a partition of `[lo, hi]` into `bins` intervals.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if `bins == 0`, the bounds are
    /// not finite, or `lo > hi`. A degenerate range (`lo == hi`) is widened
    /// by ±0.5 so that the observed constant maps in-range; if the bound's
    /// magnitude is so large that the widening is absorbed by rounding
    /// (e.g. `1e308`), the partition stays zero-width and degenerates to a
    /// single in-range bin (see [`IntervalPartition::assign`]).
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, FeatureError> {
        if bins == 0 {
            return Err(FeatureError::InvalidConfig {
                reason: "bins must be positive".into(),
            });
        }
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(FeatureError::InvalidConfig {
                reason: format!("invalid interval bounds [{lo}, {hi}]"),
            });
        }
        let (lo, hi) = if lo == hi {
            (lo - 0.5, hi + 0.5)
        } else {
            (lo, hi)
        };
        Ok(IntervalPartition { lo, hi, bins })
    }

    /// Fits the partition to the min/max of the training values.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InsufficientData`] if no finite values are
    /// present, or [`FeatureError::InvalidConfig`] if `bins == 0`.
    pub fn fit(values: impl IntoIterator<Item = f64>, bins: usize) -> Result<Self, FeatureError> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut n = 0usize;
        for v in values {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
                n += 1;
            }
        }
        if n == 0 {
            return Err(FeatureError::InsufficientData {
                what: "interval partition",
                found: 0,
                required: 1,
            });
        }
        IntervalPartition::new(lo, hi, bins)
    }

    /// Number of in-range bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Lower bound of the fitted range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the fitted range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Assigns a value to its bin, or `None` for out-of-range / non-finite
    /// values (the caller maps `None` to the sentinel category).
    pub fn assign(&self, value: f64) -> Option<usize> {
        if !value.is_finite() || value < self.lo || value > self.hi {
            return None;
        }
        let width = (self.hi - self.lo) / self.bins as f64;
        if width <= 0.0 {
            // Zero-width partition: fitting a constant whose magnitude
            // absorbed the ±0.5 widening (`lo == hi`). The only in-range
            // value is that constant; binning it through the division
            // above would compute `0.0 / 0.0 = NaN` and rely on the
            // saturating NaN→0 cast, so map it to bin 0 explicitly.
            return Some(0);
        }
        let idx = ((value - self.lo) / width).floor() as usize;
        Some(idx.min(self.bins - 1))
    }

    /// Appends the partition (bounds as exact bit patterns).
    pub(crate) fn write_into(&self, out: &mut Vec<u8>) {
        put_f64(out, self.lo);
        put_f64(out, self.hi);
        put_usize(out, self.bins);
    }

    /// Reads a partition written by [`IntervalPartition::write_into`];
    /// `None` if the bytes run out or encode an invalid partition
    /// (`bins == 0` or beyond the `u16` category space, non-finite bounds,
    /// or `lo > hi`).
    pub(crate) fn read_from(r: &mut Reader<'_>) -> Option<Self> {
        let lo = r.f64()?;
        let hi = r.f64()?;
        let bins = r.usize_()?;
        // Stored bounds are already widened, so `lo == hi` is legal here
        // only as the absorbed-widening degenerate case handled by
        // `assign`; everything else must satisfy the `new` invariants.
        if bins == 0 || !lo.is_finite() || !hi.is_finite() || lo > hi {
            return None;
        }
        // The discretizer casts bin indices (and the `bins + 1` absent
        // sentinel) to u16; a count beyond that space would silently
        // truncate categories or overflow the cardinality sums.
        if bins > usize::from(u16::MAX) - 1 {
            return None;
        }
        Some(IntervalPartition { lo, hi, bins })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigns_interior_values() {
        let p = IntervalPartition::new(0.0, 10.0, 10).unwrap();
        assert_eq!(p.assign(0.5), Some(0));
        assert_eq!(p.assign(5.5), Some(5));
        assert_eq!(p.assign(9.99), Some(9));
    }

    #[test]
    fn boundary_values() {
        let p = IntervalPartition::new(0.0, 10.0, 10).unwrap();
        assert_eq!(p.assign(0.0), Some(0));
        assert_eq!(p.assign(10.0), Some(9)); // hi belongs to the last bin
    }

    #[test]
    fn out_of_range_and_non_finite_yield_none() {
        let p = IntervalPartition::new(0.0, 10.0, 10).unwrap();
        assert_eq!(p.assign(-0.001), None);
        assert_eq!(p.assign(10.001), None);
        assert_eq!(p.assign(f64::NAN), None);
        assert_eq!(p.assign(f64::INFINITY), None);
    }

    #[test]
    fn fit_covers_training_values() {
        let values = vec![2.0, 7.5, 3.3, 9.9];
        let p = IntervalPartition::fit(values.iter().copied(), 20).unwrap();
        for v in values {
            assert!(p.assign(v).is_some());
        }
        assert_eq!(p.lo(), 2.0);
        assert_eq!(p.hi(), 9.9);
    }

    #[test]
    fn fit_ignores_non_finite() {
        let p = IntervalPartition::fit(vec![f64::NAN, 1.0, 2.0, f64::INFINITY], 4).unwrap();
        assert_eq!(p.lo(), 1.0);
        assert_eq!(p.hi(), 2.0);
    }

    #[test]
    fn degenerate_range_widened() {
        let p = IntervalPartition::fit(vec![5.0, 5.0], 3).unwrap();
        assert!(p.assign(5.0).is_some());
        assert!(p.lo() < 5.0 && p.hi() > 5.0);
    }

    #[test]
    fn huge_constant_degenerates_to_a_single_safe_bin() {
        // 1e308 - 0.5 == 1e308 in f64: the ±0.5 widening of the degenerate
        // range is absorbed and the fitted partition is zero-width. The
        // observed constant must still map in-range (bin 0) without the
        // NaN-producing 0/0 division, and everything else stays out of
        // range.
        let p = IntervalPartition::fit(vec![1e308, 1e308, 1e308], 4).unwrap();
        assert_eq!(p.lo(), p.hi(), "widening is absorbed at this magnitude");
        assert_eq!(p.assign(1e308), Some(0));
        assert_eq!(p.assign(1e307), None);
        assert_eq!(p.assign(-1e308), None);
        assert_eq!(p.assign(f64::NAN), None);
        // Same through `new` directly.
        let p = IntervalPartition::new(-1e308, -1e308, 7).unwrap();
        assert_eq!(p.assign(-1e308), Some(0));
        assert_eq!(p.assign(0.0), None);
    }

    fn to_bytes(p: &IntervalPartition) -> Vec<u8> {
        let mut out = Vec::new();
        p.write_into(&mut out);
        out
    }

    fn from_bytes(bytes: &[u8]) -> Option<IntervalPartition> {
        crate::codec::tests::decode_all(bytes, IntervalPartition::read_from)
    }

    #[test]
    fn serialization_round_trip() {
        for p in [
            IntervalPartition::new(0.0, 10.0, 10).unwrap(),
            IntervalPartition::fit(vec![5.0, 5.0], 3).unwrap(),
            IntervalPartition::fit(vec![1e308], 4).unwrap(),
        ] {
            assert_eq!(from_bytes(&to_bytes(&p)), Some(p));
        }
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(from_bytes(&[]).is_none());
        let p = IntervalPartition::new(0.0, 1.0, 2).unwrap();
        let mut bytes = to_bytes(&p);
        bytes.pop();
        assert!(from_bytes(&bytes).is_none());
        bytes.push(0);
        bytes.push(0);
        assert!(from_bytes(&bytes).is_none());
        // bins == 0.
        let mut out = Vec::new();
        crate::codec::put_f64(&mut out, 0.0);
        crate::codec::put_f64(&mut out, 1.0);
        crate::codec::put_usize(&mut out, 0);
        assert!(from_bytes(&out).is_none());
        // lo > hi.
        let mut out = Vec::new();
        crate::codec::put_f64(&mut out, 2.0);
        crate::codec::put_f64(&mut out, 1.0);
        crate::codec::put_usize(&mut out, 2);
        assert!(from_bytes(&out).is_none());
        // A bin count beyond the u16 category space (would overflow the
        // cardinality sums / truncate `as u16` casts downstream).
        for bins in [usize::from(u16::MAX), usize::MAX - 1] {
            let mut out = Vec::new();
            crate::codec::put_f64(&mut out, 0.0);
            crate::codec::put_f64(&mut out, 1.0);
            crate::codec::put_usize(&mut out, bins);
            assert!(from_bytes(&out).is_none());
        }
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(IntervalPartition::new(0.0, 1.0, 0).is_err());
        assert!(IntervalPartition::new(2.0, 1.0, 3).is_err());
        assert!(IntervalPartition::new(f64::NAN, 1.0, 3).is_err());
        assert!(IntervalPartition::fit(vec![f64::NAN], 3).is_err());
        assert!(IntervalPartition::fit(std::iter::empty(), 3).is_err());
    }

    #[test]
    fn all_bins_reachable() {
        let p = IntervalPartition::new(0.0, 1.0, 7).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..700 {
            if let Some(b) = p.assign(i as f64 / 700.0) {
                seen.insert(b);
            }
        }
        assert_eq!(seen.len(), 7);
    }
}
