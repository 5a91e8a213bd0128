//! The common detector interface and threshold calibration.

use icsad_dataset::Record;

use crate::window::Windows;

/// A window-level anomaly detector: scores a window of packages, with higher
/// scores meaning "more anomalous", and classifies by comparing against a
/// tunable threshold.
pub trait WindowDetector {
    /// Short display name (as used in Tables IV and V).
    fn name(&self) -> &'static str;

    /// Anomaly score of one window (higher = more anomalous).
    fn score(&self, window: &[Record]) -> f64;

    /// Current decision threshold.
    fn threshold(&self) -> f64;

    /// Replaces the decision threshold.
    fn set_threshold(&mut self, threshold: f64);

    /// Classifies one window.
    fn is_anomalous(&self, window: &[Record]) -> bool {
        self.score(window) > self.threshold()
    }
}

/// Calibrates a detector's threshold so that at most `target_fpr` of the
/// given *normal* windows are flagged: the threshold is set to the
/// `(1 - target_fpr)` quantile of their scores.
///
/// This mirrors the paper's protocol of tuning detectors on anomaly-free
/// validation data. Returns the chosen threshold.
///
/// # Panics
///
/// Panics if `normal` is empty or `target_fpr` is outside `[0, 1)`.
pub fn calibrate_fpr<D: WindowDetector + ?Sized>(
    detector: &mut D,
    normal: &Windows,
    target_fpr: f64,
) -> f64 {
    assert!(!normal.is_empty(), "calibration needs at least one window");
    assert!(
        (0.0..1.0).contains(&target_fpr),
        "target_fpr must be in [0, 1)"
    );
    let mut scores: Vec<f64> = normal.iter().map(|w| detector.score(w)).collect();
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = (((scores.len() as f64) * (1.0 - target_fpr)).ceil() as usize)
        .min(scores.len())
        .saturating_sub(1);
    let threshold = scores[idx];
    detector.set_threshold(threshold);
    threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::PAPER_WINDOW;
    use icsad_dataset::Record;

    /// A fake detector scoring windows by their first record's address.
    struct ByAddress {
        threshold: f64,
    }

    impl WindowDetector for ByAddress {
        fn name(&self) -> &'static str {
            "ByAddress"
        }
        fn score(&self, window: &[Record]) -> f64 {
            f64::from(window[0].address)
        }
        fn threshold(&self) -> f64 {
            self.threshold
        }
        fn set_threshold(&mut self, threshold: f64) {
            self.threshold = threshold;
        }
    }

    /// One window per address, each of its records carrying that address.
    fn windows_with_addresses(addresses: &[u8]) -> Windows {
        let records: Vec<Record> = addresses
            .iter()
            .flat_map(|&a| std::iter::repeat_n(a, PAPER_WINDOW))
            .enumerate()
            .map(|(i, a)| {
                let mut r = Record::empty_at(i as f64);
                r.address = a;
                r
            })
            .collect();
        Windows::over(&records)
    }

    #[test]
    fn calibration_hits_target_fpr() {
        let normal = windows_with_addresses(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let mut d = ByAddress { threshold: 0.0 };
        let t = calibrate_fpr(&mut d, &normal, 0.1);
        assert_eq!(t, 9.0);
        let fp = normal.iter().filter(|w| d.is_anomalous(w)).count();
        assert_eq!(fp, 1); // exactly 10%
    }

    #[test]
    fn zero_fpr_flags_nothing_normal() {
        let normal = windows_with_addresses(&[3, 1, 4, 1, 5]);
        let mut d = ByAddress { threshold: 0.0 };
        calibrate_fpr(&mut d, &normal, 0.0);
        assert_eq!(normal.iter().filter(|w| d.is_anomalous(w)).count(), 0);
        // A clearly larger score is still caught.
        let anomaly = windows_with_addresses(&[200]);
        assert!(d.is_anomalous(anomaly.window(0)));
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn empty_calibration_panics() {
        let normal = windows_with_addresses(&[]);
        let mut d = ByAddress { threshold: 0.0 };
        calibrate_fpr(&mut d, &normal, 0.1);
    }
}
