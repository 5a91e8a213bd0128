//! Evaluation metrics (paper §VIII-B).

use icsad_simulator::AttackType;

/// Confusion-matrix counts for binary anomaly detection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionCounts {
    /// Anomalous packages correctly identified.
    pub tp: u64,
    /// Normal packages incorrectly classified as anomalies.
    pub fp: u64,
    /// Normal packages correctly identified.
    pub tn: u64,
    /// Anomalous packages incorrectly classified as normal.
    pub fn_: u64,
}

impl ConfusionCounts {
    /// Records one `(ground_truth_anomalous, predicted_anomalous)` pair.
    pub fn record(&mut self, actual: bool, predicted: bool) {
        match (actual, predicted) {
            (true, true) => self.tp += 1,
            (true, false) => self.fn_ += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Builds counts from parallel label/prediction iterators.
    ///
    /// # Panics
    ///
    /// Panics if the iterators have different lengths.
    pub fn from_pairs(
        actual: impl IntoIterator<Item = bool>,
        predicted: impl IntoIterator<Item = bool>,
    ) -> Self {
        let mut counts = ConfusionCounts::default();
        let mut a = actual.into_iter();
        let mut p = predicted.into_iter();
        loop {
            match (a.next(), p.next()) {
                (Some(x), Some(y)) => counts.record(x, y),
                (None, None) => break,
                #[expect(
                    clippy::panic,
                    reason = "caller contract — the two label streams come from the same \
                              evaluation split, so unequal lengths are a bug in the \
                              harness, not a data condition to tolerate"
                )]
                _ => panic!("actual/predicted length mismatch"),
            }
        }
        counts
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// `TP / (TP + FP)`; 0 when no positives were predicted.
    pub fn precision(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// `TP / (TP + FN)`; 0 when there are no actual anomalies.
    pub fn recall(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// `(TP + TN) / total`; 0 for an empty count.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }

    /// Harmonic mean of precision and recall; 0 when both are 0.
    pub fn f1_score(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Detected ratio (recall) per attack type (paper Table V).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerAttackRecall {
    detected: [u64; 7],
    total: [u64; 7],
}

impl PerAttackRecall {
    /// Records one attack package's outcome.
    pub fn record(&mut self, attack: AttackType, detected: bool) {
        let i = (attack.id() - 1) as usize;
        self.total[i] += 1;
        if detected {
            self.detected[i] += 1;
        }
    }

    /// Detected ratio for one attack type, or `None` if it never occurred.
    pub fn ratio(&self, attack: AttackType) -> Option<f64> {
        let i = (attack.id() - 1) as usize;
        if self.total[i] == 0 {
            None
        } else {
            Some(self.detected[i] as f64 / self.total[i] as f64)
        }
    }

    /// Number of packages seen for one attack type.
    pub fn count(&self, attack: AttackType) -> u64 {
        self.total[(attack.id() - 1) as usize]
    }

    /// Iterates `(attack, detected, total)` in Table II order.
    pub fn iter(&self) -> impl Iterator<Item = (AttackType, u64, u64)> + '_ {
        AttackType::ALL.iter().map(move |&ty| {
            (
                ty,
                self.detected[(ty.id() - 1) as usize],
                self.total[(ty.id() - 1) as usize],
            )
        })
    }
}

/// Episode-level alarm latency: how many packages into an attack episode
/// the first alarm fired.
///
/// The per-package views above score every package independently; an
/// operator cares about a coarser unit — a contiguous *episode* of attack
/// packages — and about two episode-level questions: was the episode
/// flagged at all (detection rate), and how deep into it did the first
/// alarm land (latency in packages). The adversarial scenario harness
/// accumulates one `record_episode` per labeled attack run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlarmLatency {
    episodes: u64,
    detected: u64,
    latency_packages: u64,
}

impl AlarmLatency {
    /// Records one episode. `first_alarm` is the 0-based index, **within
    /// the episode**, of the first package flagged anomalous — or `None`
    /// if the whole episode passed unflagged.
    pub fn record_episode(&mut self, first_alarm: Option<u64>) {
        self.episodes += 1;
        if let Some(latency) = first_alarm {
            self.detected += 1;
            self.latency_packages += latency;
        }
    }

    /// Episodes recorded so far.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Episodes with at least one alarm.
    pub fn detected(&self) -> u64 {
        self.detected
    }

    /// Mean packages-into-episode of the first alarm, over detected
    /// episodes only; `None` when nothing was detected.
    pub fn mean_latency(&self) -> Option<f64> {
        if self.detected == 0 {
            None
        } else {
            Some(self.latency_packages as f64 / self.detected as f64)
        }
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &AlarmLatency) {
        self.episodes += other.episodes;
        self.detected += other.detected;
        self.latency_packages += other.latency_packages;
    }
}

/// A complete evaluation: confusion counts plus per-attack recall.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassificationReport {
    /// Binary confusion counts.
    pub confusion: ConfusionCounts,
    /// Per-attack-type detected ratios.
    pub per_attack: PerAttackRecall,
}

impl ClassificationReport {
    /// Records one sample.
    pub fn record(&mut self, label: Option<AttackType>, predicted: bool) {
        self.confusion.record(label.is_some(), predicted);
        if let Some(ty) = label {
            self.per_attack.record(ty, predicted);
        }
    }

    /// Folds another report into this one (used by the sharded engine to
    /// aggregate per-shard results).
    pub fn merge(&mut self, other: &ClassificationReport) {
        self.confusion.tp += other.confusion.tp;
        self.confusion.fp += other.confusion.fp;
        self.confusion.tn += other.confusion.tn;
        self.confusion.fn_ += other.confusion.fn_;
        for i in 0..7 {
            self.per_attack.detected[i] += other.per_attack.detected[i];
            self.per_attack.total[i] += other.per_attack.total[i];
        }
    }

    /// Precision (see [`ConfusionCounts::precision`]).
    pub fn precision(&self) -> f64 {
        self.confusion.precision()
    }

    /// Recall (see [`ConfusionCounts::recall`]).
    pub fn recall(&self) -> f64 {
        self.confusion.recall()
    }

    /// Accuracy (see [`ConfusionCounts::accuracy`]).
    pub fn accuracy(&self) -> f64 {
        self.confusion.accuracy()
    }

    /// F1 score (see [`ConfusionCounts::f1_score`]).
    pub fn f1_score(&self) -> f64 {
        self.confusion.f1_score()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_on_known_confusion() {
        let c = ConfusionCounts {
            tp: 8,
            fp: 2,
            tn: 85,
            fn_: 5,
        };
        assert!((c.precision() - 0.8).abs() < 1e-12);
        assert!((c.recall() - 8.0 / 13.0).abs() < 1e-12);
        assert!((c.accuracy() - 0.93).abs() < 1e-12);
        let f1 = 2.0 * 0.8 * (8.0 / 13.0) / (0.8 + 8.0 / 13.0);
        assert!((c.f1_score() - f1).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_are_zero() {
        let c = ConfusionCounts::default();
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.f1_score(), 0.0);
    }

    #[test]
    fn record_routes_to_quadrants() {
        let mut c = ConfusionCounts::default();
        c.record(true, true);
        c.record(true, false);
        c.record(false, true);
        c.record(false, false);
        assert_eq!((c.tp, c.fn_, c.fp, c.tn), (1, 1, 1, 1));
    }

    #[test]
    fn from_pairs_matches_record() {
        let actual = vec![true, false, true, false];
        let predicted = vec![true, true, false, false];
        let c = ConfusionCounts::from_pairs(actual, predicted);
        assert_eq!((c.tp, c.fp, c.fn_, c.tn), (1, 1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_pairs_length_mismatch_panics() {
        ConfusionCounts::from_pairs(vec![true], vec![true, false]);
    }

    #[test]
    fn per_attack_ratios() {
        let mut pa = PerAttackRecall::default();
        pa.record(AttackType::Dos, true);
        pa.record(AttackType::Dos, false);
        pa.record(AttackType::Mfci, true);
        assert_eq!(pa.ratio(AttackType::Dos), Some(0.5));
        assert_eq!(pa.ratio(AttackType::Mfci), Some(1.0));
        assert_eq!(pa.ratio(AttackType::Nmri), None);
        assert_eq!(pa.count(AttackType::Dos), 2);
        let rows: Vec<_> = pa.iter().collect();
        assert_eq!(rows.len(), 7);
    }

    #[test]
    fn alarm_latency_accumulates_per_episode() {
        let mut lat = AlarmLatency::default();
        assert_eq!(lat.mean_latency(), None);
        lat.record_episode(Some(0)); // alarm on the first package
        lat.record_episode(Some(4));
        lat.record_episode(None); // missed episode
        assert_eq!(lat.episodes(), 3);
        assert_eq!(lat.detected(), 2);
        assert!((lat.mean_latency().unwrap() - 2.0).abs() < 1e-12);

        let mut other = AlarmLatency::default();
        other.record_episode(Some(2));
        lat.merge(&other);
        assert_eq!(lat.episodes(), 4);
        assert!((lat.mean_latency().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn report_combines_both_views() {
        let mut r = ClassificationReport::default();
        r.record(Some(AttackType::Nmri), true);
        r.record(Some(AttackType::Nmri), false);
        r.record(None, false);
        r.record(None, true);
        assert_eq!(r.confusion.tp, 1);
        assert_eq!(r.confusion.fn_, 1);
        assert_eq!(r.confusion.fp, 1);
        assert_eq!(r.confusion.tn, 1);
        assert_eq!(r.per_attack.ratio(AttackType::Nmri), Some(0.5));
        assert_eq!(r.accuracy(), 0.5);
    }
}
