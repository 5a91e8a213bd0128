//! Dataset generation and the paper's experimental split protocol.

use icsad_simulator::traffic::{TrafficConfig, TrafficGenerator};

use crate::extract::{extract_records, DEFAULT_CRC_WINDOW};
use crate::record::Record;

/// Configuration for generating a labelled gas-pipeline capture.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Total number of packages to capture.
    pub total_packages: usize,
    /// Master seed (overrides `traffic.seed`).
    pub seed: u64,
    /// Probability of starting an attack episode at an idle cycle boundary
    /// (overrides `traffic.attack_probability`).
    pub attack_probability: f64,
    /// Width of the sliding window for the `crc rate` feature.
    pub crc_window: usize,
    /// Underlying traffic generator configuration.
    pub traffic: TrafficConfig,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            total_packages: 20_000,
            seed: 0,
            attack_probability: 0.08,
            crc_window: DEFAULT_CRC_WINDOW,
            traffic: TrafficConfig::default(),
        }
    }
}

/// Per-attack-type package counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatasetStats {
    /// Number of normal packages.
    pub normal: usize,
    /// Number of attack packages per attack type, indexed by
    /// [`icsad_simulator::AttackType::ALL`].
    pub per_attack: [usize; 7],
}

impl DatasetStats {
    /// Computes statistics over a record slice.
    pub fn from_records(records: &[Record]) -> Self {
        let mut stats = DatasetStats::default();
        for r in records {
            match r.label {
                None => stats.normal += 1,
                Some(ty) => stats.per_attack[(ty.id() - 1) as usize] += 1,
            }
        }
        stats
    }

    /// Total number of attack packages.
    pub fn attacks(&self) -> usize {
        self.per_attack.iter().sum()
    }

    /// Total number of packages.
    pub fn total(&self) -> usize {
        self.normal + self.attacks()
    }
}

/// A labelled capture of gas-pipeline SCADA traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct GasPipelineDataset {
    records: Vec<Record>,
}

impl GasPipelineDataset {
    /// Generates a capture from the simulator.
    pub fn generate(config: &DatasetConfig) -> Self {
        let traffic = TrafficConfig {
            seed: config.seed,
            attack_probability: config.attack_probability,
            ..config.traffic.clone()
        };
        let mut gen = TrafficGenerator::new(traffic);
        let packets = gen.generate(config.total_packages);
        GasPipelineDataset {
            records: extract_records(&packets, config.crc_window),
        }
    }

    /// Wraps existing records (e.g. parsed from an ARFF file).
    pub fn from_records(records: Vec<Record>) -> Self {
        GasPipelineDataset { records }
    }

    /// All records in capture order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Package counts by label.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::from_records(&self.records)
    }

    /// Splits the capture chronologically into train/validation/test with
    /// the paper's protocol (§VIII): the first `train_frac` of packages form
    /// the training set and the next `val_frac` the validation set — both
    /// with anomalous packages removed and the resulting normal fragments
    /// shorter than [`Split::MIN_FRAGMENT_LEN`] dropped — while the remainder
    /// becomes the test set with anomalies left in place.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_frac`, `0 <= val_frac` and
    /// `train_frac + val_frac < 1`.
    pub fn split_chronological(&self, train_frac: f64, val_frac: f64) -> Split {
        assert!(
            train_frac > 0.0 && val_frac >= 0.0 && train_frac + val_frac < 1.0,
            "invalid split fractions ({train_frac}, {val_frac})"
        );
        let n = self.records.len();
        let train_end = (n as f64 * train_frac).round() as usize;
        let val_end = (n as f64 * (train_frac + val_frac)).round() as usize;
        let train = Fragments::from_labelled(&self.records[..train_end], Split::MIN_FRAGMENT_LEN);
        let validation =
            Fragments::from_labelled(&self.records[train_end..val_end], Split::MIN_FRAGMENT_LEN);
        let test = self.records[val_end..].to_vec();
        Split {
            train,
            validation,
            test,
        }
    }
}

/// Anomaly-free record fragments.
///
/// Removing attack packages from a chronological capture slices the normal
/// sequence into contiguous fragments; time-series models must not learn
/// transitions across the cut points. The paper additionally drops fragments
/// shorter than 10 packages.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fragments {
    records: Vec<Record>,
    /// Start index of each fragment in `records`; an implicit final bound is
    /// `records.len()`.
    starts: Vec<usize>,
}

impl Fragments {
    /// Builds fragments from a labelled slice: attack records are removed,
    /// contiguous normal runs become fragments, and fragments shorter than
    /// `min_len` are dropped.
    pub fn from_labelled(records: &[Record], min_len: usize) -> Self {
        let mut out = Fragments::default();
        let mut current: Vec<Record> = Vec::new();
        let flush = |current: &mut Vec<Record>, out: &mut Fragments| {
            if current.len() >= min_len.max(1) {
                out.starts.push(out.records.len());
                out.records.append(current);
            } else {
                current.clear();
            }
        };
        for r in records {
            if r.is_attack() {
                flush(&mut current, &mut out);
            } else {
                current.push(r.clone());
            }
        }
        flush(&mut current, &mut out);
        out
    }

    /// All records of all fragments, concatenated.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Total number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if there are no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the fragments as contiguous record slices.
    pub fn iter(&self) -> impl Iterator<Item = &[Record]> {
        let n = self.records.len();
        self.starts.iter().enumerate().map(move |(i, &start)| {
            let end = self.starts.get(i + 1).copied().unwrap_or(n);
            &self.records[start..end]
        })
    }
}

/// The chronological train/validation/test split of a capture.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    train: Fragments,
    validation: Fragments,
    test: Vec<Record>,
}

impl Split {
    /// Minimum fragment length kept after anomaly removal (paper §VIII:
    /// "we also remove time-series fragments which are shorter than 10
    /// packages").
    pub const MIN_FRAGMENT_LEN: usize = 10;

    /// Anomaly-free training fragments.
    pub fn train(&self) -> &Fragments {
        &self.train
    }

    /// Anomaly-free validation fragments.
    pub fn validation(&self) -> &Fragments {
        &self.validation
    }

    /// Test records with attacks left in place.
    pub fn test(&self) -> &[Record] {
        &self.test
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icsad_simulator::AttackType;

    fn dataset(seed: u64, n: usize, attack_probability: f64) -> GasPipelineDataset {
        GasPipelineDataset::generate(&DatasetConfig {
            total_packages: n,
            seed,
            attack_probability,
            ..DatasetConfig::default()
        })
    }

    #[test]
    fn generates_requested_size() {
        let d = dataset(1, 3_000, 0.08);
        assert_eq!(d.records().len(), 3_000);
    }

    #[test]
    fn stats_partition_the_capture() {
        let d = dataset(2, 5_000, 0.1);
        let stats = d.stats();
        assert_eq!(stats.total(), 5_000);
        assert!(stats.normal > 0 && stats.attacks() > 0);
    }

    #[test]
    fn split_train_and_validation_are_anomaly_free() {
        let d = dataset(3, 10_000, 0.1);
        let split = d.split_chronological(0.6, 0.2);
        assert!(split.train().records().iter().all(|r| !r.is_attack()));
        assert!(split.validation().records().iter().all(|r| !r.is_attack()));
    }

    #[test]
    fn split_test_retains_attacks() {
        let d = dataset(4, 10_000, 0.1);
        let split = d.split_chronological(0.6, 0.2);
        assert!(split.test().iter().any(|r| r.is_attack()));
        // Test partition is exactly the final 20% of the capture.
        assert_eq!(split.test().len(), 2_000);
    }

    #[test]
    fn split_fractions_validated() {
        let d = dataset(5, 100, 0.0);
        let result = std::panic::catch_unwind(|| d.split_chronological(0.8, 0.3));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| d.split_chronological(0.0, 0.2));
        assert!(result.is_err());
    }

    #[test]
    fn fragments_have_min_length() {
        let d = dataset(6, 10_000, 0.15);
        let split = d.split_chronological(0.6, 0.2);
        for frag in split.train().iter() {
            assert!(frag.len() >= Split::MIN_FRAGMENT_LEN);
        }
        assert!(
            split.train().iter().count() > 1,
            "attacks should fragment the data"
        );
    }

    #[test]
    fn fragment_iteration_covers_all_records() {
        let d = dataset(7, 8_000, 0.1);
        let split = d.split_chronological(0.6, 0.2);
        let total: usize = split.train().iter().map(|f| f.len()).sum();
        assert_eq!(total, split.train().len());
    }

    #[test]
    fn fragments_are_chronological_runs() {
        let d = dataset(8, 8_000, 0.1);
        let split = d.split_chronological(0.6, 0.2);
        for frag in split.train().iter() {
            for w in frag.windows(2) {
                assert!(w[1].time > w[0].time);
            }
        }
    }

    #[test]
    fn clean_capture_yields_single_fragment() {
        let d = dataset(9, 2_000, 0.0);
        let split = d.split_chronological(0.6, 0.2);
        assert_eq!(split.train().iter().count(), 1);
        assert_eq!(split.train().len(), 1_200);
    }

    #[test]
    fn short_fragments_are_dropped() {
        // Hand-build records: 5 normal, 1 attack, 12 normal.
        let mut records = Vec::new();
        for i in 0..18 {
            let mut r = Record::empty_at(i as f64);
            if i == 5 {
                r.label = Some(AttackType::Dos);
            }
            records.push(r);
        }
        let frags = Fragments::from_labelled(&records, 10);
        assert_eq!(frags.iter().count(), 1);
        assert_eq!(frags.len(), 12);
    }

    #[test]
    fn deterministic_generation() {
        let a = dataset(10, 2_000, 0.1);
        let b = dataset(10, 2_000, 0.1);
        assert_eq!(a, b);
    }

    #[test]
    fn attack_ratio_in_plausible_band() {
        let d = dataset(11, 30_000, 0.08);
        let stats = d.stats();
        let frac = stats.attacks() as f64 / stats.total() as f64;
        // The paper's capture is ~22% attacks; ours should be in the same
        // regime with the default configuration.
        assert!((0.05..0.45).contains(&frac), "attack fraction {frac}");
    }
}
