//! The *BF* baseline: a Bloom filter over whole-window signatures.
//!
//! This is deliberately different from the package-level Bloom detector in
//! `icsad-core`: here one command–response cycle (four packages) forms a
//! single sample, so the stored keys are concatenations of four package
//! signatures (paper §VIII-C: "thus the Bloom filter used here is different
//! than the one we used for package level anomaly detector").

use icsad_bloom::BloomFilter;
use icsad_dataset::Record;
use icsad_features::Discretizer;

use crate::detector::WindowDetector;
use crate::window::Windows;

/// False-positive budget of the window filter. A hash collision makes an
/// anomalous window look normal, so it costs recall, not precision.
const BLOOM_FPR: f64 = 0.001;

/// Window-signature Bloom filter baseline.
#[derive(Debug, Clone)]
pub struct WindowBloomFilter {
    discretizer: Discretizer,
    filter: BloomFilter,
    threshold: f64,
}

impl WindowBloomFilter {
    /// Builds the filter from normal training windows, sized for
    /// `train.len()` keys at a false-positive rate of 0.001.
    pub fn fit_windows(discretizer: Discretizer, train: &Windows) -> Self {
        let filter = BloomFilter::with_capacity(train.len().max(1), BLOOM_FPR)
            .expect("a positive capacity and a constant fpr in (0, 1)");
        let mut detector = WindowBloomFilter {
            discretizer,
            filter,
            threshold: 0.5,
        };
        for window in train.iter() {
            let key = detector.window_key(window);
            detector.filter.insert(key);
        }
        detector
    }

    /// The concatenated window signature used as the Bloom filter key.
    pub fn window_key(&self, window: &[Record]) -> String {
        let mut key = String::new();
        for (i, r) in window.iter().enumerate() {
            if i > 0 {
                key.push('|');
            }
            key.push_str(self.discretizer.signature(r).as_str());
        }
        key
    }

    /// Memory used by the underlying Bloom filter, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.filter.memory_bytes()
    }
}

impl WindowDetector for WindowBloomFilter {
    fn name(&self) -> &'static str {
        "BF"
    }

    /// 1.0 if the window signature is absent from the filter, else 0.0.
    fn score(&self, window: &[Record]) -> f64 {
        if self.filter.contains(self.window_key(window)) {
            0.0
        } else {
            1.0
        }
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icsad_dataset::{DatasetConfig, GasPipelineDataset};
    use icsad_features::DiscretizationConfig;

    fn setup(total: usize, seed: u64) -> (WindowBloomFilter, Windows, Windows) {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: total,
            seed,
            attack_probability: 0.1,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.6, 0.2);
        let disc = Discretizer::fit(
            &DiscretizationConfig::paper_defaults(),
            split.train().records(),
        )
        .unwrap();
        let train = Windows::over(split.train().records());
        let test = Windows::over(split.test());
        let bf = WindowBloomFilter::fit_windows(disc, &train);
        (bf, train, test)
    }

    #[test]
    fn training_windows_pass() {
        let (bf, train, _) = setup(8_000, 1);
        let fp = train.iter().filter(|w| bf.is_anomalous(w)).count();
        assert_eq!(fp, 0, "training windows must never be flagged");
    }

    #[test]
    fn detects_anomalous_test_windows() {
        let (bf, _, test) = setup(12_000, 2);
        let mut tp = 0usize;
        let mut anomalous = 0usize;
        for w in test.iter() {
            if crate::window::window_label(w).is_some() {
                anomalous += 1;
                if bf.is_anomalous(w) {
                    tp += 1;
                }
            }
        }
        assert!(anomalous > 10, "need anomalous windows in the test set");
        let recall = tp as f64 / anomalous as f64;
        assert!(recall > 0.3, "window BF recall {recall} implausibly low");
    }

    #[test]
    fn window_key_concatenates_signatures() {
        let (bf, train, _) = setup(4_000, 3);
        let w = train.window(0);
        let key = bf.window_key(w);
        assert_eq!(key.matches('|').count(), 3);
        for r in w {
            assert!(key.contains(bf.discretizer.signature(r).as_str()));
        }
    }

    #[test]
    fn score_is_binary() {
        let (bf, train, test) = setup(4_000, 4);
        for w in train.iter().take(10).chain(test.iter().take(10)) {
            let s = bf.score(w);
            assert!(s == 0.0 || s == 1.0);
        }
    }
}
