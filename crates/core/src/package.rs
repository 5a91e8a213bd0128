//! The package-level anomaly detector (paper §IV): the signature database
//! of normal packages stored in a Bloom filter.

use icsad_bloom::BloomFilter;
use icsad_dataset::Record;
use icsad_features::{write_signature, Discretizer, SignatureVocabulary};

use crate::error::CoreError;

/// Bloom-filter package-level detector.
///
/// Detection function (paper §IV-C):
///
/// ```text
/// F_p(x) = 1  if s(x) ∉ B
///          0  otherwise
/// ```
///
/// Because the Bloom filter has no false negatives, every signature stored
/// during training always passes; only genuinely novel signatures (plus a
/// controlled rate of hash collisions) change the answer.
#[derive(Debug, Clone)]
pub struct PackageLevelDetector {
    discretizer: Discretizer,
    filter: BloomFilter,
    signature_count: usize,
}

impl PackageLevelDetector {
    /// Builds the detector from a fitted discretizer and the signature
    /// database of normal traffic.
    ///
    /// `bloom_fpr` is the Bloom filter's internal false-positive budget;
    /// note the inversion of roles: a Bloom false positive makes an
    /// *anomalous* package look normal, so it costs detection recall, not
    /// detector precision.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTrainingData`] for an empty vocabulary
    /// and [`CoreError::Bloom`] for invalid filter parameters.
    pub fn train(
        discretizer: &Discretizer,
        vocabulary: &SignatureVocabulary,
        bloom_fpr: f64,
    ) -> Result<Self, CoreError> {
        if vocabulary.is_empty() {
            return Err(CoreError::InvalidTrainingData {
                reason: "signature vocabulary is empty".into(),
            });
        }
        let mut filter = BloomFilter::with_capacity(vocabulary.len(), bloom_fpr)?;
        let mut key = String::new();
        for (_, vector, _) in vocabulary.iter() {
            write_signature(vector, &mut key);
            filter.insert(&key);
        }
        Ok(PackageLevelDetector {
            discretizer: discretizer.clone(),
            filter,
            signature_count: vocabulary.len(),
        })
    }

    /// Reassembles a trained detector from its serialized parts (the
    /// artifact load path; see [`crate::artifact`]), checking that the
    /// filter was built over `vocabulary`: one insertion per signature,
    /// and every signature passes.
    pub(crate) fn from_parts(
        discretizer: Discretizer,
        filter: BloomFilter,
        vocabulary: &SignatureVocabulary,
    ) -> Result<Self, String> {
        let signature_count = vocabulary.len();
        if signature_count == 0 {
            return Err("signature database is empty".into());
        }
        // Training inserts each distinct signature exactly once, so a
        // filter whose insertion count disagrees with the vocabulary was
        // built over a different signature database.
        if filter.len() != signature_count as u64 {
            return Err(format!(
                "bloom filter holds {} insertions but the vocabulary holds {} signatures",
                filter.len(),
                signature_count
            ));
        }
        let detector = PackageLevelDetector {
            discretizer,
            filter,
            signature_count,
        };
        if !detector.passes_every(vocabulary) {
            return Err("bloom filter lacks a signature of the vocabulary".into());
        }
        Ok(detector)
    }

    /// Whether every signature of `vocabulary` passes the filter. True by
    /// construction for the vocabulary [`PackageLevelDetector::train`] was
    /// given (a Bloom filter has no false negatives), and what lets the
    /// framework answer the package level of a known signature from the
    /// vocabulary alone ([`crate::CombinedDetector::new`]).
    pub(crate) fn passes_every(&self, vocabulary: &SignatureVocabulary) -> bool {
        let mut key = String::new();
        vocabulary.iter().all(|(_, vector, _)| {
            write_signature(vector, &mut key);
            self.filter.contains(&key)
        })
    }

    /// The Bloom filter holding the signature database.
    pub(crate) fn filter(&self) -> &BloomFilter {
        &self.filter
    }

    /// The fitted discretizer.
    pub fn discretizer(&self) -> &Discretizer {
        &self.discretizer
    }

    /// Number of distinct signatures stored.
    pub fn signature_count(&self) -> usize {
        self.signature_count
    }

    /// Bloom filter memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.filter.memory_bytes()
    }

    /// Tests a raw signature key (see [`icsad_features::write_signature`])
    /// against the database — the allocation-free probe the framework's
    /// package level runs on every package.
    pub fn key_is_anomalous(&self, key: &str) -> bool {
        !self.filter.contains(key)
    }

    /// Classifies one package: `true` = anomalous (`F_p(x) = 1`).
    pub fn is_anomalous(&self, record: &Record) -> bool {
        !self.filter.contains(self.discretizer.signature(record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icsad_dataset::{DatasetConfig, GasPipelineDataset, Split};
    use icsad_features::DiscretizationConfig;

    fn setup(total: usize, seed: u64, attack_probability: f64) -> (PackageLevelDetector, Split) {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: total,
            seed,
            attack_probability,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.6, 0.2);
        let disc = Discretizer::fit(
            &DiscretizationConfig::paper_defaults(),
            split.train().records(),
        )
        .unwrap();
        let vocab = SignatureVocabulary::build(&disc, split.train().records());
        let det = PackageLevelDetector::train(&disc, &vocab, 0.001).unwrap();
        (det, split)
    }

    #[test]
    fn training_packages_always_pass() {
        let (det, split) = setup(8_000, 1, 0.1);
        for r in split.train().records() {
            assert!(!det.is_anomalous(r), "training package flagged");
        }
    }

    #[test]
    fn validation_false_positive_rate_is_low() {
        let (det, split) = setup(60_000, 2, 0.05);
        let fp = split
            .validation()
            .records()
            .iter()
            .filter(|r| det.is_anomalous(r))
            .count();
        let rate = fp as f64 / split.validation().len() as f64;
        assert!(rate < 0.05, "validation fp rate {rate}");
    }

    #[test]
    fn detects_novel_signatures() {
        let (det, split) = setup(20_000, 3, 0.15);
        let mut detected = 0usize;
        let mut attacks = 0usize;
        for r in split.test() {
            if r.is_attack() {
                attacks += 1;
                if det.is_anomalous(r) {
                    detected += 1;
                }
            }
        }
        assert!(attacks > 100);
        let recall = detected as f64 / attacks as f64;
        assert!(
            recall > 0.3,
            "package-level recall {recall} implausibly low"
        );
    }

    #[test]
    fn mfci_and_recon_are_caught_at_package_level() {
        // These attacks use unknown function codes / addresses, which the
        // signature database can never contain (paper Table V: ratio 1.0).
        let (det, split) = setup(30_000, 4, 0.15);
        let mut missed = 0usize;
        let mut seen = 0usize;
        use icsad_simulator::AttackType;
        for r in split.test() {
            if matches!(r.label, Some(AttackType::Mfci | AttackType::Recon)) {
                seen += 1;
                if !det.is_anomalous(r) {
                    missed += 1;
                }
            }
        }
        assert!(seen > 0, "need MFCI/Recon packages in the test set");
        assert!(
            (missed as f64) < 0.02 * seen as f64 + 2.0,
            "missed {missed}/{seen} MFCI/Recon packages"
        );
    }

    #[test]
    fn key_probe_agrees_with_record_probe() {
        let (det, split) = setup(4_000, 5, 0.1);
        let mut key = String::new();
        let mut flagged = 0;
        for r in split.test().iter().take(200) {
            icsad_features::write_signature(&det.discretizer.discretize(r), &mut key);
            assert_eq!(det.key_is_anomalous(&key), det.is_anomalous(r));
            flagged += usize::from(det.is_anomalous(r));
        }
        assert!(flagged > 0, "the sample must include a flagged package");
    }

    #[test]
    fn memory_is_small() {
        let (det, _) = setup(8_000, 6, 0.1);
        // The paper reports 684 KB for both models; the Bloom filter alone
        // is tiny.
        assert!(det.memory_bytes() < 64 * 1024);
        assert!(det.signature_count() > 0);
    }

    #[test]
    fn empty_vocabulary_rejected() {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 1_000,
            seed: 7,
            attack_probability: 0.0,
            ..DatasetConfig::default()
        });
        let disc =
            Discretizer::fit(&DiscretizationConfig::paper_defaults(), data.records()).unwrap();
        let vocab = SignatureVocabulary::default();
        assert!(matches!(
            PackageLevelDetector::train(&disc, &vocab, 0.01),
            Err(CoreError::InvalidTrainingData { .. })
        ));
    }
}
