//! Property-based tests for discretization and signatures.

use icsad_features::category::CategoryMap;
use icsad_features::interval::IntervalPartition;
use icsad_features::{
    write_signature, DiscreteVector, DiscretizationConfig, Discretizer, Signature,
    SignatureVocabulary, FEATURE_COUNT,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A vocabulary built from a clean capture, with its discretizer.
fn vocabulary() -> &'static (Discretizer, SignatureVocabulary) {
    static VOCAB: OnceLock<(Discretizer, SignatureVocabulary)> = OnceLock::new();
    VOCAB.get_or_init(|| {
        let data = icsad_dataset::GasPipelineDataset::generate(&icsad_dataset::DatasetConfig {
            total_packages: 4_000,
            seed: 11,
            attack_probability: 0.0,
            ..icsad_dataset::DatasetConfig::default()
        });
        let disc =
            Discretizer::fit(&DiscretizationConfig::paper_defaults(), data.records()).unwrap();
        let vocab = SignatureVocabulary::build(&disc, data.records());
        (disc, vocab)
    })
}

/// The string lookup: the id of the vocabulary entry whose signature key
/// equals `key`, by a linear scan over the formatted keys.
fn id_by_string(vocab: &SignatureVocabulary, key: &str) -> Option<usize> {
    vocab
        .iter()
        .find(|(_, vector, _)| Signature::from_components(*vector).as_str() == key)
        .map(|(id, _, _)| id)
}

#[test]
fn vector_lookup_agrees_with_string_lookup_on_every_entry() {
    let (_, vocab) = vocabulary();
    assert!(vocab.len() > 10);
    let mut key = String::new();
    for (id, vector, _) in vocab.iter() {
        write_signature(vector, &mut key);
        assert_eq!(vocab.id_of_vector(vector), Some(id));
        assert_eq!(id_by_string(vocab, &key), Some(id));
        assert_eq!(vocab.id_of_key(&key), Some(id));
    }
}

proptest! {
    /// Interval partition assigns all fitted values into valid bins and the
    /// bin ordering follows the value ordering.
    #[test]
    fn interval_partition_is_monotone(
        mut values in proptest::collection::vec(-1e6f64..1e6, 2..100),
        bins in 1usize..64,
    ) {
        let part = IntervalPartition::fit(values.iter().copied(), bins).unwrap();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last_bin = 0usize;
        for &v in &values {
            let bin = part.assign(v).expect("fitted values are in range");
            prop_assert!(bin < bins);
            prop_assert!(bin >= last_bin, "bins must be monotone in the value");
            last_bin = bin;
        }
    }

    /// Category maps are a bijection over observed values.
    #[test]
    fn category_map_bijection(values in proptest::collection::vec(any::<u32>(), 0..80)) {
        let map = CategoryMap::fit(values.iter().copied());
        let mut seen = std::collections::HashSet::new();
        for &v in &values {
            let idx = map.index_of(v);
            prop_assert!(idx < map.unknown_index());
            seen.insert(idx);
        }
        prop_assert_eq!(seen.len(), usize::from(map.unknown_index()));
    }

    /// Signature encoding is injective over component vectors.
    #[test]
    fn signature_injective(
        a in proptest::collection::vec(0u16..500, 1..20),
        b in proptest::collection::vec(0u16..500, 1..20),
    ) {
        let sa = Signature::from_components(&a);
        let sb = Signature::from_components(&b);
        prop_assert_eq!(sa == sb, a == b);
    }

    /// On random vectors — mostly unknown, some one component away from a
    /// vocabulary entry — the vector lookup finds exactly what the string
    /// lookup finds.
    #[test]
    fn vector_lookup_agrees_with_string_lookup_on_random_vectors(
        entry in any::<usize>(),
        component in 0usize..FEATURE_COUNT,
        noise in proptest::collection::vec(0u16..40, FEATURE_COUNT),
        perturb in any::<bool>(),
    ) {
        let (disc, vocab) = vocabulary();
        let cards = disc.cardinalities();
        let vector: DiscreteVector = if perturb {
            let mut v = *vocab.vector(entry % vocab.len());
            v[component] = noise[component] % cards[component] as u16;
            v
        } else {
            std::array::from_fn(|i| noise[i] % cards[i] as u16)
        };
        let mut key = String::new();
        write_signature(&vector, &mut key);
        let expected = id_by_string(vocab, &key);
        prop_assert_eq!(vocab.id_of_vector(&vector), expected);
        prop_assert_eq!(vocab.id_of_key(&key), expected);
    }

    /// The allocation-free signature writer produces exactly the encoding
    /// of `Signature::from_components`, for any components and any buffer
    /// reuse pattern.
    #[test]
    fn write_signature_matches_from_components(
        a in proptest::collection::vec(proptest::collection::vec(0u16..u16::MAX, 0..16), 1..8),
    ) {
        let mut buf = String::new();
        for components in &a {
            icsad_features::write_signature(components, &mut buf);
            prop_assert_eq!(buf.as_str(), Signature::from_components(components).as_str());
        }
    }
}
