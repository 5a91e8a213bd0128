//! One-hot encoding of discretized vectors for the LSTM (paper §V-1) and
//! the probabilistic-noise mutation of §V-3.

use rand::Rng;
use rand_chacha::ChaCha12Rng;

use crate::discretizer::{DiscreteVector, Discretizer, FEATURE_COUNT};

/// Encodes [`DiscreteVector`]s as flat one-hot vectors, with one trailing
/// *noise flag* dimension (the extra feature `c_{o+1}` of §V-3 that tells
/// the model whether the package was flagged anomalous/noisy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneHotEncoder {
    cardinalities: [usize; FEATURE_COUNT],
    offsets: [usize; FEATURE_COUNT],
    dims: usize,
}

impl OneHotEncoder {
    /// Builds an encoder for the given discretizer's category layout.
    pub fn new(disc: &Discretizer) -> Self {
        Self::from_cardinalities(disc.cardinalities())
    }

    /// Builds an encoder from raw per-feature cardinalities.
    ///
    /// # Panics
    ///
    /// Panics if any cardinality is zero.
    pub fn from_cardinalities(cardinalities: [usize; FEATURE_COUNT]) -> Self {
        assert!(
            cardinalities.iter().all(|&c| c > 0),
            "cardinalities must be positive"
        );
        let mut offsets = [0usize; FEATURE_COUNT];
        let mut total = 0usize;
        for (i, &c) in cardinalities.iter().enumerate() {
            offsets[i] = total;
            total += c;
        }
        OneHotEncoder {
            cardinalities,
            offsets,
            dims: total + 1, // + noise flag
        }
    }

    /// Total encoded dimensionality (sum of cardinalities + 1 noise flag).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Per-feature cardinalities.
    pub fn cardinalities(&self) -> &[usize; FEATURE_COUNT] {
        &self.cardinalities
    }

    /// The one index form of an encoded package: the ascending indices of
    /// its ones — one per feature, then the noise flag `dims() − 1` when
    /// `noisy` — which is what the LSTM's one-hot kernels read.
    ///
    /// # Panics
    ///
    /// Panics if any category index is out of range for its feature.
    pub fn indices(&self, vector: &DiscreteVector, noisy: bool) -> OneHotIndices {
        let mut out = OneHotIndices {
            indices: [0; ONE_HOT_SLOT],
            len: FEATURE_COUNT,
        };
        for (i, &cat) in vector.iter().enumerate() {
            let cat = cat as usize;
            assert!(
                cat < self.cardinalities[i],
                "feature {i}: category {cat} out of range ({})",
                self.cardinalities[i]
            );
            out.indices[i] = (self.offsets[i] + cat) as u32;
        }
        if noisy {
            out.indices[FEATURE_COUNT] = (self.dims - 1) as u32;
            out.len += 1;
        }
        out
    }

    /// Encodes as a dense 0/1 vector into a caller-provided buffer: zeroed,
    /// then a one at each of [`OneHotEncoder::indices`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dims()` or any category index is out of
    /// range for its feature.
    pub fn encode_into(&self, vector: &DiscreteVector, noisy: bool, out: &mut [f32]) {
        assert_eq!(out.len(), self.dims, "output buffer has wrong length");
        out.fill(0.0);
        for &k in self.indices(vector, noisy).as_slice() {
            out[k as usize] = 1.0;
        }
    }

    /// [`OneHotEncoder::encode_into`] a fresh vector.
    pub fn encode(&self, vector: &DiscreteVector, noisy: bool) -> Vec<f32> {
        let mut out = vec![0.0; self.dims];
        self.encode_into(vector, noisy, &mut out);
        out
    }
}

/// The most ones an encoded package has: one per feature and the noise
/// flag.
pub const ONE_HOT_SLOT: usize = FEATURE_COUNT + 1;

/// An encoded package as the ascending indices of its ones
/// ([`OneHotEncoder::indices`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneHotIndices {
    indices: [u32; ONE_HOT_SLOT],
    len: usize,
}

impl OneHotIndices {
    /// The indices, ascending: [`FEATURE_COUNT`] of them, or one more with
    /// the noise flag.
    pub fn as_slice(&self) -> &[u32] {
        &self.indices[..self.len]
    }
}

/// Applies the probabilistic-noise mutation of §V-3: sample `d` uniformly
/// from `[1, max_feats]` and change `d` randomly chosen features to a
/// *different* random value within their cardinality.
///
/// Features with cardinality 1 cannot change and are skipped.
///
/// # Panics
///
/// Panics if `max_feats == 0` or `max_feats > FEATURE_COUNT`.
pub fn mutate_noise(
    vector: &mut DiscreteVector,
    cardinalities: &[usize; FEATURE_COUNT],
    max_feats: usize,
    rng: &mut ChaCha12Rng,
) {
    assert!(
        (1..=FEATURE_COUNT).contains(&max_feats),
        "max_feats must be in [1, {FEATURE_COUNT}]"
    );
    let d = rng.gen_range(1..=max_feats);
    let mut pool = [0usize; FEATURE_COUNT];
    let mut mutable = 0;
    for i in (0..FEATURE_COUNT).filter(|&i| cardinalities[i] > 1) {
        pool[mutable] = i;
        mutable += 1;
    }
    if mutable == 0 {
        return;
    }
    // Choose d distinct features (partial Fisher–Yates).
    let pool = &mut pool[..mutable];
    let d = d.min(pool.len());
    for step in 0..d {
        let pick = rng.gen_range(step..pool.len());
        pool.swap(step, pick);
        let feat = pool[step];
        let card = cardinalities[feat];
        let current = vector[feat] as usize;
        let mut new = rng.gen_range(0..card - 1);
        if new >= current {
            new += 1;
        }
        vector[feat] = new as u16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;

    fn cards() -> [usize; FEATURE_COUNT] {
        [3, 4, 5, 2, 3, 3, 12, 22, 34, 5, 4, 4, 4]
    }

    fn sample_vector() -> DiscreteVector {
        [0, 1, 2, 1, 0, 1, 5, 10, 7, 2, 0, 1, 0]
    }

    #[test]
    fn dims_is_sum_plus_noise_flag() {
        let enc = OneHotEncoder::from_cardinalities(cards());
        assert_eq!(enc.dims(), cards().iter().sum::<usize>() + 1);
    }

    #[test]
    fn encoding_sets_one_bit_per_feature() {
        let enc = OneHotEncoder::from_cardinalities(cards());
        let v = sample_vector();
        let out = enc.encode(&v, false);
        let ones = out.iter().filter(|&&x| x == 1.0).count();
        assert_eq!(ones, FEATURE_COUNT);
        assert_eq!(out[enc.dims() - 1], 0.0);
    }

    #[test]
    fn noise_flag_sets_last_dim() {
        let enc = OneHotEncoder::from_cardinalities(cards());
        let out = enc.encode(&sample_vector(), true);
        assert_eq!(out[enc.dims() - 1], 1.0);
        let ones = out.iter().filter(|&&x| x == 1.0).count();
        assert_eq!(ones, FEATURE_COUNT + 1);
        // The index form lists them ascending, the flag last.
        let indices = enc.indices(&sample_vector(), true);
        assert!(indices.as_slice().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(indices.as_slice().last(), Some(&(enc.dims() as u32 - 1)));
    }

    #[test]
    fn encoding_positions_respect_offsets() {
        let enc = OneHotEncoder::from_cardinalities(cards());
        let mut v = sample_vector();
        v[0] = 2;
        let out = enc.encode(&v, false);
        assert_eq!(out[2], 1.0); // feature 0 occupies dims 0..3
        let mut v2 = v;
        v2[1] = 0;
        let out2 = enc.encode(&v2, false);
        assert_eq!(out2[3], 1.0); // feature 1 starts at offset 3
    }

    #[test]
    fn distinct_vectors_distinct_encodings() {
        let enc = OneHotEncoder::from_cardinalities(cards());
        let a = enc.encode(&sample_vector(), false);
        let mut v = sample_vector();
        v[7] = 11;
        let b = enc.encode(&v, false);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_category_panics() {
        let enc = OneHotEncoder::from_cardinalities(cards());
        let mut v = sample_vector();
        v[3] = 7; // cardinality 2
        enc.encode(&v, false);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_buffer_length_panics() {
        let enc = OneHotEncoder::from_cardinalities(cards());
        let mut buf = vec![0.0; 3];
        enc.encode_into(&sample_vector(), false, &mut buf);
    }

    #[test]
    fn mutation_changes_between_one_and_max_features() {
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let cards = cards();
        for _ in 0..200 {
            let original = sample_vector();
            let mut v = original;
            mutate_noise(&mut v, &cards, 4, &mut rng);
            let changed = original
                .iter()
                .zip(v.iter())
                .filter(|(a, b)| a != b)
                .count();
            assert!((1..=4).contains(&changed), "changed {changed} features");
            // Mutated values stay within cardinality.
            for (i, &cat) in v.iter().enumerate() {
                assert!((cat as usize) < cards[i]);
            }
        }
    }

    #[test]
    fn mutation_never_keeps_selected_feature_value() {
        // With max_feats = 1 exactly one feature changes, to a new value.
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        let cards = cards();
        for _ in 0..100 {
            let original = sample_vector();
            let mut v = original;
            mutate_noise(&mut v, &cards, 1, &mut rng);
            let changed = original
                .iter()
                .zip(v.iter())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(changed, 1);
        }
    }

    #[test]
    fn mutation_skips_unit_cardinality_features() {
        let mut cards = cards();
        cards[0] = 1;
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        for _ in 0..100 {
            let mut v = sample_vector();
            v[0] = 0;
            mutate_noise(&mut v, &cards, FEATURE_COUNT, &mut rng);
            assert_eq!(v[0], 0, "unit-cardinality feature must not change");
        }
    }

    #[test]
    #[should_panic(expected = "max_feats")]
    fn zero_max_feats_panics() {
        let mut rng = ChaCha12Rng::seed_from_u64(8);
        mutate_noise(&mut sample_vector(), &cards(), 0, &mut rng);
    }
}
