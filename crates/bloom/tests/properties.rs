//! Property-based tests for the Bloom filter invariants.

use icsad_bloom::hash::probes;
use icsad_bloom::{BitVec, BloomFilter, MAX_HASHES};
use proptest::prelude::*;

/// The `i`-th double-hashed index in `[0, m)`, one `u128` remainder per
/// probe: `u128` arithmetic keeps the sequence an exact arithmetic
/// progression mod `m` (`u64` wrapping would corrupt it for large
/// `i · h2`).
fn double_hash(h1: u64, h2: u64, i: u64, m: u64) -> u64 {
    let h2 = u128::from(h2 | 1);
    ((u128::from(h1) + u128::from(i) * h2) % u128::from(m)) as u64
}

proptest! {
    /// The defining Bloom filter property: anything inserted is found.
    #[test]
    fn inserted_items_are_always_found(
        items in proptest::collection::vec(".{0,40}", 1..200),
        fpr in 0.001f64..0.5,
    ) {
        let mut f = BloomFilter::with_capacity(items.len(), fpr).unwrap();
        for it in &items {
            f.insert(it);
        }
        for it in &items {
            prop_assert!(f.contains(it));
        }
    }

    /// The division-free probe walk yields exactly the `u128` remainders
    /// of [`double_hash`], for moduli from 1 to 2^40 and up to `MAX_HASHES`
    /// probes. Half the cases draw `m ≤ 64`, where the walk wraps at most
    /// probes and, when `(h2 | 1) % m == 0` (always at `m = 1`), stands
    /// still.
    #[test]
    fn probe_walk_equals_double_hash(
        h1 in any::<u64>(),
        h2 in any::<u64>(),
        small in any::<bool>(),
        m_small in 1u64..=64,
        m_large in 1u64..=1 << 40,
        k in 1..=MAX_HASHES,
    ) {
        let m = if small { m_small } else { m_large };
        let walked: Vec<u64> = probes(h1, h2, m).take(k as usize).collect();
        let direct: Vec<u64> = (0..u64::from(k)).map(|i| double_hash(h1, h2, i, m)).collect();
        prop_assert_eq!(walked, direct);
    }

    /// Serialization round-trips exactly, preserving membership answers.
    #[test]
    fn filter_serialization_round_trip(
        items in proptest::collection::vec(".{0,20}", 0..100),
        probes in proptest::collection::vec(".{0,20}", 0..50),
    ) {
        let mut f = BloomFilter::with_params(2048, 5).unwrap();
        for it in &items {
            f.insert(it);
        }
        let back = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        prop_assert_eq!(&back, &f);
        for p in &probes {
            prop_assert_eq!(back.contains(p), f.contains(p));
        }
    }

    /// BitVec set/get agree, and the bits set across the backing words
    /// (read from `to_bytes`, so a stray bit past `len` counts too) match
    /// the number of distinct set positions.
    #[test]
    fn bitvec_set_get_count(
        len in 1usize..500,
        positions in proptest::collection::vec(0usize..500, 0..100),
    ) {
        let mut bv = BitVec::new(len);
        let mut distinct = std::collections::HashSet::new();
        for &p in positions.iter().filter(|&&p| p < len) {
            bv.set(p);
            distinct.insert(p);
        }
        for p in 0..len {
            prop_assert_eq!(bv.get(p), distinct.contains(&p));
        }
        let ones: usize = bv.to_bytes()[8..].iter().map(|b| b.count_ones() as usize).sum();
        prop_assert_eq!(ones, distinct.len());
    }

    /// BitVec serialization round-trips exactly.
    #[test]
    fn bitvec_serialization_round_trip(
        len in 0usize..300,
        positions in proptest::collection::vec(0usize..300, 0..80),
    ) {
        let mut bv = BitVec::new(len);
        for &p in positions.iter().filter(|&&p| p < len) {
            bv.set(p);
        }
        prop_assert_eq!(BitVec::from_bytes(&bv.to_bytes()), Some(bv));
    }
}
