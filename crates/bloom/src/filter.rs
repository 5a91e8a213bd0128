//! The Bloom filter proper.

use std::error::Error;
use std::fmt;

use crate::bitvec::BitVec;
use crate::hash::{fnv1a, mix64, probes};

/// Errors produced when constructing a [`BloomFilter`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BloomError {
    /// Requested parameters are out of range (zero capacity/bits, or a false
    /// positive rate outside `(0, 1)`).
    InvalidParameters {
        /// Explanation of what was wrong.
        reason: &'static str,
    },
    /// A serialized filter could not be decoded.
    Corrupt,
}

impl fmt::Display for BloomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BloomError::InvalidParameters { reason } => {
                write!(f, "invalid bloom filter parameters: {reason}")
            }
            BloomError::Corrupt => write!(f, "corrupt serialized bloom filter"),
        }
    }
}

impl Error for BloomError {}

/// A space-efficient probabilistic set-membership structure.
///
/// Lookups may return false positives at a tunable rate but never false
/// negatives — exactly the asymmetry the package-level anomaly detector of
/// the paper relies on: a package whose signature is *not* found is
/// guaranteed not to be in the normal-behaviour database.
///
/// # Examples
///
/// ```
/// use icsad_bloom::BloomFilter;
///
/// let mut f = BloomFilter::with_capacity(613, 0.001)?;
/// for sig in ["a", "b", "c"] {
///     f.insert(sig);
/// }
/// assert!(f.contains("a") && f.contains("b") && f.contains("c"));
/// assert_eq!(f.len(), 3);
/// # Ok::<(), icsad_bloom::BloomError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: BitVec,
    k: u32,
    items: u64,
}

/// Most hash functions a filter may use. Every lookup makes `k` probes, so
/// an unbounded `k` read from a serialized filter would stall each one;
/// optimal sizing only exceeds 64 for a false-positive target below about
/// 5e-20.
pub const MAX_HASHES: u32 = 64;

impl BloomFilter {
    /// Creates a filter with exactly `m_bits` bits and `k` hash functions.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::InvalidParameters`] if `m_bits == 0`, `k == 0`
    /// or `k > 64`.
    pub fn with_params(m_bits: usize, k: u32) -> Result<Self, BloomError> {
        if m_bits == 0 {
            return Err(BloomError::InvalidParameters {
                reason: "m_bits must be positive",
            });
        }
        if k == 0 || k > MAX_HASHES {
            return Err(BloomError::InvalidParameters {
                reason: "k must be in 1..=64",
            });
        }
        Ok(BloomFilter {
            bits: BitVec::new(m_bits),
            k,
            items: 0,
        })
    }

    /// Creates a filter sized for `expected_items` with a target false
    /// positive rate, using the standard optimal sizing
    /// `m = -n ln p / (ln 2)^2`, `k = (m / n) ln 2`.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::InvalidParameters`] if `expected_items == 0`,
    /// `fpr` is not in `(0, 1)`, or `fpr` is so small that `k` exceeds 64.
    pub fn with_capacity(expected_items: usize, fpr: f64) -> Result<Self, BloomError> {
        if expected_items == 0 {
            return Err(BloomError::InvalidParameters {
                reason: "expected_items must be positive",
            });
        }
        if !(fpr > 0.0 && fpr < 1.0) {
            return Err(BloomError::InvalidParameters {
                reason: "fpr must be in (0, 1)",
            });
        }
        let n = expected_items as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * fpr.ln() / (ln2 * ln2)).ceil().max(8.0) as usize;
        let k = ((m as f64 / n) * ln2).round().max(1.0) as u32;
        BloomFilter::with_params(m, k)
    }

    /// Inserts an element. Returns `true` if the element was definitely not
    /// present before (at least one bit newly set).
    pub fn insert(&mut self, item: impl AsRef<[u8]>) -> bool {
        let bytes = item.as_ref();
        let (h1, h2) = (fnv1a(bytes), mix64(bytes));
        let mut newly_set = false;
        for idx in probes(h1, h2, self.bits.len() as u64).take(self.k as usize) {
            if !self.bits.set(idx as usize) {
                newly_set = true;
            }
        }
        self.items += 1;
        newly_set
    }

    /// Tests membership. False positives possible, false negatives not.
    pub fn contains(&self, item: impl AsRef<[u8]>) -> bool {
        let bytes = item.as_ref();
        let (h1, h2) = (fnv1a(bytes), mix64(bytes));
        probes(h1, h2, self.bits.len() as u64)
            .take(self.k as usize)
            .all(|idx| self.bits.get(idx as usize))
    }

    /// Number of insertions performed (not distinct elements).
    pub fn len(&self) -> u64 {
        self.items
    }

    /// Returns `true` if no insertions have been performed.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Heap memory used by the filter, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.memory_bytes()
    }

    /// Serializes the filter (k, item count, then the bit vector).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.items.to_le_bytes());
        out.extend_from_slice(&self.bits.to_bytes());
        out
    }

    /// Deserializes a filter produced by [`BloomFilter::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::Corrupt`] if the buffer is malformed or its `k`
    /// is outside `1..=64`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, BloomError> {
        if bytes.len() < 12 {
            return Err(BloomError::Corrupt);
        }
        let k = u32::from_le_bytes(bytes[0..4].try_into().map_err(|_| BloomError::Corrupt)?);
        let items = u64::from_le_bytes(bytes[4..12].try_into().map_err(|_| BloomError::Corrupt)?);
        let bits = BitVec::from_bytes(&bytes[12..]).ok_or(BloomError::Corrupt)?;
        if k == 0 || k > MAX_HASHES || bits.is_empty() {
            return Err(BloomError::Corrupt);
        }
        Ok(BloomFilter { bits, k, items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(1000, 0.01).unwrap();
        let items: Vec<String> = (0..1000).map(|i| format!("sig-{i}")).collect();
        for it in &items {
            f.insert(it);
        }
        for it in &items {
            assert!(f.contains(it), "false negative for {it}");
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let mut f = BloomFilter::with_capacity(2000, 0.01).unwrap();
        for i in 0..2000 {
            f.insert(format!("in-{i}"));
        }
        let fp = (0..20_000)
            .filter(|i| f.contains(format!("out-{i}")))
            .count();
        let rate = fp as f64 / 20_000.0;
        assert!(rate < 0.03, "observed fpr {rate} too high");
    }

    #[test]
    fn sizing_formula_sane() {
        let f = BloomFilter::with_capacity(613, 0.001).unwrap();
        // ~14.4 bits per element at 0.1% fpr.
        assert!(f.bits.len() > 613 * 12 && f.bits.len() < 613 * 18);
        assert!(f.k >= 7 && f.k <= 14);
    }

    #[test]
    fn insert_reports_novelty() {
        let mut f = BloomFilter::with_capacity(100, 0.01).unwrap();
        assert!(f.insert("a"));
        assert!(!f.insert("a"), "re-inserting sets no new bits");
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::with_capacity(100, 0.01).unwrap();
        assert!(f.is_empty());
        assert!(!f.contains("anything"));
        assert!((0..f.bits.len()).all(|i| !f.bits.get(i)));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(BloomFilter::with_capacity(0, 0.01).is_err());
        assert!(BloomFilter::with_capacity(10, 0.0).is_err());
        assert!(BloomFilter::with_capacity(10, 1.0).is_err());
        assert!(BloomFilter::with_capacity(10, -1.0).is_err());
        assert!(BloomFilter::with_params(0, 3).is_err());
        assert!(BloomFilter::with_params(64, 0).is_err());
        assert!(BloomFilter::with_params(64, MAX_HASHES).is_ok());
        assert!(BloomFilter::with_params(64, MAX_HASHES + 1).is_err());
        assert!(BloomFilter::with_capacity(10, 1e-30).is_err());
    }

    #[test]
    fn serialization_round_trip() {
        let mut f = BloomFilter::with_capacity(200, 0.01).unwrap();
        for i in 0..200 {
            f.insert(format!("s{i}"));
        }
        let back = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back, f);
        assert!(back.contains("s42"));
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(BloomFilter::from_bytes(&[]).is_err());
        assert!(BloomFilter::from_bytes(&[0u8; 11]).is_err());
        assert!(BloomFilter::from_bytes(&[0u8; 64]).is_err());
        let mut bytes = BloomFilter::with_params(64, 3).unwrap().to_bytes();
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(BloomFilter::from_bytes(&bytes), Err(BloomError::Corrupt));
    }

    #[test]
    fn memory_accounting_matches_bits() {
        let f = BloomFilter::with_params(8192, 3).unwrap();
        assert_eq!(f.memory_bytes(), 8192 / 8);
    }

    #[test]
    fn works_with_byte_and_string_keys() {
        let mut f = BloomFilter::with_params(1024, 3).unwrap();
        f.insert([1u8, 2, 3]);
        f.insert(String::from("owned"));
        assert!(f.contains([1u8, 2, 3]));
        assert!(f.contains("owned"));
    }
}
