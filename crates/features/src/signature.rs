//! Package signatures and the signature database.

use std::borrow::Borrow;
use std::fmt;

use icsad_dataset::Record;

use crate::codec::{put_u32, put_u64, put_usize, Reader};
use crate::discretizer::{DiscreteVector, Discretizer};

/// A package signature: the unique encoding of a discretized feature vector.
///
/// The generating function `g` concatenates the category indices with `~`,
/// which assigns a unique value to each distinct combination — the simplest
/// `g` the paper suggests.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature(String);

impl Signature {
    /// Builds a signature from discretized components.
    pub fn from_components(components: &[u16]) -> Self {
        let mut s = String::new();
        write_signature(components, &mut s);
        Signature(s)
    }

    /// The signature as a string (the Bloom filter key).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Parses the component indices back out of the signature.
    pub fn components(&self) -> Vec<u16> {
        if self.0.is_empty() {
            return Vec::new();
        }
        self.0
            .split('~')
            .map(|p| p.parse().expect("signature components are u16"))
            .collect()
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<[u8]> for Signature {
    fn as_ref(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

/// A [`Signature`] borrows as its key string, so hash maps keyed by
/// signatures can be probed with a scratch `&str` and no allocation
/// ([`SignatureVocabulary::id_of_key`]).
impl Borrow<str> for Signature {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Writes the signature encoding of `components` into `buf` (cleared
/// first), without allocating beyond the buffer's existing capacity.
///
/// This is the allocation-free core of [`Signature::from_components`]: the
/// streaming hot path keeps one `String` per lane and rewrites it for every
/// package. The digits are emitted manually — `u16` categories need at most
/// five — to keep the formatting machinery out of the per-package cost.
pub fn write_signature(components: &[u16], buf: &mut String) {
    buf.clear();
    for (i, &c) in components.iter().enumerate() {
        if i > 0 {
            buf.push('~');
        }
        let mut digits = [0u8; 5];
        let mut n = c;
        let mut len = 0;
        loop {
            digits[len] = b'0' + (n % 10) as u8;
            n /= 10;
            len += 1;
            if n == 0 {
                break;
            }
        }
        for d in digits[..len].iter().rev() {
            buf.push(char::from(*d));
        }
    }
}

/// The signature database: all distinct signatures observed in normal
/// training traffic, with dense class ids and occurrence counts.
///
/// Class ids index the LSTM softmax output; occurrence counts drive the
/// probabilistic-noise selection rule `p = λ / (λ + #s)` (paper §V-3).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SignatureVocabulary {
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only map; ids are assigned in insertion order and all iteration \
                  happens over `sigs`/`counts`, so replay is deterministic"
    )]
    ids: std::collections::HashMap<Signature, usize>,
    sigs: Vec<Signature>,
    counts: Vec<u64>,
}

impl SignatureVocabulary {
    /// Builds the vocabulary from training records (first-occurrence order).
    pub fn build(disc: &Discretizer, records: &[Record]) -> Self {
        let mut vocab = SignatureVocabulary::default();
        for r in records {
            vocab.insert(disc.signature(r));
        }
        vocab
    }

    /// Inserts one signature occurrence, creating a new class if needed.
    /// Returns the class id.
    pub fn insert(&mut self, sig: Signature) -> usize {
        match self.ids.get(&sig) {
            Some(&id) => {
                self.counts[id] += 1;
                id
            }
            None => {
                let id = self.sigs.len();
                self.ids.insert(sig.clone(), id);
                self.sigs.push(sig);
                self.counts.push(1);
                id
            }
        }
    }

    /// Class id of a signature, or `None` if it is not in the database.
    pub fn id_of(&self, sig: &Signature) -> Option<usize> {
        self.ids.get(sig).copied()
    }

    /// Class id lookup by raw signature key (see [`write_signature`]),
    /// avoiding the `Signature` allocation on the streaming hot path.
    pub fn id_of_key(&self, key: &str) -> Option<usize> {
        self.ids.get(key).copied()
    }

    /// The signature with the given class id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    pub fn signature(&self, id: usize) -> &Signature {
        &self.sigs[id]
    }

    /// Number of training occurrences of class `id` (the `#s` of §V-3).
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    pub fn count(&self, id: usize) -> u64 {
        self.counts[id]
    }

    /// Number of distinct signatures (`|S|`).
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Returns `true` if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Iterates over `(id, signature, count)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Signature, u64)> {
        self.sigs
            .iter()
            .enumerate()
            .map(move |(i, s)| (i, s, self.counts[i]))
    }

    /// Total number of occurrences inserted.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Serializes the database: every signature in class-id order with its
    /// occurrence count.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_usize(&mut out, self.sigs.len());
        for (_, sig, count) in self.iter() {
            let key = sig.as_str().as_bytes();
            put_u32(&mut out, key.len() as u32);
            out.extend_from_slice(key);
            put_u64(&mut out, count);
        }
        out
    }

    /// Deserializes a database produced by
    /// [`SignatureVocabulary::to_bytes`], restoring the exact class-id
    /// assignment.
    ///
    /// Returns `None` if the buffer is malformed (truncated, trailing
    /// bytes, invalid UTF-8, a zero count, or duplicate signatures).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let n = r.usize_()?;
        let mut vocab = SignatureVocabulary::default();
        for id in 0..n {
            let len = r.u32()? as usize;
            let key = std::str::from_utf8(r.take(len)?).ok()?;
            let count = r.u64()?;
            if count == 0 {
                return None;
            }
            let sig = Signature(key.to_string());
            if vocab.ids.insert(sig.clone(), id).is_some() {
                return None; // duplicate signature
            }
            vocab.sigs.push(sig);
            vocab.counts.push(count);
        }
        r.finish()?;
        Some(vocab)
    }
}

/// Builds the signature of a discretized vector directly.
pub fn signature_of(vector: &DiscreteVector) -> Signature {
    Signature::from_components(vector)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_round_trips_components() {
        let sig = Signature::from_components(&[3, 0, 17, 2]);
        assert_eq!(sig.as_str(), "3~0~17~2");
        assert_eq!(sig.components(), vec![3, 0, 17, 2]);
    }

    #[test]
    fn distinct_components_distinct_signatures() {
        let a = Signature::from_components(&[1, 23]);
        let b = Signature::from_components(&[12, 3]);
        assert_ne!(a, b, "separator must prevent ambiguous concatenation");
    }

    #[test]
    fn empty_signature() {
        let sig = Signature::from_components(&[]);
        assert_eq!(sig.as_str(), "");
        assert!(sig.components().is_empty());
    }

    #[test]
    fn vocabulary_assigns_dense_ids() {
        let mut v = SignatureVocabulary::default();
        let a = Signature::from_components(&[1]);
        let b = Signature::from_components(&[2]);
        assert_eq!(v.insert(a.clone()), 0);
        assert_eq!(v.insert(b.clone()), 1);
        assert_eq!(v.insert(a.clone()), 0);
        assert_eq!(v.len(), 2);
        assert_eq!(v.count(0), 2);
        assert_eq!(v.count(1), 1);
        assert_eq!(v.id_of(&a), Some(0));
        assert_eq!(v.id_of(&Signature::from_components(&[9])), None);
        assert_eq!(v.total_count(), 3);
    }

    #[test]
    fn vocabulary_iterates_in_id_order() {
        let mut v = SignatureVocabulary::default();
        v.insert(Signature::from_components(&[5]));
        v.insert(Signature::from_components(&[7]));
        v.insert(Signature::from_components(&[5]));
        let items: Vec<(usize, String, u64)> = v
            .iter()
            .map(|(i, s, c)| (i, s.as_str().to_string(), c))
            .collect();
        assert_eq!(
            items,
            vec![(0, "5".to_string(), 2), (1, "7".to_string(), 1)]
        );
    }

    #[test]
    fn signature_usable_as_bloom_key() {
        let sig = Signature::from_components(&[1, 2, 3]);
        let bytes: &[u8] = sig.as_ref();
        assert_eq!(bytes, b"1~2~3");
    }

    #[test]
    fn write_signature_matches_from_components() {
        let mut buf = String::new();
        for components in [
            vec![],
            vec![0],
            vec![7, 0, 65_535, 123, 9],
            vec![10, 100, 1000, 10_000],
        ] {
            write_signature(&components, &mut buf);
            assert_eq!(buf, Signature::from_components(&components).as_str());
        }
    }

    #[test]
    fn write_signature_reuses_buffer() {
        let mut buf = String::with_capacity(64);
        write_signature(&[1, 22, 333], &mut buf);
        let cap = buf.capacity();
        write_signature(&[9], &mut buf);
        assert_eq!(buf, "9");
        assert_eq!(buf.capacity(), cap, "rewrite must not reallocate");
    }

    #[test]
    fn vocabulary_serialization_round_trip() {
        let mut v = SignatureVocabulary::default();
        for components in [vec![1, 2], vec![3], vec![1, 2], vec![65_535, 0]] {
            v.insert(Signature::from_components(&components));
        }
        let back = SignatureVocabulary::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(back, v);
        // Ids, counts and lookups all survive.
        for (id, sig, count) in v.iter() {
            assert_eq!(back.id_of(sig), Some(id));
            assert_eq!(back.count(id), count);
        }
        // Empty database round trips too.
        let empty = SignatureVocabulary::default();
        assert_eq!(
            SignatureVocabulary::from_bytes(&empty.to_bytes()),
            Some(empty)
        );
    }

    #[test]
    fn vocabulary_deserialization_rejects_garbage() {
        assert!(SignatureVocabulary::from_bytes(&[]).is_none());
        let mut v = SignatureVocabulary::default();
        v.insert(Signature::from_components(&[4, 2]));
        let bytes = v.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SignatureVocabulary::from_bytes(&bytes[..cut]).is_none(),
                "truncation at {cut} must fail"
            );
        }
        let mut longer = bytes.clone();
        longer.push(7);
        assert!(SignatureVocabulary::from_bytes(&longer).is_none());
        // A zero occurrence count is invalid.
        let mut zero_count = bytes.clone();
        let at = bytes.len() - 8;
        zero_count[at..].copy_from_slice(&0u64.to_le_bytes());
        assert!(SignatureVocabulary::from_bytes(&zero_count).is_none());
    }

    #[test]
    fn id_of_key_matches_id_of() {
        let mut v = SignatureVocabulary::default();
        let a = Signature::from_components(&[3, 14, 15]);
        v.insert(a.clone());
        assert_eq!(v.id_of_key(a.as_str()), v.id_of(&a));
        assert_eq!(v.id_of_key("9~9"), None);
    }
}
