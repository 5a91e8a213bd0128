//! Package signatures and the signature database.

use std::fmt;

use icsad_dataset::Record;

use crate::codec::{put_u32, put_u64, put_usize, Reader};
use crate::discretizer::{DiscreteVector, Discretizer, FEATURE_COUNT};

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

/// Parses a signature key back into the discretized vector it was
/// formatted from: the inverse of [`write_signature`] on its canonical
/// output. Returns `None` unless `key` is exactly [`FEATURE_COUNT`]
/// `~`-separated decimal components, each without a sign or leading zero
/// and at most `u16::MAX`, so every key the vocabulary accepts formats
/// back to itself.
fn parse_signature(key: &str) -> Option<DiscreteVector> {
    let mut vector = [0u16; FEATURE_COUNT];
    let mut bytes = key.bytes();
    for (i, slot) in vector.iter_mut().enumerate() {
        let last = i + 1 == FEATURE_COUNT;
        let (mut value, mut digits) = (0u32, 0);
        loop {
            match bytes.next() {
                // A digit after a leading 0.
                Some(b'0'..=b'9') if digits > 0 && value == 0 => return None,
                Some(b @ b'0'..=b'9') => {
                    value = 10 * value + u32::from(b - b'0');
                    if value > u32::from(u16::MAX) {
                        return None;
                    }
                    digits += 1;
                }
                Some(b'~') if !last && digits > 0 => break,
                None if last && digits > 0 => break,
                _ => return None,
            }
        }
        *slot = value as u16;
    }
    Some(vector)
}

/// The signature database: all distinct signatures observed in normal
/// training traffic, with dense class ids and occurrence counts.
///
/// Class ids index the LSTM softmax output; occurrence counts drive the
/// probabilistic-noise selection rule `p = λ / (λ + #s)` (paper §V-3).
/// Signatures are held as the [`DiscreteVector`]s they are formatted from,
/// and looked up by vector ([`SignatureVocabulary::id_of_vector`]): one
/// hash of 13 integers and, on a hit, one 26-byte compare, with no string
/// formatted.
#[derive(Debug, Clone, Default)]
pub struct SignatureVocabulary {
    /// Open-addressing index over `vectors`: `id + 1` per occupied slot,
    /// 0 for an empty one; a power of two at most half full (or empty).
    slots: Vec<usize>,
    vectors: Vec<DiscreteVector>,
    counts: Vec<u64>,
}

/// Two vocabularies are equal when they hold the same signatures under the
/// same ids with the same counts (the index is derived from those).
impl PartialEq for SignatureVocabulary {
    fn eq(&self, other: &Self) -> bool {
        self.vectors == other.vectors && self.counts == other.counts
    }
}

/// Multiplicative hash of a discretized vector, four components to a word;
/// the index reads its top bits.
fn vector_hash(vector: &DiscreteVector) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    vector.chunks(4).fold(0u64, |h, chunk| {
        let word = chunk
            .iter()
            .rev()
            .fold(0u64, |w, &c| (w << 16) | u64::from(c));
        (h.rotate_left(26) ^ word).wrapping_mul(K)
    })
}

impl SignatureVocabulary {
    /// Builds the vocabulary from training records (first-occurrence order).
    pub fn build(disc: &Discretizer, records: &[Record]) -> Self {
        let mut vocab = SignatureVocabulary::default();
        for r in records {
            vocab.insert(disc.discretize(r));
        }
        vocab
    }

    /// Inserts one occurrence of the signature of `vector`, creating a new
    /// class if needed. Returns the class id.
    pub fn insert(&mut self, vector: DiscreteVector) -> usize {
        if let Some(id) = self.id_of_vector(&vector) {
            self.counts[id] += 1;
            return id;
        }
        let id = self.vectors.len();
        self.vectors.push(vector);
        self.counts.push(1);
        if 2 * self.vectors.len() > self.slots.len() {
            self.slots = vec![0; (4 * self.vectors.len()).next_power_of_two().max(16)];
            for id in 0..self.vectors.len() {
                let at = self.free_slot(&self.vectors[id]);
                self.slots[at] = id + 1;
            }
        } else {
            let at = self.free_slot(&vector);
            self.slots[at] = id + 1;
        }
        id
    }

    /// The slot `vector` hashes to, as the first step of a linear probe.
    fn home_slot(&self, vector: &DiscreteVector) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (vector_hash(vector) >> (64 - bits)) as usize
    }

    /// The first empty slot of `vector`'s probe (the index is never full).
    fn free_slot(&self, vector: &DiscreteVector) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.home_slot(vector);
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        at
    }

    /// Class id of a discretized package's signature, or `None` if it is
    /// not in the database — the lookup every package takes.
    pub fn id_of_vector(&self, vector: &DiscreteVector) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home_slot(vector);
        loop {
            match self.slots[at] {
                0 => return None,
                slot if self.vectors[slot - 1] == *vector => return Some(slot - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Class id lookup by raw signature key (see [`write_signature`]): the
    /// key is parsed back into its vector, so a key that is not canonical
    /// (exactly [`FEATURE_COUNT`] decimal components without leading zeros)
    /// names no class.
    pub fn id_of_key(&self, key: &str) -> Option<usize> {
        self.id_of_vector(&parse_signature(key)?)
    }

    /// The discretized vector of class `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    pub fn vector(&self, id: usize) -> &DiscreteVector {
        &self.vectors[id]
    }

    /// The signature with the given class id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    pub fn signature(&self, id: usize) -> Signature {
        Signature::from_components(&self.vectors[id])
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
        self.vectors.len()
    }

    /// Returns `true` if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Iterates over `(id, vector, count)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &DiscreteVector, u64)> {
        self.vectors
            .iter()
            .zip(&self.counts)
            .enumerate()
            .map(|(i, (v, &c))| (i, v, c))
    }

    /// Whether every component of every signature is below its feature's
    /// cardinality ([`Discretizer::cardinalities`]), as the one-hot encoder
    /// requires of what it encodes.
    pub fn fits_cardinalities(&self, cardinalities: &[usize; FEATURE_COUNT]) -> bool {
        self.vectors.iter().all(|vector| {
            vector
                .iter()
                .zip(cardinalities)
                .all(|(&c, &card)| usize::from(c) < card)
        })
    }

    /// Serializes the database: every signature key in class-id order with
    /// its occurrence count.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut key = String::new();
        put_usize(&mut out, self.len());
        for (_, vector, count) in self.iter() {
            write_signature(vector, &mut key);
            put_u32(&mut out, key.len() as u32);
            out.extend_from_slice(key.as_bytes());
            put_u64(&mut out, count);
        }
        out
    }

    /// Deserializes a database produced by
    /// [`SignatureVocabulary::to_bytes`], restoring the exact class-id
    /// assignment.
    ///
    /// Returns `None` if the buffer is malformed (truncated, trailing
    /// bytes, a key that is not a canonical signature — exactly
    /// [`FEATURE_COUNT`] decimal components, none above `u16::MAX` or with
    /// a leading zero — a zero count, or duplicate signatures).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let n = r.usize_()?;
        let mut vocab = SignatureVocabulary::default();
        for _ in 0..n {
            let len = r.u32()? as usize;
            let vector = parse_signature(std::str::from_utf8(r.take(len)?).ok()?)?;
            let count = r.u64()?;
            if count == 0 || vocab.id_of_vector(&vector).is_some() {
                return None;
            }
            let id = vocab.insert(vector);
            vocab.counts[id] = count;
        }
        r.finish()?;
        Some(vocab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_encodes_components() {
        let sig = Signature::from_components(&[3, 0, 17, 2]);
        assert_eq!(sig.as_str(), "3~0~17~2");
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
    }

    /// A full-width vector whose first components are `head`, the rest 0.
    fn vector(head: &[u16]) -> DiscreteVector {
        let mut v = [0u16; FEATURE_COUNT];
        v[..head.len()].copy_from_slice(head);
        v
    }

    #[test]
    fn vocabulary_assigns_dense_ids() {
        let mut v = SignatureVocabulary::default();
        let (a, b) = (vector(&[1]), vector(&[2]));
        assert_eq!(v.insert(a), 0);
        assert_eq!(v.insert(b), 1);
        assert_eq!(v.insert(a), 0);
        assert_eq!(v.len(), 2);
        assert_eq!(v.count(0), 2);
        assert_eq!(v.count(1), 1);
        assert_eq!(v.id_of_vector(&a), Some(0));
        assert_eq!(
            v.id_of_key(Signature::from_components(&a).as_str()),
            Some(0)
        );
        assert_eq!(v.id_of_vector(&vector(&[9])), None);
    }

    #[test]
    fn vocabulary_iterates_in_id_order() {
        let mut v = SignatureVocabulary::default();
        v.insert(vector(&[5]));
        v.insert(vector(&[7]));
        v.insert(vector(&[5]));
        let items: Vec<(usize, String, u64)> = v
            .iter()
            .map(|(i, s, c)| (i, Signature::from_components(s).as_str().to_string(), c))
            .collect();
        assert_eq!(
            items,
            vec![
                (0, "5~0~0~0~0~0~0~0~0~0~0~0~0".to_string(), 2),
                (1, "7~0~0~0~0~0~0~0~0~0~0~0~0".to_string(), 1)
            ]
        );
        assert_eq!(v.signature(1).as_str(), items[1].1);
    }

    #[test]
    fn index_survives_growth_and_colliding_neighbours() {
        // Enough classes to rebuild the index several times, all differing
        // in one component so their words hash close together.
        let mut v = SignatureVocabulary::default();
        for c in 0..1_000u16 {
            assert_eq!(v.insert(vector(&[0, 0, 0, 0, c])), usize::from(c));
        }
        for c in 0..1_000u16 {
            assert_eq!(
                v.id_of_vector(&vector(&[0, 0, 0, 0, c])),
                Some(usize::from(c))
            );
            assert_eq!(v.id_of_vector(&vector(&[0, 0, 0, 1, c])), None);
        }
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
        for head in [vec![1, 2], vec![3], vec![1, 2], vec![65_535, 0]] {
            v.insert(vector(&head));
        }
        let back = SignatureVocabulary::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(back, v);
        // Ids, counts and lookups all survive.
        for (id, vector, count) in v.iter() {
            assert_eq!(back.id_of_vector(vector), Some(id));
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
        v.insert(vector(&[4, 2]));
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

    /// A serialized database holding `keys`, each with count 1.
    fn payload(keys: &[&str]) -> Vec<u8> {
        let mut out = Vec::new();
        put_usize(&mut out, keys.len());
        for key in keys {
            put_u32(&mut out, key.len() as u32);
            out.extend_from_slice(key.as_bytes());
            put_u64(&mut out, 1);
        }
        out
    }

    #[test]
    fn vocabulary_deserialization_accepts_canonical_keys_only() {
        let canonical = "0~1~22~333~4444~65535~6~7~8~9~10~11~12";
        let back = SignatureVocabulary::from_bytes(&payload(&[canonical])).unwrap();
        assert_eq!(back.signature(0).as_str(), canonical);
        for key in [
            "01~1~22~333~4444~65535~6~7~8~9~10~11~12",  // leading zero
            "0~1~22~333~4444~65535~6~7~8~9~10~11",      // 12 components
            "0~1~22~333~4444~65535~6~7~8~9~10~11~12~0", // 14 components
            "0~1~22~333~4444~65536~6~7~8~9~10~11~12",   // above u16
            "0~+1~22~333~4444~65535~6~7~8~9~10~11~12",  // sign
            "0~~22~333~4444~65535~6~7~8~9~10~11~12",    // empty component
            "0~1~22~333~4444~65535~6~7~8~9~10~11~12~",  // trailing separator
            " 0~1~22~333~4444~65535~6~7~8~9~10~11~12",  // whitespace
            "",
        ] {
            assert_eq!(parse_signature(key), None, "{key:?}");
            assert!(
                SignatureVocabulary::from_bytes(&payload(&[key])).is_none(),
                "{key:?}"
            );
        }
        // The same signature twice is a duplicate class.
        assert!(SignatureVocabulary::from_bytes(&payload(&[canonical, canonical])).is_none());
    }

    #[test]
    fn parse_inverts_write() {
        let mut key = String::new();
        for head in [
            vec![],
            vec![7, 0, 65_535, 123, 9],
            vec![10, 100, 1000, 10_000],
        ] {
            let v = vector(&head);
            write_signature(&v, &mut key);
            assert_eq!(parse_signature(&key), Some(v));
        }
    }

    #[test]
    fn id_of_key_matches_id_of_vector() {
        let mut v = SignatureVocabulary::default();
        let a = vector(&[3, 14, 15]);
        v.insert(a);
        assert_eq!(
            v.id_of_key(Signature::from_components(&a).as_str()),
            Some(0)
        );
        assert_eq!(v.id_of_key("9~9"), None);
    }
}
