//! A compact bit vector backed by `u64` words.

/// A fixed-length vector of bits.
///
/// # Examples
///
/// ```
/// use icsad_bloom::BitVec;
///
/// let mut bits = BitVec::new(100);
/// bits.set(42);
/// assert!(bits.get(42));
/// assert!(!bits.get(43));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates a bit vector with `len` bits, all zero.
    pub fn new(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` to one. Returns the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        let (w, b) = (i / 64, i % 64);
        let prev = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        prev
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Sets every bit to zero.
    pub fn reset(&mut self) {
        self.words.fill(0);
    }

    /// Heap memory used by the vector, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Serializes the vector to bytes (length prefix + little-endian words).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.words.len() * 8);
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserializes a vector produced by [`BitVec::to_bytes`].
    ///
    /// Returns `None` if the buffer is malformed.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 {
            return None;
        }
        let len = u64::from_le_bytes(bytes[0..8].try_into().ok()?) as usize;
        let n_words = len.div_ceil(64);
        if bytes.len() != 8 + n_words * 8 {
            return None;
        }
        let mut words = Vec::with_capacity(n_words);
        for chunk in bytes[8..].chunks_exact(8) {
            words.push(u64::from_le_bytes(chunk.try_into().ok()?));
        }
        Some(BitVec { len, words })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Set bits, counted over the backing words (so a stray bit past
    /// `len` counts too).
    fn count_ones(bv: &BitVec) -> usize {
        bv.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn set_get_clear_round_trip() {
        let mut bv = BitVec::new(130);
        assert!(!bv.set(0));
        assert!(bv.set(0)); // second set reports previous value
        bv.set(63);
        bv.set(64);
        bv.set(129);
        assert!(bv.get(0) && bv.get(63) && bv.get(64) && bv.get(129));
        assert!(!bv.get(1) && !bv.get(128));
        assert_eq!(count_ones(&bv), 4);
        bv.clear(64);
        assert!(!bv.get(64));
        assert_eq!(count_ones(&bv), 3);
    }

    #[test]
    fn reset_clears_everything() {
        let mut bv = BitVec::new(70);
        for i in 0..70 {
            bv.set(i);
        }
        assert_eq!(count_ones(&bv), 70);
        bv.reset();
        assert_eq!(count_ones(&bv), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        BitVec::new(10).get(10);
    }

    #[test]
    fn empty_vector() {
        let bv = BitVec::new(0);
        assert!(bv.is_empty());
        assert_eq!(count_ones(&bv), 0);
        assert_eq!(bv.memory_bytes(), 0);
    }

    #[test]
    fn serialization_round_trip() {
        let mut bv = BitVec::new(100);
        bv.set(3);
        bv.set(99);
        let bytes = bv.to_bytes();
        let back = BitVec::from_bytes(&bytes).unwrap();
        assert_eq!(back, bv);
    }

    #[test]
    fn deserialization_rejects_malformed() {
        assert!(BitVec::from_bytes(&[]).is_none());
        assert!(BitVec::from_bytes(&[1, 2, 3]).is_none());
        let mut bytes = BitVec::new(100).to_bytes();
        bytes.pop();
        assert!(BitVec::from_bytes(&bytes).is_none());
    }

    #[test]
    fn memory_accounting() {
        assert_eq!(BitVec::new(64).memory_bytes(), 8);
        assert_eq!(BitVec::new(65).memory_bytes(), 16);
    }
}
