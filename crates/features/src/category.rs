//! Categorical value maps with an *unknown* sentinel.
//!
//! Discrete package features (address, function code, length, …) have an
//! open domain on the wire: an attacker can put any byte there. A
//! [`CategoryMap`] learns the values observed in normal training traffic and
//! maps everything else to a single `unknown` category — the categorical
//! analogue of the paper's "+1" out-of-range value.

use std::collections::BTreeMap;

use crate::codec::{put_u32, put_usize, Reader};

/// A mapping from observed raw values to dense category indices
/// `0..unknown_index()`, with unseen values mapping to the index
/// [`CategoryMap::unknown_index`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CategoryMap {
    map: BTreeMap<u32, u16>,
}

impl CategoryMap {
    /// Builds the map from training values (duplicates are fine).
    ///
    /// Values are indexed in ascending numeric order so the mapping is
    /// independent of observation order.
    pub fn fit(values: impl IntoIterator<Item = u32>) -> Self {
        let mut keys: Vec<u32> = values.into_iter().collect();
        keys.sort_unstable();
        keys.dedup();
        let map = keys
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, i as u16))
            .collect();
        CategoryMap { map }
    }

    /// Total number of categories including the unknown sentinel.
    pub fn cardinality(&self) -> usize {
        self.map.len() + 1
    }

    /// Index of the unknown sentinel.
    pub fn unknown_index(&self) -> u16 {
        self.map.len() as u16
    }

    /// Maps a raw value to its category index (unknown values map to
    /// [`CategoryMap::unknown_index`]).
    pub fn index_of(&self, value: u32) -> u16 {
        self.map
            .get(&value)
            .copied()
            .unwrap_or(self.unknown_index())
    }

    /// Returns `true` if the value was observed during training.
    pub fn contains(&self, value: u32) -> bool {
        self.map.contains_key(&value)
    }

    /// Appends the map (observed keys in ascending order; the dense indices
    /// are implied by position).
    pub(crate) fn write_into(&self, out: &mut Vec<u8>) {
        put_usize(out, self.map.len());
        for &key in self.map.keys() {
            put_u32(out, key);
        }
    }

    /// Reads a map written by [`CategoryMap::write_into`]; `None` if the
    /// bytes run out, the keys are not strictly ascending, or there are more
    /// keys than the `u16` index space holds.
    pub(crate) fn read_from(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.usize_()?;
        // The unknown sentinel is `n as u16`, so n itself must fit.
        if n > usize::from(u16::MAX) {
            return None;
        }
        let mut map = BTreeMap::new();
        let mut prev: Option<u32> = None;
        for i in 0..n {
            let key = r.u32()?;
            if prev.is_some_and(|p| key <= p) {
                return None; // keys must be strictly ascending (canonical)
            }
            prev = Some(key);
            map.insert(key, i as u16);
        }
        Some(CategoryMap { map })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        let m = CategoryMap::fit(vec![16, 3, 3, 17, 3]);
        assert_eq!(m.map.len(), 3);
        assert_eq!(m.cardinality(), 4);
        assert_eq!(m.index_of(3), 0);
        assert_eq!(m.index_of(16), 1);
        assert_eq!(m.index_of(17), 2);
    }

    #[test]
    fn unknown_values_map_to_sentinel() {
        let m = CategoryMap::fit(vec![1, 2]);
        assert_eq!(m.index_of(99), m.unknown_index());
        assert_eq!(m.unknown_index(), 2);
        assert!(!m.contains(99));
        assert!(m.contains(1));
    }

    #[test]
    fn empty_map_sends_everything_to_unknown() {
        let m = CategoryMap::fit(std::iter::empty());
        assert!(m.map.is_empty());
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.index_of(0), 0);
    }

    #[test]
    fn order_independent() {
        let a = CategoryMap::fit(vec![5, 1, 9]);
        let b = CategoryMap::fit(vec![9, 5, 1, 1]);
        assert_eq!(a, b);
    }

    fn to_bytes(m: &CategoryMap) -> Vec<u8> {
        let mut out = Vec::new();
        m.write_into(&mut out);
        out
    }

    fn from_bytes(bytes: &[u8]) -> Option<CategoryMap> {
        crate::codec::tests::decode_all(bytes, CategoryMap::read_from)
    }

    #[test]
    fn serialization_round_trip() {
        for values in [vec![], vec![7], vec![16, 3, 3, 17, u32::MAX]] {
            let m = CategoryMap::fit(values);
            assert_eq!(from_bytes(&to_bytes(&m)), Some(m));
        }
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(from_bytes(&[]).is_none());
        // Truncated key list.
        let mut bytes = to_bytes(&CategoryMap::fit(vec![1, 2, 3]));
        bytes.pop();
        assert!(from_bytes(&bytes).is_none());
        // Trailing garbage.
        let mut bytes = to_bytes(&CategoryMap::fit(vec![1]));
        bytes.push(0);
        assert!(from_bytes(&bytes).is_none());
        // Non-ascending keys (non-canonical encoding).
        let mut out = Vec::new();
        crate::codec::put_usize(&mut out, 2);
        crate::codec::put_u32(&mut out, 9);
        crate::codec::put_u32(&mut out, 9);
        assert!(from_bytes(&out).is_none());
    }
}
