//! One-hot input rows held as the indices of their ones: the one input
//! format of the stack's bottom layer.

/// Rows of one-hot inputs, each held as the strictly ascending indices of
/// its ones below `input_dim`. Every row has a fixed slot of `slot`
/// indices and a length, so a row can be rewritten in place with more or
/// fewer ones ([`OneHotRows::set`]); the unused end of a slot is zero, so
/// two blocks holding the same rows compare equal.
///
/// The writers check each row: an index out of range, or one that does not
/// ascend (which a duplicate would not), panics. Ascending order is what
/// makes the one-hot product's bits those of the dense product over the
/// 0/1 row, and a duplicate would add its weight row twice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OneHotRows {
    input_dim: usize,
    slot: usize,
    indices: Vec<u32>,
    lens: Vec<u32>,
}

impl OneHotRows {
    /// No rows yet, of `input_dim` features and at most `slot` ones each.
    pub fn new(input_dim: usize, slot: usize) -> Self {
        OneHotRows {
            input_dim,
            slot,
            ..OneHotRows::default()
        }
    }

    /// The width of the 0/1 rows the indices stand for.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// Returns `true` if there is no row.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Keeps the first `rows` rows, or appends rows with no ones up to
    /// `rows`.
    pub fn resize(&mut self, rows: usize) {
        self.indices.resize(rows * self.slot, 0);
        self.lens.resize(rows, 0);
    }

    /// Appends a row with ones at `ones`.
    ///
    /// # Panics
    ///
    /// As [`OneHotRows::set`].
    pub fn push(&mut self, ones: &[u32]) {
        self.resize(self.len() + 1);
        self.set(self.len() - 1, ones);
    }

    /// Rewrites row `row` to have ones at `ones`.
    ///
    /// # Panics
    ///
    /// Panics if there is no row `row`, if `ones` holds more than `slot`
    /// indices, does not strictly ascend or names an index of `input_dim`
    /// or more.
    pub fn set(&mut self, row: usize, ones: &[u32]) {
        assert!(ones.len() <= self.slot, "one-hot row has too many ones");
        assert!(
            ones.windows(2).all(|w| w[0] < w[1]),
            "one-hot row is not strictly ascending"
        );
        assert!(
            ones.last().is_none_or(|&k| (k as usize) < self.input_dim),
            "one-hot index out of range"
        );
        let slot = &mut self.indices[row * self.slot..(row + 1) * self.slot];
        let (used, rest) = slot.split_at_mut(ones.len());
        used.copy_from_slice(ones);
        rest.fill(0);
        self.lens[row] = ones.len() as u32;
    }

    /// The ascending indices of row `row`'s ones.
    ///
    /// # Panics
    ///
    /// Panics if there is no row `row`.
    pub fn row(&self, row: usize) -> &[u32] {
        let at = row * self.slot;
        &self.indices[at..at + self.lens[row] as usize]
    }

    /// Every row, in order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[u32]> + Clone {
        (0..self.len()).map(|r| self.row(r))
    }

    /// Replaces every row with the ones of the dense 0/1 rows `dense`
    /// (`input_dim` entries each), in slots of `input_dim`: the boundary
    /// of the entries that take dense rows.
    ///
    /// # Panics
    ///
    /// Panics if a row is not `input_dim` wide, or an entry is not exactly
    /// `0.0` or `1.0`: the one-hot product would read any other value as a
    /// one.
    pub(crate) fn fill_dense<'a>(
        &mut self,
        input_dim: usize,
        dense: impl Iterator<Item = &'a [f32]>,
    ) {
        self.input_dim = input_dim;
        self.slot = input_dim;
        self.indices.clear();
        self.lens.clear();
        for x in dense {
            assert_eq!(x.len(), input_dim, "input dim mismatch");
            let at = self.indices.len();
            each_one(x, |k| self.indices.push(k));
            self.lens.push((self.indices.len() - at) as u32);
            self.indices.resize(at + input_dim, 0);
        }
    }
}

/// Calls `f` with the index of each one of the dense 0/1 row `x`, in
/// ascending order. 32 entries at a time it builds a bit mask of the ones
/// and one of the zeros, which the compiler vectorizes, so a row costs a
/// few vector compares rather than a branch per entry.
///
/// # Panics
///
/// Panics if an entry is not exactly `0.0` or `1.0`.
fn each_one(x: &[f32], mut f: impl FnMut(u32)) {
    for (c, chunk) in (0u32..).zip(x.chunks(32)) {
        let (mut ones, mut zeros) = (0u32, 0u32);
        for (i, &v) in chunk.iter().enumerate() {
            ones |= u32::from(v == 1.0) << i;
            zeros |= u32::from(v == 0.0) << i;
        }
        assert!(
            (ones | zeros).count_ones() as usize == chunk.len(),
            "a one-hot input entry is neither 0 nor 1"
        );
        while ones != 0 {
            f(c * 32 + ones.trailing_zeros());
            ones &= ones - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_rewrite_in_place_and_compare_by_their_ones() {
        let mut rows = OneHotRows::new(10, 3);
        rows.push(&[1, 4, 9]);
        rows.push(&[]);
        rows.push(&[0, 2]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.row(0), [1, 4, 9]);
        assert!(rows.row(1).is_empty());
        rows.set(0, &[3, 5]);
        assert_eq!(rows.row(0), [3, 5]);
        let mut fresh = OneHotRows::new(10, 3);
        fresh.push(&[3, 5]);
        fresh.push(&[]);
        fresh.push(&[0, 2]);
        assert_eq!(rows, fresh, "a shorter rewrite leaves no index behind");
        assert_eq!(rows.rows().collect::<Vec<_>>(), [&[3, 5][..], &[], &[0, 2]]);
        rows.resize(1);
        assert_eq!(rows.rows().collect::<Vec<_>>(), [&[3, 5][..]]);
    }

    #[test]
    fn dense_rows_convert_to_their_ones() {
        let mut rows = OneHotRows::new(2, 2);
        rows.push(&[0, 1]);
        let dense = [0.0, 1.0, 1.0, -0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0];
        rows.fill_dense(4, dense.chunks_exact(4));
        assert_eq!((rows.input_dim(), rows.len()), (4, 3));
        assert_eq!(
            rows.rows().collect::<Vec<_>>(),
            [&[1, 2][..], &[2, 3], &[0]]
        );
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn a_descending_row_panics() {
        OneHotRows::new(10, 3).push(&[4, 1]);
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn a_duplicate_index_panics() {
        OneHotRows::new(10, 3).push(&[4, 4]);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn an_index_past_the_input_panics() {
        OneHotRows::new(10, 3).push(&[2, 10]);
    }
}
