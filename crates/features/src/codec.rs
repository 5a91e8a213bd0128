//! Byte-level codec helpers shared by the serializable feature types.
//!
//! Every fitted component of the discretization pipeline can be written to
//! a compact little-endian byte form and read back exactly (floats round
//! trip via their bit patterns). Readers validate as they go and fail with
//! `None` instead of panicking, so corrupt commissioning artifacts surface
//! as typed errors at the [`icsad-core`](../../core) artifact layer.

/// Appends a `u32` in little-endian form.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian form.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a `u64`.
pub(crate) fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends an `f64` as its IEEE-754 bit pattern (exact round trip).
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A bounds-checked cursor over a byte buffer; every accessor returns
/// `None` on underrun instead of panicking.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Reads a little-endian `u32`.
    pub(crate) fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Reads a little-endian `u64`.
    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Reads a `u64` and converts it to `usize` (rejecting values that do
    /// not fit the platform's pointer width).
    pub(crate) fn usize_(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Reads an `f64` from its bit pattern.
    pub(crate) fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Bytes not yet consumed — lets decoders sanity-check an untrusted
    /// element count against the actual payload size *before* allocating.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Succeeds only if every byte has been consumed (rejects trailing
    /// garbage inside a section).
    pub(crate) fn finish(self) -> Option<()> {
        (self.pos == self.bytes.len()).then_some(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Decodes one component that must fill `bytes` exactly: a `read_from`
    /// decoder followed by [`Reader::finish`], as outside a DISC section.
    pub(crate) fn decode_all<T>(
        bytes: &[u8],
        read: impl FnOnce(&mut Reader<'_>) -> Option<T>,
    ) -> Option<T> {
        let mut r = Reader::new(bytes);
        let value = read(&mut r)?;
        r.finish()?;
        Some(value)
    }

    #[test]
    fn round_trips_scalars() {
        let mut out = Vec::new();
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_usize(&mut out, 42);
        put_f64(&mut out, -0.1);
        put_f64(&mut out, f64::NAN);
        let mut r = Reader::new(&out);
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.usize_(), Some(42));
        assert_eq!(r.f64(), Some(-0.1));
        assert!(r.f64().unwrap().is_nan(), "NaN bit pattern preserved");
        assert!(r.finish().is_some());
    }

    #[test]
    fn underrun_and_trailing_bytes_are_rejected() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.u64().is_none());
        let mut r = Reader::new(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(r.u32(), Some(0x04030201));
        assert!(r.finish().is_none(), "two unread bytes remain");
    }
}
