//! Independent 64-bit hash functions used for double hashing.
//!
//! Bloom filters need `k` independent hash functions. Following Kirsch and
//! Mitzenmacher, two base hashes suffice: `h_i(x) = h1(x) + i * h2(x)`. The
//! two base hashes here are FNV-1a and an avalanche-finalized (splitmix64)
//! variant of FNV with different constants, which are empirically independent
//! enough for the filter sizes used in this workspace (see the uniformity
//! tests below).

/// FNV-1a 64-bit hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Second base hash: FNV accumulation with a different offset basis followed
/// by the splitmix64 finalizer for avalanche.
pub fn mix64(bytes: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15_u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = h.rotate_left(31);
    }
    splitmix64(h)
}

/// The splitmix64 finalization step: a fast, high-quality avalanche function.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The double-hashed probe sequence `(h1 + i·(h2 | 1)) mod m` for `i = 0,
/// 1, 2, …`, an exact arithmetic progression mod `m`. `h2` is forced odd
/// so that for power-of-two and most composite `m` the sequence does not
/// collapse onto a short cycle.
///
/// The walk takes no division per probe: it starts at `h1 mod m` and steps
/// by `(h2 | 1) mod m`, subtracting `m` when a step passes it. Both terms
/// are below `m`, so the walk never overflows and yields the same indices
/// as the `u128` remainders.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn probes(h1: u64, h2: u64, m: u64) -> impl Iterator<Item = u64> {
    assert!(m > 0, "modulus must be positive");
    let step = (h2 | 1) % m;
    // `idx + step >= m` exactly when `idx >= m - step`.
    let wrap = m - step;
    std::iter::successors(Some(h1 % m), move |&idx| {
        Some(if idx >= wrap { idx - wrap } else { idx + step })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hashes_are_deterministic() {
        assert_eq!(fnv1a(b"signature"), fnv1a(b"signature"));
        assert_eq!(mix64(b"signature"), mix64(b"signature"));
    }

    #[test]
    fn hashes_differ_between_functions() {
        for input in [&b"a"[..], b"abc", b"17~3~16~2", b""] {
            assert_ne!(fnv1a(input), mix64(input), "input {input:?}");
        }
    }

    #[test]
    fn small_input_changes_change_output() {
        assert_ne!(fnv1a(b"package-1"), fnv1a(b"package-2"));
        assert_ne!(mix64(b"package-1"), mix64(b"package-2"));
    }

    #[test]
    fn probes_cover_range() {
        let h1 = fnv1a(b"x");
        let h2 = mix64(b"x");
        assert!(probes(h1, h2, 97).take(100).all(|idx| idx < 97));
    }

    #[test]
    fn probe_sequence_spreads() {
        // With odd h2 and prime m the probe sequence must visit every cell.
        let m = 101u64;
        let h1 = fnv1a(b"spread");
        let h2 = mix64(b"spread");
        let seen: std::collections::HashSet<u64> = probes(h1, h2, m).take(m as usize).collect();
        assert_eq!(seen.len() as u64, m);
    }

    #[test]
    #[should_panic(expected = "modulus must be positive")]
    fn probes_zero_modulus_panics() {
        let _ = probes(1, 2, 0);
    }

    #[test]
    fn uniformity_of_bucket_distribution() {
        // Hash 10_000 distinct strings into 64 buckets; every bucket should
        // receive a count within a loose band around the expectation (156).
        const BUCKETS: usize = 64;
        let mut counts = [0usize; BUCKETS];
        for i in 0..10_000 {
            let s = format!("pkg-{i}");
            counts[(mix64(s.as_bytes()) % BUCKETS as u64) as usize] += 1;
        }
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (80..=260).contains(&c),
                "bucket {b} count {c} outside plausible band"
            );
        }
    }

    #[test]
    fn splitmix_avalanche() {
        // Flipping one input bit flips roughly half the output bits.
        let a = splitmix64(0);
        let b = splitmix64(1);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "only {flipped} bits flipped");
    }
}
