//! A from-scratch Bloom filter, the storage substrate for the paper's
//! package-level anomaly detector.
//!
//! The paper (§IV-C) stores the signature database of normal ICS packages in
//! a Bloom filter so that a resource-constrained network monitor can test
//! membership in constant time and a few hundred kilobytes of memory. This
//! crate provides:
//!
//! * [`BitVec`] — a compact bit vector backed by `u64` words,
//! * [`BloomFilter`] — a double-hashing Bloom filter with standard
//!   `(n, fpr) -> (m, k)` sizing, serialization, and memory accounting.
//!
//! No external hashing dependency is used: two independent 64-bit hashes
//! (FNV-1a and a splitmix-finalized variant) drive Kirsch–Mitzenmacher double
//! hashing, `h_i(x) = h1(x) + i * h2(x) (mod m)`.
//!
//! # Examples
//!
//! ```
//! use icsad_bloom::BloomFilter;
//!
//! let mut filter = BloomFilter::with_capacity(1_000, 0.01)?;
//! filter.insert("17~3~16~2~0~1");
//! assert!(filter.contains("17~3~16~2~0~1"));
//! assert!(!filter.contains("not inserted"));
//! # Ok::<(), icsad_bloom::BloomError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Decision-path library code must replay exactly: a clock, environment or
// default-hasher map read needs an `#[expect(<lint>, reason = "..")]` on its
// statement (ARCHITECTURE.md, "Static analysis & verification").
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::allow_attributes_without_reason
    )
)]

mod bitvec;
mod filter;
pub mod hash;

pub use bitvec::BitVec;
pub use filter::{BloomError, BloomFilter, MAX_HASHES};
