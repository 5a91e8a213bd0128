//! Versioned commissioning artifacts: the on-disk form of a fully trained
//! [`CombinedDetector`].
//!
//! The paper's framework is trained once, at commissioning time, on clean
//! traffic — and then runs as an online monitor. This module closes the
//! train-offline / load-online gap: everything the deployed detector needs
//! (discretizer, signature vocabulary, Bloom filter, LSTM parameters, and
//! the chosen `k`) round-trips through one CRC-checked binary blob, so an
//! engine can cold-start in milliseconds instead of retraining for minutes
//! ([`crate::CombinedDetector::save`] / [`crate::CombinedDetector::load`],
//! `icsad_engine::Engine::try_start`).
//!
//! # Format (version 1)
//!
//! All integers little-endian:
//!
//! ```text
//! offset 0   magic           "ICSA" (4 bytes)
//!        4   format version  u16 (currently 1)
//!        6   section count   u16
//!        8   section table   count × { tag: 4 bytes, len: u64 }
//!        …   payloads        concatenated in table order
//!  last 4    checksum        CRC-32 (IEEE) over every preceding byte
//! ```
//!
//! Version-1 sections (decoders reject an artifact missing any of them or
//! repeating a tag, and skip unknown tags so later minor revisions can
//! append sections without breaking old readers):
//!
//! | tag    | payload |
//! |--------|---------|
//! | `DISC` | [`Discretizer::to_bytes`] |
//! | `VOCB` | [`SignatureVocabulary::to_bytes`] |
//! | `BLOM` | [`BloomFilter::to_bytes`] |
//! | `LSTM` | [`icsad_nn::LstmClassifier::to_bytes`] |
//! | `HYPR` | chosen `k` as u64 |
//!
//! A bumped *format version* signals an incompatible layout change; readers
//! return [`ArtifactError::UnsupportedVersion`] rather than guessing.
//!
//! Decoding never panics on corrupt input: every failure mode maps to a
//! typed [`ArtifactError`], and cross-section consistency (model width vs.
//! encoder dims, class count vs. vocabulary size) is verified before a
//! detector is handed back.

use std::error::Error;
use std::fmt;
use std::path::Path;

use icsad_bloom::BloomFilter;
use icsad_features::{Discretizer, SignatureVocabulary};
use icsad_nn::LstmClassifier;

use crate::combined::CombinedDetector;
use crate::package::PackageLevelDetector;
use crate::timeseries::TimeSeriesDetector;

/// Leading magic bytes of every artifact.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"ICSA";

/// Artifact format version written by [`CombinedDetector::to_bytes`].
pub const ARTIFACT_VERSION: u16 = 1;

/// Most sections a reader accepts. Version 1 defines five; the headroom
/// leaves room for appended minor-revision sections while bounding the
/// work (and the duplicate-tag scan) an attacker-controlled section count
/// can demand before the checksum is ever consulted.
pub const MAX_SECTIONS: usize = 64;

const TAG_DISCRETIZER: [u8; 4] = *b"DISC";
const TAG_VOCABULARY: [u8; 4] = *b"VOCB";
const TAG_BLOOM: [u8; 4] = *b"BLOM";
const TAG_LSTM: [u8; 4] = *b"LSTM";
const TAG_HYPER: [u8; 4] = *b"HYPR";

/// Errors produced while encoding, decoding or loading an artifact.
#[derive(Debug)]
#[non_exhaustive]
pub enum ArtifactError {
    /// Reading or writing the artifact file failed.
    Io(std::io::Error),
    /// The buffer ends before the length its header declares.
    Truncated,
    /// The buffer continues past the length its header declares.
    TrailingData,
    /// The leading bytes are not [`ARTIFACT_MAGIC`].
    BadMagic,
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion(u16),
    /// The CRC-32 checksum does not match the artifact contents.
    ChecksumMismatch,
    /// A section required by this format version is absent.
    MissingSection(&'static str),
    /// A section payload failed to decode.
    SectionCorrupt {
        /// Tag of the offending section.
        section: &'static str,
    },
    /// The sections decoded individually but contradict each other (e.g.
    /// the model's class count differs from the vocabulary size).
    Inconsistent {
        /// Explanation of the contradiction.
        reason: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact i/o failed: {e}"),
            ArtifactError::Truncated => write!(f, "artifact is truncated"),
            ArtifactError::TrailingData => write!(f, "artifact has trailing data"),
            ArtifactError::BadMagic => write!(f, "not an ICSA artifact (bad magic)"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported artifact format version {v} (this build reads {ARTIFACT_VERSION})"
                )
            }
            ArtifactError::ChecksumMismatch => write!(f, "artifact checksum mismatch"),
            ArtifactError::MissingSection(tag) => write!(f, "artifact lacks section {tag}"),
            ArtifactError::SectionCorrupt { section } => {
                write!(f, "artifact section {section} is corrupt")
            }
            ArtifactError::Inconsistent { reason } => {
                write!(f, "artifact sections are inconsistent: {reason}")
            }
        }
    }
}

impl Error for ArtifactError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// Byte-at-a-time lookup table for the reflected IEEE polynomial, built at
/// compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected) — the checksum guarding every artifact.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[usize::from((crc as u8) ^ b)];
    }
    !crc
}

fn tag_name(tag: [u8; 4]) -> &'static str {
    match &tag {
        b"DISC" => "DISC",
        b"VOCB" => "VOCB",
        b"BLOM" => "BLOM",
        b"LSTM" => "LSTM",
        b"HYPR" => "HYPR",
        _ => "????",
    }
}

/// A decoded section: its table tag and payload slice.
type Section<'a> = ([u8; 4], &'a [u8]);

/// Splits a verified artifact body into `(tag, payload)` pairs.
///
/// Expects `bytes` to be the full artifact; performs the header, length and
/// checksum validation and returns the payload slices in table order.
fn parse_sections(bytes: &[u8]) -> Result<Vec<Section<'_>>, ArtifactError> {
    // Smallest conceivable artifact: header (8) + empty table + CRC (4).
    if bytes.len() < 12 {
        return Err(if bytes.len() >= 4 && bytes[..4] != ARTIFACT_MAGIC {
            ArtifactError::BadMagic
        } else {
            ArtifactError::Truncated
        });
    }
    if bytes[..4] != ARTIFACT_MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != ARTIFACT_VERSION {
        return Err(ArtifactError::UnsupportedVersion(version));
    }
    let count = usize::from(u16::from_le_bytes([bytes[6], bytes[7]]));
    if count > MAX_SECTIONS {
        return Err(ArtifactError::Inconsistent {
            reason: format!("section count {count} exceeds the limit of {MAX_SECTIONS}"),
        });
    }

    // Walk the section table, summing payload lengths with overflow checks.
    let table_len = count.checked_mul(12).ok_or(ArtifactError::Truncated)?;
    let header_len = 8usize
        .checked_add(table_len)
        .ok_or(ArtifactError::Truncated)?;
    if bytes.len() < header_len + 4 {
        return Err(ArtifactError::Truncated);
    }
    let mut sections_meta: Vec<([u8; 4], usize)> = Vec::with_capacity(count);
    let mut payload_total = 0usize;
    for i in 0..count {
        let at = 8 + i * 12;
        #[expect(
            clippy::expect_used,
            reason = "slice length is the literal 4 on both sides of try_into"
        )]
        let tag: [u8; 4] = bytes[at..at + 4].try_into().expect("4-byte slice");
        if sections_meta.iter().any(|(t, _)| *t == tag) {
            // Two sections with one tag cannot both be honored; accepting
            // the first would silently ignore the other's payload.
            return Err(ArtifactError::Inconsistent {
                reason: format!("duplicate section {}", tag_name(tag)),
            });
        }
        #[expect(
            clippy::expect_used,
            reason = "slice length is the literal 8 on both sides of try_into"
        )]
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8-byte slice"));
        let len = usize::try_from(len).map_err(|_| ArtifactError::Truncated)?;
        payload_total = payload_total
            .checked_add(len)
            .ok_or(ArtifactError::Truncated)?;
        sections_meta.push((tag, len));
    }
    let expected = header_len
        .checked_add(payload_total)
        .and_then(|n| n.checked_add(4))
        .ok_or(ArtifactError::Truncated)?;
    match bytes.len().cmp(&expected) {
        std::cmp::Ordering::Less => return Err(ArtifactError::Truncated),
        std::cmp::Ordering::Greater => return Err(ArtifactError::TrailingData),
        std::cmp::Ordering::Equal => {}
    }

    // Checksum covers everything before the trailing CRC word.
    #[expect(
        clippy::expect_used,
        reason = "bytes.len() == expected was just checked, so the tail is 4 bytes"
    )]
    let stored = u32::from_le_bytes(bytes[expected - 4..].try_into().expect("4-byte slice"));
    if crc32(&bytes[..expected - 4]) != stored {
        return Err(ArtifactError::ChecksumMismatch);
    }

    let mut sections = Vec::with_capacity(count);
    let mut at = header_len;
    for (tag, len) in sections_meta {
        sections.push((tag, &bytes[at..at + len]));
        at += len;
    }
    Ok(sections)
}

fn find_section<'a>(sections: &[Section<'a>], tag: [u8; 4]) -> Result<&'a [u8], ArtifactError> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, payload)| *payload)
        .ok_or(ArtifactError::MissingSection(tag_name(tag)))
}

impl CombinedDetector {
    /// Serializes the entire trained framework into a version-1 artifact.
    ///
    /// The artifact stores one discretizer, installed in both levels on
    /// load — every framework produced by
    /// [`crate::experiment::train_framework`] shares one discretizer
    /// between its levels.
    ///
    /// # Panics
    ///
    /// Panics if the two levels hold *different* discretizers (possible
    /// only by assembling [`CombinedDetector::new`] from independently
    /// trained parts): serializing just one of them would silently change
    /// the reloaded detector's decisions, breaking the bit-identical
    /// round-trip guarantee of [`CombinedDetector::from_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(
            self.package_level().discretizer() == self.time_series_level().discretizer(),
            "both detector levels must share one discretizer to serialize the framework"
        );
        let hyper = (self.k() as u64).to_le_bytes().to_vec();
        let sections: [([u8; 4], Vec<u8>); 5] = [
            (
                TAG_DISCRETIZER,
                self.package_level().discretizer().to_bytes(),
            ),
            (
                TAG_VOCABULARY,
                self.time_series_level().vocabulary().to_bytes(),
            ),
            (TAG_BLOOM, self.package_level().filter().to_bytes()),
            (TAG_LSTM, self.time_series_level().model().to_bytes()),
            (TAG_HYPER, hyper),
        ];

        let payload_total: usize = sections.iter().map(|(_, p)| p.len()).sum();
        let mut out = Vec::with_capacity(8 + sections.len() * 12 + payload_total + 4);
        out.extend_from_slice(&ARTIFACT_MAGIC);
        out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u16).to_le_bytes());
        for (tag, payload) in &sections {
            out.extend_from_slice(tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        }
        for (_, payload) in &sections {
            out.extend_from_slice(payload);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Reassembles a detector from an artifact produced by
    /// [`CombinedDetector::to_bytes`].
    ///
    /// The restored detector makes **bit-identical decisions** to the one
    /// that was saved: floats round trip via their bit patterns and the
    /// decision paths share the same code. Its model comes back with the
    /// batched step's weight panels already built
    /// ([`LstmClassifier::from_bytes`] packs them on the calling thread), so
    /// a loaded detector — [`CombinedDetector::load`], an engine hot
    /// reload — never packs or allocates inside a classification round.
    ///
    /// # Errors
    ///
    /// Any malformed input — truncation, bad magic, an unknown format
    /// version, checksum mismatch, a corrupt or missing section, or
    /// sections that contradict each other — returns the corresponding
    /// [`ArtifactError`]; this function never panics on untrusted bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let sections = parse_sections(bytes)?;

        let discretizer = Discretizer::from_bytes(find_section(&sections, TAG_DISCRETIZER)?)
            .ok_or(ArtifactError::SectionCorrupt { section: "DISC" })?;
        let vocabulary = SignatureVocabulary::from_bytes(find_section(&sections, TAG_VOCABULARY)?)
            .ok_or(ArtifactError::SectionCorrupt { section: "VOCB" })?;
        let filter = BloomFilter::from_bytes(find_section(&sections, TAG_BLOOM)?)
            .map_err(|_| ArtifactError::SectionCorrupt { section: "BLOM" })?;
        let model = LstmClassifier::from_bytes(find_section(&sections, TAG_LSTM)?)
            .ok_or(ArtifactError::SectionCorrupt { section: "LSTM" })?;
        let hyper = find_section(&sections, TAG_HYPER)?;
        let k: [u8; 8] = hyper
            .try_into()
            .map_err(|_| ArtifactError::SectionCorrupt { section: "HYPR" })?;
        let k = usize::try_from(u64::from_le_bytes(k))
            .map_err(|_| ArtifactError::SectionCorrupt { section: "HYPR" })?;

        // A class outside the discretizer's categories could not be one-hot
        // encoded into the detector's per-signature table.
        if !vocabulary.fits_cardinalities(&discretizer.cardinalities()) {
            return Err(ArtifactError::SectionCorrupt { section: "VOCB" });
        }
        let package = PackageLevelDetector::from_parts(discretizer.clone(), filter, &vocabulary)
            .map_err(|reason| ArtifactError::Inconsistent { reason })?;
        let timeseries = TimeSeriesDetector::from_parts(discretizer, vocabulary, model, k)
            .map_err(|reason| ArtifactError::Inconsistent { reason })?;
        Ok(CombinedDetector::new(package, timeseries))
    }

    /// Writes the artifact to a file (see [`CombinedDetector::to_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] on filesystem failures.
    ///
    /// # Panics
    ///
    /// Panics when the two levels hold different discretizers, exactly
    /// like [`CombinedDetector::to_bytes`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads an artifact file written by [`CombinedDetector::save`].
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] on filesystem failures and any
    /// [`CombinedDetector::from_bytes`] error on malformed contents.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let bytes = std::fs::read(path)?;
        CombinedDetector::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn empty_and_tiny_buffers_are_truncated_or_bad_magic() {
        assert!(matches!(
            CombinedDetector::from_bytes(&[]),
            Err(ArtifactError::Truncated)
        ));
        assert!(matches!(
            CombinedDetector::from_bytes(b"ICSA"),
            Err(ArtifactError::Truncated)
        ));
        assert!(matches!(
            CombinedDetector::from_bytes(b"NOPE-not-an-artifact"),
            Err(ArtifactError::BadMagic)
        ));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(ArtifactError::BadMagic.to_string().contains("magic"));
        assert!(ArtifactError::UnsupportedVersion(9)
            .to_string()
            .contains('9'));
        assert!(ArtifactError::MissingSection("DISC")
            .to_string()
            .contains("DISC"));
        assert!(ArtifactError::SectionCorrupt { section: "LSTM" }
            .to_string()
            .contains("LSTM"));
        let io = ArtifactError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.source().is_some());
    }
}
