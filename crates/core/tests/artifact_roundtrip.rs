//! Commissioning-artifact properties: a round-tripped detector makes
//! bit-identical decisions, and every corrupted artifact yields a typed
//! `ArtifactError` instead of a panic.

use std::sync::OnceLock;

use icsad_core::artifact::{ArtifactError, ARTIFACT_VERSION};
use icsad_core::combined::{CombinedDetector, DetectionLevel};
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::extract::{extract_records, DEFAULT_CRC_WINDOW};
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Record};
use icsad_simulator::{TrafficConfig, TrafficGenerator};
use proptest::prelude::*;

struct Fixture {
    detector: CombinedDetector,
    artifact: Vec<u8>,
    /// Per-PLC record streams of a seeded multi-PLC capture (attacks on).
    streams: Vec<Vec<Record>>,
}

/// One trained framework shared by every test (training dominates runtime).
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 8_000,
            seed: 2024,
            attack_probability: 0.0,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.7, 0.2);
        let trained = train_framework(
            &split,
            &ExperimentConfig {
                timeseries: TimeSeriesTrainingConfig {
                    hidden_dims: vec![16],
                    epochs: 2,
                    seed: 2024,
                    ..TimeSeriesTrainingConfig::default()
                },
                ..ExperimentConfig::default()
            },
        )
        .unwrap();

        // A fresh multi-PLC capture with live attacks, one record stream
        // per unit (per-stream extraction keeps intervals and CRC windows
        // honest).
        let streams: Vec<Vec<Record>> = (0..4u8)
            .map(|plc| {
                let mut generator = TrafficGenerator::new(TrafficConfig {
                    seed: 7_000 + u64::from(plc),
                    slave_address: plc + 4,
                    attack_probability: 0.06,
                    ..TrafficConfig::default()
                });
                let packets = generator.generate(600);
                extract_records(&packets, DEFAULT_CRC_WINDOW)
            })
            .collect();

        let artifact = trained.detector.to_bytes();
        Fixture {
            detector: trained.detector,
            artifact,
            streams,
        }
    })
}

/// CRC-32 (IEEE) — reimplemented here so tests can *re-seal* deliberately
/// corrupted artifacts and reach the decoders behind the checksum.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Recomputes the trailing checksum after a test mutated artifact bytes.
fn reseal(bytes: &mut [u8]) {
    let crc_at = bytes.len() - 4;
    let crc = crc32(&bytes[..crc_at]);
    bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
}

/// Byte offsets of every section boundary: header end, each payload end.
fn section_boundaries(artifact: &[u8]) -> Vec<usize> {
    let count = usize::from(u16::from_le_bytes([artifact[6], artifact[7]]));
    let mut at = 8 + count * 12;
    let mut boundaries = vec![at];
    for i in 0..count {
        let entry = 8 + i * 12;
        let len = u64::from_le_bytes(artifact[entry + 4..entry + 12].try_into().unwrap());
        at += usize::try_from(len).unwrap();
        boundaries.push(at);
    }
    boundaries
}

/// Rebuilds the artifact with section `index`'s payload replaced (table
/// length updated, checksum resealed) — a structurally valid artifact
/// whose sections may now contradict each other.
fn replace_section(artifact: &[u8], index: usize, payload: &[u8]) -> Vec<u8> {
    let count = usize::from(u16::from_le_bytes([artifact[6], artifact[7]]));
    let boundaries = section_boundaries(artifact);
    let mut out = Vec::new();
    out.extend_from_slice(&artifact[..8]);
    for i in 0..count {
        let at = 8 + i * 12;
        out.extend_from_slice(&artifact[at..at + 4]);
        if i == index {
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        } else {
            out.extend_from_slice(&artifact[at + 4..at + 12]);
        }
    }
    for i in 0..count {
        if i == index {
            out.extend_from_slice(payload);
        } else {
            out.extend_from_slice(&artifact[boundaries[i]..boundaries[i + 1]]);
        }
    }
    out.extend_from_slice(&[0u8; 4]);
    reseal(&mut out);
    out
}

#[test]
fn swapped_bloom_section_is_rejected_as_inconsistent() {
    let fx = fixture();
    // A valid Bloom filter from a *different* (smaller) signature database,
    // spliced in as the BLOM section (index 2) and resealed: every section
    // decodes, but the filter contradicts the vocabulary.
    let mut foreign = icsad_bloom::BloomFilter::with_capacity(3, 0.01).unwrap();
    for sig in ["1~2", "3~4", "5~6"] {
        foreign.insert(sig);
    }
    let bytes = replace_section(&fx.artifact, 2, &foreign.to_bytes());
    assert!(matches!(
        CombinedDetector::from_bytes(&bytes),
        Err(ArtifactError::Inconsistent { .. })
    ));
}

/// A VOCB payload (section index 1) holding `entries` as `(key, count)`
/// in class-id order, in `SignatureVocabulary::to_bytes`'s layout.
fn vocabulary_payload(entries: &[(String, u64)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (key, count) in entries {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(&count.to_le_bytes());
    }
    out
}

/// The fixture's signature keys and counts, in class-id order.
fn vocabulary_entries(detector: &CombinedDetector) -> Vec<(String, u64)> {
    detector
        .time_series_level()
        .vocabulary()
        .iter()
        .map(|(_, vector, count)| {
            let key = icsad_features::Signature::from_components(vector);
            (key.as_str().to_string(), count)
        })
        .collect()
}

#[test]
fn the_rebuilt_vocabulary_section_loads_unchanged() {
    // The helper reproduces the VOCB payload byte for byte, so the cases
    // below change exactly one key and nothing else.
    let fx = fixture();
    let payload = vocabulary_payload(&vocabulary_entries(&fx.detector));
    let bytes = replace_section(&fx.artifact, 1, &payload);
    assert_eq!(bytes, fx.artifact);
}

#[test]
fn non_canonical_vocabulary_keys_are_corrupt_behind_a_valid_checksum() {
    // Each key below names a class the artifact's writer could not have
    // written. The vocabulary is indexed by discretized vector, so a key
    // must parse back to one (13 components, no leading zeros) and fit
    // the DISC section's cardinalities — one out of range would reach the
    // one-hot encoder's assertion when the detector builds its table.
    let fx = fixture();
    let entries = vocabulary_entries(&fx.detector);
    let cards = fx.detector.package_level().discretizer().cardinalities();
    let first = &entries[0].0;
    let components: Vec<&str> = first.split('~').collect();
    assert_eq!(components.len(), icsad_features::FEATURE_COUNT);
    let mut out_of_range: Vec<String> = components.iter().map(|c| c.to_string()).collect();
    out_of_range[3] = cards[3].to_string(); // command/response: one past the last category
    let crafted = [
        ("leading zero", format!("0{first}")),
        ("12 components", components[..12].join("~")),
        ("out of cardinality", out_of_range.join("~")),
    ];
    for (what, key) in crafted {
        let mut tampered = entries.clone();
        tampered[0].0 = key;
        let bytes = replace_section(&fx.artifact, 1, &vocabulary_payload(&tampered));
        let result = CombinedDetector::from_bytes(&bytes);
        assert!(
            matches!(
                result,
                Err(ArtifactError::SectionCorrupt { section: "VOCB" })
            ),
            "{what}: {result:?}"
        );
    }
}

#[test]
fn a_bloom_section_over_other_signatures_is_inconsistent() {
    // The right insertion count, over the wrong signatures: the package
    // level answers a known signature from the vocabulary without probing
    // the filter, which is only sound if the filter holds every one of
    // them.
    let fx = fixture();
    let vocab = fx.detector.time_series_level().vocabulary();
    let mut foreign = icsad_bloom::BloomFilter::with_capacity(vocab.len(), 0.001).unwrap();
    for i in 0..vocab.len() {
        foreign.insert(format!("other-{i}"));
    }
    assert_eq!(foreign.len(), vocab.len() as u64);
    let bytes = replace_section(&fx.artifact, 2, &foreign.to_bytes());
    let result = CombinedDetector::from_bytes(&bytes);
    assert!(
        matches!(result, Err(ArtifactError::Inconsistent { .. })),
        "{result:?}"
    );
}

#[test]
fn unbounded_bloom_hash_count_is_corrupt_behind_a_valid_checksum() {
    let fx = fixture();
    // The BLOM payload (index 2) opens with the filter's hash count `k`.
    // With `k = u32::MAX` every lookup would make 2^32 probes, stalling
    // the shard on each package: the loader must refuse the section.
    let boundaries = section_boundaries(&fx.artifact);
    let mut bloom = fx.artifact[boundaries[2]..boundaries[3]].to_vec();
    bloom[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    let bytes = replace_section(&fx.artifact, 2, &bloom);
    assert!(matches!(
        CombinedDetector::from_bytes(&bytes),
        Err(ArtifactError::SectionCorrupt { section: "BLOM" })
    ));
}

#[test]
fn fixed_granularities_other_than_table_iii_are_corrupt_behind_a_valid_checksum() {
    let fx = fixture();
    // The DISC payload (index 0) opens with the discretization settings as
    // u64s: time-interval clusters, CRC-rate clusters, pressure bins, set
    // point bins, PID clusters, k-means iterations, k-means seed. Only the
    // two bin counts are settings; a detector fitted with other values of
    // the five fixed ones is not one this build commissions.
    let boundaries = section_boundaries(&fx.artifact);
    let disc = &fx.artifact[boundaries[0]..boundaries[1]];
    for (offset, value) in [(0, 3u64), (8, 4), (32, 16), (40, 50), (48, 1)] {
        let mut tampered = disc.to_vec();
        tampered[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        let bytes = replace_section(&fx.artifact, 0, &tampered);
        let result = CombinedDetector::from_bytes(&bytes);
        assert!(
            matches!(
                result,
                Err(ArtifactError::SectionCorrupt { section: "DISC" })
            ),
            "offset {offset}: {result:?}"
        );
    }
    assert_eq!(replace_section(&fx.artifact, 0, disc), fx.artifact);
}

#[test]
fn implausible_section_count_is_rejected_before_any_table_walk() {
    // Magic and version intact, count = u16::MAX: rejected by the section
    // cap (no quadratic duplicate scan, no checksum pass over the body).
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"ICSA");
    bytes.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&u16::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 64]);
    assert!(matches!(
        CombinedDetector::from_bytes(&bytes),
        Err(ArtifactError::Inconsistent { .. })
    ));
}

#[test]
fn round_trip_decisions_are_bit_identical_on_a_multi_plc_capture() {
    let fx = fixture();
    let restored = CombinedDetector::from_bytes(&fx.artifact).unwrap();
    assert_eq!(restored.k(), fx.detector.k());
    assert_eq!(restored.memory_bytes(), fx.detector.memory_bytes());
    // Both ways of obtaining a detector — commissioning and loading —
    // hand it over with the inference panels already built, so an engine
    // shard never packs inside a round.
    let panels = |d: &CombinedDetector| d.time_series_level().model().packed_bytes();
    assert!(panels(&restored) > 0);
    assert_eq!(panels(&restored), panels(&fx.detector));

    // Every stream, in lockstep.
    let views: Vec<&[Record]> = fx.streams.iter().map(|s| s.as_slice()).collect();
    let original = fx.detector.classify_streams(&views);
    assert_eq!(restored.classify_streams(&views), original);
    let mut saw_every_level = [false; 3];
    for level in original.iter().flatten() {
        saw_every_level[match level {
            DetectionLevel::Normal => 0,
            DetectionLevel::PackageLevel => 1,
            DetectionLevel::TimeSeriesLevel => 2,
        }] = true;
    }
    assert!(
        saw_every_level.iter().all(|&s| s),
        "capture should exercise all three decision levels: {saw_every_level:?}"
    );
}

#[test]
#[should_panic(expected = "share one discretizer")]
fn serializing_mismatched_discretizers_panics_instead_of_lossy_encoding() {
    use icsad_core::PackageLevelDetector;
    use icsad_features::{DiscretizationConfig, Discretizer};

    let fx = fixture();
    // A package level fitted with a *different* granularity than the
    // fixture's time-series level: storing only one discretizer would
    // silently change the reloaded detector's decisions. Its filter holds
    // the time-series vocabulary, as `CombinedDetector::new` requires.
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 2_000,
        seed: 5,
        attack_probability: 0.0,
        ..DatasetConfig::default()
    });
    let config = DiscretizationConfig {
        pressure_bins: 5,
        ..DiscretizationConfig::paper_defaults()
    };
    let disc = Discretizer::fit(&config, data.records()).unwrap();
    let vocab = fx.detector.time_series_level().vocabulary();
    let package = PackageLevelDetector::train(&disc, vocab, 0.001).unwrap();
    let franken = CombinedDetector::new(package, fx.detector.time_series_level().clone());
    let _ = franken.to_bytes();
}

#[test]
fn encoding_is_canonical() {
    let fx = fixture();
    let restored = CombinedDetector::from_bytes(&fx.artifact).unwrap();
    assert_eq!(restored.to_bytes(), fx.artifact);
}

#[test]
fn save_load_file_round_trip() {
    let fx = fixture();
    let path = std::env::temp_dir().join(format!("icsad-artifact-{}.icsa", std::process::id()));
    fx.detector.save(&path).unwrap();
    let loaded = CombinedDetector::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(loaded.to_bytes(), fx.artifact);
    assert!(matches!(
        CombinedDetector::load("/nonexistent/detector.icsa"),
        Err(ArtifactError::Io(_))
    ));
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    let fx = fixture();
    for cut in 0..fx.artifact.len() {
        match CombinedDetector::from_bytes(&fx.artifact[..cut]) {
            Err(ArtifactError::Truncated) | Err(ArtifactError::BadMagic) => {}
            other => panic!("truncation at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn truncation_at_every_section_boundary_is_truncated() {
    let fx = fixture();
    for &boundary in &section_boundaries(&fx.artifact) {
        assert!(
            matches!(
                CombinedDetector::from_bytes(&fx.artifact[..boundary]),
                Err(ArtifactError::Truncated)
            ),
            "cut at section boundary {boundary}"
        );
    }
}

#[test]
fn flipped_magic_and_version_bytes_are_rejected() {
    let fx = fixture();
    for at in 0..4 {
        let mut bytes = fx.artifact.clone();
        bytes[at] ^= 0xFF;
        assert!(matches!(
            CombinedDetector::from_bytes(&bytes),
            Err(ArtifactError::BadMagic)
        ));
    }
    for at in 4..6 {
        let mut bytes = fx.artifact.clone();
        bytes[at] ^= 0xFF;
        let result = CombinedDetector::from_bytes(&bytes);
        assert!(
            matches!(result, Err(ArtifactError::UnsupportedVersion(v)) if v != ARTIFACT_VERSION),
            "version flip at {at}: {result:?}"
        );
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let fx = fixture();
    for extra in [1usize, 4, 1024] {
        let mut bytes = fx.artifact.clone();
        bytes.extend(std::iter::repeat_n(0xA5u8, extra));
        assert!(matches!(
            CombinedDetector::from_bytes(&bytes),
            Err(ArtifactError::TrailingData)
        ));
    }
}

#[test]
fn payload_corruption_fails_the_checksum() {
    let fx = fixture();
    let boundaries = section_boundaries(&fx.artifact);
    // Flip one byte inside each section payload (first byte after the
    // section's start boundary).
    for window in boundaries.windows(2) {
        let mut bytes = fx.artifact.clone();
        bytes[window[0]] ^= 0x01;
        assert!(matches!(
            CombinedDetector::from_bytes(&bytes),
            Err(ArtifactError::ChecksumMismatch)
        ));
    }
}

#[test]
fn missing_section_is_reported_behind_a_valid_checksum() {
    let fx = fixture();
    // Rename the DISC tag so the section table no longer offers it, then
    // re-seal the checksum so the decoder actually reaches section lookup.
    let mut bytes = fx.artifact.clone();
    assert_eq!(&bytes[8..12], b"DISC");
    bytes[8..12].copy_from_slice(b"XXXX");
    reseal(&mut bytes);
    assert!(matches!(
        CombinedDetector::from_bytes(&bytes),
        Err(ArtifactError::MissingSection("DISC"))
    ));
}

#[test]
fn corrupt_section_payload_is_reported_behind_a_valid_checksum() {
    let fx = fixture();
    let boundaries = section_boundaries(&fx.artifact);
    // Section order is DISC, VOCB, BLOM, LSTM, HYPR; zero the first byte
    // of the LSTM payload (its "LSTM" model magic) and re-seal.
    let lstm_start = boundaries[3];
    let mut bytes = fx.artifact.clone();
    assert_eq!(bytes[lstm_start], b'L');
    bytes[lstm_start] = b'X';
    reseal(&mut bytes);
    assert!(matches!(
        CombinedDetector::from_bytes(&bytes),
        Err(ArtifactError::SectionCorrupt { section: "LSTM" })
    ));
}

#[test]
fn hostile_lstm_sections_are_corrupt_not_fatal_behind_a_valid_checksum() {
    let fx = fixture();
    let boundaries = section_boundaries(&fx.artifact);
    let (lstm_start, lstm_end) = (boundaries[3], boundaries[4]);
    let corrupt = |bytes: &mut Vec<u8>| {
        reseal(bytes);
        assert!(matches!(
            CombinedDetector::from_bytes(bytes),
            Err(ArtifactError::SectionCorrupt { section: "LSTM" })
        ));
    };

    // A header promising a 2^40-wide layer (and one whose `4 * h`
    // overflows) must be refused before anything is allocated from it.
    // `hidden_dims[0]` sits after the model magic, `input_dim` and the
    // layer count.
    let hidden0 = lstm_start + 4 + 8 + 8;
    for huge in [1u64 << 40, 1 << 62] {
        let mut bytes = fx.artifact.clone();
        bytes[hidden0..hidden0 + 8].copy_from_slice(&huge.to_le_bytes());
        corrupt(&mut bytes);
    }

    // NaN logits rank every class first, i.e. pass every package: a
    // non-finite weight is a corrupt model, not a loadable one.
    let mut bytes = fx.artifact.clone();
    bytes[lstm_end - 4..lstm_end].copy_from_slice(&f32::NAN.to_le_bytes());
    corrupt(&mut bytes);
}

#[test]
fn duplicate_sections_are_rejected_behind_a_valid_checksum() {
    let fx = fixture();
    let artifact = &fx.artifact;
    let count = usize::from(u16::from_le_bytes([artifact[6], artifact[7]]));
    let header_len = 8 + count * 12;
    let boundaries = section_boundaries(artifact);
    let disc_payload = &artifact[boundaries[0]..boundaries[1]];
    let disc_entry = &artifact[8..20]; // first table entry: DISC tag + len

    // Rebuild the artifact with a second DISC section appended (table
    // entry + payload), bump the count, and re-seal the checksum: a
    // structurally valid artifact whose sections contradict each other.
    let mut bytes = Vec::with_capacity(artifact.len() + 12 + disc_payload.len());
    bytes.extend_from_slice(&artifact[..6]);
    bytes.extend_from_slice(&(count as u16 + 1).to_le_bytes());
    bytes.extend_from_slice(&artifact[8..header_len]);
    bytes.extend_from_slice(disc_entry);
    bytes.extend_from_slice(&artifact[header_len..artifact.len() - 4]);
    bytes.extend_from_slice(disc_payload);
    bytes.extend_from_slice(&[0u8; 4]);
    reseal(&mut bytes);

    assert!(matches!(
        CombinedDetector::from_bytes(&bytes),
        Err(ArtifactError::Inconsistent { .. })
    ));
}

#[test]
fn inconsistent_sections_are_reported_behind_a_valid_checksum() {
    let fx = fixture();
    let boundaries = section_boundaries(&fx.artifact);
    // k = 0 in the HYPR section decodes but violates the framework's
    // invariants; the loader must refuse rather than build a detector
    // that panics later.
    let hypr_start = boundaries[4];
    let mut bytes = fx.artifact.clone();
    bytes[hypr_start..hypr_start + 8].copy_from_slice(&0u64.to_le_bytes());
    reseal(&mut bytes);
    assert!(matches!(
        CombinedDetector::from_bytes(&bytes),
        Err(ArtifactError::Inconsistent { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-byte corruption anywhere in the artifact yields a typed
    /// error — never a panic, never a silently different detector.
    #[test]
    fn any_single_byte_corruption_is_a_typed_error(
        at_salt in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let fx = fixture();
        let at = at_salt % fx.artifact.len();
        let mut bytes = fx.artifact.clone();
        bytes[at] ^= flip;
        prop_assert!(CombinedDetector::from_bytes(&bytes).is_err());
    }

    /// Random truncations and random trailing extensions both fail with a
    /// typed error.
    #[test]
    fn random_resizes_are_typed_errors(
        cut_salt in any::<usize>(),
        extend in 1usize..64,
    ) {
        let fx = fixture();
        let cut = cut_salt % fx.artifact.len();
        prop_assert!(CombinedDetector::from_bytes(&fx.artifact[..cut]).is_err());
        let mut longer = fx.artifact.clone();
        longer.extend(std::iter::repeat_n(0u8, extend));
        prop_assert!(CombinedDetector::from_bytes(&longer).is_err());
    }
}
