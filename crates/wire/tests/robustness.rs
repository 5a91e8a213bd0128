//! Adversarial-input robustness: garbled MBAP streams, corrupted and
//! truncated captures, and malformed frames must never panic anywhere in
//! the wire layer, must account for every byte they discard, and must
//! quarantine at the engine exactly what is malformed — no more, no less.

mod common;

use std::sync::{Arc, OnceLock};

use icsad_core::combined::CombinedDetector;
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::{DatasetConfig, GasPipelineDataset};
use icsad_engine::{Engine, EngineConfig, FrameBytes, IngestMode, RawFrame};
use icsad_wire::{MbapDecoder, PcapReader, WireReplay};
use proptest::prelude::*;

/// Builds one well-formed MBAP frame with both transaction-id bytes
/// nonzero (see `garbage_runs_are_skipped_exactly` for why that matters).
fn mbap(txn: u16, unit: u8, pdu: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&txn.to_be_bytes());
    out.extend_from_slice(&0u16.to_be_bytes());
    out.extend_from_slice(&((pdu.len() + 1) as u16).to_be_bytes());
    out.push(unit);
    out.extend_from_slice(pdu);
    out
}

proptest! {
    /// Arbitrary byte soup through the MBAP decoder, at arbitrary segment
    /// sizes: no panic, and every byte is accounted for — consumed by a
    /// frame, skipped during resync, or still pending. A decoded frame
    /// consumed `6 + length` wire bytes while its RTU ADU is `length + 2`
    /// bytes, so wire consumption per frame is `adu.len() + 4`.
    #[test]
    fn mbap_accounts_every_byte_of_arbitrary_input(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        chunk in 1usize..64,
    ) {
        let mut dec = MbapDecoder::new();
        let mut consumed = 0u64;
        for segment in bytes.chunks(chunk) {
            dec.push(segment);
            while let Some(frame) = dec.next_frame() {
                // Wire bytes for this frame: 6 + length = adu + 4 (the ADU
                // is unit + PDU + 2-byte CRC; the wire was 7-byte header +
                // PDU).
                consumed += frame.adu.len() as u64 + 4;
            }
        }
        let stats = dec.stats();
        prop_assert_eq!(
            bytes.len() as u64,
            consumed + stats.skipped_bytes + dec.pending() as u64,
            "bytes unaccounted for"
        );
        prop_assert_eq!(consumed > 0, stats.frames > 0);
    }

    /// Garbage runs of `0xFF` between valid frames are skipped **exactly**:
    /// frame count, skipped-byte count, and resync count all match the
    /// construction. `0xFF` garbage plus nonzero transaction-id bytes
    /// guarantee no scan window straddling garbage and frame parses as a
    /// valid header (the protocol-id field is nonzero at every offset).
    #[test]
    fn garbage_runs_are_skipped_exactly(
        runs in proptest::collection::vec(
            (0usize..24, 1u8..=255, 1u8..=255, proptest::collection::vec(any::<u8>(), 1..80)),
            1..12,
        ),
        chunk in 1usize..48,
    ) {
        let mut stream = Vec::new();
        let mut expect_skipped = 0u64;
        let mut expect_resyncs = 0u64;
        for (garbage_len, txn_hi, txn_lo, pdu) in &runs {
            stream.extend(std::iter::repeat_n(0xFFu8, *garbage_len));
            if *garbage_len > 0 {
                expect_skipped += *garbage_len as u64;
                expect_resyncs += 1;
            }
            let txn = u16::from_be_bytes([*txn_hi, *txn_lo]);
            stream.extend_from_slice(&mbap(txn, 4, pdu));
        }

        let mut dec = MbapDecoder::new();
        let mut frames = 0u64;
        for segment in stream.chunks(chunk) {
            dec.push(segment);
            while dec.next_frame().is_some() {
                frames += 1;
            }
        }
        let stats = dec.stats();
        prop_assert_eq!(frames, runs.len() as u64, "every valid frame decodes");
        prop_assert_eq!(stats.frames, frames);
        prop_assert_eq!(stats.skipped_bytes, expect_skipped, "exact skip count");
        prop_assert_eq!(stats.resyncs, expect_resyncs, "one resync per garbage run");
        prop_assert_eq!(dec.pending(), 0);
    }

    /// Arbitrary bytes through the pcap container parser: errors, never
    /// panics, and always terminates.
    #[test]
    fn pcap_parser_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        if let Ok(mut reader) = PcapReader::new(&bytes) {
            while let Ok(Some(_)) = reader.next() {}
        }
    }

    /// A valid capture truncated at any byte, or with any single byte
    /// corrupted, replays without panicking — structural damage surfaces
    /// as a `PcapError` or as decoder resync counters, not a crash.
    #[test]
    fn corrupted_captures_never_panic(
        cut in 0usize..2000,
        flip_at in 0usize..2000,
        flip_to in any::<u8>(),
    ) {
        static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
        let image = IMAGE.get_or_init(|| {
            let packets = common::fixture_traffic();
            common::fixture_image(&packets[..40.min(packets.len())])
        });

        let mut truncated = image.clone();
        truncated.truncate(cut.min(truncated.len()));
        let _ = WireReplay::new().replay(&truncated, |_| {});

        let mut flipped = image.clone();
        let at = flip_at % flipped.len();
        flipped[at] = flip_to;
        let mut emitted = Vec::new();
        if let Ok(stats) = WireReplay::new().replay(&flipped, |f| emitted.push(f)) {
            prop_assert_eq!(stats.frames, emitted.len() as u64);
        }
        // Whatever survives corruption is still structurally sound.
        for f in &emitted {
            prop_assert!(f.is_well_formed());
        }
    }
}

fn tiny_detector() -> &'static Arc<CombinedDetector> {
    static DETECTOR: OnceLock<Arc<CombinedDetector>> = OnceLock::new();
    DETECTOR.get_or_init(|| {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 1_500,
            seed: 91,
            attack_probability: 0.0,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.7, 0.2);
        Arc::new(
            train_framework(
                &split,
                &ExperimentConfig {
                    timeseries: TimeSeriesTrainingConfig {
                        hidden_dims: vec![8],
                        epochs: 1,
                        seed: 91,
                        ..TimeSeriesTrainingConfig::default()
                    },
                    ..ExperimentConfig::default()
                },
            )
            .unwrap()
            .detector,
        )
    })
}

/// Batched ingest quarantines exactly the malformed frames: MBAP-decoded
/// frames are always well-formed (the decoder cannot emit a frame shorter
/// than `MIN_FRAME_LEN` or without a timestamp), while hand-built runts
/// and NaN-timestamped frames are counted one for one.
#[test]
fn engine_quarantines_exactly_the_malformed_frames() {
    let packets = common::fixture_traffic();
    let good: Vec<RawFrame> = packets.iter().take(120).map(RawFrame::from).collect();
    assert!(good.iter().all(RawFrame::is_well_formed));

    for bad_count in [0usize, 7, 23] {
        let mut mixed: Vec<RawFrame> = Vec::new();
        for (i, frame) in good.iter().enumerate() {
            mixed.push(frame.clone());
            if i < bad_count {
                // Alternate the two quarantine triggers: runt frames and
                // non-finite timestamps.
                mixed.push(if i % 2 == 0 {
                    RawFrame {
                        time: frame.time,
                        wire: FrameBytes::from(&[0x04u8, 0x03][..]),
                        is_command: true,
                        label: None,
                        link: 0,
                    }
                } else {
                    RawFrame {
                        time: f64::NAN,
                        wire: frame.wire.clone(),
                        is_command: frame.is_command,
                        label: None,
                        link: 0,
                    }
                });
            }
        }
        let mut engine = Engine::try_start(
            Arc::clone(tiny_detector()),
            EngineConfig {
                num_shards: 2,
                batch_size: 8,
                channel_capacity: 64,
                ingest: IngestMode::Async { workers: 2 },
                ..EngineConfig::default()
            },
        )
        .unwrap();
        engine.ingest_batch(mixed.iter().cloned());
        let report = engine.finish();
        assert_eq!(
            report.quarantined, bad_count as u64,
            "exact quarantine count"
        );
        assert_eq!(
            report.frames(),
            good.len() as u64,
            "good frames all processed"
        );
    }
}
