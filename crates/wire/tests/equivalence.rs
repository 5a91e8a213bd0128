//! Wire-path equivalence: replaying the committed Modbus-TCP capture
//! through the wire layer, ingesting the same traffic directly as
//! [`RawFrame`]s, and classifying each stream one record at a time must
//! all produce **bit-identical** decisions.
//!
//! The chain under test: pcap container → TCP demux → MBAP framing → RTU
//! re-encapsulation → engine routing. Equivalence holds because (a) a
//! valid-CRC RTU ADU round-trips through MBAP byte-for-byte (the decoder
//! recomputes the same CRC the frame carried), (b) the fixture is a
//! single TCP connection, so replay assigns link 0 exactly like direct
//! ingest, and (c) timestamps are pcap-quantized on both sides
//! ([`common::pcap_time`]).

mod common;

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use icsad_core::combined::CombinedDetector;
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::metrics::ClassificationReport;
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::extract::{extract_records, DEFAULT_CRC_WINDOW};
use icsad_dataset::{DatasetConfig, GasPipelineDataset};
use icsad_engine::{Engine, EngineConfig, EngineReport, FrameBytes, IngestMode, RawFrame};
use icsad_simulator::Packet;
use icsad_wire::WireReplay;

fn detector() -> &'static Arc<CombinedDetector> {
    static DETECTOR: OnceLock<Arc<CombinedDetector>> = OnceLock::new();
    DETECTOR.get_or_init(|| {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 3_000,
            seed: 77,
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
                        seed: 77,
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

fn run_engine(frames: &[RawFrame]) -> EngineReport {
    let mut engine = Engine::try_start(
        Arc::clone(detector()),
        EngineConfig {
            num_shards: 2,
            batch_size: 8,
            channel_capacity: 64,
            ingest: IngestMode::Async { workers: 2 },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine.ingest_batch(frames.iter().cloned());
    engine.finish()
}

/// Per-record reference: partition by unit id (the router's stream key on
/// a single link), extract each stream, classify one record at a time.
fn per_record_reference(packets: &[Packet]) -> (ClassificationReport, u64) {
    let mut by_unit: HashMap<u8, Vec<Packet>> = HashMap::new();
    for p in packets {
        by_unit
            .entry(p.wire.first().copied().unwrap_or(0))
            .or_default()
            .push(p.clone());
    }
    let det = detector();
    let mut total = ClassificationReport::default();
    let mut alarms = 0u64;
    for stream in by_unit.values() {
        let records = extract_records(stream, DEFAULT_CRC_WINDOW);
        let mut state = det.begin();
        for r in &records {
            let anomalous = det.classify(&mut state, r).is_anomalous();
            if anomalous {
                alarms += 1;
            }
            total.record(r.label, anomalous);
        }
    }
    (total, alarms)
}

/// The committed fixture must match its generator byte for byte, so the
/// bytes under test stay reproducible from source. Regenerate with
/// `ICSAD_WRITE_FIXTURE=1`.
#[test]
fn committed_fixture_matches_generator() {
    let image = common::fixture_image(&common::fixture_traffic());
    if std::env::var_os("ICSAD_WRITE_FIXTURE").is_some() {
        std::fs::write(common::FIXTURE_PATH, &image).expect("write fixture");
    }
    let committed = std::fs::read(common::FIXTURE_PATH).expect(
        "committed fixture missing; regenerate with ICSAD_WRITE_FIXTURE=1 \
         cargo test -p icsad-wire --test equivalence",
    );
    assert_eq!(
        committed, image,
        "committed fixture diverged from its generator"
    );
}

/// Replay of the committed capture yields frame-for-frame the same
/// [`RawFrame`]s as direct ingest of the original traffic: same RTU
/// bytes, same timestamps (bit-identical f64), same direction flags,
/// all on link 0, all inline.
#[test]
fn replayed_frames_equal_direct_frames() {
    let packets = common::fixture_traffic();
    let image = std::fs::read(common::FIXTURE_PATH).expect("committed fixture");

    let mut replayed = Vec::new();
    let mut replay = WireReplay::new();
    let stats = replay.replay(&image, |f| replayed.push(f)).unwrap();
    assert_eq!(stats.packets as usize, packets.len());
    assert_eq!(stats.frames as usize, packets.len());
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.ignored_packets, 0);
    assert_eq!(stats.skipped_bytes, 0);
    assert_eq!(stats.resyncs, 0);

    let direct: Vec<RawFrame> = packets
        .iter()
        .map(|p| RawFrame {
            time: p.time,
            wire: FrameBytes::from(&p.wire[..]),
            is_command: p.is_command,
            label: None,
            link: 0,
        })
        .collect();
    assert_eq!(replayed.len(), direct.len());
    for (i, (r, d)) in replayed.iter().zip(&direct).enumerate() {
        assert_eq!(r, d, "frame {i} diverged between replay and direct");
        assert!(r.wire.is_inline(), "frame {i} spilled to the heap");
        assert_eq!(
            r.time.to_bits(),
            d.time.to_bits(),
            "frame {i} timestamp not bit-identical"
        );
    }
}

/// The headline three-way property: wire replay ≡ direct ingest ≡
/// per-record reference, on a two-worker pool.
#[test]
fn wire_replay_direct_ingest_and_per_record_agree() {
    let packets = common::fixture_traffic();
    let image = std::fs::read(common::FIXTURE_PATH).expect("committed fixture");

    let mut replayed = Vec::new();
    WireReplay::new()
        .replay(&image, |f| replayed.push(f))
        .unwrap();
    let direct: Vec<RawFrame> = packets.iter().map(RawFrame::from).collect();

    let (reference, ref_alarms) = per_record_reference(&packets);

    let wire_report = run_engine(&replayed);
    let direct_report = run_engine(&direct);
    for (path, report) in [("wire", &wire_report), ("direct", &direct_report)] {
        assert_eq!(
            report.total, reference,
            "{path}: decisions diverged from per-record reference"
        );
        assert_eq!(report.alarms(), ref_alarms, "{path}: alarms");
        assert_eq!(report.frames(), packets.len() as u64, "{path}: frames");
        assert_eq!(report.quarantined, 0, "{path}: quarantined");
    }
    assert_eq!(
        wire_report.total, direct_report.total,
        "wire vs direct report"
    );
}
