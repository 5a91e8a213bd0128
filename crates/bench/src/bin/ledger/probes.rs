//! Isolated per-layer probes: each replays the workload's own capture
//! through one public entry point of one crate, from outside, and reports
//! how fast that layer alone goes. Layers are named after their crates.

use std::borrow::Cow;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use icsad_core::streaming::StreamingDetector;
use icsad_dataset::extract::{StreamExtractor, DEFAULT_CRC_WINDOW};
use icsad_dataset::Record;
use icsad_engine::EngineConfig;
use icsad_features::encoding::OneHotEncoder;
use icsad_features::{write_signature, DiscreteVector, FEATURE_COUNT};
use icsad_modbus::crc::crc16;
use icsad_nn::{LstmClassifier, Sequence, Trainer, TrainingConfig};
use icsad_wire::fixture::CaptureBuilder;
use icsad_wire::WireReplay;

use crate::ledger::Ledger;
use crate::run::{closed_pass, NullBackend};
use crate::workload::{Capture, Feed, Setup, Spec};

/// Repeats `pass` (which returns the units of work it did) for at least
/// `seconds` after one untimed warm-up pass; returns units per second.
fn rate(seconds: f64, mut pass: impl FnMut() -> u64) -> f64 {
    pass();
    let t0 = Instant::now();
    let mut work = 0;
    loop {
        work += pass();
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= seconds {
            return work as f64 / elapsed;
        }
    }
}

/// The capture as a pcap image. A fleet workload's frames are wrapped the
/// way `CaptureBuilder` wraps any RTU stream, so the wire layer can be
/// probed on every workload's own traffic even where it is not on the
/// workload's path.
fn pcap_image(capture: &Capture) -> Cow<'_, [u8]> {
    match &capture.feed {
        Feed::Pcap(image) => Cow::Borrowed(image),
        Feed::Frames(frames) => {
            let mut builder = CaptureBuilder::new();
            for f in frames {
                builder.modbus_on(f.link as u16, f.time, &f.wire, f.is_command);
            }
            Cow::Owned(builder.finish())
        }
    }
}

/// Runs every isolated probe for about `seconds` each and records the
/// results. Returns the per-package cost, in microseconds, of each stage
/// on the real path — decode, extract, discretize + signature + Bloom +
/// lookup + encode, LSTM step — for the reconciliation.
pub fn run(
    spec: &Spec,
    setup: &Setup,
    engine_config: &EngineConfig,
    seconds: f64,
    ledger: &mut Ledger,
) -> Attribution {
    let detector = &setup.commissioned.detector;
    let discretizer = detector.package_level().discretizer();
    let vocabulary = detector.time_series_level().vocabulary();
    let model = detector.time_series_level().model();
    let encoder = OneHotEncoder::new(discretizer);
    let records: Vec<&Record> = setup.reference.records.iter().flatten().collect();
    let n = records.len() as u64;

    // wire: pcap walk, TCP demux, MBAP framing, RTU re-encapsulation.
    let image = pcap_image(&setup.capture);
    let wire = WireReplay::new()
        .replay(&image, |_| {})
        .expect("the harness built this capture");
    ledger.set_exact("wire.frames", wire.frames, "count");
    ledger.set_exact("wire.skipped_bytes", wire.skipped_bytes, "count");
    ledger.set_exact("wire.resyncs", wire.resyncs, "count");
    ledger.set_exact("wire.closed_links", wire.closed_connections, "count");
    let decode_frames_s = rate(seconds, || {
        WireReplay::new()
            .replay(&image, |f| {
                black_box(&f);
            })
            .expect("the harness built this capture")
            .frames
    });
    ledger.set("wire.decode_frames_s", decode_frames_s, "1/s");
    ledger.set(
        "wire.decode_mb_s",
        decode_frames_s * image.len() as f64 / setup.capture.frames as f64 / 1e6,
        "MB/s",
    );

    // modbus: the CRC16 both re-encapsulation and extraction compute.
    let payload_bytes: u64 = setup
        .segments
        .iter()
        .flat_map(|s| &s.frames)
        .map(|f| f.wire.len() as u64 - 2)
        .sum();
    let crc_bytes_s = rate(seconds, || {
        for f in setup.segments.iter().flat_map(|s| &s.frames) {
            black_box(crc16(&f.wire[..f.wire.len() - 2]));
        }
        payload_bytes
    });
    ledger.set("modbus.crc16_mb_s", crc_bytes_s / 1e6, "MB/s");

    // dataset: lenient decode, CRC window, inter-arrival time.
    let extract_rec_s = rate(seconds, || {
        for segment in &setup.segments {
            let mut extractor = StreamExtractor::new(DEFAULT_CRC_WINDOW);
            for f in &segment.frames {
                black_box(extractor.push(f.time, &f.wire, f.is_command, f.label));
            }
        }
        n
    });
    ledger.set("dataset.extract_rec_s", extract_rec_s, "1/s");

    // features: discretize, signature string, vocabulary lookup, one-hot.
    let discretize_rec_s = rate(seconds, || {
        for r in &records {
            black_box(discretizer.discretize(r));
        }
        n
    });
    ledger.set("features.discretize_rec_s", discretize_rec_s, "1/s");
    let vectors: Vec<DiscreteVector> = records.iter().map(|r| discretizer.discretize(r)).collect();
    let mut key = String::new();
    let signature_rec_s = rate(seconds, || {
        for v in &vectors {
            write_signature(v, &mut key);
            black_box(&key);
        }
        n
    });
    ledger.set("features.signature_rec_s", signature_rec_s, "1/s");
    let keys: Vec<String> = vectors
        .iter()
        .map(|v| {
            write_signature(v, &mut key);
            key.clone()
        })
        .collect();
    let vocab_lookup_s = rate(seconds, || {
        for k in &keys {
            black_box(vocabulary.id_of_key(k));
        }
        n
    });
    ledger.set("features.vocab_lookup_s", vocab_lookup_s, "1/s");
    let mut encoded = vec![0.0f32; encoder.dims()];
    let encode_rec_s = rate(seconds, || {
        for v in &vectors {
            encoder.encode_into(v, false, &mut encoded);
            black_box(&encoded);
        }
        n
    });
    ledger.set("features.encode_rec_s", encode_rec_s, "1/s");

    // bloom: the package-level membership test.
    let bloom_ops_s = rate(seconds, || {
        for k in &keys {
            black_box(detector.package_level().key_is_anomalous(k));
        }
        n
    });
    ledger.set("bloom.contains_ops_s", bloom_ops_s, "1/s");
    let pass_share = keys
        .iter()
        .filter(|k| !detector.package_level().key_is_anomalous(k))
        .count() as f64
        / n as f64;

    // core: the lockstep batched path at full lane width (the engine's
    // ceiling) and the per-record path (the paper's per-package time).
    let slices: Vec<&[Record]> = setup.reference.records.iter().map(Vec::as_slice).collect();
    let classify_batch_pkg_s = rate(seconds, || {
        black_box(detector.classify_streams(&slices));
        n
    });
    ledger.set("core.classify_batch_pkg_s", classify_batch_pkg_s, "1/s");
    let longest = slices
        .iter()
        .max_by_key(|s| s.len())
        .expect("a capture has streams");
    let classify_b1_s = rate(seconds, || {
        let mut state = detector.begin();
        for r in longest.iter() {
            black_box(detector.classify(&mut state, r));
        }
        longest.len() as u64
    });
    ledger.set("core.classify_b1_us", 1e6 / classify_b1_s, "us");

    // nn: the stacked LSTM + dense head alone, batched and per record,
    // and the trainer alone.
    // The lanes the engine steps together on this workload.
    let lanes = (spec.clean_links() as usize).min(vectors.len());
    let mut xs = vec![0.0f32; lanes * encoder.dims()];
    for (row, v) in xs.chunks_mut(encoder.dims()).zip(&vectors) {
        encoder.encode_into(v, false, row);
    }
    let mut states: Vec<_> = (0..lanes).map(|_| model.new_state()).collect();
    let mut scratch = model.batch_scratch();
    let mut logits = vec![0.0f32; lanes * model.num_classes()];
    // The detector ranks raw logits, so the probes skip the softmax too:
    // gather, one batched step, scatter — what every round does.
    let forward_lane_steps_s = rate(seconds, || {
        for _ in 0..16 {
            for (i, state) in states.iter().enumerate() {
                model.gather_lane(&mut scratch, i, state);
            }
            model.forward_batch_gathered_logits(&mut scratch, lanes, &xs, &mut logits);
            for (i, state) in states.iter_mut().enumerate() {
                model.scatter_lane(&scratch, i, state);
            }
        }
        black_box(&logits);
        16 * lanes as u64
    });
    ledger.set("nn.forward_lane_steps_s", forward_lane_steps_s, "1/s");
    let forward_b1_steps_s = rate(seconds, || {
        for _ in 0..64 {
            model.step_logits(
                &mut states[0],
                &xs[..encoder.dims()],
                &mut logits[..model.num_classes()],
            );
        }
        black_box(&logits);
        64
    });
    ledger.set("nn.forward_b1_steps_s", forward_b1_steps_s, "1/s");
    ledger.set(
        "nn.train_batch_targets_s",
        train_targets_s(model, &encoder, &vectors, engine_config.num_shards, seconds),
        "1/s",
    );

    // simd: the recurrent gemm and the cell update at this lane count.
    let hidden = *model
        .config()
        .hidden_dims
        .last()
        .expect("a model has layers");
    let x = vec![0.5f32; lanes * hidden];
    let w = vec![0.01f32; hidden * 4 * hidden];
    let mut y = vec![0.0f32; lanes * 4 * hidden];
    let gemm_flops_s = rate(seconds, || {
        icsad_simd::gemm_dense_acc_f32(lanes, &x, hidden, &w, 4 * hidden, &mut y);
        black_box(&y);
        (2 * lanes * hidden * 4 * hidden) as u64
    });
    ledger.set("simd.gemm_dense_gflops", gemm_flops_s / 1e9, "GFLOP/s");
    let gates = vec![0.1f32; 4 * hidden];
    let (mut c, mut h) = (vec![0.0f32; hidden], vec![0.0f32; hidden]);
    let lstm_cell_elems_s = rate(seconds, || {
        for _ in 0..lanes {
            let (i_g, rest) = gates.split_at(hidden);
            let (f_g, rest) = rest.split_at(hidden);
            let (o_g, g_g) = rest.split_at(hidden);
            icsad_simd::lstm_cell_f32(i_g, f_g, o_g, g_g, &mut c, &mut h, None);
        }
        black_box(&h);
        (lanes * hidden) as u64
    });
    ledger.set("simd.lstm_cell_elems_s", lstm_cell_elems_s, "1/s");
    ledger.set("simd.flops_per_pkg", flops_per_package(model), "count");
    ledger.set(
        "simd.weight_bytes_per_round",
        model.memory_bytes() as f64,
        "bytes",
    );

    // engine: the whole workload through a backend that decides nothing.
    let null: Arc<dyn StreamingDetector> = Arc::new(NullBackend);
    let (mut frames, mut wall) = (0, 0.0);
    closed_pass(&null, engine_config, &setup.capture, None);
    while wall < seconds {
        let pass = closed_pass(&null, engine_config, &setup.capture, None);
        frames += pass.report.frames();
        wall += pass.wall_s;
    }
    ledger.set("engine.null_backend_pkg_s", frames as f64 / wall, "1/s");

    let per_package = 1e6 / discretize_rec_s
        + 1e6 / signature_rec_s
        + 1e6 / bloom_ops_s
        + pass_share * 1e6 / vocab_lookup_s
        + 1e6 / encode_rec_s;
    Attribution {
        decode_us: match setup.capture.feed {
            Feed::Pcap(_) => 1e6 / decode_frames_s,
            Feed::Frames(_) => 0.0,
        },
        extract_us: 1e6 / extract_rec_s,
        package_level_us: per_package,
        lstm_us: 1e6 / forward_lane_steps_s,
    }
}

/// Isolated per-package costs along the real path, microseconds.
pub struct Attribution {
    pub decode_us: f64,
    pub extract_us: f64,
    /// Discretize + signature + Bloom + vocabulary lookup + one-hot.
    pub package_level_us: f64,
    /// One lane-step of the batched LSTM and its dense head.
    pub lstm_us: f64,
}

impl Attribution {
    pub fn total_us(&self) -> f64 {
        self.decode_us + self.extract_us + self.package_level_us + self.lstm_us
    }
}

/// The trainer alone, on sequences cut from the workload's own encoded
/// packages: targets per second.
fn train_targets_s(
    model: &LstmClassifier,
    encoder: &OneHotEncoder,
    vectors: &[DiscreteVector],
    threads: usize,
    seconds: f64,
) -> f64 {
    const SEQUENCES: usize = 8;
    const STEPS: usize = 32;
    let classes = model.num_classes();
    let sequences: Vec<Sequence> = vectors
        .chunks(STEPS)
        .take(SEQUENCES)
        .enumerate()
        .map(|(s, chunk)| {
            Sequence::new(
                chunk
                    .iter()
                    .enumerate()
                    .map(|(t, v)| (encoder.encode(v, false), (s * STEPS + t) % classes))
                    .collect(),
            )
        })
        .collect();
    let targets: u64 = sequences.iter().map(|s| s.len() as u64).sum();
    let mut model = model.clone();
    let mut trainer = Trainer::new(TrainingConfig {
        epochs: 1,
        num_threads: threads,
        ..TrainingConfig::default()
    });
    rate(seconds, || {
        black_box(trainer.fit(&mut model, &sequences));
        targets
    })
}

/// Floating-point operations one package costs in the LSTM stack and the
/// dense head, **computed from the tensor sizes, not measured**: two per
/// weight touched. Layer 0 reads one weight row per active input bit
/// (one per feature) through the zero-skipping gemm; every other product
/// is dense.
fn flops_per_package(model: &LstmClassifier) -> f64 {
    let config = model.config();
    let mut flops = 0;
    let mut input = FEATURE_COUNT;
    for &hidden in &config.hidden_dims {
        flops += 2 * (input + hidden) * 4 * hidden;
        input = hidden;
    }
    (flops + 2 * input * config.num_classes) as f64
}
