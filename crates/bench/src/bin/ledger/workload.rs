//! The three named workloads: what each one feeds the engine, why it
//! exists, and how its inputs are made from the seed.
//!
//! Every workload commissions its detector **on the fleet it monitors**:
//! same station address, same traffic generator family, a disjoint seed.
//! The probes this ledger replaces commissioned on station 4 and replayed
//! stations 1..N, so nearly every package missed the Bloom filter and the
//! LSTM level was never reached; [`Reference::clean_pass_share`] guards
//! against that regime coming back.

use std::sync::Arc;
use std::time::Instant;

use icsad_core::combined::DetectionLevel;
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_core::CombinedDetector;
use icsad_dataset::extract::{StreamExtractor, DEFAULT_CRC_WINDOW};
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Record};
use icsad_engine::{FrameBytes, RawFrame};
use icsad_modbus::{Frame, FunctionCode};
use icsad_simulator::{Packet, TrafficConfig, TrafficGenerator};
use icsad_wire::fixture::CaptureBuilder;
use icsad_wire::{PcapReader, WireReplay, MODBUS_TCP_PORT};

/// Station address of every simulated PLC, commissioning capture included.
const STATION: u8 = 4;

/// What the generator thread feeds the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `streams` `(link, unit)` streams of `per_stream` packages each,
    /// interleaved round-robin and fed as `RawFrame`s — the wire layer is
    /// not on the path.
    Fleet { streams: usize, per_stream: usize },
    /// A Modbus-TCP pcap image of `conns` steady connections carrying
    /// `per_conn` packages each, read through `PcapReader` and
    /// `WireReplay`. With `storm`, hostile traffic is mixed in (see
    /// [`wire_capture`]).
    Wire {
        conns: usize,
        per_conn: usize,
        storm: bool,
    },
}

/// One named workload. Sizes come from here and from `--seed` only.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// LSTM stack widths.
    pub hidden: &'static [usize],
    /// Clean packages in the commissioning capture (split 70/20/10).
    pub commission_packages: usize,
    pub epochs: usize,
    pub shape: Shape,
    pub lane_idle_frames: Option<u64>,
    /// Open-loop rates R1/R2/R3 in packages per second.
    pub rates: [u64; 3],
}

const FLEET_RATES: [u64; 3] = [2_000, 8_000, 16_000];
/// High enough that classifying a tick's frames, not waking the worker
/// up, is most of a tick's lag at R2.
const WIRE_RATES: [u64; 3] = [50_000, 250_000, 500_000];

/// The catalogue, in the order `BENCHMARK.json` lists it.
pub fn catalogue() -> Vec<Spec> {
    vec![
        Spec {
            name: "fleet-paper",
            why: "Closed loop at paper scale (96 streams, 2x256 LSTM): the batched LSTM step is most of the cost, so nn/simd/core do the work and wire does none.",
            hidden: &[256, 256],
            commission_packages: 6_000,
            epochs: 1,
            shape: Shape::Fleet {
                streams: 96,
                per_stream: 400,
            },
            lane_idle_frames: None,
            rates: FLEET_RATES,
        },
        Spec {
            name: "wire-small",
            why: "Closed loop over a 16-connection Modbus-TCP pcap with a 1x8 model: decode, route, queue, extract and signature dominate, so an LSTM kernel change should barely move it.",
            hidden: &[8],
            commission_packages: 24_000,
            epochs: 3,
            shape: Shape::Wire {
                conns: 16,
                per_conn: 50_000,
                storm: false,
            },
            lane_idle_frames: None,
            rates: WIRE_RATES,
        },
        Spec {
            name: "storm-churn",
            why: "wire-small plus short-lived connections, an exception flood and junk TCP segments: decoder resync, lane add/retire/evict and Bloom misses instead of the fast path.",
            hidden: &[8],
            commission_packages: 24_000,
            epochs: 3,
            shape: Shape::Wire {
                conns: 16,
                per_conn: 36_000,
                storm: true,
            },
            lane_idle_frames: Some(4_096),
            rates: WIRE_RATES,
        },
    ]
}

impl Spec {
    /// The same workload with roughly `1/divisor` of its traffic, for
    /// `--smoke`. Commissioning is not shrunk: a detector trained on less
    /// no longer covers its fleet, and the Bloom pass-share check fails.
    pub fn shrunk(&self, divisor: usize) -> Spec {
        let shrink = |n: usize, floor: usize| (n / divisor).max(floor);
        Spec {
            shape: match self.shape {
                Shape::Fleet {
                    streams,
                    per_stream,
                } => Shape::Fleet {
                    streams: shrink(streams, 8),
                    per_stream: shrink(per_stream, 40),
                },
                Shape::Wire {
                    conns,
                    per_conn,
                    storm,
                } => Shape::Wire {
                    conns: shrink(conns, 4),
                    per_conn: shrink(per_conn, 400),
                    storm,
                },
            },
            lane_idle_frames: self
                .lane_idle_frames
                .map(|n| shrink(n as usize, 256) as u64),
            ..self.clone()
        }
    }

    /// Streams that make up the clean monitored fleet: their links are the
    /// first ones a replay sees, `0..clean_links`.
    pub fn clean_links(&self) -> u32 {
        match self.shape {
            Shape::Fleet { streams, .. } => streams as u32,
            Shape::Wire { conns, .. } => conns as u32,
        }
    }

    /// Line noise on the simulated serial link. Modbus-TCP drops the
    /// serial CRC (the decoder regenerates it), so a wire workload's
    /// commissioning capture must not contain CRC errors either.
    fn bad_crc_rate(&self) -> f64 {
        match self.shape {
            Shape::Fleet { .. } => TrafficConfig::default().bad_crc_rate,
            Shape::Wire { .. } => 0.0,
        }
    }
}

/// SplitMix64: the harness's only source of randomness, seeded from
/// `--seed`.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A seed for one generator, derived from the run seed, a purpose tag and
/// an index, so no two generators of a run share a random stream.
fn derive_seed(seed: u64, purpose: u64, index: u64) -> u64 {
    SplitMix::new(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f) ^ index.rotate_left(32))
        .next_u64()
}

/// Seed of every commissioning capture. It is a constant of the workload,
/// not an input of the run: the detector — its vocabulary, its chosen `k`,
/// its weights — is then the same for every `--seed`, and only the
/// monitored traffic varies. (A seed-dependent vocabulary changes the
/// model's output width, and with it the cost of a package, by ±20 %.)
const COMMISSION_SEED: u64 = 0x1c5a_d001;
/// PLCs whose clean traffic makes up a commissioning capture.
const COMMISSION_PLCS: usize = 4;
const PURPOSE_STREAM: u64 = 2;
const PURPOSE_SHORT_LIVED: u64 = 3;
const PURPOSE_STORM: u64 = 4;

fn clean_generator(spec: &Spec, seed: u64) -> TrafficGenerator {
    TrafficGenerator::new(TrafficConfig {
        seed,
        slave_address: STATION,
        attack_probability: 0.0,
        bad_crc_rate: spec.bad_crc_rate(),
        ..TrafficConfig::default()
    })
}

/// The inputs of one run.
pub enum Feed {
    Frames(Vec<RawFrame>),
    Pcap(Vec<u8>),
}

/// A workload's capture plus what a correct replay of it must report.
pub struct Capture {
    pub feed: Feed,
    /// Modbus frames encoded into the capture.
    pub frames: u64,
    /// Junk bytes injected into TCP streams; the decoders must skip
    /// exactly these.
    pub junk_bytes: u64,
    /// Connections closed by a FIN.
    pub closed_connections: u64,
}

/// Generates the workload's capture from the seed.
pub fn capture(spec: &Spec, seed: u64) -> Capture {
    match spec.shape {
        Shape::Fleet {
            streams,
            per_stream,
        } => fleet_capture(spec, seed, streams, per_stream),
        Shape::Wire {
            conns,
            per_conn,
            storm,
        } => wire_capture(spec, seed, conns, per_conn, storm),
    }
}

fn stream_packets(spec: &Spec, seed: u64, streams: usize, per_stream: usize) -> Vec<Vec<Packet>> {
    (0..streams)
        .map(|i| {
            clean_generator(spec, derive_seed(seed, PURPOSE_STREAM, i as u64)).generate(per_stream)
        })
        .collect()
}

fn fleet_capture(spec: &Spec, seed: u64, streams: usize, per_stream: usize) -> Capture {
    let packets = stream_packets(spec, seed, streams, per_stream);
    let mut frames = Vec::with_capacity(streams * per_stream);
    for i in 0..per_stream {
        for (link, stream) in packets.iter().enumerate() {
            let p = &stream[i];
            frames.push(RawFrame {
                time: p.time,
                wire: FrameBytes::from(&p.wire[..]),
                is_command: p.is_command,
                label: None,
                link: link as u32,
            });
        }
    }
    Capture {
        frames: frames.len() as u64,
        feed: Feed::Frames(frames),
        junk_bytes: 0,
        closed_connections: 0,
    }
}

/// Short-lived connections open at a time in the storm.
const SHORT_LIVED_SLOTS: usize = 4;
/// Every n-th short-lived connection is abandoned without a FIN, so its
/// lane can only be reclaimed by idle eviction.
const ABANDON_EVERY: u64 = 8;

struct ShortLived {
    conn: u16,
    packets: Vec<Packet>,
    next: usize,
}

/// Builds the pcap image of a wire workload.
///
/// The steady part is `conns` connections, one simulated PLC each,
/// interleaved round-robin. With `storm`, three kinds of hostile traffic
/// are mixed in by frame count:
///
/// * about 15 % short-lived connections: open, two polling cycles, FIN —
///   one in [`ABANDON_EVERY`] is left open instead;
/// * about 10 % well-formed exception responses flooding one extra
///   connection;
/// * a junk-only TCP segment (a run of `0xFF`) ahead of about 5 % of the
///   steady segments, which the MBAP decoder has to resynchronise over.
fn wire_capture(spec: &Spec, seed: u64, conns: usize, per_conn: usize, storm: bool) -> Capture {
    let steady = stream_packets(spec, seed, conns, per_conn);
    let mut builder = CaptureBuilder::new();
    let mut rng = SplitMix::new(derive_seed(seed, PURPOSE_STORM, 0));
    let mut capture = Capture {
        feed: Feed::Pcap(Vec::new()),
        frames: 0,
        junk_bytes: 0,
        closed_connections: 0,
    };

    let flood_conn = conns as u16;
    let mut next_conn = flood_conn + 1;
    let mut opened = 0u64;
    let open_short_lived = |conn: u16, opened: &mut u64| -> ShortLived {
        *opened += 1;
        ShortLived {
            conn,
            packets: clean_generator(spec, derive_seed(seed, PURPOSE_SHORT_LIVED, *opened))
                .generate_cycles(2),
            next: 0,
        }
    };
    let mut slots: Vec<ShortLived> = Vec::new();
    if storm {
        for _ in 0..SHORT_LIVED_SLOTS {
            slots.push(open_short_lived(next_conn, &mut opened));
            next_conn += 1;
        }
    }

    let mut step = 0u64;
    for i in 0..per_conn {
        for (conn, stream) in steady.iter().enumerate() {
            let p = &stream[i];
            step += 1;
            if storm && i > 0 && rng.below(20) == 0 {
                let junk = vec![0xFF; 8 + rng.below(33) as usize];
                builder.raw_packet(p.time, &tcp_segment(conn as u16, p.is_command, &junk));
                capture.junk_bytes += junk.len() as u64;
            }
            builder.modbus_on(conn as u16, p.time, &p.wire, p.is_command);
            capture.frames += 1;
            // The steady fleet opens first, so its links are `0..conns`.
            if !storm || i == 0 {
                continue;
            }
            if step.is_multiple_of(7) {
                const CODES: [u8; 5] = [0x01, 0x02, 0x03, 0x06, 0x0B];
                let code = CODES[(step / 7) as usize % CODES.len()];
                let frame = Frame::new(STATION, FunctionCode::Other(0x83), vec![code]);
                builder.modbus_on(flood_conn, p.time, &frame.encode(), false);
                capture.frames += 1;
            }
            if step.is_multiple_of(5) {
                let slot = (step / 5) as usize % slots.len();
                let short = &mut slots[slot];
                let q = &short.packets[short.next];
                builder.modbus_on(short.conn, q.time, &q.wire, q.is_command);
                capture.frames += 1;
                short.next += 1;
                if short.next == short.packets.len() {
                    // Reopening the same connection index after a FIN
                    // models a new TCP connection on the same 4-tuple; an
                    // abandoned one keeps its 4-tuple busy, so the slot
                    // moves on to a fresh index.
                    let conn = if opened.is_multiple_of(ABANDON_EVERY) {
                        next_conn += 1;
                        next_conn - 1
                    } else {
                        builder.close(short.conn, q.time);
                        capture.closed_connections += 1;
                        short.conn
                    };
                    slots[slot] = open_short_lived(conn, &mut opened);
                }
            }
        }
    }
    capture.feed = Feed::Pcap(builder.finish());
    capture
}

/// A hand-built Ethernet II / IPv4 / TCP segment on the 4-tuple
/// `CaptureBuilder` gives connection `conn` (master `10.0.0.1:49152+conn`,
/// slave `10.0.0.2:502`), for payloads `CaptureBuilder::modbus_on` will not
/// wrap. `WireReplay` reads neither sequence numbers nor checksums.
fn tcp_segment(conn: u16, to_slave: bool, payload: &[u8]) -> Vec<u8> {
    const MASTER_IP: [u8; 4] = [10, 0, 0, 1];
    const SLAVE_IP: [u8; 4] = [10, 0, 0, 2];
    let master = (MASTER_IP, 49_152 + conn);
    let slave = (SLAVE_IP, MODBUS_TCP_PORT);
    let (src, dst) = if to_slave {
        (master, slave)
    } else {
        (slave, master)
    };
    let mut pkt = Vec::with_capacity(54 + payload.len());
    pkt.extend_from_slice(&[0x02, 0, 0, 0, 0, 2, 0x02, 0, 0, 0, 0, 1, 0x08, 0x00]);
    pkt.extend_from_slice(&[0x45, 0]);
    pkt.extend_from_slice(&((40 + payload.len()) as u16).to_be_bytes());
    pkt.extend_from_slice(&[0, 0, 0x40, 0, 64, 6, 0, 0]);
    pkt.extend_from_slice(&src.0);
    pkt.extend_from_slice(&dst.0);
    pkt.extend_from_slice(&src.1.to_be_bytes());
    pkt.extend_from_slice(&dst.1.to_be_bytes());
    pkt.extend_from_slice(&[0; 8]); // sequence and acknowledgement numbers
    pkt.extend_from_slice(&[5 << 4, 0x18, 0xFF, 0xFF, 0, 0, 0, 0]);
    pkt.extend_from_slice(payload);
    pkt
}

/// A commissioned detector and what commissioning it cost.
pub struct Commissioned {
    pub detector: Arc<CombinedDetector>,
    /// LSTM prediction targets trained on, summed over epochs.
    pub train_targets: u64,
    /// Wall time of `train_framework`.
    pub train_wall_s: f64,
    pub artifact_bytes: u64,
    /// Wall time of `CombinedDetector::load`.
    pub artifact_load_s: f64,
}

/// Commissions the workload's detector on clean traffic of the fleet it
/// will monitor, saves it as an artifact under `out_dir`, and loads it back:
/// the runs use the loaded detector, as a deployment would.
pub fn commission(spec: &Spec, train_threads: usize, out_dir: &str) -> Commissioned {
    // Clean captures of several PLCs of the monitored family, back to
    // back: operators differ from PLC to PLC, and one PLC's capture misses
    // signatures its neighbours produce every day.
    let per_plc = spec.commission_packages / COMMISSION_PLCS;
    let records: Vec<Record> = (0..COMMISSION_PLCS as u64)
        .flat_map(|plc| {
            let capture = GasPipelineDataset::generate(&DatasetConfig {
                total_packages: per_plc,
                seed: COMMISSION_SEED + plc,
                attack_probability: 0.0,
                crc_window: DEFAULT_CRC_WINDOW,
                traffic: TrafficConfig {
                    slave_address: STATION,
                    bad_crc_rate: spec.bad_crc_rate(),
                    ..TrafficConfig::default()
                },
            });
            capture.records().to_vec()
        })
        .collect();
    let data = GasPipelineDataset::from_records(records);
    let split = data.split_chronological(0.7, 0.2);
    let config = ExperimentConfig {
        timeseries: TimeSeriesTrainingConfig {
            hidden_dims: spec.hidden.to_vec(),
            epochs: spec.epochs,
            num_threads: train_threads,
            seed: COMMISSION_SEED,
            ..TimeSeriesTrainingConfig::default()
        },
        ..ExperimentConfig::default()
    };
    let t0 = Instant::now();
    let trained = train_framework(&split, &config).expect("commissioning failed");
    let train_wall_s = t0.elapsed().as_secs_f64();
    let train_targets = trained
        .training_stats
        .iter()
        .map(|e| e.targets as u64)
        .sum();

    std::fs::create_dir_all(out_dir).expect("create the output directory");
    let path = format!("{out_dir}/{}.icsa", spec.name);
    trained.detector.save(&path).expect("save the artifact");
    let artifact_bytes = std::fs::metadata(&path).expect("stat the artifact").len();
    let t0 = Instant::now();
    let detector = CombinedDetector::load(&path).expect("load the artifact back");
    let artifact_load_s = t0.elapsed().as_secs_f64();

    Commissioned {
        detector: Arc::new(detector),
        train_targets,
        train_wall_s,
        artifact_bytes,
        artifact_load_s,
    }
}

/// One uninterrupted life of a stream: the frames a link carried between
/// two retirements. A retired link's successor starts a new segment and
/// classifies as a cold start.
pub struct Segment {
    pub link: u32,
    pub frames: Vec<RawFrame>,
}

/// Replays a capture without an engine, with the same close-and-retire
/// handling the timed runs use, and splits it into stream segments.
pub fn segments(capture: &Capture) -> Vec<Segment> {
    let mut open: Vec<Option<Segment>> = Vec::new();
    let mut done = Vec::new();
    let push = |open: &mut Vec<Option<Segment>>, frame: RawFrame| {
        let link = frame.link as usize;
        if open.len() <= link {
            open.resize_with(link + 1, || None);
        }
        open[link]
            .get_or_insert_with(|| Segment {
                link: frame.link,
                frames: Vec::new(),
            })
            .frames
            .push(frame);
    };
    match &capture.feed {
        Feed::Frames(frames) => frames.iter().for_each(|f| push(&mut open, f.clone())),
        Feed::Pcap(image) => {
            let mut reader = PcapReader::new(image).expect("the harness built this capture");
            let mut replay = WireReplay::new();
            let mut closed = Vec::new();
            while let Some(packet) = reader.next().expect("the harness built this capture") {
                replay.handle_packet(packet.time, packet.data, &mut |f| push(&mut open, f));
                replay.drain_closed_links(&mut closed);
                for link in closed.drain(..) {
                    done.extend(open[link as usize].take());
                }
            }
        }
    }
    done.extend(open.into_iter().flatten());
    done
}

/// What the untimed reference pass computed: the decisions every timed
/// run must reproduce, and the regime the workload runs in.
pub struct Reference {
    /// Feature records of every stream segment.
    pub records: Vec<Vec<Record>>,
    pub packages: u64,
    pub alarms: u64,
    pub package_level_alarms: u64,
    pub timeseries_level_alarms: u64,
    /// Share of the clean fleet's packages that passed the Bloom level.
    pub clean_pass_share: f64,
    /// Share of the clean fleet's packages that raised any alarm.
    pub clean_alarm_share: f64,
}

/// Classifies every segment with `CombinedDetector::classify_streams`
/// over the records a `StreamExtractor` makes of it.
pub fn reference(detector: &CombinedDetector, segments: &[Segment], clean_links: u32) -> Reference {
    let records: Vec<Vec<Record>> = segments
        .iter()
        .map(|segment| {
            let mut extractor = StreamExtractor::new(DEFAULT_CRC_WINDOW);
            segment
                .frames
                .iter()
                .map(|f| extractor.push(f.time, &f.wire, f.is_command, f.label))
                .collect()
        })
        .collect();
    let slices: Vec<&[Record]> = records.iter().map(Vec::as_slice).collect();
    let levels = detector.classify_streams(&slices);

    let count = |levels: &[DetectionLevel], level: DetectionLevel| {
        levels.iter().filter(|&&l| l == level).count() as u64
    };
    let (mut package_level, mut timeseries_level) = (0, 0);
    let (mut clean, mut clean_package_level, mut clean_alarms) = (0u64, 0u64, 0u64);
    for (segment, levels) in segments.iter().zip(&levels) {
        let misses = count(levels, DetectionLevel::PackageLevel);
        let late = count(levels, DetectionLevel::TimeSeriesLevel);
        package_level += misses;
        timeseries_level += late;
        if segment.link < clean_links {
            clean += levels.len() as u64;
            clean_package_level += misses;
            clean_alarms += misses + late;
        }
    }
    Reference {
        packages: records.iter().map(|r| r.len() as u64).sum(),
        records,
        alarms: package_level + timeseries_level,
        package_level_alarms: package_level,
        timeseries_level_alarms: timeseries_level,
        clean_pass_share: 1.0 - clean_package_level as f64 / clean as f64,
        clean_alarm_share: clean_alarms as f64 / clean as f64,
    }
}

/// One set-up: everything a run needs before its first timed repetition
/// — [`commission`], [`capture`], [`segments`], [`reference`], in that
/// order.
pub struct Setup {
    pub commissioned: Commissioned,
    pub capture: Capture,
    pub segments: Vec<Segment>,
    pub reference: Reference,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> Spec {
        catalogue()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap()
            .shrunk(50)
    }

    fn image(capture: &Capture) -> &[u8] {
        match &capture.feed {
            Feed::Pcap(image) => image,
            Feed::Frames(_) => panic!("not a wire workload"),
        }
    }

    #[test]
    fn same_seed_same_capture_other_seed_other_capture() {
        let spec = small("storm-churn");
        let a = capture(&spec, 7);
        assert_eq!(image(&a), image(&capture(&spec, 7)));
        assert_ne!(image(&a), image(&capture(&spec, 8)));

        let spec = small("fleet-paper");
        let frames = |seed| match capture(&spec, seed).feed {
            Feed::Frames(frames) => frames,
            Feed::Pcap(_) => panic!("not a fleet workload"),
        };
        assert_eq!(frames(7), frames(7));
        assert_ne!(frames(7), frames(8));
    }

    #[test]
    fn storm_capture_decodes_to_what_it_encoded() {
        let spec = small("storm-churn");
        let capture = capture(&spec, 3);
        assert!(capture.junk_bytes > 0 && capture.closed_connections > 0);
        let mut replay = WireReplay::new();
        let stats = replay.replay(image(&capture), |_| {}).unwrap();
        assert_eq!(stats.frames, capture.frames);
        assert_eq!(stats.skipped_bytes, capture.junk_bytes);
        assert_eq!(stats.closed_connections, capture.closed_connections);
        assert_eq!(stats.ignored_packets, 0);

        // Every frame lands in exactly one segment, and a closed link's
        // successor is a segment of its own.
        let segments = segments(&capture);
        let total: usize = segments.iter().map(|s| s.frames.len()).sum();
        assert_eq!(total as u64, capture.frames);
        assert!(segments.len() as u64 > capture.closed_connections);
        // The steady fleet owns the first link ids.
        let steady: Vec<&Segment> = segments
            .iter()
            .filter(|s| s.link < spec.clean_links())
            .collect();
        assert_eq!(steady.len() as u32, spec.clean_links());
    }

    #[test]
    fn smoke_specs_are_smaller_but_keep_their_shape() {
        for spec in catalogue() {
            let small = spec.shrunk(50);
            assert_eq!(small.name, spec.name);
            assert_eq!(small.commission_packages, spec.commission_packages);
            let packages = |s: &Spec| match s.shape {
                Shape::Fleet {
                    streams,
                    per_stream,
                } => streams * per_stream,
                Shape::Wire {
                    conns, per_conn, ..
                } => conns * per_conn,
            };
            assert!(packages(&small) * 20 < packages(&spec));
            assert_eq!(
                std::mem::discriminant(&small.shape),
                std::mem::discriminant(&spec.shape)
            );
        }
    }
}
