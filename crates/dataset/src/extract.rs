//! Wire packets → feature records.
//!
//! The traffic monitor of the paper records *every* package, including ones
//! with bad checksums, so decoding here is lenient: CRC failures are recorded
//! in the `crc_ok` / `crc_rate` features rather than causing drops.

use std::collections::VecDeque;

use icsad_modbus::pipeline::{decode_read_response_parts, decode_write_command_parts};
use icsad_modbus::{FrameView, FunctionCode};
use icsad_simulator::Packet;

use crate::record::Record;

/// Default sliding-window width (in packages) for the `crc rate` feature.
pub const DEFAULT_CRC_WINDOW: usize = 32;

/// Incremental wire-to-record extractor for one monitored stream.
///
/// [`extract_records`] is the batch entry point over a finished capture;
/// the streaming engine instead feeds frames one at a time, per traffic
/// stream (slave id), and needs the extractor's state — the CRC sliding
/// window and the previous package's timestamp — to persist between
/// packages. One `StreamExtractor` holds exactly that state.
///
/// A package stamped earlier than one already seen (capture reordering)
/// gets `time_interval` 0 and does not move the stream's clock back, so
/// the next in-order package's interval is still measured from the latest
/// time seen; [`StreamExtractor::clock_regressions`] counts them.
///
/// # Examples
///
/// ```
/// use icsad_dataset::extract::{StreamExtractor, DEFAULT_CRC_WINDOW};
///
/// let mut ex = StreamExtractor::new(DEFAULT_CRC_WINDOW);
/// let record = ex.push(0.5, &[0x04, 0x03, 0x00, 0x00], true, None);
/// assert_eq!(record.time, 0.5);
/// assert_eq!(record.time_interval, 0.0); // first package has no predecessor
/// ```
#[derive(Debug, Clone)]
pub struct StreamExtractor {
    /// Whether each of the last `crc_window` packages failed its CRC.
    window: VecDeque<bool>,
    /// The `true` entries of `window`, kept beside it.
    bad: usize,
    crc_window: usize,
    /// Latest timestamp seen so far (monotone).
    prev_time: Option<f64>,
    clock_regressions: u64,
}

impl StreamExtractor {
    /// Creates an extractor with the given CRC sliding-window width.
    ///
    /// # Panics
    ///
    /// Panics if `crc_window == 0`.
    pub fn new(crc_window: usize) -> Self {
        assert!(crc_window > 0, "crc window must be positive");
        StreamExtractor {
            window: VecDeque::with_capacity(crc_window),
            bad: 0,
            crc_window,
            prev_time: None,
            clock_regressions: 0,
        }
    }

    /// Packages pushed so far whose timestamp was earlier than the latest
    /// one already seen.
    pub fn clock_regressions(&self) -> u64 {
        self.clock_regressions
    }

    /// Converts one wire package into a feature record, updating the
    /// stream state (CRC window, inter-package interval).
    ///
    /// `label` is carried through for evaluation only, exactly like
    /// [`Packet::label`].
    pub fn push(
        &mut self,
        time: f64,
        wire: &[u8],
        is_command: bool,
        label: Option<icsad_simulator::AttackType>,
    ) -> Record {
        // Borrowed decode: the payload stays in `wire`, so per-frame
        // extraction performs zero heap allocations (the engine's
        // counting-allocator test depends on this).
        let decoded = FrameView::decode_lenient(wire).ok();
        let crc_ok = decoded.as_ref().is_some_and(|(_, ok)| *ok);

        if self.window.len() == self.crc_window && self.window.pop_front() == Some(true) {
            self.bad -= 1;
        }
        self.window.push_back(!crc_ok);
        self.bad += usize::from(!crc_ok);
        let crc_rate = self.bad as f64 / self.window.len() as f64;

        let prev = self.prev_time.unwrap_or(time);
        if time < prev {
            self.clock_regressions += 1;
        }
        let mut record = Record::empty_at(time);
        record.time_interval = (time - prev).max(0.0);
        record.length = wire.len() as u16;
        record.crc_ok = crc_ok;
        record.crc_rate = crc_rate;
        record.command_response = is_command;
        record.label = label;

        if let Some((frame, _)) = decoded {
            record.address = frame.address();
            record.function = frame.function().code();
            fill_payload_features(&mut record, &frame, is_command);
        }

        self.prev_time = Some(prev.max(time));
        record
    }

    /// Converts one simulator packet (see [`StreamExtractor::push`]).
    pub fn push_packet(&mut self, packet: &Packet) -> Record {
        self.push(packet.time, &packet.wire, packet.is_command, packet.label)
    }
}

/// Extracts feature records from a packet capture.
///
/// `crc_window` is the width of the sliding window used for the `crc rate`
/// feature; the window always includes the current package.
///
/// The first record's `time_interval` is `0.0` (there is no predecessor).
/// Packages that fail even lenient Modbus decoding (truncated frames) yield
/// records with header features only.
///
/// # Panics
///
/// Panics if `crc_window == 0`.
pub fn extract_records(packets: &[Packet], crc_window: usize) -> Vec<Record> {
    let mut extractor = StreamExtractor::new(crc_window);
    packets.iter().map(|p| extractor.push_packet(p)).collect()
}

/// Fills the payload-derived features for the package types that carry them.
fn fill_payload_features(record: &mut Record, frame: &FrameView<'_>, is_command: bool) {
    match (frame.function(), is_command) {
        (FunctionCode::WriteMultipleRegisters, true) => {
            if let Ok(state) = decode_write_command_parts(frame.function(), frame.payload()) {
                record.setpoint = Some(state.pid.setpoint);
                record.gain = Some(state.pid.gain);
                record.reset_rate = Some(state.pid.reset_rate);
                record.deadband = Some(state.pid.deadband);
                record.cycle_time = Some(state.pid.cycle_time);
                record.rate = Some(state.pid.rate);
                record.system_mode = Some(state.mode.code() as u8);
                record.control_scheme = Some(state.scheme.code() as u8);
                record.pump = Some(u8::from(state.pump_on));
                record.solenoid = Some(u8::from(state.solenoid_open));
            }
        }
        (FunctionCode::ReadHoldingRegisters, false) => {
            if let Ok(state) = decode_read_response_parts(frame.function(), frame.payload()) {
                record.setpoint = Some(state.pid.setpoint);
                record.gain = Some(state.pid.gain);
                record.reset_rate = Some(state.pid.reset_rate);
                record.deadband = Some(state.pid.deadband);
                record.cycle_time = Some(state.pid.cycle_time);
                record.rate = Some(state.pid.rate);
                record.system_mode = Some(state.mode.code() as u8);
                record.control_scheme = Some(state.scheme.code() as u8);
                record.pump = Some(u8::from(state.pump_on));
                record.solenoid = Some(u8::from(state.solenoid_open));
                record.pressure = Some(state.pressure);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icsad_simulator::traffic::{TrafficConfig, TrafficGenerator};
    use icsad_simulator::AttackType;

    fn capture(attack_probability: f64, n: usize, seed: u64) -> Vec<Packet> {
        let mut gen = TrafficGenerator::new(TrafficConfig {
            seed,
            attack_probability,
            ..TrafficConfig::default()
        });
        gen.generate(n)
    }

    #[test]
    fn record_count_matches_packet_count() {
        let packets = capture(0.0, 500, 1);
        assert_eq!(extract_records(&packets, DEFAULT_CRC_WINDOW).len(), 500);
    }

    #[test]
    fn commands_and_responses_alternate_in_clean_traffic() {
        let packets = capture(0.0, 400, 2);
        let records = extract_records(&packets, DEFAULT_CRC_WINDOW);
        for pair in records.chunks(2) {
            assert!(pair[0].command_response);
            assert!(!pair[1].command_response);
        }
    }

    #[test]
    fn write_commands_carry_pid_but_not_pressure() {
        let packets = capture(0.0, 400, 3);
        let records = extract_records(&packets, DEFAULT_CRC_WINDOW);
        let write_cmds: Vec<&Record> = records
            .iter()
            .filter(|r| r.command_response && r.function == 0x10)
            .collect();
        assert!(!write_cmds.is_empty());
        for r in write_cmds {
            assert!(r.pid_vector().is_some(), "write command lacks pid params");
            assert!(r.setpoint.is_some());
            assert_eq!(r.pressure, None);
        }
    }

    #[test]
    fn read_responses_carry_pressure() {
        let packets = capture(0.0, 400, 4);
        let records = extract_records(&packets, DEFAULT_CRC_WINDOW);
        let responses: Vec<&Record> = records
            .iter()
            .filter(|r| !r.command_response && r.function == 0x03)
            .collect();
        assert!(!responses.is_empty());
        for r in responses {
            assert!(r.pressure.is_some(), "read response lacks pressure");
        }
    }

    #[test]
    fn read_commands_and_acks_have_no_payload_features() {
        let packets = capture(0.0, 400, 5);
        let records = extract_records(&packets, DEFAULT_CRC_WINDOW);
        for r in &records {
            let is_read_cmd = r.command_response && r.function == 0x03;
            let is_write_ack = !r.command_response && r.function == 0x10;
            if is_read_cmd || is_write_ack {
                assert_eq!(r.setpoint, None);
                assert_eq!(r.pressure, None);
                assert_eq!(r.system_mode, None);
            }
        }
    }

    #[test]
    fn time_intervals_are_positive_after_first() {
        let packets = capture(0.0, 300, 6);
        let records = extract_records(&packets, DEFAULT_CRC_WINDOW);
        assert_eq!(records[0].time_interval, 0.0);
        for r in &records[1..] {
            assert!(r.time_interval > 0.0);
        }
    }

    #[test]
    fn a_reordered_package_does_not_move_the_clock_back() {
        let mut extractor = StreamExtractor::new(DEFAULT_CRC_WINDOW);
        let wire = [0x04, 0x03, 0x00, 0x00];
        let intervals: Vec<f64> = [10.0, 9.0, 10.1]
            .iter()
            .map(|&t| extractor.push(t, &wire, true, None).time_interval)
            .collect();
        assert_eq!(intervals[..2], [0.0, 0.0]);
        // Measured from 10.0, the latest time seen — not from 9.0.
        assert!((intervals[2] - 0.1).abs() < 1e-9, "got {}", intervals[2]);
        assert_eq!(extractor.clock_regressions(), 1);
    }

    #[test]
    fn crc_rate_reflects_bad_checksums() {
        let mut packets = capture(0.0, 100, 7);
        // Corrupt a run of packets.
        for p in packets.iter_mut().skip(50).take(16) {
            let last = p.wire.len() - 1;
            p.wire[last] ^= 0xFF;
        }
        let records = extract_records(&packets, 16);
        // Right after the corrupted run the window is saturated.
        assert!(records[65].crc_rate > 0.9);
        // Early records far from the corruption see none of it.
        assert!(records[30].crc_rate < 0.2);
    }

    /// The running bad count gives the rate a rescan of the window gives,
    /// bit for bit, on pseudo-random good/bad sequences for every width
    /// from 1 to 40 — while the window fills and once it slides.
    #[test]
    fn crc_rate_equals_a_rescan_of_the_window() {
        // Read holding registers, slave 1, with its valid CRC.
        let good = [0x01u8, 0x03, 0x00, 0x00, 0x00, 0x01, 0x84, 0x0A];
        let mut bad = good;
        bad[7] ^= 0xFF;
        let mut state = 0x2545_F491u32;
        for width in 1..=40 {
            let mut extractor = StreamExtractor::new(width);
            let mut reference: VecDeque<bool> = VecDeque::new();
            for step in 0..3 * width + 20 {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                let is_bad = state.is_multiple_of(3);
                let record =
                    extractor.push(step as f64, if is_bad { &bad } else { &good }, true, None);
                if reference.len() == width {
                    reference.pop_front();
                }
                reference.push_back(is_bad);
                let rate = reference.iter().filter(|&&b| b).count() as f64 / reference.len() as f64;
                assert_eq!(record.crc_ok, !is_bad);
                assert_eq!(
                    record.crc_rate.to_bits(),
                    rate.to_bits(),
                    "width {width} step {step}"
                );
            }
        }
    }

    #[test]
    fn labels_propagate() {
        let packets = capture(0.2, 5_000, 8);
        let records = extract_records(&packets, DEFAULT_CRC_WINDOW);
        let attacks = records.iter().filter(|r| r.is_attack()).count();
        assert!(attacks > 0);
        let types: std::collections::HashSet<AttackType> =
            records.iter().filter_map(|r| r.label).collect();
        assert!(
            types.len() >= 5,
            "expected most attack types, saw {types:?}"
        );
    }

    #[test]
    fn labels_match_packets_one_to_one() {
        let packets = capture(0.3, 1_000, 9);
        let records = extract_records(&packets, DEFAULT_CRC_WINDOW);
        for (p, r) in packets.iter().zip(records.iter()) {
            assert_eq!(p.label, r.label);
            assert_eq!(p.is_command, r.command_response);
        }
    }

    #[test]
    #[should_panic(expected = "crc window must be positive")]
    fn zero_window_panics() {
        extract_records(&[], 0);
    }

    #[test]
    fn empty_capture_yields_no_records() {
        assert!(extract_records(&[], 8).is_empty());
    }
}
