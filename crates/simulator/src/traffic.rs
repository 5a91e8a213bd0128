//! The capture loop: drives master, PLC and attack injector and emits
//! labelled, timestamped wire packets.

use icsad_modbus::pipeline::{
    decode_read_response, decode_write_command, encode_read_command, encode_read_response,
    encode_write_command, PipelineState,
};
use icsad_modbus::{Frame, FunctionCode};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::attack::{
    malicious_function_frame, malicious_parameter_command, malicious_state_command,
    random_pressure_response, stale_pressure_response, AttackInjector, AttackType,
};
use crate::master::{OperatorConfig, ScadaMaster};
use crate::physics::PhysicsConfig;
use crate::plc::PipelinePlc;

/// One captured packet: wire bytes, capture timestamp, direction and ground
/// truth label.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Seconds since the start of the capture.
    pub time: f64,
    /// Encoded Modbus RTU frame (CRC possibly corrupted by line noise or an
    /// attacker).
    pub wire: Vec<u8>,
    /// `true` for master→slave packets, `false` for slave→master.
    pub is_command: bool,
    /// Ground-truth label; `None` for legitimate traffic.
    pub label: Option<AttackType>,
}

impl Packet {
    /// Returns `true` if this packet belongs to an attack.
    pub fn is_attack(&self) -> bool {
        self.label.is_some()
    }
}

/// Configuration of the traffic generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Master seed for all randomness in the capture.
    pub seed: u64,
    /// Station address of the pipeline PLC.
    pub slave_address: u8,
    /// Mean gap between polling cycles, seconds.
    pub inter_cycle_gap: f64,
    /// Mean gap between packets inside a cycle, seconds.
    pub intra_cycle_gap: f64,
    /// Relative jitter (std/mean) applied to every gap.
    pub gap_jitter: f64,
    /// Probability of line noise corrupting a legitimate packet's CRC.
    pub bad_crc_rate: f64,
    /// Probability of starting an attack episode at an idle cycle boundary.
    /// Set to `0.0` for a clean (training) capture.
    pub attack_probability: f64,
    /// Operator behaviour model.
    pub operator: OperatorConfig,
    /// Pipeline physics parameters.
    pub physics: PhysicsConfig,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0,
            slave_address: 4,
            inter_cycle_gap: 0.5,
            intra_cycle_gap: 0.1,
            gap_jitter: 0.08,
            bad_crc_rate: 0.01,
            attack_probability: 0.05,
            operator: OperatorConfig::default(),
            physics: PhysicsConfig::default(),
        }
    }
}

/// Generates labelled gas-pipeline SCADA traffic.
///
/// # Examples
///
/// ```
/// use icsad_simulator::traffic::{TrafficConfig, TrafficGenerator};
///
/// let mut clean = TrafficGenerator::new(TrafficConfig {
///     attack_probability: 0.0,
///     ..TrafficConfig::default()
/// });
/// let packets = clean.generate(100);
/// assert!(packets.iter().all(|p| !p.is_attack()));
/// ```
#[derive(Debug)]
pub struct TrafficGenerator {
    config: TrafficConfig,
    master: ScadaMaster,
    plc: PipelinePlc,
    injector: AttackInjector,
    rng: ChaCha12Rng,
    time: f64,
}

impl TrafficGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: TrafficConfig) -> Self {
        let master = ScadaMaster::new(config.slave_address, config.operator.clone());
        let initial = PipelineState {
            pressure: master.command_state().pid.setpoint,
            ..*master.command_state()
        };
        let plc = PipelinePlc::new(config.slave_address, initial, config.physics);
        let injector = AttackInjector::new(config.attack_probability);
        let rng = ChaCha12Rng::seed_from_u64(config.seed);
        TrafficGenerator {
            config,
            master,
            plc,
            injector,
            rng,
            time: 0.0,
        }
    }

    /// The configuration this generator was built with.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Generates exactly `n` packets (whole cycles are generated and the
    /// output truncated).
    pub fn generate(&mut self, n: usize) -> Vec<Packet> {
        let mut out = Vec::with_capacity(n + 16);
        while out.len() < n {
            self.generate_cycle(&mut out);
        }
        out.truncate(n);
        out
    }

    /// Generates `cycles` full polling cycles (variable packet count).
    pub fn generate_cycles(&mut self, cycles: usize) -> Vec<Packet> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            self.generate_cycle(&mut out);
        }
        out
    }

    fn gap(&mut self, mean: f64) -> f64 {
        let jitter = crate::physics::gaussian(&mut self.rng) * self.config.gap_jitter * mean;
        (mean + jitter).max(mean * 0.2)
    }

    fn push(
        &mut self,
        out: &mut Vec<Packet>,
        frame: &Frame,
        is_command: bool,
        label: Option<AttackType>,
        gap_mean: f64,
        bad_crc_prob: f64,
    ) {
        self.time += self.gap(gap_mean);
        let wire = if self.rng.gen::<f64>() < bad_crc_prob {
            frame.encode_with_bad_crc()
        } else {
            frame.encode()
        };
        out.push(Packet {
            time: self.time,
            wire,
            is_command,
            label,
        });
    }

    fn generate_cycle(&mut self, out: &mut Vec<Packet>) {
        let attack = self.injector.advance_cycle(&mut self.rng);
        self.cycle_with(attack, out);
    }

    /// Generates one polling cycle with the attack decision made by the
    /// caller instead of the random episode scheduler.
    ///
    /// Scenario campaigns use this to script exact attack timelines
    /// (recon cycle here, strike cycle there) while reusing the full
    /// protocol/physics machinery. `None` produces a clean cycle.
    pub fn generate_cycle_forced(&mut self, attack: Option<AttackType>, out: &mut Vec<Packet>) {
        self.cycle_with(attack, out);
    }

    /// Generates one cycle whose write command carries a setpoint drifted
    /// by `offset` from the operator's genuine value, labeled
    /// [`AttackType::Mpci`].
    ///
    /// Unlike the randomized Mpci injection, the drift is caller-
    /// controlled and small per cycle, modeling a stealthy campaign that
    /// walks the setpoint away over many cycles.
    pub fn generate_cycle_drift(&mut self, offset: f64, out: &mut Vec<Packet>) {
        let inter = self.config.inter_cycle_gap;
        let intra = self.config.intra_cycle_gap;
        let noise = self.config.bad_crc_rate;
        let write_cmd = self.master.begin_cycle(&mut self.rng);
        let genuine = decode_write_command(&write_cmd).expect("master write command must decode");
        let mut drifted = genuine;
        drifted.pid.setpoint = (genuine.pid.setpoint + offset).max(0.0);
        let frame = encode_write_command(self.config.slave_address, &drifted);
        self.push(out, &frame, true, Some(AttackType::Mpci), inter, 0.0);
        if let Some(ack) = self.plc.handle_frame(&frame) {
            self.push(out, &ack, false, None, intra, noise);
        }
        let read_cmd = self.master.read_command();
        self.push(out, &read_cmd, true, None, intra, noise);
        if let Some(genuine_resp) = self.plc.handle_frame(&read_cmd) {
            let genuine_state =
                decode_read_response(&genuine_resp).expect("plc read response must decode");
            self.push(out, &genuine_resp, false, None, intra, noise);
            self.master.observe_pressure(genuine_state.pressure);
        }
        let dt = inter + 3.0 * intra;
        self.plc.tick(dt, &mut self.rng);
    }

    fn cycle_with(&mut self, attack: Option<AttackType>, out: &mut Vec<Packet>) {
        let inter = self.config.inter_cycle_gap;
        let intra = self.config.intra_cycle_gap;
        let noise = self.config.bad_crc_rate;
        let write_cmd = self.master.begin_cycle(&mut self.rng);

        // Command-injection attacks slip their packets in ahead of the
        // legitimate cycle.
        match attack {
            Some(AttackType::Msci) => {
                let forged = malicious_state_command(self.plc.state(), &mut self.rng);
                let frame = encode_write_command(self.config.slave_address, &forged);
                self.push(out, &frame, true, Some(AttackType::Msci), inter, 0.0);
                if let Some(resp) = self.plc.handle_frame(&frame) {
                    // The victim's write acknowledgement is byte-identical
                    // to a legitimate ack; like the Morris capture, only the
                    // attacker-injected packet carries the attack label.
                    self.push(out, &resp, false, None, intra, 0.0);
                }
            }
            Some(AttackType::Mpci) => {
                let forged = malicious_parameter_command(self.plc.state(), &mut self.rng);
                let frame = encode_write_command(self.config.slave_address, &forged);
                self.push(out, &frame, true, Some(AttackType::Mpci), inter, 0.0);
                if let Some(resp) = self.plc.handle_frame(&frame) {
                    self.push(out, &resp, false, None, intra, 0.0);
                }
            }
            Some(AttackType::Mfci) => {
                let frame = malicious_function_frame(self.config.slave_address, &mut self.rng);
                self.push(out, &frame, true, Some(AttackType::Mfci), inter, 0.0);
                if let Some(resp) = self.plc.handle_frame(&frame) {
                    self.push(out, &resp, false, Some(AttackType::Mfci), intra, 0.0);
                }
            }
            Some(AttackType::Recon) => {
                let ident = Frame::new(
                    self.config.slave_address,
                    FunctionCode::ReportSlaveId,
                    vec![],
                );
                self.push(out, &ident, true, Some(AttackType::Recon), inter, 0.0);
                if let Some(resp) = self.plc.handle_frame(&ident) {
                    self.push(out, &resp, false, Some(AttackType::Recon), intra, 0.0);
                }
                // Address sweep: poll a station that does not exist.
                let foreign = self
                    .config
                    .slave_address
                    .wrapping_add(self.rng.gen_range(1..=3));
                let probe = encode_read_command(foreign);
                self.push(out, &probe, true, Some(AttackType::Recon), intra, 0.0);
            }
            Some(AttackType::Dos) => {
                // Flood of read commands; the slave's responses are jammed.
                let floods = self.rng.gen_range(3..=6);
                for i in 0..floods {
                    let frame = self.master.read_command();
                    let gap = if i == 0 { inter } else { 0.01 };
                    self.push(out, &frame, true, Some(AttackType::Dos), gap, 0.0);
                }
                // The link stalls: next traffic appears after a long gap.
                self.time += 3.0 + self.rng.gen::<f64>() * 5.0;
                let dt = inter + 3.0 * intra;
                self.plc.tick(dt, &mut self.rng);
                return;
            }
            _ => {}
        }

        // The legitimate 4-packet command–response cycle.
        self.push(out, &write_cmd, true, None, inter, noise);
        if let Some(ack) = self.plc.handle_frame(&write_cmd) {
            self.push(out, &ack, false, None, intra, noise);
        }
        let read_cmd = self.master.read_command();
        self.push(out, &read_cmd, true, None, intra, noise);
        if let Some(genuine_resp) = self.plc.handle_frame(&read_cmd) {
            let genuine_state =
                decode_read_response(&genuine_resp).expect("plc read response must decode");
            match attack {
                Some(AttackType::Nmri) => {
                    // Naive response injection: the attacker races the slave
                    // and the master sees a random-valued response instead
                    // of the genuine one.
                    let forged = random_pressure_response(
                        &genuine_state,
                        self.config.physics.max_pressure,
                        &mut self.rng,
                    );
                    let frame = encode_read_response(self.config.slave_address, &forged);
                    // Naive injection tooling corrupts checksums noticeably
                    // more often than line noise does.
                    self.push(out, &frame, false, Some(AttackType::Nmri), intra, 0.25);
                    self.master.observe_pressure(forged.pressure);
                }
                Some(AttackType::Cmri) => {
                    // The genuine response is swallowed and replaced with a
                    // stale measurement pinned at the set point.
                    let forged = stale_pressure_response(&genuine_state, &mut self.rng);
                    let frame = encode_read_response(self.config.slave_address, &forged);
                    self.push(out, &frame, false, Some(AttackType::Cmri), intra, noise);
                    self.master.observe_pressure(forged.pressure);
                }
                _ => {
                    self.push(out, &genuine_resp, false, None, intra, noise);
                    self.master.observe_pressure(genuine_state.pressure);
                }
            }
        }
        let dt = inter + 3.0 * intra;
        self.plc.tick(dt, &mut self.rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_config() -> TrafficConfig {
        TrafficConfig {
            attack_probability: 0.0,
            seed: 1,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn generates_requested_packet_count() {
        let mut g = TrafficGenerator::new(clean_config());
        assert_eq!(g.generate(257).len(), 257);
    }

    #[test]
    fn clean_capture_has_no_attacks() {
        let mut g = TrafficGenerator::new(clean_config());
        let packets = g.generate(2_000);
        assert!(packets.iter().all(|p| !p.is_attack()));
    }

    #[test]
    fn clean_capture_follows_four_packet_cycle() {
        let mut g = TrafficGenerator::new(clean_config());
        let packets = g.generate_cycles(10);
        assert_eq!(packets.len(), 40);
        for chunk in packets.chunks(4) {
            assert!(chunk[0].is_command);
            assert!(!chunk[1].is_command);
            assert!(chunk[2].is_command);
            assert!(!chunk[3].is_command);
        }
    }

    #[test]
    fn timestamps_strictly_increase() {
        let mut g = TrafficGenerator::new(TrafficConfig {
            seed: 3,
            ..TrafficConfig::default()
        });
        let packets = g.generate(3_000);
        for w in packets.windows(2) {
            assert!(w[1].time > w[0].time, "time went backwards");
        }
    }

    #[test]
    fn attack_capture_contains_all_types() {
        let mut g = TrafficGenerator::new(TrafficConfig {
            seed: 5,
            attack_probability: 0.15,
            ..TrafficConfig::default()
        });
        let packets = g.generate(20_000);
        let mut seen = std::collections::HashSet::new();
        for p in &packets {
            if let Some(ty) = p.label {
                seen.insert(ty);
            }
        }
        assert_eq!(seen.len(), 7, "missing attack types: saw {seen:?}");
    }

    #[test]
    fn most_packets_decode_as_frames() {
        let mut g = TrafficGenerator::new(TrafficConfig {
            seed: 7,
            attack_probability: 0.1,
            ..TrafficConfig::default()
        });
        let packets = g.generate(5_000);
        let decodable = packets
            .iter()
            .filter(|p| Frame::decode(&p.wire).is_ok())
            .count();
        // Only line noise and NMRI corruption may fail strict decoding.
        assert!(decodable as f64 > 0.9 * packets.len() as f64);
        // And every packet must decode leniently.
        for p in &packets {
            Frame::decode_lenient(&p.wire).expect("lenient decode");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = TrafficGenerator::new(TrafficConfig {
            seed: 9,
            ..TrafficConfig::default()
        });
        let mut b = TrafficGenerator::new(TrafficConfig {
            seed: 9,
            ..TrafficConfig::default()
        });
        assert_eq!(a.generate(1_000), b.generate(1_000));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TrafficGenerator::new(TrafficConfig {
            seed: 1,
            ..TrafficConfig::default()
        });
        let mut b = TrafficGenerator::new(TrafficConfig {
            seed: 2,
            ..TrafficConfig::default()
        });
        assert_ne!(a.generate(1_000), b.generate(1_000));
    }

    /// `cycles` polling cycles of a clean capture with every fifth cycle
    /// forced to run `attack`.
    fn every_fifth_cycle(seed: u64, attack: AttackType, cycles: usize) -> Vec<Packet> {
        let mut g = TrafficGenerator::new(TrafficConfig {
            seed,
            attack_probability: 0.0,
            ..TrafficConfig::default()
        });
        let mut packets = Vec::new();
        for cycle in 0..cycles {
            g.generate_cycle_forced((cycle % 5 == 0).then_some(attack), &mut packets);
        }
        packets
    }

    #[test]
    fn dos_episodes_stretch_time_gaps() {
        let packets = every_fifth_cycle(11, AttackType::Dos, 500);
        let max_gap = packets
            .windows(2)
            .map(|w| w[1].time - w[0].time)
            .fold(0.0, f64::max);
        assert!(
            max_gap > 2.0,
            "DoS should cause long stalls, max gap {max_gap}"
        );
        assert!(packets.iter().any(|p| p.label == Some(AttackType::Dos)));
    }

    #[test]
    fn mpci_packets_carry_malicious_parameters() {
        let packets = every_fifth_cycle(13, AttackType::Mpci, 1_250);
        let legal_setpoints = [8.0, 10.0, 12.0];
        let mut saw_illegal = false;
        for p in packets
            .iter()
            .filter(|p| p.label == Some(AttackType::Mpci) && p.is_command)
        {
            if let Ok(frame) = Frame::decode(&p.wire) {
                if let Ok(state) = decode_write_command(&frame) {
                    if !legal_setpoints
                        .iter()
                        .any(|&s| (s - state.pid.setpoint).abs() < 1e-6)
                    {
                        saw_illegal = true;
                    }
                }
            }
        }
        assert!(saw_illegal, "MPCI should write illegal setpoints");
    }

    #[test]
    fn recon_probes_foreign_addresses() {
        let packets = every_fifth_cycle(15, AttackType::Recon, 1_250);
        let mut foreign = false;
        for p in packets
            .iter()
            .filter(|p| p.label == Some(AttackType::Recon))
        {
            if let Ok((frame, _)) = Frame::decode_lenient(&p.wire) {
                if frame.address() != 4 {
                    foreign = true;
                }
            }
        }
        assert!(foreign, "recon should sweep foreign addresses");
    }

    #[test]
    fn attack_fraction_tracks_probability() {
        let mut g = TrafficGenerator::new(TrafficConfig {
            seed: 17,
            attack_probability: 0.1,
            ..TrafficConfig::default()
        });
        let packets = g.generate(30_000);
        let attacks = packets.iter().filter(|p| p.is_attack()).count();
        let frac = attacks as f64 / packets.len() as f64;
        // Episodes average ~7 cycles; expect a substantial but minority share.
        assert!(frac > 0.05 && frac < 0.6, "attack fraction {frac}");
    }
}
