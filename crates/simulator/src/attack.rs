//! The AutoIt-style attack injector.
//!
//! Paper Table II defines seven attack types against the gas pipeline. Each
//! is reproduced here with the same observable behaviour:
//!
//! | id | type | reproduction |
//! |---|---|---|
//! | 1 | NMRI | inject response packets reporting uniformly random pressure |
//! | 2 | CMRI | rewrite genuine responses to report a stale set-point pressure, hiding the real process state |
//! | 3 | MSCI | inject commands forcing illegal actuator/mode states (pump+vent, system off, …) |
//! | 4 | MPCI | inject commands with uniformly random PID parameters / set points |
//! | 5 | MFCI | inject frames with illegal or unusual Modbus function codes |
//! | 6 | DoS  | flood read commands and suppress responses, stretching inter-packet gaps |
//! | 7 | Recon | sweep station addresses and issue device-identification reads |

use icsad_modbus::pipeline::{PidSettings, PipelineState, SystemMode};
use icsad_modbus::{Frame, FunctionCode};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::fmt;

/// The seven attack classes of the gas-pipeline dataset (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttackType {
    /// Naive malicious response injection: random response packets.
    Nmri,
    /// Complex malicious response injection: hide the real process state.
    Cmri,
    /// Malicious state command injection.
    Msci,
    /// Malicious parameter command injection.
    Mpci,
    /// Malicious function code command injection.
    Mfci,
    /// Denial of service against the communication link.
    Dos,
    /// Reconnaissance: pretend reading from devices.
    Recon,
}

impl AttackType {
    /// All attack types in dataset id order.
    pub const ALL: [AttackType; 7] = [
        AttackType::Nmri,
        AttackType::Cmri,
        AttackType::Msci,
        AttackType::Mpci,
        AttackType::Mfci,
        AttackType::Dos,
        AttackType::Recon,
    ];

    /// Dataset id (1-based, matching paper Table II).
    pub fn id(self) -> u8 {
        match self {
            AttackType::Nmri => 1,
            AttackType::Cmri => 2,
            AttackType::Msci => 3,
            AttackType::Mpci => 4,
            AttackType::Mfci => 5,
            AttackType::Dos => 6,
            AttackType::Recon => 7,
        }
    }

    /// Short dataset name.
    pub fn name(self) -> &'static str {
        match self {
            AttackType::Nmri => "NMRI",
            AttackType::Cmri => "CMRI",
            AttackType::Msci => "MSCI",
            AttackType::Mpci => "MPCI",
            AttackType::Mfci => "MFCI",
            AttackType::Dos => "DoS",
            AttackType::Recon => "Recon.",
        }
    }

    /// One-line description matching paper Table II.
    pub fn description(self) -> &'static str {
        match self {
            AttackType::Nmri => "Inject random response packets",
            AttackType::Cmri => "Hide the real state of the controlled process",
            AttackType::Msci => "Inject malicious state commands",
            AttackType::Mpci => "Inject malicious parameter commands",
            AttackType::Mfci => "Inject malicious function code commands",
            AttackType::Dos => "Denial of service targetting communication link",
            AttackType::Recon => "Pretend of reading from devices",
        }
    }

    /// Parses the dataset id.
    pub fn from_id(id: u8) -> Option<Self> {
        Self::ALL.get(id.checked_sub(1)? as usize).copied()
    }
}

impl fmt::Display for AttackType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Inclusive range of attack episode lengths, in polling cycles.
const EPISODE_CYCLES: (u32, u32) = (2, 12);

/// Relative frequency of each attack type, indexed by `AttackType::ALL`:
/// uniform.
const WEIGHTS: [f64; 7] = [1.0; 7];

/// Schedules attack episodes over the polling-cycle timeline, mimicking the
/// AutoIt script that "randomly chooses to send legal commands or launch
/// cyber attacks": an episode of a uniformly drawn attack type lasts 2 to 12
/// cycles.
#[derive(Debug, Clone)]
pub struct AttackInjector {
    episode_probability: f64,
    active: Option<(AttackType, u32)>,
}

impl AttackInjector {
    /// Creates an injector that starts an episode at an idle cycle boundary
    /// with probability `episode_probability`.
    pub fn new(episode_probability: f64) -> Self {
        AttackInjector {
            episode_probability,
            active: None,
        }
    }

    /// The attack running in the current cycle, if any.
    pub fn current(&self) -> Option<AttackType> {
        self.active.map(|(t, _)| t)
    }

    /// Advances to the next polling cycle: decrements the running episode or
    /// rolls for a new one. Returns the attack active for this cycle.
    pub fn advance_cycle(&mut self, rng: &mut ChaCha12Rng) -> Option<AttackType> {
        match self.active.take() {
            Some((ty, remaining)) if remaining > 1 => {
                self.active = Some((ty, remaining - 1));
            }
            Some(_) => {
                // Episode ended; the line returns to normal this cycle.
            }
            None => {
                if rng.gen::<f64>() < self.episode_probability {
                    let ty = sample_type(rng);
                    let len = rng.gen_range(EPISODE_CYCLES.0..=EPISODE_CYCLES.1);
                    self.active = Some((ty, len));
                }
            }
        }
        self.current()
    }
}

fn sample_type(rng: &mut ChaCha12Rng) -> AttackType {
    let total: f64 = WEIGHTS.iter().sum();
    let mut roll = rng.gen::<f64>() * total;
    for (ty, &w) in AttackType::ALL.iter().zip(WEIGHTS.iter()) {
        if roll < w {
            return *ty;
        }
        roll -= w;
    }
    AttackType::Recon
}

/// Crafts the NMRI payload: a response with uniformly random pressure.
pub fn random_pressure_response(
    genuine: &PipelineState,
    max_pressure: f64,
    rng: &mut ChaCha12Rng,
) -> PipelineState {
    PipelineState {
        pressure: rng.gen::<f64>() * max_pressure,
        ..*genuine
    }
}

/// Crafts the CMRI payload: a response that hides the real process state by
/// reporting a plausible pressure pinned near the set point.
pub fn stale_pressure_response(genuine: &PipelineState, rng: &mut ChaCha12Rng) -> PipelineState {
    let jitter = (rng.gen::<f64>() - 0.5) * 0.2;
    PipelineState {
        pressure: (genuine.pid.setpoint + jitter).max(0.0),
        ..*genuine
    }
}

/// Crafts an MSCI payload: a command forcing an illegal actuator/mode state.
pub fn malicious_state_command(genuine: &PipelineState, rng: &mut ChaCha12Rng) -> PipelineState {
    let mut cmd = *genuine;
    match rng.gen_range(0..4) {
        0 => {
            // Kill the process outright.
            cmd.mode = SystemMode::Off;
        }
        1 => {
            // Pump and vent simultaneously (wastes compressor, masks flow).
            cmd.mode = SystemMode::Manual;
            cmd.pump_on = true;
            cmd.solenoid_open = true;
        }
        2 => {
            // Run the pump unbounded.
            cmd.mode = SystemMode::Manual;
            cmd.pump_on = true;
            cmd.solenoid_open = false;
        }
        _ => {
            // Vent everything.
            cmd.mode = SystemMode::Manual;
            cmd.pump_on = false;
            cmd.solenoid_open = true;
        }
    }
    cmd
}

/// Crafts an MPCI payload: a command with uniformly random parameters.
pub fn malicious_parameter_command(
    genuine: &PipelineState,
    rng: &mut ChaCha12Rng,
) -> PipelineState {
    let mut cmd = *genuine;
    match rng.gen_range(0..3) {
        0 => {
            cmd.pid.setpoint = rng.gen::<f64>() * 25.0;
        }
        1 => {
            cmd.pid = PidSettings {
                gain: rng.gen::<f64>() * 50.0,
                reset_rate: rng.gen::<f64>() * 50.0,
                rate: rng.gen::<f64>() * 10.0,
                ..cmd.pid
            };
        }
        _ => {
            cmd.pid = PidSettings {
                deadband: rng.gen::<f64>() * 20.0,
                cycle_time: rng.gen::<f64>() * 20.0,
                ..cmd.pid
            };
        }
    }
    cmd
}

/// Crafts an MFCI frame: an illegal or unusual function code request.
pub fn malicious_function_frame(slave: u8, rng: &mut ChaCha12Rng) -> Frame {
    let code = match rng.gen_range(0..3) {
        // Force-listen-only diagnostics: severs the master from the slave.
        0 => FunctionCode::Diagnostics,
        1 => FunctionCode::Other(0x5B),
        _ => FunctionCode::Other(0x63),
    };
    Frame::new(slave, code, vec![0x00, 0x04])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(17)
    }

    #[test]
    fn ids_match_table_ii() {
        assert_eq!(AttackType::Nmri.id(), 1);
        assert_eq!(AttackType::Recon.id(), 7);
        for ty in AttackType::ALL {
            assert_eq!(AttackType::from_id(ty.id()), Some(ty));
        }
        assert_eq!(AttackType::from_id(0), None);
        assert_eq!(AttackType::from_id(8), None);
    }

    #[test]
    fn names_and_descriptions_nonempty() {
        for ty in AttackType::ALL {
            assert!(!ty.name().is_empty());
            assert!(!ty.description().is_empty());
            assert_eq!(ty.to_string(), ty.name());
        }
    }

    #[test]
    fn injector_produces_episodes() {
        let mut inj = AttackInjector::new(0.2);
        let mut r = rng();
        let mut attack_cycles = 0;
        for _ in 0..2_000 {
            if inj.advance_cycle(&mut r).is_some() {
                attack_cycles += 1;
            }
        }
        assert!(attack_cycles > 100, "only {attack_cycles} attack cycles");
        assert!(attack_cycles < 1_900, "attacks should not dominate");
    }

    #[test]
    fn episodes_have_bounded_length() {
        let mut inj = AttackInjector::new(1.0);
        let mut r = rng();
        // Every idle cycle starts an episode, so episodes are separated by
        // exactly one normal cycle; each keeps one type for 2 to 12 cycles.
        let (mut run, mut first) = (0, None);
        let mut episodes = 0;
        for _ in 0..2_000 {
            match inj.advance_cycle(&mut r) {
                Some(ty) => {
                    assert_eq!(*first.get_or_insert(ty), ty, "type changed mid-episode");
                    run += 1;
                }
                None => {
                    assert!((2..=12).contains(&run), "episode of {run} cycles");
                    (run, first) = (0, None);
                    episodes += 1;
                }
            }
        }
        assert!(episodes > 100);
    }

    #[test]
    fn zero_probability_never_attacks() {
        let mut inj = AttackInjector::new(0.0);
        let mut r = rng();
        for _ in 0..500 {
            assert_eq!(inj.advance_cycle(&mut r), None);
        }
    }

    #[test]
    fn all_types_sampled_with_uniform_weights() {
        let mut inj = AttackInjector::new(1.0);
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            if let Some(ty) = inj.advance_cycle(&mut r) {
                seen.insert(ty);
            }
        }
        assert_eq!(seen.len(), 7, "saw only {seen:?}");
    }

    #[test]
    fn nmri_pressure_in_range() {
        let genuine = PipelineState::default();
        let mut r = rng();
        for _ in 0..100 {
            let forged = random_pressure_response(&genuine, 30.0, &mut r);
            assert!((0.0..=30.0).contains(&forged.pressure));
            assert_eq!(forged.pid, genuine.pid);
        }
    }

    #[test]
    fn cmri_reports_near_setpoint() {
        let genuine = PipelineState {
            pressure: 25.0, // real process way off
            ..PipelineState::default()
        };
        let mut r = rng();
        let forged = stale_pressure_response(&genuine, &mut r);
        assert!((forged.pressure - genuine.pid.setpoint).abs() < 0.2);
    }

    #[test]
    fn msci_produces_illegal_states() {
        let genuine = PipelineState::default();
        let mut r = rng();
        let mut variants = std::collections::HashSet::new();
        for _ in 0..100 {
            let cmd = malicious_state_command(&genuine, &mut r);
            assert!(
                cmd.mode != SystemMode::Auto || !cmd.pump_on,
                "msci must not look like normal auto operation"
            );
            variants.insert((cmd.mode.code(), cmd.pump_on, cmd.solenoid_open));
        }
        assert!(variants.len() >= 3, "expected varied state attacks");
    }

    #[test]
    fn mpci_changes_parameters() {
        let genuine = PipelineState::default();
        let mut r = rng();
        let mut changed = 0;
        for _ in 0..100 {
            let cmd = malicious_parameter_command(&genuine, &mut r);
            if cmd.pid != genuine.pid {
                changed += 1;
            }
        }
        assert!(
            changed > 90,
            "parameters changed in only {changed}/100 cases"
        );
    }

    #[test]
    fn mfci_uses_unusual_function_codes() {
        let mut r = rng();
        for _ in 0..50 {
            let f = malicious_function_frame(4, &mut r);
            assert!(!matches!(
                f.function(),
                FunctionCode::ReadHoldingRegisters | FunctionCode::WriteMultipleRegisters
            ));
        }
    }
}
