//! The SCADA master: polling cycle and operator model.
//!
//! Normal gas-pipeline traffic is a strict 4-package cycle (paper §VIII-C
//! uses this structure for the windowed baselines):
//!
//! 1. write command — the master pushes the full controller configuration,
//! 2. write response — the PLC acknowledges,
//! 3. read command — the master polls the register bank,
//! 4. read response — the PLC reports state incl. the pressure measurement.
//!
//! On top of the cycle sits an *operator model* that occasionally performs
//! legal configuration changes (new set point, new PID preset, a manual
//! episode with hand-driven pump/solenoid, a control-scheme change). These
//! legal changes give the signature database its breadth and the LSTM its
//! temporal structure.

use icsad_modbus::pipeline::{
    encode_read_command, encode_write_command, ControlScheme, PidSettings, PipelineState,
    SystemMode,
};
use icsad_modbus::Frame;
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// Parameters of the operator behaviour model.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorConfig {
    /// Legal pressure set points the operator cycles between (PSI).
    pub setpoints: Vec<f64>,
    /// Legal PID presets the operator chooses between.
    pub pid_presets: Vec<PidSettings>,
    /// Mean number of polling cycles between operator actions (geometric).
    pub mean_cycles_between_changes: f64,
    /// Probability that an operator action starts a manual-control episode.
    pub manual_episode_probability: f64,
    /// Inclusive range of manual episode lengths, in polling cycles.
    pub manual_episode_cycles: (u32, u32),
    /// Probability that an operator action switches to the solenoid control
    /// scheme (otherwise the pump scheme is restored).
    pub solenoid_scheme_probability: f64,
}

impl Default for OperatorConfig {
    fn default() -> Self {
        let base = PidSettings::default();
        OperatorConfig {
            setpoints: vec![8.0, 10.0, 12.0],
            pid_presets: vec![
                base,
                PidSettings {
                    gain: 6.0,
                    reset_rate: 1.0,
                    ..base
                },
                PidSettings {
                    gain: 2.0,
                    reset_rate: 4.0,
                    rate: 0.5,
                    ..base
                },
                PidSettings {
                    deadband: 2.0,
                    cycle_time: 2.0,
                    ..base
                },
            ],
            mean_cycles_between_changes: 60.0,
            manual_episode_probability: 0.15,
            solenoid_scheme_probability: 0.1,
            manual_episode_cycles: (5, 20),
        }
    }
}

/// The SCADA master issuing the command–response polling cycle.
#[derive(Debug, Clone)]
pub struct ScadaMaster {
    slave: u8,
    config: OperatorConfig,
    /// The configuration image the master currently writes each cycle.
    command: PipelineState,
    /// Cycles remaining in the current manual episode (0 = automatic).
    manual_cycles_left: u32,
    /// Last pressure reported by the PLC (drives manual-mode decisions).
    last_pressure: f64,
}

impl ScadaMaster {
    /// Creates a master polling the given slave address.
    ///
    /// # Panics
    ///
    /// Panics if the operator model has no set points or PID presets.
    pub fn new(slave: u8, config: OperatorConfig) -> Self {
        assert!(
            !config.setpoints.is_empty() && !config.pid_presets.is_empty(),
            "operator model needs at least one setpoint and one pid preset"
        );
        let command = PipelineState {
            pid: PidSettings {
                setpoint: config.setpoints[0],
                ..config.pid_presets[0]
            },
            mode: SystemMode::Auto,
            scheme: ControlScheme::Pump,
            pump_on: false,
            solenoid_open: false,
            pressure: 0.0,
        };
        ScadaMaster {
            slave,
            config,
            command,
            manual_cycles_left: 0,
            last_pressure: 0.0,
        }
    }

    /// Slave station address this master polls.
    pub fn slave(&self) -> u8 {
        self.slave
    }

    /// The configuration image currently being written each cycle.
    pub fn command_state(&self) -> &PipelineState {
        &self.command
    }

    /// Starts a new polling cycle: runs the operator model and returns the
    /// write-command frame.
    pub fn begin_cycle(&mut self, rng: &mut ChaCha12Rng) -> Frame {
        self.operator_step(rng);
        if self.command.mode == SystemMode::Manual {
            self.manual_regulation();
        }
        encode_write_command(self.slave, &self.command)
    }

    /// Returns the read-command (poll) frame for the second half of a cycle.
    pub fn read_command(&self) -> Frame {
        encode_read_command(self.slave)
    }

    /// Feeds the pressure reported in a read response back into the operator
    /// model (used for manual-mode regulation).
    pub fn observe_pressure(&mut self, pressure: f64) {
        self.last_pressure = pressure;
    }

    /// One step of the operator model: with probability
    /// `1 / mean_cycles_between_changes` perform a legal action.
    fn operator_step(&mut self, rng: &mut ChaCha12Rng) {
        if self.manual_cycles_left > 0 {
            self.manual_cycles_left -= 1;
            if self.manual_cycles_left == 0 {
                self.command.mode = SystemMode::Auto;
                self.command.pump_on = false;
                self.command.solenoid_open = false;
            }
            return;
        }
        let p_action = 1.0 / self.config.mean_cycles_between_changes.max(1.0);
        if rng.gen::<f64>() >= p_action {
            return;
        }
        // Choose one legal operator action.
        let roll: f64 = rng.gen();
        if roll < self.config.manual_episode_probability {
            let (lo, hi) = self.config.manual_episode_cycles;
            self.manual_cycles_left = rng.gen_range(lo..=hi.max(lo));
            self.command.mode = SystemMode::Manual;
        } else if roll
            < self.config.manual_episode_probability + self.config.solenoid_scheme_probability
        {
            self.command.scheme = match self.command.scheme {
                ControlScheme::Pump => ControlScheme::Solenoid,
                ControlScheme::Solenoid => ControlScheme::Pump,
            };
        } else if roll < 0.6 {
            let sp = self.config.setpoints[rng.gen_range(0..self.config.setpoints.len())];
            self.command.pid.setpoint = sp;
        } else {
            let preset = self.config.pid_presets[rng.gen_range(0..self.config.pid_presets.len())];
            self.command.pid = PidSettings {
                setpoint: self.command.pid.setpoint,
                ..preset
            };
        }
    }

    /// Crude human bang-bang regulation used during manual episodes.
    fn manual_regulation(&mut self) {
        let sp = self.command.pid.setpoint;
        if self.last_pressure < sp - 0.5 {
            self.command.pump_on = true;
            self.command.solenoid_open = false;
        } else if self.last_pressure > sp + 0.5 {
            self.command.pump_on = false;
            self.command.solenoid_open = true;
        } else {
            self.command.pump_on = false;
            self.command.solenoid_open = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icsad_modbus::pipeline::decode_write_command;
    use icsad_modbus::FunctionCode;
    use rand::SeedableRng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(5)
    }

    #[test]
    fn cycle_frames_have_expected_shape() {
        let mut m = ScadaMaster::new(4, OperatorConfig::default());
        let mut r = rng();
        let w = m.begin_cycle(&mut r);
        assert_eq!(w.function(), FunctionCode::WriteMultipleRegisters);
        assert_eq!(w.address(), 4);
        let rd = m.read_command();
        assert_eq!(rd.function(), FunctionCode::ReadHoldingRegisters);
    }

    #[test]
    fn command_reflects_operator_state() {
        let mut m = ScadaMaster::new(4, OperatorConfig::default());
        let mut r = rng();
        let w = m.begin_cycle(&mut r);
        let decoded = decode_write_command(&w).unwrap();
        assert_eq!(decoded.pid.setpoint, m.command_state().pid.setpoint);
    }

    #[test]
    fn operator_eventually_changes_configuration() {
        let mut m = ScadaMaster::new(4, OperatorConfig::default());
        let mut r = rng();
        let initial = *m.command_state();
        let mut changed = false;
        for _ in 0..2_000 {
            let _ = m.begin_cycle(&mut r);
            let c = m.command_state();
            if c.pid != initial.pid || c.mode != initial.mode || c.scheme != initial.scheme {
                changed = true;
                break;
            }
        }
        assert!(changed, "operator model never acted in 2000 cycles");
    }

    #[test]
    fn setpoints_stay_in_legal_set() {
        let cfg = OperatorConfig::default();
        let legal = cfg.setpoints.clone();
        let mut m = ScadaMaster::new(4, cfg);
        let mut r = rng();
        for _ in 0..2_000 {
            let _ = m.begin_cycle(&mut r);
            let sp = m.command_state().pid.setpoint;
            assert!(
                legal.iter().any(|&s| (s - sp).abs() < 1e-9),
                "illegal setpoint {sp}"
            );
        }
    }

    #[test]
    fn manual_episodes_start_and_end() {
        let cfg = OperatorConfig {
            mean_cycles_between_changes: 2.0,
            manual_episode_probability: 0.9,
            manual_episode_cycles: (3, 5),
            ..OperatorConfig::default()
        };
        let mut m = ScadaMaster::new(4, cfg);
        let mut r = rng();
        let mut saw_manual = false;
        let mut saw_auto_after = false;
        for _ in 0..500 {
            let _ = m.begin_cycle(&mut r);
            if m.manual_cycles_left > 0 {
                saw_manual = true;
                assert_eq!(m.command_state().mode, SystemMode::Manual);
            } else if saw_manual && m.command_state().mode == SystemMode::Auto {
                saw_auto_after = true;
                break;
            }
        }
        assert!(saw_manual && saw_auto_after);
    }

    #[test]
    fn manual_regulation_tracks_pressure() {
        let cfg = OperatorConfig {
            mean_cycles_between_changes: 1.0,
            manual_episode_probability: 1.0,
            manual_episode_cycles: (50, 50),
            ..OperatorConfig::default()
        };
        let mut m = ScadaMaster::new(4, cfg);
        let mut r = rng();
        // Enter manual episode.
        while m.manual_cycles_left == 0 {
            let _ = m.begin_cycle(&mut r);
        }
        m.observe_pressure(0.0); // far below setpoint
        let _ = m.begin_cycle(&mut r);
        assert!(m.command_state().pump_on);
        m.observe_pressure(100.0); // far above setpoint
        let _ = m.begin_cycle(&mut r);
        assert!(m.command_state().solenoid_open);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = ScadaMaster::new(4, OperatorConfig::default());
        let mut b = ScadaMaster::new(4, OperatorConfig::default());
        let mut ra = rng();
        let mut rb = rng();
        for _ in 0..200 {
            assert_eq!(a.begin_cycle(&mut ra), b.begin_cycle(&mut rb));
        }
    }

    #[test]
    #[should_panic(expected = "operator model needs")]
    fn empty_operator_model_panics() {
        ScadaMaster::new(
            4,
            OperatorConfig {
                setpoints: vec![],
                ..OperatorConfig::default()
            },
        );
    }
}
