//! The slave PLC: register bank, control loop and Modbus server.

use icsad_modbus::pipeline::{self, PipelineState, SystemMode};
use icsad_modbus::{ExceptionCode, Frame, FunctionCode};
use rand_chacha::ChaCha12Rng;

use crate::physics::{PhysicsConfig, PipelinePhysics};
use crate::pid::PidController;

/// The programmable logic controller driving the pipeline.
///
/// The PLC advances the physical process, runs the PID loop (in automatic
/// mode) and answers Modbus requests addressed to it. Write commands
/// reconfigure the controller — which is precisely the attack surface the
/// MSCI/MPCI/MFCI attack classes exploit.
#[derive(Debug, Clone)]
pub struct PipelinePlc {
    address: u8,
    state: PipelineState,
    physics: PipelinePhysics,
    pid: PidController,
}

impl PipelinePlc {
    /// Creates a PLC with the given station address and initial state.
    pub fn new(address: u8, state: PipelineState, physics_config: PhysicsConfig) -> Self {
        let physics = PipelinePhysics::new(physics_config, state.pressure.max(0.0));
        let pid = PidController::new(state.pid);
        PipelinePlc {
            address,
            state,
            physics,
            pid,
        }
    }

    /// Station address.
    pub fn address(&self) -> u8 {
        self.address
    }

    /// Current controller state (including the latest pressure measurement).
    pub fn state(&self) -> &PipelineState {
        &self.state
    }

    /// Advances the process and control loop by `dt` seconds.
    pub fn tick(&mut self, dt: f64, rng: &mut ChaCha12Rng) {
        match self.state.mode {
            SystemMode::Auto => {
                let cmd = self
                    .pid
                    .step(self.physics.pressure(), dt, self.state.scheme);
                self.state.pump_on = cmd.pump_on;
                self.state.solenoid_open = cmd.solenoid_open;
            }
            SystemMode::Manual => {
                // Actuators stay wherever the operator commanded them.
            }
            SystemMode::Off => {
                self.state.pump_on = false;
                self.state.solenoid_open = false;
            }
        }
        let pressure = self
            .physics
            .step(self.state.pump_on, self.state.solenoid_open, dt, rng);
        self.state.pressure = pressure;
    }

    /// Handles a decoded Modbus request frame.
    ///
    /// Returns `None` if the frame is addressed to a different station
    /// (silence on the bus), otherwise the response frame — either a data
    /// response, a write acknowledgement, a slave-id report, or an exception
    /// response for unsupported functions.
    pub fn handle_frame(&mut self, frame: &Frame) -> Option<Frame> {
        if frame.address() != self.address {
            return None;
        }
        match frame.function() {
            FunctionCode::ReadHoldingRegisters => {
                Some(pipeline::encode_read_response(self.address, &self.state))
            }
            FunctionCode::WriteMultipleRegisters => match pipeline::decode_write_command(frame) {
                Ok(new_state) => {
                    self.apply_command(&new_state);
                    Some(pipeline::encode_write_response(self.address))
                }
                Err(_) => Some(self.exception(frame.function(), ExceptionCode::IllegalDataValue)),
            },
            FunctionCode::ReportSlaveId => {
                // Device identification: run indicator + ASCII model id.
                let mut payload = vec![0xFF];
                payload.extend_from_slice(b"GASPIPE-PLC-1");
                Some(Frame::new(
                    self.address,
                    FunctionCode::ReportSlaveId,
                    payload,
                ))
            }
            other => Some(self.exception(other, ExceptionCode::IllegalFunction)),
        }
    }

    fn apply_command(&mut self, commanded: &PipelineState) {
        let pid_changed = commanded.pid != self.state.pid;
        self.state.pid = commanded.pid;
        self.state.mode = commanded.mode;
        self.state.scheme = commanded.scheme;
        if commanded.mode == SystemMode::Manual {
            self.state.pump_on = commanded.pump_on;
            self.state.solenoid_open = commanded.solenoid_open;
        }
        if pid_changed {
            self.pid.reconfigure(commanded.pid);
        }
    }

    fn exception(&self, function: FunctionCode, code: ExceptionCode) -> Frame {
        Frame::new(
            self.address,
            FunctionCode::Other(function.code() | 0x80),
            vec![code.code()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icsad_modbus::pipeline::{encode_read_command, encode_write_command, PidSettings};
    use rand::SeedableRng;

    fn plc() -> PipelinePlc {
        let state = PipelineState {
            pressure: 10.0,
            ..PipelineState::default()
        };
        PipelinePlc::new(4, state, PhysicsConfig::default())
    }

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(11)
    }

    #[test]
    fn answers_read_with_current_state() {
        let mut p = plc();
        let req = encode_read_command(4);
        let resp = p.handle_frame(&req).unwrap();
        let state = pipeline::decode_read_response(&resp).unwrap();
        assert_eq!(state.pid, p.state().pid);
        assert!((state.pressure - 10.0).abs() < 0.01);
    }

    #[test]
    fn ignores_other_addresses() {
        let mut p = plc();
        let req = encode_read_command(9);
        assert!(p.handle_frame(&req).is_none());
    }

    #[test]
    fn write_command_reconfigures_controller() {
        let mut p = plc();
        let mut new_state = *p.state();
        new_state.pid = PidSettings {
            setpoint: 12.0,
            ..new_state.pid
        };
        let req = encode_write_command(4, &new_state);
        let resp = p.handle_frame(&req).unwrap();
        assert_eq!(resp.function(), FunctionCode::WriteMultipleRegisters);
        assert_eq!(p.state().pid.setpoint, 12.0);
    }

    #[test]
    fn manual_mode_obeys_actuator_commands() {
        let mut p = plc();
        let mut cmd = *p.state();
        cmd.mode = SystemMode::Manual;
        cmd.pump_on = true;
        cmd.solenoid_open = true;
        p.handle_frame(&encode_write_command(4, &cmd)).unwrap();
        let mut r = rng();
        p.tick(0.5, &mut r);
        assert!(p.state().pump_on);
        assert!(p.state().solenoid_open);
    }

    #[test]
    fn off_mode_disables_actuators() {
        let mut p = plc();
        let mut cmd = *p.state();
        cmd.mode = SystemMode::Off;
        p.handle_frame(&encode_write_command(4, &cmd)).unwrap();
        let mut r = rng();
        p.tick(0.5, &mut r);
        assert!(!p.state().pump_on);
        assert!(!p.state().solenoid_open);
    }

    #[test]
    fn auto_mode_regulates_pressure() {
        let state = PipelineState {
            pressure: 0.0,
            ..PipelineState::default()
        };
        let mut p = PipelinePlc::new(
            4,
            state,
            PhysicsConfig {
                noise_std: 0.01,
                ..PhysicsConfig::default()
            },
        );
        let mut r = rng();
        for _ in 0..600 {
            p.tick(0.5, &mut r);
        }
        let pr = p.state().pressure;
        assert!(
            (pr - 10.0).abs() < 2.5,
            "pressure {pr} should track setpoint"
        );
    }

    #[test]
    fn unsupported_function_yields_exception() {
        let mut p = plc();
        let req = Frame::new(4, FunctionCode::Diagnostics, vec![0, 0]);
        let resp = p.handle_frame(&req).unwrap();
        assert!(resp.function().code() & 0x80 != 0, "exception bit");
        assert_eq!(resp.payload(), &[ExceptionCode::IllegalFunction.code()]);
    }

    #[test]
    fn report_slave_id_identifies_device() {
        let mut p = plc();
        let req = Frame::new(4, FunctionCode::ReportSlaveId, vec![]);
        let resp = p.handle_frame(&req).unwrap();
        assert_eq!(resp.function(), FunctionCode::ReportSlaveId);
        assert!(resp.payload().len() > 1);
    }

    #[test]
    fn wire_level_round_trip() {
        let mut p = plc();
        let request = Frame::decode(&encode_read_command(4).encode()).unwrap();
        let resp_wire = p.handle_frame(&request).unwrap().encode();
        let resp = Frame::decode(&resp_wire).unwrap();
        assert!(pipeline::decode_read_response(&resp).is_ok());
    }

    #[test]
    fn malformed_write_yields_illegal_data_value() {
        let mut p = plc();
        let req = Frame::new(4, FunctionCode::WriteMultipleRegisters, vec![1, 2, 3]);
        let resp = p.handle_frame(&req).unwrap();
        assert!(resp.function().code() & 0x80 != 0, "exception bit");
        assert_eq!(resp.payload(), &[ExceptionCode::IllegalDataValue.code()]);
    }
}
