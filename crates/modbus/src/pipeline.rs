//! Gas-pipeline payload codec: maps the PID controller settings, operating
//! mode, actuator states and the pressure measurement onto Modbus holding
//! registers, and builds the command/response frames exchanged between the
//! SCADA master and the pipeline PLC.
//!
//! The register layout mirrors the feature list of the Morris et al. dataset
//! (paper Table I): every feature the detectors consume is observable on the
//! wire.
//!
//! | register | content | encoding |
//! |---|---|---|
//! | 0 | setpoint | fixed point ×100 |
//! | 1 | PID gain | fixed point ×100 |
//! | 2 | PID reset rate | fixed point ×100 |
//! | 3 | PID deadband | fixed point ×100 |
//! | 4 | PID cycle time | fixed point ×100 |
//! | 5 | PID rate | fixed point ×100 |
//! | 6 | system mode | 0 = off, 1 = manual, 2 = auto |
//! | 7 | control scheme | 0 = pump, 1 = solenoid |
//! | 8 | pump | 0 = off, 1 = on |
//! | 9 | solenoid | 0 = closed, 1 = open |
//! | 10 | pressure | fixed point ×100 |

use std::error::Error;
use std::fmt;

use crate::frame::Frame;
use crate::function::FunctionCode;

/// Number of holding registers in the pipeline register bank.
pub const REGISTER_COUNT: u16 = 11;
/// Fixed-point scaling factor for continuous values.
pub const SCALE: f64 = 100.0;

/// Operating mode of the pipeline controller (dataset feature `system mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SystemMode {
    /// System switched off.
    Off,
    /// Manual actuator control (pump/solenoid driven by the operator).
    Manual,
    /// Automatic PID control (the usual mode).
    #[default]
    Auto,
}

impl SystemMode {
    /// Dataset encoding: off = 0, manual = 1, automatic = 2.
    pub fn code(self) -> u16 {
        match self {
            SystemMode::Off => 0,
            SystemMode::Manual => 1,
            SystemMode::Auto => 2,
        }
    }

    /// Decodes the dataset encoding; unknown values map to `None`.
    pub fn from_code(code: u16) -> Option<Self> {
        match code {
            0 => Some(SystemMode::Off),
            1 => Some(SystemMode::Manual),
            2 => Some(SystemMode::Auto),
            _ => None,
        }
    }
}

/// Which actuator the PID loop drives (dataset feature `control scheme`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ControlScheme {
    /// The compressor pump maintains pressure.
    #[default]
    Pump,
    /// The solenoid relief valve maintains pressure.
    Solenoid,
}

impl ControlScheme {
    /// Dataset encoding: pump = 0, solenoid = 1.
    pub fn code(self) -> u16 {
        match self {
            ControlScheme::Pump => 0,
            ControlScheme::Solenoid => 1,
        }
    }

    /// Decodes the dataset encoding; unknown values map to `None`.
    pub fn from_code(code: u16) -> Option<Self> {
        match code {
            0 => Some(ControlScheme::Pump),
            1 => Some(ControlScheme::Solenoid),
            _ => None,
        }
    }
}

/// The six PID controller parameters carried in every command package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidSettings {
    /// Pressure set point for automatic mode (PSI).
    pub setpoint: f64,
    /// Proportional gain.
    pub gain: f64,
    /// Integral reset rate.
    pub reset_rate: f64,
    /// Dead band around the set point.
    pub deadband: f64,
    /// Controller cycle time.
    pub cycle_time: f64,
    /// Derivative rate.
    pub rate: f64,
}

impl Default for PidSettings {
    fn default() -> Self {
        // Plausible operating point for the laboratory gas pipeline.
        PidSettings {
            setpoint: 10.0,
            gain: 4.0,
            reset_rate: 2.0,
            deadband: 1.0,
            cycle_time: 1.0,
            rate: 0.2,
        }
    }
}

/// Full controller state written by a command package and echoed (plus
/// pressure) by a response package.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineState {
    /// PID parameters.
    pub pid: PidSettings,
    /// Operating mode.
    pub mode: SystemMode,
    /// Actuator selection.
    pub scheme: ControlScheme,
    /// Pump state (meaningful in manual mode).
    pub pump_on: bool,
    /// Solenoid state (meaningful in manual mode).
    pub solenoid_open: bool,
    /// Latest pressure measurement (PSI).
    pub pressure: f64,
}

/// Errors produced when decoding pipeline payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PayloadError {
    /// The payload length does not match the expected layout.
    BadLength {
        /// Expected payload length in bytes.
        expected: usize,
        /// Observed payload length in bytes.
        got: usize,
    },
    /// A register held a value outside its enum domain.
    BadValue {
        /// Register address of the offending value.
        register: u16,
        /// Observed raw value.
        value: u16,
    },
    /// The frame carried an unexpected function code.
    UnexpectedFunction {
        /// Observed function code.
        got: FunctionCode,
    },
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadError::BadLength { expected, got } => {
                write!(f, "bad payload length: expected {expected}, got {got}")
            }
            PayloadError::BadValue { register, value } => {
                write!(f, "register {register} holds out-of-domain value {value}")
            }
            PayloadError::UnexpectedFunction { got } => {
                write!(f, "unexpected function code {got}")
            }
        }
    }
}

impl Error for PayloadError {}

fn to_fixed(v: f64) -> u16 {
    (v * SCALE).round().clamp(0.0, f64::from(u16::MAX)) as u16
}

fn from_fixed(raw: u16) -> f64 {
    f64::from(raw) / SCALE
}

/// Encodes the state into the 11-register bank image.
pub fn state_to_registers(state: &PipelineState) -> [u16; REGISTER_COUNT as usize] {
    [
        to_fixed(state.pid.setpoint),
        to_fixed(state.pid.gain),
        to_fixed(state.pid.reset_rate),
        to_fixed(state.pid.deadband),
        to_fixed(state.pid.cycle_time),
        to_fixed(state.pid.rate),
        state.mode.code(),
        state.scheme.code(),
        u16::from(state.pump_on),
        u16::from(state.solenoid_open),
        to_fixed(state.pressure),
    ]
}

/// Decodes an 11-register bank image back into a state.
///
/// # Errors
///
/// Returns [`PayloadError::BadValue`] for out-of-domain mode/scheme/actuator
/// registers.
pub fn state_from_registers(regs: &[u16]) -> Result<PipelineState, PayloadError> {
    if regs.len() != REGISTER_COUNT as usize {
        return Err(PayloadError::BadLength {
            expected: REGISTER_COUNT as usize,
            got: regs.len(),
        });
    }
    let mode = SystemMode::from_code(regs[6]).ok_or(PayloadError::BadValue {
        register: 6,
        value: regs[6],
    })?;
    let scheme = ControlScheme::from_code(regs[7]).ok_or(PayloadError::BadValue {
        register: 7,
        value: regs[7],
    })?;
    let bool_reg = |addr: usize| -> Result<bool, PayloadError> {
        match regs[addr] {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(PayloadError::BadValue {
                register: addr as u16,
                value: v,
            }),
        }
    };
    Ok(PipelineState {
        pid: PidSettings {
            setpoint: from_fixed(regs[0]),
            gain: from_fixed(regs[1]),
            reset_rate: from_fixed(regs[2]),
            deadband: from_fixed(regs[3]),
            cycle_time: from_fixed(regs[4]),
            rate: from_fixed(regs[5]),
        },
        mode,
        scheme,
        pump_on: bool_reg(8)?,
        solenoid_open: bool_reg(9)?,
        pressure: from_fixed(regs[10]),
    })
}

/// Builds the master's *write command* frame: a `WriteMultipleRegisters`
/// request carrying the full controller state (registers 0..=9; pressure is
/// read-only and excluded).
pub fn encode_write_command(slave: u8, state: &PipelineState) -> Frame {
    let regs = state_to_registers(state);
    let count = (REGISTER_COUNT - 1) as usize; // exclude pressure
    let mut payload = Vec::with_capacity(5 + 2 * count);
    payload.extend_from_slice(&0u16.to_be_bytes()); // start address
    payload.extend_from_slice(&(count as u16).to_be_bytes());
    payload.push((2 * count) as u8);
    for reg in &regs[..count] {
        payload.extend_from_slice(&reg.to_be_bytes());
    }
    Frame::new(slave, FunctionCode::WriteMultipleRegisters, payload)
}

/// Builds the master's *read command* frame polling all registers.
pub fn encode_read_command(slave: u8) -> Frame {
    let mut payload = Vec::with_capacity(4);
    payload.extend_from_slice(&0u16.to_be_bytes());
    payload.extend_from_slice(&REGISTER_COUNT.to_be_bytes());
    Frame::new(slave, FunctionCode::ReadHoldingRegisters, payload)
}

/// Builds the slave's *read response* frame carrying the full state image.
pub fn encode_read_response(slave: u8, state: &PipelineState) -> Frame {
    let regs = state_to_registers(state);
    let mut payload = Vec::with_capacity(1 + 2 * regs.len());
    payload.push((2 * regs.len()) as u8);
    for reg in &regs {
        payload.extend_from_slice(&reg.to_be_bytes());
    }
    Frame::new(slave, FunctionCode::ReadHoldingRegisters, payload)
}

/// Builds the slave's *write acknowledgement* frame (echoes address/count).
pub fn encode_write_response(slave: u8) -> Frame {
    let mut payload = Vec::with_capacity(4);
    payload.extend_from_slice(&0u16.to_be_bytes());
    payload.extend_from_slice(&(REGISTER_COUNT - 1).to_be_bytes());
    Frame::new(slave, FunctionCode::WriteMultipleRegisters, payload)
}

/// Decodes the state carried by a *write command* frame.
///
/// # Errors
///
/// Returns [`PayloadError`] if the frame is not a well-formed pipeline write
/// command. The decoded state has `pressure == 0.0` (commands do not carry a
/// measurement).
pub fn decode_write_command(frame: &Frame) -> Result<PipelineState, PayloadError> {
    decode_write_command_parts(frame.function(), frame.payload())
}

/// Decodes a *write command* from its function code and payload bytes — the
/// borrowed-frame ([`crate::FrameView`]) twin of [`decode_write_command`],
/// allocation-free end to end.
///
/// # Errors
///
/// See [`decode_write_command`].
pub fn decode_write_command_parts(
    function: FunctionCode,
    payload: &[u8],
) -> Result<PipelineState, PayloadError> {
    if function != FunctionCode::WriteMultipleRegisters {
        return Err(PayloadError::UnexpectedFunction { got: function });
    }
    let count = (REGISTER_COUNT - 1) as usize;
    let expected = 5 + 2 * count;
    if payload.len() != expected {
        return Err(PayloadError::BadLength {
            expected,
            got: payload.len(),
        });
    }
    let mut regs = [0u16; REGISTER_COUNT as usize];
    for (i, chunk) in payload[5..].chunks_exact(2).enumerate() {
        regs[i] = u16::from_be_bytes([chunk[0], chunk[1]]);
    }
    state_from_registers(&regs)
}

/// Decodes the state carried by a *read response* frame.
///
/// # Errors
///
/// Returns [`PayloadError`] if the frame is not a well-formed pipeline read
/// response.
pub fn decode_read_response(frame: &Frame) -> Result<PipelineState, PayloadError> {
    decode_read_response_parts(frame.function(), frame.payload())
}

/// Decodes a *read response* from its function code and payload bytes — the
/// borrowed-frame ([`crate::FrameView`]) twin of [`decode_read_response`],
/// allocation-free end to end.
///
/// # Errors
///
/// See [`decode_read_response`].
pub fn decode_read_response_parts(
    function: FunctionCode,
    payload: &[u8],
) -> Result<PipelineState, PayloadError> {
    if function != FunctionCode::ReadHoldingRegisters {
        return Err(PayloadError::UnexpectedFunction { got: function });
    }
    let expected = 1 + 2 * REGISTER_COUNT as usize;
    if payload.len() != expected {
        return Err(PayloadError::BadLength {
            expected,
            got: payload.len(),
        });
    }
    let mut regs = [0u16; REGISTER_COUNT as usize];
    for (i, chunk) in payload[1..].chunks_exact(2).enumerate() {
        regs[i] = u16::from_be_bytes([chunk[0], chunk[1]]);
    }
    state_from_registers(&regs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> PipelineState {
        PipelineState {
            pid: PidSettings {
                setpoint: 10.0,
                gain: 4.25,
                reset_rate: 2.5,
                deadband: 1.0,
                cycle_time: 1.5,
                rate: 0.2,
            },
            mode: SystemMode::Auto,
            scheme: ControlScheme::Pump,
            pump_on: true,
            solenoid_open: false,
            pressure: 9.87,
        }
    }

    #[test]
    fn register_round_trip_preserves_state() {
        let state = sample_state();
        let regs = state_to_registers(&state);
        let back = state_from_registers(&regs).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn fixed_point_quantizes_to_hundredths() {
        let mut state = sample_state();
        state.pressure = 3.17159;
        let back = state_from_registers(&state_to_registers(&state)).unwrap();
        assert!((back.pressure - 3.17).abs() < 1e-9);
    }

    #[test]
    fn fixed_point_clamps_out_of_range() {
        // The pressure's register address (the module table's last row).
        const PRESSURE_REGISTER: usize = 10;
        let mut state = sample_state();
        state.pressure = -5.0;
        let regs = state_to_registers(&state);
        assert_eq!(regs[PRESSURE_REGISTER], 0);
        state.pressure = 1e9;
        let regs = state_to_registers(&state);
        assert_eq!(regs[PRESSURE_REGISTER], u16::MAX);
    }

    #[test]
    fn mode_and_scheme_codes_match_dataset() {
        assert_eq!(SystemMode::Off.code(), 0);
        assert_eq!(SystemMode::Manual.code(), 1);
        assert_eq!(SystemMode::Auto.code(), 2);
        assert_eq!(ControlScheme::Pump.code(), 0);
        assert_eq!(ControlScheme::Solenoid.code(), 1);
        assert_eq!(SystemMode::from_code(3), None);
        assert_eq!(ControlScheme::from_code(2), None);
    }

    #[test]
    fn write_command_round_trip() {
        let state = sample_state();
        let frame = encode_write_command(4, &state);
        assert_eq!(frame.function(), FunctionCode::WriteMultipleRegisters);
        let decoded = decode_write_command(&frame).unwrap();
        // Commands do not carry pressure.
        let mut expected = state;
        expected.pressure = 0.0;
        assert_eq!(decoded, expected);
    }

    #[test]
    fn read_response_round_trip() {
        let state = sample_state();
        let frame = encode_read_response(4, &state);
        let decoded = decode_read_response(&frame).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn read_command_shape() {
        let frame = encode_read_command(4);
        assert_eq!(frame.function(), FunctionCode::ReadHoldingRegisters);
        assert_eq!(frame.payload().len(), 4);
        assert_eq!(frame.address(), 4);
    }

    #[test]
    fn write_response_shape() {
        let frame = encode_write_response(4);
        assert_eq!(frame.function(), FunctionCode::WriteMultipleRegisters);
        assert_eq!(frame.payload().len(), 4);
    }

    #[test]
    fn decode_rejects_wrong_function() {
        let state = sample_state();
        let frame = encode_read_response(4, &state);
        assert!(matches!(
            decode_write_command(&frame),
            Err(PayloadError::UnexpectedFunction { .. })
        ));
        let frame = encode_write_command(4, &state);
        assert!(matches!(
            decode_read_response(&frame),
            Err(PayloadError::UnexpectedFunction { .. })
        ));
    }

    #[test]
    fn decode_rejects_bad_length() {
        let frame = Frame::new(4, FunctionCode::ReadHoldingRegisters, vec![1, 2, 3]);
        assert!(matches!(
            decode_read_response(&frame),
            Err(PayloadError::BadLength { .. })
        ));
    }

    #[test]
    fn decode_rejects_out_of_domain_mode() {
        let mut regs = state_to_registers(&sample_state());
        regs[6] = 9;
        assert!(matches!(
            state_from_registers(&regs),
            Err(PayloadError::BadValue {
                register: 6,
                value: 9
            })
        ));
    }

    #[test]
    fn decode_rejects_out_of_domain_actuator() {
        let mut regs = state_to_registers(&sample_state());
        regs[8] = 7;
        assert!(state_from_registers(&regs).is_err());
    }

    #[test]
    fn full_wire_round_trip_through_frames() {
        // command frame -> wire bytes -> decode -> payload decode
        let state = sample_state();
        let wire = encode_write_command(4, &state).encode();
        let frame = Frame::decode(&wire).unwrap();
        let decoded = decode_write_command(&frame).unwrap();
        assert_eq!(decoded.pid, state.pid);
    }

    #[test]
    fn error_display_messages() {
        let e = PayloadError::BadLength {
            expected: 23,
            got: 4,
        };
        assert!(e.to_string().contains("23"));
        let e = PayloadError::BadValue {
            register: 6,
            value: 9,
        };
        assert!(e.to_string().contains("register 6"));
    }
}
