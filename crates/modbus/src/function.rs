//! Modbus application-layer function and exception codes.

use std::fmt;

/// Modbus function codes used by the gas-pipeline SCADA system plus the
/// common public codes.
///
/// Unknown or vendor-specific codes round-trip through
/// [`FunctionCode::Other`]; the MFCI attack of the paper (malicious function
/// code injection) produces exactly such frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FunctionCode {
    /// 0x01 — read coils.
    ReadCoils,
    /// 0x02 — read discrete inputs.
    ReadDiscreteInputs,
    /// 0x03 — read holding registers (the gas-pipeline poll command).
    ReadHoldingRegisters,
    /// 0x04 — read input registers.
    ReadInputRegisters,
    /// 0x05 — write single coil.
    WriteSingleCoil,
    /// 0x06 — write single register.
    WriteSingleRegister,
    /// 0x07 — read exception status.
    ReadExceptionStatus,
    /// 0x08 — diagnostics (sub-function coded in the payload); used by the
    /// DoS attack (force-listen-only sub-function).
    Diagnostics,
    /// 0x0F — write multiple coils.
    WriteMultipleCoils,
    /// 0x10 — write multiple registers (the gas-pipeline control command).
    WriteMultipleRegisters,
    /// 0x11 — report slave id; used by the reconnaissance attack.
    ReportSlaveId,
    /// 0x2B — encapsulated interface transport (device identification).
    ReadDeviceIdentification,
    /// Any other (possibly invalid) function code.
    Other(u8),
}

impl FunctionCode {
    /// The raw wire value.
    pub fn code(self) -> u8 {
        match self {
            FunctionCode::ReadCoils => 0x01,
            FunctionCode::ReadDiscreteInputs => 0x02,
            FunctionCode::ReadHoldingRegisters => 0x03,
            FunctionCode::ReadInputRegisters => 0x04,
            FunctionCode::WriteSingleCoil => 0x05,
            FunctionCode::WriteSingleRegister => 0x06,
            FunctionCode::ReadExceptionStatus => 0x07,
            FunctionCode::Diagnostics => 0x08,
            FunctionCode::WriteMultipleCoils => 0x0F,
            FunctionCode::WriteMultipleRegisters => 0x10,
            FunctionCode::ReportSlaveId => 0x11,
            FunctionCode::ReadDeviceIdentification => 0x2B,
            FunctionCode::Other(c) => c,
        }
    }
}

impl From<u8> for FunctionCode {
    fn from(code: u8) -> Self {
        match code {
            0x01 => FunctionCode::ReadCoils,
            0x02 => FunctionCode::ReadDiscreteInputs,
            0x03 => FunctionCode::ReadHoldingRegisters,
            0x04 => FunctionCode::ReadInputRegisters,
            0x05 => FunctionCode::WriteSingleCoil,
            0x06 => FunctionCode::WriteSingleRegister,
            0x07 => FunctionCode::ReadExceptionStatus,
            0x08 => FunctionCode::Diagnostics,
            0x0F => FunctionCode::WriteMultipleCoils,
            0x10 => FunctionCode::WriteMultipleRegisters,
            0x11 => FunctionCode::ReportSlaveId,
            0x2B => FunctionCode::ReadDeviceIdentification,
            other => FunctionCode::Other(other),
        }
    }
}

impl fmt::Display for FunctionCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FunctionCode::Other(c) => write!(f, "Other(0x{c:02X})"),
            known => write!(f, "{known:?}(0x{:02X})", known.code()),
        }
    }
}

/// Modbus exception codes carried in exception responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExceptionCode {
    /// 0x01 — the function code is not supported.
    IllegalFunction,
    /// 0x02 — the data address is not valid for the device.
    IllegalDataAddress,
    /// 0x03 — a value in the request is not allowed.
    IllegalDataValue,
    /// 0x04 — unrecoverable device failure.
    SlaveDeviceFailure,
    /// 0x05 — request accepted, long-running processing.
    Acknowledge,
    /// 0x06 — device busy.
    SlaveDeviceBusy,
    /// Any other exception code.
    Other(u8),
}

impl ExceptionCode {
    /// The raw wire value.
    pub fn code(self) -> u8 {
        match self {
            ExceptionCode::IllegalFunction => 0x01,
            ExceptionCode::IllegalDataAddress => 0x02,
            ExceptionCode::IllegalDataValue => 0x03,
            ExceptionCode::SlaveDeviceFailure => 0x04,
            ExceptionCode::Acknowledge => 0x05,
            ExceptionCode::SlaveDeviceBusy => 0x06,
            ExceptionCode::Other(c) => c,
        }
    }
}

impl From<u8> for ExceptionCode {
    fn from(code: u8) -> Self {
        match code {
            0x01 => ExceptionCode::IllegalFunction,
            0x02 => ExceptionCode::IllegalDataAddress,
            0x03 => ExceptionCode::IllegalDataValue,
            0x04 => ExceptionCode::SlaveDeviceFailure,
            0x05 => ExceptionCode::Acknowledge,
            0x06 => ExceptionCode::SlaveDeviceBusy,
            other => ExceptionCode::Other(other),
        }
    }
}

impl fmt::Display for ExceptionCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}(0x{:02X})", self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_standard_codes() {
        for raw in [
            0x01u8, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x0F, 0x10, 0x11, 0x2B,
        ] {
            let fc = FunctionCode::from(raw);
            assert_eq!(fc.code(), raw);
            assert!(!matches!(fc, FunctionCode::Other(_)));
        }
    }

    #[test]
    fn unknown_codes_round_trip_through_other() {
        for raw in [0x00u8, 0x09, 0x63, 0xFF] {
            let fc = FunctionCode::from(raw);
            assert_eq!(fc, FunctionCode::Other(raw));
            assert_eq!(fc.code(), raw);
        }
    }

    #[test]
    fn exception_codes_round_trip() {
        for raw in 0x01u8..=0x06 {
            assert_eq!(ExceptionCode::from(raw).code(), raw);
        }
        assert_eq!(ExceptionCode::from(0x0B), ExceptionCode::Other(0x0B));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            FunctionCode::ReadHoldingRegisters.to_string(),
            "ReadHoldingRegisters(0x03)"
        );
        assert_eq!(FunctionCode::Other(0x63).to_string(), "Other(0x63)");
        assert!(ExceptionCode::IllegalFunction.to_string().contains("0x01"));
    }
}
