//! A from-scratch Modbus (RTU flavour) protocol substrate.
//!
//! The gas-pipeline SCADA system reproduced in this workspace speaks the
//! Modbus application-layer protocol (paper §VII). This crate implements the
//! pieces the simulator and feature extractor need:
//!
//! * [`crc`] — the CRC-16/Modbus checksum,
//! * [`FunctionCode`] / [`ExceptionCode`] — application function codes,
//! * [`Frame`] — RTU framing with encode/decode and CRC verification, and
//!   [`FrameView`], the same decode borrowing the payload from the wire
//!   buffer (no allocation per frame),
//! * [`pipeline`] — the gas-pipeline payload codec mapping PID parameters,
//!   mode, pump/solenoid state and pressure onto registers.
//!
//! # Examples
//!
//! ```
//! use icsad_modbus::{Frame, FunctionCode};
//!
//! let frame = Frame::new(4, FunctionCode::ReadHoldingRegisters, vec![0, 0, 0, 11]);
//! let wire = frame.encode();
//! let decoded = Frame::decode(&wire)?;
//! assert_eq!(decoded, frame);
//! # Ok::<(), icsad_modbus::FrameError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
mod frame;
mod function;
pub mod pipeline;

pub use frame::{Frame, FrameError, FrameView, MAX_ADU_LEN};
pub use function::{ExceptionCode, FunctionCode};
