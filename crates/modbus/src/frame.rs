//! Modbus RTU frame encoding and decoding.

use std::error::Error;
use std::fmt;

use crate::crc::{append_crc, crc16};
use crate::function::FunctionCode;

/// Maximum Modbus RTU application data unit size in bytes.
pub const MAX_ADU_LEN: usize = 256;

/// Errors produced when decoding a [`Frame`] from wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// Fewer than the 4 bytes (address + function + CRC) every frame needs.
    TooShort {
        /// Observed buffer length.
        len: usize,
    },
    /// Longer than the Modbus RTU maximum of 256 bytes.
    TooLong {
        /// Observed buffer length.
        len: usize,
    },
    /// The trailing CRC did not match the frame contents.
    CrcMismatch {
        /// CRC computed over the received payload.
        computed: u16,
        /// CRC found on the wire.
        received: u16,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooShort { len } => write!(f, "frame too short: {len} bytes"),
            FrameError::TooLong { len } => write!(f, "frame too long: {len} bytes"),
            FrameError::CrcMismatch { computed, received } => write!(
                f,
                "crc mismatch: computed 0x{computed:04X}, received 0x{received:04X}"
            ),
        }
    }
}

impl Error for FrameError {}

/// A Modbus RTU frame: station address, function code and payload.
///
/// The CRC is computed on [`Frame::encode`] and verified on
/// [`Frame::decode`]; frames held in memory are always CRC-consistent.
///
/// # Examples
///
/// ```
/// use icsad_modbus::{Frame, FunctionCode};
///
/// let f = Frame::new(4, FunctionCode::WriteMultipleRegisters, vec![0x00, 0x00]);
/// assert_eq!(f.address(), 4);
/// assert_eq!(Frame::decode(&f.encode())?, f);
/// # Ok::<(), icsad_modbus::FrameError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    address: u8,
    function: FunctionCode,
    payload: Vec<u8>,
}

impl Frame {
    /// Creates a frame from its parts.
    ///
    /// # Panics
    ///
    /// Panics if the payload would make the encoded frame exceed
    /// [`MAX_ADU_LEN`].
    pub fn new(address: u8, function: FunctionCode, payload: Vec<u8>) -> Self {
        assert!(
            payload.len() + 4 <= MAX_ADU_LEN,
            "payload of {} bytes exceeds the RTU maximum",
            payload.len()
        );
        Frame {
            address,
            function,
            payload,
        }
    }

    /// Station (slave) address.
    pub fn address(&self) -> u8 {
        self.address
    }

    /// Function code.
    pub fn function(&self) -> FunctionCode {
        self.function
    }

    /// Application payload (without address, function code or CRC).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Total encoded length in bytes (address + function + payload + CRC).
    fn encoded_len(&self) -> usize {
        self.payload.len() + 4
    }

    /// Encodes the frame to wire bytes with a valid trailing CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.push(self.address);
        buf.push(self.function.code());
        buf.extend_from_slice(&self.payload);
        append_crc(buf)
    }

    /// Encodes the frame with a deliberately corrupted CRC.
    ///
    /// This exists for the simulator's noise and attack models: real captures
    /// contain a small rate of bad-CRC packages (the `crc rate` feature of
    /// the dataset).
    pub fn encode_with_bad_crc(&self) -> Vec<u8> {
        let mut buf = self.encode();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        buf
    }

    /// Decodes a frame from wire bytes, verifying the CRC.
    ///
    /// # Errors
    ///
    /// * [`FrameError::TooShort`] / [`FrameError::TooLong`] for size
    ///   violations.
    /// * [`FrameError::CrcMismatch`] if the checksum fails.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() < 4 {
            return Err(FrameError::TooShort { len: buf.len() });
        }
        if buf.len() > MAX_ADU_LEN {
            return Err(FrameError::TooLong { len: buf.len() });
        }
        let (body, crc_bytes) = buf.split_at(buf.len() - 2);
        let received = u16::from_le_bytes([crc_bytes[0], crc_bytes[1]]);
        let computed = crc16(body);
        if computed != received {
            return Err(FrameError::CrcMismatch { computed, received });
        }
        Ok(Frame {
            address: body[0],
            function: FunctionCode::from(body[1]),
            payload: body[2..].to_vec(),
        })
    }

    /// Decodes a frame without verifying the CRC, reporting whether the CRC
    /// was valid.
    ///
    /// The traffic monitor of the paper records packages with bad checksums
    /// rather than dropping them (the `crc rate` feature), so the feature
    /// extractor needs the lenient path.
    ///
    /// # Errors
    ///
    /// Returns size violations only.
    pub fn decode_lenient(buf: &[u8]) -> Result<(Self, bool), FrameError> {
        let (view, crc_ok) = FrameView::decode_lenient(buf)?;
        Ok((view.to_frame(), crc_ok))
    }
}

/// A borrowed view of a Modbus RTU frame: the zero-copy counterpart of
/// [`Frame`].
///
/// [`Frame::decode_lenient`] allocates a fresh payload `Vec` per call —
/// one heap allocation per monitored frame, forever, on the engine's hot
/// path. `FrameView` borrows the payload straight out of the wire buffer
/// instead, so per-frame feature extraction touches the allocator zero
/// times. Convert with [`FrameView::to_frame`] when an owned frame is
/// actually needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    address: u8,
    function: FunctionCode,
    payload: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Station (slave) address.
    pub fn address(&self) -> u8 {
        self.address
    }

    /// Function code.
    pub fn function(&self) -> FunctionCode {
        self.function
    }

    /// Application payload (without address, function code or CRC),
    /// borrowed from the wire buffer.
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Copies the view into an owned [`Frame`].
    pub fn to_frame(&self) -> Frame {
        Frame {
            address: self.address,
            function: self.function,
            payload: self.payload.to_vec(),
        }
    }

    /// Decodes a borrowed frame without verifying the CRC, reporting whether
    /// the CRC was valid — the allocation-free twin of
    /// [`Frame::decode_lenient`].
    ///
    /// # Errors
    ///
    /// Returns size violations only.
    pub fn decode_lenient(buf: &'a [u8]) -> Result<(Self, bool), FrameError> {
        if buf.len() < 4 {
            return Err(FrameError::TooShort { len: buf.len() });
        }
        if buf.len() > MAX_ADU_LEN {
            return Err(FrameError::TooLong { len: buf.len() });
        }
        let (body, crc_bytes) = buf.split_at(buf.len() - 2);
        let received = u16::from_le_bytes([crc_bytes[0], crc_bytes[1]]);
        let crc_ok = crc16(body) == received;
        Ok((
            FrameView {
                address: body[0],
                function: FunctionCode::from(body[1]),
                payload: &body[2..],
            },
            crc_ok,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let f = Frame::new(4, FunctionCode::ReadHoldingRegisters, vec![0, 0, 0, 11]);
        let wire = f.encode();
        assert_eq!(wire.len(), f.encoded_len());
        assert_eq!(Frame::decode(&wire).unwrap(), f);
    }

    #[test]
    fn empty_payload_round_trip() {
        let f = Frame::new(1, FunctionCode::ReadExceptionStatus, vec![]);
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn decode_rejects_short_frames() {
        assert!(matches!(
            Frame::decode(&[1, 2, 3]),
            Err(FrameError::TooShort { len: 3 })
        ));
    }

    #[test]
    fn decode_rejects_long_frames() {
        let buf = vec![0u8; MAX_ADU_LEN + 1];
        assert!(matches!(
            Frame::decode(&buf),
            Err(FrameError::TooLong { .. })
        ));
    }

    #[test]
    fn decode_rejects_bad_crc() {
        let f = Frame::new(4, FunctionCode::ReadHoldingRegisters, vec![1, 2]);
        let wire = f.encode_with_bad_crc();
        assert!(matches!(
            Frame::decode(&wire),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn lenient_decode_reports_crc_state() {
        let f = Frame::new(4, FunctionCode::WriteMultipleRegisters, vec![9, 9]);
        let (good, ok) = Frame::decode_lenient(&f.encode()).unwrap();
        assert!(ok);
        assert_eq!(good, f);
        let (bad, ok) = Frame::decode_lenient(&f.encode_with_bad_crc()).unwrap();
        assert!(!ok);
        assert_eq!(bad, f); // contents still recovered
    }

    #[test]
    fn unknown_function_codes_survive_round_trip() {
        let f = Frame::new(4, FunctionCode::Other(0x63), vec![0xAB]);
        let decoded = Frame::decode(&f.encode()).unwrap();
        assert_eq!(decoded.function(), FunctionCode::Other(0x63));
    }

    #[test]
    #[should_panic(expected = "exceeds the RTU maximum")]
    fn oversized_payload_panics() {
        Frame::new(1, FunctionCode::ReadCoils, vec![0; MAX_ADU_LEN]);
    }

    #[test]
    fn max_size_frame_round_trips() {
        let f = Frame::new(1, FunctionCode::ReadCoils, vec![7; MAX_ADU_LEN - 4]);
        assert_eq!(f.encoded_len(), MAX_ADU_LEN);
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn view_matches_owned_lenient_decode() {
        let f = Frame::new(4, FunctionCode::WriteMultipleRegisters, vec![9, 9, 7]);
        for wire in [f.encode(), f.encode_with_bad_crc()] {
            let (owned, owned_ok) = Frame::decode_lenient(&wire).unwrap();
            let (view, view_ok) = FrameView::decode_lenient(&wire).unwrap();
            assert_eq!(owned_ok, view_ok);
            assert_eq!(view.to_frame(), owned);
            assert_eq!(view.address(), owned.address());
            assert_eq!(view.function(), owned.function());
            assert_eq!(view.payload(), owned.payload());
        }
        assert!(matches!(
            FrameView::decode_lenient(&[1, 2, 3]),
            Err(FrameError::TooShort { len: 3 })
        ));
        assert!(matches!(
            FrameView::decode_lenient(&[0u8; MAX_ADU_LEN + 1]),
            Err(FrameError::TooLong { .. })
        ));
    }

    #[test]
    fn error_display() {
        let e = FrameError::CrcMismatch {
            computed: 0x1234,
            received: 0x5678,
        };
        let msg = e.to_string();
        assert!(msg.contains("0x1234") && msg.contains("0x5678"));
    }
}
