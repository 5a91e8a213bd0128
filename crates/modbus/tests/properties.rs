//! Property-based tests for the Modbus substrate.

use icsad_modbus::crc::{append_crc, crc16};
use icsad_modbus::{Frame, FunctionCode};
use proptest::prelude::*;

/// Whether the last two bytes of `buf` (at least two long) are the
/// little-endian CRC of the bytes before them.
fn crc_matches(buf: &[u8]) -> bool {
    let (payload, crc) = buf.split_at(buf.len() - 2);
    crc16(payload).to_le_bytes() == crc
}

proptest! {
    /// Any frame round-trips through encode/decode.
    #[test]
    fn frame_round_trip(
        address in any::<u8>(),
        function in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let frame = Frame::new(address, FunctionCode::from(function), payload);
        let decoded = Frame::decode(&frame.encode()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// The CRC catches every single-bit corruption.
    #[test]
    fn crc_detects_single_bit_flips(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        bit in 0usize..512,
    ) {
        let buf = append_crc(payload);
        let bit = bit % (buf.len() * 8);
        let mut corrupted = buf.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(crc_matches(&buf));
        prop_assert!(!crc_matches(&corrupted), "flip at bit {bit} undetected");
    }

    /// CRC is a pure function of its input.
    #[test]
    fn crc_deterministic(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(crc16(&data), crc16(&data));
    }

    /// Lenient decoding recovers contents regardless of CRC validity.
    #[test]
    fn lenient_decode_recovers_contents(
        address in any::<u8>(),
        function in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..100),
        corrupt in any::<bool>(),
    ) {
        let frame = Frame::new(address, FunctionCode::from(function), payload);
        let wire = if corrupt {
            frame.encode_with_bad_crc()
        } else {
            frame.encode()
        };
        let (decoded, crc_ok) = Frame::decode_lenient(&wire).unwrap();
        prop_assert_eq!(crc_ok, !corrupt);
        prop_assert_eq!(decoded, frame);
    }

    /// Function codes round-trip through their wire byte.
    #[test]
    fn function_code_round_trip(code in any::<u8>()) {
        prop_assert_eq!(FunctionCode::from(code).code(), code);
    }
}
