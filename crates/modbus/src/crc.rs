//! CRC-16/Modbus checksum.
//!
//! Polynomial `0x8005` (reflected form `0xA001`), initial value `0xFFFF`, no
//! final XOR; transmitted little-endian on the wire.

/// The reflected generator polynomial.
const POLY: u16 = 0xA001;

/// `TABLES[k][b]`: what byte `b` contributes to the register when `k`
/// more bytes follow it, from a zero register — `TABLES[0]` is the
/// classic byte table, and each next table runs one more zero byte
/// through it. Built at compile time.
const TABLES: [[u16; 256]; 8] = tables();

const fn tables() -> [[u16; 256]; 8] {
    let mut t = [[0u16; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u16;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-16/Modbus checksum of `data`.
///
/// Slicing-by-8: each 8-byte block takes eight independent table lookups
/// (`TABLES`) instead of a chain of 64 shift-and-xor steps, and the
/// bytes after the last whole block take one byte-table step each. The
/// result equals the bit-at-a-time definition on every input.
///
/// # Examples
///
/// ```
/// // Standard check value for the ASCII string "123456789".
/// assert_eq!(icsad_modbus::crc::crc16(b"123456789"), 0x4B37);
/// ```
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    let mut blocks = data.chunks_exact(8);
    for d in &mut blocks {
        let [lo, hi] = crc.to_le_bytes();
        crc = TABLES[7][usize::from(d[0] ^ lo)]
            ^ TABLES[6][usize::from(d[1] ^ hi)]
            ^ TABLES[5][usize::from(d[2])]
            ^ TABLES[4][usize::from(d[3])]
            ^ TABLES[3][usize::from(d[4])]
            ^ TABLES[2][usize::from(d[5])]
            ^ TABLES[1][usize::from(d[6])]
            ^ TABLES[0][usize::from(d[7])];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][usize::from((crc as u8) ^ byte)];
    }
    crc
}

/// Appends the little-endian CRC of `data` to the end of `data` and returns
/// the combined buffer.
pub fn append_crc(mut data: Vec<u8>) -> Vec<u8> {
    let crc = crc16(&data);
    data.extend_from_slice(&crc.to_le_bytes());
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The checksum's definition, one bit at a time: the reference the
    /// table-driven [`crc16`] is held to.
    fn crc16_bitwise(data: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &byte in data {
            crc ^= u16::from(byte);
            for _ in 0..8 {
                if crc & 1 != 0 {
                    crc = (crc >> 1) ^ POLY;
                } else {
                    crc >>= 1;
                }
            }
        }
        crc
    }

    proptest! {
        /// Arbitrary bytes of every length from 0 to 300: empty input,
        /// whole 8-byte blocks and blocks plus a byte-table tail.
        #[test]
        fn slicing_by_8_equals_the_bitwise_definition(
            data in proptest::collection::vec(any::<u8>(), 0..301),
        ) {
            prop_assert_eq!(crc16(&data), crc16_bitwise(&data));
        }
    }

    #[test]
    fn standard_check_value() {
        assert_eq!(crc16(b"123456789"), 0x4B37);
        assert_eq!(crc16_bitwise(b"123456789"), 0x4B37);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc16(b""), 0xFFFF);
    }

    #[test]
    fn known_modbus_frame() {
        // Read holding registers: slave 1, fc 3, start 0, count 1.
        // Well-known reference frame: 01 03 00 00 00 01 84 0A.
        let frame = [0x01u8, 0x03, 0x00, 0x00, 0x00, 0x01];
        assert_eq!(crc16(&frame), u16::from_le_bytes([0x84, 0x0A]));
    }

    /// Whether the last two bytes of `buf` (at least two long) are the
    /// little-endian CRC of the bytes before them.
    fn crc_matches(buf: &[u8]) -> bool {
        let (payload, crc) = buf.split_at(buf.len() - 2);
        crc16(payload).to_le_bytes() == crc
    }

    #[test]
    fn append_and_verify_round_trip() {
        let buf = append_crc(vec![0x11, 0x22, 0x33]);
        assert_eq!(buf.len(), 5);
        assert_eq!(&buf[..3], &[0x11, 0x22, 0x33]);
        assert!(crc_matches(&buf));
    }

    #[test]
    fn verify_detects_corruption() {
        let mut buf = append_crc(vec![0x11, 0x22, 0x33]);
        buf[1] ^= 0x01;
        assert!(!crc_matches(&buf));
    }

    #[test]
    fn verify_detects_crc_corruption() {
        let mut buf = append_crc(vec![0x11, 0x22, 0x33]);
        let last = buf.len() - 1;
        buf[last] ^= 0x80;
        assert!(!crc_matches(&buf));
    }

    #[test]
    fn single_bit_sensitivity() {
        let a = crc16(&[0b0000_0000]);
        let b = crc16(&[0b0000_0001]);
        assert_ne!(a, b);
    }
}
