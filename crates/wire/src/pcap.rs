//! Zero-copy pcap / pcapng capture parsing.
//!
//! The reader walks an in-memory capture image and yields each packet as
//! a [`CapturedPacket`] whose `data` **borrows** the capture buffer —
//! replaying a gigabyte capture copies packet bytes exactly zero times on
//! this layer. Two container formats are recognized:
//!
//! * **classic pcap** — 24-byte global header (all four magic variants:
//!   both endiannesses × microsecond/nanosecond timestamps), 16-byte
//!   per-record headers;
//! * **pcapng** — Section Header Block (which fixes the byte order),
//!   Interface Description Blocks (one link type per interface), Enhanced
//!   Packet Blocks (the interface they arrived on, 64-bit timestamps,
//!   microsecond resolution assumed); other block types are skipped, as
//!   the format intends. A packet on a non-Ethernet interface is an
//!   [`PcapError::UnsupportedLinkType`] error, like a classic capture of
//!   that link type.
//!
//! Malformed input is a value, not a panic: every structural violation
//! maps to a [`PcapError`], and the robustness proptests drive arbitrary
//! byte soup through here to pin that.

/// One captured packet, borrowed from the capture image.
#[derive(Debug, Clone, Copy)]
pub struct CapturedPacket<'a> {
    /// Capture timestamp in seconds (fractional part from the format's
    /// microsecond or nanosecond field).
    pub time: f64,
    /// Link-layer bytes, truncated to the captured length.
    pub data: &'a [u8],
}

/// Structural capture-parsing failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcapError {
    /// The image is too short to hold the promised structure.
    Truncated,
    /// Neither a classic pcap magic nor a pcapng section header.
    BadMagic,
    /// A record or block length field is inconsistent (zero-sized block,
    /// length smaller than its own header, packet past the image end), or
    /// a pcapng packet names an interface not described before it.
    BadLength,
    /// The capture's (or a pcapng packet's interface's) link type is not
    /// Ethernet (the only layout the replay layer decapsulates).
    UnsupportedLinkType(u32),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Truncated => write!(f, "capture truncated"),
            PcapError::BadMagic => write!(f, "not a pcap or pcapng capture"),
            PcapError::BadLength => write!(f, "inconsistent record length"),
            PcapError::UnsupportedLinkType(lt) => {
                write!(f, "unsupported link type {lt} (only Ethernet)")
            }
        }
    }
}

impl std::error::Error for PcapError {}

/// LINKTYPE_ETHERNET, the only link layer [`crate::WireReplay`] parses.
pub const LINKTYPE_ETHERNET: u32 = 1;

#[derive(Debug)]
enum Format {
    Classic {
        swapped: bool,
        /// Divisor turning the fractional timestamp field into seconds.
        ts_divisor: f64,
    },
    PcapNg {
        swapped: bool,
    },
}

/// Streaming packet reader over an in-memory capture image (see the
/// module docs).
#[derive(Debug)]
pub struct PcapReader<'a> {
    data: &'a [u8],
    offset: usize,
    format: Format,
    link_type: u32,
    /// pcapng: the link type of every interface described so far in the
    /// current section, indexed by interface id.
    interfaces: Vec<u32>,
}

fn u16_at(data: &[u8], off: usize, swapped: bool) -> Result<u16, PcapError> {
    let bytes: [u8; 2] = data
        .get(off..off + 2)
        .ok_or(PcapError::Truncated)?
        .try_into()
        // The slice is exactly 2 bytes by construction.
        .expect("2-byte slice");
    Ok(if swapped {
        u16::from_be_bytes(bytes)
    } else {
        u16::from_le_bytes(bytes)
    })
}

fn u32_at(data: &[u8], off: usize, swapped: bool) -> Result<u32, PcapError> {
    let bytes: [u8; 4] = data
        .get(off..off + 4)
        .ok_or(PcapError::Truncated)?
        .try_into()
        // The slice is exactly 4 bytes by construction.
        .expect("4-byte slice");
    Ok(if swapped {
        u32::from_be_bytes(bytes)
    } else {
        u32::from_le_bytes(bytes)
    })
}

impl<'a> PcapReader<'a> {
    /// Opens a capture image, recognizing classic pcap and pcapng.
    ///
    /// # Errors
    ///
    /// [`PcapError::BadMagic`] if the image starts with neither format's
    /// magic, [`PcapError::Truncated`]/[`PcapError::BadLength`] on a
    /// malformed header, [`PcapError::UnsupportedLinkType`] for
    /// non-Ethernet captures.
    pub fn new(data: &'a [u8]) -> Result<Self, PcapError> {
        let magic = u32_at(data, 0, false)?;
        match magic {
            // Classic pcap: magic in native order, or byte-swapped, each
            // in the microsecond and nanosecond variants.
            0xA1B2_C3D4 | 0xA1B2_3C4D | 0xD4C3_B2A1 | 0x4D3C_B2A1 => {
                let swapped = matches!(magic, 0xD4C3_B2A1 | 0x4D3C_B2A1);
                let nanos = matches!(magic, 0xA1B2_3C4D | 0x4D3C_B2A1);
                if data.len() < 24 {
                    return Err(PcapError::Truncated);
                }
                let link_type = u32_at(data, 20, swapped)?;
                if link_type != LINKTYPE_ETHERNET {
                    return Err(PcapError::UnsupportedLinkType(link_type));
                }
                Ok(PcapReader {
                    data,
                    offset: 24,
                    format: Format::Classic {
                        swapped,
                        ts_divisor: if nanos { 1e9 } else { 1e6 },
                    },
                    link_type,
                    interfaces: Vec::new(),
                })
            }
            // pcapng Section Header Block.
            0x0A0D_0D0A => {
                let order = u32_at(data, 8, false)?;
                let swapped = match order {
                    0x1A2B_3C4D => false,
                    0x4D3C_2B1A => true,
                    _ => return Err(PcapError::BadMagic),
                };
                let block_len = u32_at(data, 4, swapped)? as usize;
                if block_len < 28 || !block_len.is_multiple_of(4) || block_len > data.len() {
                    return Err(PcapError::BadLength);
                }
                let mut reader = PcapReader {
                    data,
                    offset: block_len,
                    format: Format::PcapNg { swapped },
                    // The first interface's, once `validate_first_idb`
                    // finds it.
                    link_type: u32::MAX,
                    // Filled as `next_ng` reaches each IDB, so an EPB
                    // before the IDB of its interface is a BadLength error.
                    interfaces: Vec::new(),
                };
                reader.validate_first_idb()?;
                Ok(reader)
            }
            _ => Err(PcapError::BadMagic),
        }
    }

    /// Peeks ahead for the first IDB so an unsupported link type fails at
    /// open time, matching the classic-pcap behavior.
    fn validate_first_idb(&mut self) -> Result<(), PcapError> {
        let Format::PcapNg { swapped } = self.format else {
            // Only called from the pcapng constructor arm.
            unreachable!("validate_first_idb on classic pcap");
        };
        let mut off = self.offset;
        while off < self.data.len() {
            let block_type = u32_at(self.data, off, swapped)?;
            let block_len = u32_at(self.data, off + 4, swapped)? as usize;
            if block_len < 12 || !block_len.is_multiple_of(4) || off + block_len > self.data.len() {
                return Err(PcapError::BadLength);
            }
            if block_type == 1 {
                let link_type = u32::from(u16_at(self.data, off + 8, swapped)?);
                if link_type != LINKTYPE_ETHERNET {
                    return Err(PcapError::UnsupportedLinkType(link_type));
                }
                self.link_type = link_type;
                return Ok(());
            }
            off += block_len;
        }
        // A section with no interfaces carries no packets; treat as empty.
        Ok(())
    }

    /// The capture's link type (`LINKTYPE_ETHERNET` once opened; for
    /// pcapng, the first interface's).
    pub fn link_type(&self) -> u32 {
        self.link_type
    }

    /// Yields the next packet, `Ok(None)` at a clean end of capture.
    ///
    /// # Errors
    ///
    /// [`PcapError::Truncated`]/[`PcapError::BadLength`] when the image
    /// ends mid-record or a length field is inconsistent; parsing cannot
    /// continue past a structural error.
    #[allow(clippy::should_implement_trait)] // fallible, borrow-yielding next
    pub fn next(&mut self) -> Result<Option<CapturedPacket<'a>>, PcapError> {
        match self.format {
            Format::Classic {
                swapped,
                ts_divisor,
            } => self.next_classic(swapped, ts_divisor),
            Format::PcapNg { swapped } => self.next_ng(swapped),
        }
    }

    fn next_classic(
        &mut self,
        swapped: bool,
        ts_divisor: f64,
    ) -> Result<Option<CapturedPacket<'a>>, PcapError> {
        if self.offset == self.data.len() {
            return Ok(None);
        }
        let secs = u32_at(self.data, self.offset, swapped)?;
        let frac = u32_at(self.data, self.offset + 4, swapped)?;
        let incl_len = u32_at(self.data, self.offset + 8, swapped)? as usize;
        let data_start = self.offset + 16;
        let data_end = data_start
            .checked_add(incl_len)
            .ok_or(PcapError::BadLength)?;
        let data = self
            .data
            .get(data_start..data_end)
            .ok_or(PcapError::Truncated)?;
        self.offset = data_end;
        Ok(Some(CapturedPacket {
            time: f64::from(secs) + f64::from(frac) / ts_divisor,
            data,
        }))
    }

    fn next_ng(&mut self, swapped: bool) -> Result<Option<CapturedPacket<'a>>, PcapError> {
        while self.offset < self.data.len() {
            let block_type = u32_at(self.data, self.offset, swapped)?;
            let block_len = u32_at(self.data, self.offset + 4, swapped)? as usize;
            if block_len < 12
                || !block_len.is_multiple_of(4)
                || self.offset + block_len > self.data.len()
            {
                return Err(PcapError::BadLength);
            }
            let body = self.offset + 8;
            self.offset += block_len;
            match block_type {
                // A new section numbers its interfaces from 0 again.
                0x0A0D_0D0A => self.interfaces.clear(),
                // Interface Description Block: interface ids count them.
                1 => self
                    .interfaces
                    .push(u32::from(u16_at(self.data, body, swapped)?)),
                // Enhanced Packet Block; every other block type
                // (statistics, custom) is skipped.
                6 => {
                    let interface = u32_at(self.data, body, swapped)? as usize;
                    let link_type = *self.interfaces.get(interface).ok_or(PcapError::BadLength)?;
                    if link_type != LINKTYPE_ETHERNET {
                        return Err(PcapError::UnsupportedLinkType(link_type));
                    }
                    let ts_high = u32_at(self.data, body + 4, swapped)?;
                    let ts_low = u32_at(self.data, body + 8, swapped)?;
                    let captured = u32_at(self.data, body + 12, swapped)? as usize;
                    let data_start = body + 20;
                    let data_end = data_start
                        .checked_add(captured)
                        .ok_or(PcapError::BadLength)?;
                    // Packet data is padded to 4 bytes inside the block.
                    if data_end > self.offset - 4 {
                        return Err(PcapError::BadLength);
                    }
                    let data = self
                        .data
                        .get(data_start..data_end)
                        .ok_or(PcapError::Truncated)?;
                    let micros = (u64::from(ts_high) << 32) | u64::from(ts_low);
                    return Ok(Some(CapturedPacket {
                        time: micros as f64 / 1e6,
                        data,
                    }));
                }
                _ => {}
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::CaptureBuilder;

    #[test]
    fn empty_input_is_bad_magic_not_panic() {
        assert_eq!(PcapReader::new(&[]).unwrap_err(), PcapError::Truncated);
        assert_eq!(
            PcapReader::new(&[0u8; 64]).unwrap_err(),
            PcapError::BadMagic
        );
    }

    #[test]
    fn classic_capture_round_trips_borrowed_packets() {
        let mut builder = CaptureBuilder::new();
        builder.raw_packet(1.25, &[0xAB; 60]);
        builder.raw_packet(2.5, &[0xCD; 42]);
        let image = builder.finish();
        let mut reader = PcapReader::new(&image).unwrap();
        let first = reader.next().unwrap().unwrap();
        assert_eq!(first.data, &[0xAB; 60][..]);
        assert!((first.time - 1.25).abs() < 1e-6);
        // Zero-copy: the packet slice points into the capture image.
        let image_range = image.as_ptr() as usize..image.as_ptr() as usize + image.len();
        assert!(image_range.contains(&(first.data.as_ptr() as usize)));
        let second = reader.next().unwrap().unwrap();
        assert_eq!(second.data.len(), 42);
        assert!(reader.next().unwrap().is_none());
    }

    #[test]
    fn truncated_record_reports_error() {
        let mut builder = CaptureBuilder::new();
        builder.raw_packet(1.0, &[0xEE; 30]);
        let mut image = builder.finish();
        image.truncate(image.len() - 7);
        let mut reader = PcapReader::new(&image).unwrap();
        assert_eq!(reader.next().unwrap_err(), PcapError::Truncated);
    }

    /// A little-endian pcapng block: type, length, body, length.
    fn block(block_type: u32, body: &[u8]) -> Vec<u8> {
        let len = (12 + body.len()) as u32;
        let mut out = block_type.to_le_bytes().to_vec();
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(body);
        out.extend_from_slice(&len.to_le_bytes());
        out
    }

    fn shb() -> Vec<u8> {
        let mut body = 0x1A2B_3C4Du32.to_le_bytes().to_vec();
        body.extend_from_slice(&[1, 0, 0, 0]); // version 1.0
        body.extend_from_slice(&u64::MAX.to_le_bytes()); // length unknown
        block(0x0A0D_0D0A, &body)
    }

    fn idb(link_type: u16) -> Vec<u8> {
        let mut body = link_type.to_le_bytes().to_vec();
        body.extend_from_slice(&[0, 0]);
        body.extend_from_slice(&65_535u32.to_le_bytes());
        block(1, &body)
    }

    fn epb(interface: u32, micros: u64, data: &[u8]) -> Vec<u8> {
        let mut body = interface.to_le_bytes().to_vec();
        body.extend_from_slice(&((micros >> 32) as u32).to_le_bytes());
        body.extend_from_slice(&(micros as u32).to_le_bytes());
        body.extend_from_slice(&(data.len() as u32).to_le_bytes());
        body.extend_from_slice(&(data.len() as u32).to_le_bytes());
        body.extend_from_slice(data);
        body.resize(body.len().next_multiple_of(4), 0);
        block(6, &body)
    }

    #[test]
    fn pcapng_round_trips_borrowed_packets() {
        let image = [
            shb(),
            idb(1),
            epb(0, 1_250_000, &[0xAB; 61]),
            block(5, &[0; 8]), // a statistics block, skipped
            epb(0, 2_500_000, &[0xCD; 42]),
        ]
        .concat();
        let mut reader = PcapReader::new(&image).unwrap();
        assert_eq!(reader.link_type(), LINKTYPE_ETHERNET);
        let first = reader.next().unwrap().unwrap();
        assert_eq!(first.data, &[0xAB; 61][..]);
        assert_eq!(first.time, 1.25);
        let image_range = image.as_ptr() as usize..image.as_ptr() as usize + image.len();
        assert!(image_range.contains(&(first.data.as_ptr() as usize)));
        let second = reader.next().unwrap().unwrap();
        assert_eq!(second.data, &[0xCD; 42][..]);
        assert_eq!(second.time, 2.5);
        assert!(reader.next().unwrap().is_none());
    }

    #[test]
    fn pcapng_packet_on_a_non_ethernet_interface_is_rejected() {
        // LINKTYPE_LINUX_SLL on the second interface: the first
        // interface's packets decode, then the SLL packet is refused
        // instead of being decoded as Ethernet.
        let image = [
            shb(),
            idb(1),
            idb(113),
            epb(0, 1_000_000, &[0x11; 60]),
            epb(1, 2_000_000, &[0x22; 60]),
        ]
        .concat();
        let mut reader = PcapReader::new(&image).unwrap();
        assert_eq!(reader.next().unwrap().unwrap().data, &[0x11; 60][..]);
        assert_eq!(
            reader.next().unwrap_err(),
            PcapError::UnsupportedLinkType(113)
        );
        // A non-Ethernet first interface still fails at open.
        let sll_first = [shb(), idb(113), idb(1)].concat();
        assert_eq!(
            PcapReader::new(&sll_first).unwrap_err(),
            PcapError::UnsupportedLinkType(113)
        );
    }

    #[test]
    fn pcapng_packet_before_its_interface_is_bad_length() {
        // The open-time scan finds the later IDB; the EPB still comes
        // before any interface is described.
        let early = [shb(), epb(0, 0, &[0; 60]), idb(1)].concat();
        let mut reader = PcapReader::new(&early).unwrap();
        assert_eq!(reader.next().unwrap_err(), PcapError::BadLength);
        // Interface 1 is never described.
        let unknown = [shb(), idb(1), epb(1, 0, &[0; 60])].concat();
        let mut reader = PcapReader::new(&unknown).unwrap();
        assert_eq!(reader.next().unwrap_err(), PcapError::BadLength);
        // A second section numbers its interfaces afresh.
        let resectioned = [shb(), idb(1), shb(), epb(0, 0, &[0; 60])].concat();
        let mut reader = PcapReader::new(&resectioned).unwrap();
        assert_eq!(reader.next().unwrap_err(), PcapError::BadLength);
    }

    #[test]
    fn non_ethernet_link_type_is_rejected() {
        let mut builder = CaptureBuilder::new();
        builder.raw_packet(0.5, &[0u8; 8]);
        let mut image = builder.finish();
        image[20] = 147; // DLT_USER0
        assert_eq!(
            PcapReader::new(&image).unwrap_err(),
            PcapError::UnsupportedLinkType(147)
        );
    }
}
