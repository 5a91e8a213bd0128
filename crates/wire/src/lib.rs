//! The wire layer: real Modbus-TCP traffic in, [`RawFrame`]s out.
//!
//! The detection engine speaks Modbus **RTU** frames (`address + PDU +
//! CRC16`) because that is what the paper's gas-pipeline capture contains.
//! Deployed ICS networks, though, overwhelmingly carry Modbus **TCP**:
//! the same PDUs wrapped in an MBAP header (transaction id, protocol id,
//! length, unit id) over TCP port 502, with the serial CRC dropped in
//! favor of TCP's own checksum. This crate closes that gap in three
//! pieces, none of which allocate per frame in steady state — the
//! engine's counting-allocator test covers the whole path:
//!
//! * [`MbapDecoder`] — an incremental MBAP framing state machine over one
//!   TCP byte stream. Feed it arbitrary segment boundaries; it re-syncs
//!   after garbage, counts what it skipped, and re-encapsulates each PDU
//!   as an RTU ADU (`unit + PDU + CRC16`) in a reusable buffer so the
//!   entire existing pipeline — lenient decode, payload features, CRC
//!   statistics — applies unchanged.
//! * [`PcapReader`] / [`WireReplay`] — a pcap/pcapng reader that borrows
//!   every packet straight out of the capture buffer (no per-frame
//!   copies) and a replay driver that demultiplexes TCP connections,
//!   assigns each one a stable [`RawFrame::link`], and streams decoded
//!   frames into a caller-provided sink at line rate.
//! * [`WireServer`] — a dependency-free poll loop over nonblocking
//!   sockets accepting many concurrent master/PLC connections, for live
//!   monitoring without pulling in an async runtime.
//!
//! [`fixture`] builds deterministic capture files (Ethernet/IPv4/TCP
//! encapsulation) from RTU byte streams — the committed test fixture and
//! the perf ledger's wire workloads both come from it.
//!
//! [`RawFrame`]: icsad_engine::RawFrame
//! [`RawFrame::link`]: icsad_engine::RawFrame::link

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixture;
pub mod mbap;
pub mod pcap;
pub mod replay;
pub mod server;

pub use mbap::{DecoderStats, MbapDecoder, MbapFrame, MBAP_HEADER_LEN, MBAP_MAX_LENGTH_FIELD};
pub use pcap::{CapturedPacket, PcapError, PcapReader};
pub use replay::{ReplayStats, WireReplay};
pub use server::{ServerStats, WireServer};

/// The IANA-registered Modbus-TCP port; replay uses it to tell commands
/// (to port 502) from responses (from port 502).
pub const MODBUS_TCP_PORT: u16 = 502;
