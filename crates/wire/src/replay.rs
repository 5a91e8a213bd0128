//! Capture replay: pcap image → demultiplexed [`RawFrame`] stream.
//!
//! [`WireReplay`] walks a capture with [`PcapReader`] (borrowed packets,
//! no copies), peels Ethernet II (through up to two 802.1Q/802.1ad VLAN
//! tags) / IPv4 / TCP, groups segments into
//! connections by canonical 4-tuple, and runs one [`MbapDecoder`] per
//! connection **direction** so interleaved command and response streams
//! never confuse each other's framing. Each decoded frame becomes a
//! [`RawFrame`]:
//!
//! * `link` — the connection's id, assigned in first-seen order starting
//!   at 0, so a single-connection capture lands on link 0 exactly like
//!   direct ingest of the same traffic;
//! * `is_command` — true when the segment was addressed **to** port 502
//!   (master → PLC), matching the Modbus-TCP convention;
//! * `wire` — the RTU re-encapsulation, inline in the frame
//!   ([`FrameBytes`]) — no allocation for ordinary frame sizes;
//! * `label` — always `None`; captures carry no ground truth.
//!
//! Non-IPv4/TCP packets (ARP, ICMP, IPv6) and IPv4 fragments (there is no
//! reassembly) are counted and skipped, and TCP segments are consumed in
//! file order — the replayer trusts the
//! capture to be in-order, as single-host captures of a polling master
//! are.

use std::collections::HashMap;

use icsad_engine::{FrameBytes, RawFrame};

use crate::mbap::MbapDecoder;
use crate::pcap::{PcapError, PcapReader};

/// One endpoint of a TCP connection.
type Endpoint = ([u8; 4], u16);

/// Counters for one replay pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Link-layer packets seen in the capture.
    pub packets: u64,
    /// Modbus frames emitted to the sink.
    pub frames: u64,
    /// Packets that were not Ethernet/IPv4/TCP (or too short to be), and
    /// IPv4 fragments.
    pub ignored_packets: u64,
    /// Distinct TCP connections observed (cumulative: reconnects count
    /// again).
    pub connections: u32,
    /// Connections closed by a FIN or RST segment.
    pub closed_connections: u64,
    /// Stream bytes discarded while the MBAP decoders resynchronized.
    pub skipped_bytes: u64,
    /// Distinct garbage runs survived across all decoders.
    pub resyncs: u64,
}

/// Per-connection decoding state: one decoder per direction.
struct Connection {
    to_slave: MbapDecoder,
    to_master: MbapDecoder,
}

/// Streaming capture replayer (see the module docs).
#[derive(Default)]
pub struct WireReplay {
    // Keyed lookup only; link ids are handed out in packet arrival order,
    // so iteration order never matters.
    conn_ids: HashMap<(Endpoint, Endpoint), usize>,
    conns: Vec<Connection>,
    /// Link ids of closed connections whose decoder slots may be handed
    /// to future connections. Ids move here only via
    /// [`WireReplay::drain_closed_links`], so a caller that never drains
    /// (the monolithic [`WireReplay::replay`] path) still sees monotonic
    /// first-seen link ids.
    free_ids: Vec<usize>,
    /// Links closed since the last [`WireReplay::drain_closed_links`].
    closed: Vec<u32>,
    /// Cumulative connections opened (reconnects count again).
    opened: u32,
    closed_count: u64,
    /// Decoder counters folded in from closed connections.
    folded_skipped: u64,
    folded_resyncs: u64,
    packets: u64,
    frames: u64,
    ignored: u64,
}

impl WireReplay {
    /// A replayer with no connections yet.
    pub fn new() -> Self {
        WireReplay::default()
    }

    /// Replays a whole capture image into `sink`, returning the final
    /// counters. State persists across calls, so multi-file captures of
    /// the same session can be replayed back to back.
    ///
    /// # Errors
    ///
    /// Propagates [`PcapError`] from the container parser; everything
    /// above the container (truncated IP headers, garbled MBAP) degrades
    /// to counters instead of failing.
    pub fn replay<F: FnMut(RawFrame)>(
        &mut self,
        capture: &[u8],
        mut sink: F,
    ) -> Result<ReplayStats, PcapError> {
        let mut reader = PcapReader::new(capture)?;
        while let Some(packet) = reader.next()? {
            self.handle_packet(packet.time, packet.data, &mut sink);
        }
        Ok(self.stats())
    }

    /// Feeds one link-layer packet (for callers driving their own capture
    /// source, e.g. a live ring buffer).
    pub fn handle_packet<F: FnMut(RawFrame)>(&mut self, time: f64, data: &[u8], sink: &mut F) {
        self.packets += 1;
        let Some(TcpSegment {
            key,
            is_command,
            fin_rst,
            payload,
        }) = parse_tcp(data)
        else {
            self.ignored += 1;
            return;
        };
        let conn_id = match self.conn_ids.get(&key) {
            Some(&id) => id,
            None => {
                let id = match self.free_ids.pop() {
                    Some(id) => id,
                    None => {
                        self.conns.push(Connection {
                            to_slave: MbapDecoder::new(),
                            to_master: MbapDecoder::new(),
                        });
                        self.conns.len() - 1
                    }
                };
                self.conn_ids.insert(key, id);
                self.opened += 1;
                id
            }
        };
        let decoder = if is_command {
            &mut self.conns[conn_id].to_slave
        } else {
            &mut self.conns[conn_id].to_master
        };
        decoder.push(payload);
        while let Some(frame) = decoder.next_frame() {
            self.frames += 1;
            sink(RawFrame {
                time,
                wire: FrameBytes::from(frame.adu),
                is_command,
                label: None,
                link: conn_id as u32,
            });
        }
        // A FIN or RST (either direction) ends the connection: any data it
        // carried was processed above, so fold the decoder counters, reset
        // the slot and mark the link id closed. The id is not reused until
        // the caller acknowledges the close via `drain_closed_links`.
        if fin_rst {
            self.conn_ids.remove(&key);
            let conn = &mut self.conns[conn_id];
            for dec in [&mut conn.to_slave, &mut conn.to_master] {
                self.folded_skipped += dec.stats().skipped_bytes;
                self.folded_resyncs += dec.stats().resyncs;
                *dec = MbapDecoder::new();
            }
            self.closed_count += 1;
            self.closed.push(conn_id as u32);
        }
    }

    /// Moves the link ids of connections closed since the last call into
    /// `out` and releases them for reuse by future connections.
    ///
    /// Callers that feed an engine should retire each drained link before
    /// ingesting further packets, so a reconnect that lands on a recycled
    /// id starts from a cold lane. Callers that never drain keep strictly
    /// monotonic first-seen ids.
    pub fn drain_closed_links(&mut self, out: &mut Vec<u32>) {
        for &link in &self.closed {
            self.free_ids.push(link as usize);
            out.push(link);
        }
        self.closed.clear();
    }

    /// Counters so far, aggregated across all connection decoders.
    pub fn stats(&self) -> ReplayStats {
        let mut stats = ReplayStats {
            packets: self.packets,
            frames: self.frames,
            ignored_packets: self.ignored,
            connections: self.opened,
            closed_connections: self.closed_count,
            skipped_bytes: self.folded_skipped,
            resyncs: self.folded_resyncs,
        };
        for conn in &self.conns {
            for dec in [&conn.to_slave, &conn.to_master] {
                stats.skipped_bytes += dec.stats().skipped_bytes;
                stats.resyncs += dec.stats().resyncs;
            }
        }
        stats
    }
}

/// One peeled TCP segment (see [`parse_tcp`]).
struct TcpSegment<'a> {
    /// Canonical connection key (both directions hash to one connection).
    key: (Endpoint, Endpoint),
    /// Destination port is 502: master → slave traffic.
    is_command: bool,
    /// The segment carries a FIN or RST flag.
    fin_rst: bool,
    /// TCP payload bytes.
    payload: &'a [u8],
}

/// Peels Ethernet II / IPv4 / TCP; `None` for anything that is not a
/// well-formed Modbus-capable TCP segment.
fn parse_tcp(data: &[u8]) -> Option<TcpSegment<'_>> {
    // Ethernet II: two MACs, then up to two 802.1Q / 802.1ad VLAN tags
    // (TPID + TCI, 4 bytes each), then the IPv4 ethertype.
    let mut ethertype = 12;
    for _ in 0..2 {
        if matches!(
            data.get(ethertype..ethertype + 2),
            Some([0x81, 0x00] | [0x88, 0xA8])
        ) {
            ethertype += 4;
        }
    }
    if !matches!(data.get(ethertype..ethertype + 2), Some([0x08, 0x00])) {
        return None;
    }
    let ip = &data[ethertype + 2..];
    if ip.len() < 20 || ip[0] >> 4 != 4 {
        return None;
    }
    // A fragment (more-fragments flag or a non-zero offset) carries either
    // a TCP header with a partial payload or, past the first, no TCP header
    // at all; without reassembly neither may reach a decoder.
    if u16::from_be_bytes([ip[6], ip[7]]) & 0x3FFF != 0 {
        return None;
    }
    let ihl = usize::from(ip[0] & 0x0F) * 4;
    let total_len = usize::from(u16::from_be_bytes([ip[2], ip[3]]));
    if ihl < 20 || total_len < ihl || total_len > ip.len() || ip[9] != 6 {
        return None;
    }
    let src_ip: [u8; 4] = ip[12..16].try_into().ok()?;
    let dst_ip: [u8; 4] = ip[16..20].try_into().ok()?;
    let tcp = &ip[ihl..total_len];
    if tcp.len() < 20 {
        return None;
    }
    let src_port = u16::from_be_bytes([tcp[0], tcp[1]]);
    let dst_port = u16::from_be_bytes([tcp[2], tcp[3]]);
    let data_off = usize::from(tcp[12] >> 4) * 4;
    if data_off < 20 || data_off > tcp.len() {
        return None;
    }
    let a = (src_ip, src_port);
    let b = (dst_ip, dst_port);
    Some(TcpSegment {
        // Canonical ordering makes both directions hash to one connection.
        key: if a <= b { (a, b) } else { (b, a) },
        is_command: dst_port == crate::MODBUS_TCP_PORT,
        fin_rst: tcp[13] & 0x05 != 0,
        payload: &tcp[data_off..],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::CaptureBuilder;
    use icsad_modbus::crc::crc16;

    fn rtu(unit: u8, pdu: &[u8]) -> Vec<u8> {
        let mut adu = Vec::new();
        adu.push(unit);
        adu.extend_from_slice(pdu);
        let crc = crc16(&adu);
        adu.extend_from_slice(&crc.to_le_bytes());
        adu
    }

    #[test]
    fn single_connection_round_trips_bit_identically() {
        let cmd = rtu(4, &[0x03, 0x00, 0x2A]);
        let rsp = rtu(4, &[0x03, 0x02, 0x01, 0x02]);
        let mut builder = CaptureBuilder::new();
        builder.modbus(1.0, &cmd, true);
        builder.modbus(1.1, &rsp, false);
        let image = builder.finish();

        let mut frames = Vec::new();
        let mut replay = WireReplay::new();
        let stats = replay.replay(&image, |f| frames.push(f)).unwrap();

        assert_eq!(stats.packets, 2);
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.ignored_packets, 0);
        assert_eq!(stats.skipped_bytes, 0);

        assert_eq!(frames.len(), 2);
        assert_eq!(&*frames[0].wire, &cmd[..], "command RTU must round-trip");
        assert!(frames[0].is_command);
        assert_eq!(frames[0].link, 0);
        assert!(frames[0].wire.is_inline());
        assert_eq!(&*frames[1].wire, &rsp[..]);
        assert!(!frames[1].is_command);
        assert!((frames[1].time - 1.1).abs() < 1e-6);
        assert!(frames.iter().all(|f| f.label.is_none()));
    }

    #[test]
    fn connections_get_link_ids_in_first_seen_order() {
        let mut builder = CaptureBuilder::new();
        builder.modbus_on(2, 1.0, &rtu(9, &[0x03, 0x01]), true);
        builder.modbus_on(0, 1.1, &rtu(4, &[0x03, 0x02]), true);
        builder.modbus_on(2, 1.2, &rtu(9, &[0x03, 0x03]), false);
        builder.modbus_on(1, 1.3, &rtu(7, &[0x03, 0x04]), true);
        let image = builder.finish();

        let mut links = Vec::new();
        let mut replay = WireReplay::new();
        let stats = replay.replay(&image, |f| links.push(f.link)).unwrap();
        assert_eq!(stats.connections, 3);
        // First-seen order, and the response rides its command's link.
        assert_eq!(links, vec![0, 1, 0, 2]);
    }

    #[test]
    fn non_modbus_packets_are_counted_not_fatal() {
        let mut builder = CaptureBuilder::new();
        builder.raw_packet(0.5, &[0xFF; 60]); // not Ethernet/IPv4
        builder.raw_packet(0.6, &[0x00; 10]); // too short for Ethernet
        builder.modbus(1.0, &rtu(4, &[0x03, 0x00]), true);
        let image = builder.finish();

        let mut count = 0usize;
        let mut replay = WireReplay::new();
        let stats = replay.replay(&image, |_| count += 1).unwrap();
        assert_eq!(stats.packets, 3);
        assert_eq!(stats.ignored_packets, 2);
        assert_eq!(stats.frames, 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn fin_closes_connection_and_reconnect_reuses_drained_link() {
        let mut builder = CaptureBuilder::new();
        builder.modbus(1.0, &rtu(4, &[0x03, 0x01]), true);
        builder.close(0, 1.1);
        // Reconnect on the same 4-tuple: a brand-new connection.
        builder.modbus(1.2, &rtu(4, &[0x03, 0x02]), true);
        let image = builder.finish();

        // Without draining, the reconnect gets a fresh monotonic id.
        let mut links = Vec::new();
        let mut replay = WireReplay::new();
        let stats = replay.replay(&image, |f| links.push(f.link)).unwrap();
        assert_eq!(links, vec![0, 1]);
        assert_eq!(stats.connections, 2, "reconnect counts as a new connection");
        assert_eq!(stats.closed_connections, 1);

        // Draining between the close and the reconnect recycles link 0.
        let mut reader = crate::pcap::PcapReader::new(&image).unwrap();
        let mut replay = WireReplay::new();
        let mut links = Vec::new();
        let mut closed = Vec::new();
        while let Some(packet) = reader.next().unwrap() {
            replay.handle_packet(packet.time, packet.data, &mut |f| links.push(f.link));
            replay.drain_closed_links(&mut closed);
        }
        assert_eq!(links, vec![0, 0]);
        assert_eq!(closed, vec![0]);
        assert_eq!(replay.stats().connections, 2);
        assert_eq!(replay.stats().closed_connections, 1);
    }

    #[test]
    fn undrained_close_does_not_recycle_link_ids() {
        let mut builder = CaptureBuilder::new();
        builder.modbus_on(0, 1.0, &rtu(4, &[0x03, 0x01]), true);
        builder.close(0, 1.1);
        builder.modbus_on(1, 1.2, &rtu(7, &[0x03, 0x02]), true);
        let image = builder.finish();

        let mut links = Vec::new();
        let mut replay = WireReplay::new();
        replay.replay(&image, |f| links.push(f.link)).unwrap();
        // Connection index 1 must not land on the closed-but-undrained 0.
        assert_eq!(links, vec![0, 1]);
    }

    #[test]
    fn decoder_counters_survive_connection_close() {
        // Garbage bytes force a resync, then the connection closes: the
        // skipped/resync counters must not vanish with the decoder.
        let cmd = rtu(4, &[0x03, 0x00, 0x2A]);
        let mut builder = CaptureBuilder::new();
        builder.modbus(1.0, &cmd, true);
        let image = builder.finish();
        // Corrupt the MBAP protocol-id field so the decoder resyncs.
        let mut bad = image.clone();
        let mbap_off = 24 + 16 + 54;
        bad[mbap_off + 2] = 0xFF;

        let mut replay = WireReplay::new();
        replay.replay(&bad, |_| {}).unwrap();
        let before = replay.stats();
        assert!(before.skipped_bytes > 0, "corruption must skip bytes");

        let mut closer = CaptureBuilder::new();
        closer.modbus(2.0, &cmd, true);
        closer.close(0, 2.1);
        let close_image = closer.finish();
        // Feed only the FIN record (skip global header + first packet).
        let mut reader = crate::pcap::PcapReader::new(&close_image).unwrap();
        reader.next().unwrap();
        let fin = reader.next().unwrap().unwrap();
        replay.handle_packet(fin.time, fin.data, &mut |_| {});
        let after = replay.stats();
        assert_eq!(after.skipped_bytes, before.skipped_bytes);
        assert_eq!(after.resyncs, before.resyncs);
        assert_eq!(after.closed_connections, 1);
    }

    /// The one link-layer packet a single-command capture holds.
    fn one_packet(rtu_wire: &[u8]) -> Vec<u8> {
        let mut builder = CaptureBuilder::new();
        builder.modbus(1.0, rtu_wire, true);
        builder.finish()[24 + 16..].to_vec()
    }

    fn replay_one(packet: &[u8]) -> (Vec<RawFrame>, ReplayStats) {
        let mut frames = Vec::new();
        let mut replay = WireReplay::new();
        replay.handle_packet(1.0, packet, &mut |f| frames.push(f));
        (frames, replay.stats())
    }

    #[test]
    fn ipv4_fragments_are_ignored_not_parsed_as_tcp() {
        let packet = one_packet(&rtu(4, &[0x03, 0x00, 0x2A]));
        assert_eq!(replay_one(&packet).0.len(), 1);
        // Flags/offset word at IPv4 bytes 6..8: more-fragments alone, then
        // a non-zero offset alone (DF cleared in both).
        for flags_offset in [0x2000u16, 0x00B9] {
            let mut fragment = packet.clone();
            fragment[14 + 6..14 + 8].copy_from_slice(&flags_offset.to_be_bytes());
            let (frames, stats) = replay_one(&fragment);
            assert!(frames.is_empty(), "{flags_offset:#06x}");
            // No connection opened, so no decoder saw a byte.
            let ignored = ReplayStats {
                packets: 1,
                ignored_packets: 1,
                ..ReplayStats::default()
            };
            assert_eq!(stats, ignored, "{flags_offset:#06x}");
        }
    }

    #[test]
    fn vlan_tagged_frames_decode_like_untagged_ones() {
        let packet = one_packet(&rtu(4, &[0x03, 0x00, 0x2A]));
        let (plain, plain_stats) = replay_one(&packet);
        assert_eq!(plain.len(), 1);
        // One 802.1Q tag (VLAN 5), and an 802.1ad outer tag over it.
        let one_tag: &[u8] = &[0x81, 0x00, 0x00, 0x05];
        let two_tags: &[u8] = &[0x88, 0xA8, 0x00, 0x64, 0x81, 0x00, 0x00, 0x05];
        for tags in [one_tag, two_tags] {
            let mut tagged = packet[..12].to_vec();
            tagged.extend_from_slice(tags);
            tagged.extend_from_slice(&packet[12..]);
            assert_eq!(replay_one(&tagged), (plain.clone(), plain_stats));
        }
    }

    #[test]
    fn mbap_split_across_segments_reassembles() {
        // Hand-build two packets whose payloads split one MBAP frame.
        let cmd = rtu(4, &[0x10, 0x00, 0x01, 0x02, 0x03]);
        let mut builder = CaptureBuilder::new();
        builder.modbus(1.0, &cmd, true);
        let image = builder.finish();

        // Re-deliver the single packet's TCP payload in two halves by
        // splitting the captured packet at the TCP payload midpoint.
        let packet = &image[24 + 16..];
        let payload_start = 54; // 14 Ethernet + 20 IP + 20 TCP
        let mid = payload_start + (packet.len() - payload_start) / 2;

        let mut first = packet[..mid].to_vec();
        let second_payload = &packet[mid..];
        let mut second = packet[..payload_start].to_vec();
        second.extend_from_slice(second_payload);
        // Fix each clone's IPv4 total length to match its truncated body.
        for pkt in [&mut first, &mut second] {
            let total = (pkt.len() - 14) as u16;
            pkt[16..18].copy_from_slice(&total.to_be_bytes());
        }

        let mut frames = Vec::new();
        let mut replay = WireReplay::new();
        replay.handle_packet(1.0, &first, &mut |f| frames.push(f));
        assert!(frames.is_empty(), "half a frame must not emit");
        replay.handle_packet(1.0, &second, &mut |f| frames.push(f));
        assert_eq!(frames.len(), 1);
        assert_eq!(&*frames[0].wire, &cmd[..]);
    }
}
