//! Deterministic Modbus-TCP capture synthesis.
//!
//! [`CaptureBuilder`] writes a classic pcap image (little endian,
//! microsecond timestamps, LINKTYPE_ETHERNET) from RTU ADUs: each ADU is
//! stripped to its PDU, wrapped in an MBAP header, and encapsulated in
//! Ethernet II / IPv4 / TCP with per-connection sequence numbers and
//! transaction ids (commands mint a fresh transaction id, responses echo
//! the last command's). The committed test fixture, the robustness
//! proptests, and the perf ledger's wire workloads all build captures
//! here, so the bytes under test are reproducible from source.
//!
//! The builder is byte-deterministic: the same call sequence always
//! yields the same image, which the fixture self-check test relies on to
//! prove the committed capture matches its generator.

/// Smallest RTU ADU the builder will wrap: address + one PDU byte + CRC16.
const MIN_RTU_ADU: usize = 4;

const MASTER_IP: [u8; 4] = [10, 0, 0, 1];
const SLAVE_IP: [u8; 4] = [10, 0, 0, 2];
/// First ephemeral master port; connection `n` uses `BASE_PORT + n`.
const BASE_PORT: u16 = 49152;

#[derive(Default)]
struct ConnState {
    next_txn: u16,
    last_txn: u16,
    seq_to_slave: u32,
    seq_to_master: u32,
}

/// Classic-pcap capture writer (see the module docs).
pub struct CaptureBuilder {
    out: Vec<u8>,
    /// Per-connection framing state, keyed by connection index (small,
    /// linear scan — fixtures use a handful of connections).
    conns: Vec<(u16, ConnState)>,
    ip_id: u16,
}

impl Default for CaptureBuilder {
    fn default() -> Self {
        CaptureBuilder::new()
    }
}

impl CaptureBuilder {
    /// Starts a capture: classic pcap global header, little endian,
    /// microsecond timestamps, Ethernet link type.
    pub fn new() -> Self {
        let mut out = Vec::new();
        out.extend_from_slice(&0xA1B2_C3D4u32.to_le_bytes());
        out.extend_from_slice(&2u16.to_le_bytes()); // version major
        out.extend_from_slice(&4u16.to_le_bytes()); // version minor
        out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        out.extend_from_slice(&65535u32.to_le_bytes()); // snaplen
        out.extend_from_slice(&1u32.to_le_bytes()); // LINKTYPE_ETHERNET
        CaptureBuilder {
            out,
            conns: Vec::new(),
            ip_id: 0,
        }
    }

    /// Appends one record with arbitrary link-layer bytes.
    pub fn raw_packet(&mut self, time: f64, data: &[u8]) {
        let secs = time as u32;
        let micros = ((time - f64::from(secs)) * 1e6).round() as u32;
        self.out.extend_from_slice(&secs.to_le_bytes());
        self.out.extend_from_slice(&micros.to_le_bytes());
        self.out
            .extend_from_slice(&(data.len() as u32).to_le_bytes());
        self.out
            .extend_from_slice(&(data.len() as u32).to_le_bytes());
        self.out.extend_from_slice(data);
    }

    /// Appends one Modbus-TCP packet carrying `rtu_wire` (a full RTU ADU:
    /// `address + PDU + CRC16`) on the default connection (index 0).
    pub fn modbus(&mut self, time: f64, rtu_wire: &[u8], is_command: bool) {
        self.modbus_on(0, time, rtu_wire, is_command);
    }

    /// Like [`CaptureBuilder::modbus`] but on connection `conn`; each
    /// connection gets its own master port (`49152 + conn`), sequence
    /// numbers, and transaction-id stream.
    ///
    /// # Panics
    ///
    /// If `rtu_wire` is shorter than a minimal RTU ADU — the fixture
    /// builder wraps well-formed frames; garbage goes in via
    /// [`CaptureBuilder::raw_packet`].
    pub fn modbus_on(&mut self, conn: u16, time: f64, rtu_wire: &[u8], is_command: bool) {
        assert!(
            rtu_wire.len() >= MIN_RTU_ADU,
            "RTU ADU must carry address + PDU + CRC"
        );
        let unit = rtu_wire[0];
        let pdu = &rtu_wire[1..rtu_wire.len() - 2];

        let state = self.conn_state(conn);
        let txn = if is_command {
            let t = state.next_txn;
            state.next_txn = state.next_txn.wrapping_add(1);
            state.last_txn = t;
            t
        } else {
            state.last_txn
        };

        let mut mbap = Vec::with_capacity(crate::MBAP_HEADER_LEN + pdu.len());
        mbap.extend_from_slice(&txn.to_be_bytes());
        mbap.extend_from_slice(&0u16.to_be_bytes());
        mbap.extend_from_slice(&((pdu.len() + 1) as u16).to_be_bytes());
        mbap.push(unit);
        mbap.extend_from_slice(pdu);

        self.tcp_packet(conn, time, is_command, 0x18, &mbap);
    }

    /// Appends a payload-less FIN|ACK from the master closing connection
    /// `conn`, and resets the connection's framing state so a later
    /// packet on the same connection index models a fresh TCP connection
    /// (new sequence numbers and transaction ids on the same 4-tuple).
    ///
    /// # Panics
    ///
    /// If `conn` never carried a packet — closing a connection that was
    /// never opened is a fixture-script bug.
    pub fn close(&mut self, conn: u16, time: f64) {
        assert!(
            self.conns.iter().any(|(id, _)| *id == conn),
            "close of a connection never opened"
        );
        self.tcp_packet(conn, time, true, 0x11, &[]);
        let state = self.conn_state(conn);
        *state = ConnState::default();
    }

    fn conn_state(&mut self, conn: u16) -> &mut ConnState {
        match self.conns.iter_mut().position(|(id, _)| *id == conn) {
            Some(i) => &mut self.conns[i].1,
            None => {
                self.conns.push((conn, ConnState::default()));
                // The entry was pushed on the line above.
                &mut self.conns.last_mut().expect("just pushed").1
            }
        }
    }

    /// Appends one Ethernet II / IPv4 / TCP packet on connection `conn`
    /// carrying `payload` with the given TCP `flags`.
    fn tcp_packet(&mut self, conn: u16, time: f64, is_command: bool, flags: u8, payload: &[u8]) {
        let master_port = BASE_PORT + conn;
        let state = self.conn_state(conn);
        let (src_ip, dst_ip, src_port, dst_port, seq) = if is_command {
            let seq = state.seq_to_slave;
            state.seq_to_slave = state.seq_to_slave.wrapping_add(payload.len() as u32);
            (
                MASTER_IP,
                SLAVE_IP,
                master_port,
                crate::MODBUS_TCP_PORT,
                seq,
            )
        } else {
            let seq = state.seq_to_master;
            state.seq_to_master = state.seq_to_master.wrapping_add(payload.len() as u32);
            (
                SLAVE_IP,
                MASTER_IP,
                crate::MODBUS_TCP_PORT,
                master_port,
                seq,
            )
        };

        let mut pkt = Vec::with_capacity(14 + 20 + 20 + payload.len());
        // Ethernet II: deterministic locally-administered MACs.
        pkt.extend_from_slice(&[0x02, 0, 0, 0, 0, if is_command { 2 } else { 1 }]);
        pkt.extend_from_slice(&[0x02, 0, 0, 0, 0, if is_command { 1 } else { 2 }]);
        pkt.extend_from_slice(&0x0800u16.to_be_bytes());
        // IPv4, no options; checksums left zero (the replay layer does not
        // verify them, and real capture tools accept offloaded zeros).
        let total_len = (20 + 20 + payload.len()) as u16;
        pkt.push(0x45);
        pkt.push(0);
        pkt.extend_from_slice(&total_len.to_be_bytes());
        pkt.extend_from_slice(&self.ip_id.to_be_bytes());
        self.ip_id = self.ip_id.wrapping_add(1);
        pkt.extend_from_slice(&0x4000u16.to_be_bytes()); // DF
        pkt.push(64); // TTL
        pkt.push(6); // TCP
        pkt.extend_from_slice(&0u16.to_be_bytes()); // header checksum
        pkt.extend_from_slice(&src_ip);
        pkt.extend_from_slice(&dst_ip);
        // TCP, no options.
        pkt.extend_from_slice(&src_port.to_be_bytes());
        pkt.extend_from_slice(&dst_port.to_be_bytes());
        pkt.extend_from_slice(&seq.to_be_bytes());
        pkt.extend_from_slice(&0u32.to_be_bytes()); // ack
        pkt.push(5 << 4); // data offset
        pkt.push(flags);
        pkt.extend_from_slice(&0xFFFFu16.to_be_bytes()); // window
        pkt.extend_from_slice(&0u16.to_be_bytes()); // checksum
        pkt.extend_from_slice(&0u16.to_be_bytes()); // urgent
        pkt.extend_from_slice(payload);

        self.raw_packet(time, &pkt);
    }

    /// The finished capture image.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_is_byte_deterministic() {
        let build = || {
            let mut b = CaptureBuilder::new();
            b.modbus(0.5, &[4, 0x03, 0x00, 0x2A, 0xAA, 0xBB], true);
            b.modbus(0.6, &[4, 0x03, 0x02, 0x01, 0x02, 0xCC, 0xDD], false);
            b.modbus_on(1, 0.7, &[7, 0x10, 0x01, 0xEE, 0xFF], true);
            b.finish()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn close_emits_fin_and_resets_connection_state() {
        let build = || {
            let mut b = CaptureBuilder::new();
            b.modbus(0.1, &[4, 0x03, 0x00, 0xAA, 0xBB], true);
            b.close(0, 0.2);
            b.modbus(0.3, &[4, 0x03, 0x01, 0xCC, 0xDD], true);
            b.finish()
        };
        let image = build();
        assert_eq!(image, build(), "close path must stay byte-deterministic");

        // Walk the records: flags byte sits at Ethernet(14)+IP(20)+13
        // within each packet's data.
        let mut flags = Vec::new();
        let mut txns = Vec::new();
        let mut off = 24;
        while off < image.len() {
            let incl = u32::from_le_bytes(image[off + 8..off + 12].try_into().unwrap()) as usize;
            let data = &image[off + 16..off + 16 + incl];
            flags.push(data[14 + 20 + 13]);
            if incl > 54 {
                txns.push(u16::from_be_bytes([data[54], data[55]]));
            }
            off += 16 + incl;
        }
        assert_eq!(flags, vec![0x18, 0x11, 0x18], "PSH|ACK, FIN|ACK, PSH|ACK");
        // The post-close command restarts the transaction-id stream.
        assert_eq!(txns, vec![0, 0]);
    }

    #[test]
    fn command_and_response_share_a_transaction_id() {
        let mut b = CaptureBuilder::new();
        b.modbus(0.1, &[4, 0x03, 0x00, 0xAA, 0xBB], true);
        b.modbus(0.2, &[4, 0x03, 0x01, 0xCC, 0xDD], false);
        b.modbus(0.3, &[4, 0x03, 0x02, 0xEE, 0xFF], true);
        let image = b.finish();
        // Transaction id sits 34 bytes into each packet's link-layer data
        // (14 Ethernet + 20 IP + 20 TCP puts MBAP at offset 54; txn is its
        // first two bytes). Records start after the 24-byte global header.
        let mut txns = Vec::new();
        let mut off = 24;
        while off < image.len() {
            let incl = u32::from_le_bytes(image[off + 8..off + 12].try_into().unwrap()) as usize;
            let data = &image[off + 16..off + 16 + incl];
            txns.push(u16::from_be_bytes([data[54], data[55]]));
            off += 16 + incl;
        }
        assert_eq!(txns, vec![0, 0, 1]);
    }
}
