//! Shared fixture traffic for the wire integration tests: deterministic
//! clean Modbus traffic from the simulator, quantized to pcap timestamp
//! resolution so every path — capture replay, direct ingest, per-record
//! reference — sees bit-identical times.

#![allow(dead_code)] // each test binary uses a subset

use icsad_modbus::Frame;
use icsad_simulator::{Packet, TrafficConfig, TrafficGenerator};
use icsad_wire::fixture::CaptureBuilder;

/// The committed capture fixture, regenerable via
/// `ICSAD_WRITE_FIXTURE=1 cargo test -p icsad-wire --test equivalence`.
pub(crate) const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/modbus_tcp.pcap"
);

/// Rounds a timestamp through the classic-pcap seconds/microseconds split
/// with **exactly** the arithmetic [`CaptureBuilder`] uses to encode and
/// `PcapReader` uses to decode, so a quantized time survives the capture
/// round trip bit-identically.
pub(crate) fn pcap_time(time: f64) -> f64 {
    let secs = time as u32;
    let micros = ((time - f64::from(secs)) * 1e6).round() as u32;
    f64::from(secs) + f64::from(micros) / 1e6
}

/// Three clean (attack-free) polling sessions to units 3, 7, and 11,
/// merged chronologically — the traffic one master connection to a
/// multi-drop gateway would show — with pcap-quantized timestamps.
pub(crate) fn fixture_traffic() -> Vec<Packet> {
    let mut capture: Vec<Packet> = Vec::new();
    for (i, slave) in [3u8, 7, 11].into_iter().enumerate() {
        let mut generator = TrafficGenerator::new(TrafficConfig {
            seed: 400 + i as u64,
            slave_address: slave,
            attack_probability: 0.0,
            // MBAP carries no CRC, so line-noise corruption cannot
            // round-trip through a TCP capture; keep the fixture free of it
            // (a serial-side phenomenon) so re-encapsulation is lossless.
            bad_crc_rate: 0.0,
            ..TrafficConfig::default()
        });
        capture.extend(generator.generate(200));
    }
    capture.sort_by(|a, b| a.time.total_cmp(&b.time));
    for p in &mut capture {
        p.time = pcap_time(p.time);
        assert!(p.label.is_none(), "clean traffic must be unlabeled");
        assert!(
            Frame::decode(&p.wire).is_ok(),
            "fixture traffic must carry valid CRCs (MBAP re-encapsulation \
             recomputes them, so a bad CRC could not round-trip)"
        );
    }
    capture
}

/// The fixture traffic as a single-connection Modbus-TCP capture image.
pub(crate) fn fixture_image(packets: &[Packet]) -> Vec<u8> {
    let mut builder = CaptureBuilder::new();
    for p in packets {
        builder.modbus(p.time, &p.wire, p.is_command);
    }
    builder.finish()
}
