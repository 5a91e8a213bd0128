//! Property-based tests for the traffic simulator.

use icsad_modbus::Frame;
use icsad_simulator::traffic::{TrafficConfig, TrafficGenerator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Captures are reproducible from their seed for any attack probability.
    #[test]
    fn capture_is_seed_deterministic(seed in any::<u64>(), attack in 0.0f64..0.4) {
        let config = TrafficConfig {
            seed,
            attack_probability: attack,
            ..TrafficConfig::default()
        };
        let a = TrafficGenerator::new(config.clone()).generate(400);
        let b = TrafficGenerator::new(config).generate(400);
        prop_assert_eq!(a, b);
    }

    /// Time is strictly monotone and every packet decodes leniently,
    /// regardless of seed and attack mix.
    #[test]
    fn packets_are_wellformed(seed in any::<u64>(), attack in 0.0f64..0.5) {
        let mut gen = TrafficGenerator::new(TrafficConfig {
            seed,
            attack_probability: attack,
            ..TrafficConfig::default()
        });
        let packets = gen.generate(600);
        let mut last = f64::NEG_INFINITY;
        for p in &packets {
            prop_assert!(p.time > last);
            last = p.time;
            let (frame, _) = Frame::decode_lenient(&p.wire).expect("decodable");
            prop_assert!(frame.encode().len() == p.wire.len());
        }
    }

    /// With attacks disabled no packet is ever labelled.
    #[test]
    fn clean_captures_have_no_labels(seed in any::<u64>()) {
        let mut gen = TrafficGenerator::new(TrafficConfig {
            seed,
            attack_probability: 0.0,
            ..TrafficConfig::default()
        });
        prop_assert!(gen.generate(400).iter().all(|p| !p.is_attack()));
    }

    /// Physical plausibility: pressures reported in read responses stay
    /// within the mechanical safety bound for any seed.
    #[test]
    fn reported_pressures_bounded(seed in any::<u64>()) {
        use icsad_modbus::pipeline::decode_read_response;
        use icsad_modbus::FunctionCode;
        let config = TrafficConfig {
            seed,
            attack_probability: 0.05,
            ..TrafficConfig::default()
        };
        let max = config.physics.max_pressure;
        let mut gen = TrafficGenerator::new(config);
        for p in gen.generate(600) {
            if p.is_command {
                continue;
            }
            if let Ok((frame, true)) = Frame::decode_lenient(&p.wire) {
                if frame.function() == FunctionCode::ReadHoldingRegisters {
                    if let Ok(state) = decode_read_response(&frame) {
                        prop_assert!((0.0..=max + 1e-9).contains(&state.pressure));
                    }
                }
            }
        }
    }
}
