//! The PID pressure controller.
//!
//! The controller is parameterized exactly by the five PID features of the
//! dataset (gain, reset rate, rate, dead band, cycle time) plus the set
//! point, and produces bang-bang actuator decisions for whichever actuator
//! the control scheme selects (compressor pump or solenoid relief valve).

use icsad_modbus::pipeline::{ControlScheme, PidSettings};

/// Discrete actuator decision taken once per controller cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActuatorCommand {
    /// Whether the compressor pump should run.
    pub pump_on: bool,
    /// Whether the solenoid relief valve should be open.
    pub solenoid_open: bool,
}

/// A textbook PID controller with dead-band thresholding.
///
/// The continuous PID output `u = Kp e + Ki ∫e + Kd de/dt` is mapped onto the
/// binary actuators of the pipeline: under the *pump* scheme a positive `u`
/// beyond the dead band starts the compressor; under the *solenoid* scheme a
/// negative `u` beyond the dead band opens the relief valve.
#[derive(Debug, Clone)]
pub struct PidController {
    settings: PidSettings,
    integral: f64,
    last_error: Option<f64>,
}

impl PidController {
    /// Creates a controller with the given settings.
    pub fn new(settings: PidSettings) -> Self {
        PidController {
            settings,
            integral: 0.0,
            last_error: None,
        }
    }

    /// Replaces the settings (an operator or attacker wrote new parameters)
    /// and resets the internal state.
    pub fn reconfigure(&mut self, settings: PidSettings) {
        self.settings = settings;
        self.reset();
    }

    /// Clears the integral and derivative history.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.last_error = None;
    }

    /// Computes the continuous control output for a pressure measurement.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn control_output(&mut self, pressure: f64, dt: f64) -> f64 {
        assert!(dt > 0.0, "dt must be positive");
        let s = &self.settings;
        let error = s.setpoint - pressure;
        // Anti-windup: clamp the integral to a sane band.
        self.integral = (self.integral + error * dt).clamp(-100.0, 100.0);
        let derivative = match self.last_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.last_error = Some(error);
        s.gain * error + s.reset_rate * self.integral + s.rate * derivative
    }

    /// Runs one control cycle and maps the output onto the actuators for the
    /// given control scheme.
    ///
    /// Within the dead band both actuators rest (pump off, valve closed).
    pub fn step(&mut self, pressure: f64, dt: f64, scheme: ControlScheme) -> ActuatorCommand {
        let u = self.control_output(pressure, dt);
        let half_band = self.settings.deadband / 2.0;
        match scheme {
            ControlScheme::Pump => ActuatorCommand {
                pump_on: u > half_band,
                solenoid_open: u < -half_band,
            },
            ControlScheme::Solenoid => ActuatorCommand {
                // The solenoid scheme holds the pump on and regulates by
                // venting excess pressure.
                pump_on: u > -half_band,
                solenoid_open: u < -half_band,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings() -> PidSettings {
        PidSettings {
            setpoint: 10.0,
            gain: 4.0,
            reset_rate: 0.5,
            deadband: 1.0,
            cycle_time: 1.0,
            rate: 0.1,
        }
    }

    #[test]
    fn below_setpoint_starts_pump() {
        let mut pid = PidController::new(settings());
        let cmd = pid.step(5.0, 1.0, ControlScheme::Pump);
        assert!(cmd.pump_on);
        assert!(!cmd.solenoid_open);
    }

    #[test]
    fn above_setpoint_opens_valve() {
        let mut pid = PidController::new(settings());
        let cmd = pid.step(15.0, 1.0, ControlScheme::Pump);
        assert!(!cmd.pump_on);
        assert!(cmd.solenoid_open);
    }

    #[test]
    fn inside_deadband_rests() {
        let mut pid = PidController::new(PidSettings {
            gain: 1.0,
            reset_rate: 0.0,
            rate: 0.0,
            deadband: 2.0,
            ..settings()
        });
        let cmd = pid.step(10.5, 1.0, ControlScheme::Pump);
        assert!(!cmd.pump_on);
        assert!(!cmd.solenoid_open);
    }

    #[test]
    fn solenoid_scheme_vents_over_pressure() {
        let mut pid = PidController::new(settings());
        let cmd = pid.step(15.0, 1.0, ControlScheme::Solenoid);
        assert!(cmd.solenoid_open);
        let mut pid = PidController::new(settings());
        let cmd = pid.step(9.8, 1.0, ControlScheme::Solenoid);
        assert!(cmd.pump_on);
        assert!(!cmd.solenoid_open);
    }

    #[test]
    fn integral_accumulates_persistent_error() {
        let mut pid = PidController::new(PidSettings {
            gain: 0.0,
            reset_rate: 1.0,
            rate: 0.0,
            ..settings()
        });
        let u1 = pid.control_output(9.0, 1.0);
        let u2 = pid.control_output(9.0, 1.0);
        assert!(u2 > u1, "integral term should grow: {u1} -> {u2}");
    }

    #[test]
    fn integral_is_clamped() {
        let mut pid = PidController::new(PidSettings {
            gain: 0.0,
            reset_rate: 1.0,
            rate: 0.0,
            ..settings()
        });
        for _ in 0..10_000 {
            pid.control_output(0.0, 1.0);
        }
        let u = pid.control_output(0.0, 1.0);
        assert!(u <= 100.0 * 10.0 + 1e9, "control output stays finite");
        assert!(u.is_finite());
    }

    #[test]
    fn derivative_reacts_to_change() {
        let mut pid = PidController::new(PidSettings {
            gain: 0.0,
            reset_rate: 0.0,
            rate: 1.0,
            ..settings()
        });
        let _ = pid.control_output(10.0, 1.0); // error 0
        let u = pid.control_output(8.0, 1.0); // error jumps to +2
        assert!(u > 0.0);
    }

    #[test]
    fn reconfigure_resets_state() {
        let mut pid = PidController::new(settings());
        let _ = pid.control_output(0.0, 1.0);
        pid.reconfigure(settings());
        // Derivative history cleared: first output has no derivative kick.
        let u_fresh = PidController::new(settings()).control_output(5.0, 1.0);
        let u_after = pid.control_output(5.0, 1.0);
        assert!((u_fresh - u_after).abs() < 1e-12);
    }

    #[test]
    fn closed_loop_converges_near_setpoint() {
        use crate::physics::{PhysicsConfig, PipelinePhysics};
        use rand::SeedableRng;
        use rand_chacha::ChaCha12Rng;

        let mut physics = PipelinePhysics::new(
            PhysicsConfig {
                noise_std: 0.01,
                ..PhysicsConfig::default()
            },
            0.0,
        );
        let mut pid = PidController::new(settings());
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut last = 0.0;
        for _ in 0..600 {
            let cmd = pid.step(physics.pressure(), 0.5, ControlScheme::Pump);
            last = physics.step(cmd.pump_on, cmd.solenoid_open, 0.5, &mut rng);
        }
        assert!(
            (last - 10.0).abs() < 2.5,
            "closed loop should settle near the 10 PSI setpoint, got {last}"
        );
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn non_positive_dt_panics() {
        PidController::new(settings()).control_output(1.0, 0.0);
    }
}
