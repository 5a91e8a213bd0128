//! Discretization configuration (paper Table III).

use crate::codec::{put_u64, put_usize, Reader};
use crate::error::FeatureError;

/// K-means cluster count for the inter-package time interval (Table III:
/// 2+1).
pub const TIME_INTERVAL_CLUSTERS: usize = 2;
/// K-means cluster count for the CRC rate (Table III: 2+1).
pub const CRC_RATE_CLUSTERS: usize = 2;
/// K-means cluster count for the joint 5-dimensional PID vector (Table
/// III: 32+1).
pub const PID_CLUSTERS: usize = 32;
/// Maximum Lloyd iterations for every k-means fit.
pub(crate) const KMEANS_ITERS: usize = 100;
/// Seed of the k-means initializations (each feature XORs its own salt).
pub(crate) const KMEANS_SEED: u64 = 0;

/// Granularity settings for the continuous-feature discretization: the two
/// even-interval features the paper sweeps in Fig. 5
/// ([`crate::granularity::sweep`]). The k-means features are fixed
/// ([`TIME_INTERVAL_CLUSTERS`], [`CRC_RATE_CLUSTERS`], [`PID_CLUSTERS`]).
///
/// The defaults reproduce Table III of the paper:
///
/// | feature | method | values |
/// |---|---|---|
/// | time interval | k-means | 2+1 |
/// | crc rate | k-means | 2+1 |
/// | pressure measurement | even intervals | 20+1 |
/// | setpoint | even intervals | 10+1 |
/// | PID parameters (5, jointly) | k-means | 32+1 |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscretizationConfig {
    /// Even-interval bin count for the pressure measurement.
    pub pressure_bins: usize,
    /// Even-interval bin count for the set point.
    pub setpoint_bins: usize,
}

impl DiscretizationConfig {
    /// The granularities chosen in the paper (Table III).
    pub fn paper_defaults() -> Self {
        DiscretizationConfig {
            pressure_bins: 20,
            setpoint_bins: 10,
        }
    }

    /// Validates that every granularity is positive and fits the `u16`
    /// category space ([`crate::DiscreteVector`] components and their
    /// sentinels are `u16`, and serialized discretizers enforce the same
    /// bound on load — an over-wide granularity would train a detector
    /// whose artifact could never be read back).
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), FeatureError> {
        // Leave room for the out-of-range and absent sentinels.
        let max_granularity = usize::from(u16::MAX) - 1;
        let granularities = [
            ("pressure_bins", self.pressure_bins),
            ("setpoint_bins", self.setpoint_bins),
        ];
        for (name, value) in granularities {
            if value == 0 {
                return Err(FeatureError::InvalidConfig {
                    reason: format!("{name} must be positive"),
                });
            }
            if value > max_granularity {
                return Err(FeatureError::InvalidConfig {
                    reason: format!("{name} exceeds the u16 category space ({max_granularity})"),
                });
            }
        }
        Ok(())
    }

    /// Appends the configuration, the fixed k-means settings in their
    /// places among the two free granularities.
    pub(crate) fn write_into(&self, out: &mut Vec<u8>) {
        put_usize(out, TIME_INTERVAL_CLUSTERS);
        put_usize(out, CRC_RATE_CLUSTERS);
        put_usize(out, self.pressure_bins);
        put_usize(out, self.setpoint_bins);
        put_usize(out, PID_CLUSTERS);
        put_usize(out, KMEANS_ITERS);
        put_u64(out, KMEANS_SEED);
    }

    /// Reads a configuration written by
    /// [`DiscretizationConfig::write_into`]; `None` if the bytes run out,
    /// a fixed k-means setting differs from its constant (the section was
    /// not fitted by this recipe), or the configuration fails
    /// [`DiscretizationConfig::validate`].
    pub(crate) fn read_from(r: &mut Reader<'_>) -> Option<Self> {
        let fixed = |r: &mut Reader<'_>, value: usize| (r.usize_()? == value).then_some(());
        fixed(r, TIME_INTERVAL_CLUSTERS)?;
        fixed(r, CRC_RATE_CLUSTERS)?;
        let config = DiscretizationConfig {
            pressure_bins: r.usize_()?,
            setpoint_bins: r.usize_()?,
        };
        fixed(r, PID_CLUSTERS)?;
        fixed(r, KMEANS_ITERS)?;
        (r.u64()? == KMEANS_SEED).then_some(())?;
        config.validate().ok()?;
        Some(config)
    }
}

impl Default for DiscretizationConfig {
    fn default() -> Self {
        DiscretizationConfig::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_iii() {
        let c = DiscretizationConfig::paper_defaults();
        assert_eq!(TIME_INTERVAL_CLUSTERS, 2);
        assert_eq!(CRC_RATE_CLUSTERS, 2);
        assert_eq!(c.pressure_bins, 20);
        assert_eq!(c.setpoint_bins, 10);
        assert_eq!(PID_CLUSTERS, 32);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn serialization_round_trip_and_rejection() {
        let c = DiscretizationConfig {
            pressure_bins: 7,
            setpoint_bins: 3,
        };
        let to_bytes = |c: &DiscretizationConfig| {
            let mut out = Vec::new();
            c.write_into(&mut out);
            out
        };
        let from_bytes =
            |bytes: &[u8]| crate::codec::tests::decode_all(bytes, DiscretizationConfig::read_from);
        assert_eq!(from_bytes(&to_bytes(&c)), Some(c));
        assert!(from_bytes(&[]).is_none());
        let mut bytes = to_bytes(&DiscretizationConfig::paper_defaults());
        bytes.pop();
        assert!(from_bytes(&bytes).is_none());
        bytes.extend_from_slice(&[0; 9]);
        assert!(from_bytes(&bytes).is_none(), "trailing bytes");
        // A zero granularity is rejected even when well-framed.
        let mut invalid = DiscretizationConfig::paper_defaults();
        invalid.pressure_bins = 0;
        assert!(from_bytes(&to_bytes(&invalid)).is_none());
    }

    #[test]
    fn zero_granularities_rejected() {
        let mut c = DiscretizationConfig::paper_defaults();
        c.pressure_bins = 0;
        assert!(c.validate().is_err());
        let mut c = DiscretizationConfig::paper_defaults();
        c.setpoint_bins = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn oversized_granularities_rejected() {
        // Granularities beyond the u16 category space would train a
        // detector whose serialized artifact the decoders (correctly)
        // refuse — fail at configuration time instead.
        let mut c = DiscretizationConfig::paper_defaults();
        c.pressure_bins = usize::from(u16::MAX);
        assert!(c.validate().is_err());
        let mut c = DiscretizationConfig::paper_defaults();
        c.setpoint_bins = usize::MAX;
        assert!(c.validate().is_err());
        // The widest legal granularity still validates.
        let mut c = DiscretizationConfig::paper_defaults();
        c.setpoint_bins = usize::from(u16::MAX) - 1;
        assert!(c.validate().is_ok());
        let mut c = DiscretizationConfig::paper_defaults();
        c.pressure_bins = usize::from(u16::MAX) - 1;
        assert!(c.validate().is_ok());
    }
}
