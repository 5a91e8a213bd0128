//! Discretization configuration (paper Table III).

use crate::codec::{put_u64, put_usize, Reader};
use crate::error::FeatureError;

/// Granularity settings for the continuous-feature discretization.
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
    /// K-means cluster count for the inter-package time interval.
    pub time_interval_clusters: usize,
    /// K-means cluster count for the CRC rate.
    pub crc_rate_clusters: usize,
    /// Even-interval bin count for the pressure measurement.
    pub pressure_bins: usize,
    /// Even-interval bin count for the set point.
    pub setpoint_bins: usize,
    /// K-means cluster count for the joint 5-dimensional PID vector.
    pub pid_clusters: usize,
    /// Maximum Lloyd iterations for every k-means fit.
    pub kmeans_iters: usize,
    /// Seed for the k-means initializations.
    pub seed: u64,
}

impl DiscretizationConfig {
    /// The granularities chosen in the paper (Table III).
    pub fn paper_defaults() -> Self {
        DiscretizationConfig {
            time_interval_clusters: 2,
            crc_rate_clusters: 2,
            pressure_bins: 20,
            setpoint_bins: 10,
            pid_clusters: 32,
            kmeans_iters: 100,
            seed: 0,
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
            ("time_interval_clusters", self.time_interval_clusters),
            ("crc_rate_clusters", self.crc_rate_clusters),
            ("pressure_bins", self.pressure_bins),
            ("setpoint_bins", self.setpoint_bins),
            ("pid_clusters", self.pid_clusters),
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
        if self.kmeans_iters == 0 {
            return Err(FeatureError::InvalidConfig {
                reason: "kmeans_iters must be positive".into(),
            });
        }
        Ok(())
    }

    /// Appends the configuration.
    pub(crate) fn write_into(&self, out: &mut Vec<u8>) {
        put_usize(out, self.time_interval_clusters);
        put_usize(out, self.crc_rate_clusters);
        put_usize(out, self.pressure_bins);
        put_usize(out, self.setpoint_bins);
        put_usize(out, self.pid_clusters);
        put_usize(out, self.kmeans_iters);
        put_u64(out, self.seed);
    }

    /// Reads a configuration written by
    /// [`DiscretizationConfig::write_into`]; `None` if the bytes run out or
    /// the configuration fails [`DiscretizationConfig::validate`].
    pub(crate) fn read_from(r: &mut Reader<'_>) -> Option<Self> {
        let config = DiscretizationConfig {
            time_interval_clusters: r.usize_()?,
            crc_rate_clusters: r.usize_()?,
            pressure_bins: r.usize_()?,
            setpoint_bins: r.usize_()?,
            pid_clusters: r.usize_()?,
            kmeans_iters: r.usize_()?,
            seed: r.u64()?,
        };
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
        assert_eq!(c.time_interval_clusters, 2);
        assert_eq!(c.crc_rate_clusters, 2);
        assert_eq!(c.pressure_bins, 20);
        assert_eq!(c.setpoint_bins, 10);
        assert_eq!(c.pid_clusters, 32);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn serialization_round_trip_and_rejection() {
        let c = DiscretizationConfig {
            seed: 0xFEED,
            ..DiscretizationConfig::paper_defaults()
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
        c.pid_clusters = 0;
        assert!(c.validate().is_err());
        let mut c = DiscretizationConfig::paper_defaults();
        c.kmeans_iters = 0;
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
        c.pid_clusters = usize::MAX;
        assert!(c.validate().is_err());
        // The widest legal granularity still validates.
        let mut c = DiscretizationConfig::paper_defaults();
        c.setpoint_bins = usize::from(u16::MAX) - 1;
        assert!(c.validate().is_ok());
    }
}
