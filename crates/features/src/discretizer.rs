//! The per-package discretization `x → c` (paper §IV-A/B).

use icsad_dataset::Record;

use crate::category::CategoryMap;
use crate::codec::Reader;
use crate::config::{
    DiscretizationConfig, CRC_RATE_CLUSTERS, KMEANS_ITERS, KMEANS_SEED, PID_CLUSTERS,
    TIME_INTERVAL_CLUSTERS,
};
use crate::error::FeatureError;
use crate::interval::IntervalPartition;
use crate::kmeans::KMeans;
use crate::signature::Signature;

/// Number of components in the discretized feature vector `c`.
///
/// In order: address, function, length, command/response, time interval,
/// CRC rate, set point, pressure, PID cluster, system mode, control scheme,
/// pump, solenoid.
pub const FEATURE_COUNT: usize = 13;

/// A discretized package: one category index per feature.
pub type DiscreteVector = [u16; FEATURE_COUNT];

/// Fitted discretizer mapping [`Record`]s to [`DiscreteVector`]s.
///
/// Continuous features are discretized per Table III (k-means for naturally
/// clustered features, even intervals otherwise); every feature has an extra
/// sentinel for out-of-range values, and payload features additionally have
/// an *absent* category for packages that do not carry them.
#[derive(Debug, Clone, PartialEq)]
pub struct Discretizer {
    config: DiscretizationConfig,
    address_map: CategoryMap,
    function_map: CategoryMap,
    length_map: CategoryMap,
    time_interval_km: KMeans,
    crc_rate_km: KMeans,
    setpoint_part: IntervalPartition,
    pressure_part: IntervalPartition,
    pid_km: KMeans,
}

impl Discretizer {
    /// Fits all component discretizers on (anomaly-free) training records.
    ///
    /// # Errors
    ///
    /// * [`FeatureError::InvalidConfig`] for zero granularities.
    /// * [`FeatureError::InsufficientData`] if the training data lacks any
    ///   packages carrying set point / pressure / PID payloads.
    pub fn fit(config: &DiscretizationConfig, records: &[Record]) -> Result<Self, FeatureError> {
        config.validate()?;
        if records.is_empty() {
            return Err(FeatureError::InsufficientData {
                what: "discretizer",
                found: 0,
                required: 1,
            });
        }

        let address_map = CategoryMap::fit(records.iter().map(|r| u32::from(r.address)));
        let function_map = CategoryMap::fit(records.iter().map(|r| u32::from(r.function)));
        let length_map = CategoryMap::fit(records.iter().map(|r| u32::from(r.length)));

        let intervals: Vec<f64> = records.iter().map(|r| r.time_interval).collect();
        let time_interval_km = KMeans::fit_1d(
            &intervals,
            TIME_INTERVAL_CLUSTERS,
            KMEANS_ITERS,
            KMEANS_SEED ^ 0x71,
        )?;

        let crc_rates: Vec<f64> = records.iter().map(|r| r.crc_rate).collect();
        let crc_rate_km = KMeans::fit_1d(
            &crc_rates,
            CRC_RATE_CLUSTERS,
            KMEANS_ITERS,
            KMEANS_SEED ^ 0x72,
        )?;

        let setpoints: Vec<f64> = records.iter().filter_map(|r| r.setpoint).collect();
        if setpoints.is_empty() {
            return Err(FeatureError::InsufficientData {
                what: "setpoint partition",
                found: 0,
                required: 1,
            });
        }
        let setpoint_part = IntervalPartition::fit(setpoints, config.setpoint_bins)?;

        let pressures: Vec<f64> = records.iter().filter_map(|r| r.pressure).collect();
        if pressures.is_empty() {
            return Err(FeatureError::InsufficientData {
                what: "pressure partition",
                found: 0,
                required: 1,
            });
        }
        let pressure_part = IntervalPartition::fit(pressures, config.pressure_bins)?;

        let pid_vectors: Vec<Vec<f64>> = records
            .iter()
            .filter_map(|r| r.pid_vector().map(|v| v.to_vec()))
            .collect();
        if pid_vectors.is_empty() {
            return Err(FeatureError::InsufficientData {
                what: "pid clustering",
                found: 0,
                required: 1,
            });
        }
        let pid_km = KMeans::fit(&pid_vectors, PID_CLUSTERS, KMEANS_ITERS, KMEANS_SEED ^ 0x73)?;

        Ok(Discretizer {
            config: config.clone(),
            address_map,
            function_map,
            length_map,
            time_interval_km,
            crc_rate_km,
            setpoint_part,
            pressure_part,
            pid_km,
        })
    }

    /// Per-feature category counts, in [`DiscreteVector`] component order.
    ///
    /// Every discretized component of a record is strictly below the
    /// corresponding cardinality; the one-hot encoder relies on this.
    pub fn cardinalities(&self) -> [usize; FEATURE_COUNT] {
        [
            self.address_map.cardinality(),
            self.function_map.cardinality(),
            self.length_map.cardinality(),
            2,                             // command/response
            self.time_interval_km.k() + 1, // + out-of-range
            self.crc_rate_km.k() + 1,      // + out-of-range
            self.setpoint_part.bins() + 2, // + out-of-range + absent
            self.pressure_part.bins() + 2, // + out-of-range + absent
            self.pid_km.k() + 2,           // + out-of-range + absent
            5,                             // mode 0..2 + out-of-domain + absent
            4,                             // scheme 0..1 + out-of-domain + absent
            4,                             // pump
            4,                             // solenoid
        ]
    }

    /// Discretizes one record.
    pub fn discretize(&self, r: &Record) -> DiscreteVector {
        let km_cat = |km: &KMeans, value: f64| -> u16 {
            let a = km.assign_1d(value);
            if a.in_range {
                a.cluster as u16
            } else {
                km.k() as u16
            }
        };
        let part_cat = |part: &IntervalPartition, value: Option<f64>| -> u16 {
            match value {
                Some(v) => match part.assign(v) {
                    Some(bin) => bin as u16,
                    None => part.bins() as u16, // out-of-range sentinel
                },
                None => part.bins() as u16 + 1, // absent
            }
        };
        let pid_cat = match r.pid_vector() {
            Some(v) => {
                let a = self.pid_km.assign(&v);
                if a.in_range {
                    a.cluster as u16
                } else {
                    self.pid_km.k() as u16
                }
            }
            None => self.pid_km.k() as u16 + 1,
        };
        let mode_cat = match r.system_mode {
            Some(m) if m <= 2 => u16::from(m),
            Some(_) => 3,
            None => 4,
        };
        let binary_cat = |v: Option<u8>| -> u16 {
            match v {
                Some(0) => 0,
                Some(1) => 1,
                Some(_) => 2,
                None => 3,
            }
        };

        [
            self.address_map.index_of(u32::from(r.address)),
            self.function_map.index_of(u32::from(r.function)),
            self.length_map.index_of(u32::from(r.length)),
            u16::from(r.command_response),
            km_cat(&self.time_interval_km, r.time_interval),
            km_cat(&self.crc_rate_km, r.crc_rate),
            part_cat(&self.setpoint_part, r.setpoint),
            part_cat(&self.pressure_part, r.pressure),
            pid_cat,
            mode_cat,
            binary_cat(r.control_scheme),
            binary_cat(r.pump),
            binary_cat(r.solenoid),
        ]
    }

    /// Generates the package signature `s(x) = g(c₁, …, c_o)`.
    ///
    /// `g` concatenates the discretized components with `~`, which satisfies
    /// the paper's uniqueness requirement: two packages share a signature iff
    /// all their discretized components agree.
    pub fn signature(&self, r: &Record) -> Signature {
        Signature::from_components(&self.discretize(r))
    }

    /// Serializes the fitted discretizer — configuration plus every fitted
    /// component (category maps, k-means models, interval partitions) — so
    /// a commissioned deployment can reload it without retraining.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.config.write_into(&mut out);
        self.address_map.write_into(&mut out);
        self.function_map.write_into(&mut out);
        self.length_map.write_into(&mut out);
        self.time_interval_km.write_into(&mut out);
        self.crc_rate_km.write_into(&mut out);
        self.setpoint_part.write_into(&mut out);
        self.pressure_part.write_into(&mut out);
        self.pid_km.write_into(&mut out);
        out
    }

    /// Deserializes a discretizer produced by [`Discretizer::to_bytes`].
    ///
    /// Returns `None` if the buffer is malformed or any component fails its
    /// own validation — including k-means models whose dimensionality does
    /// not match the feature they discretize (scalar features are 1-D, the
    /// joint PID vector 5-D), which would otherwise panic at assign time;
    /// a successfully decoded discretizer produces exactly the same
    /// [`DiscreteVector`]s as the one that was serialized.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let disc = Discretizer {
            config: DiscretizationConfig::read_from(&mut r)?,
            address_map: CategoryMap::read_from(&mut r)?,
            function_map: CategoryMap::read_from(&mut r)?,
            length_map: CategoryMap::read_from(&mut r)?,
            time_interval_km: KMeans::read_from(&mut r)?,
            crc_rate_km: KMeans::read_from(&mut r)?,
            setpoint_part: IntervalPartition::read_from(&mut r)?,
            pressure_part: IntervalPartition::read_from(&mut r)?,
            pid_km: KMeans::read_from(&mut r)?,
        };
        r.finish()?;
        if disc.time_interval_km.dim() != 1 || disc.crc_rate_km.dim() != 1 {
            return None;
        }
        if disc.pid_km.dim() != 5 {
            // `Record::pid_vector` is the jointly clustered [f64; 5].
            return None;
        }
        Some(disc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icsad_dataset::{DatasetConfig, GasPipelineDataset};

    fn clean_records(n: usize, seed: u64) -> Vec<Record> {
        GasPipelineDataset::generate(&DatasetConfig {
            total_packages: n,
            seed,
            attack_probability: 0.0,
            ..DatasetConfig::default()
        })
        .records()
        .to_vec()
    }

    fn fitted(n: usize, seed: u64) -> (Discretizer, Vec<Record>) {
        let records = clean_records(n, seed);
        let disc = Discretizer::fit(&DiscretizationConfig::paper_defaults(), &records).unwrap();
        (disc, records)
    }

    #[test]
    fn discretized_components_respect_cardinalities() {
        let (disc, records) = fitted(2_000, 1);
        let cards = disc.cardinalities();
        for r in &records {
            let v = disc.discretize(r);
            for (i, (&cat, &card)) in v.iter().zip(cards.iter()).enumerate() {
                assert!(
                    (cat as usize) < card,
                    "feature {i}: category {cat} >= cardinality {card}"
                );
            }
        }
    }

    #[test]
    fn training_records_never_hit_unknown_categories() {
        let (disc, records) = fitted(2_000, 2);
        let cards = disc.cardinalities();
        for r in &records {
            let v = disc.discretize(r);
            // address/function/length seen in training can't be unknown.
            assert!((v[0] as usize) < cards[0] - 1);
            assert!((v[1] as usize) < cards[1] - 1);
            assert!((v[2] as usize) < cards[2] - 1);
            // time interval and crc rate of training data are in range.
            assert!((v[4] as usize) < cards[4] - 1);
            assert!((v[5] as usize) < cards[5] - 1);
        }
    }

    #[test]
    fn same_record_same_signature() {
        let (disc, records) = fitted(500, 3);
        let a = disc.signature(&records[17]);
        let b = disc.signature(&records[17]);
        assert_eq!(a, b);
    }

    #[test]
    fn signature_unique_iff_components_equal() {
        let (disc, records) = fitted(1_000, 4);
        for pair in records.windows(2) {
            let va = disc.discretize(&pair[0]);
            let vb = disc.discretize(&pair[1]);
            let sa = disc.signature(&pair[0]);
            let sb = disc.signature(&pair[1]);
            assert_eq!(va == vb, sa == sb);
        }
    }

    #[test]
    fn out_of_range_pressure_hits_sentinel() {
        let (disc, records) = fitted(1_000, 5);
        let mut r = records
            .iter()
            .find(|r| r.pressure.is_some())
            .unwrap()
            .clone();
        r.pressure = Some(10_000.0);
        let v = disc.discretize(&r);
        assert_eq!(v[7] as usize, disc.cardinalities()[7] - 2); // out-of-range
        r.pressure = None;
        let v = disc.discretize(&r);
        assert_eq!(v[7] as usize, disc.cardinalities()[7] - 1); // absent
    }

    #[test]
    fn unknown_function_code_hits_unknown_category() {
        let (disc, records) = fitted(1_000, 6);
        let mut r = records[0].clone();
        r.function = 0x63; // never appears in clean traffic
        let v = disc.discretize(&r);
        assert_eq!(v[1] as usize, disc.cardinalities()[1] - 1);
    }

    #[test]
    fn huge_time_interval_is_out_of_range() {
        let (disc, records) = fitted(1_000, 7);
        let mut r = records[1].clone();
        r.time_interval = 3600.0;
        let v = disc.discretize(&r);
        assert_eq!(v[4] as usize, disc.cardinalities()[4] - 1);
    }

    #[test]
    fn fit_requires_payload_features() {
        let records = vec![Record::empty_at(0.0), Record::empty_at(1.0)];
        assert!(matches!(
            Discretizer::fit(&DiscretizationConfig::paper_defaults(), &records),
            Err(FeatureError::InsufficientData { .. })
        ));
    }

    #[test]
    fn fit_rejects_empty_input() {
        assert!(Discretizer::fit(&DiscretizationConfig::paper_defaults(), &[]).is_err());
    }

    #[test]
    fn serialization_round_trips_exactly() {
        let (disc, records) = fitted(2_000, 21);
        let bytes = disc.to_bytes();
        let back = Discretizer::from_bytes(&bytes).unwrap();
        assert_eq!(back, disc);
        // Bit-identical discretization and signatures for every record.
        for r in &records {
            assert_eq!(back.discretize(r), disc.discretize(r));
        }
        assert_eq!(back.cardinalities(), disc.cardinalities());
        // Canonical encoding: re-serializing yields the same bytes.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn deserialization_rejects_wrong_kmeans_dimensionality() {
        // A structurally valid encoding whose k-means dimensionality does
        // not fit its feature would panic in `assign` at classify time;
        // the decoder must refuse it up front.
        let (disc, _) = fitted(1_000, 23);
        let points: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, -(i as f64)]).collect();
        let two_d = crate::kmeans::KMeans::fit(&points, 2, 20, 0).unwrap();
        let mut hacked = disc.clone();
        hacked.time_interval_km = two_d.clone();
        assert!(Discretizer::from_bytes(&hacked.to_bytes()).is_none());
        let mut hacked = disc.clone();
        hacked.pid_km = two_d;
        assert!(Discretizer::from_bytes(&hacked.to_bytes()).is_none());
        // The untouched encoding still decodes.
        assert!(Discretizer::from_bytes(&disc.to_bytes()).is_some());
    }

    #[test]
    fn deserialization_rejects_corrupt_buffers() {
        let (disc, _) = fitted(1_000, 22);
        let bytes = disc.to_bytes();
        assert!(Discretizer::from_bytes(&[]).is_none());
        // Truncation anywhere must fail cleanly, never panic.
        for cut in [1, 8, bytes.len() / 3, bytes.len() - 1] {
            assert!(Discretizer::from_bytes(&bytes[..cut]).is_none());
        }
        // Trailing garbage.
        let mut longer = bytes.clone();
        longer.push(0xAB);
        assert!(Discretizer::from_bytes(&longer).is_none());
    }

    #[test]
    fn signature_database_size_is_moderate() {
        // The paper lands on 613 signatures for 160k training packages; a
        // small capture should produce tens-to-hundreds of signatures, far
        // below the package count.
        let (disc, records) = fitted(4_000, 8);
        let mut sigs = std::collections::HashSet::new();
        for r in &records {
            sigs.insert(disc.signature(r).as_str().to_string());
        }
        assert!(sigs.len() > 10, "too few signatures: {}", sigs.len());
        assert!(
            sigs.len() < records.len() / 4,
            "signatures should compress the traffic: {}",
            sigs.len()
        );
    }
}
