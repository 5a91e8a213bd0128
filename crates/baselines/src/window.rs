//! Windowing and featurization for the baseline detectors.

use icsad_dataset::Record;
use icsad_simulator::AttackType;

/// Number of numeric features extracted per package by
/// [`numeric_features`].
pub const NUMERIC_FEATURES_PER_RECORD: usize = 18;

/// Window width of the paper's baseline protocol (§VIII-C): four
/// consecutive packages, one command–response cycle, form one sample.
pub const PAPER_WINDOW: usize = 4;

/// The [`PAPER_WINDOW`]-wide windows over a record slice.
///
/// Windows are non-overlapping (stride = width), matching the paper's "four
/// consecutive packages as a single data sample"; a trailing partial window
/// is dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Windows {
    records: Vec<Record>,
}

impl Windows {
    /// Builds non-overlapping windows of [`PAPER_WINDOW`] packages.
    pub fn over(records: &[Record]) -> Self {
        let full = records.len() / PAPER_WINDOW * PAPER_WINDOW;
        Windows {
            records: records[..full].to_vec(),
        }
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.records.len() / PAPER_WINDOW
    }

    /// Returns `true` if there are no windows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the windows as record slices.
    pub fn iter(&self) -> impl Iterator<Item = &[Record]> {
        self.records.chunks_exact(PAPER_WINDOW)
    }

    /// The `i`-th window.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn window(&self, i: usize) -> &[Record] {
        &self.records[i * PAPER_WINDOW..(i + 1) * PAPER_WINDOW]
    }
}

/// Ground-truth label of a window: anomalous if *any* package in it is an
/// attack; the dominant attack type is reported for Table V bookkeeping.
pub fn window_label(window: &[Record]) -> Option<AttackType> {
    let mut counts = [0usize; 7];
    for r in window {
        if let Some(ty) = r.label {
            counts[(ty.id() - 1) as usize] += 1;
        }
    }
    let (best, &n) = counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, &c)| c)
        .expect("seven attack types");
    if n == 0 {
        None
    } else {
        AttackType::from_id(best as u8 + 1)
    }
}

/// Numeric feature vector for one package: header features plus payload
/// features with missing values encoded as `-1` (distinct from every real
/// value in the dataset, which are all non-negative).
pub fn numeric_features(r: &Record) -> [f64; NUMERIC_FEATURES_PER_RECORD] {
    let opt = |v: Option<f64>| v.unwrap_or(-1.0);
    let opt_u8 = |v: Option<u8>| v.map_or(-1.0, f64::from);
    [
        f64::from(r.address),
        f64::from(r.function),
        f64::from(r.length),
        r.crc_rate,
        f64::from(u8::from(r.crc_ok)),
        r.time_interval,
        f64::from(u8::from(r.command_response)),
        opt(r.setpoint),
        opt(r.gain),
        opt(r.reset_rate),
        opt(r.deadband),
        opt(r.cycle_time),
        opt(r.rate),
        opt_u8(r.system_mode),
        opt_u8(r.control_scheme),
        opt_u8(r.pump),
        opt_u8(r.solenoid),
        opt(r.pressure),
    ]
}

/// Concatenated numeric features for a whole window.
pub fn numeric_window_features(window: &[Record]) -> Vec<f64> {
    let mut out = Vec::with_capacity(window.len() * NUMERIC_FEATURES_PER_RECORD);
    for r in window {
        out.extend_from_slice(&numeric_features(r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use icsad_dataset::{DatasetConfig, GasPipelineDataset};

    fn records(n: usize, attack_probability: f64) -> Vec<Record> {
        GasPipelineDataset::generate(&DatasetConfig {
            total_packages: n,
            seed: 41,
            attack_probability,
            ..DatasetConfig::default()
        })
        .records()
        .to_vec()
    }

    #[test]
    fn windows_are_nonoverlapping_and_full() {
        let rs = records(103, 0.0);
        let ws = Windows::over(&rs);
        assert_eq!(ws.len(), 25); // 103 / 4
        assert_eq!(ws.iter().count(), 25);
        for w in ws.iter() {
            assert_eq!(w.len(), 4);
        }
        // First window is exactly the first four records.
        assert_eq!(ws.window(0), &rs[..4]);
        assert_eq!(ws.window(24), &rs[96..100]);
    }

    #[test]
    fn window_label_majority() {
        let mut w = vec![
            Record::empty_at(0.0),
            Record::empty_at(1.0),
            Record::empty_at(2.0),
            Record::empty_at(3.0),
        ];
        assert_eq!(window_label(&w), None);
        w[1].label = Some(AttackType::Dos);
        assert_eq!(window_label(&w), Some(AttackType::Dos));
        w[2].label = Some(AttackType::Mpci);
        w[3].label = Some(AttackType::Mpci);
        assert_eq!(window_label(&w), Some(AttackType::Mpci));
    }

    #[test]
    fn numeric_features_encode_missing_as_minus_one() {
        let r = Record::empty_at(0.0);
        let f = numeric_features(&r);
        assert_eq!(f[7], -1.0); // setpoint
        assert_eq!(f[17], -1.0); // pressure
        assert_eq!(f.len(), NUMERIC_FEATURES_PER_RECORD);
    }

    #[test]
    fn numeric_window_concatenates() {
        let rs = records(8, 0.0);
        let ws = Windows::over(&rs);
        let f = numeric_window_features(ws.window(0));
        assert_eq!(f.len(), PAPER_WINDOW * NUMERIC_FEATURES_PER_RECORD);
        assert_eq!(f[..NUMERIC_FEATURES_PER_RECORD], numeric_features(&rs[0]));
    }

    #[test]
    fn real_payload_features_are_nonnegative() {
        // -1 must be reserved for "missing".
        let rs = records(2_000, 0.3);
        for r in &rs {
            for v in numeric_features(r) {
                assert!(v >= -1.0);
            }
        }
    }
}
