//! Order statistics for the ledger: medians, quartiles and the
//! percentile picker that refuses to report a tail it has no samples for.

/// Sorts `values` in place (total order; the harness never produces NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The `p`-th percentile (0–100) of an ascending-sorted, non-empty slice,
/// linearly interpolated between the two nearest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample (sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    percentile(&sorted, 50.0)
}

/// The highest of p50 / p90 / p99 / p99.9 that still has at least ten
/// samples beyond it in a sample of `count` — the tail the sample can
/// actually support. A p99 over 300 samples rests on three points and is
/// not reported.
pub fn supported_percentile(count: usize) -> f64 {
    // Per-mille, so that "ten beyond" is exact integer arithmetic.
    [999, 990, 900]
        .into_iter()
        .find(|permille| count * (1_000 - permille) >= 10 * 1_000)
        .map_or(50.0, |permille| permille as f64 / 10.0)
}

/// A repeated measurement summarised the way the ledger prints it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
    pub max: f64,
}

/// Summarises a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    Summary {
        count: sorted.len(),
        min: sorted[0],
        q1: percentile(&sorted, 25.0),
        p50: percentile(&sorted, 50.0),
        q3: percentile(&sorted, 75.0),
        max: sorted[sorted.len() - 1],
    }
}

/// `failed ÷ attempted`: the share of offered frames that were lost,
/// double-counted or mis-quarantined. An empty run failed entirely.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn picker_needs_ten_samples_beyond_the_tail() {
        // 999 samples leave 9.99 beyond p99: not enough.
        assert_eq!(supported_percentile(999), 90.0);
        assert_eq!(supported_percentile(1_000), 99.0);
        assert_eq!(supported_percentile(9_999), 99.0);
        assert_eq!(supported_percentile(10_000), 99.9);
        assert_eq!(supported_percentile(100), 90.0);
        assert_eq!(supported_percentile(99), 50.0);
    }

    #[test]
    fn summary_reports_count_extremes_and_quartiles() {
        let values: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.count, 1_000);
        assert_eq!((s.min, s.max), (1.0, 1_000.0));
        assert_eq!(s.p50, 500.5);
        let mut sorted = values.clone();
        sort(&mut sorted);
        assert!((percentile(&sorted, 99.0) - 990.01).abs() < 1e-9);
        assert!(s.q1 < s.p50 && s.p50 < s.q3);
    }

    #[test]
    fn failed_share_arithmetic() {
        assert_eq!(failed_share(0, 1_000), 0.0);
        assert_eq!(failed_share(5, 1_000), 0.005);
        assert_eq!(failed_share(1_000, 1_000), 1.0);
        // Nothing attempted is a failure, not a clean run.
        assert_eq!(failed_share(0, 0), 1.0);
    }
}
