//! Dynamic adjustment of the top-`k` parameter during detection — the
//! extension the paper names as future work (§VIII-D, §IX: "allow the value
//! of k for time-series level anomaly detection to be adjusted dynamically
//! during the detection phase ... given previous predictions").
//!
//! The mechanism implemented here is rank tracking: for every package the
//! detector accepts as normal, record the *rank* of its true signature in
//! the model's prediction. If the model has recently been predicting
//! sharply (true signatures near the top), `k` can shrink and the detector
//! gains sensitivity; if predictions have been diffuse (legitimate drift,
//! noisy process), `k` grows to hold the false-positive budget. The rule is
//!
//! ```text
//! k_t = clamp(quantile_{1-θ}(recent accepted ranks) , k_min, k_max)
//! ```
//!
//! which directly estimates the smallest `k` whose false-positive rate on
//! recent normal-looking traffic is below θ — the same rule the static
//! choice-of-`k` applies to the validation set, made rolling.

use std::collections::VecDeque;

use crate::combined::DetectionLevel;

/// Configuration for the dynamic-`k` controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicKConfig {
    /// Smallest `k` the controller may choose.
    pub min_k: usize,
    /// Largest `k` the controller may choose.
    pub max_k: usize,
    /// Sliding window of accepted-package ranks to estimate from.
    pub window: usize,
    /// The false-positive budget θ (as in the static choice of `k`).
    pub theta: f64,
}

impl DynamicKConfig {
    /// Checks the controller's invariants: `min_k ≥ 1`, `min_k ≤ max_k`,
    /// `window > 0` and θ ∈ (0, 1). The error names the first one broken.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.min_k == 0 {
            return Err("min_k must be positive");
        }
        if self.min_k > self.max_k {
            return Err("min_k must not exceed max_k");
        }
        if self.window == 0 {
            return Err("window must be positive");
        }
        if !(self.theta > 0.0 && self.theta < 1.0) {
            return Err("theta must be in (0, 1)");
        }
        Ok(())
    }
}

impl Default for DynamicKConfig {
    fn default() -> Self {
        DynamicKConfig {
            min_k: 1,
            max_k: 10,
            window: 256,
            theta: 0.05,
        }
    }
}

/// Rolling estimator of the optimal `k` from recent prediction ranks.
#[derive(Debug, Clone)]
pub struct DynamicKController {
    config: DynamicKConfig,
    ranks: VecDeque<usize>,
    current_k: usize,
}

impl DynamicKController {
    /// Creates a controller starting at `initial_k`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DynamicKConfig::validate`].
    pub fn new(initial_k: usize, config: DynamicKConfig) -> Self {
        assert_eq!(config.validate(), Ok(()), "degenerate dynamic-k config");
        DynamicKController {
            config,
            ranks: VecDeque::with_capacity(config.window),
            current_k: initial_k.clamp(config.min_k, config.max_k),
        }
    }

    /// The `k` currently in force.
    pub fn k(&self) -> usize {
        self.current_k
    }

    /// The largest `k` the controller may choose; ranks above this bound
    /// are treated as anomalies and must not be fed to
    /// [`DynamicKController::observe_rank`].
    pub fn max_k(&self) -> usize {
        self.config.max_k
    }

    /// Number of rank observations currently in the window.
    pub fn observations(&self) -> usize {
        self.ranks.len()
    }

    /// The dynamic-`k` decision rule — the one place it is written. Takes a
    /// package's fixed-`k` `level` and signature `rank` as
    /// [`crate::CombinedDetector::classify_batch`] left them
    /// ([`crate::CombinedBatch::ranks`]) and returns the level under this
    /// controller's current `k`, then feeds the rank back.
    ///
    /// A Bloom-level anomaly bypasses the top-`k` rule and a package
    /// without a rank (unknown signature, first of its stream) has nothing
    /// to re-decide: both keep their level and the controller never sees
    /// them. Otherwise the package is anomalous iff `rank > k()`, decided
    /// *before* the rank is observed. Every rank within
    /// [`DynamicKController::max_k`] is observed — not just packages
    /// accepted at the current `k`, which would self-censor and pin `k` at
    /// its floor. The LSTM feedback bit is not revisited: it stays the
    /// fixed-`k` decision the detector already fed back.
    pub fn redecide(&mut self, level: DetectionLevel, rank: Option<usize>) -> DetectionLevel {
        let (DetectionLevel::Normal | DetectionLevel::TimeSeriesLevel, Some(rank)) = (level, rank)
        else {
            return level;
        };
        let anomalous = rank > self.current_k;
        if rank <= self.config.max_k {
            self.observe_rank(rank);
        }
        if anomalous {
            DetectionLevel::TimeSeriesLevel
        } else {
            DetectionLevel::Normal
        }
    }

    /// Records the rank (1-based position in the sorted prediction) of an
    /// accepted package's true signature and returns the updated `k`.
    ///
    /// Ranks of packages *flagged* as anomalous must not be recorded —
    /// they would teach the controller to tolerate attacks. A rank above
    /// [`DynamicKController::max_k`] is by definition anomalous traffic, so
    /// feeding one is a contract violation: it panics in debug builds
    /// (`debug_assert`) and is ignored — the window and `k` stay unchanged
    /// — in release builds, where it would otherwise inflate the rolling
    /// quantile and pin `k` at `max_k`.
    pub fn observe_rank(&mut self, rank: usize) -> usize {
        debug_assert!(
            rank <= self.config.max_k,
            "rank {rank} exceeds max_k {}: anomalous ranks must not feed the controller",
            self.config.max_k
        );
        if rank > self.config.max_k {
            return self.current_k;
        }
        if self.ranks.len() == self.config.window {
            self.ranks.pop_front();
        }
        self.ranks.push_back(rank.max(1));
        // Re-estimate once enough evidence exists.
        if self.ranks.len() >= self.config.window / 4 {
            let mut sorted: Vec<usize> = self.ranks.iter().copied().collect();
            sorted.sort_unstable();
            let idx = (((sorted.len() as f64) * (1.0 - self.config.theta)).ceil() as usize)
                .min(sorted.len())
                .saturating_sub(1);
            self.current_k = sorted[idx].clamp(self.config.min_k, self.config.max_k);
        }
        self.current_k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(window: usize, theta: f64) -> DynamicKController {
        DynamicKController::new(
            4,
            DynamicKConfig {
                min_k: 1,
                max_k: 10,
                window,
                theta,
            },
        )
    }

    #[test]
    fn starts_at_initial_k() {
        let c = controller(64, 0.05);
        assert_eq!(c.k(), 4);
        assert_eq!(c.observations(), 0);
    }

    #[test]
    fn sharp_predictions_shrink_k() {
        let mut c = controller(64, 0.05);
        for _ in 0..64 {
            c.observe_rank(1);
        }
        assert_eq!(c.k(), 1, "all-rank-1 history should drive k to 1");
    }

    #[test]
    fn diffuse_predictions_grow_k() {
        let mut c = controller(64, 0.05);
        for i in 0..64 {
            c.observe_rank(1 + (i % 8));
        }
        assert!(
            c.k() >= 7,
            "rank spread to 8 should push k up, got {}",
            c.k()
        );
    }

    #[test]
    fn k_respects_bounds() {
        let mut c = DynamicKController::new(
            5,
            DynamicKConfig {
                min_k: 3,
                max_k: 6,
                window: 32,
                theta: 0.05,
            },
        );
        for _ in 0..32 {
            c.observe_rank(1);
        }
        assert_eq!(c.k(), 3);
        // Diffuse-but-legal ranks (at the max_k bound) push k to its cap.
        for _ in 0..32 {
            c.observe_rank(6);
        }
        assert_eq!(c.k(), 6);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds max_k")]
    fn rank_above_max_k_panics_in_debug() {
        // Regression: ranks above max_k used to be accepted silently,
        // inflating the rolling quantile with traffic the controller's own
        // contract excludes.
        controller(64, 0.05).observe_rank(11);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn rank_above_max_k_is_ignored_in_release() {
        // Regression twin of `rank_above_max_k_panics_in_debug` for
        // release builds: the out-of-contract observation must leave the
        // window and the current k untouched.
        let mut c = controller(64, 0.05);
        for _ in 0..64 {
            c.observe_rank(1);
        }
        assert_eq!(c.k(), 1);
        let before = c.observations();
        assert_eq!(c.observe_rank(11), 1);
        assert_eq!(c.k(), 1, "out-of-contract rank must not move k");
        assert_eq!(c.observations(), before);
    }

    #[test]
    fn redecide_applies_the_current_k_then_observes_in_bound_ranks() {
        use DetectionLevel::{Normal, PackageLevel, TimeSeriesLevel};
        let mut c = controller(64, 0.05);
        // Levels the top-k rule never produced pass through unseen.
        assert_eq!(c.redecide(PackageLevel, None), PackageLevel);
        assert_eq!(c.redecide(PackageLevel, Some(1)), PackageLevel);
        assert_eq!(c.redecide(TimeSeriesLevel, None), TimeSeriesLevel);
        assert_eq!(c.redecide(Normal, None), Normal);
        assert_eq!(c.observations(), 0);
        // Ranked packages are re-decided at the controller's k (4), whatever
        // the fixed-k level said.
        assert_eq!(c.redecide(TimeSeriesLevel, Some(4)), Normal);
        assert_eq!(c.redecide(Normal, Some(5)), TimeSeriesLevel);
        assert_eq!(c.observations(), 2, "rank 5 <= max_k is still observed");
        // Ranks beyond max_k are anomalous and never feed the window.
        assert_eq!(c.redecide(Normal, Some(11)), TimeSeriesLevel);
        assert_eq!(c.observations(), 2);
        // The decision uses k from *before* this package's rank lands: the
        // 16th observation (window / 4) re-estimates k from 4 down to 3, so
        // the package that triggers it is still judged at 4.
        let mut c = controller(64, 0.05);
        for _ in 0..15 {
            assert_eq!(c.redecide(Normal, Some(1)), Normal);
        }
        assert_eq!(c.k(), 4);
        assert_eq!(c.redecide(TimeSeriesLevel, Some(3)), Normal);
        assert_eq!(c.k(), 3);
        assert_eq!(c.redecide(Normal, Some(4)), TimeSeriesLevel);
    }

    #[test]
    fn theta_controls_the_quantile() {
        // With θ = 0.25, the 75th-percentile rank is chosen.
        let mut c = controller(100, 0.25);
        for i in 0..100 {
            // Ranks 1..=4 uniformly: 75th percentile = 3.
            c.observe_rank(1 + (i % 4));
        }
        assert_eq!(c.k(), 3);
    }

    #[test]
    fn window_bounds_memory() {
        let mut c = controller(16, 0.05);
        for _ in 0..100 {
            c.observe_rank(9);
        }
        assert_eq!(c.observations(), 16);
        // Old high ranks age out once sharp predictions dominate the window.
        for _ in 0..16 {
            c.observe_rank(1);
        }
        assert_eq!(c.k(), 1);
    }

    #[test]
    fn adapts_before_window_fills() {
        let mut c = controller(64, 0.05);
        for _ in 0..16 {
            c.observe_rank(2);
        }
        // window/4 = 16 observations suffice for the first estimate.
        assert_eq!(c.k(), 2);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn invalid_theta_panics() {
        DynamicKController::new(
            4,
            DynamicKConfig {
                theta: 0.0,
                ..DynamicKConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "min_k")]
    fn invalid_bounds_panic() {
        DynamicKController::new(
            4,
            DynamicKConfig {
                min_k: 8,
                max_k: 2,
                ..DynamicKConfig::default()
            },
        );
    }
}
