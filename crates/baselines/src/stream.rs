//! Stream-level adapter: via [`WindowedBackend`] every window baseline is
//! an [`icsad_core::StreamingDetector`] — hosted by the engine online, run
//! over a finished capture by [`icsad_core::detect_stream`].
//!
//! The paper's comparison protocol (§VIII-C) groups four consecutive
//! packages — one command–response cycle — into one sample for the baseline
//! models. To place the baselines behind the same stream interface as the
//! combined framework, a stream is windowed with that width, each window is
//! scored once, and the window's decision is attributed to each of its
//! packages. Trailing packages that do not fill a window are conservatively
//! passed as normal (the windowed models never see them).
//!
//! The adapter applies that protocol *per lane*: records buffer until a
//! lane's window completes, then the window's decision resolves for all of
//! its packages at once (deferred decisions, see
//! [`icsad_core::StreamingSession::classify_batch`]), and trailing partial
//! windows resolve as normal at [`icsad_core::StreamingSession::finish`].
//! Per stream, the decisions reproduce the whole-capture reference
//! [`windowed_decisions`] exactly — Table IV live, through the engine.

use std::sync::Arc;

use icsad_core::streaming::{LaneDecision, StreamingSession, SwapError};
use icsad_core::{CombinedDetector, StreamingDetector};
use icsad_dataset::Record;

use crate::detector::WindowDetector;
use crate::window::{Windows, PAPER_WINDOW};

/// Expands per-window decisions of a [`WindowDetector`] to per-record
/// decisions over `records`, using non-overlapping [`PAPER_WINDOW`]-wide
/// windows: the §VIII-C protocol written over a whole capture, kept as the
/// reference the tests hold [`WindowedBackend`] sessions against.
pub fn windowed_decisions<D: WindowDetector + ?Sized>(
    detector: &D,
    records: &[Record],
) -> Vec<bool> {
    let mut out = vec![false; records.len()];
    let windows = Windows::over(records);
    for i in 0..windows.len() {
        if detector.is_anomalous(windows.window(i)) {
            out[i * PAPER_WINDOW..(i + 1) * PAPER_WINDOW].fill(true);
        }
    }
    out
}

/// Engine adapter: any trained [`WindowDetector`] as a streaming backend.
///
/// Wraps the detector with the §VIII-C window width ([`PAPER_WINDOW`]) so
/// the engine can host it per shard exactly like the combined framework —
/// the apples-to-apples streaming comparison of Table IV. Decisions per
/// stream are identical to the whole-capture [`windowed_decisions`]
/// reference; hot-reload is refused ([`SwapError::UnsupportedBackend`])
/// since there is no `ICSA` artifact a window baseline could load.
#[derive(Debug, Clone)]
pub struct WindowedBackend<D> {
    detector: D,
}

impl<D: WindowDetector + Send + Sync + 'static> WindowedBackend<D> {
    /// Wraps `detector`; every lane is windowed at [`PAPER_WINDOW`].
    pub fn new(detector: D) -> Self {
        WindowedBackend { detector }
    }

    /// The wrapped window detector.
    pub fn detector(&self) -> &D {
        &self.detector
    }
}

impl<D: WindowDetector + Send + Sync + 'static> StreamingDetector for WindowedBackend<D> {
    fn name(&self) -> &str {
        WindowDetector::name(&self.detector)
    }

    fn begin_session(self: Arc<Self>) -> Box<dyn StreamingSession> {
        Box::new(WindowedSession {
            backend: self,
            buffers: Vec::new(),
        })
    }
}

/// Per-shard session of a [`WindowedBackend`]: one window buffer per lane.
struct WindowedSession<D> {
    backend: Arc<WindowedBackend<D>>,
    buffers: Vec<Vec<Record>>,
}

impl<D: WindowDetector + Send + Sync + 'static> StreamingSession for WindowedSession<D> {
    fn add_lane(&mut self) -> usize {
        self.buffers.push(Vec::with_capacity(PAPER_WINDOW));
        self.buffers.len() - 1
    }

    fn lanes(&self) -> usize {
        self.buffers.len()
    }

    fn classify_batch(&mut self, lanes: &[usize], records: &[Record], out: &mut Vec<LaneDecision>) {
        assert_eq!(records.len(), lanes.len(), "records/lanes mismatch");
        for (&lane, record) in lanes.iter().zip(records.iter()) {
            let buffer = &mut self.buffers[lane];
            buffer.push(record.clone());
            if buffer.len() == PAPER_WINDOW {
                // Window complete: one score decides all of its packages
                // (the offline protocol attributes the window's decision to
                // each package, including the earlier ones).
                let anomalous = self.backend.detector.is_anomalous(buffer);
                out.extend(std::iter::repeat_n(
                    LaneDecision { lane, anomalous },
                    PAPER_WINDOW,
                ));
                buffer.clear();
            }
        }
    }

    fn finish(&mut self, out: &mut Vec<LaneDecision>) {
        for (lane, buffer) in self.buffers.iter_mut().enumerate() {
            // Trailing packages that never filled a window pass as normal,
            // mirroring `windowed_decisions`.
            out.extend(buffer.drain(..).map(|_| LaneDecision {
                lane,
                anomalous: false,
            }));
        }
    }

    fn swap_combined(&mut self, _detector: Arc<CombinedDetector>) -> Result<(), SwapError> {
        Err(SwapError::UnsupportedBackend {
            backend: self.backend.name().to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{calibrate_fpr, IsolationForest};
    use icsad_dataset::{DatasetConfig, GasPipelineDataset};

    #[test]
    fn one_lane_driver_matches_windowed_decisions() {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 2_003,
            seed: 5,
            attack_probability: 0.1,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.6, 0.2);
        let test = split.test();
        assert_ne!(
            test.len() % PAPER_WINDOW,
            0,
            "need a trailing partial window"
        );
        let train = Windows::over(split.train().records());
        let mut forest = IsolationForest::fit_windows(&train).unwrap();
        calibrate_fpr(&mut forest, &train, 0.05);

        let backend = Arc::new(WindowedBackend::new(forest));
        let reference = windowed_decisions(backend.detector(), test);
        assert_eq!(reference.len(), test.len());
        // Decisions are constant within each full window.
        for chunk in reference.chunks(PAPER_WINDOW) {
            if chunk.len() == PAPER_WINDOW {
                assert!(chunk.iter().all(|&d| d == chunk[0]));
            } else {
                assert!(chunk.iter().all(|&d| !d), "tail must be passed as normal");
            }
        }
        assert_eq!(icsad_core::detect_stream(backend, test), reference);
    }

    #[test]
    fn streaming_backend_matches_windowed_decisions_per_stream() {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 2_410, // trailing partial windows on both lanes
            seed: 7,
            attack_probability: 0.1,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.6, 0.2);
        let train = Windows::over(split.train().records());
        let mut forest = IsolationForest::fit_windows(&train).unwrap();
        calibrate_fpr(&mut forest, &train, 0.05);

        // Two interleaved lanes of different lengths.
        let test = split.test();
        let cut = test.len() * 2 / 3;
        let streams: Vec<&[icsad_dataset::Record]> = vec![&test[..cut], &test[cut..]];

        let backend = Arc::new(WindowedBackend::new(forest));
        assert!(!StreamingDetector::supports_hot_swap(&*backend));
        let mut session = Arc::clone(&backend).begin_session();
        let mut resolved: Vec<Vec<bool>> = vec![Vec::new(); streams.len()];
        for _ in &streams {
            session.add_lane();
        }
        let mut out = Vec::new();
        let max_len = streams.iter().map(|s| s.len()).max().unwrap();
        for t in 0..max_len {
            let mut lanes = Vec::new();
            let mut records = Vec::new();
            for (lane, stream) in streams.iter().enumerate() {
                if let Some(r) = stream.get(t) {
                    lanes.push(lane);
                    records.push(r.clone());
                }
            }
            out.clear();
            session.classify_batch(&lanes, &records, &mut out);
            for d in &out {
                resolved[d.lane].push(d.anomalous);
            }
        }
        out.clear();
        session.finish(&mut out);
        for d in &out {
            resolved[d.lane].push(d.anomalous);
        }

        for (stream, decisions) in streams.iter().zip(resolved.iter()) {
            let reference = windowed_decisions(backend.detector(), stream);
            assert_eq!(decisions, &reference);
        }

        // Hot-reload is meaningless for a window baseline and must refuse.
        let err = session
            .swap_combined(dummy_combined())
            .expect_err("baselines cannot hot-swap");
        assert!(matches!(err, SwapError::UnsupportedBackend { .. }));
    }

    /// The smallest trainable combined detector, only used to exercise the
    /// swap-refusal path.
    fn dummy_combined() -> Arc<CombinedDetector> {
        use icsad_core::experiment::{train_framework, ExperimentConfig};
        use icsad_core::timeseries::TimeSeriesTrainingConfig;
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 2_000,
            seed: 11,
            attack_probability: 0.0,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.6, 0.2);
        let trained = train_framework(
            &split,
            &ExperimentConfig {
                timeseries: TimeSeriesTrainingConfig {
                    hidden_dims: vec![8],
                    epochs: 1,
                    seed: 11,
                    ..TimeSeriesTrainingConfig::default()
                },
                ..ExperimentConfig::default()
            },
        )
        .unwrap();
        Arc::new(trained.detector)
    }
}
