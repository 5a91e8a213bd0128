//! What every section shares, at the one scale the report runs at: the
//! seeded capture, its 6:2:2 split, the fitted discretizer and signature
//! database (built up front, well under a second), and the trained
//! frameworks and six fitted baselines — each commissioned on first use
//! and at most once.

use std::cell::{OnceCell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use icsad_baselines::window::{window_label, Windows};
use icsad_baselines::{
    calibrate_fpr, BayesianNetwork, Gmm, IsolationForest, PcaSvd, Svdd, WindowBloomFilter,
    WindowDetector,
};
use icsad_core::experiment::{train_framework, ExperimentConfig, TrainedFramework};
use icsad_core::metrics::ClassificationReport;
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Split};
use icsad_features::{DiscretizationConfig, Discretizer, SignatureVocabulary};

pub const PACKAGES: usize = 120_000;
/// Seed of the capture, the training runs and the isolation forest.
pub const SEED: u64 = 7;
pub const ATTACK_PROBABILITY: f64 = 0.08;
/// LSTM stack of the framework every table scores (the paper's is 2×256;
/// ROADMAP carries that scale).
pub const HIDDEN: [usize; 2] = [64, 64];
const EPOCHS: usize = 25;
const LEARNING_RATE: f32 = 1e-2;
/// The paper's probabilistic-noise intensity λ (§V-3).
pub const NOISE_LAMBDA: f64 = 10.0;

/// A capture of [`PACKAGES`] packages at the report's seed.
pub fn generate_capture(attack_probability: f64) -> GasPipelineDataset {
    GasPipelineDataset::generate(&DatasetConfig {
        total_packages: PACKAGES,
        seed: SEED,
        attack_probability,
        ..DatasetConfig::default()
    })
}

/// A commissioned framework with its score on the test set at the
/// validation-chosen `k`.
pub struct Trained {
    hidden: Vec<usize>,
    /// Noise intensity it was trained at; 0 = without noise.
    lambda: f64,
    pub framework: TrainedFramework,
    pub test_report: ClassificationReport,
    /// Wall-clock of `train_framework`; printed, never recorded.
    pub wall: Duration,
}

pub struct Setup {
    pub capture: GasPipelineDataset,
    /// The paper's chronological 6:2:2 split (§VIII-A).
    pub split: Split,
    /// Table III's discretization, fitted on the training set.
    pub discretizer: Discretizer,
    /// The signature database `S` of the training set.
    pub vocabulary: SignatureVocabulary,
    frameworks: RefCell<Vec<Rc<Trained>>>,
    model_reports: OnceCell<Vec<ClassificationReport>>,
}

impl Setup {
    /// The data every section reads (well under a second); frameworks and
    /// baselines are commissioned on first use.
    pub fn new() -> Self {
        let capture = generate_capture(ATTACK_PROBABILITY);
        let split = capture.split_chronological(0.6, 0.2);
        let train = split.train().records();
        let config = DiscretizationConfig::paper_defaults();
        let discretizer = Discretizer::fit(&config, train).expect("fit the discretizer");
        let vocabulary = SignatureVocabulary::build(&discretizer, train);
        Setup {
            capture,
            split,
            discretizer,
            vocabulary,
            frameworks: RefCell::default(),
            model_reports: OnceCell::new(),
        }
    }

    /// The framework with an LSTM stack of `hidden` trained at noise
    /// intensity `lambda` (0 = without noise), commissioned on first use.
    pub fn framework(&self, hidden: &[usize], lambda: f64) -> Rc<Trained> {
        let is_it = |t: &&Rc<Trained>| t.hidden == hidden && t.lambda == lambda;
        if let Some(trained) = self.frameworks.borrow().iter().find(is_it) {
            return Rc::clone(trained);
        }
        let config = ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: hidden.to_vec(),
                epochs: EPOCHS,
                learning_rate: LEARNING_RATE,
                noise_lambda: (lambda > 0.0).then_some(lambda),
                seed: SEED,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        };
        let t0 = Instant::now();
        let framework = train_framework(&self.split, &config).expect("train the framework");
        let wall = t0.elapsed();
        println!(
            "commissioned hidden={hidden:?} λ={lambda} in {wall:.1?} (|S| = {}, k = {})",
            framework.detector.package_level().signature_count(),
            framework.detector.k()
        );
        let test_report = framework.detector.evaluate(self.split.test());
        assert_eq!(
            test_report.confusion.total() as usize,
            self.split.test().len()
        );
        let trained = Rc::new(Trained {
            hidden: hidden.to_vec(),
            lambda,
            framework,
            test_report,
            wall,
        });
        self.frameworks.borrow_mut().push(Rc::clone(&trained));
        trained
    }

    /// The framework Tables IV/V score: [`HIDDEN`], trained with noise.
    pub fn noise_trained(&self) -> Rc<Trained> {
        self.framework(&HIDDEN, NOISE_LAMBDA)
    }

    /// How much commissioning the run needed, for its closing line.
    pub fn tally(&self) -> String {
        format!(
            "{} LSTM(s) trained, baselines fitted {} time(s)",
            self.frameworks.borrow().len(),
            u8::from(self.model_reports.get().is_some())
        )
    }

    /// Test-set scores of the seven models of Tables IV/V: the framework
    /// per package, then BF, BN, SVDD, IF, GMM, PCA-SVD per window.
    ///
    /// Protocol (§VIII-C): baselines consume 4-package command–response
    /// windows; BF/BN/SVDD/IF train on anomaly-free data; GMM and PCA-SVD
    /// are unsupervised, so they see the first 80 % of the raw capture
    /// with its attacks left in, unlabelled. Score-based baselines are
    /// calibrated on the validation set.
    pub fn model_reports(&self) -> &[ClassificationReport] {
        self.model_reports.get_or_init(|| {
            let mut reports = vec![self.noise_trained().test_report.clone()];
            let t0 = Instant::now();
            let (split, disc) = (&self.split, &self.discretizer);
            let train = Windows::over(split.train().records());
            let validation = Windows::over(split.validation().records());
            let test = Windows::over(split.test());
            let contaminated = &self.capture.records()[..(PACKAGES as f64 * 0.8) as usize];
            let contaminated = Windows::over(contaminated);

            let bf = WindowBloomFilter::fit_windows(disc.clone(), &train);
            let mut bn = BayesianNetwork::fit_windows(disc.clone(), &train);
            calibrate_fpr(&mut bn, &validation, 0.02);
            let mut svdd = Svdd::fit_windows(&train).expect("SVDD");
            calibrate_fpr(&mut svdd, &validation, 0.02);
            let mut iforest = IsolationForest::fit_windows(&train).expect("IF");
            calibrate_fpr(&mut iforest, &validation, 0.02);
            let mut gmm = Gmm::fit_windows(&contaminated).expect("GMM");
            calibrate_fpr(&mut gmm, &validation, 0.05);
            let mut pca = PcaSvd::fit_windows(&contaminated).expect("PCA-SVD");
            calibrate_fpr(&mut pca, &validation, 0.05);

            let baselines: [&dyn WindowDetector; 6] = [&bf, &bn, &svdd, &iforest, &gmm, &pca];
            for detector in baselines {
                let mut report = ClassificationReport::default();
                for w in test.iter() {
                    report.record(window_label(w), detector.is_anomalous(w));
                }
                assert_eq!(report.confusion.total() as usize, test.len());
                reports.push(report);
            }
            println!("fitted and scored six baselines in {:.1?}", t0.elapsed());
            reports
        })
    }
}
