//! The perf ledger: three named workloads, end-to-end and per-layer
//! metrics, and a traced run. See `README.md` beside this file.
//!
//! ```sh
//! ledger --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--out <dir>]
//! ledger --smoke
//! ledger compare <a.json> <b.json>
//! ```
//!
//! A run generates its inputs from the seed, measures, checks every count
//! against an untimed reference pass, prints every metric by name with
//! its unit, and ends with one JSON object on the last line of standard
//! output. `--trace 0` measures the end-to-end metrics with tracing off,
//! `--trace 1` the per-layer metrics (isolated probes plus a traced run);
//! without `--trace` both happen in one process.

mod calib;
mod host;
mod json;
mod ledger;
mod probes;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use icsad_core::streaming::StreamingDetector;
use icsad_engine::EngineConfig;

use calib::HostSpeed;
use ledger::{Ledger, Verdict, END_TO_END, PER_LAYER, RUN_SECONDS};
use run::{closed_pass, paced_pass, PacedPass, Pass, TracedBackend};
use trace::Tracer;
use workload::{Capture, Reference, Setup, Spec};

/// The clean fleet must mostly pass the Bloom level, or the workload
/// measures the alarm path instead of the detector.
const MIN_CLEAN_PASS_SHARE: f64 = 0.8;

/// What a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Plan {
    seconds: f64,
    end_to_end: bool,
    per_layer: bool,
    /// Set-ups timed per run; the median is reported.
    setups: usize,
    /// Fewest timed closed-loop repetitions.
    min_reps: usize,
}

/// Counts what the verification found. `attempted` and `failed` are in
/// frames; anything else that does not add up clears `correct`.
#[derive(Debug, Default)]
struct Verdicts {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// `(frames, alarms, quarantined, retired lanes)` of the first full
    /// pass; every later one must repeat it.
    first: Option<(u64, u64, u64, u64)>,
}

impl Verdicts {
    fn expect(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Checks one pass against the capture and the reference. A `full`
    /// pass offered the whole capture, so its decisions must equal the
    /// reference pass's.
    fn check(
        &mut self,
        what: &str,
        pass: &Pass,
        full: bool,
        capture: &Capture,
        reference: &Reference,
    ) {
        let report = &pass.report;
        let accounted = report.frames() + report.quarantined;
        self.attempted += pass.offered;
        self.failed += pass.offered.abs_diff(accounted) + report.quarantined;
        self.expect(accounted == pass.offered, || {
            format!(
                "{what}: {} classified + {} quarantined != {} offered",
                report.frames(),
                report.quarantined,
                pass.offered
            )
        });
        self.expect(report.quarantined == 0, || {
            format!(
                "{what}: {} well-formed frames quarantined",
                report.quarantined
            )
        });
        if !full {
            return;
        }
        self.expect(pass.offered == capture.frames, || {
            format!(
                "{what}: offered {} of {} frames",
                pass.offered, capture.frames
            )
        });
        self.expect(report.alarms() == reference.alarms, || {
            format!(
                "{what}: {} alarms, the reference pass raised {}",
                report.alarms(),
                reference.alarms
            )
        });
        if let Some(wire) = pass.wire {
            self.expect(wire.frames == capture.frames, || {
                format!(
                    "{what}: decoded {} of {} encoded frames",
                    wire.frames, capture.frames
                )
            });
            self.expect(wire.skipped_bytes == capture.junk_bytes, || {
                format!(
                    "{what}: skipped {} bytes, {} junk bytes were injected",
                    wire.skipped_bytes, capture.junk_bytes
                )
            });
            self.expect(
                wire.closed_connections == capture.closed_connections,
                || {
                    format!(
                        "{what}: saw {} closes of {}",
                        wire.closed_connections, capture.closed_connections
                    )
                },
            );
            self.expect(report.retired_lanes() >= wire.closed_connections, || {
                format!(
                    "{what}: {} lanes retired for {} closed connections",
                    report.retired_lanes(),
                    wire.closed_connections
                )
            });
            let live = u64::from(wire.connections) - wire.closed_connections;
            self.expect(report.resident_lanes() as u64 <= live, || {
                format!(
                    "{what}: {} lanes resident at finish, {live} connections live",
                    report.resident_lanes()
                )
            });
        }
        let counts = (
            report.frames(),
            report.alarms(),
            report.quarantined,
            report.retired_lanes(),
        );
        let first = *self.first.get_or_insert(counts);
        self.expect(counts == first, || {
            format!("{what}: counts {counts:?} differ from the first pass's {first:?}")
        });
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Whether the host's slowness makes a metric's value smaller or larger.
#[derive(Clone, Copy)]
enum Kind {
    Rate,
    Time,
}

/// Records a metric measured once per repetition of a phase, each
/// repetition with the host's slowness around it (see `calib.rs`). Every
/// repetition is first read at the reference host's speed — a rate is
/// multiplied by its slowness, a time divided — and the value under the
/// metric's own name is the median of those. The median as measured, the
/// least and most disturbed repetitions and the quartiles are recorded
/// beside it.
fn record_median(
    ledger: &mut Ledger,
    name: &str,
    unit: &'static str,
    kind: Kind,
    samples: &[(f64, f64)],
) {
    let scaled: Vec<f64> = samples
        .iter()
        .map(|&(value, slowness)| match kind {
            Kind::Rate => value * slowness,
            Kind::Time => value / slowness,
        })
        .collect();
    ledger.set(name, stats::median(&scaled), unit);
    let raw: Vec<f64> = samples.iter().map(|&(value, _)| value).collect();
    let s = stats::summarize(&raw);
    ledger.set(&format!("{name}.raw"), s.p50, unit);
    ledger.set(&format!("{name}.raw.min"), s.min, unit);
    ledger.set(&format!("{name}.raw.q1"), s.q1, unit);
    ledger.set(&format!("{name}.raw.q3"), s.q3, unit);
    ledger.set(&format!("{name}.raw.max"), s.max, unit);
    ledger.set(&format!("{name}.repetitions"), s.count as f64, "count");
}

/// Records how slow the host was during a phase.
fn record_slowness(ledger: &mut Ledger, phase: &str, speed: &HostSpeed) {
    ledger.set(
        &format!("host.slowness_{phase}"),
        calib::slowness(speed.slots()),
        "ratio",
    );
    ledger.set(
        &format!("host.slowness_{phase}.samples"),
        speed.slots().len() as f64,
        "count",
    );
}

/// One timed set-up and how slow the host was during it.
struct TimedSetup {
    setup: Setup,
    /// Time the steps took, calibration excluded.
    busy_s: f64,
    /// Mean over the samples before the first step and after every step.
    slowness: f64,
    /// Mean of the samples before and after commissioning.
    train_slowness: f64,
}

/// One set-up with a calibration sample after each of its steps; the
/// caller took one just before.
fn timed_set_up(
    spec: &Spec,
    seed: u64,
    workers: usize,
    out_dir: &str,
    speed: &mut HostSpeed,
) -> TimedSetup {
    let before = speed.slots().len() - 1;
    let mut busy_s = 0.0;
    let mut step = |busy_s: &mut f64, t0: Instant| {
        *busy_s += t0.elapsed().as_secs_f64();
        speed.sample();
        Instant::now()
    };
    let t0 = Instant::now();
    let commissioned = workload::commission(spec, workers, out_dir);
    let t0 = step(&mut busy_s, t0);
    let capture = workload::capture(spec, seed);
    let t0 = step(&mut busy_s, t0);
    let segments = workload::segments(&capture);
    let t0 = step(&mut busy_s, t0);
    let reference = workload::reference(&commissioned.detector, &segments, spec.clean_links());
    step(&mut busy_s, t0);
    let around = &speed.slots()[before..];
    TimedSetup {
        setup: Setup {
            commissioned,
            capture,
            segments,
            reference,
        },
        busy_s,
        slowness: calib::slowness(around),
        train_slowness: calib::slowness(&around[..2]),
    }
}

fn median_of<T>(items: &[T], value: impl Fn(&T) -> f64) -> f64 {
    stats::median(&items.iter().map(value).collect::<Vec<_>>())
}

fn pooled(passes: &[PacedPass], samples: impl Fn(&PacedPass) -> &[f64]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| samples(p).iter().copied())
        .collect()
}

fn blocked_pushes(passes: &[PacedPass]) -> u64 {
    passes
        .iter()
        .map(|p| p.pass.report.runtime.blocked_pushes)
        .sum()
}

fn cpu_us_per_pkg(pass: &Pass) -> f64 {
    pass.cpu_s * 1e6 / pass.report.frames() as f64
}

/// One workload being measured: its inputs, the engine it runs on, and
/// what has been measured and checked so far.
struct Bench<'a> {
    spec: &'a Spec,
    plan: Plan,
    out_dir: &'a str,
    setup: Setup,
    backend: Arc<dyn StreamingDetector>,
    config: EngineConfig,
    ledger: Ledger,
    verdicts: Verdicts,
}

/// Runs one workload and returns what it measured and whether it added up.
fn run_workload(spec: &Spec, seed: u64, plan: Plan, out_dir: &str) -> (Ledger, Verdicts) {
    // Set-up, the generator and the isolated probes run on one CPU, the
    // engine's pool threads on others (`run::start`).
    let placement = host::placement();
    host::pin_to(&[placement.generator]);
    let workers = host::workers_for(placement.nproc);
    let mut ledger = Ledger::default();
    let mut verdicts = Verdicts::default();

    let (mut setup_s, mut train_rates) = (Vec::new(), Vec::new());
    let mut speed = HostSpeed::new(placement.generator, &[placement.generator]);
    speed.sample();
    let mut setup = None;
    for _ in 0..plan.setups {
        // Only the last set-up is kept: several resident captures would
        // multiply the peak memory the run reports.
        drop(setup.take());
        let done = timed_set_up(spec, seed, workers, out_dir, &mut speed);
        setup_s.push((done.busy_s, done.slowness));
        let commissioned = &done.setup.commissioned;
        train_rates.push((
            commissioned.train_targets as f64 / commissioned.train_wall_s,
            done.train_slowness,
        ));
        setup = Some(done.setup);
    }
    let setup = setup.expect("a plan sets up at least once");
    record_slowness(&mut ledger, "setup", &speed);
    record_median(&mut ledger, "setup_s", "s", Kind::Time, &setup_s);
    record_median(
        &mut ledger,
        "train_targets_s",
        "1/s",
        Kind::Rate,
        &train_rates,
    );

    let reference = &setup.reference;
    ledger.set("bloom.pass_share", reference.clean_pass_share, "share");
    verdicts.expect(reference.clean_pass_share >= MIN_CLEAN_PASS_SHARE, || {
        format!(
            "only {:.3} of the clean fleet passes the Bloom level (need {MIN_CLEAN_PASS_SHARE}): \
             the detector was not commissioned on the fleet it monitors",
            reference.clean_pass_share
        )
    });
    verdicts.expect(reference.packages == setup.capture.frames, || {
        format!(
            "the reference pass saw {} of {} frames",
            reference.packages, setup.capture.frames
        )
    });

    let mut bench = Bench {
        spec,
        plan,
        out_dir,
        backend: setup.commissioned.detector.clone(),
        config: run::engine_config(spec, workers),
        setup,
        ledger,
        verdicts,
    };
    // Untimed: warms caches, the allocator and the page tables.
    bench.closed("warm-up", None);
    if plan.end_to_end {
        bench.end_to_end();
    }
    if plan.per_layer {
        bench.per_layer();
    }
    let Bench {
        mut ledger,
        verdicts,
        setup,
        ..
    } = bench;
    ledger.set_exact("verify.frames_offered", verdicts.attempted, "count");
    ledger.set_exact("verify.frames_failed", verdicts.failed, "count");
    ledger.set(
        "verify.failed_share",
        stats::failed_share(verdicts.failed, verdicts.attempted),
        "share",
    );
    ledger.set_exact("verify.alarms", setup.reference.alarms, "count");
    (ledger, verdicts)
}

impl Bench<'_> {
    /// One checked closed-loop repetition, traced if a tracer is given.
    fn closed(&mut self, what: &str, tracer: Option<&Arc<Tracer>>) -> Pass {
        let pass = match tracer {
            None => closed_pass(&self.backend, &self.config, &self.setup.capture, None),
            Some(tracer) => {
                let traced: Arc<dyn StreamingDetector> = Arc::new(TracedBackend {
                    inner: Arc::clone(&self.backend),
                    tracer: Arc::clone(tracer),
                });
                closed_pass(&traced, &self.config, &self.setup.capture, Some(tracer))
            }
        };
        let Setup {
            capture, reference, ..
        } = &self.setup;
        self.verdicts.check(what, &pass, true, capture, reference);
        pass
    }

    /// Checked paced passes at `rate` adding up to `seconds` of ticks: whole
    /// captures, then a prefix for what is left. A prefix's decisions are a
    /// prefix of the reference's, so only its frame accounting is checked.
    fn paced(&mut self, rate: u64, seconds: f64) -> Vec<PacedPass> {
        let Setup {
            capture, reference, ..
        } = &self.setup;
        let mut left = ((rate as f64 * seconds) as u64).max(1);
        let mut passes = Vec::new();
        while left > 0 {
            let limit = left.min(capture.frames);
            let paced = paced_pass(&self.backend, &self.config, capture, rate, limit);
            let full = limit == capture.frames;
            self.verdicts
                .check("paced", &paced.pass, full, capture, reference);
            passes.push(paced);
            left -= limit;
        }
        passes
    }

    /// The end-to-end metrics, tracing off: closed-loop repetitions, each
    /// on a fresh engine over the same capture, for `--seconds`.
    fn end_to_end(&mut self) {
        let phase = Instant::now();
        let placement = host::placement();
        // The pool threads do most of a repetition's work and set its
        // pace, so it is their CPUs whose slowness it is read against.
        let mut speed = HostSpeed::new(placement.generator, &placement.workers);
        speed.sample();
        let (mut rates, mut cpu) = (Vec::new(), Vec::new());
        while rates.len() < self.plan.min_reps || phase.elapsed().as_secs_f64() < self.plan.seconds
        {
            let pass = self.closed("closed loop", None);
            speed.sample();
            let around = &speed.slots()[speed.slots().len() - 2..];
            rates.push((pass.pkg_s(), calib::slowness(around)));
            cpu.push((cpu_us_per_pkg(&pass), calib::slowness(around)));
        }
        record_slowness(&mut self.ledger, "closed", &speed);
        record_median(&mut self.ledger, "pkg_s", "1/s", Kind::Rate, &rates);
        record_median(&mut self.ledger, "cpu_us_per_pkg", "us", Kind::Time, &cpu);
    }

    /// The per-layer metrics: what the detector is, a traced run, engine
    /// counters, isolated probes and their reconciliation, three paced
    /// rates.
    fn per_layer(&mut self) {
        let detector = &self.setup.commissioned.detector;
        let reference = &self.setup.reference;
        let ledger = &mut self.ledger;
        ledger.set("core.model_bytes", detector.memory_bytes() as f64, "bytes");
        ledger.set(
            "core.artifact_bytes",
            self.setup.commissioned.artifact_bytes as f64,
            "bytes",
        );
        ledger.set(
            "core.artifact_load_ms",
            self.setup.commissioned.artifact_load_s * 1e3,
            "ms",
        );
        ledger.set(
            "core.vocab_size",
            detector.time_series_level().vocabulary().len() as f64,
            "count",
        );
        ledger.set("core.topk_k", detector.k() as f64, "count");
        ledger.set_exact(
            "core.package_level_alarms",
            reference.package_level_alarms,
            "count",
        );
        ledger.set_exact(
            "core.timeseries_level_alarms",
            reference.timeseries_level_alarms,
            "count",
        );
        ledger.set(
            "core.clean_alarm_share",
            reference.clean_alarm_share,
            "share",
        );

        // Untraced and traced repetitions alternate, so that drift in the
        // host's speed hits both alike.
        let budget_s = self.plan.seconds * 0.25;
        let phase = Instant::now();
        let (mut plain, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
        while plain.len() < 2 || phase.elapsed().as_secs_f64() < budget_s {
            plain.push(self.closed("untraced", None));
            let tracer = Arc::new(Tracer::new());
            traced.push(self.closed("traced", Some(&tracer)));
            spans = Arc::into_inner(tracer)
                .expect("the finished engine dropped its sessions")
                .into_spans();
        }
        self.ledger.set(
            "trace.overhead_share",
            1.0 - median_of(&traced, Pass::pkg_s) / median_of(&plain, Pass::pkg_s),
            "share",
        );
        let last_traced = traced.last().expect("at least two traced repetitions");
        record_trace(
            &spans,
            last_traced,
            self.config.num_shards,
            &mut self.ledger,
        );
        let trace_path = format!("{}/trace_{}.json", self.out_dir, self.spec.name);
        std::fs::write(&trace_path, trace::to_json(&spans)).expect("write the trace");

        let last = plain.last().expect("at least two untraced repetitions");
        record_engine_counters(
            last,
            median_of(&plain, |p| p.finish_tail_s),
            &mut self.ledger,
        );

        let attribution = probes::run(
            self.spec,
            &self.setup,
            &self.config,
            (self.plan.seconds * 0.03).max(0.02),
            &mut self.ledger,
        );
        let cpu_us = median_of(&plain, cpu_us_per_pkg);
        let ledger = &mut self.ledger;
        ledger.set("reconcile.cpu_us_per_pkg", cpu_us, "us");
        ledger.set("reconcile.decode_us_per_pkg", attribution.decode_us, "us");
        ledger.set("reconcile.extract_us_per_pkg", attribution.extract_us, "us");
        ledger.set(
            "reconcile.package_level_us_per_pkg",
            attribution.package_level_us,
            "us",
        );
        ledger.set("reconcile.lstm_us_per_pkg", attribution.lstm_us, "us");
        ledger.set(
            "reconcile.attributed_us_per_pkg",
            attribution.total_us(),
            "us",
        );
        ledger.set(
            "reconcile.unattributed_share",
            1.0 - attribution.total_us() / cpu_us,
            "share",
        );
        ledger.set("reconcile.nn_share", attribution.lstm_us / cpu_us, "share");

        // Open loop: a fifth of `--seconds` in ticks at R2, then an eighth
        // of it each at R1 and R3.
        let r2 = self.paced(self.spec.rates[1], 0.2 * self.plan.seconds);
        let lags = pooled(&r2, |p| &p.lags_ms);
        let ledger = &mut self.ledger;
        ledger.set("engine.lag_p50_ms", stats::median(&lags), "ms");
        record_tail(ledger, "engine.lag_p99_ms", &lags);
        record_tail(
            ledger,
            "engine.generator_late_p99_ms",
            &pooled(&r2, |p| &p.late_ms),
        );
        ledger.set(
            "engine.lag_over_50ms_share",
            lags.iter().filter(|&&ms| ms > 50.0).count() as f64 / lags.len() as f64,
            "share",
        );
        ledger.set(
            "runtime.blocked_pushes_r2",
            blocked_pushes(&r2) as f64,
            "count",
        );
        for (suffix, rate) in [("r1", self.spec.rates[0]), ("r3", self.spec.rates[2])] {
            let paced = self.paced(rate, 0.125 * self.plan.seconds);
            let lags = pooled(&paced, |p| &p.lags_ms);
            let ledger = &mut self.ledger;
            ledger.set(
                &format!("engine.lag_p50_ms_{suffix}"),
                stats::median(&lags),
                "ms",
            );
            record_tail(ledger, &format!("engine.lag_p99_ms_{suffix}"), &lags);
            let last = paced.last().expect("at least one pass");
            ledger.set(
                &format!("engine.backlog_end_{suffix}"),
                last.backlog_end as f64,
                "count",
            );
            ledger.set(
                &format!("runtime.blocked_pushes_{suffix}"),
                blocked_pushes(&paced) as f64,
                "count",
            );
        }
        self.ledger
            .set("host.peak_rss_mib", host::peak_rss_mib(), "MiB");
    }
}

/// Records the 99th percentile of `samples` under `name`, or the highest
/// percentile the sample supports when that is lower, and says which.
fn record_tail(ledger: &mut Ledger, name: &str, samples: &[f64]) {
    let mut sorted = samples.to_vec();
    stats::sort(&mut sorted);
    let pct = stats::supported_percentile(sorted.len()).min(99.0);
    ledger.set(name, stats::percentile(&sorted, pct), "ms");
    ledger.set(&format!("{name}.percentile"), pct, "%");
    ledger.set(&format!("{name}.samples"), sorted.len() as f64, "count");
}

/// What the traced repetition's spans say about where the time went.
fn record_trace(spans: &[trace::Span], pass: &Pass, shards: usize, ledger: &mut Ledger) {
    let wall_ns = pass.wall_s * 1e9;
    let rounds: Vec<&trace::Span> = spans
        .iter()
        .filter(|s| s.name == "core.classify_batch")
        .collect();
    let busy = trace::total_ns(spans, "core.classify_batch") as f64 / (wall_ns * shards as f64);
    ledger.set("engine.backend_busy_share", busy, "share");
    ledger.set("engine.backend_calls", rounds.len() as f64, "count");
    ledger.set("engine.shard_other_share", 1.0 - busy, "share");
    let mut widths: Vec<f64> = rounds.iter().map(|s| s.work as f64).collect();
    stats::sort(&mut widths);
    ledger.set(
        "trace.round_width_p50",
        stats::percentile(&widths, 50.0),
        "count",
    );
    ledger.set(
        "trace.round_width_p90",
        stats::percentile(&widths, 90.0),
        "count",
    );

    let root = spans
        .iter()
        .find(|s| s.parent == 0 && s.name != "core.classify_batch" && s.name != "engine.finish")
        .expect("the generator thread recorded its root span");
    let feed_ns = root.duration_ns() as f64;
    let self_ns = trace::self_time_ns(root, spans) as f64;
    // Includes the waits when a shard's queue is full (backpressure).
    ledger.set("engine.ingest_busy_share", 1.0 - self_ns / feed_ns, "share");
    ledger.set("trace.generator_self_ms", self_ns / 1e6, "ms");
    ledger.set(
        "trace.engine_finish_ms",
        trace::total_ns(spans, "engine.finish") as f64 / 1e6,
        "ms",
    );
}

/// Counters from one repetition's `EngineReport`.
fn record_engine_counters(pass: &Pass, finish_tail_s: f64, ledger: &mut Ledger) {
    let report = &pass.report;
    let flushes: u64 = report.shards.iter().map(|s| s.flushes).sum();
    ledger.set("engine.flushes", flushes as f64, "count");
    ledger.set(
        "engine.mean_round_width",
        report.frames() as f64 / flushes as f64,
        "count",
    );
    let widest = report.shards.iter().map(|s| s.widest_round).max();
    ledger.set("engine.widest_round", widest.unwrap_or(0) as f64, "count");
    ledger.set(
        "engine.split_rounds",
        report.shards.iter().map(|s| s.split_rounds).sum::<u64>() as f64,
        "count",
    );
    ledger.set_exact("engine.quarantined", report.quarantined, "count");
    ledger.set_exact("engine.retired_lanes", report.retired_lanes(), "count");
    ledger.set(
        "engine.peak_resident_lanes",
        report.peak_resident_lanes() as f64,
        "count",
    );
    ledger.set(
        "engine.resident_lanes_end",
        report.resident_lanes() as f64,
        "count",
    );
    ledger.set("engine.finish_tail_ms", finish_tail_s * 1e3, "ms");
    let runtime = &report.runtime;
    ledger.set(
        "runtime.blocked_pushes",
        runtime.blocked_pushes as f64,
        "count",
    );
    ledger.set("runtime.polls", runtime.polls as f64, "count");
    ledger.set(
        "runtime.polls_per_kpkg",
        runtime.polls as f64 * 1e3 / report.frames() as f64,
        "count",
    );
    ledger.set("runtime.steals", runtime.steals as f64, "count");
    ledger.set("runtime.round_units", runtime.round_units as f64, "count");
    ledger.set(
        "runtime.rounds_helped",
        runtime.rounds_helped as f64,
        "count",
    );
}

/// Prints the run for a reader, writes the report `ledger compare` reads,
/// and returns the result line.
fn publish(
    spec: &Spec,
    seed: u64,
    plan: Plan,
    out_dir: &str,
    ledger: &Ledger,
    verdicts: &Verdicts,
) -> String {
    let placement = host::placement();
    let nproc = placement.nproc;
    let host = format!(
        "{{\"nproc\": {nproc}, \"workers\": {}, \"generator_cpu\": {}, \"worker_cpus\": {:?}, \"kernel_backend\": {}, \"git_sha\": {}, \"rustc\": {}}}",
        host::workers_for(nproc),
        placement.generator,
        placement.workers,
        json::quote(icsad_simd::current().label()),
        json::quote(&host::git_sha()),
        json::quote(&host::rustc_version()),
    );
    println!(
        "workload {} seed {seed} seconds {}",
        spec.name, plan.seconds
    );
    println!("why: {}", spec.why);
    println!("host: {host}");
    print!("{}", ledger.table());
    // A miscount usually repeats on every pass; the first few say it all.
    for problem in verdicts.problems.iter().take(20) {
        println!("FAILED: {problem}");
    }
    let head = format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}",
        verdicts.correct(),
        verdicts.attempted.max(1),
        verdicts.failed
    );
    let report = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"host\": {host},\n  {head},\n  \"metrics\": {}\n}}\n",
        json::quote(spec.name),
        plan.seconds,
        ledger.report_metrics()
    );
    let path = format!("{out_dir}/ledger_{}.json", spec.name);
    std::fs::write(&path, report).expect("write the report");
    println!("report: {path}");

    let end_to_end = END_TO_END.iter().map(|m| (m.0, m.1));
    let per_layer = PER_LAYER.iter().map(|m| (m.0, m.1));
    let metrics = match (plan.end_to_end, plan.per_layer) {
        (true, false) => ledger.result_metrics(end_to_end),
        (false, true) => ledger.result_metrics(per_layer),
        _ => ledger.result_metrics(end_to_end.chain(per_layer)),
    };
    format!("{{{head}, \"metrics\": {metrics}}}")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        out: "ledger_out".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => parsed.out = value.clone(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn find_spec(name: &str) -> Result<Spec, String> {
    let catalogue = workload::catalogue();
    let names: Vec<&str> = catalogue.iter().map(|s| s.name).collect();
    catalogue
        .iter()
        .find(|s| s.name == name)
        .cloned()
        .ok_or_else(|| {
            format!(
                "unknown workload {name:?}; the workloads are {}",
                names.join(", ")
            )
        })
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let args = parse_args(args)?;
    let spec = find_spec(&args.workload)?;
    let plan = Plan {
        seconds: args.seconds,
        end_to_end: args.trace != Some(true),
        per_layer: args.trace != Some(false),
        setups: if args.trace == Some(true) { 1 } else { 5 },
        min_reps: 5,
    };
    let (ledger, verdicts) = run_workload(&spec, args.seed, plan, &args.out);
    let line = publish(&spec, args.seed, plan, &args.out, &ledger, &verdicts);
    println!("{line}");
    Ok(verdicts.correct())
}

/// Every workload on about 1/50 of its traffic (commissioning is kept
/// whole) with every check on.
fn smoke() -> Result<bool, String> {
    let plan = Plan {
        seconds: 1.0,
        end_to_end: true,
        per_layer: true,
        setups: 1,
        min_reps: 2,
    };
    let t0 = Instant::now();
    let mut ok = true;
    for spec in workload::catalogue() {
        let small = spec.shrunk(50);
        let (ledger, verdicts) = run_workload(&small, 1, plan, "ledger_out/smoke");
        println!(
            "{}",
            publish(&small, 1, plan, "ledger_out/smoke", &ledger, &verdicts)
        );
        ok &= verdicts.correct();
    }
    println!(
        "smoke: {} in {:.1} s",
        if ok { "ok" } else { "FAILED" },
        t0.elapsed().as_secs_f64()
    );
    Ok(ok)
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let [base, new] = args else {
        return Err("usage: ledger compare <a.json> <b.json>".into());
    };
    let load = |path: &String| -> Result<json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = ledger::compare(&load(base)?, &load(new)?)?;
    println!(
        "{:<36} {:>16} {:>16} {:>8}  verdict",
        "metric", "base", "new", "ratio"
    );
    for row in &rows {
        let verdict = match row.verdict {
            Verdict::Within(bound) => format!("within {:.0} %", bound * 100.0),
            Verdict::Outside(bound) => format!("OUTSIDE {:.0} %", bound * 100.0),
            Verdict::ExactMatch => "exact match".into(),
            Verdict::ExactMismatch => "MISMATCH (must be exact)".into(),
            Verdict::Missing => "MISSING from the new report".into(),
            Verdict::Informational => String::new(),
        };
        println!(
            "{:<36} {:>16.4} {:>16.4} {:>8.3}  {verdict}",
            row.name,
            row.base,
            row.new,
            row.new / row.base
        );
    }
    Ok(!rows.iter().any(|r| r.verdict.fails()))
}

fn main() -> ExitCode {
    let overrides = host::icsad_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "ledger: refusing to run with {} set: the engine and kernel layers would honour it \
             and the numbers would describe another configuration",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        Some("--smoke") if args.len() == 1 => smoke(),
        _ => run_command(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}
