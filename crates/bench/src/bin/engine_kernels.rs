//! Quick kernel probe: per-record `step_logits` vs batched
//! `forward_batch_gathered_logits` (with its gather/scatter) throughput of
//! the stacked LSTM classifier, isolated from detector
//! training and traffic generation — plus a SIMD-backend comparison
//! sweep.
//!
//! ```sh
//! cargo run --release -p icsad-bench --bin engine_kernels [LANES] [STEPS]
//! ```
//!
//! Environment: `ICSAD_HIDDEN` (default `256,256`), `ICSAD_CLASSES`
//! (default `600`), `ICSAD_INPUT` (default `104`), and
//! `ICSAD_COMPARE=1` to sweep every supported kernel backend at
//! B ∈ {1, 32, 96} × |S| ∈ {160, 169, 192, 379} instead of the default
//! row-configuration probe (`ICSAD_KERNEL_BACKEND`/`ICSAD_KERNEL_FMA`
//! force a backend for the default mode). 160 and 192 are whole numbers
//! of 32-column weight panels, 169 and 379 (the ledger workloads' head
//! widths) are not: a ragged head must cost its padded width and no more,
//! so a returning per-element tail shows as a cliff between neighbours.
//! The sweep ends with the training shapes at the top layer's width `H`,
//! on every backend: the recurrent step of one 8-lane gradient task
//! forward (`h·U`, pre-packed against per-call pack) and backward
//! (`dz·Uᵀ` over the transposed panels), and the weight gradient
//! `dU += H_prevᵀ·dZ` over a task's 256 rows, zero-skipping `outer_acc`
//! against `outer_dense_acc`.

use std::hint::black_box;
use std::time::Instant;

use icsad_nn::tensor::{outer_acc, outer_dense_acc, Tensor2};
use icsad_nn::{BatchScratch, LstmClassifier, ModelConfig, StreamState};
use icsad_simd::PanelsF32;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One-hot-ish inputs: 14 ones per lane, positions vary per step.
fn make_xs(lanes: usize, input_dim: usize, t: usize) -> Vec<f32> {
    let mut xs = vec![0.0f32; lanes * input_dim];
    for lane in 0..lanes {
        for f in 0..14 {
            xs[lane * input_dim + (t * 31 + lane * 7 + f * 5) % input_dim] = 1.0;
        }
    }
    xs
}

/// One batched step of every lane in `states`, the way a detector round
/// does it: gather, step, scatter.
fn step_lanes(
    model: &LstmClassifier,
    states: &mut [StreamState],
    scratch: &mut BatchScratch,
    xs: &[f32],
    logits: &mut [f32],
) {
    for (i, state) in states.iter().enumerate() {
        model.gather_lane(scratch, i, state);
    }
    model.forward_batch_gathered_logits(scratch, states.len(), xs, logits);
    for (i, state) in states.iter_mut().enumerate() {
        model.scatter_lane(scratch, i, state);
    }
}

/// Steps `lanes` batched lanes `steps` times; returns steps/sec.
fn batched_throughput(
    model: &LstmClassifier,
    states: &mut [StreamState],
    scratch: &mut BatchScratch,
    lanes: usize,
    steps: usize,
) -> f64 {
    let input_dim = model.config().input_dim;
    let mut logits = vec![0.0f32; lanes * model.num_classes()];
    let t0 = Instant::now();
    for t in 0..steps {
        let xs = make_xs(lanes, input_dim, t);
        step_lanes(model, states, scratch, &xs, &mut logits);
    }
    (lanes * steps) as f64 / t0.elapsed().as_secs_f64()
}

/// Head widths of the backend sweep: panel multiples next to ragged ones.
const COMPARE_CLASSES: [usize; 4] = [160, 169, 192, 379];

fn compare_backends(model: &LstmClassifier, steps: usize) {
    println!(
        "\nbackend comparison, |S| = {} (batched steps/s; speedup vs scalar of the same FMA policy):",
        model.num_classes()
    );
    for lanes in [1usize, 32, 96] {
        println!("  B = {lanes}:");
        let mut scalar_rate = [None::<f64>; 2]; // per FMA policy
        for sel in icsad_simd::supported_selections() {
            let effective = icsad_simd::force(sel);
            assert_eq!(effective, sel);
            let mut states: Vec<_> = (0..lanes).map(|_| model.new_state()).collect();
            let mut scratch = model.batch_scratch();
            // Warmup pass so pack buffers and caches settle.
            batched_throughput(model, &mut states, &mut scratch, lanes, steps / 10 + 1);
            let rate = batched_throughput(model, &mut states, &mut scratch, lanes, steps);
            let slot = usize::from(sel.fma);
            if sel.backend == icsad_simd::Backend::Scalar {
                scalar_rate[slot] = Some(rate);
            }
            match scalar_rate[slot] {
                Some(s) if s > 0.0 => println!(
                    "    {:<12} {:>12.0} steps/s   {:>5.2}x",
                    sel.label(),
                    rate,
                    rate / s
                ),
                _ => println!("    {:<12} {:>12.0} steps/s", sel.label(), rate),
            }
        }
    }
    icsad_simd::reset();
}

/// Lanes of one gradient task and rows of its 8-lane × 32-step tape.
const TRAIN_LANES: usize = 8;
const TRAIN_ROWS: usize = 256;

/// Mean microseconds per call of `f` over `reps` calls (after one warm-up).
fn mean_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// The products a gradient task spends its time in, at hidden width `hd`:
/// the recurrent step over pre-packed panels next to the per-call pack it
/// replaced, and the weight gradient `nn` runs for dense activations next
/// to the zero-skipping one it keeps for one-hot inputs.
fn compare_training_shapes(hd: usize, reps: usize) {
    let gates = 4 * hd;
    let fill = |len: usize, salt: usize| -> Vec<f32> {
        (0..len)
            .map(|i| (((i * 37 + salt * 11) % 101) as f32 - 50.0) / 64.0)
            .collect()
    };
    let u = fill(hd * gates, 1);
    let u_panels = PanelsF32::pack(&u, hd, gates);
    let ut_panels = PanelsF32::pack_transposed(&u, hd, gates);
    let h = fill(TRAIN_LANES * hd, 2);
    let dz_step = fill(TRAIN_LANES * gates, 3);
    let h_prev = fill(TRAIN_ROWS * hd, 4);
    let dz = fill(TRAIN_ROWS * gates, 5);
    let mut z = vec![0.0f32; TRAIN_LANES * gates];
    let mut dh = vec![0.0f32; TRAIN_LANES * hd];
    let mut du = Tensor2::zeros(hd, gates);
    let mut xt = Vec::new();

    println!(
        "\ntraining shapes, H = {hd} (us/call; recurrent step at B = {TRAIN_LANES}, \
         dU over {TRAIN_ROWS} rows):"
    );
    println!(
        "    {:<12} {:>9} {:>9} {:>9} {:>10} {:>10} {:>7}",
        "backend", "h.U pre", "h.U call", "dz.Ut pre", "dU sparse", "dU dense", "GFLOP/s"
    );
    for sel in icsad_simd::supported_selections() {
        assert_eq!(icsad_simd::force(sel), sel);
        let fwd_pre = mean_us(reps, || {
            icsad_simd::gemm_panels_acc_f32(TRAIN_LANES, &h, &u_panels, &mut z);
            black_box(&z);
        });
        let fwd_call = mean_us(reps, || {
            icsad_simd::gemm_dense_acc_f32(TRAIN_LANES, &h, hd, &u, gates, &mut z);
            black_box(&z);
        });
        let bwd_pre = mean_us(reps, || {
            icsad_simd::gemm_panels_acc_f32(TRAIN_LANES, &dz_step, &ut_panels, &mut dh);
            black_box(&dh);
        });
        let outer_reps = reps / 8 + 1;
        let sparse = mean_us(outer_reps, || {
            outer_acc(TRAIN_ROWS, &h_prev, &dz, &mut du);
            black_box(&du);
        });
        let dense = mean_us(outer_reps, || {
            outer_dense_acc(TRAIN_ROWS, &h_prev, &dz, &mut du, &mut xt);
            black_box(&du);
        });
        println!(
            "    {:<12} {:>9.1} {:>9.1} {:>9.1} {:>10.1} {:>10.1} {:>7.1}",
            sel.label(),
            fwd_pre,
            fwd_call,
            bwd_pre,
            sparse,
            dense,
            (2 * TRAIN_ROWS * hd * gates) as f64 / dense / 1e3,
        );
    }
    icsad_simd::reset();
}

fn main() {
    let mut args = std::env::args().skip(1);
    let lanes: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(13);
    let steps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(300);
    let hidden: Vec<usize> = std::env::var("ICSAD_HIDDEN")
        .unwrap_or_else(|_| "256,256".into())
        .split(',')
        .filter_map(|p| p.trim().parse().ok())
        .collect();
    let classes = env_usize("ICSAD_CLASSES", 600);
    let input_dim = env_usize("ICSAD_INPUT", 104);

    let build = |classes: usize| {
        let model = LstmClassifier::new(&ModelConfig {
            input_dim,
            hidden_dims: hidden.clone(),
            num_classes: classes,
            seed: 7,
        });
        // As a commissioned detector hands it over: panels built.
        model.pack_panels();
        model
    };

    if std::env::var("ICSAD_COMPARE").is_ok_and(|v| v == "1") {
        println!(
            "model: input {input_dim}, hidden {hidden:?}; steps {steps}; auto kernels: {}",
            icsad_simd::current().label()
        );
        for classes in COMPARE_CLASSES {
            compare_backends(&build(classes), steps);
        }
        let top = *hidden
            .last()
            .expect("ICSAD_HIDDEN names at least one layer");
        compare_training_shapes(top, steps);
        return;
    }

    let model = build(classes);
    println!(
        "model: input {input_dim}, hidden {hidden:?}, classes {classes} \
         ({} params, {} KB + {} KB panels); lanes {lanes}, steps {steps}; kernels: {}",
        model.param_count(),
        model.memory_bytes() / 1024,
        model.packed_bytes() / 1024,
        icsad_simd::current().label(),
    );

    // Per-record streaming.
    let mut states: Vec<_> = (0..lanes).map(|_| model.new_state()).collect();
    let mut logits = vec![0.0f32; classes];
    let t0 = Instant::now();
    for t in 0..steps {
        let xs = make_xs(lanes, input_dim, t);
        for (lane, state) in states.iter_mut().enumerate() {
            model.step_logits(
                state,
                &xs[lane * input_dim..(lane + 1) * input_dim],
                &mut logits,
            );
        }
    }
    let per_record = t0.elapsed();
    let total = (lanes * steps) as f64;
    println!(
        "per_record : {:>10.1} steps/s  ({:.1} us/step)",
        total / per_record.as_secs_f64(),
        per_record.as_secs_f64() * 1e6 / total
    );

    // Batched.
    let mut batch_states: Vec<_> = (0..lanes).map(|_| model.new_state()).collect();
    let mut scratch = model.batch_scratch();
    let mut rows = vec![0.0f32; lanes * classes];
    let t0 = Instant::now();
    for t in 0..steps {
        let xs = make_xs(lanes, input_dim, t);
        step_lanes(&model, &mut batch_states, &mut scratch, &xs, &mut rows);
    }
    let batched = t0.elapsed();
    println!(
        "batched    : {:>10.1} steps/s  ({:.1} us/step)  speedup {:.2}x",
        total / batched.as_secs_f64(),
        batched.as_secs_f64() * 1e6 / total,
        per_record.as_secs_f64() / batched.as_secs_f64()
    );

    // Equality spot check.
    let mut row = vec![0.0f32; classes];
    let xs = make_xs(lanes, input_dim, steps);
    model.step_logits(&mut states[0], &xs[..input_dim], &mut row);
    step_lanes(&model, &mut batch_states, &mut scratch, &xs, &mut rows);
    assert_eq!(row, rows[..classes].to_vec(), "batch/stream divergence");
    println!("equality   : ok");
}
