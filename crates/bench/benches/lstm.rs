//! Criterion bench: LSTM forward step and BPTT training cost — the compute
//! behind the paper's Fig. 6 training budget (50 epochs in ~35 min).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use icsad_nn::{BackwardPack, LstmClassifier, ModelConfig, TrainScratch};

fn model(hidden: Vec<usize>, classes: usize) -> LstmClassifier {
    LstmClassifier::new(&ModelConfig {
        input_dim: 120,
        hidden_dims: hidden,
        num_classes: classes,
        seed: 1,
    })
}

fn one_hot_input(t: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; 120];
    v[t % 120] = 1.0;
    v[(t * 7) % 120] = 1.0;
    v
}

fn bench_lstm(c: &mut Criterion) {
    // The paper's architecture: 2x256 over ~613 classes.
    let paper = model(vec![256, 256], 613);
    let mut state = paper.new_state();
    let mut logits = vec![0.0f32; 613];
    let mut t = 0usize;
    c.bench_function("lstm_step_2x256_613cls", |b| {
        b.iter(|| {
            t += 1;
            paper.step_logits(&mut state, black_box(&one_hot_input(t)), &mut logits);
            black_box(logits[0])
        })
    });

    // The workspace default: 2x64.
    let small = model(vec![64, 64], 613);
    let mut sstate = small.new_state();
    c.bench_function("lstm_step_2x64_613cls", |b| {
        b.iter(|| {
            t += 1;
            small.step_logits(&mut sstate, black_box(&one_hot_input(t)), &mut logits);
            black_box(logits[0])
        })
    });

    // Training: one 32-step truncated-BPTT chunk, forward + backward, with
    // the transposed-weight pack and scratch pooled as the trainer does.
    let chunk: Vec<(Vec<f32>, usize)> = (0..32)
        .map(|i| (one_hot_input(i), (i * 13) % 613))
        .collect();
    let mut scratch = TrainScratch::default();
    for (name, model) in [
        ("lstm_bptt_chunk32_2x64", &small),
        ("lstm_bptt_chunk32_2x256", &paper),
    ] {
        let pack = BackwardPack::new(model);
        let mut grads = model.zero_gradients();
        c.bench_function(name, |b| {
            b.iter(|| {
                grads.zero();
                black_box(model.train_batch(
                    &pack,
                    black_box(&[&chunk]),
                    &mut scratch,
                    &mut grads,
                    1.0 / 32.0,
                ))
            })
        });
    }
}

criterion_group!(benches, bench_lstm);
criterion_main!(benches);
