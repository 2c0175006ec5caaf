//! Criterion bench: the tensor substrate — matmul and exit-MLP
//! forward/train throughput underpinning the calibration pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leime_tensor::nn::{Mlp, MlpConfig, Sgd};
use leime_tensor::ops::softmax_rows;
use leime_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = StdRng::seed_from_u64(0);
    for n in [32usize, 128, 256] {
        let a = Tensor::randn(Shape::d2(n, n), &mut rng);
        let b = Tensor::randn(Shape::d2(n, n), &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_mlp(c: &mut Criterion) {
    let mut group = c.benchmark_group("exit_classifier");
    let mut rng = StdRng::seed_from_u64(2);
    let cfg = MlpConfig {
        input_dim: 32,
        hidden_dim: 32,
        num_classes: 10,
    };
    let mlp = Mlp::new(cfg, &mut rng);
    let x = Tensor::randn(Shape::d2(64, 32), &mut rng);
    let y: Vec<usize> = (0..64).map(|i| i % 10).collect();
    group.bench_function("forward_batch64", |b| {
        b.iter(|| black_box(mlp.forward(&x)));
    });
    group.bench_function("train_step_batch64", |b| {
        let mut m = mlp.clone();
        let mut opt = Sgd::new(Mlp::NUM_PARAMS, 0.05, 0.9);
        b.iter(|| black_box(m.train_step(&x, &y, &mut opt)));
    });
    group.bench_function("softmax_rows_64x10", |b| {
        let logits = Tensor::randn(Shape::d2(64, 10), &mut rng);
        b.iter(|| black_box(softmax_rows(&logits)));
    });
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_mlp);
criterion_main!(benches);
