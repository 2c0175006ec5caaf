//! Criterion bench: the tensor substrate — matmul, conv2d and exit-MLP
//! forward/train throughput underpinning the calibration pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leime_tensor::nn::{Mlp, MlpConfig, Sgd};
use leime_tensor::ops::{conv2d, softmax_rows, Conv2dParams};
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

fn bench_conv2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    let mut rng = StdRng::seed_from_u64(1);
    for (cin, cout, hw) in [(3usize, 16usize, 32usize), (16, 32, 16)] {
        let input = Tensor::randn(Shape::d3(cin, hw, hw), &mut rng);
        let weight = Tensor::randn(Shape::d4(cout, cin, 3, 3), &mut rng);
        let bias = Tensor::zeros(Shape::d1(cout));
        let id = format!("{cin}x{hw}x{hw}->{cout}");
        group.bench_with_input(BenchmarkId::from_parameter(id), &cin, |bench, _| {
            bench.iter(|| black_box(conv2d(&input, &weight, &bias, Conv2dParams::same3x3())));
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

criterion_group!(benches, bench_matmul, bench_conv2d, bench_mlp);
criterion_main!(benches);
