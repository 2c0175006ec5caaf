//! Criterion bench: simulation-engine throughput — event-queue operations,
//! slotted-system slots per second, and end-to-end DES tasks per second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leime::{ExitStrategy, ModelKind, Scenario};
use leime_simnet::{EventQueue, SimTime};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for n in [1_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n {
                    q.schedule_at(SimTime::from_secs(((i * 2_654_435_761) % n) as f64), i);
                }
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            });
        });
    }
    group.finish();
}

fn bench_slotted(c: &mut Criterion) {
    let mut group = c.benchmark_group("slotted_system");
    group.sample_size(20);
    for n_dev in [2usize, 10] {
        let base = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, n_dev, 5.0);
        let dep = match base.deploy(ExitStrategy::Leime) {
            Ok(dep) => dep,
            Err(e) => {
                eprintln!("slotted_system/{n_dev}: deploy failed: {e}");
                continue;
            }
        };
        group.bench_with_input(BenchmarkId::new("100_slots", n_dev), &n_dev, |b, _| {
            b.iter(|| black_box(base.run_slotted(&dep, 100, 1)));
        });
    }
    group.finish();
}

fn bench_des(c: &mut Criterion) {
    let mut group = c.benchmark_group("task_des");
    group.sample_size(20);
    let base = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 5.0);
    match base.deploy(ExitStrategy::Leime) {
        Ok(dep) => {
            group.bench_function("60s_horizon", |b| {
                b.iter(|| black_box(base.run_des(&dep, 60.0, 1)));
            });
        }
        Err(e) => eprintln!("task_des: deploy failed: {e}"),
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_slotted, bench_des);
criterion_main!(benches);
