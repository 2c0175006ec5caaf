//! Criterion bench: the decentralized balance solver vs the exact
//! solve of the full P1′ objective — the per-slot decision cost ablation
//! (DESIGN.md §5; the paper motivates decentralisation by the cost of
//! centralized solving at scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leime_offload::solver::{balance_solve, exact_solve};
use leime_offload::{DeviceParams, SharedParams, SlotCost};
use std::hint::black_box;

fn shared() -> SharedParams {
    SharedParams {
        slot_len_s: 1.0,
        v: 1e4,
        mu1: 2e8,
        mu2: 5e8,
        sigma1: 0.4,
        d0_bytes: 12_288.0,
        d1_bytes: 30_000.0,
        edge_flops: 12e9,
    }
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("offload_solver");
    let states = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (25.0, 25.0)];
    for (i, &(q, h)) in states.iter().enumerate() {
        let cost = SlotCost::new(shared(), DeviceParams::raspberry_pi(10.0), q, h, 0.25);
        group.bench_with_input(BenchmarkId::new("balance", i), &i, |b, _| {
            b.iter(|| black_box(balance_solve(&cost)));
        });
        group.bench_with_input(BenchmarkId::new("exact", i), &i, |b, _| {
            b.iter(|| black_box(exact_solve(&cost)));
        });
    }
    group.finish();
}

/// Full fleet decision: N devices deciding per slot (the scaling argument
/// for decentralisation — each device solves its own 1-D problem).
fn bench_fleet_decisions(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_decision");
    for n in [10usize, 100, 1000] {
        group.bench_with_input(BenchmarkId::new("balance_all", n), &n, |b, &n| {
            let costs: Vec<SlotCost> = (0..n)
                .map(|i| {
                    SlotCost::new(
                        shared(),
                        DeviceParams::raspberry_pi(5.0 + (i % 7) as f64),
                        (i % 13) as f64,
                        (i % 5) as f64,
                        1.0 / n as f64,
                    )
                })
                .collect();
            b.iter(|| {
                for cost in &costs {
                    black_box(balance_solve(cost));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_fleet_decisions);
criterion_main!(benches);
