//! Criterion bench: branch-and-bound exit setting vs exhaustive search
//! across chain lengths — the Theorem 2 ablation (DESIGN.md §5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leime_dnn::{DnnChain, DnnError, ExitRates, ExitSpec, Layer, LayerKind, ModelProfile};
use leime_exitcfg::{branch_and_bound, exhaustive, CostModel, EnvParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn profile_of(m: usize, seed: u64) -> Result<(ModelProfile, ExitRates), DnnError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers: Vec<Layer> = (0..m)
        .map(|i| Layer {
            name: format!("l{i}"),
            kind: LayerKind::Conv,
            flops: 10f64.powf(rng.gen_range(7.0..9.5)),
            out_channels: rng.gen_range(16..512),
            out_h: (64 >> (i * 6 / m)).max(1),
            out_w: (64 >> (i * 6 / m)).max(1),
        })
        .collect();
    let chain = DnnChain::new("bench", 3, 64, 64, 10, layers)?;
    let profile = ModelProfile::from_chain(&chain, ExitSpec::default())?;
    let mut rates: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
    rates.sort_by(f64::total_cmp);
    rates[m - 1] = 1.0;
    Ok((profile, ExitRates::new(rates)?))
}

fn bench_exit_setting(c: &mut Criterion) {
    let mut group = c.benchmark_group("exit_setting");
    for m in [16usize, 64, 256] {
        let Ok((profile, rates)) = profile_of(m, 42) else {
            eprintln!("exit_setting/{m}: chain construction failed");
            continue;
        };
        let Ok(cost) = CostModel::new(&profile, &rates, EnvParams::raspberry_pi()) else {
            eprintln!("exit_setting/{m}: cost model rejected the chain");
            continue;
        };
        group.bench_with_input(BenchmarkId::new("branch_and_bound", m), &m, |b, _| {
            b.iter(|| black_box(branch_and_bound(&cost)));
        });
        group.bench_with_input(BenchmarkId::new("exhaustive", m), &m, |b, _| {
            b.iter(|| black_box(exhaustive(&cost)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exit_setting);
criterion_main!(benches);
