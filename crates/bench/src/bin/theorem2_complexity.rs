//! Theorem 2 — empirical validation of the exit-setting search's
//! `O(m ln m)` average complexity: counts cost evaluations on synthetic
//! chains of growing length and compares against `m·ln(m)` and `m²`
//! reference curves.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use leime_bench::{header, render_table};
use leime_dnn::{DnnChain, ExitRates, ExitSpec, Layer, LayerKind, ModelProfile};
use leime_exitcfg::{branch_and_bound, CostModel, EnvParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random chain with log-uniform layer costs and shrinking activations.
fn random_profile(m: usize, rng: &mut StdRng) -> ModelProfile {
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
    let chain = DnnChain::new("synthetic", 3, 64, 64, 10, layers).unwrap();
    ModelProfile::from_chain(&chain, ExitSpec::default()).unwrap()
}

fn random_rates(m: usize, rng: &mut StdRng) -> ExitRates {
    let mut v: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[m - 1] = 1.0;
    ExitRates::new(v).unwrap()
}

fn main() {
    println!("== Theorem 2: average search cost vs chain length ==\n");
    let mut rng = StdRng::seed_from_u64(2);
    let trials = 50;
    let mut rows = Vec::new();
    for m in [8usize, 16, 32, 64, 128, 256, 512] {
        let mut total = 0u64;
        for _ in 0..trials {
            let profile = random_profile(m, &mut rng);
            let rates = random_rates(m, &mut rng);
            let env = EnvParams::raspberry_pi()
                .with_edge_link(10f64.powf(rng.gen_range(6.0..8.0)), rng.gen_range(0.0..0.2));
            let cost = CostModel::new(&profile, &rates, env).unwrap();
            let (_, _, stats) = branch_and_bound(&cost).unwrap();
            total += stats.total_evals();
        }
        let avg = total as f64 / trials as f64;
        let mlnm = m as f64 * (m as f64).ln();
        let m2 = (m * m) as f64 / 2.0;
        rows.push(vec![
            m.to_string(),
            format!("{avg:.1}"),
            format!("{mlnm:.1}"),
            format!("{m2:.0}"),
            format!("{:.3}", avg / mlnm),
            format!("{:.4}", avg / m2),
        ]);
    }
    println!(
        "{}",
        render_table(
            &header(&[
                "m",
                "avg_evals",
                "m*ln(m)",
                "m^2/2",
                "evals/mlnm",
                "evals/m2"
            ]),
            &rows
        )
    );
    println!(
        "\nIf Theorem 2 holds, `evals/mlnm` stays roughly constant while \
         `evals/m2` shrinks toward 0 as m grows."
    );
}
