//! Extension experiment — the accuracy/latency Pareto front: for each
//! model, calibrate real exit classifiers, then print the menu of
//! non-dominated exit combinations (no other combo is both faster and at
//! least as accurate). The paper fixes the accuracy guarantee via
//! thresholds and optimises latency; this shows the whole trade-off
//! surface those thresholds sit on.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use leime::{Deployment, ModelKind};
use leime_bench::{fmt_time, header, render_table};
use leime_dnn::ExitSpec;
use leime_exitcfg::EnvParams;
use leime_inference::{calibrate, CalibrationConfig, TrainConfig};
use leime_workload::{CascadeParams, FeatureCascade, SyntheticDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("== Extension: accuracy/latency Pareto fronts (Raspberry Pi env) ==\n");
    let config = CalibrationConfig {
        train_samples: 384,
        val_samples: 512,
        train: TrainConfig {
            epochs: 8,
            ..TrainConfig::default()
        },
        accuracy_target_ratio: 0.99,
    };
    for model in ModelKind::ALL {
        let chain = model.build(10);
        let cascade = FeatureCascade::new(10, CascadeParams::for_architecture(model.name()), 91);
        let dataset = SyntheticDataset::cifar_like();
        let mut rng = StdRng::seed_from_u64(91);
        let cal = calibrate(&chain, &cascade, &dataset, config, &mut rng);
        let front =
            Deployment::pareto_front(&chain, ExitSpec::default(), &cal, EnvParams::raspberry_pi())
                .unwrap();

        println!(
            "-- {} ({} non-dominated of {} combos) --",
            model.name(),
            front.len(),
            {
                let m = chain.num_layers();
                (m - 1) * (m - 2) / 2
            }
        );
        let rows: Vec<Vec<String>> = front
            .iter()
            .map(|&(combo, tct, loss)| {
                let (f, s, t) = combo.to_one_based();
                vec![
                    format!("{f},{s},{t}"),
                    fmt_time(tct),
                    format!("{:+.2}%", loss * 100.0),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&header(&["exits", "expected_TCT", "accuracy_loss"]), &rows)
        );
        println!();
    }
    println!(
        "Reading: negative accuracy losses (gains) appear on the fronts of \
         overthinking-prone models; the operator slides along the front \
         instead of accepting a single fixed guarantee."
    );
}
