//! Fig. 6 / Test Case 1 — ME-DNN accuracy loss: for each of the four
//! models, train every candidate exit classifier (calibration pipeline),
//! then evaluate the accuracy loss of *every* (First, Second) exit
//! combination against the original single-exit network.
//!
//! Paper-reported average losses: ME-Inception v3 1.62 %, ME-ResNet-34
//! 0.55 %, ME-SqueezeNet-1.0 0.44 %, ME-VGG-16 1.14 %; some combinations
//! show *negative* loss (overthinking avoidance).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use leime::ModelKind;
use leime_bench::{header, render_table};
use leime_dnn::ExitCombo;
use leime_inference::{calibrate, CalibrationConfig, TrainConfig};
use leime_workload::{CascadeParams, FeatureCascade, SyntheticDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let config = CalibrationConfig {
        train_samples: 512,
        val_samples: 768,
        train: TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        },
        accuracy_target_ratio: 0.995,
    };

    println!("== Fig. 6: ME-DNN accuracy loss over all exit combinations ==\n");
    let mut rows = Vec::new();
    for model in ModelKind::ALL {
        let chain = model.build(10);
        let cascade = FeatureCascade::new(10, CascadeParams::for_architecture(model.name()), 61);
        let dataset = SyntheticDataset::cifar_like();
        let mut rng = StdRng::seed_from_u64(61);
        let cal = calibrate(&chain, &cascade, &dataset, config, &mut rng);

        let m = chain.num_layers();
        let mut losses = Vec::new();
        for first in 0..m - 2 {
            for second in first + 1..m - 1 {
                let combo = ExitCombo::new(first, second, m - 1, m).unwrap();
                losses.push(cal.combo_accuracy_loss(combo));
            }
        }
        let mean = losses.iter().sum::<f64>() / losses.len() as f64;
        let min = losses.iter().copied().fold(f64::INFINITY, f64::min);
        let max = losses.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let negative = losses.iter().filter(|&&l| l < 0.0).count();
        rows.push(vec![
            model.name().to_string(),
            format!("{:.1}%", cal.final_accuracy() * 100.0),
            format!("{:.2}%", mean * 100.0),
            format!("{:.2}%", min * 100.0),
            format!("{:.2}%", max * 100.0),
            format!(
                "{}/{} ({:.0}%)",
                negative,
                losses.len(),
                100.0 * negative as f64 / losses.len() as f64
            ),
        ]);
    }
    println!(
        "{}",
        render_table(
            &header(&[
                "model",
                "orig_acc",
                "mean_loss",
                "best(min)",
                "worst(max)",
                "combos_with_gain",
            ]),
            &rows
        )
    );
    println!(
        "\nPaper reference: mean losses 1.62% (inception), 0.55% (resnet34), \
         0.44% (squeezenet), 1.14% (vgg16); negative losses occur for \
         overthinking-prone architectures."
    );
}
