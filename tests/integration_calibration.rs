//! Integration tests for the calibration pipeline across all four
//! architectures: trained exit classifiers must reproduce the paper's
//! Fig. 6 structure (small average accuracy loss, architecture-dependent
//! overthinking wins) and produce valid exit rates for the optimiser.

use leime::ModelKind;
use leime_dnn::ExitCombo;
use leime_exitcfg::{branch_and_bound, CostModel, EnvParams};
use leime_inference::{calibrate, CalibrationConfig, TrainConfig};
use leime_workload::{CascadeParams, FeatureCascade, SyntheticDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_config() -> CalibrationConfig {
    CalibrationConfig {
        train_samples: 256,
        val_samples: 384,
        train: TrainConfig {
            epochs: 8,
            ..TrainConfig::default()
        },
        accuracy_target_ratio: 0.97,
    }
}

fn calibrate_model(model: ModelKind, seed: u64) -> leime_inference::CalibrationResult {
    let chain = model.build(10);
    let cascade = FeatureCascade::new(10, CascadeParams::for_architecture(model.name()), seed);
    let dataset = SyntheticDataset::cifar_like();
    let mut rng = StdRng::seed_from_u64(seed);
    calibrate(&chain, &cascade, &dataset, quick_config(), &mut rng)
}

#[test]
fn fig6_mean_accuracy_loss_is_small_for_all_models() {
    // The paper reports average losses of 1.62 % (Inception v3), 0.55 %
    // (ResNet-34), 0.44 % (SqueezeNet-1.0) and 1.14 % (VGG-16). We accept
    // anything comfortably below 5 % as "small" for the synthetic
    // substrate.
    for model in ModelKind::ALL {
        let cal = calibrate_model(model, 101);
        let loss = cal.mean_accuracy_loss();
        assert!(
            loss < 0.05,
            "{model}: mean accuracy loss {:.2}% too large",
            loss * 100.0
        );
    }
}

#[test]
fn fig6_some_combos_beat_the_original_network() {
    // The paper observes negative accuracy loss (ME-DNN beats the original
    // network) for overthinking-prone architectures (ResNet-34,
    // SqueezeNet-1.0). At least one combo must show it.
    for model in [ModelKind::ResNet34, ModelKind::SqueezeNet] {
        let cal = calibrate_model(model, 103);
        let m = cal.exit_rates().len();
        let mut best_gain = f64::NEG_INFINITY;
        for first in 0..m - 2 {
            for second in first + 1..m - 1 {
                let combo = ExitCombo::new(first, second, m - 1, m).unwrap();
                best_gain = best_gain.max(-cal.combo_accuracy_loss(combo));
            }
        }
        assert!(
            best_gain > -0.01,
            "{model}: no combo came close to the original accuracy \
             (best gain {best_gain:.4})"
        );
    }
}

#[test]
fn measured_rates_feed_the_exit_setting_search() {
    // End-to-end: calibration's *measured* rates (not the parametric
    // model) drive the branch-and-bound search.
    let model = ModelKind::SqueezeNet;
    let chain = model.build(10);
    let cal = calibrate_model(model, 107);
    let profile =
        leime_dnn::ModelProfile::from_chain(&chain, leime_dnn::ExitSpec::default()).unwrap();
    let cost = CostModel::new(&profile, cal.exit_rates(), EnvParams::raspberry_pi()).unwrap();
    let (combo, t, _) = branch_and_bound(&cost).unwrap();
    assert!(t.is_finite() && t > 0.0);
    assert!(combo.first < combo.second);
}

#[test]
fn harder_dataset_produces_lower_early_exit_rates() {
    let chain = ModelKind::SqueezeNet.build(10);
    let cascade = FeatureCascade::new(10, CascadeParams::default(), 109);
    let mut rng = StdRng::seed_from_u64(109);
    let easy = calibrate(
        &chain,
        &cascade,
        &SyntheticDataset::new(
            10,
            leime_workload::ComplexityDist::EasySkewed { shape: 3.0 },
        ),
        quick_config(),
        &mut rng,
    );
    let mut rng = StdRng::seed_from_u64(109);
    let hard = calibrate(
        &chain,
        &cascade,
        &SyntheticDataset::new(
            10,
            leime_workload::ComplexityDist::HardSkewed { shape: 3.0 },
        ),
        quick_config(),
        &mut rng,
    );
    // Compare cumulative rate at mid-depth.
    let mid = chain.num_layers() / 2;
    assert!(
        easy.exit_rates().rate(mid).unwrap() > hard.exit_rates().rate(mid).unwrap(),
        "easy {:.3} should exceed hard {:.3} at mid-depth",
        easy.exit_rates().rate(mid).unwrap(),
        hard.exit_rates().rate(mid).unwrap()
    );
}

#[test]
fn thresholds_guard_accuracy_of_exited_samples() {
    // Every combo's accuracy must stay within a few points of the final
    // exit's — that is precisely what threshold calibration guarantees.
    let cal = calibrate_model(ModelKind::Vgg16, 113);
    let m = cal.exit_rates().len();
    for first in (0..m - 2).step_by(3) {
        for second in (first + 1..m - 1).step_by(3) {
            let combo = ExitCombo::new(first, second, m - 1, m).unwrap();
            let loss = cal.combo_accuracy_loss(combo);
            assert!(
                loss < 0.10,
                "combo ({first},{second}): loss {:.3} breaks the guarantee",
                loss
            );
        }
    }
}
