//! Integration tests for the live multi-threaded runtime: real classifier
//! inference on device/edge/cloud threads with emulated links.

use leime::runtime::{run_live, run_live_with_registry, RuntimeConfig};
use leime::ModelKind;
use leime_dnn::ExitCombo;
use leime_inference::{calibrate, CalibrationConfig, EarlyExitPipeline, TrainConfig};
use leime_workload::{CascadeParams, ComplexityDist, FeatureCascade, SyntheticDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Errors a helper hands back to its `#[test]` caller.
type TestResult<T> = Result<T, Box<dyn std::error::Error>>;

fn build_pipeline(seed: u64) -> TestResult<(EarlyExitPipeline, FeatureCascade)> {
    let chain = ModelKind::SqueezeNet.build(10);
    let cascade = FeatureCascade::new(10, CascadeParams::default(), seed);
    let dataset = SyntheticDataset::cifar_like();
    let mut rng = StdRng::seed_from_u64(seed);
    let cal = calibrate(
        &chain,
        &cascade,
        &dataset,
        CalibrationConfig {
            train_samples: 192,
            val_samples: 192,
            train: TrainConfig {
                epochs: 6,
                ..TrainConfig::default()
            },
            accuracy_target_ratio: 0.95,
        },
        &mut rng,
    );
    let m = chain.num_layers();
    let combo = ExitCombo::new(1, m / 2, m - 1, m)?;
    Ok((EarlyExitPipeline::from_calibration(&cal, combo), cascade))
}

#[test]
fn live_pipeline_processes_a_fleet() {
    let (pipeline, cascade) = build_pipeline(55).unwrap();
    let dataset = SyntheticDataset::cifar_like();
    let config = RuntimeConfig {
        num_devices: 4,
        tasks_per_device: 25,
        offload_ratio: 0.25,
        time_scale: 0.0005,
        ..RuntimeConfig::default()
    };
    let report = run_live(&pipeline, &cascade, &dataset, config).unwrap();
    assert_eq!(report.completed, 100);
    assert_eq!(report.tiers.total(), 100);
    // With an easy-skewed dataset a meaningful share exits before cloud.
    assert!(
        report.tiers.first + report.tiers.second > 20,
        "tiers: {:?}",
        report.tiers
    );
    assert!(report.accuracy() > 0.3, "accuracy {}", report.accuracy());
}

#[test]
fn hard_workload_pushes_tasks_to_the_cloud() {
    let (pipeline, cascade) = build_pipeline(56).unwrap();
    let easy_ds = SyntheticDataset::new(10, ComplexityDist::Fixed { value: 0.02 });
    let hard_ds = SyntheticDataset::new(10, ComplexityDist::Fixed { value: 0.95 });
    let config = RuntimeConfig {
        num_devices: 2,
        tasks_per_device: 40,
        offload_ratio: 0.0,
        time_scale: 0.0,
        ..RuntimeConfig::default()
    };
    let easy = run_live(&pipeline, &cascade, &easy_ds, config).unwrap();
    let hard = run_live(&pipeline, &cascade, &hard_ds, config).unwrap();
    assert!(
        easy.tiers.first > hard.tiers.first,
        "easy {:?} vs hard {:?}",
        easy.tiers,
        hard.tiers
    );
    assert!(
        hard.tiers.third > easy.tiers.third,
        "easy {:?} vs hard {:?}",
        easy.tiers,
        hard.tiers
    );
}

#[test]
fn offloaded_tasks_still_complete() {
    let (pipeline, cascade) = build_pipeline(57).unwrap();
    let dataset = SyntheticDataset::cifar_like();
    let config = RuntimeConfig {
        num_devices: 2,
        tasks_per_device: 30,
        offload_ratio: 1.0, // everything goes through the edge
        time_scale: 0.0,
        ..RuntimeConfig::default()
    };
    let report = run_live(&pipeline, &cascade, &dataset, config).unwrap();
    assert_eq!(report.completed, 60);
}

#[test]
fn report_percentiles_are_ordered_and_populated() {
    let (pipeline, cascade) = build_pipeline(59).unwrap();
    let dataset = SyntheticDataset::cifar_like();
    let config = RuntimeConfig {
        num_devices: 2,
        tasks_per_device: 30,
        offload_ratio: 0.25,
        time_scale: 0.001,
        ..RuntimeConfig::default()
    };
    let registry = leime_telemetry::Registry::new();
    let report =
        run_live_with_registry(&pipeline, &cascade, &dataset, config, &registry, "rt").unwrap();
    assert_eq!(report.completed, 60);
    assert!(report.p50_tct_s > 0.0, "p50 {}", report.p50_tct_s);
    assert!(
        report.p50_tct_s <= report.p95_tct_s,
        "p50 {} > p95 {}",
        report.p50_tct_s,
        report.p95_tct_s
    );
    assert!(
        report.p95_tct_s <= report.p99_tct_s,
        "p95 {} > p99 {}",
        report.p95_tct_s,
        report.p99_tct_s
    );
    // The quantile estimate is log-bucketed: the median must at least sit
    // in the same ballpark as the exact mean.
    assert!(report.p99_tct_s < report.mean_tct_s * 100.0);

    let snapshot = registry.snapshot();
    let tct = snapshot
        .histogram_named("rt.tct_s")
        .expect("rt.tct_s recorded");
    assert_eq!(tct.count, 60);
    let max = tct.max.expect("non-empty histogram has a max");
    assert!(
        report.p99_tct_s <= max,
        "p99 {} > max {max}",
        report.p99_tct_s
    );
    let per_tier: u64 = ["rt.tct_device_s", "rt.tct_edge_s", "rt.tct_cloud_s"]
        .iter()
        .filter_map(|n| snapshot.histogram_named(n))
        .map(|h| h.count)
        .sum();
    assert_eq!(per_tier, 60, "tier histograms must partition completions");
}

#[test]
fn link_emulation_slows_completion() {
    let (pipeline, cascade) = build_pipeline(58).unwrap();
    let dataset = SyntheticDataset::cifar_like();
    let fast = RuntimeConfig {
        num_devices: 1,
        tasks_per_device: 15,
        offload_ratio: 1.0,
        time_scale: 0.0,
        ..RuntimeConfig::default()
    };
    // ~6 ms of emulated transfer per task: well clear of the
    // millisecond-scale scheduling noise of an unloaded run.
    let slow = RuntimeConfig {
        time_scale: 0.2,
        ..fast
    };
    let fast_r = run_live(&pipeline, &cascade, &dataset, fast).unwrap();
    let slow_r = run_live(&pipeline, &cascade, &dataset, slow).unwrap();
    assert!(
        slow_r.mean_tct_s > fast_r.mean_tct_s,
        "emulated link delay had no effect: {} vs {}",
        slow_r.mean_tct_s,
        fast_r.mean_tct_s
    );
}
