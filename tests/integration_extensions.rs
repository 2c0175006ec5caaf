//! Integration tests for the extensions beyond the paper's evaluation:
//! scenario JSON round-trips, time-varying bandwidth traces ("wild"
//! networks), accuracy-constrained exit setting, and the multi-tier DP
//! driven end-to-end from a scenario.

use leime::{ControllerKind, Deployment, ExitStrategy, LeimeError, ModelKind, Scenario};
use leime_exitcfg::{multi_tier_exits, tiers_from_env, TierEnv};
use leime_inference::{calibrate, CalibrationConfig, TrainConfig};
use leime_simnet::{SimTime, TimeTrace};
use leime_workload::{CascadeParams, FeatureCascade, SyntheticDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn scenario_json_round_trip() {
    let mut original = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, 3, 4.0);
    original.controller = ControllerKind::Fixed(0.35);
    original.bandwidth_scale = Some(
        TimeTrace::from_points(vec![(SimTime::ZERO, 1.0), (SimTime::from_secs(60.0), 0.25)])
            .unwrap(),
    );
    let json = original.to_json().unwrap();
    let parsed = Scenario::from_json(&json).unwrap();
    assert_eq!(original, parsed);
}

#[test]
fn scenario_json_rejects_invalid() {
    assert!(Scenario::from_json("{}").is_err());
    // Valid JSON but invalid config (no devices).
    let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 1, 1.0);
    s.devices.clear();
    let json = serde_json::to_string(&s).unwrap();
    assert!(Scenario::from_json(&json).is_err());
}

#[test]
fn scenario_json_defaults_missing_bandwidth_scale() {
    // Configs written before the field existed must still parse.
    let s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 1, 1.0);
    let mut v: serde_json::Value = serde_json::from_str(&s.to_json().unwrap()).unwrap();
    v.as_object_mut().unwrap().remove("bandwidth_scale");
    let parsed = Scenario::from_json(&v.to_string()).unwrap();
    assert_eq!(parsed.bandwidth_scale, None);
}

#[test]
fn scenario_json_ignores_the_retired_degrade_timeout() {
    // Configs written while `DegradePolicy` still had `timeout_slots`
    // (a knob nothing read) must still parse, to the same scenario.
    let s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 1, 1.0);
    let mut v: serde_json::Value = serde_json::from_str(&s.to_json().unwrap()).unwrap();
    let top = v.as_object_mut().unwrap();
    let mut degrade = top.remove("degrade").unwrap();
    let fields = degrade.as_object_mut().unwrap();
    assert!(fields.get("timeout_slots").is_none());
    fields.insert(
        "timeout_slots".to_string(),
        serde_json::from_str("5").unwrap(),
    );
    top.insert("degrade".to_string(), degrade);
    let parsed = Scenario::from_json(&v.to_string()).unwrap();
    assert_eq!(parsed, s);
}

#[test]
fn scenario_json_rejects_an_unknown_top_level_key() {
    // A misspelled optional field must fail loudly, not load as its
    // default (`chaos: None`).
    let s = Scenario::chaos_testbed(ModelKind::SqueezeNet, 2, 42, 60.0);
    let mut v: serde_json::Value = serde_json::from_str(&s.to_json().unwrap()).unwrap();
    let top = v.as_object_mut().unwrap();
    let chaos = top.remove("chaos").unwrap();
    top.insert("choas".to_string(), chaos);
    match Scenario::from_json(&v.to_string()) {
        Err(LeimeError::Config(msg)) => assert!(msg.contains("`choas`"), "{msg}"),
        other => panic!("expected a config error naming the key, got {other:?}"),
    }
}

#[test]
fn scenario_json_rejects_an_unknown_key_inside_the_chaos_block() {
    // A misspelled `window_s` must not load as `None` (faults over the
    // whole horizon), nor a stray key sit unread in the block or in a
    // fault model.
    let s = Scenario::chaos_testbed(ModelKind::SqueezeNet, 2, 42, 60.0);
    let text = s.to_json().unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let first = v["chaos"]["models"].as_array().unwrap()[0]
        .as_object()
        .unwrap();
    let variant = first.iter().next().unwrap().0.clone();
    let cases = [
        ("\"window_s\"", "\"window\"", "chaos.window".to_string()),
        (
            "\"seed\"",
            "\"sead\": 1, \"seed\"",
            "chaos.sead".to_string(),
        ),
        (
            "\"duty\"",
            "\"duty_cycle\": 0.5, \"duty\"",
            format!("chaos.models[0].{variant}.duty_cycle"),
        ),
    ];
    for (from, to, path) in cases {
        assert!(text.contains(from), "{from}");
        match Scenario::from_json(&text.replacen(from, to, 1)) {
            Err(LeimeError::Config(msg)) => assert!(msg.contains(&format!("`{path}`")), "{msg}"),
            other => panic!("expected a config error naming `{path}`, got {other:?}"),
        }
    }
    // The untouched block still loads, to the same scenario.
    assert_eq!(Scenario::from_json(&text).unwrap(), s);
}

#[test]
fn bandwidth_collapse_degrades_then_recovers() {
    // Halfway through the run the WiFi collapses to 10% for a while; the
    // degraded windows must be slower than the healthy ones, and the
    // system must recover.
    let trace = TimeTrace::from_points(vec![
        (SimTime::ZERO, 1.0),
        (SimTime::from_secs(100.0), 0.1),
        (SimTime::from_secs(200.0), 1.0),
    ])
    .unwrap();
    let mut s = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, 2, 2.0);
    s.bandwidth_scale = Some(trace);
    let dep = s.deploy(ExitStrategy::Leime).unwrap();
    let r = s.run_slotted(&dep, 300, 17).unwrap();
    let windows = r.windowed_mean_tct(SimTime::from_secs(100.0));
    assert!(windows.len() >= 3);
    let healthy1 = windows[0].1;
    let degraded = windows[1].1;
    let healthy2 = windows[2].1;
    assert!(
        degraded > healthy1 * 1.2,
        "collapse had no effect: {healthy1} -> {degraded}"
    );
    assert!(healthy2 < degraded, "no recovery: {degraded} -> {healthy2}");
}

#[test]
fn accuracy_constrained_deployment_respects_the_sla() {
    let chain = ModelKind::SqueezeNet.build(10);
    let cascade = FeatureCascade::new(10, CascadeParams::for_architecture("squeezenet_1_0"), 71);
    let dataset = SyntheticDataset::cifar_like();
    let mut rng = StdRng::seed_from_u64(71);
    let cal = calibrate(
        &chain,
        &cascade,
        &dataset,
        CalibrationConfig {
            train_samples: 256,
            val_samples: 384,
            train: TrainConfig {
                epochs: 8,
                ..TrainConfig::default()
            },
            accuracy_target_ratio: 0.97,
        },
        &mut rng,
    );
    let env = leime_exitcfg::EnvParams::raspberry_pi();
    let strict = Deployment::compute_accuracy_constrained(
        &chain,
        leime_dnn::ExitSpec::default(),
        &cal,
        env,
        0.01,
    );
    if let Ok(dep) = &strict {
        assert!(cal.combo_accuracy_loss(dep.combo) <= 0.01);
    }
    // A loose budget must be satisfiable and no slower than a strict one.
    let loose = Deployment::compute_accuracy_constrained(
        &chain,
        leime_dnn::ExitSpec::default(),
        &cal,
        env,
        0.10,
    )
    .expect("10% budget must be satisfiable");
    assert!(cal.combo_accuracy_loss(loose.combo) <= 0.10);
    // An impossible budget errors rather than silently degrading.
    let impossible = Deployment::compute_accuracy_constrained(
        &chain,
        leime_dnn::ExitSpec::default(),
        &cal,
        env,
        -1.0,
    );
    assert!(impossible.is_err());
}

#[test]
fn bursty_workload_runs_at_its_stationary_mean() {
    use leime::WorkloadKind;
    let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 3.0);
    s.workload = WorkloadKind::Bursty {
        burst_factor: 6.0,
        p_enter: 0.05,
        p_leave: 0.25,
        max: 1000,
    };
    let dep = s.deploy(ExitStrategy::Leime).unwrap();
    let slotted = s.run_slotted(&dep, 300, 19).unwrap();
    assert!(slotted.tasks() > 500);
    assert!(slotted.mean_tct_s().is_finite());
    // Stationary mean = 3 * (0.8333 + 6*0.1667) ≈ 5.5/slot per device.
    let expect = 2.0 * 300.0 * 3.0 * (0.25 / 0.30 + 6.0 * 0.05 / 0.30);
    let ratio = slotted.tasks() as f64 / expect;
    assert!((0.8..1.2).contains(&ratio), "task count off: ratio {ratio}");
}

#[test]
fn bursty_load_hurts_static_policies_more() {
    use leime::WorkloadKind;
    let run = |controller: ControllerKind| {
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 4.0);
        s.workload = WorkloadKind::Bursty {
            burst_factor: 8.0,
            p_enter: 0.04,
            p_leave: 0.2,
            max: 1000,
        };
        s.controller = controller;
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        s.run_slotted(&dep, 400, 23).unwrap().mean_tct_s()
    };
    let adaptive = run(ControllerKind::Lyapunov);
    let frozen = run(ControllerKind::DeviceOnly);
    assert!(
        adaptive < frozen,
        "Lyapunov {adaptive} should beat device-only {frozen} under bursts"
    );
}

#[test]
fn pareto_front_is_nondominated_and_ordered() {
    let chain = ModelKind::SqueezeNet.build(10);
    let cascade = FeatureCascade::new(10, CascadeParams::default(), 81);
    let dataset = SyntheticDataset::cifar_like();
    let mut rng = StdRng::seed_from_u64(81);
    let cal = calibrate(
        &chain,
        &cascade,
        &dataset,
        CalibrationConfig {
            train_samples: 192,
            val_samples: 256,
            train: TrainConfig {
                epochs: 6,
                ..TrainConfig::default()
            },
            accuracy_target_ratio: 0.97,
        },
        &mut rng,
    );
    let front = Deployment::pareto_front(
        &chain,
        leime_dnn::ExitSpec::default(),
        &cal,
        leime_exitcfg::EnvParams::raspberry_pi(),
    )
    .unwrap();
    assert!(!front.is_empty());
    // Sorted by cost, strictly improving accuracy.
    for w in front.windows(2) {
        assert!(w[1].1 >= w[0].1, "front not cost-sorted");
        assert!(w[1].2 < w[0].2, "front not accuracy-improving");
    }
    // No enumerated combo dominates a front point.
    let m = chain.num_layers();
    let profile =
        leime_dnn::ModelProfile::from_chain(&chain, leime_dnn::ExitSpec::default()).unwrap();
    let cost = leime_exitcfg::CostModel::new_offload_aware(
        &profile,
        cal.exit_rates(),
        leime_exitcfg::EnvParams::raspberry_pi(),
    )
    .unwrap();
    for &(_, fc, fl) in &front {
        for first in 0..m - 2 {
            for second in first + 1..m - 1 {
                let combo = leime_dnn::ExitCombo::new(first, second, m - 1, m).unwrap();
                let (c, l) = (cost.total(combo).unwrap(), cal.combo_accuracy_loss(combo));
                assert!(
                    !(c < fc - 1e-12 && l < fl - 1e-12),
                    "front point ({fc}, {fl}) dominated by ({c}, {l})"
                );
            }
        }
    }
}

#[test]
fn deadline_metric_tracks_system_quality() {
    let base = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 6.0);
    let leime_dep = base.deploy(ExitStrategy::Leime).unwrap();
    let leime_r = base.run_slotted(&leime_dep, 150, 29).unwrap();
    let mut frozen = base.clone();
    frozen.controller = ControllerKind::DeviceOnly;
    let ns_dep = frozen.deploy(ExitStrategy::Neurosurgeon).unwrap();
    let ns_r = frozen.run_slotted(&ns_dep, 150, 29).unwrap();
    let deadline = 0.25;
    assert!(
        leime_r.fraction_within(deadline) > ns_r.fraction_within(deadline),
        "LEIME {:.2} vs Neurosurgeon {:.2} within {deadline}s",
        leime_r.fraction_within(deadline),
        ns_r.fraction_within(deadline)
    );
}

#[test]
fn five_tier_hierarchy_end_to_end() {
    // Device -> gateway -> edge -> regional DC -> cloud: the DP places 5
    // exits; the first three tiers' environment comes from a scenario.
    let s = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, 1, 2.0);
    let chain = s.chain();
    let profile = leime_dnn::ModelProfile::from_chain(&chain, s.exit_spec).unwrap();
    let rates = s.candidate_rates();
    let base = tiers_from_env(s.avg_env());
    let tiers = [
        base[0],
        TierEnv {
            flops: 4e9,
            uplink_bandwidth_bps: 20e6,
            uplink_latency_s: 0.01,
        },
        base[1],
        TierEnv {
            flops: 400e9,
            uplink_bandwidth_bps: 1e9,
            uplink_latency_s: 0.03,
        },
        base[2],
    ];
    let (exits, t5) = multi_tier_exits(&profile, &rates, &tiers).unwrap();
    assert_eq!(exits.len(), 5);
    assert_eq!(*exits.last().unwrap(), chain.num_layers() - 1);
    let (_, t3) = multi_tier_exits(&profile, &rates, &base).unwrap();
    assert!(t5.is_finite() && t3.is_finite());
}
