//! Cross-crate end-to-end tests: the full LEIME stack (model zoo → exit
//! setting → offloading → simulation) against the paper's benchmark
//! systems.

use leime::{systems, ExitStrategy, ModelKind, Scenario};

#[test]
fn leime_beats_all_benchmarks_on_inception_pi() {
    // The paper's headline configuration: ME-Inception v3 on Raspberry Pi
    // (Fig. 7/8). LEIME must beat Neurosurgeon, Edgent and DDNN.
    let base = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, 4, 5.0);
    let (_, leime_r) = systems::leime().run_slotted(&base, 120, 42).unwrap();
    for spec in [systems::neurosurgeon(), systems::edgent(), systems::ddnn()] {
        let (_, r) = spec.run_slotted(&base, 120, 42).unwrap();
        let speedup = leime_r.speedup_vs(&r);
        assert!(
            speedup >= 1.0,
            "{}: LEIME speedup only {speedup:.2}x",
            spec.name
        );
    }
}

#[test]
fn leime_beats_neurosurgeon_on_squeezenet_pi() {
    // Early exits plus offloading must beat the exit-free, device-only
    // partition at the same load.
    let base = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 6.0);
    let (_, leime_slot) = systems::leime().run_slotted(&base, 150, 7).unwrap();
    let (_, ns_slot) = systems::neurosurgeon().run_slotted(&base, 150, 7).unwrap();
    assert!(leime_slot.mean_tct_s() < ns_slot.mean_tct_s());
}

#[test]
fn all_four_models_run_end_to_end() {
    for model in ModelKind::ALL {
        let base = Scenario::raspberry_pi_cluster(model, 2, 3.0);
        let (dep, r) = systems::leime().run_slotted(&base, 60, 1).unwrap();
        assert!(r.tasks() > 100, "{model}: {} tasks", r.tasks());
        assert!(
            r.mean_tct_s().is_finite() && r.mean_tct_s() > 0.0,
            "{model}: TCT {}",
            r.mean_tct_s()
        );
        assert_eq!(dep.combo.third, base.chain().num_layers() - 1);
    }
}

#[test]
fn exit_setting_adapts_to_bandwidth() {
    // The mechanism behind Fig. 7: LEIME's exit setting is
    // network-aware. At low bandwidth the optimiser must not choose a
    // deployment with a larger expected transmission volume
    // (1−σ1)·d1 than the one it picks at high bandwidth, and LEIME must
    // dominate the fixed-placement benchmarks at every bandwidth.
    let deploy_at = |bw: f64| {
        let mut base = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, 2, 1.0);
        for d in &mut base.devices {
            d.bandwidth_bps = bw;
        }
        (base.deploy(ExitStrategy::Leime).unwrap(), base)
    };
    let (slow_dep, slow_base) = deploy_at(2e6);
    let (fast_dep, _) = deploy_at(64e6);
    let expected_bytes = |d: &leime::Deployment| (1.0 - d.sigma[0]) * d.d[1];
    assert!(
        expected_bytes(&slow_dep) <= expected_bytes(&fast_dep) + 1.0,
        "slow-network deployment ships more bytes ({:.0}) than the \
         fast-network one ({:.0})",
        expected_bytes(&slow_dep),
        expected_bytes(&fast_dep)
    );

    // And LEIME still dominates the benchmarks at the poor bandwidth.
    let (_, l) = systems::leime().run_slotted(&slow_base, 80, 5).unwrap();
    for spec in [systems::edgent(), systems::ddnn()] {
        let (_, r) = spec.run_slotted(&slow_base, 80, 5).unwrap();
        assert!(
            l.mean_tct_s() <= r.mean_tct_s() * 1.02,
            "{} beat LEIME at 2 Mbps: {:.3}s vs {:.3}s",
            spec.name,
            r.mean_tct_s(),
            l.mean_tct_s()
        );
    }
}

#[test]
fn heterogeneous_fleet_runs() {
    // Mixed Pi + Nano fleet with different arrival rates, as in the
    // paper's testbed (4 Pis + 2 Nanos).
    let mut base = Scenario::raspberry_pi_cluster(ModelKind::ResNet34, 4, 4.0);
    base.devices
        .push(leime_offload::DeviceParams::jetson_nano(8.0));
    base.devices
        .push(leime_offload::DeviceParams::jetson_nano(8.0));
    let (_, r) = systems::leime().run_slotted(&base, 100, 9).unwrap();
    assert!(r.tasks() > 1000);
    assert!(r.mean_tct_s().is_finite());
}

#[test]
fn mean_offload_reacts_to_device_strength() {
    // Nanos should offload less than Pis under the same load.
    let pi = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, 2, 5.0);
    let nano = Scenario::jetson_nano_cluster(ModelKind::InceptionV3, 2, 5.0);
    let dep_pi = pi.deploy(ExitStrategy::Leime).unwrap();
    let dep_nano = nano.deploy(ExitStrategy::Leime).unwrap();
    let r_pi = pi.run_slotted(&dep_pi, 80, 2).unwrap();
    let r_nano = nano.run_slotted(&dep_nano, 80, 2).unwrap();
    assert!(
        r_pi.mean_offload_ratio() >= r_nano.mean_offload_ratio(),
        "pi offloads {:.3}, nano {:.3}",
        r_pi.mean_offload_ratio(),
        r_nano.mean_offload_ratio()
    );
}
