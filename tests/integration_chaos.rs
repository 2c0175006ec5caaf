//! Integration + property tests for the `leime-chaos` fault-injection
//! subsystem: graceful degradation under the 30 %-blackout testbed,
//! byte-identical deterministic replay, Eq. 10–11 queue stability under
//! arbitrary generated fault schedules, and golden equivalence of the
//! exit-setting searches with and without fault-perturbed environments.

use leime::{
    invariant, ChaosConfig, ControllerKind, ExitStrategy, FaultModel, ModelKind, RunReport,
    Scenario, SlottedSystem,
};
use leime_dnn::{zoo, DnnChain, ExitSpec, ModelProfile};
use leime_exitcfg::{branch_and_bound, exhaustive, CostModel, EnvParams};
use leime_telemetry::Registry;
use leime_workload::ExitRateModel;
use proptest::prelude::*;

/// Mirrors the `ext_chaos` experiment: 300 one-second slots, faults
/// confined to the first 120 s so the tail measures recovery.
const SLOTS: usize = 300;
const RUN_SEED: u64 = 17;
const CHAOS_SEED: u64 = 42;
const DEVICES: usize = 3;
const FAULT_WINDOW_S: f64 = 120.0;

/// Errors a helper hands back to its `#[test]` caller.
type TestResult<T> = Result<T, Box<dyn std::error::Error>>;

fn run_scenario(scenario: &Scenario) -> TestResult<(RunReport, f64)> {
    let dep = scenario.deploy(ExitStrategy::Leime)?;
    let mut sys = SlottedSystem::new(scenario.clone(), dep)?;
    let report = sys.run(SLOTS, RUN_SEED)?;
    let backlog = sys.queues().iter().map(|qp| qp.q() + qp.h()).sum::<f64>();
    Ok((report, backlog))
}

/// The ISSUE acceptance criterion: under the ~30 % link-blackout schedule
/// the graceful controller's completion rate beats the fully-local
/// baseline, and once the faults clear its mean TCT recovers to within
/// 10 % of the fault-free mean.
#[test]
fn graceful_degradation_beats_fully_local_and_recovers() {
    let faulted =
        Scenario::chaos_testbed(ModelKind::SqueezeNet, DEVICES, CHAOS_SEED, FAULT_WINDOW_S);
    let mut clean = faulted.clone();
    clean.chaos = None;
    let mut local = faulted.clone();
    local.controller = ControllerKind::DeviceOnly;

    let (clean_report, clean_backlog) = run_scenario(&clean).unwrap();
    let (graceful_report, graceful_backlog) = run_scenario(&faulted).unwrap();
    let (local_report, _) = run_scenario(&local).unwrap();

    // The schedule actually bit, and the degradation ladder engaged.
    let f = graceful_report.fault_stats();
    assert!(f.fault_slots > 50, "schedule too quiet: {f:?}");
    assert!(
        f.timeouts > 0 && f.fallbacks > 0,
        "ladder never engaged: {f:?}"
    );
    assert!(f.recoveries > 0, "never recovered from fallback: {f:?}");
    assert_eq!(clean_report.fault_stats(), Default::default());

    // Completion rate above the fully-local baseline under the same faults.
    let g = graceful_report.completion_rate();
    let l = local_report.completion_rate();
    assert!(
        g > l,
        "graceful completion {g:.4} not above fully-local {l:.4}"
    );

    // Post-fault mean TCT within 10 % of the fault-free mean.
    let tail = graceful_report.mean_tct_after(FAULT_WINDOW_S);
    let clean_mean = clean_report.mean_tct_s();
    assert!(
        tail <= 1.10 * clean_mean,
        "post-fault TCT {tail:.4}s not within 10% of fault-free {clean_mean:.4}s"
    );

    // Eq. 10–11 stability: both LEIME arms drain back into the envelope
    // once the schedule clears (~2x the fault-free steady-state backlog).
    let envelope = 2.0 * clean_backlog.max(10.0);
    invariant::check_drained("integration_chaos.clean", clean_backlog, envelope);
    invariant::check_drained("integration_chaos.graceful", graceful_backlog, envelope);
}

/// Deterministic replay: two runs of the same chaos scenario and seeds
/// into fresh telemetry registries must serialise to byte-identical JSON
/// snapshots (the slotted path runs entirely on the virtual clock, so
/// there are no wall-clock fields to mask).
#[test]
fn replay_is_byte_identical_per_seed() {
    let scenario =
        Scenario::chaos_testbed(ModelKind::SqueezeNet, DEVICES, CHAOS_SEED, FAULT_WINDOW_S);
    let snapshot = || {
        let dep = scenario.deploy(ExitStrategy::Leime).unwrap();
        let mut sys = SlottedSystem::new(scenario.clone(), dep).unwrap();
        let registry = Registry::new();
        sys.attach_registry(&registry, "replay");
        let report = sys.run(SLOTS, RUN_SEED).unwrap();
        let json = serde_json::to_string_pretty(&registry.snapshot()).unwrap();
        (report.fault_stats(), report.tasks(), json)
    };
    let (stats_a, tasks_a, json_a) = snapshot();
    let (stats_b, tasks_b, json_b) = snapshot();
    assert_eq!(stats_a, stats_b);
    assert_eq!(tasks_a, tasks_b);
    assert_eq!(json_a, json_b, "telemetry snapshots differ between replays");
}

/// Builds a chaos config from generated parameters. `mask` selects which
/// fault models participate (at least one is always included).
fn generated_chaos(seed: u64, mask: u8, duty: f64, mean_s: f64, window_s: f64) -> ChaosConfig {
    let mut models = Vec::new();
    if mask & 1 != 0 {
        models.push(FaultModel::LinkFlaps {
            duty,
            mean_outage_s: mean_s,
        });
    }
    if mask & 2 != 0 {
        models.push(FaultModel::BandwidthCollapse {
            duty,
            factor: 0.25,
            mean_episode_s: mean_s,
        });
    }
    if mask & 4 != 0 {
        models.push(FaultModel::EdgeBrownout {
            duty,
            factor: 0.5,
            mean_episode_s: mean_s,
        });
    }
    if mask & 8 != 0 {
        models.push(FaultModel::EdgeOutages {
            duty,
            mean_outage_s: mean_s,
        });
    }
    if models.is_empty() {
        models.push(FaultModel::LinkFlaps {
            duty,
            mean_outage_s: mean_s,
        });
    }
    ChaosConfig {
        seed,
        models,
        window_s: Some(window_s),
    }
}

/// Eq. 10–11 stability under one generated fault schedule: runs a small
/// fleet at a per-device load it can sustain standalone, asserts the
/// virtual queues stay finite and non-negative throughout (the guarded
/// `QueuePair::step` fires on any negative excursion under
/// `cfg(debug_assertions)`), and that the backlog drains back into a
/// bounded envelope over the fault-free tail.
fn assert_queues_stable_under_faults(n: usize, arrival: f64, chaos: ChaosConfig) -> TestResult<()> {
    let mut scenario = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, n, arrival);
    scenario.chaos = Some(chaos);
    let slots = 120usize;
    let dep = scenario.deploy(ExitStrategy::Leime)?;
    let mut sys = SlottedSystem::new(scenario, dep)?;
    let report = sys.run(slots, RUN_SEED)?;
    prop_assert!(report.tasks() > 0);
    let mut backlog = 0.0;
    for (i, qp) in sys.queues().iter().enumerate() {
        let (q, h) = (qp.q(), qp.h());
        prop_assert!(q.is_finite() && q >= 0.0, "device {i}: Q = {q}");
        prop_assert!(h.is_finite() && h >= 0.0, "device {i}: H = {h}");
        backlog += q + h;
    }
    // Fault window is 40 s of a 120 s run: 80 fault-free slots to drain.
    // At a standalone-sustainable load the post-fault backlog settles to
    // at most a few slots of work per device.
    let envelope = n as f64 * (5.0 * arrival + 20.0);
    prop_assert!(
        backlog <= envelope,
        "backlog {backlog:.1} above drain envelope {envelope:.1}"
    );
    invariant::check_drained("integration_chaos.prop", backlog, envelope);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Queue recursions Eq. 10–11 hold under *any* generated fault
    /// schedule: non-negative Q/H at every step and bounded drain after
    /// the window closes.
    #[test]
    fn queues_stay_stable_under_generated_fault_schedules(
        chaos_seed in 0u64..1_000_000,
        mask in 1u8..16,
        duty in 0.05f64..0.6,
        mean_s in 0.5f64..15.0,
        n in 1usize..4,
        arrival in 2.0f64..10.0,
    ) {
        let chaos = generated_chaos(chaos_seed, mask, duty, mean_s, 40.0);
        assert_queues_stable_under_faults(n, arrival, chaos).unwrap();
    }
}

/// Pinned regression cases for the property above. The vendored proptest
/// shim does not replay `.proptest-regressions` files, so the corpus in
/// `integration_chaos.proptest-regressions` is mirrored here explicitly;
/// keep the two in sync when adding cases.
#[test]
fn queue_stability_pinned_regressions() {
    // High-duty compound schedule (all four models active): the worst
    // case for the drain envelope, exercised at the corpus seed.
    assert_queues_stable_under_faults(3, 8.0, generated_chaos(906_617, 15, 0.59, 14.5, 40.0))
        .unwrap();
    // Single long-outage flap lane at low duty: schedules whose first
    // gap draw can exceed the window (empty-schedule edge case).
    assert_queues_stable_under_faults(1, 2.0, generated_chaos(42, 1, 0.05, 14.9, 40.0)).unwrap();
    // Edge-outage-only schedule: the edge vanishes but links stay up,
    // exercising the `edge.up == false` quota-zeroing path in isolation.
    assert_queues_stable_under_faults(2, 5.0, generated_chaos(7, 8, 0.5, 3.0, 40.0)).unwrap();
}

/// The six-model zoo at its native input sizes (the four CIFAR-sized
/// chains plus ImageNet-sized AlexNet and MobileNet v1).
fn full_zoo() -> Vec<DnnChain> {
    let mut chains = zoo::cifar_models(10);
    chains.push(zoo::alexnet(224, 1000));
    chains.push(zoo::mobilenet_v1(224, 1000));
    chains
}

/// Fault-perturbed views of an environment: the nominal link, a COMCAST
/// bandwidth collapse with a latency spike, an edge brownout, and a
/// compound worst case. These mirror what `leime-chaos` health states do
/// to the profiled latencies at decision time.
fn env_grid() -> Vec<EnvParams> {
    let mut envs = Vec::new();
    for base in [EnvParams::raspberry_pi(), EnvParams::jetson_nano()] {
        envs.push(base);
        envs.push(base.with_edge_link(base.edge_bandwidth_bps * 0.25, base.edge_latency_s + 0.05));
        envs.push(base.with_edge_scale(0.4));
        envs.push(
            base.with_edge_link(base.edge_bandwidth_bps * 0.1, base.edge_latency_s + 0.2)
                .with_edge_scale(0.5),
        );
    }
    envs
}

/// Golden equivalence (Theorem 1): branch-and-bound returns the same
/// optimal exit triple `E` and cost `T(E)` as exhaustive search across
/// the full zoo × environment grid, with and without fault perturbation
/// of the profiled link/compute parameters.
#[test]
fn bb_matches_exhaustive_across_zoo_and_fault_grid() {
    for chain in full_zoo() {
        let profile = ModelProfile::from_chain(&chain, ExitSpec::default()).unwrap();
        let rates = ExitRateModel::cifar_like().rates_for_chain(&chain);
        for env in env_grid() {
            for cost in [
                CostModel::new(&profile, &rates, env).unwrap(),
                CostModel::new_offload_aware(&profile, &rates, env).unwrap(),
            ] {
                let (bb_combo, bb_cost, _) = branch_and_bound(&cost).unwrap();
                let (ex_combo, ex_cost) = exhaustive(&cost).unwrap();
                assert_eq!(
                    bb_combo,
                    ex_combo,
                    "{}: optimal triple diverged (offload_aware {})",
                    chain.name(),
                    cost.is_offload_aware()
                );
                assert!(
                    (bb_cost - ex_cost).abs() <= 1e-9 * ex_cost.max(1.0),
                    "{}: bb {bb_cost} != exhaustive {ex_cost}",
                    chain.name()
                );
                // Both searches report the true T(E) of their combo.
                let recomputed = cost.total(bb_combo).unwrap();
                assert!(
                    (recomputed - bb_cost).abs() <= 1e-9 * bb_cost.max(1.0),
                    "{}: reported cost {bb_cost} != T(E) {recomputed}",
                    chain.name()
                );
            }
        }
    }
}

/// A quiet chaos config (no fault models) must leave the slotted run
/// untouched — the fault-free path is preserved bit-for-bit.
#[test]
fn quiet_chaos_is_a_no_op_end_to_end() {
    let mut scenario = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 4.0);
    let (clean_report, clean_backlog) = {
        let dep = scenario.deploy(ExitStrategy::Leime).unwrap();
        let mut sys = SlottedSystem::new(scenario.clone(), dep).unwrap();
        let r = sys.run(100, RUN_SEED).unwrap();
        let b = sys.queues().iter().map(|qp| qp.q() + qp.h()).sum::<f64>();
        (r, b)
    };
    scenario.chaos = Some(ChaosConfig::quiet(CHAOS_SEED));
    let dep = scenario.deploy(ExitStrategy::Leime).unwrap();
    let mut sys = SlottedSystem::new(scenario, dep).unwrap();
    let quiet_report = sys.run(100, RUN_SEED).unwrap();
    let quiet_backlog = sys.queues().iter().map(|qp| qp.q() + qp.h()).sum::<f64>();
    assert_eq!(clean_report.tasks(), quiet_report.tasks());
    assert_eq!(quiet_report.fault_stats(), Default::default());
    assert!((clean_report.mean_tct_s() - quiet_report.mean_tct_s()).abs() < 1e-12);
    assert!((clean_backlog - quiet_backlog).abs() < 1e-12);
}
