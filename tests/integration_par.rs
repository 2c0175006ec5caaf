//! Differential tests for the deterministic parallel layer (`leime-par`,
//! DESIGN.md §11): for every seed and worker count, the parallel slotted
//! runner must produce **byte identical** output to its sequential
//! reference — reports, telemetry snapshots and post-run queue states.
//! Plus the Theorem-2 statistical check: the branch-and-bound search cost
//! stays `O(m ln m)`-shaped on random monotone chains while agreeing with
//! the exhaustive optimum.

use std::num::NonZeroUsize;

use leime::{
    ChaosConfig, ControllerKind, ExitStrategy, FaultModel, ModelKind, Scenario, SlottedSystem,
    WorkloadKind,
};
use leime_dnn::{DnnChain, ExitRates, ExitSpec, Layer, LayerKind, ModelProfile};
use leime_exitcfg::{branch_and_bound, exhaustive, CostModel, EnvParams};
use leime_telemetry::Registry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RUN_SEED: u64 = 29;

/// Worker counts every differential case is checked at (1 doubles as a
/// sanity check that `run_with_workers(…, 1)` is the sequential path).
const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// The epoch-grid axes for the SoA/epoch differential property: every
/// worker count × slots-per-barrier combination must reproduce the
/// sequential bytes (DESIGN.md §14 — the barrier schedule is a pure
/// scheduling choice).
const EPOCH_WORKERS: [usize; 4] = [1, 2, 4, 8];
const EPOCH_LENS: [usize; 3] = [1, 4, 16];

/// Errors a helper hands back to its `#[test]` caller.
type TestResult<T> = Result<T, Box<dyn std::error::Error>>;

fn w(n: usize) -> TestResult<NonZeroUsize> {
    Ok(NonZeroUsize::try_from(n)?)
}

/// Builds a chaos config from generated parameters (the
/// `integration_chaos` generator, trimmed: at least one model active).
fn generated_chaos(seed: u64, mask: u8, duty: f64, mean_s: f64) -> ChaosConfig {
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
        window_s: Some(40.0),
    }
}

fn controller_for(selector: u8) -> ControllerKind {
    match selector % 5 {
        0 => ControllerKind::Lyapunov,
        1 => ControllerKind::DeviceOnly,
        2 => ControllerKind::EdgeOnly,
        3 => ControllerKind::CapabilityBased,
        _ => ControllerKind::Fixed(0.3),
    }
}

fn workload_for(selector: u8) -> WorkloadKind {
    match selector % 3 {
        0 => WorkloadKind::SlotPoisson { max: 40 },
        1 => WorkloadKind::Deterministic,
        _ => WorkloadKind::Bursty {
            burst_factor: 2.5,
            p_enter: 0.2,
            p_leave: 0.3,
            max: 60,
        },
    }
}

/// One generated differential scenario.
struct Case {
    devices: usize,
    arrival: f64,
    controller: u8,
    workload: u8,
    chaos: Option<(u64, u8, f64, f64)>,
}

fn build_scenario(case: &Case) -> Scenario {
    let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, case.devices, case.arrival);
    s.controller = controller_for(case.controller);
    s.workload = workload_for(case.workload);
    s.chaos = case
        .chaos
        .map(|(seed, mask, duty, mean_s)| generated_chaos(seed, mask, duty, mean_s));
    s
}

/// The §11 contract, asserted: serialized report, telemetry snapshot and
/// post-run queue states from `run_with_workers(…, N)` are byte-identical
/// to the sequential run for every `N`.
fn assert_workers_byte_identical(scenario: &Scenario, slots: usize, seed: u64) -> TestResult<()> {
    let dep = scenario.deploy(ExitStrategy::Leime)?;
    // `None` is the sequential reference, the plain `run` path.
    let run = |workers: Option<usize>| -> TestResult<_> {
        let registry = Registry::new();
        let mut sys = SlottedSystem::new(scenario.clone(), dep.clone())?;
        sys.attach_registry(&registry, "par");
        let report = match workers {
            None => sys.run(slots, seed)?,
            Some(n) => sys.run_with_workers(slots, seed, w(n)?)?,
        };
        let queues: Vec<(u64, u64)> = sys
            .queues()
            .iter()
            .map(|qp| (qp.q().to_bits(), qp.h().to_bits()))
            .collect();
        Ok((
            serde_json::to_string(&report)?,
            serde_json::to_string(&registry.snapshot())?,
            queues,
        ))
    };

    let (seq_report, seq_tel, seq_queues) = run(None)?;
    for workers in WORKER_COUNTS {
        let (report, tel, queues) = run(Some(workers))?;
        assert_eq!(
            seq_report,
            report,
            "RunReport diverged at {workers} workers ({} devices, {slots} slots)",
            scenario.devices.len()
        );
        assert_eq!(
            seq_tel, tel,
            "telemetry snapshot diverged at {workers} workers"
        );
        assert_eq!(
            seq_queues, queues,
            "post-run queue states diverged at {workers} workers"
        );
    }
    Ok(())
}

/// The §14 grid, asserted: `run_with_workers_epochs(…, N, E)` matches
/// the sequential run's serialized RunReport and telemetry snapshot
/// bytes for every worker count × epoch length.
fn assert_epoch_grid_byte_identical(
    scenario: &Scenario,
    slots: usize,
    seed: u64,
) -> TestResult<()> {
    let dep = scenario.deploy(ExitStrategy::Leime)?;
    // `None` is the sequential reference, the plain `run` path.
    let run_at = |grid: Option<(usize, usize)>| -> TestResult<_> {
        let registry = Registry::new();
        let mut sys = SlottedSystem::new(scenario.clone(), dep.clone())?;
        sys.attach_registry(&registry, "epoch");
        let report = match grid {
            None => sys.run(slots, seed)?,
            Some((workers, epoch_len)) => {
                sys.run_with_workers_epochs(slots, seed, w(workers)?, w(epoch_len)?)?
            }
        };
        Ok((
            serde_json::to_string(&report)?,
            serde_json::to_string(&registry.snapshot())?,
        ))
    };

    let (seq_report, seq_tel) = run_at(None)?;

    for workers in EPOCH_WORKERS {
        for epoch_len in EPOCH_LENS {
            let (report, tel) = run_at(Some((workers, epoch_len)))?;
            assert_eq!(
                seq_report,
                report,
                "RunReport diverged at {workers} workers × epoch {epoch_len} \
                 ({} devices, {slots} slots)",
                scenario.devices.len()
            );
            assert_eq!(
                seq_tel, tel,
                "telemetry snapshot diverged at {workers} workers × epoch {epoch_len}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary fleet × workload × controller × optional chaos: the
    /// parallel slotted run is byte-identical to sequential at every
    /// worker count.
    #[test]
    fn parallel_slotted_run_is_byte_identical_to_sequential(
        devices in 1usize..65,
        slots in 1usize..201,
        arrival in 1.0f64..10.0,
        controller in 0u8..5,
        workload in 0u8..3,
        with_chaos in 0u8..2,
        chaos_seed in 0u64..1_000_000,
        mask in 1u8..16,
        duty in 0.05f64..0.6,
        mean_s in 0.5f64..15.0,
    ) {
        let case = Case {
            devices,
            arrival,
            controller,
            workload,
            chaos: (with_chaos == 1).then_some((chaos_seed, mask, duty, mean_s)),
        };
        assert_workers_byte_identical(&build_scenario(&case), slots, RUN_SEED).unwrap();
    }

    /// The SoA/epoch grid on big fleets: any fleet size up to 512
    /// devices, any workload × controller × optional chaos, every
    /// worker count × epoch length reproduces the sequential bytes.
    /// (Slot counts stay small — the case cost is devices × slots ×
    /// 13 runs; the pinned cases below cover long horizons.)
    #[test]
    fn epoch_grid_is_byte_identical_up_to_512_devices(
        devices in 1usize..513,
        slots in 1usize..25,
        arrival in 1.0f64..10.0,
        controller in 0u8..5,
        workload in 0u8..3,
        with_chaos in 0u8..2,
        chaos_seed in 0u64..1_000_000,
        mask in 1u8..16,
        duty in 0.05f64..0.6,
        mean_s in 0.5f64..15.0,
    ) {
        let case = Case {
            devices,
            arrival,
            controller,
            workload,
            chaos: (with_chaos == 1).then_some((chaos_seed, mask, duty, mean_s)),
        };
        assert_epoch_grid_byte_identical(&build_scenario(&case), slots, RUN_SEED).unwrap();
    }
}

/// Pinned regression cases for the property above. The vendored proptest
/// shim does not replay `.proptest-regressions` files, so the corpus in
/// `integration_par.proptest-regressions` is mirrored here explicitly;
/// keep the two in sync when adding cases.
#[test]
fn parallel_differential_pinned_regressions() {
    // Full-width fleet (devices > max shard count) under a compound
    // chaos schedule with the telemetry-recording Lyapunov controller:
    // the hardest replay-ordering case (decision + degrade + fault
    // series interleaved across 64 device streams).
    assert_workers_byte_identical(
        &build_scenario(&Case {
            devices: 64,
            arrival: 6.0,
            controller: 0,
            workload: 0,
            chaos: Some((906_617, 15, 0.59, 14.5)),
        }),
        120,
        RUN_SEED,
    )
    .unwrap();
    // Single device: every worker count collapses to one shard; the
    // bursty MMPP state machine must advance identically inline and
    // under the pool.
    assert_workers_byte_identical(
        &build_scenario(&Case {
            devices: 1,
            arrival: 3.0,
            controller: 2,
            workload: 2,
            chaos: None,
        }),
        200,
        RUN_SEED,
    )
    .unwrap();
    // Shard-count boundary (devices = 7 against workers ∈ {2, 3, 8}):
    // uneven partitions plus an edge-outage-only schedule exercising the
    // churn/fault replay paths with a non-recording controller.
    assert_workers_byte_identical(
        &build_scenario(&Case {
            devices: 7,
            arrival: 8.0,
            controller: 4,
            workload: 1,
            chaos: Some((7, 8, 0.5, 3.0)),
        }),
        150,
        RUN_SEED,
    )
    .unwrap();
}

/// Pinned cases for `epoch_grid_is_byte_identical_up_to_512_devices`,
/// mirrored in `integration_par.proptest-regressions` (the vendored
/// proptest shim does not replay that file); keep the two in sync.
#[test]
fn epoch_grid_pinned_regressions() {
    // Full-width SoA path: 512 fault-free devices under the recording
    // Lyapunov controller — the lane-batched solver runs at every
    // partial-batch occupancy as shard sizes vary with worker count.
    assert_epoch_grid_byte_identical(
        &build_scenario(&Case {
            devices: 512,
            arrival: 6.0,
            controller: 0,
            workload: 0,
            chaos: None,
        }),
        24,
        RUN_SEED,
    )
    .unwrap();
    // Chaos forces the scalar per-device path: epoch batching must not
    // disturb the fault/churn replay ordering (96 devices, compound
    // schedule, bursty MMPP workload).
    assert_epoch_grid_byte_identical(
        &build_scenario(&Case {
            devices: 96,
            arrival: 4.0,
            controller: 0,
            workload: 2,
            chaos: Some((553_211, 15, 0.45, 9.0)),
        }),
        40,
        RUN_SEED,
    )
    .unwrap();
    // Long horizon on a tiny fleet: 200 slots is not a multiple of any
    // epoch length > 1, so the trailing short epoch is exercised along
    // with many barrier crossings.
    assert_epoch_grid_byte_identical(
        &build_scenario(&Case {
            devices: 3,
            arrival: 8.0,
            controller: 2,
            workload: 1,
            chaos: None,
        }),
        200,
        RUN_SEED,
    )
    .unwrap();
}

/// Random chain with log-uniform layer costs and shrinking activations
/// (the `theorem2_complexity` generator).
fn random_profile(m: usize, rng: &mut StdRng) -> TestResult<ModelProfile> {
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
    let chain = DnnChain::new("synthetic", 3, 64, 64, 10, layers)?;
    Ok(ModelProfile::from_chain(&chain, ExitSpec::default())?)
}

/// Random monotone cumulative exit rates (sorted, last pinned to 1).
fn random_rates(m: usize, rng: &mut StdRng) -> TestResult<ExitRates> {
    let mut v: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
    v.sort_by(f64::total_cmp);
    v[m - 1] = 1.0;
    Ok(ExitRates::new(v)?)
}

/// Theorem 2, statistically: on random monotone-rate chains the
/// branch-and-bound's average evaluation count tracks `m·ln m` (ratio in
/// a pinned band, measured ≈ 0.5–1.1 over m ∈ 8…512 at 50 trials) and
/// decisively beats the exhaustive `~m²/2` combo count — while returning
/// the exhaustive search's optimum every single time.
#[test]
fn theorem2_search_cost_is_subquadratic_and_optimal_on_random_chains() {
    const TRIALS: usize = 12;
    // Band for avg_evals / (m·ln m), with margin around the measured
    // 0.49–1.12; a quadratic search would sit at m / (2 ln m) ≈ 6.6
    // already at m = 64.
    const BAND: (f64, f64) = (0.2, 3.0);
    let mut rng = StdRng::seed_from_u64(1729);
    for m in [8usize, 16, 32, 64, 128] {
        let mut total_evals = 0u64;
        for _ in 0..TRIALS {
            let profile = random_profile(m, &mut rng).unwrap();
            let rates = random_rates(m, &mut rng).unwrap();
            let env = EnvParams::raspberry_pi()
                .with_edge_link(10f64.powf(rng.gen_range(6.0..8.0)), rng.gen_range(0.0..0.2));
            let cost = CostModel::new(&profile, &rates, env).unwrap();
            let (bb_combo, bb_cost, stats) = branch_and_bound(&cost).unwrap();
            total_evals += stats.total_evals();

            // Agreement with the exhaustive optimum on every instance.
            let (ex_combo, ex_cost) = exhaustive(&cost).unwrap();
            assert_eq!(bb_combo, ex_combo, "m = {m}: optimum diverged");
            assert!(
                (bb_cost - ex_cost).abs() <= 1e-9 * ex_cost.max(1.0),
                "m = {m}: bb cost {bb_cost} != exhaustive {ex_cost}"
            );
        }
        let avg = total_evals as f64 / TRIALS as f64;
        let mlnm = m as f64 * (m as f64).ln();
        let ratio = avg / mlnm;
        assert!(
            (BAND.0..=BAND.1).contains(&ratio),
            "m = {m}: avg evals {avg:.1} is {ratio:.3}× m·ln m, outside {BAND:?}"
        );
        // Sub-quadratic in absolute terms too: under a quarter of the
        // exhaustive (m-1)(m-2)/2 combo count from m = 64 up (measured
        // ≤ 0.10 there).
        if m >= 64 {
            let exhaustive_combos = ((m - 1) * (m - 2)) as f64 / 2.0;
            assert!(
                avg < 0.25 * exhaustive_combos,
                "m = {m}: avg evals {avg:.1} not clearly sub-quadratic \
                 (exhaustive would be {exhaustive_combos:.0})"
            );
        }
    }
}

/// The parallel layer must not disturb repeated-run semantics: a second
/// `run_with_workers` on the same system continues from the advanced
/// queue states exactly as a second sequential `run` does.
#[test]
fn repeated_parallel_runs_continue_from_advanced_state() {
    let scenario = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 6, 5.0);
    let dep = scenario.deploy(ExitStrategy::Leime).unwrap();

    let mut seq_sys = SlottedSystem::new(scenario.clone(), dep.clone()).unwrap();
    let seq_a = serde_json::to_string(&seq_sys.run(60, 3).unwrap()).unwrap();
    let seq_b = serde_json::to_string(&seq_sys.run(60, 4).unwrap()).unwrap();

    let mut par_sys = SlottedSystem::new(scenario, dep).unwrap();
    let par_a =
        serde_json::to_string(&par_sys.run_with_workers(60, 3, w(4).unwrap()).unwrap()).unwrap();
    let par_b =
        serde_json::to_string(&par_sys.run_with_workers(60, 4, w(3).unwrap()).unwrap()).unwrap();

    assert_eq!(seq_a, par_a, "first run diverged");
    assert_eq!(seq_b, par_b, "second run (from advanced state) diverged");
}
