//! Differential tests for the hierarchical multi-edge fleet layer
//! (`leime-fleet`, DESIGN.md §16): for every seed, edge count and worker
//! count, a fleet run must produce **byte identical** output — the
//! serialized [`FleetReport`] (per-interval per-edge [`RunReport`]s,
//! migration log, final assignment), the telemetry snapshot and the
//! post-run per-device queue states. Plus the migration/failover goldens
//! (exact post-outage assignment, Eq. 10–11 backlog conserved through
//! the handoff) and the single-edge equivalence anchors: a 1-edge fleet
//! *is* the bare `SlottedSystem` run, byte-for-byte in one interval and
//! row for row at every rebalance interval.

use std::num::NonZeroUsize;

use leime::{
    ChaosConfig, ControllerKind, ExitStrategy, FaultModel, ModelKind, RunReport, Scenario,
    SlottedSystem, WorkloadKind,
};
use leime_fleet::{FleetConfig, FleetReport, FleetSystem, MigrationCause};
use leime_simnet::{SimTime, TimeTrace};
use leime_telemetry::{Buckets, Registry};
use proptest::prelude::*;
use serde::Deserialize;

const RUN_SEED: u64 = 41;

/// Worker counts every fleet differential case is checked at (1 doubles
/// as the sequential-path sanity check).
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Slots per barrier every fleet differential case is checked at, beside
/// the default: epochs also end at every rebalance boundary, so each
/// length cuts the intervals differently.
const EPOCH_LENS: [usize; 3] = [1, 4, 16];

/// Errors a helper hands back to its `#[test]` caller.
type TestResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Chaos generator shared with `integration_par` (at least one model
/// active; the fleet wall adds edge outages prominently since they are
/// what drives failover).
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
        models.push(FaultModel::EdgeOutages {
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

/// Every workload: selector 3 is a square-wave rate trace, whose Eq. 27
/// shares are re-solved per slot on global time.
fn workload_for(selector: u8) -> WorkloadKind {
    match selector % 4 {
        0 => WorkloadKind::SlotPoisson { max: 40 },
        1 => WorkloadKind::Deterministic,
        2 => WorkloadKind::Bursty {
            burst_factor: 2.5,
            p_enter: 0.2,
            p_leave: 0.3,
            max: 60,
        },
        _ => WorkloadKind::RateTrace {
            trace: TimeTrace::square_wave(
                2.0,
                9.0,
                SimTime::from_secs(3.0),
                SimTime::from_secs(60.0),
            ),
            max: 40,
        },
    }
}

/// One generated fleet differential scenario.
struct FleetCase {
    devices: usize,
    edges: usize,
    rebalance_interval: usize,
    arrival: f64,
    controller: u8,
    workload: u8,
    chaos: Option<(u64, u8, f64, f64)>,
}

fn build_scenario(case: &FleetCase) -> Scenario {
    let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, case.devices, case.arrival);
    s.controller = controller_for(case.controller);
    s.workload = workload_for(case.workload);
    s.chaos = case
        .chaos
        .map(|(seed, mask, duty, mean_s)| generated_chaos(seed, mask, duty, mean_s));
    s
}

fn build_fleet(case: &FleetCase) -> leime::Result<FleetSystem> {
    let scenario = build_scenario(case);
    let deployment = scenario.deploy(ExitStrategy::Leime)?;
    let config = FleetConfig::regional(case.edges, case.rebalance_interval);
    FleetSystem::new(scenario, deployment, config)
}

/// The fleet §11/§16 contract, asserted: serialized `FleetReport`,
/// telemetry snapshot and post-run per-device queue bits are
/// byte-identical to the one-worker run at the default epoch length for
/// every worker count in `WORKER_COUNTS` × epoch length in `EPOCH_LENS`.
fn assert_fleet_byte_identical(case: &FleetCase, slots: usize, seed: u64) -> TestResult<()> {
    let run = |workers: usize, epoch_len: NonZeroUsize| -> TestResult<_> {
        let registry = Registry::new();
        let mut fleet = build_fleet(case)?;
        let report = fleet.run_with_registry(
            slots,
            seed,
            NonZeroUsize::try_from(workers)?,
            epoch_len,
            &registry,
            "fleet",
        )?;
        let queues: Vec<(usize, u64, u64)> = fleet
            .queues()
            .iter()
            .enumerate()
            .map(|(d, qp)| (d, qp.q().to_bits(), qp.h().to_bits()))
            .collect();
        Ok((
            serde_json::to_string(&report)?,
            serde_json::to_string(&registry.snapshot())?,
            queues,
        ))
    };

    let (seq_report, seq_tel, seq_queues) = run(1, leime::DEFAULT_EPOCH_LEN)?;
    for workers in WORKER_COUNTS {
        for epoch_len in EPOCH_LENS {
            let (report, tel, queues) = run(workers, NonZeroUsize::try_from(epoch_len)?)?;
            assert_eq!(
                seq_report, report,
                "FleetReport diverged at {workers} workers × epoch {epoch_len} \
                 ({} devices × {} edges, {slots} slots)",
                case.devices, case.edges
            );
            assert_eq!(
                seq_tel, tel,
                "telemetry snapshot diverged at {workers} workers × epoch {epoch_len}"
            );
            assert_eq!(
                seq_queues, queues,
                "post-run queue states diverged at {workers} workers × epoch {epoch_len}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The million-device wall's generative core (scaled down for CI):
    /// arbitrary fleets × edge counts × rebalance cadences × workloads ×
    /// controllers × optional chaos — the fleet run is byte-identical at
    /// workers {1, 2, 4, 8} × epoch lengths {1, 4, 16}, including every
    /// cross-edge migration and failover decision embedded in the
    /// report.
    #[test]
    fn fleet_run_is_byte_identical_across_worker_counts(
        devices in 1usize..33,
        edges in 1usize..5,
        rebalance_interval in 0usize..16,
        slots in 1usize..49,
        arrival in 1.0f64..10.0,
        controller in 0u8..5,
        workload in 0u8..4,
        with_chaos in 0u8..2,
        chaos_seed in 0u64..1_000_000,
        mask in 1u8..16,
        duty in 0.05f64..0.7,
        mean_s in 0.5f64..15.0,
    ) {
        let case = FleetCase {
            devices,
            edges,
            rebalance_interval,
            arrival,
            controller,
            workload,
            chaos: (with_chaos == 1).then_some((chaos_seed, mask, duty, mean_s)),
        };
        assert_fleet_byte_identical(&case, slots, RUN_SEED).unwrap();
    }
}

/// Pinned regression cases for the property above. The vendored proptest
/// shim does not replay `.proptest-regressions` files, so the corpus in
/// `integration_fleet.proptest-regressions` is mirrored here explicitly;
/// keep the two in sync when adding cases.
#[test]
fn fleet_differential_pinned_regressions() -> TestResult<()> {
    // More edges than devices: three of five shards are permanently
    // empty (RunReport::new() placeholders) while the balancer sees
    // zero-pressure targets every boundary.
    assert_fleet_byte_identical(
        &FleetCase {
            devices: 2,
            edges: 4,
            rebalance_interval: 3,
            arrival: 9.0,
            controller: 0,
            workload: 0,
            chaos: None,
        },
        30,
        RUN_SEED,
    )?;
    // Compound chaos (all four fault models) over a 3-edge fleet with a
    // short rebalance cadence: ten boundaries sample edge health and
    // pressures under faults, and seven of them move devices (the golden
    // below pins the outputs).
    assert_fleet_byte_identical(
        &FleetCase {
            devices: 24,
            edges: 3,
            rebalance_interval: 4,
            arrival: 8.0,
            controller: 0,
            workload: 2,
            chaos: Some((906_617, 15, 0.6, 12.0)),
        },
        44,
        RUN_SEED,
    )?;
    // Single interval (rebalance_interval 0) multi-edge fleet: the
    // regional tier never acts; per-edge seed lanes and per-edge chaos
    // reseeding alone must hold the contract.
    assert_fleet_byte_identical(
        &FleetCase {
            devices: 13,
            edges: 4,
            rebalance_interval: 0,
            arrival: 5.0,
            controller: 4,
            workload: 1,
            chaos: Some((7, 8, 0.5, 3.0)),
        },
        40,
        RUN_SEED,
    )?;
    Ok(())
}

/// Cross-commit golden, captured from the fleet that runs its horizon as
/// one slot loop over persistent device rows: the compound-chaos 3-edge
/// case of `fleet_differential_pinned_regressions` and the failover
/// scenario. Pins per-interval per-edge task counts, the mean-TCT bits,
/// the migrations (the failover log with backlog bits) and the final
/// assignment.
#[test]
fn fleet_outputs_match_the_per_edge_run_golden() -> TestResult<()> {
    let compound = FleetCase {
        devices: 24,
        edges: 3,
        rebalance_interval: 4,
        arrival: 8.0,
        controller: 0,
        workload: 2,
        chaos: Some((906_617, 15, 0.6, 12.0)),
    };
    let report = build_fleet(&compound)?.run(44, RUN_SEED)?;
    let tasks: Vec<Vec<usize>> = report
        .intervals
        .iter()
        .map(|iv| iv.edges.iter().map(|e| e.tasks()).collect())
        .collect();
    assert_eq!(
        tasks,
        vec![
            vec![465, 486, 333],
            vec![313, 380, 325],
            vec![629, 0, 538],
            vec![0, 0, 1034],
            vec![0, 0, 1144],
            vec![0, 190, 984],
            vec![0, 271, 1066],
            vec![0, 179, 1061],
            vec![0, 0, 1229],
            vec![0, 201, 1015],
            vec![200, 185, 993],
        ]
    );
    assert_eq!(report.mean_tct_s().to_bits(), 0x3ff1_c64b_17ce_919c);
    // Moves per boundary and cause.
    let mut moves: Vec<(usize, MigrationCause, usize)> = Vec::new();
    for m in &report.migrations {
        match moves.last_mut() {
            Some((at, cause, n)) if (*at, *cause) == (m.at_slot, m.cause) => *n += 1,
            _ => moves.push((m.at_slot, m.cause, 1)),
        }
    }
    assert_eq!(
        moves,
        vec![
            (8, MigrationCause::Failover, 8),
            (12, MigrationCause::Failover, 12),
            (20, MigrationCause::Balance, 3),
            (24, MigrationCause::Balance, 1),
            (32, MigrationCause::Failover, 4),
            (36, MigrationCause::Balance, 3),
            (40, MigrationCause::Balance, 3),
        ]
    );
    assert_eq!(
        report.final_assignment,
        vec![2, 2, 2, 2, 2, 1, 1, 0, 2, 2, 2, 2, 0, 2, 2, 2, 1, 2, 2, 2, 0, 2, 2, 2]
    );

    let (report, _) = run_failover_golden()?;
    let tasks: Vec<Vec<usize>> = report
        .intervals
        .iter()
        .map(|iv| iv.edges.iter().map(|e| e.tasks()).collect())
        .collect();
    assert_eq!(tasks, vec![vec![263, 255], vec![480, 0], vec![464, 0]]);
    assert_eq!(report.mean_tct_s().to_bits(), 0x3fda_6adc_1b7a_2d00);
    let log: Vec<(usize, usize, usize, usize, u64, MigrationCause)> = report
        .migrations
        .iter()
        .map(|m| {
            (
                m.at_slot,
                m.device,
                m.from_edge,
                m.to_edge,
                m.backlog.to_bits(),
                m.cause,
            )
        })
        .collect();
    assert_eq!(
        log,
        vec![
            (10, 2, 1, 0, 0x4030_7f21_d399_6630, MigrationCause::Failover),
            (10, 5, 1, 0, 0x402e_3c10_7e0c_867e, MigrationCause::Failover),
            (10, 3, 1, 0, 0x402a_c4cd_edca_1f14, MigrationCause::Failover),
        ]
    );
    assert_eq!(report.final_assignment, vec![0; 6]);
    Ok(())
}

/// The scenario behind the failover/migration goldens: a 2-edge fleet
/// whose chaos is an edge-outage-only schedule dense enough that one
/// edge is down at a boundary, with enough arrival pressure that every
/// device carries backlog through the handoff.
fn failover_scenario() -> (Scenario, FleetConfig) {
    let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 6, 8.0);
    s.controller = ControllerKind::Lyapunov;
    s.workload = WorkloadKind::SlotPoisson { max: 40 };
    s.chaos = Some(ChaosConfig {
        seed: FAILOVER_CHAOS_SEED,
        models: vec![FaultModel::EdgeOutages {
            duty: 0.55,
            mean_outage_s: 12.0,
        }],
        window_s: None,
    });
    let config = FleetConfig::regional(2, 10);
    (s, config)
}

/// Chaos seed pinned by the golden below (chosen so exactly one edge is
/// down at the first boundary of `failover_scenario` and stays down at
/// the second, sampled on global slot time).
const FAILOVER_CHAOS_SEED: u64 = 27;

fn run_failover_golden() -> leime::Result<(FleetReport, FleetSystem)> {
    let (scenario, config) = failover_scenario();
    let deployment = scenario.deploy(ExitStrategy::Leime)?;
    let mut fleet = FleetSystem::new(scenario, deployment, config)?;
    let report = fleet.run(30, RUN_SEED)?;
    Ok((report, fleet))
}

/// Failover golden: at the first boundary (slot 10) edge 1 is down;
/// its three devices (2, 5, 3 — the pinned assignment puts {2, 3, 5}
/// there) evacuate heaviest-first onto edge 0 with their Eq. 10–11
/// backlog intact (`invariant::check_drained` fires inside `evacuate`,
/// active under `debug_assertions`). The exact post-migration
/// assignment, causes and ordering are pinned.
#[test]
fn failover_golden_exact_post_migration_assignment() {
    let (report, fleet) = run_failover_golden().unwrap();

    // Edge 1 is down from the first boundary on.
    let down: Vec<Vec<usize>> = report
        .intervals
        .iter()
        .map(|iv| iv.down_edges.clone())
        .collect();
    assert_eq!(down, vec![vec![], vec![1], vec![1]]);

    // Exactly the three edge-1 devices moved, heaviest first, all
    // failover, all at the first boundary, all onto edge 0.
    let moves: Vec<(usize, usize, usize, usize)> = report
        .migrations
        .iter()
        .map(|m| (m.at_slot, m.device, m.from_edge, m.to_edge))
        .collect();
    assert_eq!(moves, vec![(10, 2, 1, 0), (10, 5, 1, 0), (10, 3, 1, 0)]);
    assert!(report
        .migrations
        .iter()
        .all(|m| m.cause == MigrationCause::Failover));
    // Heaviest-first deal: backlogs are non-increasing and positive —
    // Eq. 10–11 state travelled with the devices, nothing was zeroed.
    for pair in report.migrations.windows(2) {
        assert!(pair[0].backlog >= pair[1].backlog, "not heaviest-first");
    }
    assert!(report.migrations.iter().all(|m| m.backlog > 0.0));

    // Post-failover topology: everything lives on edge 0.
    assert_eq!(report.final_assignment, vec![0; 6]);
    assert!(fleet.assignment().iter().all(|&e| e == 0));

    // The evacuated edge holds zero pressure and simulates nothing in
    // the remaining intervals (empty RunReport placeholders).
    assert_eq!(fleet.pressures()[1].to_bits(), 0.0f64.to_bits());
    for iv in &report.intervals[1..] {
        assert_eq!(iv.edges[1].tasks(), 0, "evacuated edge ran tasks");
    }
    // The survivors kept completing work after the handoff.
    assert!(report.intervals[1].edges[0].tasks() > 0);
}

/// The balancer golden scenario: no chaos, but devices 0/1/4 (edge 0
/// under the pinned assignment) arrive an order of magnitude hotter
/// than devices 2/3/5 (edge 1) with an offload-less controller, so edge
/// 0's Eq. 10–11 pressure blows past `pressure_ratio` × edge 1's at
/// every boundary and the balancer migrates hot devices across.
fn balance_scenario() -> (Scenario, FleetConfig) {
    let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 6, 1.0);
    s.controller = ControllerKind::DeviceOnly;
    s.workload = WorkloadKind::Deterministic;
    for d in [0usize, 1, 4] {
        s.devices[d].arrival_mean = 30.0;
    }
    (s, FleetConfig::regional(2, 10))
}

/// Balancer migration golden: at the first boundary edge 0's pressure
/// exceeds 4× edge 1's, so the balancer moves edge 0's heaviest device
/// (device 0, ~123.7 backlog) across — and exactly one move restores
/// the ratio, so the log holds a single pinned `Balance` event.
#[test]
fn balance_golden_moves_heaviest_device_once() {
    let (scenario, config) = balance_scenario();
    let deployment = scenario.deploy(ExitStrategy::Leime).expect("deploys");
    let mut fleet = FleetSystem::new(scenario, deployment, config.clone()).expect("builds");
    let report = fleet.run(30, RUN_SEED).expect("runs");

    assert_eq!(report.migrations.len(), 1);
    let m = &report.migrations[0];
    assert_eq!(
        (m.at_slot, m.device, m.from_edge, m.to_edge, m.cause),
        (10, 0, 0, 1, MigrationCause::Balance)
    );
    assert!(m.backlog > 100.0, "expected a heavy evacuee: {}", m.backlog);
    assert_eq!(report.final_assignment, vec![1, 0, 1, 1, 0, 1]);
    // No outages here: no interval ever marks an edge down.
    assert!(report.intervals.iter().all(|iv| iv.down_edges.is_empty()));
    // Post-run the ratio constraint holds between the two edges.
    let p = fleet.pressures();
    let (hot, cool) = (p[0].max(p[1]), p[0].min(p[1]));
    assert!(
        hot <= config.pressure_ratio * cool,
        "balancer left ratio violated: {p:?}"
    );
}

/// The single-edge equivalence anchor (ISSUE 10 satellite 3): a 1-edge
/// fleet run reproduces the bare `SlottedSystem::run_with_workers`
/// RunReport byte-identically — same seed, same chaos, same device
/// order — and its telemetry under `fleet.edge0` matches the bare
/// system's under the same prefix, snapshot bytes and all.
#[test]
fn single_edge_fleet_is_byte_identical_to_bare_slotted_system() {
    for (chaos, workers, slots) in [
        (None, 1usize, 80usize),
        (Some((11u64, 9u8, 0.4, 6.0)), 4, 60),
    ] {
        let case = FleetCase {
            devices: 10,
            edges: 1,
            rebalance_interval: 0,
            arrival: 6.0,
            controller: 0,
            workload: 0,
            chaos,
        };
        let scenario = build_scenario(&case);
        let deployment = scenario.deploy(ExitStrategy::Leime).expect("deploys");

        let bare_registry = Registry::new();
        let mut bare = SlottedSystem::new(scenario.clone(), deployment.clone()).expect("builds");
        bare.attach_registry(&bare_registry, "fleet.edge0");
        let bare_report = bare
            .run_with_workers(slots, RUN_SEED, NonZeroUsize::new(workers).unwrap())
            .expect("runs");

        let fleet_registry = Registry::new();
        let mut fleet =
            FleetSystem::new(scenario, deployment, FleetConfig::single_edge()).expect("builds");
        let fleet_report = fleet
            .run_with_registry(
                slots,
                RUN_SEED,
                NonZeroUsize::new(workers).unwrap(),
                leime::DEFAULT_EPOCH_LEN,
                &fleet_registry,
                "fleet",
            )
            .expect("runs");

        assert_eq!(fleet_report.intervals.len(), 1);
        assert_eq!(
            serde_json::to_string(&fleet_report.intervals[0].edges[0]).expect("serializes"),
            serde_json::to_string(&bare_report).expect("serializes"),
            "1-edge fleet RunReport diverged from the bare system \
             (workers {workers}, chaos {chaos:?})"
        );
        assert_eq!(
            serde_json::to_string(&fleet_registry.snapshot()).expect("serializes"),
            serde_json::to_string(&bare_registry.snapshot()).expect("serializes"),
            "1-edge fleet telemetry diverged from the bare system"
        );
        // And the carried queue map matches the bare system's post-run
        // queue states bit-for-bit.
        let bare_queues: Vec<(u64, u64)> = bare
            .queues()
            .iter()
            .map(|qp| (qp.q().to_bits(), qp.h().to_bits()))
            .collect();
        let fleet_queues: Vec<(u64, u64)> = fleet
            .queues()
            .iter()
            .map(|qp| (qp.q().to_bits(), qp.h().to_bits()))
            .collect();
        assert_eq!(bare_queues, fleet_queues, "queue bits diverged");
    }
}

/// A report's rows and histogram, read from its JSON.
#[derive(Deserialize)]
struct ReportView {
    tct: Buckets,
    slots: Vec<serde_json::Value>,
}

/// What a run's reports say when added up in time order: their slot
/// rows (each row's JSON text, so equal text is equal bits), tier
/// counts, histogram bucket counts, min and max bits, fault tallies and
/// task count.
#[derive(Debug, PartialEq)]
struct Totals {
    rows: Vec<String>,
    tiers: [u64; 3],
    buckets: Vec<(usize, u64)>,
    min_max: (Option<u64>, Option<u64>),
    faults: [u64; 6],
    tasks: usize,
}

fn totals<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> TestResult<Totals> {
    let mut rows = Vec::new();
    let mut tct = Buckets::new();
    let (mut tiers, mut faults, mut tasks) = ([0; 3], [0; 6], 0);
    for report in reports {
        let view: ReportView = serde_json::from_str(&serde_json::to_string(report)?)?;
        for row in &view.slots {
            rows.push(serde_json::to_string(row)?);
        }
        tct.merge(&view.tct);
        let t = report.tiers();
        let f = report.fault_stats();
        for (sum, v) in tiers.iter_mut().zip([t.first, t.second, t.third]) {
            *sum += v;
        }
        let tallies = [
            f.fault_slots,
            f.churn_slots,
            f.timeouts,
            f.retries,
            f.fallbacks,
            f.recoveries,
        ];
        for (sum, v) in faults.iter_mut().zip(tallies) {
            *sum += v;
        }
        tasks += report.tasks();
    }
    Ok(Totals {
        rows,
        tiers,
        buckets: tct.non_empty().collect(),
        min_max: (tct.min().map(f64::to_bits), tct.max().map(f64::to_bits)),
        faults,
        tasks,
    })
}

fn queue_bits(queues: &[leime_offload::QueuePair]) -> Vec<(u64, u64)> {
    queues
        .iter()
        .map(|qp| (qp.q().to_bits(), qp.h().to_bits()))
        .collect()
}

/// A 1-edge fleet at `rebalance_interval` against the bare system over
/// the same devices: the fleet's intervals, added up, equal the bare
/// run, and so do the final queue bits.
fn assert_single_edge_matches_bare(
    scenario: &Scenario,
    rebalance_interval: usize,
    slots: usize,
) -> TestResult<()> {
    let deployment = scenario.deploy(ExitStrategy::Leime)?;
    let mut bare = SlottedSystem::new(scenario.clone(), deployment.clone())?;
    let bare_report = bare.run(slots, RUN_SEED)?;
    let config = FleetConfig::regional(1, rebalance_interval);
    let mut fleet = FleetSystem::new(scenario.clone(), deployment, config)?;
    let report = fleet.run(slots, RUN_SEED)?;
    assert_eq!(
        totals(report.intervals.iter().map(|iv| &iv.edges[0]))?,
        totals([&bare_report])?,
        "1-edge fleet at interval {rebalance_interval} diverged from the bare run"
    );
    assert_eq!(queue_bits(fleet.queues()), queue_bits(bare.queues()));
    Ok(())
}

/// An edge outage no longer vanishes at a rebalance boundary: six Pis
/// on one edge whose outage the bare run sees (6 fault slots) keep
/// seeing it when the fleet cuts the horizon into 10-slot intervals.
#[test]
fn single_edge_fleet_keeps_the_bare_edge_outage() -> TestResult<()> {
    let mut scenario = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 6, 6.0);
    scenario.chaos = Some(ChaosConfig {
        seed: 3,
        models: vec![FaultModel::EdgeOutages {
            duty: 0.3,
            mean_outage_s: 4.0,
        }],
        window_s: None,
    });
    let deployment = scenario.deploy(ExitStrategy::Leime)?;
    let bare = SlottedSystem::new(scenario.clone(), deployment)?.run(40, RUN_SEED)?;
    assert_eq!(bare.fault_stats().fault_slots, 6);
    assert_single_edge_matches_bare(&scenario, 10, 40)
}

/// A 1-edge fleet equals the bare run at every rebalance interval, for
/// every workload, with and without chaos: boundaries with no sibling
/// edge change nothing.
#[test]
fn single_edge_fleet_matches_the_bare_run_at_every_interval() -> TestResult<()> {
    for workload in 0..4 {
        for chaos in [None, Some((11, 15, 0.4, 6.0))] {
            let scenario = build_scenario(&FleetCase {
                devices: 7,
                edges: 1,
                rebalance_interval: 0,
                arrival: 6.0,
                controller: 0,
                workload,
                chaos,
            });
            for rebalance_interval in [1, 7, 10] {
                assert_single_edge_matches_bare(&scenario, rebalance_interval, 33)?;
            }
        }
    }
    Ok(())
}

/// Boundaries that move nothing change nothing: with balancing off and
/// no edge outages, a multi-edge fleet cut into intervals equals its
/// one-interval run edge by edge, and in its final queues.
#[test]
fn quiet_boundaries_leave_every_edge_as_one_interval() -> TestResult<()> {
    for workload in 0..4 {
        // Link flaps, bandwidth collapses and edge brownouts: every
        // model but edge outages.
        for chaos in [None, Some((906_617, 7, 0.5, 5.0))] {
            let case = FleetCase {
                devices: 13,
                edges: 3,
                rebalance_interval: 0,
                arrival: 6.0,
                controller: 0,
                workload,
                chaos,
            };
            let run = |rebalance_interval: usize| -> TestResult<_> {
                let scenario = build_scenario(&case);
                let deployment = scenario.deploy(ExitStrategy::Leime)?;
                let mut config = FleetConfig::regional(case.edges, rebalance_interval);
                config.max_migrations_per_round = 0;
                let mut fleet = FleetSystem::new(scenario, deployment, config)?;
                let report = fleet.run(30, RUN_SEED)?;
                assert!(report.migrations.is_empty());
                let per_edge = (0..case.edges)
                    .map(|e| totals(report.intervals.iter().map(|iv| &iv.edges[e])))
                    .collect::<TestResult<Vec<_>>>()?;
                Ok((per_edge, queue_bits(fleet.queues())))
            };
            let whole = run(0)?;
            for rebalance_interval in [1, 7, 10] {
                assert_eq!(
                    run(rebalance_interval)?,
                    whole,
                    "interval {rebalance_interval} diverged (workload {workload}, chaos {chaos:?})"
                );
            }
        }
    }
    Ok(())
}

/// A snapshot's counter, histogram and series names, in snapshot
/// (sorted) order.
fn registry_keys(registry: &Registry) -> [Vec<String>; 3] {
    let snap = registry.snapshot();
    [
        snap.counters.iter().map(|c| c.name.clone()).collect(),
        snap.histograms.iter().map(|h| h.name.clone()).collect(),
        snap.series.iter().map(|s| s.name.clone()).collect(),
    ]
}

/// Every name under `prefix` of a slotted system's registry: the fault
/// counters, the `tct_s` histogram, the per-slot means and the
/// Lyapunov controller's per-decision queues.
fn slotted_keys(prefix: &str) -> [Vec<String>; 3] {
    let with = |names: &[&str]| names.iter().map(|n| format!("{prefix}.{n}")).collect();
    [
        with(&[
            "ctrl.fallbacks",
            "ctrl.fault_slots",
            "ctrl.recoveries",
            "ctrl.retries",
            "ctrl.timeouts",
        ]),
        with(&["tct_s"]),
        with(&[
            "ctrl.queue_h",
            "ctrl.queue_q",
            "offload_x",
            "queue_h",
            "queue_q",
            "tct_mean_s",
        ]),
    ]
}

/// The registry's key set is pinned: a Lyapunov slotted run and a
/// 2-edge fleet run record exactly these names, so adding or removing
/// a series, counter or histogram shows up here as a deliberate diff.
#[test]
fn registry_key_set_is_pinned() {
    let scenario = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 4, 5.0);
    assert_eq!(scenario.controller, ControllerKind::Lyapunov);
    let deployment = scenario.deploy(ExitStrategy::Leime).expect("deploys");

    let registry = Registry::new();
    let mut bare = SlottedSystem::new(scenario.clone(), deployment.clone()).expect("builds");
    bare.attach_registry(&registry, "slot");
    bare.run(30, RUN_SEED).expect("runs");
    assert_eq!(registry_keys(&registry), slotted_keys("slot"));

    let registry = Registry::new();
    let mut fleet =
        FleetSystem::new(scenario, deployment, FleetConfig::regional(2, 10)).expect("builds");
    let report = fleet
        .run_with_registry(
            30,
            RUN_SEED,
            NonZeroUsize::MIN,
            leime::DEFAULT_EPOCH_LEN,
            &registry,
            "fleet",
        )
        .expect("runs");
    assert_eq!(report.intervals.len(), 3);
    let mut want = slotted_keys("fleet.edge0");
    for (all, edge1) in want.iter_mut().zip(slotted_keys("fleet.edge1")) {
        all.extend(edge1);
    }
    assert_eq!(registry_keys(&registry), want);
}
