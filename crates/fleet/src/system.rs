//! [`FleetSystem`]: one slotted system whose devices sit on many edges,
//! under a regional tier.
//!
//! ## Run model (DESIGN.md §16)
//!
//! The fleet horizon is one continuing slotted process, split into
//! *rebalance intervals*. Every device keeps one row for the whole run —
//! queue pair, degrade ladder, MMPP state and RNG lane
//! `stream_rng(seed, id)` — and every edge runs the unmodified paper
//! controller over the devices assigned to it, as one sharded slot loop
//! over all devices in id order ([`SlottedSystem::run_on_edges`]). At
//! interval boundaries the regional tier acts: chaos failover first
//! (downed edges evacuate through [`crate::evacuate`]), then pressure
//! balancing ([`crate::rebalance`]). A migration rewrites
//! `assignment[i]` and nothing else: the device's queue pair stays in its
//! row, so Eq. 10–11 backlog is conserved bit-for-bit and drains through
//! the destination edge's degrade ladder.
//!
//! ## Determinism obligations
//!
//! Time is global: each edge's fault lanes run over the whole horizon
//! and are read at global slot time (a device re-derives its own lanes
//! from its new edge's config after a move, from t = 0), and MMPP
//! burst state, degrade ladders and RNG lanes run on across boundaries,
//! identically at every worker count and epoch length. Every cross-edge
//! decision (assignment, failover, balancing) is a pure function of
//! fleet state that is itself byte-identical at every worker count, so
//! the whole [`FleetReport`] inherits the §11 contract — pinned by
//! `tests/integration_fleet.rs`. A 1-edge fleet *is* the bare
//! `SlottedSystem` run at every rebalance interval: same seed, same
//! chaos, same device order (the equivalence goldens).

use std::num::NonZeroUsize;
use std::ops::Range;

use leime::{Deployment, Edges, Result, RunReport, Scenario, SlottedSystem, DEFAULT_EPOCH_LEN};
use leime_telemetry::Registry;
use serde::{Deserialize, Serialize};

use crate::{edge_chaos, evacuate, initial_assignment, rebalance, FleetConfig, MigrationEvent};
use leime_offload::QueuePair;

/// One rebalance interval's per-edge results, in edge order. Edges that
/// held no devices carry an empty [`RunReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IntervalReport {
    /// First fleet-horizon slot of the interval.
    pub start_slot: usize,
    /// Interval length in slots.
    pub slots: usize,
    /// Edges marked down while this interval ran.
    pub down_edges: Vec<usize>,
    /// Per-edge run reports (`edges[e]` is edge `e`).
    pub edges: Vec<RunReport>,
}

/// The serialized outcome of one fleet run: per-interval per-edge
/// [`RunReport`]s, the migration log and the final assignment. This is
/// the object the differential wall compares byte-for-byte across
/// worker counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// Fleet size.
    pub devices: usize,
    /// Edge-shard count.
    pub edges: usize,
    /// Per-interval results in time order.
    pub intervals: Vec<IntervalReport>,
    /// Every cross-edge migration, in the order it was decided.
    pub migrations: Vec<MigrationEvent>,
    /// Post-run device→edge assignment (`final_assignment[i]` is device
    /// `i`'s edge).
    pub final_assignment: Vec<usize>,
}

impl FleetReport {
    /// Total completed tasks across all edges and intervals.
    pub fn tasks(&self) -> usize {
        self.intervals
            .iter()
            .flat_map(|iv| iv.edges.iter())
            .map(RunReport::tasks)
            .sum()
    }

    /// Task-weighted mean TCT in seconds (0 when no tasks completed).
    /// Sequential source-order reduction — order-pinned (§15).
    pub fn mean_tct_s(&self) -> f64 {
        let mut weighted = 0.0f64;
        let mut tasks = 0usize;
        for report in self.intervals.iter().flat_map(|iv| iv.edges.iter()) {
            weighted += report.mean_tct_s() * report.tasks() as f64;
            tasks += report.tasks();
        }
        if tasks == 0 {
            0.0
        } else {
            weighted / tasks as f64
        }
    }

    /// Task-weighted completion rate (1 when no tasks arrived).
    pub fn completion_rate(&self) -> f64 {
        let mut weighted = 0.0f64;
        let mut tasks = 0usize;
        for report in self.intervals.iter().flat_map(|iv| iv.edges.iter()) {
            weighted += report.completion_rate() * report.tasks() as f64;
            tasks += report.tasks();
        }
        if tasks == 0 {
            1.0
        } else {
            weighted / tasks as f64
        }
    }
}

/// A hierarchical multi-edge fleet: the template scenario's device list
/// dealt across `config.edges` edges, each running the paper's slotted
/// controller over its devices, under a regional balancing/failover
/// tier.
#[derive(Debug)]
pub struct FleetSystem {
    /// Every device of the fleet (`devices[i]` is device `i`), with its
    /// Eq. 10–11 queues and MMPP state carried across runs.
    system: SlottedSystem,
    config: FleetConfig,
    /// Device → edge (`assignment[i]` is device `i`'s edge), the
    /// regional tier's authoritative topology.
    assignment: Vec<usize>,
    /// Edges currently marked down by chaos failover.
    down: Vec<bool>,
}

impl FleetSystem {
    /// Builds the fleet: `template.devices` is the global device list
    /// and `template.edge_flops` the *per-edge* capacity; devices deal
    /// onto edges via the seeded assignment.
    ///
    /// # Errors
    ///
    /// Returns [`leime::LeimeError::Config`] for invalid scenarios or
    /// configs.
    pub fn new(template: Scenario, deployment: Deployment, config: FleetConfig) -> Result<Self> {
        let n = template.devices.len();
        let system = SlottedSystem::new(template, deployment)?;
        config.validate()?;
        let assignment = initial_assignment(n, config.edges, config.assign_seed);
        Ok(FleetSystem {
            system,
            down: vec![false; config.edges],
            config,
            assignment,
        })
    }

    /// The current device→edge assignment (`assignment()[i]` is device
    /// `i`'s edge).
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Current per-device queue states, indexed by device id (exposed
    /// for stability diagnostics).
    pub fn queues(&self) -> &[QueuePair] {
        self.system.queues()
    }

    /// Current per-edge queue pressures.
    pub fn pressures(&self) -> Vec<f64> {
        crate::edge_pressures(self.config.edges, &self.assignment, self.queues())
    }

    /// Runs `slots` fleet slots on the driving thread. Equivalent to
    /// [`FleetSystem::run_with_workers`] with one worker — and
    /// byte-identical to it at any worker count.
    ///
    /// # Errors
    ///
    /// See [`FleetSystem::run_with_workers_epochs`].
    pub fn run(&mut self, slots: usize, seed: u64) -> Result<FleetReport> {
        self.run_with_workers(slots, seed, NonZeroUsize::MIN)
    }

    /// Runs with the slot loop sharded across `workers` threads
    /// (`leime-par` partitions the devices, in id order, across them).
    ///
    /// # Errors
    ///
    /// See [`FleetSystem::run_with_workers_epochs`].
    pub fn run_with_workers(
        &mut self,
        slots: usize,
        seed: u64,
        workers: NonZeroUsize,
    ) -> Result<FleetReport> {
        self.run_with_workers_epochs(slots, seed, workers, DEFAULT_EPOCH_LEN)
    }

    /// Full-control run: worker count and slots per barrier (epochs also
    /// end at every boundary). The report (and any telemetry recorded
    /// via [`FleetSystem::run_with_registry`]) is byte-identical at every
    /// `workers` × `epoch_len` combination.
    ///
    /// # Errors
    ///
    /// Returns [`leime::LeimeError::Config`] for inconsistent tier
    /// sampling and [`leime::LeimeError::Parallel`] if a worker shard
    /// fails.
    pub fn run_with_workers_epochs(
        &mut self,
        slots: usize,
        seed: u64,
        workers: NonZeroUsize,
        epoch_len: NonZeroUsize,
    ) -> Result<FleetReport> {
        self.run_inner(slots, seed, workers, epoch_len, None)
    }

    /// Like [`FleetSystem::run_with_workers_epochs`], recording per-edge
    /// telemetry into `registry` under `{prefix}.edge{e}` (the slotted
    /// system's series and histograms per edge, stamped with global slot
    /// time).
    ///
    /// # Errors
    ///
    /// Same as [`FleetSystem::run_with_workers_epochs`].
    pub fn run_with_registry(
        &mut self,
        slots: usize,
        seed: u64,
        workers: NonZeroUsize,
        epoch_len: NonZeroUsize,
        registry: &Registry,
        prefix: &str,
    ) -> Result<FleetReport> {
        self.run_inner(slots, seed, workers, epoch_len, Some((registry, prefix)))
    }

    /// The rebalance-interval schedule: one interval covering the whole
    /// horizon when `rebalance_interval` is 0 (or not smaller than the
    /// horizon), else fixed-size chunks with a short tail.
    fn intervals(&self, slots: usize) -> Vec<Range<usize>> {
        let len = if self.config.rebalance_interval == 0 {
            slots
        } else {
            self.config.rebalance_interval
        };
        leime_par::epoch_ranges(slots, len)
    }

    fn run_inner(
        &mut self,
        slots: usize,
        seed: u64,
        workers: NonZeroUsize,
        epoch_len: NonZeroUsize,
        registry: Option<(&Registry, &str)>,
    ) -> Result<FleetReport> {
        let (config, down) = (&self.config, &mut self.down);
        let down_edges = |down: &[bool]| (0..down.len()).filter(|&e| down[e]).collect();
        let mut downs: Vec<Vec<usize>> = vec![down_edges(down)];
        let mut migrations: Vec<MigrationEvent> = Vec::new();
        // Regional-tier boundary: failover, then balancing, on the
        // queues after the interval's last slot.
        let mut boundary = |at_slot: usize,
                            up: &dyn Fn(usize) -> bool,
                            assignment: &mut [usize],
                            queues: &[QueuePair]| {
            let mut newly_down = Vec::new();
            for (e, down) in down.iter_mut().enumerate() {
                if up(e) {
                    // Recovered (or never down): eligible again as a
                    // balancer target.
                    *down = false;
                } else if !*down {
                    *down = true;
                    newly_down.push(e);
                }
            }
            for e in newly_down {
                migrations.extend(evacuate(config, at_slot, e, assignment, queues, down));
            }
            if config.max_migrations_per_round > 0 {
                migrations.extend(rebalance(config, at_slot, assignment, queues, down));
            }
            downs.push(down_edges(down));
        };
        let edges = Edges {
            count: config.edges,
            chaos: edge_chaos,
            assignment: &mut self.assignment,
            interval: config.rebalance_interval,
            registry,
            boundary: &mut boundary,
        };
        let reports = self
            .system
            .run_on_edges(slots, seed, workers, epoch_len, edges)?;
        let intervals = reports
            .into_iter()
            .zip(downs)
            .zip(self.intervals(slots))
            .map(|((edges, down_edges), range)| IntervalReport {
                start_slot: range.start,
                slots: range.len(),
                down_edges,
                edges,
            })
            .collect();
        Ok(FleetReport {
            devices: self.assignment.len(),
            edges: self.config.edges,
            intervals,
            migrations,
            final_assignment: self.assignment.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leime::{ExitStrategy, FaultStats, ModelKind};

    fn fleet(n: usize, config: FleetConfig) -> FleetSystem {
        let scenario = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, n, 5.0);
        let deployment = scenario.deploy(ExitStrategy::Leime).expect("deploys");
        FleetSystem::new(scenario, deployment, config).expect("builds")
    }

    #[test]
    fn single_edge_single_interval_has_one_report() {
        let mut f = fleet(4, FleetConfig::single_edge());
        let report = f.run(20, 7).expect("runs");
        assert_eq!(report.edges, 1);
        assert_eq!(report.intervals.len(), 1);
        assert_eq!(report.intervals[0].edges.len(), 1);
        assert!(report.tasks() > 0);
        assert!(report.mean_tct_s() > 0.0);
        assert!(report.migrations.is_empty());
        assert_eq!(report.final_assignment, vec![0; 4]);
    }

    #[test]
    fn multi_edge_run_is_deterministic_per_seed() {
        let run = || {
            let mut f = fleet(12, FleetConfig::regional(3, 10));
            serde_json::to_string(&f.run(30, 11).expect("runs")).expect("serializes")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn registry_fault_counters_sum_the_interval_reports() {
        let scenario = Scenario::chaos_testbed(ModelKind::SqueezeNet, 9, 42, 60.0);
        let deployment = scenario.deploy(ExitStrategy::Leime).expect("deploys");
        let mut f =
            FleetSystem::new(scenario, deployment, FleetConfig::regional(3, 10)).expect("builds");
        let initial = f.assignment.clone();
        let registry = Registry::new();
        let report = f
            .run_with_registry(
                40,
                5,
                NonZeroUsize::MIN,
                DEFAULT_EPOCH_LEN,
                &registry,
                "fleet",
            )
            .expect("runs");
        assert!(report.intervals.len() >= 3);
        let snap = registry.snapshot();
        assert_rows_are_the_views(&report, &initial, &snap, "fleet");
        let counter = |name: String| snap.counters.iter().find(|c| c.name == name);
        type Field = fn(&FaultStats) -> u64;
        let fields: [(&str, Field); 5] = [
            ("fault_slots", |f| f.fault_slots),
            ("timeouts", |f| f.timeouts),
            ("retries", |f| f.retries),
            ("fallbacks", |f| f.fallbacks),
            ("recoveries", |f| f.recoveries),
        ];
        for e in 0..3 {
            for (name, field) in fields {
                let want: u64 = report
                    .intervals
                    .iter()
                    .map(|iv| field(&iv.edges[e].fault_stats()))
                    .sum();
                let got = counter(format!("fleet.edge{e}.ctrl.{name}")).map(|c| c.value);
                assert_eq!(got, Some(want), "edge {e} {name}");
                assert!(name != "fault_slots" || want > 0, "edge {e} saw no faults");
            }
        }
    }

    /// The JSON shape of one `RunReport` slot row.
    #[derive(Deserialize)]
    struct Row {
        t: f64,
        active: u64,
        tasks: u64,
        total: f64,
        x: f64,
        q: f64,
        h: f64,
    }

    #[derive(Deserialize)]
    struct Rows {
        slots: Vec<Row>,
    }

    /// One record, three views: each edge-interval report's slot rows
    /// give its task count and simulated device-slots, and the rows of
    /// an edge's intervals, in order, give every point of its
    /// registry's per-slot series bit for bit. `initial` is the
    /// assignment before the run; migrations replay it per interval.
    fn assert_rows_are_the_views(
        report: &FleetReport,
        initial: &[usize],
        snap: &leime_telemetry::TelemetrySnapshot,
        prefix: &str,
    ) {
        let mut assignment = initial.to_vec();
        let mut want: Vec<[Vec<(f64, f64)>; 4]> = vec![Default::default(); report.edges];
        for iv in &report.intervals {
            for m in report
                .migrations
                .iter()
                .filter(|m| m.at_slot == iv.start_slot)
            {
                assignment[m.device] = m.to_edge;
            }
            for (e, run) in iv.edges.iter().enumerate() {
                let json = serde_json::to_string(run).expect("serializes");
                let rows = serde_json::from_str::<Rows>(&json).expect("has rows").slots;
                let tasks: u64 = rows.iter().map(|r| r.tasks).sum();
                assert_eq!(tasks, run.tasks() as u64);
                assert_eq!(tasks, run.tiers().total());
                let devices = assignment.iter().filter(|&&a| a == e).count();
                let active: u64 = rows.iter().map(|r| r.active).sum();
                let churned = run.fault_stats().churn_slots;
                assert_eq!(active, (devices * iv.slots) as u64 - churned);
                let n = devices as f64;
                for r in rows {
                    if r.tasks > 0 {
                        want[e][0].push((r.t, r.total / r.tasks as f64));
                    }
                    want[e][1].push((r.t, r.q / n));
                    want[e][2].push((r.t, r.h / n));
                    want[e][3].push((r.t, r.x / n));
                }
            }
        }
        let names = ["tct_mean_s", "queue_q", "queue_h", "offload_x"];
        for (e, want) in want.into_iter().enumerate() {
            for (name, want) in names.into_iter().zip(want) {
                let name = format!("{prefix}.edge{e}.{name}");
                // `{:?}` prints an f64's shortest round-trip digits, so
                // equal text is equal bits.
                let got = snap.series.iter().find(|s| s.name == name);
                let got = got.map(|s| format!("{:?}", s.points));
                assert_eq!(got, Some(format!("{want:?}")), "{name}");
            }
        }
    }

    #[test]
    fn intervals_chunk_the_horizon() {
        let f = fleet(2, FleetConfig::regional(2, 10));
        assert_eq!(f.intervals(25), vec![0..10, 10..20, 20..25]);
        assert_eq!(f.intervals(5), vec![0..5]);
        let g = fleet(2, FleetConfig::single_edge());
        assert_eq!(g.intervals(25), vec![0..25]);
    }

    #[test]
    fn queue_state_carries_across_intervals() {
        // Overloaded devices build backlog; the carried queue map must
        // reflect it after the run (not reset at interval boundaries).
        let mut config = FleetConfig::regional(2, 5);
        config.max_migrations_per_round = 0;
        let scenario = {
            let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 4, 5.0);
            s.controller = leime::ControllerKind::DeviceOnly;
            for d in &mut s.devices {
                d.arrival_mean = 30.0;
            }
            s
        };
        let deployment = scenario.deploy(ExitStrategy::Leime).expect("deploys");
        let mut f = FleetSystem::new(scenario, deployment, config).expect("builds");
        f.run(20, 3).expect("runs");
        let total: f64 = f.queues().iter().map(|qp| qp.q() + qp.h()).sum();
        assert!(total > 10.0, "no backlog carried: {total}");
    }

    #[test]
    fn migrated_devices_read_their_new_edges_faults() {
        // Every device moves to the next edge at each boundary, under
        // all six kinds of lane. A device's fault and churn slots on an
        // edge are the scan of that edge's compiled schedule, so each
        // (interval, edge) report's counts must be the scan's over the
        // devices the edge held, at 1 and 2 workers.
        use leime_chaos::{ChaosConfig, FaultKind, FaultModel, FaultTarget};
        use leime_simnet::SimTime;
        let (n, n_edges, slots, interval) = (6, 3, 60, 7);
        let mut scenario = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, n, 5.0);
        scenario.chaos = Some(ChaosConfig {
            seed: 11,
            models: vec![
                FaultModel::LinkFlaps {
                    duty: 0.3,
                    mean_outage_s: 3.0,
                },
                FaultModel::LatencySpikes {
                    duty: 0.3,
                    add_s: 0.05,
                    mean_episode_s: 2.0,
                },
                FaultModel::DeviceChurn {
                    duty: 0.2,
                    mean_absence_s: 4.0,
                },
                FaultModel::EdgeBrownout {
                    duty: 0.3,
                    factor: 0.5,
                    mean_episode_s: 5.0,
                },
                FaultModel::EdgeOutages {
                    duty: 0.1,
                    mean_outage_s: 2.0,
                },
                FaultModel::BandwidthCollapse {
                    duty: 0.3,
                    factor: 0.5,
                    mean_episode_s: 4.0,
                },
            ],
            window_s: None,
        });
        let deployment = scenario.deploy(ExitStrategy::Leime).expect("deploys");
        let horizon = SimTime::from_secs(slots as f64 * scenario.slot_len_s);
        let schedules: Vec<_> = (0..n_edges)
            .map(|e| {
                let config = edge_chaos(scenario.chaos.as_ref(), e).expect("chaos");
                config.compile(n, horizon)
            })
            .collect();
        let edge_of = |i: usize, k: usize| (i + k) % n_edges;
        for workers in [1, 2] {
            let mut sys = SlottedSystem::new(scenario.clone(), deployment.clone()).expect("builds");
            let mut assignment: Vec<usize> = (0..n).map(|i| edge_of(i, 0)).collect();
            let mut boundary =
                |_: usize, _: &dyn Fn(usize) -> bool, assignment: &mut [usize], _: &[QueuePair]| {
                    for e in assignment.iter_mut() {
                        *e = (*e + 1) % n_edges;
                    }
                };
            let edges = Edges {
                count: n_edges,
                chaos: edge_chaos,
                assignment: &mut assignment,
                interval,
                registry: None,
                boundary: &mut boundary,
            };
            let workers = NonZeroUsize::new(workers).expect("positive");
            let reports = sys
                .run_on_edges(slots, 5, workers, DEFAULT_EPOCH_LEN, edges)
                .expect("runs");
            let (mut faults, mut churns) = (0, 0);
            for (k, reports) in reports.iter().enumerate() {
                for (e, report) in reports.iter().enumerate() {
                    let schedule = &schedules[e];
                    let (mut fault, mut churn) = (0, 0);
                    for slot in k * interval..((k + 1) * interval).min(slots) {
                        let t = SimTime::from_secs(slot as f64 * scenario.slot_len_s);
                        for i in (0..n).filter(|&i| edge_of(i, k) == e) {
                            let churned = schedule.events().iter().any(|ev| {
                                ev.kind == FaultKind::DeviceChurn
                                    && ev.target == FaultTarget::Device(i)
                                    && ev.active_at(t)
                            });
                            if churned {
                                churn += 1;
                            } else if !schedule.link_health(i, t).is_nominal()
                                || !schedule.edge_health(t).is_nominal()
                            {
                                fault += 1;
                            }
                        }
                    }
                    let f = report.fault_stats();
                    let got = (f.fault_slots, f.churn_slots);
                    assert_eq!(got, (fault, churn), "interval {k}, edge {e}, {workers:?}");
                    faults += fault;
                    churns += churn;
                }
            }
            assert!(faults > 0 && churns > 0, "faults {faults}, churns {churns}");
        }
    }
}
