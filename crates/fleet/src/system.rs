//! [`FleetSystem`]: many per-edge [`SlottedSystem`] shards under a
//! regional tier.
//!
//! ## Run model (DESIGN.md §16)
//!
//! The fleet horizon splits into *rebalance intervals*. Within an
//! interval every edge runs the unmodified paper controller — a
//! [`SlottedSystem`] over that edge's assigned devices — and all of the
//! interval's edges run as one sharded slot loop
//! ([`SlottedSystem::run_many`]): `leime-par` partitions the edge-major
//! concatenation of their devices across workers, so the intra-edge
//! Lyapunov path stays byte-for-byte the existing one. At interval
//! boundaries the regional tier acts: chaos failover first (downed
//! edges evacuate through [`crate::evacuate`]), then pressure balancing
//! ([`crate::rebalance`]). Fleet state is dense and indexed by device
//! id (`assignment[i]`, `queues[i]`); device queue pairs travel with
//! their devices, so Eq. 10–11 backlog is conserved bit-for-bit across
//! a migration and drains through the destination edge's degrade
//! ladder.
//!
//! ## Determinism obligations
//!
//! Per-edge runs see interval-local time (slot 0 restarts each
//! interval): per-interval chaos schedules, MMPP burst state and
//! degrade ladders reset at boundaries, identically at every worker
//! count. Every cross-edge decision (assignment, failover, balancing)
//! is a pure function of fleet state that is itself byte-identical at
//! every worker count, so the whole [`FleetReport`] inherits the §11
//! contract — pinned by `tests/integration_fleet.rs`. A 1-edge fleet
//! run in a single interval *is* the bare `SlottedSystem` run: same
//! seed, same chaos, same device order (the equivalence golden).

use std::num::NonZeroUsize;
use std::ops::Range;

use leime::{
    Deployment, LeimeError, Result, RunReport, Scenario, SlottedSystem, DEFAULT_EPOCH_LEN,
};
use leime_simnet::SimTime;
use leime_telemetry::Registry;
use serde::{Deserialize, Serialize};

use crate::{
    edge_chaos, edge_run_seed, evacuate, initial_assignment, rebalance, FleetConfig, MigrationEvent,
};
use leime_offload::{DeviceParams, QueuePair};

/// One rebalance interval's per-edge results, in edge order. Edges that
/// held no devices (or were down) carry an empty [`RunReport`].
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
/// dealt across `config.edges` edge shards, each running the paper's
/// slotted system, under a regional balancing/failover tier.
#[derive(Debug)]
pub struct FleetSystem {
    /// The scenario every edge runs, without its device list.
    template: Scenario,
    /// The global device list (`devices[i]` is device `i`).
    devices: Vec<DeviceParams>,
    deployment: Deployment,
    config: FleetConfig,
    /// Device → edge (`assignment[i]` is device `i`'s edge), the
    /// regional tier's authoritative topology.
    assignment: Vec<usize>,
    /// Per-device Eq. 10–11 queue state, carried across intervals and
    /// migrations (indexed by global device id).
    queues: Vec<QueuePair>,
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
    /// Returns [`LeimeError::Config`] for invalid scenarios or configs.
    pub fn new(
        mut template: Scenario,
        deployment: Deployment,
        config: FleetConfig,
    ) -> Result<Self> {
        template.validate()?;
        config.validate()?;
        let devices = std::mem::take(&mut template.devices);
        let n = devices.len();
        let assignment = initial_assignment(n, config.edges, config.assign_seed);
        let queues = vec![QueuePair::new(); n];
        let down = vec![false; config.edges];
        Ok(FleetSystem {
            template,
            devices,
            deployment,
            config,
            assignment,
            queues,
            down,
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
        &self.queues
    }

    /// Current per-edge queue pressures.
    pub fn pressures(&self) -> Vec<f64> {
        crate::edge_pressures(self.config.edges, &self.assignment, &self.queues)
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

    /// Runs with each interval's slot loop sharded across `workers`
    /// threads (`leime-par` partitions the interval's devices, edge by
    /// edge, across them).
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

    /// Full-control run: worker count and slots-per-barrier for each
    /// interval's sharded run. The report (and any telemetry recorded via
    /// [`FleetSystem::run_with_registry`]) is byte-identical at every
    /// `workers` × `epoch_len` combination.
    ///
    /// # Errors
    ///
    /// Returns [`LeimeError::Config`] for invalid derived scenarios and
    /// [`LeimeError::Parallel`] if an inner worker shard fails.
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
    /// system's series/histograms per edge, timestamps interval-local).
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

    /// Edge `e`'s system for one interval: the device-less template
    /// plus `devices` (global ids, ascending) with their carried queues,
    /// the edge's own chaos and, when recording, telemetry under
    /// `{prefix}.edge{e}`.
    fn edge_system(
        &self,
        e: usize,
        devices: &[usize],
        telemetry: Option<(&Registry, &str)>,
    ) -> Result<SlottedSystem> {
        let scenario = Scenario {
            devices: devices.iter().map(|&d| self.devices[d]).collect(),
            chaos: edge_chaos(self.template.chaos.as_ref(), e),
            ..self.template.clone()
        };
        let mut sys = SlottedSystem::new(scenario, self.deployment.clone())?;
        let carried: Vec<QueuePair> = devices.iter().map(|&d| self.queues[d]).collect();
        sys.set_queues(&carried)?;
        if let Some((registry, prefix)) = telemetry {
            sys.attach_registry(registry, &format!("{prefix}.edge{e}"));
        }
        Ok(sys)
    }

    fn run_inner(
        &mut self,
        slots: usize,
        seed: u64,
        workers: NonZeroUsize,
        epoch_len: NonZeroUsize,
        telemetry: Option<(&Registry, &str)>,
    ) -> Result<FleetReport> {
        let edges = self.config.edges;
        let intervals = self.intervals(slots);
        let mut interval_reports = Vec::with_capacity(intervals.len());
        let mut migrations: Vec<MigrationEvent> = Vec::new();

        for (iv, range) in intervals.iter().enumerate() {
            // Deal the assignment into per-edge device lists (ascending
            // global ids).
            let mut per_edge: Vec<Vec<usize>> = vec![Vec::new(); edges];
            for (device, &edge) in self.assignment.iter().enumerate() {
                per_edge
                    .get_mut(edge)
                    .ok_or_else(|| {
                        LeimeError::Config(format!("device {device} assigned to edge {edge}"))
                    })?
                    .push(device);
            }

            // Every populated edge joins the interval's one sharded run;
            // a device-less edge (evacuated or never populated)
            // simulates nothing this interval.
            let mut systems = Vec::with_capacity(edges);
            let mut seeds = Vec::with_capacity(edges);
            for (e, devices_e) in per_edge.iter().enumerate() {
                if !devices_e.is_empty() {
                    systems.push(self.edge_system(e, devices_e, telemetry)?);
                    seeds.push(edge_run_seed(seed, e, iv));
                }
            }
            let reports =
                SlottedSystem::run_many(&mut systems, &seeds, range.len(), workers, epoch_len)?;
            let mut edge_reports = vec![RunReport::new(); edges];
            let populated = per_edge.iter().enumerate().filter(|(_, d)| !d.is_empty());
            for (((e, devices_e), sys), report) in populated.zip(&systems).zip(reports) {
                for (&d, qp) in devices_e.iter().zip(sys.queues()) {
                    self.queues[d] = *qp;
                }
                edge_reports[e] = report;
            }
            interval_reports.push(IntervalReport {
                start_slot: range.start,
                slots: range.len(),
                down_edges: (0..edges).filter(|&e| self.down[e]).collect(),
                edges: edge_reports,
            });

            // Regional-tier boundary: failover, then balancing. Skipped
            // after the final interval (nothing left to run).
            if iv + 1 < intervals.len() {
                self.boundary_actions(range, &per_edge, &mut migrations);
            }
        }

        Ok(FleetReport {
            devices: self.devices.len(),
            edges,
            intervals: interval_reports,
            migrations,
            final_assignment: self.assignment.clone(),
        })
    }

    /// One interval boundary: refresh edge health from each edge's
    /// chaos schedule (compiled exactly as the inner run compiled it),
    /// evacuate newly-downed edges, then run the pressure balancer over
    /// the live ones.
    fn boundary_actions(
        &mut self,
        range: &Range<usize>,
        per_edge: &[Vec<usize>],
        migrations: &mut Vec<MigrationEvent>,
    ) {
        let at_slot = range.end;
        // Health is sampled at the interval's last slot start, on the
        // interval-local clock the inner run used.
        let sample_t =
            SimTime::from_secs(range.len().saturating_sub(1) as f64 * self.template.slot_len_s);
        let horizon = SimTime::from_secs(range.len() as f64 * self.template.slot_len_s);
        let mut newly_down = Vec::new();
        for (e, devices_e) in per_edge.iter().enumerate() {
            let Some(chaos) = edge_chaos(self.template.chaos.as_ref(), e) else {
                continue;
            };
            let schedule = chaos.compile(devices_e.len(), horizon);
            let up = schedule.edge_health(sample_t).up;
            if up {
                // Recovered (or never down): eligible again as a
                // balancer target.
                self.down[e] = false;
            } else if !self.down[e] {
                self.down[e] = true;
                newly_down.push(e);
            }
        }
        for e in newly_down {
            migrations.extend(evacuate(
                &self.config,
                at_slot,
                e,
                &mut self.assignment,
                &self.queues,
                &self.down,
            ));
        }
        if self.config.max_migrations_per_round > 0 {
            migrations.extend(rebalance(
                &self.config,
                at_slot,
                &mut self.assignment,
                &self.queues,
                &self.down,
            ));
        }
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
}
