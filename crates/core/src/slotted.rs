use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Arc;

use leime_chaos::{ChaosConfig, DeviceLanes, EdgeChaos, LinkHealth, SharedHealth, SharedLanes};
use leime_offload::{
    kkt_allocation_with_floor, ControllerTelemetry, DecisionBatch, DegradeMode, DegradeOutcome,
    DegradeState, DeviceParams, OffloadController, QueuePair, SharedParams, SlotCost,
    SlotObservation,
};
use leime_par::RoundsError;
use leime_par::{Rng, StdRng};
use leime_simnet::SimTime;
use leime_telemetry::{Buckets, Registry};
use leime_workload::{Mmpp, SlotArrivals};

use crate::report::SlotRow;
use crate::{Deployment, FaultStats, LeimeError, Result, RunReport, Scenario, WorkloadKind};

/// Minimum edge share handed to any device with positive demand: every
/// device's second block runs on its share, so a zero share would starve
/// it (see `kkt_allocation_with_floor` and [`SlotQuants::new`]).
pub const SHARE_FLOOR: f64 = 1e-3;

/// The scale-safe share floor for an `n`-device fleet:
/// [`SHARE_FLOOR`] capped at `1/n` (the simplex bound the KKT solver
/// asserts). Bit-identical to the raw constant for every fleet up to
/// 1000 devices — beyond that (the `leime-fleet` million-device sweeps)
/// the floor scales down with the fleet instead of panicking.
pub fn share_floor(n_devices: usize) -> f64 {
    SHARE_FLOOR.min(1.0 / n_devices as f64)
}

/// Slots per shard round under [`SlottedSystem::run_with_workers`]
/// (DESIGN.md §14): each pool barrier covers one epoch of this many
/// slots, so barrier frequency drops 16× without changing a single
/// output byte (slot order, RNG draw order and replay order are all
/// epoch-independent — enforced by the `integration_par` differential
/// suite across epoch lengths).
pub const DEFAULT_EPOCH_LEN: NonZeroUsize = match NonZeroUsize::new(16) {
    Some(len) => len,
    None => unreachable!(),
};

/// The paper's slotted queueing system (§III-D): per-slot arrivals, an
/// offloading decision per device, queue recursions (Eq. 10–11), and the
/// per-slot cost model (Eq. 12–14) extended with the deterministic
/// second/third-block tail so reported TCTs are end-to-end.
///
/// This is the model every motivation and ablation experiment runs on
/// (Figs. 2, 3, 10, 11).
///
/// ## Determinism and parallelism (DESIGN.md §11, §14)
///
/// The solver is decentralized (each device solves Eq. 20 independently
/// per slot), so the per-slot device loop shards across workers via
/// [`SlottedSystem::run_with_workers`]. Every device owns an RNG stream
/// derived as `leime_par::stream_seed(seed, device_index)` — never a
/// shared generator — and all report/telemetry recording is replayed on
/// the driving thread in device order. Per-device state lives in
/// struct-of-arrays shards (`ShardState`), workers process whole
/// *epochs* of slots between barriers, and the driver's replay batches
/// telemetry per slot ([`DecisionBatch`]) instead of locking per
/// decision. The result: for any seed, any worker count and any epoch
/// length, the run's [`RunReport`] and telemetry snapshot are
/// byte-identical to the sequential run (enforced by the tier-2
/// `integration_par` differential suite).
#[derive(Debug)]
pub struct SlottedSystem {
    scenario: Scenario,
    deployment: Deployment,
    queues: Vec<QueuePair>,
    /// Per-device bursty state machines (populated for `Bursty` workloads).
    mmpp: Vec<Mmpp>,
    telemetry: Option<SlotTelemetry>,
}

/// The registry and metric names one slotted run records into (see
/// [`SlottedSystem::attach_registry`]).
#[derive(Debug, Clone)]
struct SlotTelemetry {
    registry: Registry,
    tct: String,
    tct_mean: String,
    /// `queue_q`, `queue_h` and `offload_x`: per-slot means over the
    /// system's devices.
    means: [String; 3],
    /// The `{prefix}.ctrl.queue_{q,h}` decision series.
    ctrl: ControllerTelemetry,
    /// The `{prefix}.ctrl.*` fault counters, in [`FAULT_COUNTERS`] order.
    faults: [String; 5],
}

impl SlotTelemetry {
    /// The names of [`SlottedSystem::attach_registry`] under `prefix`,
    /// each created (empty) in `registry`.
    fn attach(registry: &Registry, prefix: &str) -> Self {
        let tel = SlotTelemetry {
            registry: Registry::clone(registry),
            ctrl: ControllerTelemetry::attach(registry, &format!("{prefix}.ctrl")),
            faults: FAULT_COUNTERS.map(|(k, _)| format!("{prefix}.ctrl.{k}")),
            tct: format!("{prefix}.tct_s"),
            tct_mean: format!("{prefix}.tct_mean_s"),
            means: ["queue_q", "queue_h", "offload_x"].map(|k| format!("{prefix}.{k}")),
        };
        for name in &tel.faults {
            registry.add_count(name, 0);
        }
        registry.merge_histogram(&tel.tct, &Buckets::new());
        for name in std::iter::once(&tel.tct_mean).chain(&tel.means) {
            registry.extend_series(name, []);
        }
        tel
    }

    /// Writes a report's views over its `n` devices: the `tct_s`
    /// histogram, the fault counters and the per-slot series.
    fn record(&self, report: &RunReport, n: usize) {
        let registry = &self.registry;
        registry.merge_histogram(&self.tct, &report.tct);
        let f = report.fault_stats();
        for (name, (_, total)) in self.faults.iter().zip(FAULT_COUNTERS) {
            registry.add_count(name, total(&f));
        }
        let rows = &report.slots;
        registry.extend_series(
            &self.tct_mean,
            rows.iter()
                .filter(|row| row.tasks > 0)
                .map(|row| (row.t.as_secs(), row.total / row.tasks as f64)),
        );
        let sums: [fn(&SlotRow) -> f64; 3] = [|row| row.q, |row| row.h, |row| row.x];
        for (name, sum) in self.means.iter().zip(sums) {
            registry.extend_series(
                name,
                rows.iter()
                    .map(|row| (row.t.as_secs(), sum(row) / n as f64)),
            );
        }
    }
}

/// Reads one total out of a run's [`FaultStats`].
type FaultTotal = fn(&FaultStats) -> u64;

/// The fault and degradation counters, each with the report total it
/// takes once per run.
const FAULT_COUNTERS: [(&str, FaultTotal); 5] = [
    ("fault_slots", |f| f.fault_slots),
    ("timeouts", |f| f.timeouts),
    ("retries", |f| f.retries),
    ("fallbacks", |f| f.fallbacks),
    ("recoveries", |f| f.recoveries),
];

/// A worker's shard in struct-of-arrays layout: field `k` of every
/// array belongs to device `start + k`. The slot loop walks each array
/// sequentially (queue recursions, degradation ladders, RNG draws), so
/// splitting the state by field keeps each pass on a dense homogeneous
/// allocation instead of striding over one large struct per device. One
/// stream of randomness per device (`stream_seed(seed, i)`), so shard
/// layout never touches the draw sequence.
#[derive(Debug, PartialEq)]
struct ShardState {
    start: usize,
    queues: Vec<QueuePair>,
    degrades: Vec<DegradeState>,
    /// Empty unless the workload is `Bursty` (then one entry per device).
    mmpp: Vec<Mmpp>,
    rngs: Vec<StdRng>,
    /// Empty unless the run injects faults (then one entry per device:
    /// its own chaos lanes, derived on its first slot).
    lanes: Vec<DeviceLanes>,
    memo: DecideMemo,
}

impl ShardState {
    fn len(&self) -> usize {
        self.queues.len()
    }
}

/// Single-entry memo over the per-slot decision solve.
///
/// `OffloadController::decide` is a pure function of
/// `(shared, device, obs)`: controllers record nothing, the driver
/// records their decisions. Purity means byte-identical inputs produce
/// byte-identical outputs, so when consecutive solves present the same
/// input bits (a homogeneous fleet whose queues drain every slot — the
/// paper's Pi-cluster experiments — presents them device after device
/// and slot after slot), the solver can be skipped outright. The key
/// covers every bit `decide` reads, compared via `to_bits` (so `-0.0`
/// and `0.0`, which could steer a solver differently, never alias). A
/// miss costs one 15-word compare; the memo changes no output at any
/// worker count or epoch length.
#[derive(Debug, Default, PartialEq)]
pub struct DecideMemo {
    key: Option<[u64; 15]>,
    x_opt: f64,
}

/// Every input bit of the decision solve, in declaration order.
fn decide_key(s: &SharedParams, d: &DeviceParams, obs: &SlotObservation) -> [u64; 15] {
    [
        s.slot_len_s.to_bits(),
        s.v.to_bits(),
        s.mu1.to_bits(),
        s.mu2.to_bits(),
        s.sigma1.to_bits(),
        s.d0_bytes.to_bits(),
        s.d1_bytes.to_bits(),
        s.edge_flops.to_bits(),
        d.flops.to_bits(),
        d.bandwidth_bps.to_bits(),
        d.latency_s.to_bits(),
        d.arrival_mean.to_bits(),
        obs.q.to_bits(),
        obs.h.to_bits(),
        obs.p_share.to_bits(),
    ]
}

/// What [`decide_device`] reads besides the device's own state and the
/// slot's shared health: the scenario, the edge's faults, the decision
/// policy and the slot's shared parameters.
#[derive(Clone, Copy)]
pub struct DecideCtx<'a> {
    /// The scenario (devices, links, degradation policy).
    pub scenario: &'a Scenario,
    /// The edge's faults, if the scenario injects any: each device
    /// derives its own lanes from them ([`DeviceRow::lanes`]).
    pub chaos: Option<EdgeChaos<'a>>,
    /// The decision policy; `decide` must be pure (see [`DecideMemo`]).
    pub decider: &'a dyn OffloadController,
    /// Shared parameters before the edge's health scales them.
    pub shared: SharedParams,
}

/// Immutable per-edge inputs of a run, shared (by reference) with every
/// worker.
struct RunCtx<'a> {
    decide: DecideCtx<'a>,
    deployment: &'a Deployment,
}

/// Fleet-level per-slot quantities the driving thread computes and
/// broadcasts (KKT shares are a global coupling — Eq. 27).
#[derive(Debug)]
pub struct SlotQuants {
    /// Per-device arrival means, in fleet order.
    means: Vec<f64>,
    /// Per-device edge shares `p_i`, in fleet order.
    shares: Vec<f64>,
}

impl SlotQuants {
    /// The KKT shares of an edge of `edge_flops` over devices of
    /// capacity `flops` with arrival `means`, floored at
    /// [`share_floor`].
    pub fn new(flops: &[f64], means: Vec<f64>, edge_flops: f64) -> Self {
        let shares = kkt_allocation_with_floor(flops, &means, edge_flops, share_floor(flops.len()));
        SlotQuants { means, shares }
    }
}

/// One device's decision for one slot: the inputs the solve saw and
/// what the degradation ladder made of its optimum.
#[derive(Debug, Clone, Copy)]
pub struct DeviceDecision {
    /// Shared parameters with the edge scaled by its health.
    pub shared: SharedParams,
    /// Device parameters under its link's health; `arrival_mean` is
    /// the slot's mean.
    pub device: DeviceParams,
    /// Queue state and edge share at the slot start.
    pub obs: SlotObservation,
    /// The device's link or the edge is not nominal this slot.
    pub fault: bool,
    /// The edge serves this slot (a downed edge has no H-quota).
    pub edge_up: bool,
    /// The degradation ladder's outcome; `outcome.x` is the applied ratio.
    pub outcome: DegradeOutcome,
    /// The ladder is out of normal mode: the slot's tasks run fully
    /// locally and take the First-exit on device.
    pub degraded_local: bool,
}

/// One device's row of a shard, as a stage's per-device step sees it:
/// the device's own state plus the shard's decide memo.
#[derive(Debug)]
pub struct DeviceRow<'a> {
    /// The device's index.
    pub i: usize,
    /// The device's Eq. 10–11 queue pair.
    pub queue: &'a mut QueuePair,
    /// The device's degradation ladder.
    pub degrade: &'a mut DegradeState,
    /// The device's bursty state machine (`Bursty` workloads only).
    pub mmpp: Option<&'a mut Mmpp>,
    /// The device's own RNG stream, `stream_rng(seed, i)`.
    pub rng: &'a mut StdRng,
    /// The device's own chaos lanes (flaps, spikes, churn), advanced by
    /// [`decide_device`] (runs that inject faults only).
    pub lanes: Option<&'a mut DeviceLanes>,
    /// The shard's decide memo (see [`decide_device`]).
    pub memo: &'a mut DecideMemo,
}

/// One slot's records, in device order. Each shard's epoch of records
/// is stored slot-major.
pub struct SlotRecords<'a, O> {
    /// The shards not yet started: their epoch of records and device count.
    shards: std::iter::Zip<std::slice::Iter<'a, Vec<O>>, std::slice::Iter<'a, usize>>,
    /// The slot's index within the epoch.
    rel: usize,
    /// The rest of the shard being read.
    cur: std::slice::Iter<'a, O>,
}

impl<'a, O> Iterator for SlotRecords<'a, O> {
    type Item = &'a O;

    fn next(&mut self) -> Option<&'a O> {
        loop {
            if let Some(out) = self.cur.next() {
                return Some(out);
            }
            let (outs, &len) = self.shards.next()?;
            self.cur = outs[self.rel * len..(self.rel + 1) * len].iter();
        }
    }
}

/// Where a run's devices sit (DESIGN.md §16). Device `i` is served by
/// edge `assignment[i]` of `count`, and the horizon splits into
/// intervals of `interval` slots (0: one interval). After every interval
/// but the last, `boundary` may rewrite the assignment; nothing else
/// changes, and every device keeps its row. A bare [`SlottedSystem`] run
/// is one edge with one interval.
pub struct Edges<'a> {
    /// The number of edges.
    pub count: usize,
    /// Edge `e`'s fault config, derived from the scenario's. The edge's
    /// shared lanes advance once per slot on the driver; a device on the
    /// edge derives its own lanes (keyed by device index) from it, again
    /// after every move to another edge.
    pub chaos: fn(Option<&ChaosConfig>, usize) -> Option<ChaosConfig>,
    /// Device → edge; every entry is below `count`, before and after
    /// each boundary.
    pub assignment: &'a mut [usize],
    /// Slots per interval; 0 runs the horizon as one interval.
    pub interval: usize,
    /// Records edge `e` under `{prefix}.edge{e}` (the names of
    /// [`SlottedSystem::attach_registry`]) from the first interval that
    /// gives it devices. Edge 0 also records into the system's own
    /// attached registry, if any.
    pub registry: Option<(&'a Registry, &'a str)>,
    /// The boundary action.
    pub boundary: &'a mut BoundaryAction<'a>,
}

/// A boundary action of [`Edges`]. It gets the next interval's first
/// slot, whether an edge is up at the last slot's start, the assignment
/// to rewrite and every device's queues after that slot.
pub type BoundaryAction<'a> =
    dyn FnMut(usize, &dyn Fn(usize) -> bool, &mut [usize], &[QueuePair]) + 'a;

/// Everything one device-slot produces, replayed into the report and
/// telemetry in device order by the driving thread. Plain-old-data on
/// purpose: a worker's whole epoch of outputs lives in one flat vector
/// with no per-device-slot heap allocation (S6).
#[derive(Debug)]
enum DeviceSlotOut {
    /// Churned out: absent this slot, frozen queues.
    Churned,
    /// A simulated device-slot.
    Active(ActiveOut),
}

#[derive(Debug)]
struct ActiveOut {
    fault: bool,
    /// The device queue `Q_i(t)` at the slot start.
    q: f64,
    /// The edge queue `H_i(t)` at the slot start.
    h: f64,
    /// The degradation ladder's outcome; `outcome.x` is the applied ratio.
    outcome: DegradeOutcome,
    arrivals: u64,
    /// End-to-end completion time per task this slot.
    per_task: f64,
    /// Fleet-cost contribution (`per_task * arrivals`).
    total: f64,
    /// Tasks per exit tier (first/second/third). Tier tallies are
    /// additive, so counts replay to the exact state the historical
    /// per-task draw-order recording produced — without a `Vec` per
    /// device-slot.
    tier_counts: [u32; 3],
    /// Work drained from the device+edge queues this slot.
    served: f64,
    /// The queue pair after this slot.
    queue: QueuePair,
}

impl SlottedSystem {
    /// Builds the system for a scenario and a deployed ME-DNN.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LeimeError::Config`] for invalid scenarios.
    pub fn new(scenario: Scenario, deployment: Deployment) -> Result<Self> {
        scenario.validate()?;
        let queues = vec![QueuePair::new(); scenario.devices.len()];
        let mmpp = build_mmpp(&scenario);
        Ok(SlottedSystem {
            scenario,
            deployment,
            queues,
            mmpp,
            telemetry: None,
        })
    }

    /// Current queue states (exposed for stability diagnostics).
    pub fn queues(&self) -> &[QueuePair] {
        &self.queues
    }

    /// Injects per-device queue states (device order), replacing the
    /// current ones.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LeimeError::Config`] when `queues` does not
    /// match the scenario's device count.
    pub fn set_queues(&mut self, queues: &[QueuePair]) -> Result<()> {
        if queues.len() != self.queues.len() {
            return Err(crate::LeimeError::Config(format!(
                "queue injection for {} devices into a {}-device system",
                queues.len(),
                self.queues.len()
            )));
        }
        self.queues.copy_from_slice(queues);
        Ok(())
    }

    /// Attaches a telemetry registry: subsequent runs record, under
    /// `prefix`,
    ///
    /// * `{prefix}.tct_s` — histogram of per-task completion times (the
    ///   report's, merged in once per run),
    /// * `{prefix}.tct_mean_s`, `{prefix}.queue_q`, `{prefix}.queue_h`,
    ///   `{prefix}.offload_x` — per-slot series (fleet means),
    /// * `{prefix}.ctrl.queue_q`, `{prefix}.ctrl.queue_h` — the queues
    ///   each decision observed, one point per device-slot, for policies
    ///   that [record their decisions](OffloadController::records_decisions)
    ///   ([`ControllerTelemetry`]), and
    /// * `{prefix}.ctrl.fault_slots|timeouts|retries|fallbacks|recoveries`
    ///   — the run's fault and degradation totals
    ///   ([`RunReport::fault_stats`]), added once per run.
    ///
    /// All series are stamped with simulated slot-start time. Recording
    /// happens on the driving thread in device order even under
    /// [`SlottedSystem::run_with_workers`], so snapshots stay
    /// byte-identical at every worker count.
    pub fn attach_registry(&mut self, registry: &Registry, prefix: &str) {
        self.telemetry = Some(SlotTelemetry::attach(registry, prefix));
    }

    /// Runs `slots` time slots on the driving thread; returns the
    /// aggregated report. Equivalent to
    /// [`SlottedSystem::run_with_workers`] with one worker — and
    /// byte-identical to it at *any* worker count.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LeimeError::Config`] if the deployment's tier sampling is
    /// inconsistent (cannot happen for deployments built by this crate).
    pub fn run(&mut self, slots: usize, seed: u64) -> Result<RunReport> {
        self.run_with_workers(slots, seed, NonZeroUsize::MIN)
    }

    /// Runs `slots` time slots with the per-slot device loop sharded
    /// across up to `workers` threads (capped at the fleet size), in
    /// epochs of [`DEFAULT_EPOCH_LEN`] slots per barrier.
    ///
    /// # Errors
    ///
    /// Same as [`SlottedSystem::run_with_workers_epochs`].
    pub fn run_with_workers(
        &mut self,
        slots: usize,
        seed: u64,
        workers: NonZeroUsize,
    ) -> Result<RunReport> {
        self.run_with_workers_epochs(slots, seed, workers, DEFAULT_EPOCH_LEN)
    }

    /// Runs `slots` time slots with the per-slot device loop sharded
    /// across up to `workers` threads, synchronising once per
    /// `epoch_len` slots: the one-edge case of
    /// [`SlottedSystem::run_on_edges`]. The [`RunReport`] (and any
    /// attached telemetry) is byte-identical for every `workers` ×
    /// `epoch_len` combination ([`run_slot_loop`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::LeimeError::Config`] for inconsistent tier
    /// sampling and [`crate::LeimeError::Parallel`] if a worker shard
    /// fails (a caught panic surfaces as a typed error, never a hang).
    pub fn run_with_workers_epochs(
        &mut self,
        slots: usize,
        seed: u64,
        workers: NonZeroUsize,
        epoch_len: NonZeroUsize,
    ) -> Result<RunReport> {
        let edges = Edges {
            count: 1,
            chaos: |chaos, _| chaos.cloned(),
            assignment: &mut vec![0; self.scenario.devices.len()],
            interval: 0,
            registry: None,
            boundary: &mut |_, _, _, _| {},
        };
        let mut reports = self.run_on_edges(slots, seed, workers, epoch_len, edges)?;
        Ok(reports.pop().and_then(|mut r| r.pop()).unwrap_or_default())
    }

    /// Runs `slots` time slots with the devices on edges ([`Edges`]),
    /// returning one report per interval and edge (`reports[k][e]`; an
    /// edge without devices in an interval gets an empty report).
    ///
    /// The slotted stage on [`run_slot_loop`]: per-slot fleet quantities
    /// (arrival means, each edge's KKT shares — Eq. 27) on the driver,
    /// each edge's shared fault health (its edge and all-device lanes),
    /// the per-device step `device_slot` on the workers under its edge's
    /// faults, and the replay of each slot, in device order, into
    /// its edge's report and telemetry. Epochs end at interval ends, so
    /// the boundary runs between epochs on the queues the replay has
    /// folded, and the next interval's broadcasts see its assignment.
    /// Each edge's per-slot registry series are written from its reports
    /// after the loop. Reports, telemetry and final queues are
    /// byte-identical at every `workers` × `epoch_len` combination.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LeimeError::Config`] for an assignment that does
    /// not fit the devices and edges or for inconsistent tier sampling,
    /// and [`crate::LeimeError::Parallel`] if a worker shard fails.
    pub fn run_on_edges(
        &mut self,
        slots: usize,
        seed: u64,
        workers: NonZeroUsize,
        epoch_len: NonZeroUsize,
        edges: Edges<'_>,
    ) -> Result<Vec<Vec<RunReport>>> {
        let Edges {
            count: n_edges,
            chaos,
            assignment,
            interval,
            registry,
            boundary,
        } = edges;
        let scenario = &self.scenario;
        let n = scenario.devices.len();
        if n_edges == 0 || assignment.len() != n || assignment.iter().any(|&e| e >= n_edges) {
            return Err(LeimeError::Config(format!(
                "assignment of {} devices onto {n_edges} edges for {n} devices",
                assignment.len()
            )));
        }
        let horizon = SimTime::from_secs(slots as f64 * scenario.slot_len_s);
        // Each edge's fault config, and its shared lanes: advanced by the
        // broadcasts, and read once more at a boundary, at the slot it
        // follows.
        type EdgeFaults = (Option<ChaosConfig>, RefCell<Option<SharedLanes>>);
        let faults: Vec<EdgeFaults> = (0..n_edges)
            .map(|edge| {
                let config = chaos(scenario.chaos.as_ref(), edge);
                let lanes = config.as_ref().map(|c| c.shared_lanes(horizon));
                (config, RefCell::new(lanes))
            })
            .collect();
        // Workers decide; the driver records decision telemetry in
        // device order.
        let decider = scenario.controller.build();
        let record_decisions =
            decider.records_decisions() && (self.telemetry.is_some() || registry.is_some());
        let runs: Vec<RunCtx<'_>> = faults
            .iter()
            .enumerate()
            .map(|(edge, (config, _))| RunCtx {
                decide: DecideCtx {
                    scenario,
                    chaos: config.as_ref().map(|config| EdgeChaos {
                        config,
                        edge,
                        horizon,
                    }),
                    decider: decider.as_ref(),
                    shared: scenario.shared_params(&self.deployment),
                },
                deployment: &self.deployment,
            })
            .collect();
        let flops = device_flops(scenario);
        // What the controller knows from "historical statistics": the
        // stationary mean for bursty workloads, the configured mean
        // otherwise (rate traces override per slot, below).
        let base_means: Vec<f64> = scenario
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| match &scenario.workload {
                WorkloadKind::Bursty { .. } => self.mmpp[i].stationary_mean(),
                _ => d.arrival_mean,
            })
            .collect();
        let quants_for = |edge_of: &[usize], means| {
            edge_quants(&flops, means, edge_of, n_edges, scenario.edge_flops)
        };
        let intervals =
            leime_par::epoch_ranges(slots, if interval == 0 { slots } else { interval });
        let epochs: Vec<Range<usize>> = intervals
            .iter()
            .flat_map(|iv| {
                let epochs = leime_par::epoch_ranges(iv.len(), epoch_len.get());
                epochs
                    .into_iter()
                    .map(|e| iv.start + e.start..iv.start + e.end)
            })
            .collect();

        // The driver's view of the interval, shared by the broadcasts:
        // each device's edge and the run-constant quantities, rebuilt at
        // boundaries. Every other workload's means are run-constant, so
        // only rate traces solve per slot (the KKT solve is a pure
        // function of the means).
        let view = RefCell::new((
            Arc::<[usize]>::from(&*assignment),
            Arc::new(quants_for(assignment, base_means.clone())),
        ));
        let broadcast = |slot: usize| {
            let view = view.borrow();
            let (edge_of, base) = &*view;
            let start = SimTime::from_secs(slot as f64 * scenario.slot_len_s);
            let quants = match &scenario.workload {
                WorkloadKind::RateTrace { trace, .. } => {
                    Arc::new(quants_for(edge_of, vec![trace.value_at(start); n]))
                }
                _ => Arc::clone(base),
            };
            let mut health = vec![SharedHealth::NOMINAL; n_edges];
            for (h, (_, lanes)) in health.iter_mut().zip(&faults) {
                if let Some(lanes) = lanes.borrow_mut().as_mut() {
                    *h = lanes.health(start);
                }
            }
            (start, Arc::clone(edge_of), quants, health)
        };

        type Broadcast = (SimTime, Arc<[usize]>, Arc<SlotQuants>, Vec<SharedHealth>);
        let step =
            |(start, edge_of, quants, health): &Broadcast, slot: usize, row: DeviceRow<'_>| {
                let e = edge_of[row.i];
                device_slot(&runs[e], quants, &health[e], *start, slot as u64, row)
            };

        // Driver-side replay state, reused across slots so steady-state
        // flushing allocates nothing (the TCT histograms' windows aside:
        // each grows at most `NUM_BUCKETS` times per run).
        let mut tels: Vec<Option<SlotTelemetry>> = vec![None; n_edges];
        tels[0].clone_from(&self.telemetry);
        let mut batches: Vec<DecisionBatch> = (0..n_edges).map(|_| DecisionBatch::new()).collect();
        let mut rows = vec![SlotRow::default(); n_edges];
        let mut queues = self.queues.clone();
        // Per interval: each edge's report and device count.
        let mut reports: Vec<Vec<RunReport>> = Vec::with_capacity(intervals.len());
        let mut sizes: Vec<Vec<usize>> = Vec::with_capacity(intervals.len());
        let replay = |slot: usize, outs: SlotRecords<'_, DeviceSlotOut>| {
            if intervals
                .get(reports.len())
                .is_some_and(|iv| iv.start == slot)
            {
                let mut size = vec![0usize; n_edges];
                for &e in assignment.iter() {
                    size[e] += 1;
                }
                for (e, tel) in tels.iter_mut().enumerate() {
                    if let (None, Some((registry, prefix)), true) = (&tel, registry, size[e] > 0) {
                        *tel = Some(SlotTelemetry::attach(
                            registry,
                            &format!("{prefix}.edge{e}"),
                        ));
                    }
                }
                sizes.push(size);
                reports.push(vec![RunReport::new(); n_edges]);
            }
            let iv = reports.len() - 1;
            let t = SimTime::from_secs(slot as f64 * scenario.slot_len_s);
            rows.fill(SlotRow::new(t));
            for (i, out) in outs.enumerate() {
                let e = assignment[i];
                apply_out(
                    &mut reports[iv][e],
                    &mut rows[e],
                    record_decisions,
                    &mut batches[e],
                    out,
                );
                if let DeviceSlotOut::Active(a) = out {
                    queues[i] = a.queue;
                }
            }
            for e in (0..n_edges).filter(|&e| sizes[iv][e] > 0) {
                reports[iv][e].slots.push(std::mem::take(&mut rows[e]));
                if let Some(tel) = &tels[e] {
                    tel.ctrl.flush_batch(&mut batches[e]);
                }
            }
            if slot + 1 == intervals[iv].end && iv + 1 < intervals.len() {
                let up = |e: usize| {
                    let mut lanes = faults[e].1.borrow_mut();
                    lanes.as_mut().is_none_or(|l| l.health(t).edge.up)
                };
                boundary(slot + 1, &up, assignment, &queues);
                let mut view = view.borrow_mut();
                if view.0[..] != assignment[..] {
                    *view = (
                        Arc::from(&*assignment),
                        Arc::new(quants_for(assignment, base_means.clone())),
                    );
                }
            }
            Ok(())
        };

        let chaos = faults.iter().any(|(config, _)| config.is_some());
        let start = (&self.queues[..], &self.mmpp[..], seed, chaos);
        let (queues, mmpp) = run_slot_loop(start, &epochs, workers, broadcast, step, replay)?;
        // Hand the advanced per-device state back so repeated runs and
        // post-run diagnostics ([`SlottedSystem::queues`]) behave exactly
        // as the sequential implementation always did. The registry's
        // histograms, fault counters and per-slot series are views of
        // the reports, written once per run.
        self.queues = queues;
        self.mmpp = mmpp;
        for (reports, sizes) in reports.iter().zip(&sizes) {
            for ((report, &size), tel) in reports.iter().zip(sizes).zip(&tels) {
                if let (Some(tel), true) = (tel, size > 0) {
                    tel.record(report, size);
                }
            }
        }
        Ok(reports)
    }
}

/// The sharded slot loop every slotted system, fleet and serving run
/// goes through (DESIGN.md §14): the slots of `epochs`, in order, of one
/// system whose devices start from `(queues, mmpp, seed, chaos)` (with
/// fresh chaos lanes in each row when `chaos`), in one
/// `leime_par::run_rounds` call with one round per epoch, the devices
/// partitioned across up to `workers` threads.
///
/// A *stage* supplies what differs between systems:
///
/// * `broadcast(slot)` — the driver-side per-slot context, called once
///   per slot in slot order (so it may draw from a driver-owned stream);
/// * `step(ctx, slot, row)` — one device-slot on a worker, touching
///   only that device's row, returning its record;
/// * `replay(slot, outs)` — the driver-side recording of one slot, with
///   its records in device order.
///
/// An epoch's broadcasts are built before its steps run, so they must
/// never depend on the epoch's device state; they may read state that
/// earlier epochs replayed, because each epoch is replayed before the
/// next one's broadcasts are built. Each device then runs its epoch on
/// its own row, drawing from `stream_rng(seed, i)`, and replay goes slot
/// by slot in device order: the sequence a sequential loop produces. The
/// replayed records and the returned final `(queues, mmpp)` are
/// therefore byte-identical for every worker count and epoch list that
/// covers the same slots.
///
/// # Errors
///
/// Propagates the first `step` or `replay` error, and returns
/// [`crate::LeimeError::Parallel`] if a worker shard fails (a caught
/// panic surfaces as a typed error, never a hang).
pub fn run_slot_loop<B, O>(
    (queues, mmpp, seed, chaos): (&[QueuePair], &[Mmpp], u64, bool),
    epochs: &[Range<usize>],
    workers: NonZeroUsize,
    mut broadcast: impl FnMut(usize) -> B,
    step: impl Fn(&B, usize, DeviceRow<'_>) -> Result<O> + Sync,
    mut replay: impl FnMut(usize, SlotRecords<'_, O>) -> Result<()>,
) -> Result<(Vec<QueuePair>, Vec<Mmpp>)>
where
    B: Send + Sync,
    O: Send,
{
    let shards = build_shards(queues, mmpp, seed, chaos, workers.get());
    let lens: Vec<usize> = shards.iter().map(ShardState::len).collect();

    // Each round's context: its slots and the stage's per-slot
    // broadcasts.
    let make_ctx = |round: usize| {
        let slots = epochs[round].clone();
        let mut per_slot = Vec::with_capacity(slots.len());
        for slot in slots.clone() {
            per_slot.push(broadcast(slot));
        }
        (slots, per_slot)
    };

    let work =
        |_: usize, _: usize, (slots, per_slot): &(Range<usize>, Vec<B>), sh: &mut ShardState| {
            let mut outs = Vec::with_capacity(slots.len() * sh.len());
            for (b, slot) in per_slot.iter().zip(slots.clone()) {
                for k in 0..sh.len() {
                    let row = DeviceRow {
                        i: sh.start + k,
                        queue: &mut sh.queues[k],
                        degrade: &mut sh.degrades[k],
                        mmpp: sh.mmpp.get_mut(k),
                        rng: &mut sh.rngs[k],
                        lanes: sh.lanes.get_mut(k),
                        memo: &mut sh.memo,
                    };
                    outs.push(step(b, slot, row)?);
                }
            }
            Ok(outs)
        };

    let apply = |round: usize, shard_outs: Vec<Result<Vec<O>>>| {
        let mut per_shard = Vec::with_capacity(shard_outs.len());
        for outs in shard_outs {
            per_shard.push(outs?);
        }
        for (rel, slot) in epochs[round].clone().enumerate() {
            let outs = SlotRecords {
                shards: per_shard.iter().zip(&lens),
                rel,
                cur: [].iter(),
            };
            replay(slot, outs)?;
        }
        Ok(())
    };

    let finals = leime_par::run_rounds(shards, epochs.len(), make_ctx, work, apply).map_err(
        |e| match e {
            RoundsError::Par(p) => LeimeError::from(p),
            RoundsError::Apply(e) => e,
        },
    )?;
    // Shards run in device order.
    let (mut queues, mut mmpp) = (Vec::new(), Vec::new());
    for sh in finals {
        queues.extend(sh.queues);
        mmpp.extend(sh.mmpp);
    }
    Ok((queues, mmpp))
}

/// Builds the per-device bursty state machines for `Bursty` workloads.
fn build_mmpp(scenario: &Scenario) -> Vec<Mmpp> {
    match &scenario.workload {
        WorkloadKind::Bursty {
            burst_factor,
            p_enter,
            p_leave,
            max,
        } => scenario
            .devices
            .iter()
            .map(|d| {
                Mmpp::new(
                    d.arrival_mean,
                    d.arrival_mean * burst_factor,
                    *p_enter,
                    *p_leave,
                    *max,
                )
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Per-device compute capacities, in fleet order (input to Eq. 27).
fn device_flops(scenario: &Scenario) -> Vec<f64> {
    scenario.devices.iter().map(|d| d.flops).collect()
}

/// The Eq. 27 quantities of devices on edges: per-device arrival
/// `means`, and each edge's KKT shares over its own devices in index
/// order ([`SlotQuants::new`]), with device `i` on edge `edge_of[i]`.
fn edge_quants(
    flops: &[f64],
    means: Vec<f64>,
    edge_of: &[usize],
    n_edges: usize,
    edge_flops: f64,
) -> SlotQuants {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_edges];
    for (i, &e) in edge_of.iter().enumerate() {
        members[e].push(i);
    }
    let mut shares = vec![0.0; means.len()];
    for ids in members.iter().filter(|ids| !ids.is_empty()) {
        let pick = |v: &[f64]| ids.iter().map(|&i| v[i]).collect::<Vec<f64>>();
        let edge = SlotQuants::new(&pick(flops), pick(&means), edge_flops);
        for (&i, share) in ids.iter().zip(edge.shares) {
            shares[i] = share;
        }
    }
    SlotQuants { means, shares }
}

/// Splits the per-device state into struct-of-arrays shards with
/// `leime_par::partition`, with chaos lanes when `chaos`. Device `i`
/// draws from `stream_seed(seed, i)`, so shard layout never touches its
/// draw sequence.
fn build_shards(
    queues: &[QueuePair],
    mmpp: &[Mmpp],
    seed: u64,
    chaos: bool,
    workers: usize,
) -> Vec<ShardState> {
    let ranges = leime_par::partition(queues.len(), workers);
    ranges
        .into_iter()
        .map(|range| ShardState {
            start: range.start,
            queues: queues[range.clone()].to_vec(),
            degrades: vec![DegradeState::new(); range.len()],
            mmpp: if mmpp.is_empty() {
                Vec::new()
            } else {
                mmpp[range.clone()].to_vec()
            },
            lanes: if chaos {
                vec![DeviceLanes::default(); range.len()]
            } else {
                Vec::new()
            },
            rngs: range
                .map(|i| leime_par::stream_rng(seed, i as u64))
                .collect(),
            memo: DecideMemo::default(),
        })
        .collect()
}

/// Draws one device's slot arrivals from its own stream.
fn draw_arrivals(
    workload: &WorkloadKind,
    mmpp: Option<&mut Mmpp>,
    mean: f64,
    rng: &mut StdRng,
) -> u64 {
    match workload {
        WorkloadKind::Deterministic => SlotArrivals::Deterministic { k: mean }.draw(rng),
        WorkloadKind::SlotPoisson { max } => SlotArrivals::Poisson { mean, max: *max }.draw(rng),
        WorkloadKind::RateTrace { max, .. } => SlotArrivals::Poisson { mean, max: *max }.draw(rng),
        WorkloadKind::Bursty { .. } => match mmpp {
            Some(m) => m.draw(rng),
            // Unreachable for validated scenarios (Bursty always builds
            // per-device MMPPs); degrade to the stationary mean.
            None => SlotArrivals::Deterministic { k: mean }.draw(rng),
        },
    }
}

/// Expected second/third-block completion tail per *surviving* task
/// cohort in one slot (the paper's Y covers first-block costs only;
/// blocks 2–3 are processed "fixedly" on edge and cloud).
fn tail_cost(run: &RunCtx<'_>, cost: &SlotCost, x: f64, tasks: f64) -> f64 {
    let dep = run.deployment;
    let survivors1 = (1.0 - dep.sigma[0]) * tasks;
    let survivors2 = (1.0 - dep.sigma[1]) * tasks;
    let mut tail = 0.0;
    if survivors1 > 0.0 && dep.mu[1] > 0.0 {
        tail += survivors1 * dep.mu[1] / cost.second_block_flops(x);
    }
    if survivors2 > 0.0 {
        let scenario = run.decide.scenario;
        tail += survivors2
            * (dep.d[2] * 8.0 / scenario.cloud_bandwidth_bps
                + scenario.cloud_latency_s
                + dep.mu[2] / scenario.cloud_flops);
    }
    tail
}

/// The device-side decision step of one device-slot (§III-D): the
/// device's chaos lanes and churn on top of the edge's `shared` health
/// at `slot_start`, the decision inputs, the memoised Eq. 20 solve and
/// the degradation ladder. `None` when the device is churned out
/// (absent this slot: no arrivals, no service, frozen queues). Shared
/// by the slotted system and the serving runtime; allocation-free once
/// the device's lanes exist (S6).
#[inline]
pub fn decide_device(
    ctx: &DecideCtx<'_>,
    quants: &SlotQuants,
    shared: &SharedHealth,
    slot: u64,
    slot_start: SimTime,
    row: &mut DeviceRow<'_>,
) -> Option<DeviceDecision> {
    let (i, memo) = (row.i, &mut *row.memo);
    let link = match (&ctx.chaos, row.lanes.as_deref_mut()) {
        (Some(chaos), Some(lanes)) => chaos.link_health(lanes, i, shared, slot_start)?,
        _ => LinkHealth::NOMINAL,
    };
    let edge = shared.edge;
    let scenario = ctx.scenario;
    let device = DeviceParams {
        arrival_mean: quants.means[i],
        bandwidth_bps: scenario.bandwidth_at(i, slot_start) * link.bandwidth_factor,
        latency_s: scenario.devices[i].latency_s + link.extra_latency_s,
        ..scenario.devices[i]
    };
    // Edge slowdown scales the server the whole fleet shares.
    let shared = SharedParams {
        edge_flops: ctx.shared.edge_flops * edge.speed_factor,
        ..ctx.shared
    };
    let obs = SlotObservation {
        q: row.queue.q(),
        h: row.queue.h(),
        p_share: quants.shares[i].clamp(0.0, 1.0),
    };
    let key = decide_key(&shared, &device, &obs);
    if memo.key != Some(key) {
        *memo = DecideMemo {
            key: Some(key),
            x_opt: ctx.decider.decide(shared, device, obs),
        };
    }
    // The degradation ladder observes reachability (`link.up && edge.up`).
    let up = link.up && edge.up;
    let outcome = row
        .degrade
        .degraded_decide(&scenario.degrade, slot, up, memo.x_opt);
    Some(DeviceDecision {
        shared,
        device,
        obs,
        fault: !link.is_nominal() || !edge.is_nominal(),
        edge_up: edge.up,
        outcome,
        degraded_local: row.degrade.mode() != DegradeMode::Normal,
    })
}

/// Simulates one device-slot — the decision step ([`decide_device`]),
/// the arrival draw, the realized slot cost and the queue recursion —
/// touching nothing but this device's row of the shard. The slotted
/// stage's per-device step: allocation-free (S6) and safe to run
/// concurrently across devices; all recording is deferred to
/// [`apply_out`] on the driving thread.
fn device_slot(
    run: &RunCtx<'_>,
    quants: &SlotQuants,
    shared: &SharedHealth,
    slot_start: SimTime,
    t_slot: u64,
    mut row: DeviceRow<'_>,
) -> Result<DeviceSlotOut> {
    let Some(d) = decide_device(&run.decide, quants, shared, t_slot, slot_start, &mut row) else {
        return Ok(DeviceSlotOut::Churned);
    };
    let DeviceRow {
        queue, mmpp, rng, ..
    } = row;
    let (x, obs, degraded_local) = (d.outcome.x, d.obs, d.degraded_local);
    let arrivals = draw_arrivals(
        &run.decide.scenario.workload,
        mmpp,
        d.device.arrival_mean,
        rng,
    );

    // Realized per-slot cost with the actual arrival count.
    let realized = DeviceParams {
        arrival_mean: arrivals as f64,
        ..d.device
    };
    let cost = SlotCost::new(d.shared, realized, obs.q, obs.h, obs.p_share);
    let (per_task, total, tier_counts) = if arrivals > 0 {
        let first_block = cost.y(x);
        let tail = if degraded_local {
            0.0
        } else {
            tail_cost(run, &cost, x, arrivals as f64)
        };
        let total = first_block + tail;
        let per_task = total / arrivals as f64;
        let mut tier_counts = [0u32; 3];
        for _ in 0..arrivals {
            let tier = if degraded_local {
                0
            } else {
                run.deployment.tier_for_draw(rng.gen_range(0.0..1.0))?
            };
            tier_counts[tier.min(2)] += 1;
        }
        (per_task, total, tier_counts)
    } else {
        (0.0, 0.0, [0u32; 3])
    };

    // Queue recursions (Eq. 10–11). A downed edge serves nothing (zero
    // H-quota); its backlog waits out the fault.
    let a = (1.0 - x) * arrivals as f64;
    let d_off = x * arrivals as f64;
    let edge_quota = if d.edge_up { cost.edge_quota(x) } else { 0.0 };
    queue.step(a, d_off, cost.device_quota(), edge_quota);
    let served = (obs.q + a - queue.q()) + (obs.h + d_off - queue.h());

    Ok(DeviceSlotOut::Active(ActiveOut {
        fault: d.fault,
        q: obs.q,
        h: obs.h,
        outcome: d.outcome,
        arrivals,
        per_task,
        total,
        tier_counts,
        served,
        queue: *queue,
    }))
}

/// Replays one device-slot's recordings into the run totals and its
/// slot's `row`: the cohort's completion times go into the histogram
/// through one O(1) `record_n` (its sum is exact), tier tallies are
/// additive, and recorded decisions buffer into `batch` (flushed once
/// per slot by the caller), stamped with the slot start. Allocates
/// only when a completion time lands outside the histogram's stored
/// window, which grows at most `NUM_BUCKETS` times per run.
fn apply_out(
    report: &mut RunReport,
    row: &mut SlotRow,
    replay_decisions: bool,
    batch: &mut DecisionBatch,
    out: &DeviceSlotOut,
) {
    let a = match out {
        DeviceSlotOut::Churned => {
            report.record_churn_slot();
            return;
        }
        DeviceSlotOut::Active(a) => a,
    };
    if a.fault {
        report.record_fault_slot();
    }
    if replay_decisions {
        batch.record_decision(row.t.as_secs(), a.q, a.h);
    }
    report.record_degrade(&a.outcome);
    if a.arrivals > 0 {
        report.tct.record_n(a.per_task, a.arrivals);
        report.record_tier_counts(a.tier_counts);
        row.total += a.total;
        row.tasks += a.arrivals;
    }
    row.active += 1;
    row.q += a.q;
    row.h += a.h;
    row.x += a.outcome.x;
    report.record_service(a.arrivals, a.served);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControllerKind, ExitStrategy, ModelKind};

    fn scenario() -> Scenario {
        Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 5.0)
    }

    fn run(controller: ControllerKind, slots: usize, seed: u64) -> RunReport {
        let mut s = scenario();
        s.controller = controller;
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        s.run_slotted(&dep, slots, seed).unwrap()
    }

    #[test]
    fn produces_tasks_and_finite_tct() {
        let r = run(ControllerKind::Lyapunov, 100, 1);
        assert!(r.tasks() > 500, "tasks {}", r.tasks());
        assert!(r.mean_tct_s().is_finite() && r.mean_tct_s() > 0.0);
    }

    #[test]
    fn is_deterministic_per_seed() {
        let a = run(ControllerKind::Lyapunov, 50, 42);
        let b = run(ControllerKind::Lyapunov, 50, 42);
        assert_eq!(a.tasks(), b.tasks());
        assert!((a.mean_tct_s() - b.mean_tct_s()).abs() < 1e-15);
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 5, 6.0);
        s.controller = ControllerKind::Lyapunov;
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let mut seq_sys = SlottedSystem::new(s.clone(), dep.clone()).unwrap();
        let seq = seq_sys.run(60, 11).unwrap();
        let seq_bytes = serde_json::to_string(&seq).unwrap();
        for workers in [2usize, 3, 8] {
            let mut par_sys = SlottedSystem::new(s.clone(), dep.clone()).unwrap();
            let par = par_sys
                .run_with_workers(60, 11, NonZeroUsize::new(workers).unwrap())
                .unwrap();
            assert_eq!(
                seq_bytes,
                serde_json::to_string(&par).unwrap(),
                "workers = {workers} diverged from sequential"
            );
            // Post-run queue diagnostics must agree too.
            for (a, b) in seq_sys.queues().iter().zip(par_sys.queues()) {
                assert_eq!(a.q().to_bits(), b.q().to_bits());
                assert_eq!(a.h().to_bits(), b.h().to_bits());
            }
        }
    }

    #[test]
    fn epoch_length_never_changes_output_bytes() {
        // The barrier schedule is a pure scheduling choice: every epoch
        // length must reproduce the single-slot-epoch run byte for byte,
        // with and without extra workers.
        let s = Scenario::chaos_testbed(ModelKind::SqueezeNet, 5, 42, 60.0);
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let run_at = |workers: usize, epoch_len: usize| {
            let registry = Registry::new();
            let mut sys = SlottedSystem::new(s.clone(), dep.clone()).unwrap();
            sys.attach_registry(&registry, "epoch");
            let report = sys
                .run_with_workers_epochs(
                    90,
                    7,
                    NonZeroUsize::new(workers).unwrap(),
                    NonZeroUsize::new(epoch_len).unwrap(),
                )
                .unwrap();
            (
                serde_json::to_string(&report).unwrap(),
                serde_json::to_string(&registry.snapshot()).unwrap(),
            )
        };
        let (base_report, base_tel) = run_at(1, 1);
        for (workers, epoch_len) in [(1, 16), (2, 4), (4, 16), (3, 90), (2, 128)] {
            let (r, t) = run_at(workers, epoch_len);
            assert_eq!(base_report, r, "report diverged at {workers}x{epoch_len}");
            assert_eq!(base_tel, t, "telemetry diverged at {workers}x{epoch_len}");
        }
    }

    #[test]
    fn soa_shards_round_trip_per_device_state() {
        // The struct-of-arrays shard layout must hold exactly the state
        // the historical array-of-structs construction held: same queues,
        // fresh degrade ladders, the same per-device MMPPs and the same
        // worker-count-independent RNG streams, reassembling to the fleet
        // in device order at any worker count.
        let queues: Vec<QueuePair> = (0..7)
            .map(|i| {
                let mut q = QueuePair::new();
                q.step(i as f64, 0.5 * i as f64, 1.0, 0.25);
                q
            })
            .collect();
        let mmpp: Vec<Mmpp> = (0..7)
            .map(|i| Mmpp::new(1.0 + i as f64, 8.0, 0.1, 0.3, 50))
            .collect();
        for workers in [1usize, 2, 3, 7, 16] {
            let shards = build_shards(&queues, &mmpp, 99, false, workers);
            let mut device = 0usize;
            for sh in &shards {
                assert_eq!(sh.start, device, "shard start out of order");
                assert_eq!(sh.degrades, vec![DegradeState::new(); sh.len()]);
                for k in 0..sh.len() {
                    assert_eq!(sh.queues[k], queues[device]);
                    assert_eq!(sh.mmpp[k], mmpp[device]);
                    assert_eq!(
                        sh.rngs[k],
                        leime_par::stream_rng(99, device as u64),
                        "rng stream depends on shard layout"
                    );
                    device += 1;
                }
            }
            assert_eq!(device, queues.len(), "shards dropped devices");
        }
        // Workloads without MMPP state or faults shard to empty arrays,
        // not panics; with faults every device gets fresh lanes.
        assert!(build_shards(&queues, &[], 1, false, 3)
            .iter()
            .all(|s| s.mmpp.is_empty() && s.lanes.is_empty()));
        assert!(build_shards(&queues, &[], 1, true, 3)
            .iter()
            .all(|s| s.lanes == vec![DeviceLanes::default(); s.len()]));
    }

    /// A toy record naming its own device-slot: `(slot, i)`.
    type Toy = (usize, usize);

    /// Runs a toy stage on [`run_slot_loop`] over `n` devices: the loop's
    /// result (the final queue count) and every record the replay saw,
    /// each checked against the slot it was replayed under.
    fn toy_loop(
        n: usize,
        epochs: &[Range<usize>],
        workers: usize,
        step: impl Fn(&(), usize, DeviceRow<'_>) -> Result<Toy> + Sync,
    ) -> (Result<usize>, Vec<Toy>) {
        let mut seen = Vec::new();
        let replay = |slot: usize, outs: SlotRecords<'_, Toy>| {
            for &rec in outs {
                assert_eq!(rec.0, slot, "record under the wrong call");
                seen.push(rec);
            }
            Ok(())
        };
        let queues = vec![QueuePair::new(); n];
        let workers = NonZeroUsize::new(workers).unwrap();
        let lanes = run_slot_loop(
            (&queues, &[], 1, false),
            epochs,
            workers,
            |_| (),
            step,
            replay,
        );
        (lanes.map(|(queues, _)| queues.len()), seen)
    }

    #[test]
    fn slot_loop_replays_each_device_once_in_slot_system_device_order() {
        // Up to more workers than devices; 37 slots fit no epoch
        // exactly, and one epoch list is cut at uneven boundaries.
        let (n, slots) = (7usize, 37usize);
        let expected: Vec<Toy> = (0..slots)
            .flat_map(|slot| (0..n).map(move |i| (slot, i)))
            .collect();
        let clean = |_: &(), slot, row: DeviceRow<'_>| Ok((slot, row.i));
        // A step that advances its device's stream and the shard's
        // memo changes nothing the loop replays.
        let garbage = |_: &(), slot, row: DeviceRow<'_>| {
            row.rng.gen::<u64>();
            *row.memo = DecideMemo::default();
            Ok((slot, row.i))
        };
        // Devices 2 and 5 fail from slot 20 on: replay order puts 2
        // first, and so must every shard layout.
        let failing = |_: &(), slot, row: DeviceRow<'_>| match row.i {
            2 | 5 if slot >= 20 => Err(LeimeError::Config(format!("{}@{slot}", row.i))),
            _ => Ok((slot, row.i)),
        };
        let cut = [0..5, 5..7, 7..20, 20..21, 21..37];
        for workers in [1, 2, 3, 8] {
            for epoch_len in [1, 3, 16] {
                let epochs = leime_par::epoch_ranges(slots, epoch_len);
                for epochs in [&epochs[..], &cut[..]] {
                    let at = (workers, epochs.len());
                    for (lanes, seen) in [
                        toy_loop(n, epochs, workers, clean),
                        toy_loop(n, epochs, workers, garbage),
                    ] {
                        assert_eq!(lanes.unwrap(), n, "lanes at {at:?}");
                        assert_eq!(seen, expected, "replay order at {at:?}");
                    }
                    let (err, seen) = toy_loop(n, epochs, workers, failing);
                    assert_eq!(err, Err(LeimeError::Config("2@20".into())), "at {at:?}");
                    assert!(seen.iter().all(|&(slot, _)| slot < 20), "at {at:?}");
                }
            }
        }
    }

    #[test]
    fn hot_loop_fns_are_allocation_free_in_s6_baseline() {
        // The steady-state inner loop — one call per device per slot —
        // must stay at zero static allocation sites. The S6 ratchet
        // (leime-lint) counts them; this pins the baseline so a
        // regression fails here even before the lint gate runs.
        let baseline = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../lint/hot_alloc_baseline.json"
        ))
        .expect("S6 baseline missing");
        let json: serde_json::Value = serde_json::from_str(&baseline).unwrap();
        let fns = json["fns"].as_object().unwrap();
        for name in [
            "decide_device",
            "device_slot",
            "apply_out",
            "draw_arrivals",
            "tail_cost",
        ] {
            let key = format!("crates/core/src/slotted.rs::{name}");
            let count = fns
                .get(&key)
                .unwrap_or_else(|| panic!("{key} missing from S6 baseline"))["count"]
                .as_u64();
            assert_eq!(count, Some(0), "{key} gained allocation sites: {count:?}");
        }
    }

    #[test]
    fn parallel_chaos_run_matches_sequential_with_telemetry() {
        let s = Scenario::chaos_testbed(ModelKind::SqueezeNet, 5, 42, 60.0);
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let snapshot = |workers: usize| {
            let registry = Registry::new();
            let mut sys = SlottedSystem::new(s.clone(), dep.clone()).unwrap();
            sys.attach_registry(&registry, "par");
            let report = sys
                .run_with_workers(90, 7, NonZeroUsize::new(workers).unwrap())
                .unwrap();
            (
                serde_json::to_string(&report).unwrap(),
                serde_json::to_string(&registry.snapshot()).unwrap(),
            )
        };
        let (seq_report, seq_tel) = snapshot(1);
        for workers in [2usize, 4] {
            let (par_report, par_tel) = snapshot(workers);
            assert_eq!(seq_report, par_report, "report diverged at {workers}");
            assert_eq!(seq_tel, par_tel, "telemetry diverged at {workers}");
        }
    }

    #[test]
    fn tier_fractions_track_sigma() {
        let s = scenario();
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let r = s.run_slotted(&dep, 300, 3).unwrap();
        let frac = r.tiers().first_fraction();
        assert!(
            (frac - dep.sigma[0]).abs() < 0.05,
            "first-exit fraction {frac} vs sigma1 {}",
            dep.sigma[0]
        );
    }

    #[test]
    fn lyapunov_beats_device_only_under_load() {
        // A Pi fleet under heavy load: offloading must help.
        let mut s = scenario();
        for d in &mut s.devices {
            d.arrival_mean = 20.0;
        }
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        s.controller = ControllerKind::Lyapunov;
        let ly = s.run_slotted(&dep, 200, 5).unwrap();
        s.controller = ControllerKind::DeviceOnly;
        let dev = s.run_slotted(&dep, 200, 5).unwrap();
        assert!(
            ly.mean_tct_s() < dev.mean_tct_s(),
            "lyapunov {} >= device-only {}",
            ly.mean_tct_s(),
            dev.mean_tct_s()
        );
    }

    #[test]
    fn queues_stay_bounded_under_lyapunov() {
        let mut s = scenario();
        s.controller = ControllerKind::Lyapunov;
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let mut sys = SlottedSystem::new(s, dep).unwrap();
        sys.run(500, 7).unwrap();
        for qp in sys.queues() {
            assert!(qp.q() < 500.0, "device queue exploded: {}", qp.q());
            assert!(qp.h() < 500.0, "edge queue exploded: {}", qp.h());
        }
    }

    #[test]
    fn device_only_records_zero_offloading() {
        let r = run(ControllerKind::DeviceOnly, 50, 9);
        assert!(r.mean_offload_ratio().abs() < 1e-9);
    }

    #[test]
    fn edge_only_records_high_offloading() {
        let r = run(ControllerKind::EdgeOnly, 50, 9);
        assert!(r.mean_offload_ratio() > 0.5);
    }

    #[test]
    fn quiet_chaos_config_matches_fault_free_run() {
        let baseline = scenario();
        let dep = baseline.deploy(ExitStrategy::Leime).unwrap();
        let clean = baseline.run_slotted(&dep, 100, 11).unwrap();

        let mut quiet = scenario();
        quiet.chaos = Some(leime_chaos::ChaosConfig::quiet(99));
        let chaotic = quiet.run_slotted(&dep, 100, 11).unwrap();

        assert_eq!(clean.tasks(), chaotic.tasks());
        assert!((clean.mean_tct_s() - chaotic.mean_tct_s()).abs() < 1e-15);
        assert!(!chaotic.fault_stats().any());
        assert_eq!(
            chaotic.completion_rate().to_bits(),
            clean.completion_rate().to_bits()
        );
    }

    #[test]
    fn permanent_blackout_forces_first_exit_fallback() {
        let mut s = scenario();
        s.chaos = Some(leime_chaos::ChaosConfig {
            seed: 1,
            models: vec![leime_chaos::FaultModel::LinkFlaps {
                duty: 0.98,
                mean_outage_s: 20.0,
            }],
            window_s: None,
        });
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let r = s.run_slotted(&dep, 100, 11).unwrap();
        let f = r.fault_stats();
        assert!(f.fault_slots > 150, "fault slots {}", f.fault_slots);
        assert!(f.timeouts > 0 && f.fallbacks > 0);
        // Overwhelmingly local: the rare up-gap slots may still offload,
        // but nearly every task takes the First-exit on device.
        assert!(
            r.mean_offload_ratio() < 0.1,
            "offload ratio {}",
            r.mean_offload_ratio()
        );
        assert!(
            r.tiers().first_fraction() > 0.85,
            "first fraction {}",
            r.tiers().first_fraction()
        );
        assert!(r.tasks() > 0);
    }

    #[test]
    fn chaos_runs_are_deterministic_per_seed() {
        let s = Scenario::chaos_testbed(ModelKind::SqueezeNet, 2, 42, 60.0);
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let a = s.run_slotted(&dep, 120, 7).unwrap();
        let b = s.run_slotted(&dep, 120, 7).unwrap();
        assert_eq!(a.tasks(), b.tasks());
        assert_eq!(a.fault_stats(), b.fault_stats());
        assert!((a.mean_tct_s() - b.mean_tct_s()).abs() < 1e-15);
        assert!((a.completion_rate() - b.completion_rate()).abs() < 1e-15);
        // And the testbed actually injects faults plus recovers from them.
        assert!(a.fault_stats().fault_slots > 0);
        assert!(a.fault_stats().recoveries > 0);
    }

    #[test]
    fn registry_fault_counters_equal_the_report() {
        let s = Scenario::chaos_testbed(ModelKind::SqueezeNet, 4, 42, 60.0);
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        for workers in [1, 2] {
            let registry = Registry::new();
            let mut sys = SlottedSystem::new(s.clone(), dep.clone()).unwrap();
            sys.attach_registry(&registry, "chaos");
            let workers = NonZeroUsize::new(workers).unwrap();
            let report = sys.run_with_workers(120, 7, workers).unwrap();
            let f = report.fault_stats();
            assert!(f.fault_slots > 0 && f.timeouts > 0 && f.recoveries > 0);
            let snap = registry.snapshot();
            for (name, want) in [
                ("fault_slots", f.fault_slots),
                ("timeouts", f.timeouts),
                ("retries", f.retries),
                ("fallbacks", f.fallbacks),
                ("recoveries", f.recoveries),
            ] {
                let got = snap
                    .counters
                    .iter()
                    .find(|c| c.name == format!("chaos.ctrl.{name}"))
                    .map(|c| c.value);
                assert_eq!(got, Some(want), "{name} at {workers} workers");
            }
            // The TCT histogram is the report's, merged in once per run.
            let tct = snap.histograms.iter().find(|h| h.name == "chaos.tct_s");
            assert_eq!(tct.map(|h| &h.buckets), Some(&report.tct));
            assert_rows_are_the_views(&report, &snap, "chaos", 4, 120);
        }
    }

    /// One record, three views: the report's slot rows give its task
    /// count, its simulated device-slots and, bit for bit, every point
    /// of the registry's per-slot series under `prefix`.
    fn assert_rows_are_the_views(
        report: &RunReport,
        snap: &leime_telemetry::TelemetrySnapshot,
        prefix: &str,
        devices: usize,
        slots: usize,
    ) {
        let rows = &report.slots;
        assert_eq!(rows.len(), slots);
        let tasks: u64 = rows.iter().map(|r| r.tasks).sum();
        assert_eq!(tasks, report.tasks() as u64);
        assert_eq!(tasks, report.tiers().total());
        let active: u64 = rows.iter().map(|r| r.active).sum();
        let churned = report.fault_stats().churn_slots;
        assert_eq!(active, (devices * slots) as u64 - churned);
        let n = devices as f64;
        let mut want: [Vec<(f64, f64)>; 4] = Default::default();
        for r in rows {
            let t = r.t.as_secs();
            if r.tasks > 0 {
                want[0].push((t, r.total / r.tasks as f64));
            }
            want[1].push((t, r.q / n));
            want[2].push((t, r.h / n));
            want[3].push((t, r.x / n));
        }
        let names = ["tct_mean_s", "queue_q", "queue_h", "offload_x"];
        for (name, want) in names.into_iter().zip(want) {
            let name = format!("{prefix}.{name}");
            // `{:?}` prints an f64's shortest round-trip digits, so equal
            // text is equal bits.
            let got = snap.series.iter().find(|s| s.name == name);
            let got = got.map(|s| format!("{:?}", s.points));
            assert_eq!(got, Some(format!("{want:?}")), "{name}");
        }
    }

    #[test]
    fn churned_devices_generate_no_tasks() {
        let mut s = scenario();
        s.chaos = Some(leime_chaos::ChaosConfig {
            seed: 5,
            models: vec![leime_chaos::FaultModel::DeviceChurn {
                duty: 0.9,
                mean_absence_s: 30.0,
            }],
            window_s: None,
        });
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let churned = |workers: usize, registry: &Registry| {
            let mut sys = SlottedSystem::new(s.clone(), dep.clone()).unwrap();
            sys.attach_registry(registry, "churn");
            let workers = NonZeroUsize::new(workers).unwrap();
            sys.run_with_workers(60, 8, workers).unwrap()
        };
        let registry = Registry::new();
        let faulted = churned(1, &registry);
        assert_rows_are_the_views(&faulted, &registry.snapshot(), "churn", 2, 60);
        let clean = scenario().run_slotted(&dep, 60, 8).unwrap();
        assert!(faulted.fault_stats().churn_slots > 0);
        assert!(
            (faulted.tasks() as f64) < 0.5 * clean.tasks() as f64,
            "churn {} vs clean {}",
            faulted.tasks(),
            clean.tasks()
        );
        assert_eq!(
            serde_json::to_string(&faulted).unwrap(),
            serde_json::to_string(&churned(2, &Registry::new())).unwrap()
        );
    }

    #[test]
    fn queues_recover_after_fault_window_closes() {
        // Faults confined to the first 60 s of a 300-slot run: by the end
        // the backlog must have drained back to roughly the fault-free
        // steady state (≈19 per device at the testbed load).
        let s = Scenario::chaos_testbed(ModelKind::SqueezeNet, 3, 5, 60.0);
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let mut sys = SlottedSystem::new(s, dep).unwrap();
        sys.run(300, 13).unwrap();
        for qp in sys.queues() {
            let backlog = qp.q() + qp.h();
            leime_invariant::check_drained("slotted.recovery", backlog, 40.0);
            assert!(backlog < 40.0, "undrained backlog {backlog}");
        }
    }
}
