use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Arc;

use leime_chaos::{EdgeHealth, FaultSchedule, LinkHealth};
use leime_offload::{
    kkt_allocation_with_floor, ControllerTelemetry, DecisionBatch, DegradeMode, DegradeOutcome,
    DegradeState, DeviceParams, OffloadController, QueuePair, SharedParams, SlotCost,
    SlotObservation,
};
use leime_par::RoundsError;
use leime_simnet::SimTime;
use leime_telemetry::{Histogram, Registry, Series, VirtualClock};
use leime_workload::{Mmpp, SlotArrivals};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Deployment, LeimeError, Result, RunReport, Scenario, WorkloadKind};

/// Minimum edge share handed to any device with positive demand: every
/// device's second block runs on its share, so a zero share would starve
/// it (see `kkt_allocation_with_floor`). Public so runtimes layered on
/// this system (`leime-serving`) allocate shares identically.
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
/// (Figs. 2, 3, 10, 11); the task-level DES ([`crate::TaskSim`])
/// cross-validates it.
///
/// ## Determinism and parallelism (DESIGN.md §11, §14)
///
/// The solver is decentralized (each device solves Eq. 20 independently
/// per slot), so the per-slot device loop shards across workers via
/// [`SlottedSystem::run_with_workers`]. Every device owns an RNG stream
/// derived as `leime_par::stream_seed(seed, device_index)` — never a
/// shared generator — and all report/telemetry recording is replayed on
/// the driving thread in device order. Per-device state lives in
/// struct-of-arrays shards ([`ShardState`]), workers process whole
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
    controller: Box<dyn OffloadController>,
    /// Per-device bursty state machines (populated for `Bursty` workloads).
    mmpp: Vec<Mmpp>,
    telemetry: Option<SlotTelemetry>,
}

/// Recording handles for one slotted run (see
/// [`SlottedSystem::attach_registry`]).
#[derive(Debug, Clone)]
struct SlotTelemetry {
    clock: VirtualClock,
    tct: Arc<Histogram>,
    tct_mean: Arc<Series>,
    queue_q: Arc<Series>,
    queue_h: Arc<Series>,
    offload_x: Arc<Series>,
    /// Shares the controller's `{prefix}.ctrl.*` counters, so fault and
    /// degradation events land next to the per-decision series.
    ctrl: ControllerTelemetry,
}

/// One worker's slice of the fleet in struct-of-arrays layout: field `k`
/// of every array belongs to device `start + k`. The slot loop walks
/// each array sequentially (queue recursions, degradation ladders, RNG
/// draws), so splitting the state by field keeps each pass on a dense
/// homogeneous allocation instead of striding over one large struct per
/// device. One stream of randomness per device
/// (`stream_seed(seed, i)`), so shard layout never touches the draw
/// sequence.
#[derive(Debug, PartialEq)]
struct ShardState {
    start: usize,
    queues: Vec<QueuePair>,
    degrades: Vec<DegradeState>,
    /// Empty unless the workload is `Bursty` (then one entry per device).
    mmpp: Vec<Mmpp>,
    rngs: Vec<StdRng>,
    memo: DecideMemo,
}

impl ShardState {
    fn len(&self) -> usize {
        self.queues.len()
    }
}

/// Single-entry memo over the per-slot decision solve.
///
/// `OffloadController::decide` is required to be a pure function of
/// `(shared, device, obs)` — the same contract that lets the driver
/// replay decision telemetry. Purity means byte-identical inputs produce
/// byte-identical outputs, so when consecutive solves present the same
/// input bits (a homogeneous fleet whose queues drain every slot — the
/// paper's Pi-cluster experiments — presents them device after device
/// and slot after slot), the solver can be skipped outright. The key
/// covers every bit `decide` reads, compared via `to_bits` (so `-0.0`
/// and `0.0`, which could steer a solver differently, never alias). A
/// miss costs one 15-word compare; the memo changes no output at any
/// worker count or epoch length.
#[derive(Debug, Default, PartialEq)]
struct DecideMemo {
    key: Option<[u64; 15]>,
    x_opt: f64,
    /// Drift-plus-penalty at `x_opt` (same purity argument; only read
    /// when `want_dpp`, which is constant per run).
    dpp: f64,
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

/// Immutable per-run inputs shared (by reference) with every worker.
struct RunCtx<'a> {
    scenario: &'a Scenario,
    deployment: &'a Deployment,
    schedule: Option<&'a FaultSchedule>,
    decider: &'a dyn OffloadController,
    shared: SharedParams,
    /// Compute the drift-plus-penalty value at the optimum so the
    /// driver can replay the controller's decision telemetry.
    want_dpp: bool,
}

/// Fleet-level per-slot quantities the driving thread computes and
/// broadcasts (KKT shares are a global coupling — Eq. 27).
struct SlotQuants {
    means: Vec<f64>,
    shares: Vec<f64>,
}

/// The per-epoch broadcast: which slots this round covers and their
/// fleet-level quantities. For workloads whose arrival means are
/// constant across slots (everything except `RateTrace`), `per_slot`
/// stays empty and every slot reads the run-constant `base` — the KKT
/// solve is a pure function of the means, so computing it once is
/// bit-identical to recomputing it per slot.
struct EpochCtx<'a> {
    slots: Range<usize>,
    per_slot: Vec<SlotQuants>,
    base: &'a SlotQuants,
}

impl EpochCtx<'_> {
    fn quants(&self, rel_slot: usize) -> &SlotQuants {
        self.per_slot.get(rel_slot).unwrap_or(self.base)
    }
}

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
    obs: SlotObservation,
    /// The controller's optimum (what decision telemetry records).
    x_opt: f64,
    /// Drift-plus-penalty at `x_opt` (0 unless `want_dpp`).
    dpp: f64,
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
}

impl SlottedSystem {
    /// Builds the system for a scenario and a deployed ME-DNN.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LeimeError::Config`] for invalid scenarios.
    pub fn new(scenario: Scenario, deployment: Deployment) -> Result<Self> {
        scenario.validate()?;
        let controller = scenario.controller.build();
        let queues = vec![QueuePair::new(); scenario.devices.len()];
        let mmpp = build_mmpp(&scenario);
        Ok(SlottedSystem {
            scenario,
            deployment,
            queues,
            controller,
            mmpp,
            telemetry: None,
        })
    }

    /// Current queue states (exposed for stability diagnostics).
    pub fn queues(&self) -> &[QueuePair] {
        &self.queues
    }

    /// Injects per-device queue states (device order), replacing the
    /// fresh zero queues `new` builds. The fleet tier uses this to carry
    /// Eq. 10–11 backlog across rebalance intervals and cross-edge
    /// migrations — queue values move with their devices, bit-for-bit.
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
    /// * `{prefix}.tct_s` — histogram of per-task completion times,
    /// * `{prefix}.tct_mean_s`, `{prefix}.queue_q`, `{prefix}.queue_h`,
    ///   `{prefix}.offload_x` — per-slot series (fleet means), and
    /// * `{prefix}.ctrl.*` — per-decision controller state, for policies
    ///   that support [`OffloadController::attach_telemetry`].
    ///
    /// All series are stamped with simulated slot-start time. Recording
    /// happens on the driving thread in device order even under
    /// [`SlottedSystem::run_with_workers`], so snapshots stay
    /// byte-identical at every worker count.
    pub fn attach_registry(&mut self, registry: &Registry, prefix: &str) {
        let clock = VirtualClock::new();
        let ctrl = ControllerTelemetry::attach(registry, &format!("{prefix}.ctrl"), clock.clone());
        self.controller.attach_telemetry(ctrl.clone());
        self.telemetry = Some(SlotTelemetry {
            clock,
            ctrl,
            tct: registry.histogram(&format!("{prefix}.tct_s")),
            tct_mean: registry.series(&format!("{prefix}.tct_mean_s")),
            queue_q: registry.series(&format!("{prefix}.queue_q")),
            queue_h: registry.series(&format!("{prefix}.queue_h")),
            offload_x: registry.series(&format!("{prefix}.offload_x")),
        });
    }

    fn shared(&self) -> SharedParams {
        SharedParams {
            slot_len_s: self.scenario.slot_len_s,
            v: self.scenario.v,
            mu1: self.deployment.mu[0],
            mu2: self.deployment.mu[1],
            sigma1: self.deployment.sigma[0],
            d0_bytes: self.deployment.d[0],
            d1_bytes: self.deployment.d[1],
            edge_flops: self.scenario.edge_flops,
        }
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
    /// `epoch_len` slots.
    ///
    /// Per-slot fleet quantities (arrival means, KKT shares — Eq. 27)
    /// are computed on the driving thread and broadcast per epoch; each
    /// worker then solves its devices' per-slot problems (Eq. 20
    /// balance + cost evaluation) for the whole epoch against its own
    /// per-device state, and the driver replays every shard's
    /// recordings in slot then device order, flushing telemetry once
    /// per slot. The produced [`RunReport`] (and any attached
    /// telemetry) is byte-identical to the sequential run at the same
    /// seed, for every `workers` × `epoch_len` combination: fleet
    /// quantities depend only on the slot index (never on device
    /// state), so processing a device through an epoch of slots without
    /// interleaving other devices reproduces the sequential per-device
    /// state trajectory exactly.
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
        let mut report = RunReport::new();
        let n = self.scenario.devices.len();
        let telemetry = self.telemetry.clone();
        let horizon = SimTime::from_secs(slots as f64 * self.scenario.slot_len_s);
        let schedule: Option<FaultSchedule> =
            self.scenario.chaos.as_ref().map(|c| c.compile(n, horizon));
        let replay_decisions = self.controller.records_decisions();

        let flops = device_flops(&self.scenario);
        // What the controller knows from "historical statistics": the
        // stationary mean for bursty workloads, the configured mean
        // otherwise (rate traces override per slot, below).
        let base_quants = base_slot_quants(&self.scenario, &self.mmpp, &flops);
        let shards = build_shards(&self.queues, &self.mmpp, seed, workers.get());
        let epochs = leime_par::epoch_ranges(slots, epoch_len.get());

        // Decisions run on a telemetry-free controller so workers never
        // race on the registry; the driver replays decision telemetry
        // in device order. Sound because `decide` is required to be a
        // pure function of `(shared, device, obs)`.
        let decider = self.scenario.controller.build();
        let run_ctx = RunCtx {
            scenario: &self.scenario,
            deployment: &self.deployment,
            schedule: schedule.as_ref(),
            decider: decider.as_ref(),
            shared: self.shared(),
            want_dpp: replay_decisions && telemetry.is_some(),
        };

        let slot_len_s = self.scenario.slot_len_s;
        let make_ctx = |round: usize| {
            let slots = epochs[round].clone();
            let per_slot: Vec<SlotQuants> = match &run_ctx.scenario.workload {
                WorkloadKind::RateTrace { trace, .. } => slots
                    .clone()
                    .map(|slot| {
                        let slot_start = SimTime::from_secs(slot as f64 * slot_len_s);
                        let means = vec![trace.value_at(slot_start); n];
                        let shares = kkt_allocation_with_floor(
                            &flops,
                            &means,
                            run_ctx.scenario.edge_flops,
                            share_floor(n),
                        );
                        SlotQuants { means, shares }
                    })
                    .collect(),
                _ => Vec::new(),
            };
            EpochCtx {
                slots,
                per_slot,
                base: &base_quants,
            }
        };

        let work = |_shard: usize, _round: usize, ctx: &EpochCtx<'_>, sh: &mut ShardState| {
            let mut outs = Vec::with_capacity(ctx.slots.len() * sh.len());
            for (rel, slot) in ctx.slots.clone().enumerate() {
                let quants = ctx.quants(rel);
                let slot_start = SimTime::from_secs(slot as f64 * slot_len_s);
                for k in 0..sh.len() {
                    outs.push(device_slot(
                        &run_ctx,
                        quants,
                        slot_start,
                        slot as u64,
                        sh.start + k,
                        &mut sh.queues[k],
                        &mut sh.degrades[k],
                        sh.mmpp.get_mut(k),
                        &mut sh.rngs[k],
                        &mut sh.memo,
                    )?);
                }
            }
            Ok(outs)
        };

        // Driver-side replay buffer, reused across slots so steady-state
        // flushing allocates nothing.
        let mut batch = DecisionBatch::new();
        let apply = |round: usize, shard_outs: Vec<Result<Vec<DeviceSlotOut>>>| {
            let mut per_shard = Vec::with_capacity(shard_outs.len());
            for outs in shard_outs {
                per_shard.push(outs?);
            }
            let epoch = epochs[round].clone();
            let epoch_slots = epoch.len();
            for (rel, slot) in epoch.enumerate() {
                let slot_start = SimTime::from_secs(slot as f64 * slot_len_s);
                let t = slot_start.as_secs();
                if let Some(tel) = &telemetry {
                    tel.clock.advance_to(t);
                }
                let mut acc = SlotAccumulator::default();
                for outs in &per_shard {
                    let shard_len = outs.len() / epoch_slots;
                    for out in &outs[rel * shard_len..(rel + 1) * shard_len] {
                        apply_out(
                            &mut report,
                            telemetry.as_ref(),
                            replay_decisions,
                            slot_start,
                            &mut acc,
                            &mut batch,
                            out,
                        );
                    }
                }
                if let Some(tel) = &telemetry {
                    tel.ctrl.flush_batch(&mut batch);
                    if acc.tasks > 0 {
                        tel.tct_mean.push(t, acc.tct_sum / acc.tasks as f64);
                    }
                    tel.queue_q.push(t, acc.q_sum / n as f64);
                    tel.queue_h.push(t, acc.h_sum / n as f64);
                    tel.offload_x.push(t, acc.x_sum / n as f64);
                }
            }
            Ok(())
        };

        let finals = leime_par::run_rounds(shards, epochs.len(), make_ctx, work, apply).map_err(
            |e| match e {
                RoundsError::Par(p) => LeimeError::from(p),
                RoundsError::Apply(e) => e,
            },
        )?;

        // Hand the advanced per-device state back so repeated runs and
        // post-run diagnostics ([`SlottedSystem::queues`]) behave exactly
        // as the sequential implementation always did.
        for sh in finals {
            for (k, q) in sh.queues.iter().enumerate() {
                self.queues[sh.start + k] = *q;
            }
            let start = sh.start;
            for (k, m) in sh.mmpp.into_iter().enumerate() {
                if let Some(slot) = self.mmpp.get_mut(start + k) {
                    *slot = m;
                }
            }
        }
        Ok(report)
    }
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

/// The run-constant fleet quantities: per-device arrival means as the
/// controller's historical statistics know them, and the KKT shares they
/// induce. For every workload except `RateTrace` these are the per-slot
/// quantities of *every* slot (`kkt_allocation_with_floor` is a pure
/// function of its inputs, so one solve is bit-identical to one per
/// slot).
fn base_slot_quants(scenario: &Scenario, mmpp: &[Mmpp], flops: &[f64]) -> SlotQuants {
    let means: Vec<f64> = scenario
        .devices
        .iter()
        .enumerate()
        .map(|(i, d)| match &scenario.workload {
            WorkloadKind::Bursty { .. } => mmpp[i].stationary_mean(),
            _ => d.arrival_mean,
        })
        .collect();
    let shares =
        kkt_allocation_with_floor(flops, &means, scenario.edge_flops, share_floor(flops.len()));
    SlotQuants { means, shares }
}

/// Splits the fleet's per-device state into struct-of-arrays shards
/// under worker-count-independent RNG streams.
fn build_shards(queues: &[QueuePair], mmpp: &[Mmpp], seed: u64, workers: usize) -> Vec<ShardState> {
    let ranges = leime_par::partition(queues.len(), workers);
    let mut shards = Vec::with_capacity(ranges.len());
    for range in ranges {
        shards.push(ShardState {
            start: range.start,
            queues: queues[range.clone()].to_vec(),
            degrades: vec![DegradeState::new(); range.len()],
            mmpp: if mmpp.is_empty() {
                Vec::new()
            } else {
                mmpp[range.clone()].to_vec()
            },
            rngs: range
                .map(|i| StdRng::seed_from_u64(leime_par::stream_seed(seed, i as u64)))
                .collect(),
            memo: DecideMemo::default(),
        });
    }
    shards
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
fn tail_cost(run: &RunCtx<'_>, s: SharedParams, cost: &SlotCost, x: f64, tasks: f64) -> f64 {
    let dep = run.deployment;
    let survivors1 = (1.0 - dep.sigma[0]) * tasks;
    let survivors2 = (1.0 - dep.sigma[1]) * tasks;
    let mut tail = 0.0;
    if survivors1 > 0.0 && dep.mu[1] > 0.0 {
        let f_e2 = (cost.p_share * s.edge_flops - cost.edge_first_block_flops(x)).max(0.0);
        if f_e2 > 0.0 {
            tail += survivors1 * dep.mu[1] / f_e2;
        } else {
            // No edge capacity for the second block: fall back to the
            // whole share (pessimistic but finite).
            tail += survivors1 * dep.mu[1] / (cost.p_share * s.edge_flops).max(f64::EPSILON);
        }
    }
    if survivors2 > 0.0 {
        tail += survivors2
            * (dep.d[2] * 8.0 / run.scenario.cloud_bandwidth_bps
                + run.scenario.cloud_latency_s
                + dep.mu[2] / run.scenario.cloud_flops);
    }
    tail
}

/// Builds device `i`'s decision inputs for one slot under the given
/// link/edge health.
fn decision_inputs(
    run: &RunCtx<'_>,
    quants: &SlotQuants,
    slot_start: SimTime,
    i: usize,
    queue: &QueuePair,
    link: &LinkHealth,
    edge: &EdgeHealth,
) -> (SharedParams, DeviceParams, SlotObservation) {
    let dev = DeviceParams {
        arrival_mean: quants.means[i],
        bandwidth_bps: run.scenario.bandwidth_at(i, slot_start) * link.bandwidth_factor,
        latency_s: run.scenario.devices[i].latency_s + link.extra_latency_s,
        ..run.scenario.devices[i]
    };
    // Edge slowdown scales the server the whole fleet shares.
    let shared_i = SharedParams {
        edge_flops: run.shared.edge_flops * edge.speed_factor,
        ..run.shared
    };
    let obs = SlotObservation {
        q: queue.q(),
        h: queue.h(),
        p_share: quants.shares[i].clamp(0.0, 1.0),
    };
    (shared_i, dev, obs)
}

/// Simulates one device-slot — the decentralized per-device solve, the
/// degradation ladder, the arrival draw, the realized slot cost and the
/// queue recursion — touching nothing but this device's state (passed as
/// the shard's struct-of-arrays elements). Allocation-free (S6) and safe
/// to run concurrently across devices; all recording is deferred to
/// [`apply_out`] on the driving thread.
#[allow(clippy::too_many_arguments, reason = "one argument per SoA element")]
fn device_slot(
    run: &RunCtx<'_>,
    quants: &SlotQuants,
    slot_start: SimTime,
    t_slot: u64,
    i: usize,
    queue: &mut QueuePair,
    degrade: &mut DegradeState,
    mmpp: Option<&mut Mmpp>,
    rng: &mut StdRng,
    memo: &mut DecideMemo,
) -> Result<DeviceSlotOut> {
    let (link, edge, alive) = match run.schedule {
        Some(s) => (
            s.link_health(i, slot_start),
            s.edge_health(slot_start),
            s.device_alive(i, slot_start),
        ),
        None => (LinkHealth::NOMINAL, EdgeHealth::NOMINAL, true),
    };
    if !alive {
        // Churned out: the device is absent this slot — no arrivals, no
        // service, frozen queues (Eq. 10–11 with all rates zero).
        return Ok(DeviceSlotOut::Churned);
    }
    let fault = !link.is_nominal() || !edge.is_nominal();
    let (shared_i, dev, obs) = decision_inputs(run, quants, slot_start, i, queue, &link, &edge);
    let key = decide_key(&shared_i, &dev, &obs);
    let (x_opt, dpp) = if memo.key == Some(key) {
        (memo.x_opt, memo.dpp)
    } else {
        let x_opt = run.decider.decide(shared_i, dev, obs);
        let dpp = if run.want_dpp {
            SlotCost::new(shared_i, dev, obs.q, obs.h, obs.p_share)
                .eval()
                .drift_plus_penalty(x_opt)
        } else {
            0.0
        };
        *memo = DecideMemo {
            key: Some(key),
            x_opt,
            dpp,
        };
        (x_opt, dpp)
    };
    // The degradation ladder observes reachability (`link.up && edge.up`).
    let outcome = degrade.degraded_decide(&run.scenario.degrade, t_slot, link.up && edge.up, x_opt);
    let x = outcome.x;
    // Any non-Normal mode forces x = 0: the slot's tasks run fully
    // locally and take the First-exit on device.
    let degraded_local = degrade.mode() != DegradeMode::Normal;
    let arrivals = draw_arrivals(&run.scenario.workload, mmpp, dev.arrival_mean, rng);

    // Realized per-slot cost with the actual arrival count. The
    // precomputed evaluator returns the same bits as the SlotCost
    // methods (asserted in leime-offload) at a fraction of the work.
    let realized = DeviceParams {
        arrival_mean: arrivals as f64,
        ..dev
    };
    let cost = SlotCost::new(shared_i, realized, obs.q, obs.h, obs.p_share);
    let ev = cost.eval();
    let (per_task, total, tier_counts) = if arrivals > 0 {
        let first_block = ev.y(x);
        let tail = if degraded_local {
            0.0
        } else {
            tail_cost(run, shared_i, &cost, x, arrivals as f64)
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
    let edge_quota = if edge.up { ev.edge_quota(x) } else { 0.0 };
    queue.step(a, d_off, ev.device_quota(), edge_quota);
    let served = (obs.q + a - queue.q()) + (obs.h + d_off - queue.h());

    Ok(DeviceSlotOut::Active(ActiveOut {
        fault,
        obs,
        x_opt,
        dpp,
        outcome,
        arrivals,
        per_task,
        total,
        tier_counts,
        served,
    }))
}

/// Replays one device-slot's recordings, producing exactly the state the
/// historical per-task sequential loop produced: completion times replay
/// through the bit-identical `record_n`/`push_n` batch paths, tier
/// tallies are additive, and controller decision points buffer into
/// `batch` (flushed once per slot by the caller) with the timestamps the
/// per-decision clock reads would have carried.
fn apply_out(
    report: &mut RunReport,
    telemetry: Option<&SlotTelemetry>,
    replay_decisions: bool,
    slot_start: SimTime,
    acc: &mut SlotAccumulator,
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
        if telemetry.is_some() {
            batch.record_fault_slot();
        }
    }
    if replay_decisions && telemetry.is_some() {
        batch.record_decision(slot_start.as_secs(), &a.obs, a.x_opt, a.dpp);
    }
    let x = a.outcome.x;
    report.record_degrade(&a.outcome);
    if telemetry.is_some() {
        batch.record_degrade(&a.outcome);
    }
    if a.arrivals > 0 {
        report.record_tct_n(slot_start, a.per_task, a.arrivals);
        report.record_tier_counts(a.tier_counts);
        if let Some(tel) = telemetry {
            tel.tct.record_n(a.per_task, a.arrivals);
        }
        acc.tct_sum += a.total;
        acc.tasks += a.arrivals;
    }
    report.record_offload(x);
    report.record_queues(a.obs.q, a.obs.h);
    acc.q_sum += a.obs.q;
    acc.h_sum += a.obs.h;
    acc.x_sum += x;
    report.record_service(a.arrivals, a.served);
}

/// Fleet-wide sums over one slot, for the per-slot telemetry series.
#[derive(Debug, Default)]
struct SlotAccumulator {
    tct_sum: f64,
    tasks: u64,
    q_sum: f64,
    h_sum: f64,
    x_sum: f64,
}

// SlottedSystem holds a Box<dyn OffloadController> which is Send + Sync by
// the trait's supertraits, so the system itself moves across threads —
// exercised by the parallel experiment harness.
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
            let shards = build_shards(&queues, &mmpp, 99, workers);
            let mut device = 0usize;
            for sh in &shards {
                assert_eq!(sh.start, device, "shard start out of order");
                assert_eq!(sh.degrades, vec![DegradeState::new(); sh.len()]);
                for k in 0..sh.len() {
                    assert_eq!(sh.queues[k], queues[device]);
                    assert_eq!(sh.mmpp[k], mmpp[device]);
                    assert_eq!(
                        sh.rngs[k],
                        StdRng::seed_from_u64(leime_par::stream_seed(99, device as u64)),
                        "rng stream depends on shard layout"
                    );
                    device += 1;
                }
            }
            assert_eq!(device, queues.len(), "shards dropped devices");
        }
        // Workloads without MMPP state shard to empty arrays, not panics.
        assert!(build_shards(&queues, &[], 1, 3)
            .iter()
            .all(|s| s.mmpp.is_empty()));
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
        for name in ["device_slot", "apply_out", "draw_arrivals", "tail_cost"] {
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
        assert_eq!(chaotic.completion_rate(), clean.completion_rate());
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
