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
use leime_par::{Rng, StdRng};
use leime_simnet::SimTime;
use leime_telemetry::{Counter, Histogram, Registry, Series};
use leime_workload::{Mmpp, SlotArrivals};

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

/// Recording handles for one slotted run (see
/// [`SlottedSystem::attach_registry`]).
#[derive(Debug, Clone)]
struct SlotTelemetry {
    tct: Arc<Histogram>,
    tct_mean: Arc<Series>,
    queue_q: Arc<Series>,
    queue_h: Arc<Series>,
    offload_x: Arc<Series>,
    /// The `{prefix}.ctrl.*` decision series.
    ctrl: ControllerTelemetry,
    /// The `{prefix}.ctrl.*` fault counters, in [`FAULT_COUNTERS`] order.
    faults: [Arc<Counter>; 5],
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

/// One segment of a worker's shard in struct-of-arrays layout: field `k`
/// of every array belongs to device `start + k` of system `sys`. A
/// worker's shard holds one segment per system that its slice of the
/// systems' concatenated devices touches. The slot loop walks
/// each array sequentially (queue recursions, degradation ladders, RNG
/// draws), so splitting the state by field keeps each pass on a dense
/// homogeneous allocation instead of striding over one large struct per
/// device. One stream of randomness per device
/// (`stream_seed(seed, i)`), so shard layout never touches the draw
/// sequence.
#[derive(Debug, PartialEq)]
struct ShardState {
    sys: usize,
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

/// What [`decide_device`] reads besides the device's own state: the
/// scenario, its compiled fault schedule, the decision policy and the
/// slot's shared parameters.
#[derive(Clone, Copy)]
pub struct DecideCtx<'a> {
    /// The scenario (devices, links, degradation policy).
    pub scenario: &'a Scenario,
    /// The compiled chaos schedule, if the scenario injects faults.
    pub schedule: Option<&'a FaultSchedule>,
    /// The decision policy; `decide` must be pure (see [`DecideMemo`]).
    pub decider: &'a dyn OffloadController,
    /// Shared parameters before the edge's health scales them.
    pub shared: SharedParams,
    /// Compute the drift-plus-penalty value at the optimum so the
    /// driver can record the decision.
    pub want_dpp: bool,
}

/// Immutable per-system inputs of a run, shared (by reference) with
/// every worker.
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
    /// The controller's optimum.
    pub x_opt: f64,
    /// Drift-plus-penalty at `x_opt` (0 unless `want_dpp`).
    pub dpp: f64,
    /// The degradation ladder's outcome; `outcome.x` is the applied ratio.
    pub outcome: DegradeOutcome,
    /// The ladder is out of normal mode: the slot's tasks run fully
    /// locally and take the First-exit on device.
    pub degraded_local: bool,
}

/// One device's row of a shard segment, as a stage's per-device step
/// sees it: the device's own state plus the segment's decide memo.
#[derive(Debug)]
pub struct DeviceRow<'a> {
    /// The device's index within its system.
    pub i: usize,
    /// The device's Eq. 10–11 queue pair.
    pub queue: &'a mut QueuePair,
    /// The device's degradation ladder.
    pub degrade: &'a mut DegradeState,
    /// The device's bursty state machine (`Bursty` workloads only).
    pub mmpp: Option<&'a mut Mmpp>,
    /// The device's own RNG stream, `stream_rng(seed, i)`.
    pub rng: &'a mut StdRng,
    /// The segment's decide memo (see [`decide_device`]).
    pub memo: &'a mut DecideMemo,
}

/// One system's records for one slot, in device order, each with the
/// bytes its step appended to the tape.
pub struct SlotRecords<'a, O> {
    /// The system's `(shard, offset, len)` pieces not yet started.
    pieces: std::slice::Iter<'a, (usize, usize, usize)>,
    shards: &'a [ShardOuts<O>],
    blocks: &'a [usize],
    /// The slot's index within the epoch.
    rel: usize,
    /// The piece being read: its shard's records and the indices left.
    cur: Option<(&'a ShardOuts<O>, Range<usize>)>,
}

impl<'a, O> Iterator for SlotRecords<'a, O> {
    type Item = (&'a O, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((sh, ks)) = &mut self.cur {
                if let Some(k) = ks.next() {
                    let sh: &'a ShardOuts<O> = sh;
                    return Some((&sh.outs[k], &sh.tape[sh.ends[k]..sh.ends[k + 1]]));
                }
            }
            let &(shard, offset, len) = self.pieces.next()?;
            let from = self.rel * self.blocks[shard] + offset;
            self.cur = Some((&self.shards[shard], from..from + len));
        }
    }
}

/// One shard's records for one epoch, in storage order (slot, segment,
/// device); record `k` appended `tape[ends[k]..ends[k + 1]]`.
struct ShardOuts<O> {
    outs: Vec<O>,
    tape: Vec<u8>,
    ends: Vec<usize>,
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
    ///   `{prefix}.offload_x` — per-slot series (fleet means),
    /// * `{prefix}.ctrl.*` — per-decision controller state, for policies
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
        self.telemetry = Some(SlotTelemetry {
            ctrl: ControllerTelemetry::attach(registry, &format!("{prefix}.ctrl")),
            faults: FAULT_COUNTERS.map(|(k, _)| registry.counter(&format!("{prefix}.ctrl.{k}"))),
            tct: registry.histogram(&format!("{prefix}.tct_s")),
            tct_mean: registry.series(&format!("{prefix}.tct_mean_s")),
            queue_q: registry.series(&format!("{prefix}.queue_q")),
            queue_h: registry.series(&format!("{prefix}.queue_h")),
            offload_x: registry.series(&format!("{prefix}.offload_x")),
        });
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
    /// `epoch_len` slots: the one-system case of
    /// [`SlottedSystem::run_many`]. The [`RunReport`] (and any attached
    /// telemetry) is byte-identical for every `workers` × `epoch_len`
    /// combination ([`run_slot_loop`]).
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
        let mut reports = Self::run_many(
            std::slice::from_mut(self),
            &[seed],
            slots,
            workers,
            epoch_len,
        )?;
        reports
            .pop()
            .ok_or_else(|| LeimeError::Config("one-system run produced no report".into()))
    }

    /// Runs `slots` time slots of several systems as one sharded slot
    /// loop, `systems[k]` under `seeds[k]`, returning one report per
    /// system in order.
    ///
    /// The slotted stage on [`run_slot_loop`]: per-slot fleet quantities
    /// (arrival means, KKT shares — Eq. 27) on the driver, the per-device
    /// step `device_slot` on the workers, and the replay into each
    /// system's report and telemetry. Each report is byte-identical to
    /// running its system alone at the same seed — as are the final
    /// queues and, when the systems record under disjoint registry names,
    /// the telemetry — at every `workers` × `epoch_len` combination.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LeimeError::Config`] when `seeds` does not match
    /// `systems` or for inconsistent tier sampling, and
    /// [`crate::LeimeError::Parallel`] if a worker shard fails.
    pub fn run_many(
        systems: &mut [SlottedSystem],
        seeds: &[u64],
        slots: usize,
        workers: NonZeroUsize,
        epoch_len: NonZeroUsize,
    ) -> Result<Vec<RunReport>> {
        if seeds.len() != systems.len() {
            return Err(LeimeError::Config(format!(
                "{} seeds for {} systems",
                seeds.len(),
                systems.len()
            )));
        }
        let schedules: Vec<Option<FaultSchedule>> = systems
            .iter()
            .map(|s| {
                let horizon = SimTime::from_secs(slots as f64 * s.scenario.slot_len_s);
                let n = s.scenario.devices.len();
                s.scenario.chaos.as_ref().map(|c| c.compile(n, horizon))
            })
            .collect();
        // Workers decide; the driver records decision telemetry in
        // device order.
        let deciders: Vec<Box<dyn OffloadController>> = systems
            .iter()
            .map(|s| s.scenario.controller.build())
            .collect();
        let flops: Vec<Vec<f64>> = systems.iter().map(|s| device_flops(&s.scenario)).collect();
        // What the controller knows from "historical statistics": the
        // stationary mean for bursty workloads, the configured mean
        // otherwise (rate traces override per slot, below).
        let bases: Vec<SlotQuants> = systems
            .iter()
            .zip(&flops)
            .map(|(s, flops)| base_slot_quants(&s.scenario, &s.mmpp, flops))
            .collect();
        let runs: Vec<RunCtx<'_>> = systems
            .iter()
            .zip(schedules.iter().zip(&deciders))
            .map(|(s, (schedule, decider))| RunCtx {
                decide: DecideCtx {
                    scenario: &s.scenario,
                    schedule: schedule.as_ref(),
                    decider: decider.as_ref(),
                    shared: s.scenario.shared_params(&s.deployment),
                    want_dpp: decider.records_decisions() && s.telemetry.is_some(),
                },
                deployment: &s.deployment,
            })
            .collect();

        // The slot's start and, for rate traces, its own quantities:
        // every other workload's means are run-constant, so its slots
        // read `bases` (the KKT solve is a pure function of the means).
        let broadcast = |sys: usize, slot: usize| {
            let scenario = runs[sys].decide.scenario;
            let start = SimTime::from_secs(slot as f64 * scenario.slot_len_s);
            let quants = match &scenario.workload {
                WorkloadKind::RateTrace { trace, .. } => {
                    let means = vec![trace.value_at(start); flops[sys].len()];
                    Some(SlotQuants::new(&flops[sys], means, scenario.edge_flops))
                }
                _ => None,
            };
            (start, quants)
        };

        let step = |sys: usize,
                    (start, quants): &(SimTime, Option<SlotQuants>),
                    slot: usize,
                    row: DeviceRow<'_>,
                    _: &mut Vec<u8>| {
            let quants = quants.as_ref().unwrap_or(&bases[sys]);
            device_slot(&runs[sys], quants, *start, slot as u64, row)
        };

        // Driver-side replay buffer, reused across slots so steady-state
        // flushing allocates nothing.
        let mut batch = DecisionBatch::new();
        let mut reports: Vec<RunReport> = systems.iter().map(|_| RunReport::new()).collect();
        let replay = |sys: usize, slot: usize, outs: SlotRecords<'_, DeviceSlotOut>| {
            let run = &runs[sys];
            let scenario = run.decide.scenario;
            let slot_start = SimTime::from_secs(slot as f64 * scenario.slot_len_s);
            let t = slot_start.as_secs();
            let tel = systems[sys].telemetry.as_ref();
            let mut acc = SlotAccumulator::default();
            for (out, _) in outs {
                apply_out(
                    &mut reports[sys],
                    tel,
                    run.decide.want_dpp,
                    slot_start,
                    &mut acc,
                    &mut batch,
                    out,
                );
            }
            if let Some(tel) = tel {
                let n = scenario.devices.len() as f64;
                tel.ctrl.flush_batch(&mut batch);
                if acc.tasks > 0 {
                    tel.tct_mean.push(t, acc.tct_sum / acc.tasks as f64);
                }
                tel.queue_q.push(t, acc.q_sum / n);
                tel.queue_h.push(t, acc.h_sum / n);
                tel.offload_x.push(t, acc.x_sum / n);
            }
            Ok(())
        };

        let starts: Vec<_> = systems
            .iter()
            .zip(seeds)
            .map(|(s, &seed)| (&s.queues[..], &s.mmpp[..], seed))
            .collect();
        let finals = run_slot_loop(&starts, slots, workers, epoch_len, broadcast, step, replay)?;
        // Hand the advanced per-device state back so repeated runs and
        // post-run diagnostics ([`SlottedSystem::queues`]) behave exactly
        // as the sequential implementation always did. The fault
        // counters are totals, so they take the report's.
        for ((system, (queues, mmpp)), report) in systems.iter_mut().zip(finals).zip(&reports) {
            system.queues = queues;
            system.mmpp = mmpp;
            if let Some(tel) = &system.telemetry {
                let f = report.fault_stats();
                for (counter, (_, total)) in tel.faults.iter().zip(FAULT_COUNTERS) {
                    counter.add(total(&f));
                }
            }
        }
        Ok(reports)
    }
}

/// The sharded slot loop every slotted system, fleet edge and serving
/// run goes through (DESIGN.md §14): `slots` slots of several systems,
/// system `k` starting from `systems[k] = (queues, mmpp, seed)`, in one
/// `leime_par::run_rounds` call over the system-major concatenation of
/// all systems' devices, partitioned across up to `workers` threads and
/// synchronised once per `epoch_len` slots.
///
/// A *stage* supplies what differs between systems:
///
/// * `broadcast(sys, slot)` — the driver-side per-slot context, called
///   once per system and slot, in slot then system order (so it may
///   draw from a driver-owned stream);
/// * `step(sys, ctx, slot, row, tape)` — one device-slot on a worker,
///   touching only that device's row; it may append variable-length
///   detail to `tape`, which the replay reads back next to its record;
/// * `replay(sys, slot, outs)` — the driver-side recording of one
///   system's slot, with its records in device order.
///
/// An epoch's broadcasts are built before its steps run, so they must
/// depend on the slot alone, never on device state. Each device then
/// runs its epoch on its own row, drawing from `stream_rng(seeds[k], i)`,
/// and replay goes slot by slot, system by system, in device order: the
/// sequence a sequential loop produces. The replayed records and the
/// returned final `(queues, mmpp)` of each system are therefore
/// byte-identical for every `workers` × `epoch_len` combination.
///
/// # Errors
///
/// Propagates the first `step` or `replay` error, and returns
/// [`crate::LeimeError::Parallel`] if a worker shard fails (a caught
/// panic surfaces as a typed error, never a hang).
pub fn run_slot_loop<B, O>(
    systems: &[(&[QueuePair], &[Mmpp], u64)],
    slots: usize,
    workers: NonZeroUsize,
    epoch_len: NonZeroUsize,
    mut broadcast: impl FnMut(usize, usize) -> B,
    step: impl Fn(usize, &B, usize, DeviceRow<'_>, &mut Vec<u8>) -> Result<O> + Sync,
    mut replay: impl FnMut(usize, usize, SlotRecords<'_, O>) -> Result<()>,
) -> Result<Vec<(Vec<QueuePair>, Vec<Mmpp>)>>
where
    B: Send + Sync,
    O: Send,
{
    let n_sys = systems.len();
    let epochs = leime_par::epoch_ranges(slots, epoch_len.get());
    let shards = build_shards(systems, workers.get());
    // Where each system's devices sit in the shard outputs: per shard,
    // one epoch slot's block of outputs holds its segments back to back.
    let mut pieces: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); n_sys];
    let mut blocks = Vec::with_capacity(shards.len());
    for (shard, segs) in shards.iter().enumerate() {
        let mut offset = 0;
        for seg in segs {
            pieces[seg.sys].push((shard, offset, seg.len()));
            offset += seg.len();
        }
        blocks.push(offset);
    }

    // Each round's context: its slots and the stage's per-slot
    // broadcasts, slot-major (`per_slot[rel * n_sys + sys]`).
    let make_ctx = |round: usize| {
        let slots = epochs[round].clone();
        let mut per_slot = Vec::with_capacity(slots.len() * n_sys);
        for slot in slots.clone() {
            for sys in 0..n_sys {
                per_slot.push(broadcast(sys, slot));
            }
        }
        (slots, per_slot)
    };

    let work = |_: usize,
                _: usize,
                (slots, per_slot): &(Range<usize>, Vec<B>),
                segs: &mut Vec<ShardState>| {
        let records = slots.len() * segs.iter().map(ShardState::len).sum::<usize>();
        let mut outs = ShardOuts {
            outs: Vec::with_capacity(records),
            tape: Vec::new(),
            ends: Vec::with_capacity(records + 1),
        };
        outs.ends.push(0);
        for (rel, slot) in slots.clone().enumerate() {
            for sh in segs.iter_mut() {
                let b = &per_slot[rel * n_sys + sh.sys];
                for k in 0..sh.len() {
                    let row = DeviceRow {
                        i: sh.start + k,
                        queue: &mut sh.queues[k],
                        degrade: &mut sh.degrades[k],
                        mmpp: sh.mmpp.get_mut(k),
                        rng: &mut sh.rngs[k],
                        memo: &mut sh.memo,
                    };
                    outs.outs.push(step(sh.sys, b, slot, row, &mut outs.tape)?);
                    outs.ends.push(outs.tape.len());
                }
            }
        }
        Ok(outs)
    };

    let apply = |round: usize, shard_outs: Vec<Result<ShardOuts<O>>>| {
        let mut per_shard = Vec::with_capacity(shard_outs.len());
        for outs in shard_outs {
            per_shard.push(outs?);
        }
        for (rel, slot) in epochs[round].clone().enumerate() {
            for (sys, pieces) in pieces.iter().enumerate() {
                let outs = SlotRecords {
                    pieces: pieces.iter(),
                    shards: &per_shard,
                    blocks: &blocks,
                    rel,
                    cur: None,
                };
                replay(sys, slot, outs)?;
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
    // Reassemble each system's state in device order: shards run in
    // device order, and each holds at most one segment per system.
    let mut lanes: Vec<(Vec<QueuePair>, Vec<Mmpp>)> =
        systems.iter().map(|_| Default::default()).collect();
    for sh in finals.into_iter().flatten() {
        let (queues, mmpp) = &mut lanes[sh.sys];
        queues.extend(sh.queues);
        mmpp.extend(sh.mmpp);
    }
    Ok(lanes)
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
    SlotQuants::new(flops, means, scenario.edge_flops)
}

/// Splits the systems' per-device state — `(queues, mmpp, seed)` per
/// system — into struct-of-arrays shards: `leime_par::partition` over
/// the system-major concatenation of all devices, each shard one
/// segment per system it covers. Device `i` of a system draws from
/// `stream_seed(seed, i)`, so neither shard layout nor the other
/// systems touch its draw sequence.
fn build_shards(systems: &[(&[QueuePair], &[Mmpp], u64)], workers: usize) -> Vec<Vec<ShardState>> {
    let total = systems.iter().map(|(queues, _, _)| queues.len()).sum();
    let ranges = leime_par::partition(total, workers);
    let mut shards = Vec::with_capacity(ranges.len());
    for range in ranges {
        let mut segs = Vec::new();
        // Global index of the next system's device 0.
        let mut next = 0;
        for (sys, &(queues, mmpp, seed)) in systems.iter().enumerate() {
            let first = next;
            next += queues.len();
            let (lo, hi) = (range.start.max(first), range.end.min(next));
            if lo >= hi {
                continue;
            }
            let local = lo - first..hi - first;
            segs.push(ShardState {
                sys,
                start: local.start,
                queues: queues[local.clone()].to_vec(),
                degrades: vec![DegradeState::new(); local.len()],
                mmpp: if mmpp.is_empty() {
                    Vec::new()
                } else {
                    mmpp[local.clone()].to_vec()
                },
                rngs: local
                    .map(|i| leime_par::stream_rng(seed, i as u64))
                    .collect(),
                memo: DecideMemo::default(),
            });
        }
        shards.push(segs);
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
/// chaos health and churn lookup, the decision inputs, the memoised
/// Eq. 20 solve and the degradation ladder. `None` when the device is
/// churned out (absent this slot: no arrivals, no service, frozen
/// queues). Shared by the slotted system and the serving runtime;
/// allocation-free (S6).
#[inline]
pub fn decide_device(
    ctx: &DecideCtx<'_>,
    quants: &SlotQuants,
    slot: u64,
    slot_start: SimTime,
    row: &mut DeviceRow<'_>,
) -> Option<DeviceDecision> {
    let (i, memo) = (row.i, &mut *row.memo);
    let (link, edge, alive) = match ctx.schedule {
        Some(s) => (
            s.link_health(i, slot_start),
            s.edge_health(slot_start),
            s.device_alive(i, slot_start),
        ),
        None => (LinkHealth::NOMINAL, EdgeHealth::NOMINAL, true),
    };
    if !alive {
        return None;
    }
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
    let (x_opt, dpp) = if memo.key == Some(key) {
        (memo.x_opt, memo.dpp)
    } else {
        let x_opt = ctx.decider.decide(shared, device, obs);
        let dpp = if ctx.want_dpp {
            SlotCost::new(shared, device, obs.q, obs.h, obs.p_share)
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
    let outcome = row
        .degrade
        .degraded_decide(&scenario.degrade, slot, link.up && edge.up, x_opt);
    Some(DeviceDecision {
        shared,
        device,
        obs,
        fault: !link.is_nominal() || !edge.is_nominal(),
        edge_up: edge.up,
        x_opt,
        dpp,
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
    slot_start: SimTime,
    t_slot: u64,
    mut row: DeviceRow<'_>,
) -> Result<DeviceSlotOut> {
    let Some(d) = decide_device(&run.decide, quants, t_slot, slot_start, &mut row) else {
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

    // Realized per-slot cost with the actual arrival count. The
    // precomputed evaluator returns the same bits as the SlotCost
    // methods (asserted in leime-offload) at a fraction of the work.
    let realized = DeviceParams {
        arrival_mean: arrivals as f64,
        ..d.device
    };
    let cost = SlotCost::new(d.shared, realized, obs.q, obs.h, obs.p_share);
    let ev = cost.eval();
    let (per_task, total, tier_counts) = if arrivals > 0 {
        let first_block = ev.y(x);
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
    let edge_quota = if d.edge_up { ev.edge_quota(x) } else { 0.0 };
    queue.step(a, d_off, ev.device_quota(), edge_quota);
    let served = (obs.q + a - queue.q()) + (obs.h + d_off - queue.h());

    Ok(DeviceSlotOut::Active(ActiveOut {
        fault: d.fault,
        obs,
        x_opt: d.x_opt,
        dpp: d.dpp,
        outcome: d.outcome,
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
/// tallies are additive, and recorded decisions buffer into `batch`
/// (flushed once per slot by the caller), stamped with the slot start.
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
    }
    if replay_decisions {
        batch.record_decision(slot_start.as_secs(), &a.obs, a.x_opt, a.dpp);
    }
    let x = a.outcome.x;
    report.record_degrade(&a.outcome);
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
            let shards = build_shards(&[(&queues, &mmpp, 99)], workers);
            let mut device = 0usize;
            for sh in shards.iter().flatten() {
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
        // Workloads without MMPP state shard to empty arrays, not panics.
        assert!(build_shards(&[(&queues, &[], 1)], 3)
            .iter()
            .flatten()
            .all(|s| s.mmpp.is_empty()));

        // Several systems: shards cut the system-major concatenation,
        // segments keep system-local indices and each system's own
        // streams, and every shard's segments run in system order.
        let (a, b) = (&queues[..3], &queues[3..]);
        for workers in [1usize, 2, 3, 4, 7] {
            let shards = build_shards(&[(a, &[], 5), (b, &[], 6)], workers);
            assert_eq!(shards.len(), workers.min(queues.len()));
            let mut seen = Vec::new();
            for sh in shards.iter().flatten() {
                let (sys_queues, seed) = if sh.sys == 0 { (a, 5) } else { (b, 6) };
                for k in 0..sh.len() {
                    let i = sh.start + k;
                    assert_eq!(sh.queues[k], sys_queues[i]);
                    assert_eq!(sh.rngs[k], leime_par::stream_rng(seed, i as u64));
                    seen.push((sh.sys, i));
                }
            }
            let expected: Vec<(usize, usize)> = (0..3)
                .map(|i| (0, i))
                .chain((0..4).map(|i| (1, i)))
                .collect();
            assert_eq!(seen, expected, "segments out of order at {workers} workers");
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
        }
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
