//! The serving runtime: an online request front-end layered on the
//! paper's slotted queueing machinery.
//!
//! Each slot, deterministic traffic generators offer requests per
//! device; the admission controller sheds what would break the
//! Eq. 10–11 stability bounds (best-effort first); admitted requests
//! run under their class's exit setting with the scenario's offload
//! controller (Lyapunov by default) steering the device/edge split.
//! Every admitted request of one class that exits at one tier in a
//! device-slot completes at the same Eq. 12–14 price, so each device-slot
//! is judged against the per-class deadlines in at most nine (class,
//! tier) cells.
//! A run is a stage on the slotted system's own sharded slot loop
//! ([`leime::run_slot_loop`]), and its per-device decision (chaos
//! lookup, memoised solve, degradation ladder) is the slotted system's
//! [`leime::decide_device`].
//!
//! ## Accounting (DESIGN.md §12)
//!
//! The queue recursions are stepped in *plan-task equivalents* of the
//! standard-class deployment: a class-`c` request counts as
//! `μ₁_c / μ₁_std` tasks, so one pair of Eq. 10–11 queues per device
//! carries all three classes and the stability analysis stays the
//! paper's. Hard-sample floods collapse the effective first-exit rate
//! (`σ₁ · (1 − hard_fraction)`) the controller observes, so the
//! Lyapunov policy reacts to adversarial traffic exactly as it would to
//! a harder dataset.
//!
//! ## Determinism
//!
//! Each device draws from its own stream (`stream_seed(seed, i)`) on
//! the loop's workers, which fold every count and class histogram into
//! per-shard partials (exact, so any merge order gives the same bytes);
//! the driver draws the per-slot rate factor from one reserved
//! fleet-level traffic stream ([`crate::TRAFFIC_STREAM`]), merges the
//! partials and replays the float sums (offloading ratio, per-slot
//! queue and ratio means) in slot then device order. Runs at a seed are
//! byte-identical, at any worker count and epoch length (asserted here
//! and by the tier-2 `integration_serving` suite).

use std::num::NonZeroUsize;
use std::sync::Arc;

use leime_chaos::{ChaosConfig, EdgeChaos, FaultModel, SharedHealth};
use leime_offload::{QueuePair, SharedParams};
use leime_par::StdRng;
use leime_simnet::SimTime;
use leime_telemetry::{Buckets, Registry};
use leime_workload::{poisson_draw, Binomial};

use leime::{
    decide_device, run_slot_loop, DecideCtx, DeviceRow, LeimeError, ModelKind, Scenario,
    SlotQuants, DEFAULT_EPOCH_LEN,
};

use crate::{
    admit, steer_exits, AdmissionPolicy, ClassPlan, ClassStats, ServingReport, SlaClass, SlaPolicy,
    SteerPolicy, TrafficConfig, TrafficModel, TRAFFIC_STREAM,
};

/// Everything the serving runtime adds on top of a [`Scenario`].
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServingConfig {
    /// The offered-load generator.
    pub traffic: TrafficConfig,
    /// SLA classes: deadlines and the arrival mix.
    pub sla: SlaPolicy,
    /// The admission controller.
    pub admission: AdmissionPolicy,
    /// Per-class exit steering.
    pub steer: SteerPolicy,
}

impl ServingConfig {
    /// Sanity-checks every sub-policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.traffic
            .validate()
            .map_err(|e| format!("traffic: {e}"))?;
        self.sla.validate().map_err(|e| format!("sla: {e}"))?;
        self.admission
            .validate()
            .map_err(|e| format!("admission: {e}"))?;
        self.steer.validate().map_err(|e| format!("steer: {e}"))
    }
}

/// The registry and metric names one serving run records into (see
/// [`ServingSystem::attach_registry`]).
#[derive(Debug, Clone)]
struct ServingTelemetry {
    registry: Registry,
    /// Per-class completion-time histograms, `{prefix}.tct_s.{class}`.
    tct: [String; 3],
    /// Per-class `offered`, `admitted`, `shed` and `deadline_hits`.
    counts: [[String; 3]; 4],
    /// `queue_q`, `queue_h` and `offload_x`.
    means: [String; 3],
}

/// The online serving runtime.
#[derive(Debug)]
pub struct ServingSystem {
    scenario: Scenario,
    config: ServingConfig,
    plan: ClassPlan,
    telemetry: Option<ServingTelemetry>,
}

impl ServingSystem {
    /// Builds the runtime: validates the scenario and config, then runs
    /// the per-class exit setting ([`steer_exits`]).
    ///
    /// # Errors
    ///
    /// Returns [`LeimeError::Config`] for invalid scenarios or serving
    /// configs, and propagates exit-search errors.
    pub fn new(scenario: Scenario, config: ServingConfig) -> leime::Result<Self> {
        scenario.validate()?;
        let invalid =
            |e: &dyn std::fmt::Display| LeimeError::Config(format!("serving config: {e}"));
        config.validate().map_err(|e| invalid(&e))?;
        // A sub-slot cycle only aliases at the slot grid, and the bound
        // keeps `t_s / period_s` within the slot count (a 1e-308 s period
        // overflows it into `cos(∞)`).
        if let TrafficModel::Diurnal { period_s, .. } = config.traffic.model {
            if period_s < scenario.slot_len_s {
                return Err(invalid(&format_args!(
                    "diurnal period {period_s} s is shorter than the {} s slot",
                    scenario.slot_len_s
                )));
            }
        }
        // Every slot's offered means must stay finite (they feed the
        // Eq. 27 shares and the Poisson draws).
        let busiest = scenario
            .devices
            .iter()
            .fold(0.0, |m: f64, d| m.max(d.arrival_mean));
        let peak_rate = config.traffic.max_rate_factor();
        if !(busiest * peak_rate).is_finite() {
            return Err(invalid(&format_args!(
                "peak offered rate {busiest} × {peak_rate} per slot overflows"
            )));
        }
        let plan = steer_exits(&scenario, &config.steer)?;
        Ok(ServingSystem {
            scenario,
            config,
            plan,
            telemetry: None,
        })
    }

    /// The per-class exit settings the runtime serves under.
    pub fn plan(&self) -> &ClassPlan {
        &self.plan
    }

    /// What every device-slot of a run shares, derived once per run
    /// from the plan and the config.
    fn run_consts(&self) -> RunConsts {
        let (plan, scenario, traffic) = (&self.plan, &self.scenario, &self.config.traffic);
        let std_mu1 = plan.standard().mu[0].max(f64::EPSILON);
        RunConsts {
            weights: SlaClass::ALL.map(|c| plan.for_class(c).mu[0] / std_mu1),
            deadlines: SlaClass::ALL.map(|c| self.config.sla.deadline_for(c)),
            mix: Trinomial::new(self.config.sla.mix),
            exits: SlaClass::ALL.map(|c| {
                let sigma = plan.for_class(c).sigma;
                Trinomial::new([sigma[0], sigma[1] - sigma[0], 1.0 - sigma[1]])
            }),
            cloud_legs: SlaClass::ALL.map(|c| {
                let plan_c = plan.for_class(c);
                plan_c.d[2] * 8.0 / scenario.cloud_bandwidth_bps
                    + scenario.cloud_latency_s
                    + plan_c.mu[2] / scenario.cloud_flops
            }),
            hard: Binomial::new(traffic.base_hard_fraction),
            flood_hard: match traffic.model {
                TrafficModel::HardFlood { hard_fraction, .. } => Some(Binomial::new(hard_fraction)),
                _ => None,
            },
        }
    }

    /// Attaches a telemetry registry: subsequent runs record, under
    /// `prefix`,
    ///
    /// * `{prefix}.tct_s.{class}` — per-class completion-time histograms
    ///   (p50/p99/p999 surface in the snapshot),
    /// * `{prefix}.{class}.offered|admitted|shed|deadline_hits` —
    ///   per-class request counters, and
    /// * `{prefix}.queue_q`, `{prefix}.queue_h`, `{prefix}.offload_x` —
    ///   per-slot fleet-mean series stamped with simulated time.
    ///
    /// The histograms and counters take each run's report totals once,
    /// after the run. A registry reused across runs stays exact: counts,
    /// buckets, min, max and the histograms' exact sums all add.
    pub fn attach_registry(&mut self, registry: &Registry, prefix: &str) {
        let per_class = |what: &str| SlaClass::ALL.map(|c| format!("{prefix}.{}.{what}", c.name()));
        let tel = ServingTelemetry {
            registry: Registry::clone(registry),
            tct: SlaClass::ALL.map(|c| format!("{prefix}.tct_s.{}", c.name())),
            counts: ["offered", "admitted", "shed", "deadline_hits"].map(per_class),
            means: ["queue_q", "queue_h", "offload_x"].map(|k| format!("{prefix}.{k}")),
        };
        for name in tel.counts.iter().flatten() {
            registry.add_count(name, 0);
        }
        for name in &tel.tct {
            registry.merge_histogram(name, &Buckets::new());
        }
        for name in &tel.means {
            registry.extend_series(name, []);
        }
        self.telemetry = Some(tel);
    }

    /// Runs `slots` time slots from fresh queues and returns the serving
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (cannot occur for systems built
    /// by [`ServingSystem::new`]).
    pub fn run(&mut self, slots: usize, seed: u64) -> leime::Result<ServingReport> {
        self.run_with_workers(slots, seed, NonZeroUsize::MIN)
    }

    /// [`ServingSystem::run`] on `workers` threads, with the same bytes
    /// at every worker count.
    ///
    /// # Errors
    ///
    /// As [`ServingSystem::run`].
    pub fn run_with_workers(
        &self,
        slots: usize,
        seed: u64,
        workers: NonZeroUsize,
    ) -> leime::Result<ServingReport> {
        self.run_sharded(slots, seed, workers, DEFAULT_EPOCH_LEN)
    }

    /// [`ServingSystem::run`] as a stage on the shared slot loop
    /// ([`leime::run_slot_loop`]): the same bytes at every worker count
    /// and epoch length.
    fn run_sharded(
        &self,
        slots: usize,
        seed: u64,
        workers: NonZeroUsize,
        epoch_len: NonZeroUsize,
    ) -> leime::Result<ServingReport> {
        let scenario = &self.scenario;
        let traffic = &self.config.traffic;
        let n = scenario.devices.len();
        let slot_len_s = scenario.slot_len_s;
        let horizon = SimTime::from_secs(slots as f64 * slot_len_s);
        let chaos = scenario.chaos.as_ref().map(|config| EdgeChaos {
            config,
            edge: 0,
            horizon,
        });
        // The edge's shared fault lanes, advanced once per slot.
        let mut shared_lanes = scenario.chaos.as_ref().map(|c| c.shared_lanes(horizon));
        let controller = scenario.controller.build();
        let decide = DecideCtx {
            scenario,
            chaos,
            decider: controller.as_ref(),
            shared: scenario.shared_params(self.plan.standard()),
        };
        let flops: Vec<f64> = scenario.devices.iter().map(|d| d.flops).collect();
        let mut traffic_rng = leime_par::stream_rng(seed, TRAFFIC_STREAM);
        let consts = self.run_consts();
        // The last Eq. 27 solve and the rate factor it solved for: the
        // offered means, and so the solve, change only with the rate.
        let mut solved: Option<(u64, Arc<SlotQuants>)> = None;
        // Fleet-level per-slot quantities: one traffic draw, the Eq. 27
        // edge shares against the offered means, and the edge's shared
        // fault health. The controller sees the flood-collapsed effective
        // first-exit rate (and the brownout-scaled edge).
        let mut broadcast = |slot: usize| {
            let start = SimTime::from_secs(slot as f64 * slot_len_s);
            let rate = traffic.rate_factor(start.as_secs(), &mut traffic_rng);
            let hard_f = traffic.hard_fraction(start.as_secs()).clamp(0.0, 1.0);
            solved = solved.take().filter(|(bits, _)| *bits == rate.to_bits());
            let (_, quants) = solved.get_or_insert_with(|| {
                let means = scenario.devices.iter().map(|d| d.arrival_mean * rate);
                let quants = SlotQuants::new(&flops, means.collect(), scenario.edge_flops);
                (rate.to_bits(), Arc::new(quants))
            });
            let shared = SharedParams {
                sigma1: decide.shared.sigma1 * (1.0 - hard_f),
                ..decide.shared
            };
            ServeSlot {
                decide: DecideCtx { shared, ..decide },
                quants: Arc::clone(quants),
                health: shared_lanes
                    .as_mut()
                    .map_or(SharedHealth::NOMINAL, |lanes| lanes.health(start)),
                start,
                hard: consts.hard_law(hard_f),
            }
        };

        let step =
            |ctx: &ServeSlot<'_>, slot: usize, row: DeviceRow<'_>, tally: &mut ServeTally| {
                Ok(self.serve_device(ctx, &consts, slot as u64, row, tally))
            };

        let sla = &self.config.sla;
        let mut stats: [ClassStats; 3] =
            SlaClass::ALL.map(|c| ClassStats::new(c, sla.deadline_for(c)));
        let (mut hard_requests, mut fault_slots) = (0u64, 0u64);
        let (mut offload_sum, mut offload_slots) = (0.0f64, 0u64);
        let tel = self.telemetry.as_ref();
        // Per-slot fleet means of `[q, h, x]`, pushed to the registry
        // after the run.
        let mut means: [Vec<(f64, f64)>; 3] = Default::default();
        let queues = vec![QueuePair::new(); n];
        let start = (&queues[..], &[][..], seed, chaos.is_some());
        let ((), queues, _) = run_slot_loop(start, workers, step, |slot_loop| {
            for epoch in leime_par::epoch_ranges(slots, epoch_len.get()) {
                let (tallies, records) = slot_loop.run_epoch(epoch, &mut broadcast)?;
                for tally in tallies {
                    for (stat, class) in stats.iter_mut().zip(&tally.classes) {
                        stat.tct_s.merge(&class.tct_s);
                        stat.deadline_hits += class.deadline_hits;
                        stat.offered += class.offered;
                        stat.admitted += class.admitted;
                        stat.shed += class.shed;
                    }
                    hard_requests += tally.hard_requests;
                    fault_slots += tally.fault_slots;
                    offload_slots += tally.offload_slots;
                }
                for (slot, outs) in records {
                    let (mut q_sum, mut h_sum, mut x_sum) = (0.0f64, 0.0f64, 0.0f64);
                    // Churned-out devices (`None`) have no arrivals and
                    // frozen queues.
                    for a in outs.filter_map(Option::as_ref) {
                        offload_sum += a.x;
                        q_sum += a.q;
                        h_sum += a.h;
                        x_sum += a.x;
                    }
                    if tel.is_some() {
                        let t_s = SimTime::from_secs(slot as f64 * slot_len_s).as_secs();
                        for (series, sum) in means.iter_mut().zip([q_sum, h_sum, x_sum]) {
                            series.push((t_s, sum / n as f64));
                        }
                    }
                }
            }
            Ok(())
        })?;
        // The registry takes the per-slot series and the report's
        // per-class totals once, after the run.
        if let Some(tel) = tel {
            let registry = &tel.registry;
            for (name, points) in tel.means.iter().zip(means) {
                registry.extend_series(name, points);
            }
            for (ci, s) in stats.iter().enumerate() {
                registry.merge_histogram(&tel.tct[ci], &s.tct_s);
                let totals = [s.offered, s.admitted, s.shed, s.deadline_hits];
                for (names, n) in tel.counts.iter().zip(totals) {
                    registry.add_count(&names[ci], n);
                }
            }
        }
        let final_backlog = queues.iter().map(|q| q.q() + q.h()).sum();
        Ok(ServingReport {
            slots,
            devices: n,
            seed,
            classes: stats.into_iter().collect(),
            hard_requests,
            fault_slots,
            offload_sum,
            offload_slots,
            final_backlog,
        })
    }

    /// The serving stage's per-device step: the decision
    /// ([`decide_device`]), the offered count, the count-level draws of
    /// [`RunConsts::draw_requests`] around admission, and the Eq. 10–11
    /// queue step, all from the device's own stream. It prices an
    /// admitted request per (class, exit tier) cell and folds the counts
    /// and prices into the shard's `tally`; it returns what the driver
    /// sums in device order, or `None` for a churned-out device.
    /// Allocation-free (S6).
    fn serve_device(
        &self,
        ctx: &ServeSlot<'_>,
        consts: &RunConsts,
        slot: u64,
        mut row: DeviceRow<'_>,
        tally: &mut ServeTally,
    ) -> Option<Served> {
        let weights = consts.weights;
        let d = decide_device(
            &ctx.decide,
            &ctx.quants,
            &ctx.health,
            slot,
            ctx.start,
            &mut row,
        )?;
        let DeviceRow { i, queue, rng, .. } = row;
        let (x, cost) = (d.outcome.x, d.cost);
        let (dev, max) = (cost.device(), self.config.traffic.max_per_slot);
        let threshold = ctx.quants.poisson_threshold(i);
        let offered_n = poisson_draw(dev.arrival_mean, threshold, max, rng);

        let device_quota = cost.device_quota();
        let edge_quota = if d.edge_up { cost.edge_quota(x) } else { 0.0 };
        let admission = |offered| {
            admit(
                &self.config.admission,
                cost.q,
                cost.h,
                device_quota,
                edge_quota,
                x,
                weights,
                offered,
            )
            .admitted
        };
        let requests = consts.draw_requests(offered_n, ctx.hard, d.degraded_local, admission, rng);
        let admitted_equiv: f64 = (requests.admitted.iter().zip(weights))
            .map(|(cells, w)| cells.iter().sum::<u64>() as f64 * w)
            .sum();
        queue.step(
            (1.0 - x) * admitted_equiv,
            x * admitted_equiv,
            device_quota,
            edge_quota,
        );

        // Price the admitted cohort: Eq. 12–14 first-block cost (backlog
        // wait included) per plan-task equivalent, plus the deterministic
        // block-2 tail, plus the class's block-3 cloud leg.
        let (base_per_equiv, f_e2) = if admitted_equiv > 0.0 {
            let rcost = cost.with_arrival_mean(admitted_equiv);
            (rcost.y(x) / admitted_equiv, rcost.second_block_flops(x))
        } else {
            (0.0, f64::EPSILON)
        };
        let tct = SlaClass::ALL.map(|c| {
            let plan_c = self.plan.for_class(c);
            let first_block = base_per_equiv * weights[c.index()];
            // Block-2 leg: ship the intermediate if the request ran
            // locally (probability 1 − x), then compute on the residual
            // edge share.
            let second = first_block
                + ((1.0 - x)
                    * (plan_c.d[1] * 8.0 / dev.bandwidth_bps.max(f64::EPSILON) + dev.latency_s)
                    + plan_c.mu[1] / f_e2);
            [first_block, second, second + consts.cloud_legs[c.index()]]
        });
        tally.fold_requests(&requests, &tct, &consts.deadlines);
        tally.fault_slots += u64::from(d.fault || d.degraded_local);
        tally.offload_slots += 1;
        Some(Served {
            x,
            q: cost.q,
            h: cost.h,
        })
    }
}

/// What every device-slot of a run shares: the classes' plan-task
/// weights `μ₁_c / μ₁_std`, the laws of its counts and the per-class
/// cloud legs of its prices. Built once per run (each [`Binomial`] law
/// tabulates the band rows and guide of its short-run lookups), never
/// per slot, and outside [`ServingSystem::new`].
#[derive(Debug)]
struct RunConsts {
    weights: [f64; 3],
    /// Per class, the deadline its requests are judged against.
    deadlines: [f64; 3],
    /// The class split of offered requests, `~ Multinomial(·, mix)`.
    mix: Trinomial,
    /// Per class, the exit-tier split of admitted easy requests,
    /// `~ Multinomial(·, σ_c)` (Eq. 4).
    exits: [Trinomial; 3],
    /// Per class, the block-3 cloud leg of a request's price.
    cloud_legs: [f64; 3],
    /// The hard-sample law `Binomial(·, base_hard_fraction)`.
    hard: Binomial,
    /// Under a `HardFlood` model, the law `Binomial(·, hard_fraction)`
    /// inside the flood window.
    flood_hard: Option<Binomial>,
}

impl RunConsts {
    /// The hard-sample law `Binomial(·, hard_f)` for a fraction that
    /// [`TrafficConfig::hard_fraction`] returned: the flood's law when
    /// `hard_f` is its fraction, the base law otherwise.
    fn hard_law(&self, hard_f: f64) -> &Binomial {
        match &self.flood_hard {
            Some(flood) if flood.p().to_bits() == hard_f.to_bits() => flood,
            _ => &self.hard,
        }
    }

    /// Samples one device-slot's `offered_n` requests at count level, with
    /// the law of i.i.d. per-request draws (DESIGN.md §12): class counts
    /// `~ Multinomial(offered_n, mix)`, which `admission` maps to admitted
    /// counts; then per class, admitted hard samples `~ hard` (the slot's
    /// `Binomial(·, hard_f)`) at tier 2 and the rest `~ Multinomial(·, σ_c)`
    /// over the tiers (Eq. 4). A degraded device runs every admitted
    /// request at tier 0 and draws the hard count over all requests.
    fn draw_requests(
        &self,
        offered_n: u64,
        hard: &Binomial,
        degraded: bool,
        admission: impl FnOnce([u64; 3]) -> [u64; 3],
        rng: &mut StdRng,
    ) -> Requests {
        let offered = self.mix.draw(offered_n, rng);
        let mut admitted = admission(offered).map(|n| [n, 0, 0]);
        // Requests whose hardness is still undrawn: the shed ones, or on
        // a degraded device every one.
        let (mut hard_n, mut rest) = (0, offered_n);
        if !degraded {
            for (exits, cell) in self.exits.iter().zip(&mut admitted) {
                let n = cell[0];
                let hard_c = hard.draw(n, rng);
                *cell = exits.draw(n - hard_c, rng);
                cell[2] += hard_c;
                hard_n += hard_c;
                rest -= n;
            }
        }
        hard_n += hard.draw(rest, rng);
        Requests {
            offered,
            hard: hard_n,
            admitted,
        }
    }
}

/// The serving stage's per-slot broadcast.
struct ServeSlot<'a> {
    /// The decision inputs, σ₁ scaled by `1 − hard_f`.
    decide: DecideCtx<'a>,
    /// The Eq. 27 quantities of the slot's offered means.
    quants: Arc<SlotQuants>,
    /// The edge's shared fault health at `start`.
    health: SharedHealth,
    start: SimTime,
    /// The slot's hard-sample law, `Binomial(·, hard_f)`, one of the
    /// run's ([`RunConsts::hard_law`]).
    hard: &'a Binomial,
}

/// One served device-slot, as the driver replays it in device order:
/// the inputs of its float sums (DESIGN.md §15).
#[derive(Debug)]
struct Served {
    /// The applied offloading ratio.
    x: f64,
    /// The device queue at the slot start.
    q: f64,
    /// The edge queue at the slot start.
    h: f64,
}

/// A shard's order-free share of one epoch (DESIGN.md §15): every
/// count and histogram of the report, which the driver merges in any
/// order (a histogram's sum is exact).
#[derive(Debug, Default)]
struct ServeTally {
    /// Per class, in [`SlaClass::ALL`] order.
    classes: [ClassTally; 3],
    /// Offered requests that are hard samples.
    hard_requests: u64,
    /// Served device-slots with a fault or degraded service.
    fault_slots: u64,
    /// Served (not churned-out) device-slots.
    offload_slots: u64,
}

/// One class's share of a [`ServeTally`]: the [`ClassStats`] fields a
/// run accumulates.
#[derive(Debug, Default)]
struct ClassTally {
    tct_s: Buckets,
    deadline_hits: u64,
    offered: u64,
    admitted: u64,
    shed: u64,
}

impl ServeTally {
    /// Folds one served device-slot's requests in: each (class, tier)
    /// cell, priced `tct`, is judged once against its class's deadline,
    /// since every request in it completes at that price. `record_n`
    /// allocates only to widen a class histogram's stored window.
    fn fold_requests(&mut self, requests: &Requests, tct: &[[f64; 3]; 3], deadlines: &[f64; 3]) {
        self.hard_requests += requests.hard;
        for (ci, class) in self.classes.iter_mut().enumerate() {
            for (&n, &tct) in requests.admitted[ci].iter().zip(&tct[ci]) {
                class.tct_s.record_n(tct, n);
                if tct <= deadlines[ci] {
                    class.deadline_hits += n;
                }
            }
            let admitted: u64 = requests.admitted[ci].iter().sum();
            class.offered += requests.offered[ci];
            class.admitted += admitted;
            class.shed += requests.offered[ci] - admitted;
        }
    }
}

/// One device-slot's requests, as counts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Requests {
    /// Offered requests by class.
    offered: [u64; 3],
    /// Offered requests that are hard samples.
    hard: u64,
    /// Admitted requests by class and exit tier.
    admitted: [[u64; 3]; 3],
}

/// The law `Multinomial(·, probs)` over three outcomes, as two
/// conditional binomial laws built once.
#[derive(Debug, Clone)]
struct Trinomial {
    first: Binomial,
    /// The second outcome given not the first.
    second: Binomial,
}

impl Trinomial {
    fn new(probs: [f64; 3]) -> Self {
        let rest = probs[1] + probs[2];
        let p_second = if rest > 0.0 { probs[1] / rest } else { 0.0 };
        Trinomial {
            first: Binomial::new(probs[0]),
            second: Binomial::new(p_second),
        }
    }

    /// Splits `n` trials over the three outcomes.
    fn draw(&self, n: u64, rng: &mut StdRng) -> [u64; 3] {
        let first = self.first.draw(n, rng);
        let second = self.second.draw(n - first, rng);
        [first, second, n - first - second]
    }
}

/// The serving testbed: a Pi fleet with a deliberately scarce edge
/// (2.5 GFLOPS shared — a single co-located micro-server, not the
/// default 12 GFLOPS rack) under 24 requests/slot/device, which puts
/// nominal load at ~75% of the fleet's device+edge service capacity.
/// A `load` multiplier of 2 is therefore a true overload where
/// admission control must shed. `load` scales the offered traffic (the
/// `ext_serving` sweep knob).
pub fn serving_testbed(model: ModelKind, n: usize, load: f64) -> (Scenario, ServingConfig) {
    let mut scenario = Scenario::raspberry_pi_cluster(model, n, 24.0);
    scenario.edge_flops = 2.5e9;
    let config = ServingConfig {
        traffic: TrafficConfig {
            load,
            ..TrafficConfig::default()
        },
        ..ServingConfig::default()
    };
    (scenario, config)
}

/// The golden composition: a flash crowd (3x offered load for
/// `[20 s, 50 s)`) breaking over an edge brownout (edge at 30% speed
/// for half of the first 60 s) — the serving stack's worst plausible
/// hour, used by `integration_serving` and `ext_serving`.
pub fn flash_brownout_testbed(
    model: ModelKind,
    n: usize,
    seed: u64,
    load: f64,
) -> (Scenario, ServingConfig) {
    let (mut scenario, mut config) = serving_testbed(model, n, load);
    scenario.chaos = Some(ChaosConfig {
        seed,
        models: vec![FaultModel::EdgeBrownout {
            duty: 0.5,
            factor: 0.3,
            mean_episode_s: 10.0,
        }],
        window_s: Some(60.0),
    });
    config.traffic.model = TrafficModel::FlashCrowd {
        start_s: 20.0,
        duration_s: 30.0,
        factor: 3.0,
    };
    (scenario, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leime_workload::SlotArrivals;

    fn system(load: f64) -> ServingSystem {
        let (scenario, config) = serving_testbed(ModelKind::SqueezeNet, 4, load);
        ServingSystem::new(scenario, config).unwrap()
    }

    fn diurnal(period_s: f64, peak: f64) -> leime::Result<ServingSystem> {
        let (scenario, mut config) = serving_testbed(ModelKind::SqueezeNet, 4, 1.0);
        config.traffic.model = TrafficModel::Diurnal {
            period_s,
            trough: 0.5,
            peak,
        };
        ServingSystem::new(scenario, config)
    }

    #[test]
    fn testbed_scenarios_load_from_json() {
        // Scenario JSON rejects unknown keys at every depth; the serving
        // presets' scenarios must still load, to themselves.
        let presets = [
            serving_testbed(ModelKind::SqueezeNet, 4, 1.0).0,
            flash_brownout_testbed(ModelKind::SqueezeNet, 64, 7, 2.0).0,
        ];
        for s in presets {
            assert_eq!(Scenario::from_json(&s.to_json().unwrap()).unwrap(), s);
        }
    }

    #[test]
    fn diurnal_with_infinite_peak_is_a_config_error() {
        assert!(matches!(
            diurnal(60.0, f64::INFINITY),
            Err(LeimeError::Config(_))
        ));
    }

    /// A testbed whose busiest device offers `arrival_mean` under
    /// `model` at `load`.
    fn offering(model: TrafficModel, load: f64, arrival_mean: f64) -> leime::Result<ServingSystem> {
        let (mut scenario, mut config) = flash_brownout_testbed(ModelKind::SqueezeNet, 3, 42, 1.0);
        scenario.devices[1].arrival_mean = arrival_mean;
        config.traffic.model = model;
        config.traffic.load = load;
        ServingSystem::new(scenario, config)
    }

    fn assert_overflow_rejected(system: leime::Result<ServingSystem>) {
        match system {
            Err(LeimeError::Config(msg)) => assert!(msg.contains("overflows"), "{msg}"),
            other => panic!("overflowing offered rate accepted: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn constant_rate_overflow_is_a_config_error() {
        assert_overflow_rejected(offering(TrafficModel::Constant, 1e10, 1e300));
    }

    #[test]
    fn diurnal_peak_overflow_is_a_config_error() {
        let model = TrafficModel::Diurnal {
            period_s: 60.0,
            trough: 0.5,
            peak: 1e308,
        };
        assert_overflow_rejected(offering(model, 10.0, 24.0));
    }

    #[test]
    fn flash_crowd_factor_overflow_is_a_config_error() {
        let model = TrafficModel::FlashCrowd {
            start_s: 20.0,
            duration_s: 30.0,
            factor: 1e300,
        };
        assert_overflow_rejected(offering(model, 2.0, 1e10));
    }

    #[test]
    fn pareto_cap_overflow_is_a_config_error() {
        let model = TrafficModel::ParetoBursts {
            alpha: 1.5,
            cap: 1e300,
        };
        assert_overflow_rejected(offering(model, 1.0, 1e10));
    }

    #[test]
    fn hard_flood_rate_overflow_is_a_config_error() {
        let model = TrafficModel::HardFlood {
            start_s: 10.0,
            duration_s: 20.0,
            hard_fraction: 0.9,
        };
        assert_overflow_rejected(offering(model, 1e300, 1e10));
    }

    #[test]
    fn diurnal_period_below_one_slot_is_a_config_error() {
        assert!(matches!(diurnal(1e-308, 2.0), Err(LeimeError::Config(_))));
        assert!(diurnal(60.0, 2.0).is_ok());
    }

    #[test]
    fn produces_requests_and_finite_stats() {
        let report = system(1.0).run(60, 7).unwrap();
        assert!(report.offered_total() > 1000, "{}", report.offered_total());
        assert_eq!(
            report.offered_total(),
            report.admitted_total() + report.shed_total()
        );
        for c in SlaClass::ALL {
            let s = report.class(c);
            assert_eq!(s.offered, s.admitted + s.shed, "{}", c.name());
            if s.admitted > 0 {
                assert!(s.p50().is_some());
                assert!(s.p999().unwrap() >= s.p50().unwrap());
            }
        }
        assert!(report.final_backlog.is_finite() && report.final_backlog >= 0.0);
        assert!(report.mean_offload_ratio() > 0.0);
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let a = system(2.0).run(40, 11).unwrap();
        let b = system(2.0).run(40, 11).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn overload_sheds_best_effort_before_latency_critical() {
        let report = system(3.0).run(80, 3).unwrap();
        assert!(report.shed_total() > 0, "3x overload must shed");
        let lc = report.class(SlaClass::LatencyCritical);
        let be = report.class(SlaClass::BestEffort);
        let lc_shed_rate = lc.shed as f64 / lc.offered.max(1) as f64;
        let be_shed_rate = be.shed as f64 / be.offered.max(1) as f64;
        assert!(
            be_shed_rate > lc_shed_rate,
            "best-effort shed rate {be_shed_rate} <= latency-critical {lc_shed_rate}"
        );
    }

    #[test]
    fn admission_bounds_the_backlog_under_overload() {
        let (scenario, mut config) = serving_testbed(ModelKind::SqueezeNet, 4, 3.0);
        config.admission.enabled = true;
        let bound = config.admission.q_bound + config.admission.h_bound;
        let mut sys = ServingSystem::new(scenario.clone(), config.clone()).unwrap();
        let with = sys.run(80, 5).unwrap();
        assert!(
            with.final_backlog <= (bound + 1.0) * 4.0,
            "bounded backlog {} escaped {bound} per device",
            with.final_backlog
        );
        config.admission.enabled = false;
        let mut sys = ServingSystem::new(scenario, config).unwrap();
        let without = sys.run(80, 5).unwrap();
        assert!(
            without.final_backlog > with.final_backlog,
            "no-admission backlog {} not above admission backlog {}",
            without.final_backlog,
            with.final_backlog
        );
    }

    #[test]
    fn hard_floods_are_flagged_and_survive() {
        let (scenario, mut config) = serving_testbed(ModelKind::SqueezeNet, 2, 1.0);
        config.traffic.model = TrafficModel::HardFlood {
            start_s: 10.0,
            duration_s: 20.0,
            hard_fraction: 0.9,
        };
        let mut sys = ServingSystem::new(scenario, config).unwrap();
        let report = sys.run(40, 9).unwrap();
        // ~20 flood slots at 90% hard plus 5% baseline elsewhere.
        assert!(
            report.hard_requests as f64 > 0.2 * report.offered_total() as f64,
            "hard {} of {}",
            report.hard_requests,
            report.offered_total()
        );
    }

    #[test]
    fn flash_brownout_composition_injects_faults() {
        let (scenario, config) = flash_brownout_testbed(ModelKind::SqueezeNet, 3, 42, 1.0);
        let mut sys = ServingSystem::new(scenario, config).unwrap();
        let report = sys.run(90, 13).unwrap();
        assert!(report.fault_slots > 0, "brownout never surfaced");
        assert!(report.offered_total() > 0);
    }

    #[test]
    fn telemetry_records_per_class_histograms() {
        let registry = Registry::new();
        let (scenario, config) = serving_testbed(ModelKind::SqueezeNet, 2, 1.0);
        let mut sys = ServingSystem::new(scenario, config).unwrap();
        sys.attach_registry(&registry, "serve");
        let report = sys.run(30, 21).unwrap();
        let snap = registry.snapshot();
        for c in SlaClass::ALL {
            let h = snap
                .histogram_named(&format!("serve.tct_s.{}", c.name()))
                .unwrap();
            let want = &report.class(c).tct_s;
            assert_eq!(h.count, report.class(c).admitted);
            assert_eq!(h.count, want.count());
            assert_eq!(h.buckets, *want);
            assert_eq!(h.buckets.sum().to_bits(), want.sum().to_bits());
            let bits = |v: Option<f64>| v.map(f64::to_bits);
            assert_eq!(bits(h.buckets.min()), bits(want.min()));
            assert_eq!(bits(h.buckets.max()), bits(want.max()));
            if h.count > 0 {
                assert!(h.p999.is_some());
            }
        }
        assert!(SlaClass::ALL.iter().any(|&c| report.class(c).admitted > 0));
        assert!(snap.series_named("serve.queue_q").is_some());
        assert!(snap.series_named("serve.offload_x").is_some());
    }

    #[test]
    fn sharded_runs_are_byte_identical_at_every_worker_count() {
        let churn = {
            let (mut scenario, config) = serving_testbed(ModelKind::SqueezeNet, 6, 1.5);
            scenario.chaos = Some(ChaosConfig {
                seed: 9,
                models: vec![FaultModel::DeviceChurn {
                    duty: 0.3,
                    mean_absence_s: 8.0,
                }],
                window_s: None,
            });
            (scenario, config)
        };
        let cases = [
            (
                "flash_brownout",
                flash_brownout_testbed(ModelKind::SqueezeNet, 5, 42, 2.0),
            ),
            ("churn", churn),
        ];
        for (name, (scenario, config)) in cases {
            let slots = 90;
            let mut sys = ServingSystem::new(scenario, config).unwrap();
            let mut bytes_at = |workers: usize, epoch_len: usize| {
                let registry = Registry::new();
                sys.attach_registry(&registry, "serve");
                let report = sys
                    .run_sharded(
                        slots,
                        13,
                        NonZeroUsize::new(workers).unwrap(),
                        NonZeroUsize::new(epoch_len).unwrap(),
                    )
                    .unwrap();
                (
                    report.offload_slots,
                    serde_json::to_string(&report).unwrap(),
                    serde_json::to_string(&registry.snapshot()).unwrap(),
                )
            };
            let (offload_slots, report, snapshot) = bytes_at(1, DEFAULT_EPOCH_LEN.get());
            if name == "churn" {
                assert!(offload_slots < 6 * slots as u64, "no device churned");
            }
            for workers in [1, 2, 4, 8] {
                for epoch_len in [1, 4, 16] {
                    let (_, r, s) = bytes_at(workers, epoch_len);
                    assert_eq!(
                        report, r,
                        "{name}: report diverged at {workers}x{epoch_len}"
                    );
                    assert_eq!(
                        snapshot, s,
                        "{name}: telemetry diverged at {workers}x{epoch_len}"
                    );
                }
            }
        }
    }

    /// Maps a uniform draw `u ∈ [0, 1)` to a class under the `mix`.
    fn class_for_draw(mix: [f64; 3], u: f64) -> SlaClass {
        if u < mix[0] {
            SlaClass::LatencyCritical
        } else if u < mix[0] + mix[1] {
            SlaClass::Standard
        } else {
            SlaClass::BestEffort
        }
    }

    #[test]
    fn class_for_draw_partitions_the_unit_interval() {
        let mix = [0.2, 0.5, 0.3];
        assert_eq!(class_for_draw(mix, 0.0), SlaClass::LatencyCritical);
        assert_eq!(class_for_draw(mix, 0.19), SlaClass::LatencyCritical);
        assert_eq!(class_for_draw(mix, 0.2), SlaClass::Standard);
        assert_eq!(class_for_draw(mix, 0.69), SlaClass::Standard);
        assert_eq!(class_for_draw(mix, 0.7), SlaClass::BestEffort);
        assert_eq!(class_for_draw(mix, 0.999), SlaClass::BestEffort);
    }

    /// The per-request step [`RunConsts::draw_requests`] replaces: one class and
    /// one hardness draw per offered request, the first `admitted[c]`
    /// requests of each class admitted in arrival order, and one
    /// exit-tier draw per admitted non-hard request.
    fn per_request(
        sys: &ServingSystem,
        offered_n: u64,
        hard_f: f64,
        degraded: bool,
        admission: impl FnOnce([u64; 3]) -> [u64; 3],
        rng: &mut StdRng,
    ) -> Requests {
        use leime_par::Rng;
        let (mix, plan) = (sys.config.sla.mix, &sys.plan);
        let mut requests = Vec::new();
        let (mut offered, mut hard) = ([0u64; 3], 0u64);
        for _ in 0..offered_n {
            let class = class_for_draw(mix, rng.gen_range(0.0..1.0));
            let is_hard = rng.gen_range(0.0..1.0) < hard_f;
            offered[class.index()] += 1;
            hard += u64::from(is_hard);
            requests.push((class, is_hard));
        }
        let mut quota_left = admission(offered);
        let mut admitted = [[0u64; 3]; 3];
        for (class, is_hard) in requests {
            let ci = class.index();
            if quota_left[ci] == 0 {
                continue;
            }
            quota_left[ci] -= 1;
            let tier = if degraded {
                0
            } else if is_hard {
                2
            } else {
                let u = rng.gen_range(0.0..1.0);
                plan.for_class(class).tier_for_draw(u).unwrap()
            };
            admitted[ci][tier] += 1;
        }
        Requests {
            offered,
            hard,
            admitted,
        }
    }

    #[test]
    fn count_level_draws_match_the_per_request_law() {
        const SLOTS: u64 = 100_000;
        let sys = system(1.0);
        // Shed part of the two lower classes, so arrival order matters
        // to the per-request reference.
        let admission = |offered: [u64; 3]| [offered[0], offered[1].min(6), offered[2].min(2)];
        let arrivals = SlotArrivals::Poisson {
            mean: 12.0,
            max: u64::MAX,
        };
        type Step<'a> = &'a dyn Fn(u64, &mut StdRng) -> Requests;
        // Per statistic (offered by class, hard, admitted by class and
        // tier): its sum and sum of squares over the slots.
        let moments = |step: Step<'_>, seed: u64| {
            let mut rng = leime_par::stream_rng(seed, 0);
            let mut sums = [(0.0f64, 0.0f64); 13];
            for _ in 0..SLOTS {
                let r = step(arrivals.draw(&mut rng), &mut rng);
                let stats = r
                    .offered
                    .into_iter()
                    .chain([r.hard])
                    .chain(r.admitted.concat());
                for (sum, x) in sums.iter_mut().zip(stats) {
                    let x = x as f64;
                    *sum = (sum.0 + x, sum.1 + x * x);
                }
            }
            sums.map(|(s, s2)| {
                let mean = s / SLOTS as f64;
                (mean, (s2 / SLOTS as f64 - mean * mean).max(0.0))
            })
        };
        for hard_f in [0.0, 0.3, 1.0] {
            for degraded in [false, true] {
                let (consts, hard) = (sys.run_consts(), Binomial::new(hard_f));
                let counts =
                    |n, rng: &mut StdRng| consts.draw_requests(n, &hard, degraded, admission, rng);
                let reference =
                    |n, rng: &mut StdRng| per_request(&sys, n, hard_f, degraded, admission, rng);
                let got = moments(&counts, 1);
                let want = moments(&reference, 2);
                for (k, ((m, v), (m_ref, v_ref))) in got.into_iter().zip(want).enumerate() {
                    let sd = ((v + v_ref) / SLOTS as f64).sqrt();
                    assert!(
                        (m - m_ref).abs() <= 4.0 * sd,
                        "hard_f {hard_f}, degraded {degraded}, statistic {k}: \
                         mean {m} vs per-request {m_ref} (σ {sd})"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (scenario, mut config) = serving_testbed(ModelKind::SqueezeNet, 2, 1.0);
        config.traffic.load = 0.0;
        assert!(ServingSystem::new(scenario, config).is_err());
    }
}
