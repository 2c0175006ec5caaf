//! The serving runtime: an online request front-end layered on the
//! paper's slotted queueing machinery.
//!
//! Each slot, deterministic traffic generators offer requests per
//! device; the admission controller sheds what would break the
//! Eq. 10–11 stability bounds (best-effort first); admitted requests
//! run under their class's exit setting with the scenario's offload
//! controller (Lyapunov by default) steering the device/edge split, and
//! per-request completion times are judged against per-class deadlines.
//! The per-device decision (chaos lookup, memoised solve, degradation
//! ladder) is the slotted system's own [`leime::decide_device`].
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
//! The runtime is sequential (driver thread only) and draws from
//! per-device RNG streams (`stream_seed(seed, i)`) plus one reserved
//! fleet-level traffic stream ([`crate::TRAFFIC_STREAM`]); repeated
//! runs at a seed are byte-identical (asserted by the tier-2
//! `integration_serving` suite).

use std::sync::Arc;

use leime_chaos::{ChaosConfig, FaultModel, FaultSchedule};
use leime_offload::{DegradeState, DeviceParams, QueuePair, SharedParams, SlotCost};
use leime_par::{Rng, StdRng};
use leime_simnet::SimTime;
use leime_telemetry::{Counter, Histogram, Registry, Series, VirtualClock};
use leime_workload::SlotArrivals;

use leime::{decide_device, DecideCtx, DecideMemo, LeimeError, ModelKind, Scenario, SlotQuants};

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

/// Recording handles for one serving run (see
/// [`ServingSystem::attach_registry`]).
#[derive(Debug, Clone)]
struct ServingTelemetry {
    clock: VirtualClock,
    /// Per-class completion-time histograms, `{prefix}.tct_s.{class}`.
    tct: [Arc<Histogram>; 3],
    offered: [Arc<Counter>; 3],
    admitted: [Arc<Counter>; 3],
    shed: [Arc<Counter>; 3],
    deadline_hits: [Arc<Counter>; 3],
    queue_q: Arc<Series>,
    queue_h: Arc<Series>,
    offload_x: Arc<Series>,
}

/// Per-device serving state: one RNG stream per device, per DESIGN.md
/// §11.
#[derive(Debug)]
struct DeviceState {
    queue: QueuePair,
    degrade: DegradeState,
    rng: StdRng,
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

    /// Attaches a telemetry registry: subsequent runs record, under
    /// `prefix`,
    ///
    /// * `{prefix}.tct_s.{class}` — per-class completion-time histograms
    ///   (p50/p99/p999 surface in the snapshot),
    /// * `{prefix}.{class}.offered|admitted|shed|deadline_hits` —
    ///   per-class request counters, and
    /// * `{prefix}.queue_q`, `{prefix}.queue_h`, `{prefix}.offload_x` —
    ///   per-slot fleet-mean series stamped with simulated time.
    pub fn attach_registry(&mut self, registry: &Registry, prefix: &str) {
        let clock = VirtualClock::new();
        let per_class = |what: &str| -> [Arc<Counter>; 3] {
            SlaClass::ALL.map(|c| registry.counter(&format!("{prefix}.{}.{what}", c.name())))
        };
        self.telemetry = Some(ServingTelemetry {
            clock,
            tct: SlaClass::ALL.map(|c| registry.histogram(&format!("{prefix}.tct_s.{}", c.name()))),
            offered: per_class("offered"),
            admitted: per_class("admitted"),
            shed: per_class("shed"),
            deadline_hits: per_class("deadline_hits"),
            queue_q: registry.series(&format!("{prefix}.queue_q")),
            queue_h: registry.series(&format!("{prefix}.queue_h")),
            offload_x: registry.series(&format!("{prefix}.offload_x")),
        });
    }

    /// Plan-task weight of each class: `μ₁_c / μ₁_std`.
    fn class_weights(&self) -> [f64; 3] {
        let std_mu1 = self.plan.standard().mu[0].max(f64::EPSILON);
        SlaClass::ALL.map(|c| self.plan.for_class(c).mu[0] / std_mu1)
    }

    /// Runs `slots` time slots and returns the serving report.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (cannot occur for systems built
    /// by [`ServingSystem::new`]).
    pub fn run(&mut self, slots: usize, seed: u64) -> leime::Result<ServingReport> {
        let scenario = &self.scenario;
        let config = &self.config;
        let n = scenario.devices.len();
        let slot_len_s = scenario.slot_len_s;
        let horizon = SimTime::from_secs(slots as f64 * slot_len_s);
        let schedule: Option<FaultSchedule> =
            scenario.chaos.as_ref().map(|c| c.compile(n, horizon));
        let controller = scenario.controller.build();
        let weights = self.class_weights();
        let run_ctx = DecideCtx {
            scenario,
            schedule: schedule.as_ref(),
            decider: controller.as_ref(),
            shared: scenario.shared_params(self.plan.standard()),
            want_dpp: false,
        };
        let flops: Vec<f64> = scenario.devices.iter().map(|d| d.flops).collect();

        let mut states: Vec<DeviceState> = (0..n)
            .map(|i| DeviceState {
                queue: QueuePair::new(),
                degrade: DegradeState::new(),
                rng: leime_par::stream_rng(seed, i as u64),
            })
            .collect();
        let mut traffic_rng = leime_par::stream_rng(seed, TRAFFIC_STREAM);
        let mut memo = DecideMemo::default();

        let mut stats: [ClassStats; 3] =
            SlaClass::ALL.map(|c| ClassStats::new(c, config.sla.deadline_for(c)));
        let mut hard_requests = 0u64;
        let mut fault_slots = 0u64;
        let mut offload_sum = 0.0f64;
        let mut offload_slots = 0u64;

        // Slot scratch (DESIGN.md §14): the offered means and the
        // per-device request cohort (class, hard) are rebuilt in place
        // each slot, so steady-state slots allocate nothing on this
        // path beyond the KKT shares. Per-class counter deltas
        // accumulate here and flush to the registry once per slot.
        let mut means: Vec<f64> = Vec::with_capacity(n);
        let mut requests: Vec<(SlaClass, bool)> = Vec::new();
        let mut offered_slot = [0u64; 3];
        let mut admitted_slot = [0u64; 3];
        let mut shed_slot = [0u64; 3];
        let mut hits_slot = [0u64; 3];

        for slot in 0..slots {
            let slot_start = SimTime::from_secs(slot as f64 * slot_len_s);
            let t_s = slot_start.as_secs();
            if let Some(tel) = &self.telemetry {
                tel.clock.advance_to(t_s);
            }
            // Fleet-level per-slot quantities: one traffic draw, then the
            // Eq. 27 edge shares against the offered means.
            let rate = config.traffic.rate_factor(t_s, &mut traffic_rng);
            let hard_f = config.traffic.hard_fraction(t_s).clamp(0.0, 1.0);
            means.clear();
            means.extend(scenario.devices.iter().map(|d| d.arrival_mean * rate));
            let quants = SlotQuants::new(&flops, means, scenario.edge_flops);
            // The controller sees the flood-collapsed effective
            // first-exit rate (and, per device, the brownout-scaled edge).
            let ctx = DecideCtx {
                shared: SharedParams {
                    sigma1: run_ctx.shared.sigma1 * (1.0 - hard_f),
                    ..run_ctx.shared
                },
                ..run_ctx
            };

            let (mut q_sum, mut h_sum, mut x_sum) = (0.0f64, 0.0f64, 0.0f64);
            for (i, st) in states.iter_mut().enumerate() {
                let Some(d) = decide_device(
                    &ctx,
                    &quants,
                    slot as u64,
                    slot_start,
                    i,
                    &st.queue,
                    &mut st.degrade,
                    &mut memo,
                ) else {
                    // Churned out: no arrivals, frozen queues.
                    continue;
                };
                let (x, obs, dev) = (d.outcome.x, d.obs, d.device);

                // The offered front-end traffic: arrival count, then one
                // class draw and one hardness draw per request.
                let offered_n = SlotArrivals::Poisson {
                    mean: dev.arrival_mean,
                    max: config.traffic.max_per_slot,
                }
                .draw(&mut st.rng);
                requests.clear();
                let mut offered = [0u64; 3];
                for _ in 0..offered_n {
                    let class = config.sla.class_for_draw(st.rng.gen_range(0.0..1.0));
                    let hard = st.rng.gen_range(0.0..1.0) < hard_f;
                    offered[class.index()] += 1;
                    if hard {
                        hard_requests += 1;
                    }
                    requests.push((class, hard));
                }

                let cost = SlotCost::new(d.shared, dev, obs.q, obs.h, obs.p_share);
                let device_quota = cost.device_quota();
                let edge_quota = if d.edge_up { cost.edge_quota(x) } else { 0.0 };
                let decision = admit(
                    &config.admission,
                    obs.q,
                    obs.h,
                    device_quota,
                    edge_quota,
                    x,
                    weights,
                    offered,
                );

                let admitted_equiv: f64 = (0..3)
                    .map(|ci| decision.admitted[ci] as f64 * weights[ci])
                    .sum();
                st.queue.step(
                    (1.0 - x) * admitted_equiv,
                    x * admitted_equiv,
                    device_quota,
                    edge_quota,
                );

                // Price the admitted cohort: Eq. 12–14 first-block cost
                // (backlog wait included) per plan-task equivalent, plus
                // the deterministic block-2/3 tails per request.
                let (base_per_equiv, f_e2) = if admitted_equiv > 0.0 {
                    let realized = DeviceParams {
                        arrival_mean: admitted_equiv,
                        ..dev
                    };
                    let rcost = SlotCost::new(d.shared, realized, obs.q, obs.h, obs.p_share);
                    (rcost.y(x) / admitted_equiv, rcost.second_block_flops(x))
                } else {
                    (0.0, f64::EPSILON)
                };

                // Admit the first `admitted[c]` requests of each class in
                // arrival order; judge each against its class deadline.
                let mut quota_left = decision.admitted;
                for &(class, hard) in &requests {
                    let ci = class.index();
                    stats[ci].offered += 1;
                    offered_slot[ci] += 1;
                    if quota_left[ci] == 0 {
                        stats[ci].shed += 1;
                        shed_slot[ci] += 1;
                        continue;
                    }
                    quota_left[ci] -= 1;
                    stats[ci].admitted += 1;

                    let plan_c = self.plan.for_class(class);
                    let tier = if d.degraded_local {
                        // Degraded mode runs fully local: forced first exit.
                        0
                    } else if hard {
                        plan_c.sigma.len() - 1
                    } else {
                        plan_c.tier_for_draw(st.rng.gen_range(0.0..1.0))?
                    };
                    let mut tct = base_per_equiv * weights[ci];
                    if tier >= 1 {
                        // Block-2 leg: ship the intermediate if the request
                        // ran locally (probability 1 − x), then compute on
                        // the residual edge share.
                        tct += (1.0 - x)
                            * (plan_c.d[1] * 8.0 / dev.bandwidth_bps.max(f64::EPSILON)
                                + dev.latency_s)
                            + plan_c.mu[1] / f_e2;
                    }
                    if tier >= 2 {
                        tct += plan_c.d[2] * 8.0 / scenario.cloud_bandwidth_bps
                            + scenario.cloud_latency_s
                            + plan_c.mu[2] / scenario.cloud_flops;
                    }
                    stats[ci].tct_s.record(tct);
                    let hit = tct <= config.sla.deadline_for(class);
                    if hit {
                        stats[ci].deadline_hits += 1;
                    }
                    admitted_slot[ci] += 1;
                    if hit {
                        hits_slot[ci] += 1;
                    }
                    if let Some(tel) = &self.telemetry {
                        // Histograms need every sample; the counters
                        // flush once per slot below.
                        tel.tct[ci].record(tct);
                    }
                }

                if d.fault || d.degraded_local {
                    fault_slots += 1;
                }
                offload_sum += x;
                offload_slots += 1;
                q_sum += obs.q;
                h_sum += obs.h;
                x_sum += x;
            }
            if let Some(tel) = &self.telemetry {
                tel.queue_q.push(t_s, q_sum / n as f64);
                tel.queue_h.push(t_s, h_sum / n as f64);
                tel.offload_x.push(t_s, x_sum / n as f64);
                // One atomic add per counter per slot instead of one
                // per request; totals match the per-request increments
                // exactly.
                for ci in 0..3 {
                    if offered_slot[ci] > 0 {
                        tel.offered[ci].add(offered_slot[ci]);
                    }
                    if admitted_slot[ci] > 0 {
                        tel.admitted[ci].add(admitted_slot[ci]);
                    }
                    if shed_slot[ci] > 0 {
                        tel.shed[ci].add(shed_slot[ci]);
                    }
                    if hits_slot[ci] > 0 {
                        tel.deadline_hits[ci].add(hits_slot[ci]);
                    }
                }
            }
            offered_slot = [0; 3];
            admitted_slot = [0; 3];
            shed_slot = [0; 3];
            hits_slot = [0; 3];
            means = quants.into_means();
        }

        let final_backlog = states.iter().map(|s| s.queue.q() + s.queue.h()).sum();
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
    fn diurnal_with_infinite_peak_is_a_config_error() {
        assert!(matches!(
            diurnal(60.0, f64::INFINITY),
            Err(LeimeError::Config(_))
        ));
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
            assert_eq!(h.count, report.class(c).admitted);
            if h.count > 0 {
                assert!(h.p999.is_some());
            }
        }
        assert!(snap.series_named("serve.queue_q").is_some());
        assert!(snap.series_named("serve.offload_x").is_some());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (scenario, mut config) = serving_testbed(ModelKind::SqueezeNet, 2, 1.0);
        config.traffic.load = 0.0;
        assert!(ServingSystem::new(scenario, config).is_err());
    }
}
