use leime_chaos::{ChaosConfig, FaultModel};
use leime_dnn::{DnnChain, ExitRates, ExitSpec};
use leime_exitcfg::EnvParams;
use leime_offload::{
    CapabilityBased, DegradePolicy, DeviceOnly, DeviceParams, EdgeOnly, FixedRatio,
    LyapunovController, OffloadController, SharedParams,
};
use leime_simnet::TimeTrace;
use leime_workload::ExitRateModel;
use serde::{Deserialize, Serialize};

use crate::{Deployment, ExitStrategy, LeimeError, ModelKind, Result, RunReport, SlottedSystem};

/// Which per-slot offloading policy a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ControllerKind {
    /// LEIME's Lyapunov drift-plus-penalty controller.
    Lyapunov,
    /// Everything local (`D-only`, also the benchmarks' fixed policy).
    DeviceOnly,
    /// Everything offloaded (`E-only`).
    EdgeOnly,
    /// FLOPS-proportional split (`cap_based`).
    CapabilityBased,
    /// A constant ratio (the Fig. 3 sweep knob).
    Fixed(f64),
}

impl ControllerKind {
    /// Instantiates the policy object.
    pub fn build(self) -> Box<dyn OffloadController> {
        match self {
            ControllerKind::Lyapunov => Box::new(LyapunovController::new()),
            ControllerKind::DeviceOnly => Box::new(DeviceOnly),
            ControllerKind::EdgeOnly => Box::new(EdgeOnly),
            ControllerKind::CapabilityBased => Box::new(CapabilityBased),
            ControllerKind::Fixed(r) => Box::new(FixedRatio::new(r)),
        }
    }
}

/// The arrival workload shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Poisson per-slot counts with each device's configured mean,
    /// truncated at `max` tasks per slot.
    SlotPoisson {
        /// Truncation bound `M_{i,max}`.
        max: u64,
    },
    /// Exactly the configured mean every slot (deterministic load).
    Deterministic,
    /// Poisson counts whose mean follows a time trace (overrides every
    /// device's configured mean — the Fig. 9 dynamic-rate workload).
    RateTrace {
        /// The per-slot mean over time.
        trace: TimeTrace,
        /// Truncation bound.
        max: u64,
    },
    /// Bursty two-state MMPP arrivals per device: calm at the device's
    /// configured mean, bursting at `burst_factor` times it ("task arrival
    /// rates vary dynamically", §II-A).
    Bursty {
        /// Burst-state mean as a multiple of the calm mean.
        burst_factor: f64,
        /// Per-slot probability of entering a burst.
        p_enter: f64,
        /// Per-slot probability of leaving a burst.
        p_leave: f64,
        /// Truncation bound.
        max: u64,
    },
}

impl WorkloadKind {
    /// Sanity-checks the workload's parameters: MMPP switching
    /// probabilities in `[0, 1]`, a finite non-negative burst factor and
    /// finite non-negative rate-trace values.
    ///
    /// # Errors
    ///
    /// Returns [`LeimeError::Config`] naming the first violation.
    fn check(&self) -> Result<()> {
        match self {
            WorkloadKind::Bursty {
                burst_factor,
                p_enter,
                p_leave,
                ..
            } => {
                for (name, p) in [("p_enter", *p_enter), ("p_leave", *p_leave)] {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(LeimeError::Config(format!(
                            "bursty {name} must be in [0, 1], got {p}"
                        )));
                    }
                }
                if !(*burst_factor >= 0.0 && burst_factor.is_finite()) {
                    return Err(LeimeError::Config(format!(
                        "bursty burst_factor must be finite and non-negative, got {burst_factor}"
                    )));
                }
            }
            WorkloadKind::RateTrace { trace, .. } => {
                for &(_, v) in trace.points() {
                    if !(v >= 0.0 && v.is_finite()) {
                        return Err(LeimeError::Config(format!(
                            "rate trace values must be finite and non-negative, got {v}"
                        )));
                    }
                }
            }
            WorkloadKind::SlotPoisson { .. } | WorkloadKind::Deterministic => {}
        }
        Ok(())
    }
}

/// A declarative experiment description: the model, the hardware fleet,
/// the links, the workload and the control policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The DNN under test.
    pub model: ModelKind,
    /// Classifier classes (10 for the CIFAR-10 experiments).
    pub num_classes: usize,
    /// The end-device fleet (FLOPS, link, per-slot arrival mean each).
    pub devices: Vec<DeviceParams>,
    /// Total edge-server FLOPS `F^e`.
    pub edge_flops: f64,
    /// Cloud FLOPS `F^c`.
    pub cloud_flops: f64,
    /// Edge→cloud bandwidth in bits/second.
    pub cloud_bandwidth_bps: f64,
    /// Edge→cloud latency in seconds.
    pub cloud_latency_s: f64,
    /// Exit-classifier structure.
    pub exit_spec: ExitSpec,
    /// Parametric candidate exit-rate curve (dataset difficulty).
    pub exit_rates: ExitRateModel,
    /// Slot length `τ` in seconds.
    pub slot_len_s: f64,
    /// Lyapunov `V`.
    pub v: f64,
    /// The offloading policy.
    pub controller: ControllerKind,
    /// The arrival workload.
    pub workload: WorkloadKind,
    /// Optional multiplicative bandwidth trace applied to every device's
    /// link over time (the "wild edge" network dynamics of §II-A);
    /// `None` keeps links constant.
    #[serde(default)]
    pub bandwidth_scale: Option<TimeTrace>,
    /// Optional deterministic fault injection (`leime-chaos`): a seeded
    /// bundle of fault models, whose episodes a run draws forward in time
    /// on per-(model, lane) cursors.
    /// `None` runs fault-free.
    #[serde(default)]
    pub chaos: Option<ChaosConfig>,
    /// Graceful-degradation policy applied when faults make the edge
    /// unreachable (timeout → bounded retry → local fallback).
    #[serde(default)]
    pub degrade: DegradePolicy,
}

impl Scenario {
    /// A fleet of `n` Raspberry-Pi-class devices with the default edge and
    /// cloud, each generating `arrival_mean` tasks per slot.
    pub fn raspberry_pi_cluster(model: ModelKind, n: usize, arrival_mean: f64) -> Self {
        Scenario {
            model,
            num_classes: 10,
            devices: vec![DeviceParams::raspberry_pi(arrival_mean); n],
            edge_flops: 12.0e9,
            cloud_flops: 5.0e12,
            cloud_bandwidth_bps: 100.0e6,
            cloud_latency_s: 0.05,
            exit_spec: ExitSpec::default(),
            exit_rates: ExitRateModel::cifar_like(),
            slot_len_s: 1.0,
            v: 1.0e4,
            controller: ControllerKind::Lyapunov,
            workload: WorkloadKind::SlotPoisson { max: 1000 },
            bandwidth_scale: None,
            chaos: None,
            degrade: DegradePolicy::default(),
        }
    }

    /// Same fleet shape but Jetson-Nano-class devices.
    pub fn jetson_nano_cluster(model: ModelKind, n: usize, arrival_mean: f64) -> Self {
        let mut s = Scenario::raspberry_pi_cluster(model, n, arrival_mean);
        s.devices = vec![DeviceParams::jetson_nano(arrival_mean); n];
        s
    }

    /// The chaos testbed: a Pi fleet under a 30% link-blackout schedule
    /// plus shared-medium bandwidth collapses, with faults confined to
    /// `[0, fault_window_s)` so the tail of a longer run measures
    /// recovery. The arrival rate (20 tasks/slot) deliberately exceeds
    /// what a device sustains alone, so losing the edge *costs*
    /// something and the completion-rate comparison against a
    /// fully-local baseline is meaningful. Used by the `ext_chaos`
    /// experiment and the `integration_chaos` replay/degradation
    /// assertions.
    pub fn chaos_testbed(model: ModelKind, n: usize, seed: u64, fault_window_s: f64) -> Self {
        let mut s = Scenario::raspberry_pi_cluster(model, n, 20.0);
        s.chaos = Some(ChaosConfig {
            seed,
            models: vec![
                FaultModel::LinkFlaps {
                    duty: 0.3,
                    mean_outage_s: 8.0,
                },
                FaultModel::BandwidthCollapse {
                    duty: 0.2,
                    factor: 0.25,
                    mean_episode_s: 10.0,
                },
            ],
            window_s: Some(fault_window_s),
        });
        s
    }

    /// Sanity-checks the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`LeimeError::Config`] describing the first violation.
    // `!(x > 0)` deliberately rejects NaN as well as non-positive values.
    #[allow(clippy::neg_cmp_op_on_partial_ord, reason = "rejects NaN too")]
    pub fn validate(&self) -> Result<()> {
        if self.devices.is_empty() {
            return Err(LeimeError::Config("scenario has no devices".into()));
        }
        let mut fleet_flops = 0.0f64;
        for (i, d) in self.devices.iter().enumerate() {
            d.validate()
                .map_err(|e| LeimeError::Config(format!("device {i}: {e}")))?;
            fleet_flops += d.flops;
        }
        // `v = +∞` is the V→∞ limit (no queue pressure), so `v` need
        // only be positive.
        for (name, v, finite) in [
            ("edge_flops", self.edge_flops, true),
            ("cloud_flops", self.cloud_flops, true),
            ("cloud_bandwidth_bps", self.cloud_bandwidth_bps, true),
            ("slot_len_s", self.slot_len_s, true),
            ("v", self.v, false),
        ] {
            if !(v > 0.0 && (v.is_finite() || !finite)) {
                let need = if finite {
                    "finite and positive"
                } else {
                    "positive"
                };
                return Err(LeimeError::Config(format!(
                    "{name} must be {need}, got {v}"
                )));
            }
        }
        // The per-slot maths scale these: the Eq. 27 shares divide the
        // fleet's capacity by the edge's, and the Eq. 10–11 quotas
        // multiply a server's capacity by the slot length (all of them
        // together bound each one).
        let capacity = fleet_flops + self.edge_flops;
        for (derived, what) in [
            (capacity / self.edge_flops, "Eq. 27 capacity ratio"),
            (capacity * self.slot_len_s, "Eq. 10–11 service quotas"),
        ] {
            if !derived.is_finite() {
                return Err(LeimeError::Config(format!(
                    "{what} overflow: edge_flops {}, slot_len_s {}, \
                     {fleet_flops} device FLOPS in total",
                    self.edge_flops, self.slot_len_s
                )));
            }
        }
        if !(self.cloud_latency_s.is_finite() && self.cloud_latency_s >= 0.0) {
            return Err(LeimeError::Config(format!(
                "cloud_latency_s must be finite and non-negative, got {}",
                self.cloud_latency_s
            )));
        }
        if self.num_classes < 2 {
            return Err(LeimeError::Config("need at least 2 classes".into()));
        }
        if let Some(trace) = &self.bandwidth_scale {
            for &(_, v) in trace.points() {
                if !(v > 0.0 && v.is_finite()) {
                    return Err(LeimeError::Config(format!(
                        "bandwidth_scale values must be positive, got {v}"
                    )));
                }
            }
        }
        self.workload.check()?;
        // `device_slot` tallies a device-slot's exit tiers in `u32`s, so
        // no device-slot may draw more than `u32::MAX` tasks.
        let overflow = match &self.workload {
            WorkloadKind::SlotPoisson { max }
            | WorkloadKind::RateTrace { max, .. }
            | WorkloadKind::Bursty { max, .. } => (*max > u64::from(u32::MAX))
                .then_some("workload max exceeds u32::MAX tasks per device-slot"),
            WorkloadKind::Deterministic => self
                .devices
                .iter()
                .any(|d| d.arrival_mean >= f64::from(u32::MAX))
                .then_some("deterministic arrival mean reaches u32::MAX tasks per device-slot"),
        };
        if let Some(msg) = overflow {
            return Err(LeimeError::Config(msg.into()));
        }
        if let Some(chaos) = &self.chaos {
            chaos
                .validate()
                .map_err(|e| LeimeError::Config(format!("chaos: {e}")))?;
        }
        self.degrade
            .validate()
            .map_err(|e| LeimeError::Config(format!("degrade: {e}")))?;
        if let ControllerKind::Fixed(ratio) = self.controller {
            if !(0.0..=1.0).contains(&ratio) {
                return Err(LeimeError::Config(
                    "fixed offloading ratio must lie in [0, 1]".into(),
                ));
            }
        }
        Ok(())
    }

    /// The per-slot decision's fleet-wide parameters for `deployment`
    /// on this scenario, before chaos scales the edge.
    pub fn shared_params(&self, deployment: &Deployment) -> SharedParams {
        SharedParams {
            slot_len_s: self.slot_len_s,
            v: self.v,
            mu1: deployment.mu[0],
            mu2: deployment.mu[1],
            sigma1: deployment.sigma[0],
            d0_bytes: deployment.d[0],
            d1_bytes: deployment.d[1],
            edge_flops: self.edge_flops,
        }
    }

    /// Effective bandwidth of device `i` at time `t` under the optional
    /// bandwidth trace.
    pub(crate) fn bandwidth_at(&self, i: usize, t: leime_simnet::SimTime) -> f64 {
        let base = self.devices[i].bandwidth_bps;
        match &self.bandwidth_scale {
            Some(trace) => base * trace.value_at(t),
            None => base,
        }
    }

    /// Serialises the scenario to pretty JSON (for config files and
    /// experiment provenance).
    ///
    /// # Errors
    ///
    /// Returns [`LeimeError::Config`] if serialisation fails (cannot occur
    /// for well-formed scenarios).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| LeimeError::Config(format!("serialisation failed: {e}")))
    }

    /// Parses and validates a scenario from JSON. A key that is not a
    /// scenario field is an error at any depth (`devices[0].flop`,
    /// `chaos.window`), so a misspelled optional field (`"choas"`,
    /// `"window"`) never loads as its default and a stray one is never
    /// silently ignored.
    ///
    /// # Errors
    ///
    /// Returns [`LeimeError::Config`] on parse or validation failure or
    /// for an unknown key, naming its path (`chaos.window`).
    pub fn from_json(json: &str) -> Result<Self> {
        let invalid = |e| LeimeError::Config(format!("invalid scenario JSON: {e}"));
        let value: serde_json::Value = serde_json::from_str(json).map_err(invalid)?;
        let scenario = Scenario::from_value(&value).map_err(invalid)?;
        // Every field serializes, `None`s as `null`, so the scenario's
        // own keys are the known ones. `degrade` is checked only at the
        // top: configs may still carry its retired `timeout_slots`.
        let known = serde_json::to_value(&scenario);
        let unknown = value
            .as_object()
            .into_iter()
            .flat_map(|top| top.iter())
            .find_map(|(key, input)| match known.get(key) {
                None => Some(key.clone()),
                Some(_) if key == "degrade" => None,
                Some(known) => unknown_key(input, known, key),
            });
        if let Some(path) = unknown {
            return Err(LeimeError::Config(format!(
                "invalid scenario JSON: unknown key `{path}`"
            )));
        }
        scenario.validate()?;
        Ok(scenario)
    }

    /// Builds the scenario's DNN chain.
    pub fn chain(&self) -> DnnChain {
        self.model.build(self.num_classes)
    }

    /// Candidate exit rates for the chain under the configured exit-rate
    /// model.
    pub fn candidate_rates(&self) -> ExitRates {
        self.exit_rates.rates_for_chain(&self.chain())
    }

    /// The *average* environment used for exit setting (the paper's
    /// `F^d_av`, `B^e_av`, … in Table I): fleet means for the device side,
    /// and an equal share of the edge per device.
    pub fn avg_env(&self) -> EnvParams {
        let n = self.devices.len().max(1) as f64;
        let mean = |f: fn(&DeviceParams) -> f64| self.devices.iter().map(f).sum::<f64>() / n;
        EnvParams {
            device_flops: mean(|d| d.flops),
            edge_flops: self.edge_flops / n,
            cloud_flops: self.cloud_flops,
            edge_bandwidth_bps: mean(|d| d.bandwidth_bps),
            edge_latency_s: mean(|d| d.latency_s),
            cloud_bandwidth_bps: self.cloud_bandwidth_bps,
            cloud_latency_s: self.cloud_latency_s,
        }
    }

    /// Runs the model-level exit setting for `strategy`.
    ///
    /// # Errors
    ///
    /// Propagates configuration and model errors.
    pub fn deploy(&self, strategy: ExitStrategy) -> Result<Deployment> {
        self.validate()?;
        let chain = self.chain();
        let rates = self.exit_rates.rates_for_chain(&chain);
        Deployment::compute(strategy, &chain, self.exit_spec, &rates, self.avg_env())
    }

    /// Runs the paper's slotted queueing model for `slots` time slots.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn run_slotted(
        &self,
        deployment: &Deployment,
        slots: usize,
        seed: u64,
    ) -> Result<RunReport> {
        self.validate()?;
        SlottedSystem::new(self.clone(), deployment.clone())?.run(slots, seed)
    }

    /// Like [`Scenario::run_slotted`], but shards the per-slot device
    /// loop across up to `workers` threads (see
    /// [`SlottedSystem::run_with_workers`]). The report is byte-identical
    /// to [`Scenario::run_slotted`] at the same seed for every worker
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors and parallel-layer failures.
    pub fn run_slotted_workers(
        &self,
        deployment: &Deployment,
        slots: usize,
        seed: u64,
        workers: std::num::NonZeroUsize,
    ) -> Result<RunReport> {
        self.validate()?;
        SlottedSystem::new(self.clone(), deployment.clone())?.run_with_workers(slots, seed, workers)
    }

    /// Like [`Scenario::run_slotted`], but records per-slot telemetry into
    /// `registry` under `prefix` (see
    /// [`SlottedSystem::attach_registry`]).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn run_slotted_with_registry(
        &self,
        deployment: &Deployment,
        slots: usize,
        seed: u64,
        registry: &leime_telemetry::Registry,
        prefix: &str,
    ) -> Result<RunReport> {
        self.validate()?;
        let mut system = SlottedSystem::new(self.clone(), deployment.clone())?;
        system.attach_registry(registry, prefix);
        system.run(slots, seed)
    }
}

/// The path, below `path`, of the first object key in `input` that its
/// re-serialized counterpart `known` lacks, at any depth.
fn unknown_key(input: &serde_json::Value, known: &serde_json::Value, path: &str) -> Option<String> {
    use serde_json::Value;
    match (input, known) {
        (Value::Object(input), Value::Object(known)) => input.iter().find_map(|(key, v)| {
            let path = format!("{path}.{key}");
            match known.get(key) {
                None => Some(path),
                Some(k) => unknown_key(v, k, &path),
            }
        }),
        (Value::Array(input), Value::Array(known)) => input
            .iter()
            .zip(known)
            .enumerate()
            .find_map(|(i, (v, k))| unknown_key(v, k, &format!("{path}[{i}]"))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leime_dnn::MultiExitDnn;

    #[test]
    fn presets_validate() {
        assert!(Scenario::raspberry_pi_cluster(ModelKind::Vgg16, 4, 5.0)
            .validate()
            .is_ok());
        assert!(Scenario::jetson_nano_cluster(ModelKind::SqueezeNet, 2, 5.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_fixed_ratios_outside_the_unit_interval() {
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::Vgg16, 1, 5.0);
        for ratio in [1.5, -0.1, f64::NAN] {
            s.controller = ControllerKind::Fixed(ratio);
            assert!(
                matches!(s.validate(), Err(LeimeError::Config(_))),
                "Fixed({ratio}) validated"
            );
        }
        for ratio in [0.0, 0.5, 1.0] {
            s.controller = ControllerKind::Fixed(ratio);
            assert!(s.validate().is_ok(), "Fixed({ratio}) rejected");
        }
    }

    #[test]
    fn validation_rejects_empty_fleet() {
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::Vgg16, 1, 5.0);
        s.devices.clear();
        assert!(matches!(s.validate(), Err(LeimeError::Config(_))));
    }

    #[test]
    fn validation_rejects_bad_scalars() {
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::Vgg16, 1, 5.0);
        s.edge_flops = 0.0;
        assert!(s.validate().is_err());
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::Vgg16, 1, 5.0);
        s.cloud_latency_s = -0.1;
        assert!(s.validate().is_err());
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::Vgg16, 1, 5.0);
        s.num_classes = 1;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_bounds_tasks_per_device_slot() {
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::Vgg16, 2, 5.0);
        let cap = u64::from(u32::MAX);
        let trace = TimeTrace::constant(5.0);
        for (max, ok) in [(cap, true), (cap + 1, false), (u64::MAX, false)] {
            for workload in [
                WorkloadKind::SlotPoisson { max },
                WorkloadKind::RateTrace {
                    trace: trace.clone(),
                    max,
                },
                WorkloadKind::Bursty {
                    burst_factor: 2.0,
                    p_enter: 0.1,
                    p_leave: 0.5,
                    max,
                },
            ] {
                s.workload = workload;
                let res = s.validate();
                assert_eq!(res.is_ok(), ok, "{:?}: {res:?}", s.workload);
                assert!(ok || matches!(res, Err(LeimeError::Config(_))));
            }
        }
        s.workload = WorkloadKind::Deterministic;
        for (mean, ok) in [
            (f64::from(u32::MAX) - 0.5, true),
            (f64::from(u32::MAX), false),
            (1e12, false),
        ] {
            s.devices[1].arrival_mean = mean;
            let res = s.validate();
            assert_eq!(res.is_ok(), ok, "mean {mean}: {res:?}");
            assert!(ok || matches!(res, Err(LeimeError::Config(_))));
        }
    }

    /// A malformed workload must fail `SlottedSystem::new` with a typed
    /// error naming it, not panic there or later in `run`.
    fn bad_workload_is_rejected(workload: WorkloadKind, expected: &str) {
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 5.0);
        let deployment = s.deploy(crate::ExitStrategy::Leime).unwrap();
        s.workload = workload;
        match crate::SlottedSystem::new(s, deployment) {
            Err(LeimeError::Config(msg)) => assert_eq!(msg, expected),
            other => panic!("{expected:?} not reported: {other:?}"),
        }
    }

    fn bursty(burst_factor: f64, p_enter: f64, p_leave: f64) -> WorkloadKind {
        WorkloadKind::Bursty {
            burst_factor,
            p_enter,
            p_leave,
            max: 50,
        }
    }

    #[test]
    fn validation_rejects_bursty_p_enter_outside_unit_interval() {
        bad_workload_is_rejected(
            bursty(2.0, 1.5, 0.3),
            "bursty p_enter must be in [0, 1], got 1.5",
        );
    }

    #[test]
    fn validation_rejects_nan_bursty_p_leave() {
        bad_workload_is_rejected(
            bursty(2.0, 0.2, f64::NAN),
            "bursty p_leave must be in [0, 1], got NaN",
        );
    }

    #[test]
    fn validation_rejects_negative_burst_factor() {
        bad_workload_is_rejected(
            bursty(-1.0, 0.2, 0.3),
            "bursty burst_factor must be finite and non-negative, got -1",
        );
    }

    #[test]
    fn validation_rejects_negative_rate_trace_value() {
        let trace = TimeTrace::from_points(vec![
            (leime_simnet::SimTime::ZERO, 2.0),
            (leime_simnet::SimTime::from_secs(5.0), -1.0),
        ])
        .unwrap();
        bad_workload_is_rejected(
            WorkloadKind::RateTrace { trace, max: 40 },
            "rate trace values must be finite and non-negative, got -1",
        );
    }

    fn infinite_field_is_rejected(name: &str, set: fn(&mut Scenario)) {
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::Vgg16, 1, 5.0);
        set(&mut s);
        match s.validate() {
            Err(LeimeError::Config(msg)) => {
                assert_eq!(msg, format!("{name} must be finite and positive, got inf"))
            }
            other => panic!("{name} = inf validated: {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_infinite_edge_flops() {
        infinite_field_is_rejected("edge_flops", |s| s.edge_flops = f64::INFINITY);
    }

    #[test]
    fn validation_rejects_infinite_cloud_flops() {
        infinite_field_is_rejected("cloud_flops", |s| s.cloud_flops = f64::INFINITY);
    }

    #[test]
    fn validation_rejects_infinite_cloud_bandwidth() {
        infinite_field_is_rejected("cloud_bandwidth_bps", |s| {
            s.cloud_bandwidth_bps = f64::INFINITY
        });
    }

    #[test]
    fn validation_rejects_infinite_slot_len() {
        infinite_field_is_rejected("slot_len_s", |s| s.slot_len_s = f64::INFINITY);
    }

    #[test]
    fn validation_rejects_infinite_cloud_latency() {
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 5.0);
        let deployment = s.deploy(crate::ExitStrategy::Leime).unwrap();
        s.cloud_latency_s = f64::INFINITY;
        let expected = "cloud_latency_s must be finite and non-negative, got inf";
        match s.validate() {
            Err(LeimeError::Config(msg)) => assert_eq!(msg, expected),
            other => panic!("cloud_latency_s = inf validated: {other:?}"),
        }
        match crate::SlottedSystem::new(s, deployment) {
            Err(LeimeError::Config(msg)) => assert_eq!(msg, expected),
            other => panic!("cloud_latency_s = inf built a system: {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_edge_flops_that_overflow_the_share_ratio() {
        let mut s = Scenario::chaos_testbed(ModelKind::SqueezeNet, 3, 42, 60.0);
        s.edge_flops = 1e-300;
        match s.validate() {
            Err(LeimeError::Config(msg)) => assert!(msg.contains("Eq. 27"), "{msg}"),
            other => panic!("edge_flops = 1e-300 validated: {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_slot_len_that_overflows_the_quotas() {
        let mut s = Scenario::chaos_testbed(ModelKind::SqueezeNet, 3, 42, 60.0);
        s.slot_len_s = 1e300;
        match s.validate() {
            Err(LeimeError::Config(msg)) => assert!(msg.contains("Eq. 10–11"), "{msg}"),
            other => panic!("slot_len_s = 1e300 validated: {other:?}"),
        }
    }

    #[test]
    fn validation_accepts_infinite_v() {
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::Vgg16, 1, 5.0);
        s.v = f64::INFINITY;
        assert!(s.validate().is_ok());
        s.v = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn chaos_testbed_preset_validates() {
        let s = Scenario::chaos_testbed(ModelKind::SqueezeNet, 3, 42, 60.0);
        assert!(s.validate().is_ok());
        assert!(s.chaos.is_some());
    }

    #[test]
    fn validation_rejects_bad_chaos_and_degrade() {
        let mut s = Scenario::chaos_testbed(ModelKind::SqueezeNet, 2, 42, 60.0);
        if let Some(chaos) = &mut s.chaos {
            chaos.models.push(FaultModel::LinkFlaps {
                duty: 1.5,
                mean_outage_s: 5.0,
            });
        }
        assert!(matches!(s.validate(), Err(LeimeError::Config(_))));

        let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 5.0);
        s.degrade.backoff_base_slots = 0;
        assert!(matches!(s.validate(), Err(LeimeError::Config(_))));
    }

    #[test]
    fn avg_env_divides_edge_among_devices() {
        let s = Scenario::raspberry_pi_cluster(ModelKind::Vgg16, 4, 5.0);
        let env = s.avg_env();
        assert!((env.edge_flops - 3e9).abs() < 1e-3);
        assert!((env.device_flops - 1e9).abs() < 1e-3);
    }

    #[test]
    fn deploy_produces_consistent_combo() {
        let s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 5.0);
        let d = s.deploy(ExitStrategy::Leime).unwrap();
        let m = s.chain().num_layers();
        assert_eq!(d.combo.third, m - 1);
    }

    #[test]
    fn shared_params_reads_the_leime_partition() {
        let s = Scenario::raspberry_pi_cluster(ModelKind::Vgg16, 4, 5.0);
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let p = MultiExitDnn::new(s.chain(), s.exit_spec)
            .partition(dep.combo)
            .unwrap();
        let sp = s.shared_params(&dep);
        let bits = |x: f64| x.to_bits();
        assert_eq!(bits(sp.mu1), bits(p.block_flops()[0]));
        assert_eq!(bits(sp.mu2), bits(p.block_flops()[1]));
        assert_eq!(bits(sp.d0_bytes), bits(p.data_sizes()[0]));
        assert_eq!(bits(sp.d1_bytes), bits(p.data_sizes()[1]));
        assert_eq!(bits(sp.sigma1), bits(dep.sigma[0]));
        assert_eq!(bits(sp.slot_len_s), bits(s.slot_len_s));
        assert_eq!(bits(sp.v), bits(s.v));
        assert_eq!(bits(sp.edge_flops), bits(s.edge_flops));
        assert!(sp.validate().is_ok());
    }

    #[test]
    fn controller_kinds_build() {
        for kind in [
            ControllerKind::Lyapunov,
            ControllerKind::DeviceOnly,
            ControllerKind::EdgeOnly,
            ControllerKind::CapabilityBased,
            ControllerKind::Fixed(0.3),
        ] {
            let c = kind.build();
            assert!(!c.name().is_empty());
        }
    }
}
