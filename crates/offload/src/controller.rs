//! Per-slot offloading policies.

use crate::solver::{balance_solve, exact_solve, feasible_interval};
use crate::{DeviceParams, SharedParams, SlotCost};
use leime_invariant as invariant;
use serde::{Deserialize, Serialize};

/// What a controller observes about one device at the start of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotObservation {
    /// Device queue length `Q_i(t)`.
    pub q: f64,
    /// Edge queue length `H_i(t)`.
    pub h: f64,
    /// Edge resource share `p_i`.
    pub p_share: f64,
}

/// A per-slot offloading policy: maps the slot observation to an
/// offloading ratio `x_i(t) ∈ [0, 1]`.
///
/// Implementations must stay within the bandwidth-feasible interval
/// (constraint 8); the provided ones all do. A decision is a pure
/// function of `(shared, device, obs)` and records nothing: the driving
/// simulator records it (see [`crate::telemetry`]).
pub trait OffloadController: Send + Sync + std::fmt::Debug {
    /// Decides the offloading ratio for one device-slot.
    fn decide(&self, shared: SharedParams, device: DeviceParams, obs: SlotObservation) -> f64;

    /// Short policy name for experiment tables.
    fn name(&self) -> &'static str;

    /// Whether a recording driver should record this policy's decisions
    /// (queues, ratio and drift-plus-penalty objective, through
    /// [`crate::DecisionBatch`]). A per-policy constant: only policies
    /// with an objective worth tracing say yes.
    fn records_decisions(&self) -> bool {
        false
    }

    /// Decides one slot's ratios for a batch of independent devices,
    /// writing `out[i] = decide(shared[i], devices[i], obs[i])`.
    ///
    /// The default loops [`OffloadController::decide`]. An override must
    /// give every element exactly the bits the scalar call returns, so
    /// batched and per-device callers stay interchangeable (DESIGN.md §11).
    ///
    /// # Panics
    ///
    /// Implementations may panic if the slice lengths differ.
    fn decide_batch(
        &self,
        shared: &[SharedParams],
        devices: &[DeviceParams],
        obs: &[SlotObservation],
        out: &mut [f64],
    ) {
        for (i, x) in out.iter_mut().enumerate() {
            *x = self.decide(shared[i], devices[i], obs[i]);
        }
    }
}

/// LEIME's online controller: minimises the drift-plus-penalty objective.
/// With finite `V` it solves the convex per-device objective exactly
/// ([`exact_solve`]); with `V = ∞` it uses the paper's
/// decentralized balance condition `T_d = T_e` (§III-D4) — both restricted
/// to the bandwidth-feasible interval.
///
/// Its decisions are the ones a recording driver traces
/// ([`OffloadController::records_decisions`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct LyapunovController;

impl LyapunovController {
    /// The controller.
    pub fn new() -> Self {
        LyapunovController
    }
}

impl OffloadController for LyapunovController {
    fn decide(&self, shared: SharedParams, device: DeviceParams, obs: SlotObservation) -> f64 {
        let cost = SlotCost::new(shared, device, obs.q, obs.h, obs.p_share);
        let x = if shared.v.is_infinite() {
            balance_solve(&cost)
        } else {
            exact_solve(&cost)
        };
        invariant::check_unit_interval("offload.leime.decide", x)
    }

    fn name(&self) -> &'static str {
        "leime"
    }

    fn records_decisions(&self) -> bool {
        true
    }
}

/// Offloading ratio fixed at 0: everything runs on the device (`D-only`).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceOnly;

impl OffloadController for DeviceOnly {
    fn decide(&self, shared: SharedParams, device: DeviceParams, obs: SlotObservation) -> f64 {
        // x = 0 unless the bandwidth constraint binds from below (a huge
        // First-exit activation can make keeping tasks local infeasible).
        let cost = SlotCost::new(shared, device, obs.q, obs.h, obs.p_share);
        invariant::check_unit_interval("offload.d_only.decide", feasible_interval(&cost).0)
    }

    fn name(&self) -> &'static str {
        "d_only"
    }
}

/// Offloading ratio fixed at 1: everything goes to the edge (`E-only`).
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeOnly;

impl OffloadController for EdgeOnly {
    fn decide(&self, shared: SharedParams, device: DeviceParams, obs: SlotObservation) -> f64 {
        let cost = SlotCost::new(shared, device, obs.q, obs.h, obs.p_share);
        invariant::check_unit_interval("offload.e_only.decide", feasible_interval(&cost).1)
    }

    fn name(&self) -> &'static str {
        "e_only"
    }
}

/// Capability-proportional split (`cap_based`): offload in proportion to
/// the edge share's FLOPS versus the device's,
/// `x = p_i·F^e / (F_i^d + p_i·F^e)`, ignoring queues and data sizes.
#[derive(Debug, Clone, Copy, Default)]
pub struct CapabilityBased;

impl OffloadController for CapabilityBased {
    fn decide(&self, shared: SharedParams, device: DeviceParams, obs: SlotObservation) -> f64 {
        let edge_share = obs.p_share * shared.edge_flops;
        let x = edge_share / (device.flops + edge_share);
        let cost = SlotCost::new(shared, device, obs.q, obs.h, obs.p_share);
        let (lo, hi) = feasible_interval(&cost);
        invariant::check_unit_interval("offload.cap_based.decide", x.clamp(lo, hi))
    }

    fn name(&self) -> &'static str {
        "cap_based"
    }
}

/// A constant offloading ratio (the knob swept in the paper's Fig. 3).
#[derive(Debug, Clone, Copy)]
pub struct FixedRatio {
    ratio: f64,
}

impl FixedRatio {
    /// Creates a fixed-ratio policy.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `[0, 1]`.
    pub fn new(ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio), "ratio {ratio} outside [0, 1]");
        FixedRatio { ratio }
    }

    /// The configured ratio.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }
}

impl OffloadController for FixedRatio {
    fn decide(&self, shared: SharedParams, device: DeviceParams, obs: SlotObservation) -> f64 {
        let cost = SlotCost::new(shared, device, obs.q, obs.h, obs.p_share);
        let (lo, hi) = feasible_interval(&cost);
        invariant::check_unit_interval("offload.fixed.decide", self.ratio.clamp(lo, hi))
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(v: f64) -> SharedParams {
        SharedParams {
            slot_len_s: 1.0,
            v,
            mu1: 2e8,
            mu2: 5e8,
            sigma1: 0.4,
            d0_bytes: 12_288.0,
            d1_bytes: 30_000.0,
            edge_flops: 40e9,
        }
    }

    fn obs() -> SlotObservation {
        SlotObservation {
            q: 0.0,
            h: 0.0,
            p_share: 0.25,
        }
    }

    #[test]
    fn all_controllers_stay_in_unit_interval() {
        let dev = DeviceParams::raspberry_pi(10.0);
        let controllers: Vec<Box<dyn OffloadController>> = vec![
            Box::new(LyapunovController::new()),
            Box::new(DeviceOnly),
            Box::new(EdgeOnly),
            Box::new(CapabilityBased),
            Box::new(FixedRatio::new(0.4)),
        ];
        for c in &controllers {
            let x = c.decide(shared(1e4), dev, obs());
            assert!((0.0..=1.0).contains(&x), "{} gave {x}", c.name());
        }
    }

    #[test]
    fn device_only_keeps_everything_local() {
        let x = DeviceOnly.decide(shared(1e4), DeviceParams::raspberry_pi(10.0), obs());
        assert_eq!(x.to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn edge_only_offloads_to_the_cap() {
        let x = EdgeOnly.decide(shared(1e4), DeviceParams::raspberry_pi(10.0), obs());
        assert!(x > 0.9);
    }

    #[test]
    fn capability_based_matches_flops_ratio() {
        let dev = DeviceParams::raspberry_pi(10.0);
        let x = CapabilityBased.decide(shared(1e4), dev, obs());
        let want = 0.25 * 40e9 / (1e9 + 0.25 * 40e9);
        assert!((x - want).abs() < 1e-9);
    }

    #[test]
    fn lyapunov_with_infinite_v_balances() {
        let s = shared(f64::INFINITY);
        let dev = DeviceParams::raspberry_pi(10.0);
        let x = LyapunovController::new().decide(s, dev, obs());
        let cost = SlotCost::new(s, dev, 0.0, 0.0, 0.25);
        if x > 0.001 && x < 0.999 {
            let (td, te) = (cost.t_device(x), cost.t_edge(x));
            assert!((td - te).abs() / td.max(te) < 1e-5);
        }
    }

    #[test]
    fn lyapunov_adapts_to_edge_backlog() {
        let s = shared(1e3);
        let dev = DeviceParams::raspberry_pi(10.0);
        let idle = LyapunovController::new().decide(s, dev, obs());
        let mut loaded = obs();
        loaded.h = 100.0;
        let backed = LyapunovController::new().decide(s, dev, loaded);
        assert!(
            backed <= idle,
            "backlog should reduce offloading: {backed} vs {idle}"
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn fixed_ratio_validates() {
        FixedRatio::new(1.5);
    }

    /// `decide_batch` must be bitwise interchangeable with per-device
    /// `decide` — for every controller, at finite and infinite `V`.
    #[test]
    fn decide_batch_matches_scalar_decide_bitwise() {
        let controllers: Vec<Box<dyn OffloadController>> = vec![
            Box::new(LyapunovController::new()),
            Box::new(DeviceOnly),
            Box::new(EdgeOnly),
            Box::new(CapabilityBased),
            Box::new(FixedRatio::new(0.3)),
        ];
        for v in [1e4, f64::INFINITY] {
            let mut sh = Vec::new();
            let mut devs = Vec::new();
            let mut observations = Vec::new();
            for (i, k) in [0.0, 2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0, 23.0, 26.0]
                .iter()
                .enumerate()
            {
                sh.push(shared(v));
                devs.push(DeviceParams::raspberry_pi(*k));
                observations.push(SlotObservation {
                    q: i as f64 * 1.7,
                    h: (10 - i) as f64 * 0.9,
                    p_share: 0.1,
                });
            }
            for ctrl in &controllers {
                let mut out = vec![f64::NAN; sh.len()];
                ctrl.decide_batch(&sh, &devs, &observations, &mut out);
                for i in 0..sh.len() {
                    let scalar = ctrl.decide(sh[i], devs[i], observations[i]);
                    assert_eq!(
                        out[i].to_bits(),
                        scalar.to_bits(),
                        "{} lane {i} (v={v}): {} != {scalar}",
                        ctrl.name(),
                        out[i]
                    );
                }
            }
        }
    }
}
