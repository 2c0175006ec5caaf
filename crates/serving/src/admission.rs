//! The admission controller: sheds offered load that would push the
//! Eq. 10–11 queue recursions past their stability bounds.
//!
//! Shedding is priority-ordered — best-effort first, latency-critical
//! last (the [`crate::SlaClass`] variant order). The stability question
//! itself is delegated to `leime-invariant`'s non-panicking
//! [`invariant::within_bound`] predicate, and the post-decision
//! backlogs are routed through the panic guards: an admission decision
//! that *worsened* a bound violation is a broken analysis, not an
//! overload.

use leime_invariant as invariant;
use serde::{Deserialize, Serialize};

use crate::SlaClass;

/// Stability-bound admission policy.
///
/// Bounds are expressed in *plan-task equivalents* — tasks of the
/// standard-class deployment — matching the units of the Eq. 10–11
/// queue recursions the serving runtime steps (see DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    /// Whether shedding is active; when `false` every request is
    /// admitted (the `ext_serving` no-admission baseline).
    pub enabled: bool,
    /// Eq. 10 device-backlog stability bound `Q_max`.
    pub q_bound: f64,
    /// Eq. 11 edge-backlog stability bound `H_max`.
    pub h_bound: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        // Calibrated on the Pi serving testbed (see `serving_testbed`):
        // the device quota is ~19.6 plan tasks/slot and the per-device
        // edge quota ~12, so these bounds cap the backlog-wait term
        // C^d_1 near one slot — deep enough to ride out Poisson bursts
        // at nominal load (<1% shed), shallow enough that admitted
        // latency-critical requests still meet a 2 s deadline under 2x
        // overload (EXPERIMENTS.md, `ext_serving`).
        AdmissionPolicy {
            enabled: true,
            q_bound: 15.0,
            h_bound: 20.0,
        }
    }
}

impl AdmissionPolicy {
    /// Sanity-checks the bounds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [("q_bound", self.q_bound), ("h_bound", self.h_bound)] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        Ok(())
    }
}

/// Per-class outcome of one device-slot admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionDecision {
    /// Requests admitted per class, indexed by [`SlaClass::index`].
    pub admitted: [u64; 3],
    /// Requests shed per class.
    pub shed: [u64; 3],
    /// Predicted end-of-slot device backlog `Q(t+1)` (plan-task
    /// equivalents) under the admitted load.
    pub predicted_q: f64,
    /// Predicted end-of-slot edge backlog `H(t+1)`.
    pub predicted_h: f64,
}

impl AdmissionDecision {
    /// Total admitted requests across classes.
    pub fn admitted_total(&self) -> u64 {
        self.admitted.iter().sum()
    }

    /// Total shed requests across classes.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }
}

/// How many whole tasks of per-task queue footprint `per` fit in
/// `room` (unbounded when the footprint is zero, e.g. `x = 0` leaves
/// the edge queue untouched).
fn fit(room: f64, per: f64) -> u64 {
    if per <= f64::EPSILON {
        return u64::MAX;
    }
    let k = (room / per + invariant::TOL).floor();
    if k <= 0.0 {
        0
    } else if k >= u64::MAX as f64 {
        u64::MAX
    } else {
        k as u64
    }
}

/// Decides, for one device-slot, how many offered requests of each class
/// to admit so the Eq. 10–11 queue recursions stay inside the policy's
/// stability bounds.
///
/// Inputs are in plan-task equivalents: `q`/`h` are the slot-start
/// backlogs, `device_quota`/`edge_quota` the slot's service quotas
/// `b_i(t)`/`c_i(t)`, `x` the applied offloading ratio, and
/// `weights[c]` converts one class-`c` request into plan tasks
/// (`μ₁_c / μ₁_std`). Classes are filled in priority order, so
/// best-effort is the first to shed.
///
/// Guarantee (property-tested): admitted load never pushes a predicted
/// backlog past `max(post-service backlog, bound)` — pre-existing
/// backlog above the bound is the degenerate case where everything
/// sheds except zero-footprint classes.
#[allow(clippy::too_many_arguments, reason = "the Eq. 10–11 slot state")]
pub fn admit(
    policy: &AdmissionPolicy,
    q: f64,
    h: f64,
    device_quota: f64,
    edge_quota: f64,
    x: f64,
    weights: [f64; 3],
    offered: [u64; 3],
) -> AdmissionDecision {
    let x = invariant::check_unit_interval("serving.admit.x", x).clamp(0.0, 1.0);
    let q = invariant::check_nonneg("serving.admit.q", q);
    let h = invariant::check_nonneg("serving.admit.h", h);
    // Post-service backlogs: what Eq. 10–11 leave before new arrivals.
    let q_after = (q - device_quota.max(0.0)).max(0.0);
    let h_after = (h - edge_quota.max(0.0)).max(0.0);

    let mut admitted = [0u64; 3];
    if policy.enabled {
        let mut q_room = (policy.q_bound - q_after).max(0.0);
        let mut h_room = (policy.h_bound - h_after).max(0.0);
        for class in SlaClass::ALL {
            let ci = class.index();
            let w = weights[ci].max(0.0);
            let per_q = (1.0 - x) * w;
            let per_h = x * w;
            let take = offered[ci].min(fit(q_room, per_q)).min(fit(h_room, per_h));
            admitted[ci] = take;
            q_room = (q_room - take as f64 * per_q).max(0.0);
            h_room = (h_room - take as f64 * per_h).max(0.0);
        }
    } else {
        admitted = offered;
    }

    let mut shed = [0u64; 3];
    let (mut dq, mut dh) = (0.0f64, 0.0f64);
    for ci in 0..3 {
        shed[ci] = offered[ci] - admitted[ci];
        let equiv = admitted[ci] as f64 * weights[ci].max(0.0);
        dq += (1.0 - x) * equiv;
        dh += x * equiv;
    }
    let predicted_q = invariant::check_nonneg("serving.admit.pred_q", q_after + dq);
    let predicted_h = invariant::check_nonneg("serving.admit.pred_h", h_after + dh);

    if policy.enabled {
        // The shedding contract. Slop scales with the admitted volume:
        // each fit/subtract step contributes relative rounding error.
        let slop = 1e-9 * (1.0 + dq.abs() + dh.abs());
        if !invariant::within_bound(predicted_q, q_after.max(policy.q_bound) + slop)
            || !invariant::within_bound(predicted_h, h_after.max(policy.h_bound) + slop)
        {
            invariant::violation(
                "serving.admit",
                &format!(
                    "admitted load breaks the stability bound: predicted \
                     (Q, H) = ({predicted_q}, {predicted_h}) against bounds \
                     ({}, {}) from backlog ({q}, {h})",
                    policy.q_bound, policy.h_bound
                ),
            );
        }
    }

    AdmissionDecision {
        admitted,
        shed,
        predicted_q,
        predicted_h,
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, reason = "clearer policy tweaks")]
mod tests {
    use super::*;

    const W: [f64; 3] = [1.0, 1.0, 1.0];

    #[test]
    fn default_policy_validates() {
        assert!(AdmissionPolicy::default().validate().is_ok());
        let mut p = AdmissionPolicy::default();
        p.q_bound = -1.0;
        assert!(p.validate().is_err());
        let mut p = AdmissionPolicy::default();
        p.h_bound = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn everything_admitted_when_disabled() {
        let p = AdmissionPolicy {
            enabled: false,
            q_bound: 1.0,
            h_bound: 1.0,
        };
        let d = admit(&p, 100.0, 100.0, 5.0, 5.0, 0.5, W, [10, 20, 30]);
        assert_eq!(d.admitted, [10, 20, 30]);
        assert_eq!(d.shed, [0, 0, 0]);
    }

    #[test]
    fn everything_admitted_with_headroom() {
        let p = AdmissionPolicy {
            enabled: true,
            q_bound: 100.0,
            h_bound: 100.0,
        };
        let d = admit(&p, 10.0, 5.0, 8.0, 4.0, 0.4, W, [5, 10, 5]);
        assert_eq!(d.admitted, [5, 10, 5]);
        assert_eq!(d.shed_total(), 0);
        assert!(d.predicted_q <= 100.0 + 1e-9);
        assert!(d.predicted_h <= 100.0 + 1e-9);
    }

    #[test]
    fn best_effort_sheds_first() {
        // Room for ~10 local tasks; LC and Std fill it, BE sheds.
        let p = AdmissionPolicy {
            enabled: true,
            q_bound: 10.0,
            h_bound: 10.0,
        };
        let d = admit(&p, 0.0, 0.0, 0.0, 0.0, 0.0, W, [4, 6, 8]);
        assert_eq!(d.admitted, [4, 6, 0]);
        assert_eq!(d.shed, [0, 0, 8]);
    }

    #[test]
    fn latency_critical_sheds_last() {
        let p = AdmissionPolicy {
            enabled: true,
            q_bound: 3.0,
            h_bound: 3.0,
        };
        let d = admit(&p, 0.0, 0.0, 0.0, 0.0, 0.0, W, [5, 5, 5]);
        assert_eq!(d.admitted, [3, 0, 0]);
        assert_eq!(d.shed, [2, 5, 5]);
    }

    #[test]
    fn full_backlog_sheds_everything_with_footprint() {
        let p = AdmissionPolicy {
            enabled: true,
            q_bound: 20.0,
            h_bound: 20.0,
        };
        // Backlog already at the bound after service; x strictly inside
        // (0, 1) gives every class a footprint on both queues.
        let d = admit(&p, 30.0, 25.0, 10.0, 5.0, 0.5, W, [7, 7, 7]);
        assert_eq!(d.admitted_total(), 0);
        assert_eq!(d.shed_total(), 21);
    }

    #[test]
    fn offload_ratio_moves_the_binding_queue() {
        let p = AdmissionPolicy {
            enabled: true,
            q_bound: 100.0,
            h_bound: 5.0,
        };
        // Fully offloaded: only the edge bound binds.
        let d = admit(&p, 0.0, 0.0, 0.0, 0.0, 1.0, W, [10, 0, 0]);
        assert_eq!(d.admitted, [5, 0, 0]);
        // Fully local: the edge bound is irrelevant.
        let d = admit(&p, 0.0, 0.0, 0.0, 0.0, 0.0, W, [10, 0, 0]);
        assert_eq!(d.admitted, [10, 0, 0]);
    }

    #[test]
    fn heavier_classes_consume_more_room() {
        let p = AdmissionPolicy {
            enabled: true,
            q_bound: 10.0,
            h_bound: 10.0,
        };
        // Latency-critical tasks at half the plan weight: twice as many fit.
        let d = admit(&p, 0.0, 0.0, 0.0, 0.0, 0.0, [0.5, 1.0, 1.0], [30, 0, 0]);
        assert_eq!(d.admitted, [20, 0, 0]);
    }

    #[test]
    fn service_quota_frees_room() {
        let p = AdmissionPolicy {
            enabled: true,
            q_bound: 10.0,
            h_bound: 10.0,
        };
        // Backlog 10 at the bound, but the slot serves 6 → room for 6.
        let d = admit(&p, 10.0, 0.0, 6.0, 0.0, 0.0, W, [10, 0, 0]);
        assert_eq!(d.admitted, [6, 0, 0]);
    }
}
