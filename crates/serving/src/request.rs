//! The request model: SLA classes, per-class deadlines and the class
//! mix of arriving traffic.

use serde::{Deserialize, Serialize};

/// Service-level class of a request.
///
/// The variant order *is* the priority order everywhere in this crate:
/// admission admits latency-critical first and sheds best-effort first,
/// and exit steering grants edge priority in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlaClass {
    /// Interactive requests with a tight deadline; shed last.
    LatencyCritical,
    /// The bulk of the traffic; default deadline.
    Standard,
    /// Background requests with a loose deadline; shed first.
    BestEffort,
}

impl SlaClass {
    /// Every class, in priority order (latency-critical first).
    pub const ALL: [SlaClass; 3] = [
        SlaClass::LatencyCritical,
        SlaClass::Standard,
        SlaClass::BestEffort,
    ];

    /// Dense index into per-class arrays (priority order).
    pub fn index(self) -> usize {
        match self {
            SlaClass::LatencyCritical => 0,
            SlaClass::Standard => 1,
            SlaClass::BestEffort => 2,
        }
    }

    /// Stable snake_case name used in telemetry metric names and JSON.
    pub fn name(self) -> &'static str {
        match self {
            SlaClass::LatencyCritical => "latency_critical",
            SlaClass::Standard => "standard",
            SlaClass::BestEffort => "best_effort",
        }
    }
}

/// Per-class serving policy: the deadline each class is judged against
/// and the class mix of arriving traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlaPolicy {
    /// Per-class completion deadline in seconds, indexed by
    /// [`SlaClass::index`].
    pub deadline_s: [f64; 3],
    /// Per-class arrival probabilities (must sum to 1), indexed the same
    /// way. Each request's class is an independent draw from this mix.
    pub mix: [f64; 3],
}

impl Default for SlaPolicy {
    fn default() -> Self {
        // Deadlines calibrated against the Pi-fleet serving testbed at
        // nominal load (healthy p99 TCT ≈ 1.8–2.2 s): latency-critical
        // sits at that p99, standard leaves ~2x headroom, best-effort
        // tolerates transient backlog (see EXPERIMENTS.md,
        // `ext_serving`).
        SlaPolicy {
            deadline_s: [2.0, 4.0, 12.0],
            mix: [0.2, 0.5, 0.3],
        }
    }
}

impl SlaPolicy {
    /// Sanity-checks deadlines and the class mix.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (c, &d) in SlaClass::ALL.iter().zip(&self.deadline_s) {
            if !(d.is_finite() && d > 0.0) {
                return Err(format!("{} deadline must be positive, got {d}", c.name()));
            }
        }
        let mut sum = 0.0;
        for (c, &p) in SlaClass::ALL.iter().zip(&self.mix) {
            if !(p.is_finite() && p >= 0.0) {
                return Err(format!("{} mix weight {p} invalid", c.name()));
            }
            sum += p;
        }
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("class mix sums to {sum}, not 1"));
        }
        Ok(())
    }

    /// The deadline for `class`, in seconds.
    pub fn deadline_for(&self, class: SlaClass) -> f64 {
        self.deadline_s[class.index()]
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, reason = "clearer policy tweaks")]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_ordered() {
        for (i, c) in SlaClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(SlaClass::LatencyCritical.index(), 0);
        assert_eq!(SlaClass::BestEffort.index(), 2);
    }

    #[test]
    fn default_policy_validates() {
        assert!(SlaPolicy::default().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_deadline_and_mix() {
        let mut p = SlaPolicy::default();
        p.deadline_s[0] = 0.0;
        assert!(p.validate().is_err());
        let mut p = SlaPolicy::default();
        p.mix = [0.5, 0.5, 0.5];
        assert!(p.validate().is_err());
        let mut p = SlaPolicy::default();
        p.mix = [0.5, -0.2, 0.7];
        assert!(p.validate().is_err());
    }
}
