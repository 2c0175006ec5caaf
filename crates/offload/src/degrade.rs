//! Graceful degradation: timeout → bounded retry → local fallback.
//!
//! The paper's controller assumes the uplink exists; "in the wild" it
//! sometimes does not. This module adds the robustness policy the
//! evaluation (§IV, COMCAST-shaped links) implies: when a slot's
//! transmission to the edge times out, the device retries a bounded
//! number of times, then falls back to fully-local execution
//! (`x_i(t) = 0`, First-exit on device) and probes the edge with
//! exponential backoff until it answers again. Queue evolution under the
//! fallback still follows Eq. 10–11 — `x = 0` is always inside the
//! feasibility region of Eq. 8, so the Lyapunov analysis keeps holding
//! while degraded.
//!
//! The state machine is deliberately decoupled from *why* the edge is
//! unreachable: callers feed it a per-slot reachability observation
//! (from `leime-chaos` health queries, or a real transport's timeouts)
//! and the optimiser's proposed ratio, and it returns the ratio actually
//! used plus which transition happened (for telemetry).

use serde::{Deserialize, Serialize};

use leime_invariant as invariant;

/// Tunable degradation policy: how patient a device is with a silent
/// edge before executing everything locally.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradePolicy {
    /// Failed retries tolerated before falling back to local execution.
    pub max_retries: u32,
    /// First backoff interval, in slots, once fallen back.
    pub backoff_base_slots: u32,
    /// Multiplier applied to the backoff after each failed probe.
    pub backoff_factor: f64,
    /// Upper bound on the backoff interval, in slots.
    pub max_backoff_slots: u32,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            max_retries: 3,
            backoff_base_slots: 2,
            backoff_factor: 2.0,
            max_backoff_slots: 16,
        }
    }
}

impl DegradePolicy {
    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.backoff_base_slots == 0 {
            return Err("backoff_base_slots must be ≥ 1".to_string());
        }
        if !(self.backoff_factor.is_finite() && self.backoff_factor >= 1.0) {
            return Err(format!(
                "backoff_factor {} must be finite and ≥ 1",
                self.backoff_factor
            ));
        }
        if self.max_backoff_slots < self.backoff_base_slots {
            return Err("max_backoff_slots must be ≥ backoff_base_slots".to_string());
        }
        Ok(())
    }

    /// The backoff following `current` slots of backoff.
    fn next_backoff(&self, current: u32) -> u32 {
        let scaled = (f64::from(current) * self.backoff_factor).ceil();
        if scaled >= f64::from(self.max_backoff_slots) {
            self.max_backoff_slots
        } else {
            // `ceil` of a finite positive f64 below u32::MAX-range cap.
            scaled as u32
        }
    }
}

/// Where a device currently stands in the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeMode {
    /// Edge reachable; the optimiser's ratio is used unchanged.
    Normal,
    /// Recent transmissions timed out; retrying every slot.
    Retrying {
        /// Failed attempts so far (1-based).
        attempt: u32,
    },
    /// Fully-local execution; the edge is probed at `probe_at_slot`.
    Fallback {
        /// Slot index of the next reachability probe.
        probe_at_slot: u64,
        /// Current backoff interval in slots.
        backoff_slots: u32,
    },
}

/// Per-device degradation state (one per device, owned by the driving
/// system — the [`crate::OffloadController`] trait is stateless).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeState {
    mode: DegradeMode,
}

impl Default for DegradeState {
    fn default() -> Self {
        DegradeState {
            mode: DegradeMode::Normal,
        }
    }
}

/// What one `degraded_decide` call did, for telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DegradeOutcome {
    /// The offloading ratio actually applied this slot.
    pub x: f64,
    /// A transmission (or probe) found the edge unreachable.
    pub timed_out: bool,
    /// A retry was scheduled for the next slot.
    pub retried: bool,
    /// The device gave up retrying and fell back to local execution.
    pub fell_back: bool,
    /// The edge answered again and normal offloading resumed.
    pub recovered: bool,
}

impl DegradeState {
    /// A device in normal operation.
    pub fn new() -> Self {
        DegradeState::default()
    }

    /// Current mode (for reports).
    pub fn mode(&self) -> DegradeMode {
        self.mode
    }

    /// Whether the device is currently executing fully locally.
    pub fn is_fallback(&self) -> bool {
        matches!(self.mode, DegradeMode::Fallback { .. })
    }

    /// Applies the degradation ladder to one slot's decision.
    ///
    /// `edge_reachable` is the slot's transmission-level observation
    /// (link up *and* edge up); `x_opt` is the ratio the optimiser wants.
    /// Returns the ratio to actually use — `x_opt` when healthy, `0`
    /// (fully local, First-exit on device) in every degraded slot — plus
    /// the transitions taken.
    #[inline]
    pub fn degraded_decide(
        &mut self,
        policy: &DegradePolicy,
        slot: u64,
        edge_reachable: bool,
        x_opt: f64,
    ) -> DegradeOutcome {
        let mut out = DegradeOutcome::default();
        match self.mode {
            DegradeMode::Normal => {
                if edge_reachable {
                    out.x = x_opt;
                } else {
                    // Transmission lost: this slot's tasks run locally and
                    // the device enters the retry ladder.
                    out.timed_out = true;
                    if policy.max_retries == 0 {
                        out.fell_back = true;
                        self.mode = DegradeMode::Fallback {
                            probe_at_slot: slot + u64::from(policy.backoff_base_slots),
                            backoff_slots: policy.backoff_base_slots,
                        };
                    } else {
                        out.retried = true;
                        self.mode = DegradeMode::Retrying { attempt: 1 };
                    }
                }
            }
            DegradeMode::Retrying { attempt } => {
                if edge_reachable {
                    out.recovered = true;
                    out.x = x_opt;
                    self.mode = DegradeMode::Normal;
                } else {
                    out.timed_out = true;
                    if attempt >= policy.max_retries {
                        out.fell_back = true;
                        self.mode = DegradeMode::Fallback {
                            probe_at_slot: slot + u64::from(policy.backoff_base_slots),
                            backoff_slots: policy.backoff_base_slots,
                        };
                    } else {
                        out.retried = true;
                        self.mode = DegradeMode::Retrying {
                            attempt: attempt + 1,
                        };
                    }
                }
            }
            DegradeMode::Fallback {
                probe_at_slot,
                backoff_slots,
            } => {
                if slot >= probe_at_slot {
                    if edge_reachable {
                        out.recovered = true;
                        out.x = x_opt;
                        self.mode = DegradeMode::Normal;
                    } else {
                        out.timed_out = true;
                        let next = policy.next_backoff(backoff_slots);
                        self.mode = DegradeMode::Fallback {
                            probe_at_slot: slot + u64::from(next),
                            backoff_slots: next,
                        };
                    }
                }
                // Before the probe slot: stay silent, stay local.
            }
        }
        out.x = invariant::check_unit_interval("offload.degrade.decide", out.x);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> DegradePolicy {
        DegradePolicy::default()
    }

    #[test]
    fn default_policy_is_valid() {
        assert!(policy().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut p = policy();
        p.backoff_base_slots = 0;
        assert!(p.validate().is_err());
        let mut p = policy();
        p.backoff_factor = 0.5;
        assert!(p.validate().is_err());
        let mut p = policy();
        p.max_backoff_slots = 1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn healthy_edge_passes_optimiser_ratio_through() {
        let mut s = DegradeState::new();
        let out = s.degraded_decide(&policy(), 0, true, 0.63);
        assert_eq!(
            out,
            DegradeOutcome {
                x: 0.63,
                ..DegradeOutcome::default()
            }
        );
        assert_eq!(s.mode(), DegradeMode::Normal);
    }

    #[test]
    fn timeout_retries_then_falls_back_after_budget() {
        let p = policy(); // max_retries = 3
        let mut s = DegradeState::new();
        // Slot 0: first loss → retry 1.
        let o0 = s.degraded_decide(&p, 0, false, 0.5);
        assert!(o0.timed_out && o0.retried && !o0.fell_back);
        assert_eq!(o0.x.to_bits(), 0.0_f64.to_bits());
        // Slots 1–2: retries 2 and 3.
        for slot in 1..=2 {
            let o = s.degraded_decide(&p, slot, false, 0.5);
            assert!(o.retried, "slot {slot} should still retry");
        }
        assert_eq!(s.mode(), DegradeMode::Retrying { attempt: 3 });
        // Slot 3: retry budget exhausted → fallback.
        let o3 = s.degraded_decide(&p, 3, false, 0.5);
        assert!(o3.fell_back && !o3.retried);
        assert!(s.is_fallback());
        assert_eq!(
            s.mode(),
            DegradeMode::Fallback {
                probe_at_slot: 3 + 2,
                backoff_slots: 2
            }
        );
    }

    #[test]
    fn fallback_probes_with_exponential_backoff() {
        let p = policy();
        let mut s = DegradeState {
            mode: DegradeMode::Fallback {
                probe_at_slot: 10,
                backoff_slots: 2,
            },
        };
        // Before the probe slot: silent, fully local, no timeout counted.
        let quiet = s.degraded_decide(&p, 9, false, 0.5);
        assert_eq!(quiet, DegradeOutcome::default());
        // Probe fails: backoff doubles (2 → 4).
        let probe = s.degraded_decide(&p, 10, false, 0.5);
        assert!(probe.timed_out);
        assert_eq!(
            s.mode(),
            DegradeMode::Fallback {
                probe_at_slot: 14,
                backoff_slots: 4
            }
        );
        // Next failed probe: 4 → 8; then 8 → 16; then capped at 16.
        s.degraded_decide(&p, 14, false, 0.5);
        s.degraded_decide(&p, 22, false, 0.5);
        let o = s.degraded_decide(&p, 38, false, 0.5);
        assert!(o.timed_out);
        assert_eq!(
            s.mode(),
            DegradeMode::Fallback {
                probe_at_slot: 38 + 16,
                backoff_slots: 16
            }
        );
    }

    #[test]
    fn recovery_from_retry_and_from_fallback() {
        let p = policy();
        let mut s = DegradeState::new();
        s.degraded_decide(&p, 0, false, 0.5);
        let back = s.degraded_decide(&p, 1, true, 0.5);
        assert!(back.recovered);
        assert_eq!(back.x.to_bits(), 0.5_f64.to_bits());
        assert_eq!(s.mode(), DegradeMode::Normal);

        let mut s = DegradeState {
            mode: DegradeMode::Fallback {
                probe_at_slot: 5,
                backoff_slots: 4,
            },
        };
        let probe = s.degraded_decide(&p, 5, true, 0.7);
        assert!(probe.recovered);
        assert_eq!(probe.x.to_bits(), 0.7_f64.to_bits());
        assert_eq!(s.mode(), DegradeMode::Normal);
    }

    #[test]
    fn zero_retry_budget_falls_back_immediately() {
        let mut p = policy();
        p.max_retries = 0;
        let mut s = DegradeState::new();
        let o = s.degraded_decide(&p, 0, false, 0.5);
        assert!(o.timed_out && o.fell_back && !o.retried);
        assert!(s.is_fallback());
    }

    #[test]
    fn policy_serialises_round_trip() {
        let p = policy();
        let json = serde_json::to_string(&p).unwrap();
        let back: DegradePolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
