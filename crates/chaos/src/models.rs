//! Declarative fault models and their seed-driven compilation.
//!
//! A [`FaultModel`] describes a *process* ("links flap with 30% duty,
//! ~8 s per outage"); a [`ChaosConfig`] bundles models with a seed and an
//! optional fault window. Each (model, lane) pair draws alternating
//! good/bad episodes from its own sub-RNG ([`crate::LaneCursor`]) — so
//! adding a model or a device never perturbs the episodes another lane
//! draws, and the same seed always yields the same episodes.
//! [`ChaosConfig::compile`] drains every lane into a concrete
//! [`FaultSchedule`].

use crate::lanes::LaneCursor;
use crate::schedule::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
use leime_invariant as invariant;
use leime_simnet::SimTime;
use serde::{Deserialize, Serialize};

/// A stochastic fault process, parameterised by its duty cycle (long-run
/// fraction of time the fault is active, in `(0, 1)`) and mean episode
/// length in seconds. Episode and gap lengths are exponential, giving the
/// bursty on/off pattern COMCAST-style shaping produces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultModel {
    /// Per-device link blackouts ([`FaultKind::LinkBlackout`]).
    LinkFlaps {
        /// Fraction of the window each link spends dark.
        duty: f64,
        /// Mean blackout length in seconds.
        mean_outage_s: f64,
    },
    /// Shared-medium bandwidth shaping hitting every device at once
    /// ([`FaultKind::BandwidthCollapse`] on [`FaultTarget::AllDevices`]).
    BandwidthCollapse {
        /// Fraction of the window shaping is active.
        duty: f64,
        /// Bandwidth multiplier while active, in `(0, 1]`.
        factor: f64,
        /// Mean shaping-episode length in seconds.
        mean_episode_s: f64,
    },
    /// Per-device propagation-delay spikes ([`FaultKind::LatencySpike`]).
    LatencySpikes {
        /// Fraction of the window each link is spiked.
        duty: f64,
        /// Extra one-way latency in seconds while active.
        add_s: f64,
        /// Mean spike length in seconds.
        mean_episode_s: f64,
    },
    /// Edge-server slowdown — co-located load, thermal throttling
    /// ([`FaultKind::EdgeSlowdown`]).
    EdgeBrownout {
        /// Fraction of the window the edge runs slow.
        duty: f64,
        /// Edge FLOPS multiplier while active, in `(0, 1]`.
        factor: f64,
        /// Mean brownout length in seconds.
        mean_episode_s: f64,
    },
    /// Full edge-server outages ([`FaultKind::EdgeOutage`]).
    EdgeOutages {
        /// Fraction of the window the edge is down.
        duty: f64,
        /// Mean outage length in seconds.
        mean_outage_s: f64,
    },
    /// Per-device churn: the device leaves and rejoins the system
    /// ([`FaultKind::DeviceChurn`]).
    DeviceChurn {
        /// Fraction of the window each device is absent.
        duty: f64,
        /// Mean absence length in seconds.
        mean_absence_s: f64,
    },
}

impl FaultModel {
    /// Validates the model's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        let (duty, mean) = match *self {
            FaultModel::LinkFlaps {
                duty,
                mean_outage_s,
            }
            | FaultModel::EdgeOutages {
                duty,
                mean_outage_s,
            } => (duty, mean_outage_s),
            FaultModel::BandwidthCollapse {
                duty,
                factor,
                mean_episode_s,
            }
            | FaultModel::EdgeBrownout {
                duty,
                factor,
                mean_episode_s,
            } => {
                if !(factor.is_finite() && factor > 0.0 && factor <= 1.0) {
                    return Err(format!("model factor {factor} outside (0, 1]"));
                }
                (duty, mean_episode_s)
            }
            FaultModel::LatencySpikes {
                duty,
                add_s,
                mean_episode_s,
            } => {
                if !(add_s.is_finite() && add_s >= 0.0) {
                    return Err(format!("latency add {add_s} negative or non-finite"));
                }
                (duty, mean_episode_s)
            }
            FaultModel::DeviceChurn {
                duty,
                mean_absence_s,
            } => (duty, mean_absence_s),
        };
        if !(duty.is_finite() && duty > 0.0 && duty < 1.0) {
            return Err(format!("duty {duty} outside (0, 1)"));
        }
        if !(mean.is_finite() && mean > 0.0) {
            return Err(format!("mean episode length {mean} not positive"));
        }
        Ok(())
    }

    /// Duty cycle and mean episode length, post-validation.
    pub(crate) fn duty_mean(&self) -> (f64, f64) {
        match *self {
            FaultModel::LinkFlaps {
                duty,
                mean_outage_s,
            }
            | FaultModel::EdgeOutages {
                duty,
                mean_outage_s,
            } => (duty, mean_outage_s),
            FaultModel::BandwidthCollapse {
                duty,
                mean_episode_s,
                ..
            }
            | FaultModel::EdgeBrownout {
                duty,
                mean_episode_s,
                ..
            }
            | FaultModel::LatencySpikes {
                duty,
                mean_episode_s,
                ..
            } => (duty, mean_episode_s),
            FaultModel::DeviceChurn {
                duty,
                mean_absence_s,
            } => (duty, mean_absence_s),
        }
    }

    /// The event kind this model emits.
    pub(crate) fn kind(&self) -> FaultKind {
        match *self {
            FaultModel::LinkFlaps { .. } => FaultKind::LinkBlackout,
            FaultModel::BandwidthCollapse { factor, .. } => FaultKind::BandwidthCollapse { factor },
            FaultModel::LatencySpikes { add_s, .. } => FaultKind::LatencySpike { add_s },
            FaultModel::EdgeBrownout { factor, .. } => FaultKind::EdgeSlowdown { factor },
            FaultModel::EdgeOutages { .. } => FaultKind::EdgeOutage,
            FaultModel::DeviceChurn { .. } => FaultKind::DeviceChurn,
        }
    }

    /// Whether the model draws one lane per device (else one lane for
    /// the edge, or for every device at once).
    pub(crate) fn per_device(&self) -> bool {
        matches!(
            self,
            FaultModel::LinkFlaps { .. }
                | FaultModel::LatencySpikes { .. }
                | FaultModel::DeviceChurn { .. }
        )
    }

    /// The target of the model's lane `lane`.
    fn target(&self, lane: usize) -> FaultTarget {
        match self {
            _ if self.per_device() => FaultTarget::Device(lane),
            FaultModel::BandwidthCollapse { .. } => FaultTarget::AllDevices,
            _ => FaultTarget::Edge,
        }
    }
}

/// A seeded bundle of fault models — the full disturbance specification
/// for one run, serialisable alongside a `Scenario`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Master seed; every lane derives its own sub-stream from it.
    pub seed: u64,
    /// The fault processes to compose.
    pub models: Vec<FaultModel>,
    /// Faults are confined to `[0, window_s)`; `None` means the whole
    /// horizon. A window shorter than the horizon leaves a fault-free
    /// tail for recovery assertions.
    #[serde(default)]
    pub window_s: Option<f64>,
}

impl ChaosConfig {
    /// A config with no fault models (compiles to the empty schedule).
    pub fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            models: Vec::new(),
            window_s: None,
        }
    }

    /// Validates every model and the window.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid model or parameter.
    pub fn validate(&self) -> Result<(), String> {
        for (i, m) in self.models.iter().enumerate() {
            m.validate().map_err(|msg| format!("model {i}: {msg}"))?;
        }
        if let Some(w) = self.window_s {
            if !(w.is_finite() && w > 0.0) {
                return Err(format!("fault window {w} not positive"));
            }
        }
        Ok(())
    }

    /// The end of the fault window over a run of length `horizon`.
    pub(crate) fn window(&self, horizon: SimTime) -> SimTime {
        self.window_s
            .map_or(horizon, |w| SimTime::from_secs(w).min(horizon))
    }

    /// Compiles the config into a concrete schedule for `n_devices`
    /// devices over `[0, horizon)` of simulated time: every lane's
    /// episodes ([`LaneCursor`]), clipped to the fault window, in model,
    /// lane and time order.
    pub fn compile(&self, n_devices: usize, horizon: SimTime) -> FaultSchedule {
        invariant::check_nonneg("chaos.compile.horizon", horizon.as_secs());
        if let Err(msg) = self.validate() {
            invariant::violation("chaos.config", &msg);
        }
        let mut events = Vec::new();
        for (model_idx, model) in self.models.iter().enumerate() {
            let lanes = if model.per_device() { n_devices } else { 1 };
            for lane in 0..lanes {
                let (kind, target) = (model.kind(), model.target(lane));
                let cursor = LaneCursor::new(self, model_idx, lane, horizon);
                events.extend(cursor.episodes().map(|(start, end)| FaultEvent {
                    kind,
                    target,
                    start,
                    end,
                }));
            }
        }
        FaultSchedule::new_checked(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flaps(duty: f64) -> ChaosConfig {
        ChaosConfig {
            seed: 42,
            models: vec![FaultModel::LinkFlaps {
                duty,
                mean_outage_s: 5.0,
            }],
            window_s: None,
        }
    }

    #[test]
    fn same_seed_compiles_to_identical_schedule() {
        let cfg = flaps(0.3);
        let a = cfg.compile(4, SimTime::from_secs(500.0));
        let b = cfg.compile(4, SimTime::from_secs(500.0));
        assert_eq!(a, b);
        assert!(!a.events().is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let mut other = flaps(0.3);
        other.seed = 43;
        let a = flaps(0.3).compile(4, SimTime::from_secs(500.0));
        let b = other.compile(4, SimTime::from_secs(500.0));
        assert_ne!(a, b);
    }

    #[test]
    fn adding_a_device_preserves_existing_lanes() {
        let cfg = flaps(0.3);
        let small = cfg.compile(2, SimTime::from_secs(500.0));
        let large = cfg.compile(3, SimTime::from_secs(500.0));
        // Lanes 0 and 1 draw from their own sub-RNGs, so their events
        // reappear verbatim in the larger compilation.
        for e in small.events() {
            assert!(large.events().contains(e), "missing {e:?}");
        }
    }

    #[test]
    fn duty_cycle_is_approximately_honoured() {
        let horizon = 20_000.0;
        let s = flaps(0.3).compile(1, SimTime::from_secs(horizon));
        let active: f64 = s.events().iter().map(|e| (e.end - e.start).as_secs()).sum();
        let frac = active / horizon;
        assert!(
            (frac - 0.3).abs() < 0.05,
            "long-run blackout fraction {frac} should be near duty 0.3"
        );
    }

    #[test]
    fn window_confines_faults_and_leaves_recovery_tail() {
        let mut cfg = flaps(0.4);
        cfg.window_s = Some(100.0);
        let s = cfg.compile(2, SimTime::from_secs(300.0));
        assert!(!s.events().is_empty());
        let last_end = s.events().iter().map(|e| e.end).max();
        assert!(last_end.is_some_and(|end| end <= SimTime::from_secs(100.0)));
        for e in s.events() {
            assert!(e.end.as_secs() <= 100.0);
        }
    }

    #[test]
    fn quiet_config_compiles_empty() {
        let s = ChaosConfig::quiet(7).compile(8, SimTime::from_secs(100.0));
        assert!(s.events().is_empty());
    }

    #[test]
    fn validation_rejects_bad_models() {
        let bad_duty = ChaosConfig {
            seed: 1,
            models: vec![FaultModel::LinkFlaps {
                duty: 1.5,
                mean_outage_s: 5.0,
            }],
            window_s: None,
        };
        assert!(bad_duty.validate().is_err());
        let bad_factor = ChaosConfig {
            seed: 1,
            models: vec![FaultModel::EdgeBrownout {
                duty: 0.2,
                factor: 0.0,
                mean_episode_s: 5.0,
            }],
            window_s: None,
        };
        assert!(bad_factor.validate().is_err());
        let bad_window = ChaosConfig {
            window_s: Some(-1.0),
            ..ChaosConfig::quiet(1)
        };
        assert!(bad_window.validate().is_err());
    }

    #[test]
    fn edge_models_emit_edge_targets() {
        let cfg = ChaosConfig {
            seed: 9,
            models: vec![
                FaultModel::EdgeOutages {
                    duty: 0.2,
                    mean_outage_s: 10.0,
                },
                FaultModel::BandwidthCollapse {
                    duty: 0.3,
                    factor: 0.1,
                    mean_episode_s: 10.0,
                },
            ],
            window_s: None,
        };
        let s = cfg.compile(3, SimTime::from_secs(1_000.0));
        assert!(s
            .events()
            .iter()
            .all(|e| matches!(e.target, FaultTarget::Edge | FaultTarget::AllDevices)));
        assert!(s
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::EdgeOutage)));
        assert!(s
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::BandwidthCollapse { .. })));
    }

    #[test]
    fn config_serialises_round_trip() {
        let cfg = ChaosConfig {
            seed: 11,
            models: vec![FaultModel::LatencySpikes {
                duty: 0.25,
                add_s: 0.08,
                mean_episode_s: 4.0,
            }],
            window_s: Some(60.0),
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ChaosConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
