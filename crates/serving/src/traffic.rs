//! Deterministic traffic generators: the offered-load shapes the
//! serving runtime is exercised under.
//!
//! A generator is a *rate-multiplier* process over each device's
//! configured per-slot arrival mean, plus a hard-sample fraction over
//! time. Both are pure functions of slot time except the Pareto burst
//! process, which draws one multiplier per slot from a dedicated RNG
//! stream (`stream_seed(seed, TRAFFIC_STREAM)`) — so every shape is
//! seed-deterministic and replayable (DESIGN.md §11, §12).

use leime_par::{Rng, StdRng};
use serde::{Deserialize, Serialize};

/// The RNG stream id reserved for the fleet-level traffic process
/// (devices use streams `0..n`, so this can never collide).
pub const TRAFFIC_STREAM: u64 = u64::MAX;

/// The offered-load shape over time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficModel {
    /// Flat offered load (the calibration baseline).
    Constant,
    /// Sinusoidal day/night cycle: the multiplier swings between
    /// `trough` and `peak` with period `period_s`, starting at the
    /// trough.
    Diurnal {
        /// Cycle length in seconds.
        period_s: f64,
        /// Minimum rate multiplier.
        trough: f64,
        /// Maximum rate multiplier.
        peak: f64,
    },
    /// Nominal load with a multiplicative spike inside
    /// `[start_s, start_s + duration_s)` — the flash-crowd shape.
    FlashCrowd {
        /// Spike onset in seconds.
        start_s: f64,
        /// Spike length in seconds.
        duration_s: f64,
        /// Rate multiplier while the crowd lasts.
        factor: f64,
    },
    /// Heavy-tailed per-slot bursts: each slot's multiplier is an
    /// independent Pareto(α) draw normalised to unit mean and clamped
    /// at `cap` (α > 1 so the mean exists).
    ParetoBursts {
        /// Tail index `α`; smaller is heavier (must exceed 1).
        alpha: f64,
        /// Upper clamp on the per-slot multiplier.
        cap: f64,
    },
    /// Adversarial hard-sample flood: the rate stays nominal, but inside
    /// the window a `hard_fraction` of requests refuse every early exit,
    /// collapsing the effective exit rate the controller sees.
    HardFlood {
        /// Flood onset in seconds.
        start_s: f64,
        /// Flood length in seconds.
        duration_s: f64,
        /// Hard-sample fraction while the flood lasts.
        hard_fraction: f64,
    },
}

/// A traffic generator: the shape, a global load multiplier and the
/// baseline hard-sample fraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// The offered-load shape.
    pub model: TrafficModel,
    /// Global offered-load multiplier applied on top of the shape (the
    /// `ext_serving` sweep knob).
    pub load: f64,
    /// Hard-sample fraction outside flood windows.
    pub base_hard_fraction: f64,
    /// Per-device per-slot arrival truncation bound.
    pub max_per_slot: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            model: TrafficModel::Constant,
            load: 1.0,
            base_hard_fraction: 0.05,
            max_per_slot: 1000,
        }
    }
}

impl TrafficConfig {
    /// Sanity-checks the generator.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    // `!(x > 0.0)` rejects NaN along with non-positives, per the repo's
    // validation idiom.
    #[allow(clippy::neg_cmp_op_on_partial_ord, reason = "rejects NaN too")]
    pub fn validate(&self) -> Result<(), String> {
        if !(self.load.is_finite() && self.load > 0.0) {
            return Err(format!("load must be positive, got {}", self.load));
        }
        if !(0.0..=1.0).contains(&self.base_hard_fraction) {
            return Err(format!(
                "base_hard_fraction {} outside [0, 1]",
                self.base_hard_fraction
            ));
        }
        if self.max_per_slot == 0 {
            return Err("max_per_slot must be at least 1".to_string());
        }
        match &self.model {
            TrafficModel::Constant => Ok(()),
            TrafficModel::Diurnal {
                period_s,
                trough,
                peak,
            } => {
                // Finite bounds keep `rate_factor` finite: an infinite
                // peak makes `(peak − trough)·0` at t = 0 a NaN.
                if !(period_s.is_finite() && *period_s > 0.0) {
                    return Err(format!(
                        "diurnal period must be positive and finite, got {period_s}"
                    ));
                }
                if !(peak.is_finite() && *trough > 0.0 && peak >= trough) {
                    return Err(format!(
                        "diurnal range [{trough}, {peak}] must satisfy 0 < trough <= peak < ∞"
                    ));
                }
                Ok(())
            }
            TrafficModel::FlashCrowd {
                start_s,
                duration_s,
                factor,
            } => {
                if !(*start_s >= 0.0 && *duration_s > 0.0) {
                    return Err(format!(
                        "flash-crowd window [{start_s}, +{duration_s}) invalid"
                    ));
                }
                if !(*factor >= 1.0 && factor.is_finite()) {
                    return Err(format!("flash-crowd factor {factor} must be >= 1"));
                }
                Ok(())
            }
            TrafficModel::ParetoBursts { alpha, cap } => {
                if !(*alpha > 1.0 && alpha.is_finite()) {
                    return Err(format!("pareto alpha {alpha} must exceed 1"));
                }
                if !(*cap >= 1.0 && cap.is_finite()) {
                    return Err(format!("pareto cap {cap} must be >= 1"));
                }
                Ok(())
            }
            TrafficModel::HardFlood {
                start_s,
                duration_s,
                hard_fraction,
            } => {
                if !(*start_s >= 0.0 && *duration_s > 0.0) {
                    return Err(format!(
                        "hard-flood window [{start_s}, +{duration_s}) invalid"
                    ));
                }
                if !(0.0..=1.0).contains(hard_fraction) {
                    return Err(format!("hard_fraction {hard_fraction} outside [0, 1]"));
                }
                Ok(())
            }
        }
    }

    /// The rate multiplier for the slot starting at `t_s` (load factor
    /// included). `rng` is the dedicated traffic stream; only the Pareto
    /// shape consumes draws from it, one per slot.
    pub fn rate_factor(&self, t_s: f64, rng: &mut StdRng) -> f64 {
        let shape = match &self.model {
            TrafficModel::Constant | TrafficModel::HardFlood { .. } => 1.0,
            TrafficModel::Diurnal {
                period_s,
                trough,
                peak,
            } => {
                let phase = (t_s / period_s) * std::f64::consts::TAU;
                trough + (peak - trough) * 0.5 * (1.0 - phase.cos())
            }
            TrafficModel::FlashCrowd {
                start_s,
                duration_s,
                factor,
            } => {
                if t_s >= *start_s && t_s < start_s + duration_s {
                    *factor
                } else {
                    1.0
                }
            }
            TrafficModel::ParetoBursts { alpha, cap } => {
                // Unit-mean Pareto: x_m = (α−1)/α, F⁻¹(u) = x_m·u^(−1/α).
                let u = (1.0 - rng.gen_range(0.0f64..1.0)).max(f64::MIN_POSITIVE);
                let xm = (alpha - 1.0) / alpha;
                (xm * u.powf(-1.0 / alpha)).min(*cap)
            }
        };
        self.load * shape
    }

    /// The largest multiplier [`TrafficConfig::rate_factor`] can return:
    /// the load times the shape's peak (the diurnal `peak`, the flash
    /// crowd's `factor`, the Pareto `cap`, and 1 for the flat shapes).
    pub fn max_rate_factor(&self) -> f64 {
        let peak = match &self.model {
            TrafficModel::Constant | TrafficModel::HardFlood { .. } => 1.0,
            TrafficModel::Diurnal { peak, .. } => *peak,
            TrafficModel::FlashCrowd { factor, .. } => *factor,
            TrafficModel::ParetoBursts { cap, .. } => *cap,
        };
        self.load * peak
    }

    /// The hard-sample fraction for the slot starting at `t_s`.
    pub fn hard_fraction(&self, t_s: f64) -> f64 {
        match &self.model {
            TrafficModel::HardFlood {
                start_s,
                duration_s,
                hard_fraction,
            } if t_s >= *start_s && t_s < start_s + duration_s => *hard_fraction,
            _ => self.base_hard_fraction,
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, reason = "clearer policy tweaks")]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        leime_par::stream_rng(42, TRAFFIC_STREAM)
    }

    #[test]
    fn default_config_validates() {
        assert!(TrafficConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let bad = |model| TrafficConfig {
            model,
            ..TrafficConfig::default()
        };
        assert!(bad(TrafficModel::Diurnal {
            period_s: 0.0,
            trough: 0.5,
            peak: 2.0
        })
        .validate()
        .is_err());
        assert!(bad(TrafficModel::Diurnal {
            period_s: 100.0,
            trough: 2.0,
            peak: 0.5
        })
        .validate()
        .is_err());
        // Non-finite bounds would turn `rate_factor` into NaN.
        for (period_s, peak) in [(100.0, f64::INFINITY), (f64::INFINITY, 2.0)] {
            let c = bad(TrafficModel::Diurnal {
                period_s,
                trough: 0.5,
                peak,
            });
            assert!(c.validate().is_err(), "{:?}", c.model);
        }
        assert!(bad(TrafficModel::FlashCrowd {
            start_s: 10.0,
            duration_s: 20.0,
            factor: 0.5
        })
        .validate()
        .is_err());
        assert!(bad(TrafficModel::ParetoBursts {
            alpha: 1.0,
            cap: 10.0
        })
        .validate()
        .is_err());
        assert!(bad(TrafficModel::HardFlood {
            start_s: 0.0,
            duration_s: 5.0,
            hard_fraction: 1.5
        })
        .validate()
        .is_err());
        let mut c = TrafficConfig::default();
        c.load = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn diurnal_swings_between_trough_and_peak() {
        let c = TrafficConfig {
            model: TrafficModel::Diurnal {
                period_s: 100.0,
                trough: 0.5,
                peak: 2.0,
            },
            ..TrafficConfig::default()
        };
        let mut r = rng();
        assert!((c.rate_factor(0.0, &mut r) - 0.5).abs() < 1e-12);
        assert!((c.rate_factor(50.0, &mut r) - 2.0).abs() < 1e-12);
        for t in 0..100 {
            let f = c.rate_factor(t as f64, &mut r);
            assert!((0.5..=2.0 + 1e-12).contains(&f));
        }
    }

    #[test]
    fn flash_crowd_spikes_only_inside_window() {
        let c = TrafficConfig {
            model: TrafficModel::FlashCrowd {
                start_s: 10.0,
                duration_s: 20.0,
                factor: 4.0,
            },
            ..TrafficConfig::default()
        };
        let mut r = rng();
        assert!((c.rate_factor(9.9, &mut r) - 1.0).abs() < 1e-12);
        assert!((c.rate_factor(10.0, &mut r) - 4.0).abs() < 1e-12);
        assert!((c.rate_factor(29.9, &mut r) - 4.0).abs() < 1e-12);
        assert!((c.rate_factor(30.0, &mut r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pareto_bursts_have_roughly_unit_mean_and_respect_cap() {
        let c = TrafficConfig {
            model: TrafficModel::ParetoBursts {
                alpha: 2.5,
                cap: 50.0,
            },
            ..TrafficConfig::default()
        };
        let mut r = rng();
        let n = 20_000;
        let mut sum = 0.0;
        let mut above = 0u64;
        for t in 0..n {
            let f = c.rate_factor(t as f64, &mut r);
            assert!(f > 0.0 && f <= 50.0);
            sum += f;
            if f > 3.0 {
                above += 1;
            }
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.1, "pareto mean {mean} far from 1");
        // Heavy tail: a visible fraction of slots burst well past 3x.
        assert!(above > 100, "only {above} bursts above 3x in {n} slots");
    }

    #[test]
    fn pareto_bursts_are_seed_deterministic() {
        let c = TrafficConfig {
            model: TrafficModel::ParetoBursts {
                alpha: 1.8,
                cap: 30.0,
            },
            ..TrafficConfig::default()
        };
        let (mut a, mut b) = (rng(), rng());
        for t in 0..500 {
            let fa = c.rate_factor(t as f64, &mut a);
            let fb = c.rate_factor(t as f64, &mut b);
            assert_eq!(fa.to_bits(), fb.to_bits());
        }
    }

    #[test]
    fn hard_flood_collapses_exit_rates_only_inside_window() {
        let c = TrafficConfig {
            model: TrafficModel::HardFlood {
                start_s: 30.0,
                duration_s: 30.0,
                hard_fraction: 0.9,
            },
            base_hard_fraction: 0.05,
            ..TrafficConfig::default()
        };
        let mut r = rng();
        assert!((c.hard_fraction(0.0) - 0.05).abs() < 1e-12);
        assert!((c.hard_fraction(30.0) - 0.9).abs() < 1e-12);
        assert!((c.hard_fraction(60.0) - 0.05).abs() < 1e-12);
        // Rate stays nominal during the flood.
        assert!((c.rate_factor(45.0, &mut r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn load_multiplier_scales_every_shape() {
        let c = TrafficConfig {
            load: 2.5,
            ..TrafficConfig::default()
        };
        let mut r = rng();
        assert!((c.rate_factor(7.0, &mut r) - 2.5).abs() < 1e-12);
    }
}
