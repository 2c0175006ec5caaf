//! Multi-tier exit setting — a generalisation of the paper's
//! device/edge/cloud formulation to an arbitrary compute hierarchy
//! (device → gateway → edge → regional DC → cloud, …).
//!
//! The paper fixes three exits because its testbed has three tiers; the
//! cost structure, however, is a chain: block `j` runs on tier `j`, and
//! only tasks that failed to exit at block `j-1`'s exit continue. That
//! makes the optimal `k`-exit placement a shortest-path problem solvable
//! by dynamic programming in `O(k·m²)` — this module implements it and
//! the 3-tier case reduces exactly to the paper's `T(E)` (verified by
//! tests against [`crate::exhaustive`]).

use crate::{CostModel, EnvParams};
use leime_dnn::{DnnError, ExitRates, ModelProfile};
use leime_invariant as invariant;
use serde::{Deserialize, Serialize};

/// One tier of the compute hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierEnv {
    /// Compute rate of this tier in FLOPS.
    pub flops: f64,
    /// Bandwidth of the link *into* this tier (bits/second). Ignored for
    /// tier 0 (tasks originate there).
    pub uplink_bandwidth_bps: f64,
    /// Latency of the link into this tier (seconds). Ignored for tier 0.
    pub uplink_latency_s: f64,
}

impl TierEnv {
    // `!(x > 0)` deliberately rejects NaN as well as non-positive values.
    #[allow(clippy::neg_cmp_op_on_partial_ord, reason = "rejects NaN too")]
    fn validate(&self, is_first: bool) -> Result<(), String> {
        if !(self.flops > 0.0 && self.flops.is_finite()) {
            return Err(format!("tier flops invalid: {}", self.flops));
        }
        if !is_first {
            if !(self.uplink_bandwidth_bps > 0.0 && self.uplink_bandwidth_bps.is_finite()) {
                return Err(format!(
                    "tier uplink bandwidth invalid: {}",
                    self.uplink_bandwidth_bps
                ));
            }
            if !(self.uplink_latency_s >= 0.0) {
                return Err(format!(
                    "tier uplink latency invalid: {}",
                    self.uplink_latency_s
                ));
            }
        }
        Ok(())
    }
}

/// Converts the paper's three-tier environment into a tier list.
pub fn tiers_from_env(env: EnvParams) -> [TierEnv; 3] {
    [
        TierEnv {
            flops: env.device_flops,
            uplink_bandwidth_bps: f64::INFINITY,
            uplink_latency_s: 0.0,
        },
        TierEnv {
            flops: env.edge_flops,
            uplink_bandwidth_bps: env.edge_bandwidth_bps,
            uplink_latency_s: env.edge_latency_s,
        },
        TierEnv {
            flops: env.cloud_flops,
            uplink_bandwidth_bps: env.cloud_bandwidth_bps,
            uplink_latency_s: env.cloud_latency_s,
        },
    ]
}

/// Optimal `k`-exit placement over a `k`-tier hierarchy by dynamic
/// programming.
///
/// Returns the exit layer index per tier (strictly increasing, last one
/// `m−1`) and the expected completion time
///
/// ```text
/// T = Σ_j (1 − σ_{e_{j−1}}) · [ transfer_j + block_j / F_j ]
/// ```
///
/// with `σ_{e_{−1}} = 0` and `transfer_0 = 0` — the paper's Eq. 4
/// generalised; for `k = 3` this equals `CostModel::total`.
///
/// # Errors
///
/// Returns [`DnnError::InvalidExitCombo`] if fewer than 2 tiers are given
/// or the chain cannot host `k` exits, [`DnnError::ExitRateMismatch`] on
/// a rate/profile length mismatch, and [`DnnError::InvalidExitRate`] for
/// invalid tier parameters.
pub fn multi_tier_exits(
    profile: &ModelProfile,
    rates: &ExitRates,
    tiers: &[TierEnv],
) -> Result<(Vec<usize>, f64), DnnError> {
    let k = tiers.len();
    let m = profile.num_layers();
    if k < 2 {
        return Err(DnnError::InvalidExitCombo {
            reason: format!("need at least 2 tiers, got {k}"),
        });
    }
    if m < k {
        return Err(DnnError::InvalidExitCombo {
            reason: format!("chain of {m} layers cannot host {k} exits"),
        });
    }
    if rates.len() != m {
        return Err(DnnError::ExitRateMismatch {
            expected: m,
            actual: rates.len(),
        });
    }
    for (j, t) in tiers.iter().enumerate() {
        t.validate(j == 0)
            .map_err(|reason| DnnError::InvalidExitRate { reason })?;
    }

    let sigma = rates.as_slice();
    let prefix: Vec<f64> = {
        let mut p = Vec::with_capacity(m + 1);
        p.push(0.0);
        let mut acc = 0.0;
        for l in &profile.layers {
            acc += l.layer_flops;
            p.push(acc);
        }
        p
    };
    // block(lo, hi, tier): compute cost of layers lo..=hi plus exit_hi.
    let block = |lo: usize, hi: usize, f: f64| -> f64 {
        (prefix[hi + 1] - prefix[lo] + profile.layers[hi].exit_flops) / f
    };

    // dp[j][e]: best cost of tiers 0..=j with tier j exiting at layer e.
    // parent[j][e]: the previous tier's exit achieving it.
    let inf = f64::INFINITY;
    let mut dp = vec![vec![inf; m]; k];
    let mut parent = vec![vec![usize::MAX; m]; k];

    // Tier 0: layers 0..=e at device speed, no transfer, all tasks.
    // Tier j's exit can be at most m-1-(k-1-j) to leave room downstream.
    let cap = |j: usize| m - 1 - (k - 1 - j);
    #[allow(clippy::needless_range_loop, reason = "e indexes dp and profile")]
    for e in 0..=cap(0) {
        dp[0][e] = block(0, e, tiers[0].flops);
    }
    for j in 1..k {
        let lo_e = j; // at least one layer per upstream tier
        let hi_e = cap(j);
        for e in lo_e..=hi_e {
            for prev in (j - 1)..e {
                if dp[j - 1][prev].is_infinite() {
                    continue;
                }
                let survive = 1.0 - sigma[prev];
                let transfer = profile.layers[prev].out_bytes * 8.0 / tiers[j].uplink_bandwidth_bps
                    + tiers[j].uplink_latency_s;
                let cost =
                    dp[j - 1][prev] + survive * (transfer + block(prev + 1, e, tiers[j].flops));
                if cost < dp[j][e] {
                    dp[j][e] = cost;
                    parent[j][e] = prev;
                }
            }
        }
    }

    // Reconstruct from the mandatory final exit at m-1.
    let total = dp[k - 1][m - 1];
    if !total.is_finite() {
        return Err(DnnError::InvalidExitCombo {
            reason: "no feasible placement".to_string(),
        });
    }
    let mut exits = vec![0usize; k];
    exits[k - 1] = m - 1;
    for j in (1..k).rev() {
        exits[j - 1] = parent[j][exits[j]];
    }
    invariant::check_increasing_exits("exitcfg.multi_tier.exits", &exits, m);
    invariant::check_finite_cost("exitcfg.multi_tier.total", total);
    Ok((exits, total))
}

/// Convenience: run the DP on the paper's 3-tier environment so results
/// are directly comparable with [`CostModel`]/[`crate::branch_and_bound`].
///
/// # Errors
///
/// Same conditions as [`multi_tier_exits`].
pub fn three_tier_exits(cost: &CostModel<'_>) -> Result<(Vec<usize>, f64), DnnError> {
    multi_tier_exits(cost.profile(), cost.rates(), &tiers_from_env(cost.env()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive;
    use leime_dnn::{zoo, ExitSpec, ModelProfile};
    use leime_workload::ExitRateModel;

    fn setup() -> (ModelProfile, ExitRates) {
        let chain = zoo::inception_v3(75, 10);
        let profile = ModelProfile::from_chain(&chain, ExitSpec::default()).unwrap();
        let rates = ExitRateModel::cifar_like().rates_for_chain(&chain);
        (profile, rates)
    }

    #[test]
    fn three_tier_dp_matches_exhaustive() {
        let (profile, rates) = setup();
        for env in [EnvParams::raspberry_pi(), EnvParams::jetson_nano()] {
            let cost = CostModel::new(&profile, &rates, env).unwrap();
            let (exits, t_dp) = three_tier_exits(&cost).unwrap();
            let (combo, t_ex) = exhaustive(&cost).unwrap();
            assert!(
                (t_dp - t_ex).abs() < 1e-9 * t_ex,
                "dp {t_dp} vs exhaustive {t_ex}"
            );
            assert_eq!(exits, vec![combo.first, combo.second, combo.third]);
        }
    }

    #[test]
    fn exits_are_strictly_increasing_and_terminal() {
        let (profile, rates) = setup();
        let m = profile.num_layers();
        for k in 2..=5usize {
            let tiers: Vec<TierEnv> = (0..k)
                .map(|j| TierEnv {
                    flops: 1e9 * 10f64.powi(j as i32),
                    uplink_bandwidth_bps: 10e6 * (j as f64 + 1.0),
                    uplink_latency_s: 0.02,
                })
                .collect();
            let (exits, t) = multi_tier_exits(&profile, &rates, &tiers).unwrap();
            assert_eq!(exits.len(), k);
            assert_eq!(*exits.last().unwrap(), m - 1);
            for w in exits.windows(2) {
                assert!(w[0] < w[1], "exits not increasing: {exits:?}");
            }
            assert!(t.is_finite() && t > 0.0);
        }
    }

    #[test]
    fn more_tiers_never_hurt() {
        // A 4-tier hierarchy that contains the 3-tier one as a special
        // case (the extra tier is a copy of the edge) can only do at
        // least as well... it must at minimum stay within a small factor,
        // and in this construction strictly adds an intermediate option.
        let (profile, rates) = setup();
        let env = EnvParams::raspberry_pi();
        let t3 = {
            let tiers = tiers_from_env(env);
            multi_tier_exits(&profile, &rates, &tiers).unwrap().1
        };
        let t4 = {
            let base = tiers_from_env(env);
            // Insert a gateway between device and edge: half the edge's
            // speed, double its bandwidth.
            let gateway = TierEnv {
                flops: base[1].flops / 2.0,
                uplink_bandwidth_bps: base[1].uplink_bandwidth_bps * 2.0,
                uplink_latency_s: base[1].uplink_latency_s / 2.0,
            };
            let tiers = [base[0], gateway, base[1], base[2]];
            multi_tier_exits(&profile, &rates, &tiers).unwrap().1
        };
        // The 4-tier path is forced through the gateway (one more exit),
        // so it is not strictly dominated, but it must stay comparable.
        assert!(t4 < t3 * 1.5, "4-tier {t4} vs 3-tier {t3}");
    }

    #[test]
    fn two_tier_case_is_theorem1_quantity() {
        // k = 2 reduces to the paper's T({exit_i, exit_m, -}) minimised
        // over i.
        let (profile, rates) = setup();
        let env = EnvParams::raspberry_pi();
        let cost = CostModel::new(&profile, &rates, env).unwrap();
        let tiers = [
            TierEnv {
                flops: env.device_flops,
                uplink_bandwidth_bps: f64::INFINITY,
                uplink_latency_s: 0.0,
            },
            TierEnv {
                flops: env.edge_flops,
                uplink_bandwidth_bps: env.edge_bandwidth_bps,
                uplink_latency_s: env.edge_latency_s,
            },
        ];
        let (exits, t_dp) = multi_tier_exits(&profile, &rates, &tiers).unwrap();
        let m = profile.num_layers();
        let best_two_exit = (0..m - 1)
            .map(|i| cost.two_exit(i).unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!(
            (t_dp - best_two_exit).abs() < 1e-9 * best_two_exit,
            "dp {t_dp} vs two-exit argmin {best_two_exit}"
        );
        assert_eq!(exits.len(), 2);
    }

    #[test]
    fn rejects_bad_inputs() {
        let (profile, rates) = setup();
        let one_tier = [TierEnv {
            flops: 1e9,
            uplink_bandwidth_bps: f64::INFINITY,
            uplink_latency_s: 0.0,
        }];
        assert!(multi_tier_exits(&profile, &rates, &one_tier).is_err());
        let bad = [
            one_tier[0],
            TierEnv {
                flops: -1.0,
                uplink_bandwidth_bps: 1e6,
                uplink_latency_s: 0.0,
            },
        ];
        assert!(multi_tier_exits(&profile, &rates, &bad).is_err());
    }
}
