use leime_dnn::{DnnChain, ExitCombo, ExitRates, ExitSpec, ModelProfile, MultiExitDnn};
use leime_exitcfg::{
    branch_and_bound, ddnn_style, edgent_style, mean_division, min_computation, min_transmission,
    CostModel, EnvParams, SearchStats,
};
use serde::{Deserialize, Serialize};

use crate::{LeimeError, Result};

/// How the three exits are placed (the model-level policy under test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExitStrategy {
    /// LEIME's branch-and-bound optimal exit setting (§III-C).
    Leime,
    /// Earliest-possible exits (`min_comp` ablation baseline).
    MinComp,
    /// Smallest intermediate activations (`min_tran` ablation baseline).
    MinTran,
    /// Exits at layer-count thirds (`mean` ablation baseline).
    Mean,
    /// DDNN-style: small data + high exit probability (§IV-A benchmark).
    Ddnn,
    /// Edgent-style: globally smallest intermediate data (§IV-A benchmark).
    Edgent,
    /// Neurosurgeon: LEIME's partition positions but *no early exits* —
    /// every task traverses the full chain (§IV-A benchmark).
    Neurosurgeon,
}

impl ExitStrategy {
    /// Short display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            ExitStrategy::Leime => "LEIME",
            ExitStrategy::MinComp => "min_comp",
            ExitStrategy::MinTran => "min_tran",
            ExitStrategy::Mean => "mean",
            ExitStrategy::Ddnn => "DDNN",
            ExitStrategy::Edgent => "Edgent",
            ExitStrategy::Neurosurgeon => "Neurosurgeon",
        }
    }
}

/// A deployed ME-DNN: the chosen exit combo, the per-block quantities the
/// offloading model needs, and the effective exit probabilities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// The generating strategy.
    pub strategy: ExitStrategy,
    /// The chosen exit combo.
    pub combo: ExitCombo,
    /// Block FLOPs `[μ_1, μ_2, μ_3]` (exit-classifier costs included for
    /// early-exit systems, excluded for Neurosurgeon's exit-free blocks 1–2).
    pub mu: [f64; 3],
    /// Data sizes `[d_0, d_1, d_2]` in bytes.
    pub d: [f64; 3],
    /// Effective cumulative exit probabilities `[σ_1, σ_2, σ_3]`
    /// (`[0, 0, 1]` for Neurosurgeon).
    pub sigma: [f64; 3],
    /// Whether early exiting is active.
    pub early_exit: bool,
    /// Branch-and-bound statistics when the strategy searched.
    pub search_stats: Option<SearchStats>,
}

impl Deployment {
    /// Computes a deployment for `strategy` on the given chain, candidate
    /// exit rates and average environment.
    ///
    /// # Errors
    ///
    /// Propagates model and combo errors, and rejects environments that
    /// fail validation.
    pub fn compute(
        strategy: ExitStrategy,
        chain: &DnnChain,
        spec: ExitSpec,
        rates: &ExitRates,
        env: EnvParams,
    ) -> Result<Self> {
        let profile = ModelProfile::from_chain(chain, spec)?;
        let mut stats = None;
        let combo = match strategy {
            ExitStrategy::Leime | ExitStrategy::Neurosurgeon => {
                // LEIME deploys together with its offloading layer, so the
                // exit search prices the first leg as the cheaper of local
                // execution and raw-input offloading (see
                // `CostModel::new_offload_aware`).
                let cost = CostModel::new_offload_aware(&profile, rates, env)?;
                let (combo, _, s) = branch_and_bound(&cost)?;
                stats = Some(s);
                combo
            }
            ExitStrategy::MinComp => min_computation(&profile)?,
            ExitStrategy::MinTran => min_transmission(&profile)?,
            ExitStrategy::Mean => mean_division(&profile)?,
            ExitStrategy::Ddnn => ddnn_style(&profile, rates)?,
            ExitStrategy::Edgent => edgent_style(&profile)?,
        };

        let me = MultiExitDnn::new(chain.clone(), spec);
        let partition = me.partition(combo)?;
        let early_exit = strategy != ExitStrategy::Neurosurgeon;
        let sigma = if early_exit {
            me.combo_rates(combo, rates)?
        } else {
            [0.0, 0.0, 1.0]
        };
        let mu = if early_exit {
            partition.block_flops()
        } else {
            // Neurosurgeon deploys no intermediate classifiers.
            [
                partition.device.flops - partition.device.exit_classifier_flops,
                partition.edge.flops - partition.edge.exit_classifier_flops,
                partition.cloud.flops,
            ]
        };
        Ok(Deployment {
            strategy,
            combo,
            mu,
            d: partition.data_sizes(),
            sigma,
            early_exit,
            search_stats: stats,
        })
    }

    /// Accuracy-constrained exit setting (extension): minimise `T(E)` over
    /// combos whose *measured* ME-DNN accuracy loss (from a calibration
    /// run) stays within `max_loss`, using the calibration's measured exit
    /// rates for the cost.
    ///
    /// The paper sets per-exit confidence thresholds to guarantee accuracy
    /// and then optimises latency unconditionally; this variant exposes
    /// the remaining accuracy/latency trade-off explicitly — useful when a
    /// deployment has a hard accuracy SLA. Exhaustive `O(m²)` search (the
    /// accuracy surface has no Theorem-1 structure).
    ///
    /// # Errors
    ///
    /// Returns [`LeimeError::Config`] when no combo satisfies the
    /// constraint, and propagates model errors.
    pub fn compute_accuracy_constrained(
        chain: &DnnChain,
        spec: ExitSpec,
        calibration: &leime_inference::CalibrationResult,
        env: EnvParams,
        max_loss: f64,
    ) -> Result<Self> {
        let profile = ModelProfile::from_chain(chain, spec)?;
        let rates = calibration.exit_rates();
        let cost = CostModel::new_offload_aware(&profile, rates, env)?;
        let m = profile.num_layers();
        if m < 3 {
            return Err(LeimeError::Config(format!(
                "chain of {m} layers cannot host 3 exits"
            )));
        }
        let mut best: Option<(ExitCombo, f64)> = None;
        for first in 0..m - 2 {
            for second in first + 1..m - 1 {
                let combo = ExitCombo::new(first, second, m - 1, m)?;
                if calibration.combo_accuracy_loss(combo) > max_loss {
                    continue;
                }
                let t = cost.total(combo)?;
                match best {
                    Some((_, bt)) if bt <= t => {}
                    _ => best = Some((combo, t)),
                }
            }
        }
        let (combo, _) = best.ok_or_else(|| {
            LeimeError::Config(format!(
                "no exit combination keeps accuracy loss within {max_loss}"
            ))
        })?;
        let me = MultiExitDnn::new(chain.clone(), spec);
        let partition = me.partition(combo)?;
        Ok(Deployment {
            strategy: ExitStrategy::Leime,
            combo,
            mu: partition.block_flops(),
            d: partition.data_sizes(),
            sigma: me.combo_rates(combo, rates)?,
            early_exit: true,
            search_stats: None,
        })
    }

    /// The accuracy–latency Pareto front over all exit combos (extension):
    /// every combo for which no other combo is both faster *and* at least
    /// as accurate, sorted by expected TCT.
    ///
    /// Entries are `(combo, expected_tct_s, accuracy_loss)`. This is the
    /// menu a deployment operator picks from when the accuracy budget is
    /// not fixed in advance; [`Deployment::compute_accuracy_constrained`]
    /// is the single-point query over the same surface.
    ///
    /// # Errors
    ///
    /// Propagates model errors; returns [`LeimeError::Config`] for chains
    /// shorter than 3 layers.
    pub fn pareto_front(
        chain: &DnnChain,
        spec: ExitSpec,
        calibration: &leime_inference::CalibrationResult,
        env: EnvParams,
    ) -> Result<Vec<(ExitCombo, f64, f64)>> {
        let profile = ModelProfile::from_chain(chain, spec)?;
        let cost = CostModel::new_offload_aware(&profile, calibration.exit_rates(), env)?;
        let m = profile.num_layers();
        if m < 3 {
            return Err(LeimeError::Config(format!(
                "chain of {m} layers cannot host 3 exits"
            )));
        }
        let mut points = Vec::new();
        for first in 0..m - 2 {
            for second in first + 1..m - 1 {
                let combo = ExitCombo::new(first, second, m - 1, m)?;
                points.push((
                    combo,
                    cost.total(combo)?,
                    calibration.combo_accuracy_loss(combo),
                ));
            }
        }
        points.sort_by(|a, b| a.1.total_cmp(&b.1));
        // Sweep in cost order keeping strictly improving accuracy.
        let mut front: Vec<(ExitCombo, f64, f64)> = Vec::new();
        let mut best_loss = f64::INFINITY;
        for p in points {
            if p.2 < best_loss {
                best_loss = p.2;
                front.push(p);
            }
        }
        Ok(front)
    }

    /// Expected FLOPs per task under the deployment's exit probabilities.
    pub fn expected_flops(&self) -> f64 {
        self.mu[0] + (1.0 - self.sigma[0]) * self.mu[1] + (1.0 - self.sigma[1]) * self.mu[2]
    }

    /// Samples a task's exit tier (0/1/2) from the deployment's exit
    /// probabilities using a uniform draw `u ∈ [0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`LeimeError::Config`] if `u` is outside `[0, 1)`.
    pub fn tier_for_draw(&self, u: f64) -> Result<usize> {
        if !(0.0..1.0).contains(&u) {
            return Err(LeimeError::Config(format!("draw {u} outside [0, 1)")));
        }
        Ok(if u < self.sigma[0] {
            0
        } else if u < self.sigma[1] {
            1
        } else {
            2
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leime_dnn::zoo;
    use leime_workload::ExitRateModel;

    fn deploy(strategy: ExitStrategy) -> Deployment {
        let chain = zoo::vgg16(32, 10);
        let rates = ExitRateModel::cifar_like().rates_for_chain(&chain);
        Deployment::compute(
            strategy,
            &chain,
            ExitSpec::default(),
            &rates,
            EnvParams::raspberry_pi(),
        )
        .unwrap()
    }

    #[test]
    fn leime_records_search_stats() {
        let d = deploy(ExitStrategy::Leime);
        assert!(d.search_stats.is_some());
        assert!(d.early_exit);
        assert!(d.sigma[0] > 0.0 && d.sigma[2].to_bits() == 1.0_f64.to_bits());
    }

    #[test]
    fn neurosurgeon_shares_leime_partition_without_exits() {
        let leime = deploy(ExitStrategy::Leime);
        let ns = deploy(ExitStrategy::Neurosurgeon);
        assert_eq!(leime.combo, ns.combo);
        assert!(!ns.early_exit);
        assert_eq!(
            ns.sigma.map(f64::to_bits),
            [0.0, 0.0, 1.0].map(f64::to_bits)
        );
        // Without intermediate classifiers the first two blocks are cheaper.
        assert!(ns.mu[0] < leime.mu[0]);
        assert!(ns.mu[1] < leime.mu[1]);
    }

    #[test]
    fn expected_flops_less_with_early_exit() {
        let leime = deploy(ExitStrategy::Leime);
        let ns = deploy(ExitStrategy::Neurosurgeon);
        assert!(leime.expected_flops() < ns.expected_flops());
    }

    #[test]
    fn tier_sampling_respects_sigma() {
        let d = deploy(ExitStrategy::Leime);
        assert_eq!(d.tier_for_draw(0.0).unwrap(), 0);
        assert_eq!(d.tier_for_draw(0.9999).unwrap(), 2);
        assert!(d.tier_for_draw(1.0).is_err());
        assert!(d.tier_for_draw(-0.1).is_err());
    }

    #[test]
    fn all_strategies_produce_valid_combos() {
        for s in [
            ExitStrategy::Leime,
            ExitStrategy::MinComp,
            ExitStrategy::MinTran,
            ExitStrategy::Mean,
            ExitStrategy::Ddnn,
            ExitStrategy::Edgent,
            ExitStrategy::Neurosurgeon,
        ] {
            let d = deploy(s);
            assert!(d.combo.first < d.combo.second, "{}", s.name());
            assert!(d.mu.iter().all(|&m| m >= 0.0));
            assert!(d.d[0] > 0.0);
        }
    }
}
