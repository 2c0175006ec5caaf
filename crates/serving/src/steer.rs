//! Per-class exit setting: latency-critical requests are steered toward
//! earlier exits by re-running the Theorem-1 branch-and-bound search
//! under a class-specific *pricing* environment.
//!
//! The knob is how optimistically each class prices the shared edge.
//! Latency-critical traffic deploys against a conservatively-priced
//! (congested) edge: deep blocks look expensive, so the solver places
//! its exits early and the class's offload tails stay cheap — the
//! latency-safe setting. Best-effort deploys against an optimistically
//! priced edge and runs deep for accuracy, tolerating tail latency.
//! Each class keeps the paper's optimality story — same solver, same
//! cost model — only the environment it is priced against differs.

use leime::{Deployment, ExitStrategy, Scenario};
use leime_invariant as invariant;
use serde::{Deserialize, Serialize};

use crate::SlaClass;

/// Knobs for per-class exit steering.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SteerPolicy {
    /// When `false`, every class serves the standard deployment
    /// (the `ext_serving` no-steering baseline).
    pub enabled: bool,
    /// Edge-FLOPS multiplier latency-critical deployments are priced
    /// at, in `(0, 1]`: a congested-edge assumption that pushes exits
    /// earlier and keeps tails cheap.
    pub lc_edge_discount: f64,
    /// Edge-FLOPS multiplier best-effort deployments are priced at
    /// (>= 1, capped at the whole edge): an optimistic assumption that
    /// lets the solver run deep for accuracy.
    pub be_edge_bonus: f64,
}

impl Default for SteerPolicy {
    fn default() -> Self {
        SteerPolicy {
            enabled: true,
            lc_edge_discount: 0.25,
            be_edge_bonus: 4.0,
        }
    }
}

impl SteerPolicy {
    /// Sanity-checks the steering multipliers.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.lc_edge_discount.is_finite()
            && self.lc_edge_discount > 0.0
            && self.lc_edge_discount <= 1.0)
        {
            return Err(format!(
                "lc_edge_discount must be in (0, 1], got {}",
                self.lc_edge_discount
            ));
        }
        if !(self.be_edge_bonus.is_finite() && self.be_edge_bonus >= 1.0) {
            return Err(format!(
                "be_edge_bonus must be >= 1, got {}",
                self.be_edge_bonus
            ));
        }
        Ok(())
    }
}

/// One exit setting per SLA class, indexed by [`SlaClass::index`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClassPlan {
    deployments: [Deployment; 3],
}

impl ClassPlan {
    /// The deployment class `class` serves under.
    pub fn for_class(&self, class: SlaClass) -> &Deployment {
        &self.deployments[class.index()]
    }

    /// The standard-class deployment — the plan the shared queueing
    /// state is accounted in (see DESIGN.md §12).
    pub fn standard(&self) -> &Deployment {
        self.for_class(SlaClass::Standard)
    }
}

/// Computes the per-class exit settings for `scenario`.
///
/// The standard class gets the scenario's nominal LEIME deployment.
/// With steering enabled, latency-critical and best-effort re-run the
/// same branch-and-bound under environments whose edge FLOPS are
/// scaled by the policy's discount/bonus factors, which orders the
/// chosen exits: latency-critical at or before the standard placement,
/// best-effort at or after it.
///
/// # Errors
///
/// Propagates scenario validation and exit-search errors.
pub fn steer_exits(scenario: &Scenario, policy: &SteerPolicy) -> leime::Result<ClassPlan> {
    if let Err(e) = policy.validate() {
        return Err(leime::LeimeError::Config(format!("steer policy: {e}")));
    }
    let std_plan = scenario.deploy(ExitStrategy::Leime)?;
    let num_layers = scenario.chain().num_layers();

    let deployments = if policy.enabled {
        let chain = scenario.chain();
        let rates = scenario.candidate_rates();
        let base_env = scenario.avg_env();
        let class_env = |factor: f64| {
            let mut env = base_env;
            // A class's priced share can exceed the per-device average
            // but never the whole edge.
            env.edge_flops = (env.edge_flops * factor).min(scenario.edge_flops);
            env
        };
        let lc = Deployment::compute(
            ExitStrategy::Leime,
            &chain,
            scenario.exit_spec,
            &rates,
            class_env(policy.lc_edge_discount),
        )?;
        let be = Deployment::compute(
            ExitStrategy::Leime,
            &chain,
            scenario.exit_spec,
            &rates,
            class_env(policy.be_edge_bonus),
        )?;
        [lc, std_plan, be]
    } else {
        [std_plan.clone(), std_plan.clone(), std_plan]
    };

    for (class, d) in SlaClass::ALL.iter().zip(&deployments) {
        invariant::check_increasing_exits(
            &format!("serving.steer.{}", class.name()),
            &[d.combo.first, d.combo.second, d.combo.third],
            num_layers,
        );
    }
    Ok(ClassPlan { deployments })
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, reason = "clearer policy tweaks")]
mod tests {
    use super::*;
    use leime::ModelKind;

    fn scenario() -> Scenario {
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 4, 24.0);
        // The serving testbed's scarce edge (see `serving_testbed`),
        // where class pricing visibly moves the chosen exits.
        s.edge_flops = 2.5e9;
        s
    }

    #[test]
    fn default_policy_validates() {
        assert!(SteerPolicy::default().validate().is_ok());
        let mut p = SteerPolicy::default();
        p.lc_edge_discount = 0.0;
        assert!(p.validate().is_err());
        let mut p = SteerPolicy::default();
        p.lc_edge_discount = 1.5;
        assert!(p.validate().is_err());
        let mut p = SteerPolicy::default();
        p.be_edge_bonus = 0.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn disabled_steering_shares_one_plan() {
        let policy = SteerPolicy {
            enabled: false,
            ..SteerPolicy::default()
        };
        let plan = steer_exits(&scenario(), &policy).unwrap();
        for class in SlaClass::ALL {
            assert_eq!(plan.for_class(class).combo, plan.standard().combo);
        }
    }

    #[test]
    fn steering_orders_exits_by_class() {
        let plan = steer_exits(&scenario(), &SteerPolicy::default()).unwrap();
        let lc = plan.for_class(SlaClass::LatencyCritical).combo;
        let std_c = plan.standard().combo;
        let be = plan.for_class(SlaClass::BestEffort).combo;
        // Congested pricing → exits at or before standard; optimistic
        // pricing → at or after.
        assert!(lc.first <= std_c.first && lc.second <= std_c.second);
        assert!(be.first >= std_c.first && be.second >= std_c.second);
        // And the testbed is scarce enough that the steering actually
        // separates the classes (not three identical plans).
        assert_ne!(lc, be, "steering left LC and BE identical");
    }

    #[test]
    fn latency_critical_plan_has_cheapest_expected_tail() {
        let plan = steer_exits(&scenario(), &SteerPolicy::default()).unwrap();
        let tail = |c: SlaClass| {
            let d = plan.for_class(c);
            (1.0 - d.sigma[0]) * d.mu[1] + (1.0 - d.sigma[1]) * d.mu[2]
        };
        assert!(
            tail(SlaClass::LatencyCritical) <= tail(SlaClass::BestEffort),
            "LC expected tail {} above BE {}",
            tail(SlaClass::LatencyCritical),
            tail(SlaClass::BestEffort)
        );
    }

    #[test]
    fn steering_keeps_final_exit_at_chain_end() {
        let s = scenario();
        let m = s.chain().num_layers();
        let plan = steer_exits(&s, &SteerPolicy::default()).unwrap();
        for class in SlaClass::ALL {
            assert_eq!(plan.for_class(class).combo.third, m - 1);
        }
    }

    #[test]
    fn bad_policy_is_a_config_error() {
        let policy = SteerPolicy {
            enabled: true,
            lc_edge_discount: f64::NAN,
            be_edge_bonus: 4.0,
        };
        assert!(steer_exits(&scenario(), &policy).is_err());
    }
}
