//! The complete systems the paper benchmarks against each other (§IV-A):
//! LEIME, DDNN, Neurosurgeon and Edgent, each a pairing of an exit-setting
//! strategy with an offloading policy behind one interface.
//!
//! Per the paper, "the above three benchmarks do not consider task
//! offloading; therefore the offloading ratios of benchmarks are fixed
//! to 0" — they all run the device-only policy.

use crate::{ControllerKind, Deployment, ExitStrategy, Result, RunReport, Scenario};
use serde::{Deserialize, Serialize};

/// A named end-to-end system: exit-setting strategy + offloading policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemSpec {
    /// Display name for experiment tables.
    pub name: &'static str,
    /// Model-level exit placement.
    pub strategy: ExitStrategy,
    /// Computation-level offloading policy.
    pub controller: ControllerKind,
}

impl SystemSpec {
    /// Deploys and runs this system on `base` under the paper's slotted
    /// queueing model.
    ///
    /// # Errors
    ///
    /// Propagates configuration and model errors.
    pub fn run_slotted(
        &self,
        base: &Scenario,
        slots: usize,
        seed: u64,
    ) -> Result<(Deployment, RunReport)> {
        let mut scenario = base.clone();
        scenario.controller = self.controller;
        let deployment = scenario.deploy(self.strategy)?;
        let report = scenario.run_slotted(&deployment, slots, seed)?;
        Ok((deployment, report))
    }

    /// Like [`SystemSpec::run_slotted`], but records per-slot telemetry
    /// into `registry`, with all metric names prefixed by this system's
    /// lowercased display name (e.g. `leime.tct_s`, `ddnn.queue_q`).
    ///
    /// # Errors
    ///
    /// Propagates configuration and model errors.
    pub fn run_slotted_with_registry(
        &self,
        base: &Scenario,
        slots: usize,
        seed: u64,
        registry: &leime_telemetry::Registry,
    ) -> Result<(Deployment, RunReport)> {
        let mut scenario = base.clone();
        scenario.controller = self.controller;
        let deployment = scenario.deploy(self.strategy)?;
        let report = scenario.run_slotted_with_registry(
            &deployment,
            slots,
            seed,
            registry,
            &self.name.to_lowercase(),
        )?;
        Ok((deployment, report))
    }

    /// Deploys and runs this system on `base` under the end-to-end
    /// task-level DES.
    ///
    /// # Errors
    ///
    /// Propagates configuration and model errors.
    pub fn run_des(
        &self,
        base: &Scenario,
        horizon_s: f64,
        seed: u64,
    ) -> Result<(Deployment, RunReport)> {
        let mut scenario = base.clone();
        scenario.controller = self.controller;
        let deployment = scenario.deploy(self.strategy)?;
        let report = scenario.run_des(&deployment, horizon_s, seed)?;
        Ok((deployment, report))
    }
}

/// LEIME: branch-and-bound exit setting + Lyapunov offloading.
pub fn leime() -> SystemSpec {
    SystemSpec {
        name: "LEIME",
        strategy: ExitStrategy::Leime,
        controller: ControllerKind::Lyapunov,
    }
}

/// DDNN (Teerapittayanon et al., ICDCS 2017): exits at layers with small
/// intermediate data and high exit probability; no offloading.
pub fn ddnn() -> SystemSpec {
    SystemSpec {
        name: "DDNN",
        strategy: ExitStrategy::Ddnn,
        controller: ControllerKind::DeviceOnly,
    }
}

/// Neurosurgeon (Kang et al., ASPLOS 2017): LEIME's partition positions but
/// no early exits; no offloading.
pub fn neurosurgeon() -> SystemSpec {
    SystemSpec {
        name: "Neurosurgeon",
        strategy: ExitStrategy::Neurosurgeon,
        controller: ControllerKind::DeviceOnly,
    }
}

/// Edgent (Li et al., TWC 2020): exits at the smallest intermediate data;
/// no offloading.
pub fn edgent() -> SystemSpec {
    SystemSpec {
        name: "Edgent",
        strategy: ExitStrategy::Edgent,
        controller: ControllerKind::DeviceOnly,
    }
}

/// All four systems in the paper's usual legend order.
pub fn all() -> [SystemSpec; 4] {
    [leime(), neurosurgeon(), edgent(), ddnn()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelKind;

    #[test]
    fn leime_beats_every_benchmark_on_a_loaded_pi() {
        let mut base = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 8.0);
        base.devices[1].arrival_mean = 8.0;
        let (_, leime_report) = leime().run_slotted(&base, 150, 11).unwrap();
        for spec in [neurosurgeon(), edgent(), ddnn()] {
            let (_, r) = spec.run_slotted(&base, 150, 11).unwrap();
            assert!(
                leime_report.mean_tct_s() <= r.mean_tct_s() * 1.02,
                "LEIME {} vs {} {}",
                leime_report.mean_tct_s(),
                spec.name,
                r.mean_tct_s()
            );
        }
    }

    #[test]
    fn all_systems_run_on_des() {
        let base = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 1, 3.0);
        for spec in all() {
            let (dep, r) = spec.run_des(&base, 30.0, 2).unwrap();
            assert!(r.tasks() > 20, "{}: {} tasks", spec.name, r.tasks());
            assert!(r.mean_tct_s().is_finite(), "{}", spec.name);
            assert_eq!(dep.strategy, spec.strategy);
        }
    }

    #[test]
    fn benchmarks_do_not_offload() {
        let base = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 1, 3.0);
        for spec in [neurosurgeon(), edgent(), ddnn()] {
            let (_, r) = spec.run_slotted(&base, 50, 3).unwrap();
            assert!(r.mean_offload_ratio().abs() < 1e-9, "{}", spec.name);
        }
    }
}
