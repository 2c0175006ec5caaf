//! The serving run report: per-class deadline and latency statistics
//! plus run-level queueing aggregates. Fully serialisable so replay
//! tests can assert byte-identical runs.

use leime_telemetry::Buckets;
use serde::{Deserialize, Serialize};

use crate::SlaClass;

/// Per-class serving statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Class name ([`SlaClass::name`]) — keeps the JSON self-describing.
    pub class: String,
    /// The deadline requests of this class were judged against (seconds).
    pub deadline_s: f64,
    /// Requests offered by the traffic generators.
    pub offered: u64,
    /// Requests admitted by the admission controller.
    pub admitted: u64,
    /// Requests shed.
    pub shed: u64,
    /// Admitted requests that completed within the class deadline.
    pub deadline_hits: u64,
    /// Task-completion-time histogram over admitted requests (seconds).
    pub tct_s: Buckets,
}

impl ClassStats {
    /// An empty record for `class` under deadline `deadline_s`.
    pub fn new(class: SlaClass, deadline_s: f64) -> Self {
        ClassStats {
            class: class.name().to_string(),
            deadline_s,
            offered: 0,
            admitted: 0,
            shed: 0,
            deadline_hits: 0,
            tct_s: Buckets::new(),
        }
    }

    /// Deadline-hit rate over *offered* requests — a shed request is a
    /// miss, so shedding everything cannot fake a perfect SLO. `1.0`
    /// when nothing was offered.
    pub fn hit_rate(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.deadline_hits as f64 / self.offered as f64
    }

    /// Deadline-hit rate over *admitted* requests (`1.0` when empty):
    /// how well the system served what it accepted.
    pub fn admitted_hit_rate(&self) -> f64 {
        if self.admitted == 0 {
            return 1.0;
        }
        self.deadline_hits as f64 / self.admitted as f64
    }

    /// Median completion time of admitted requests.
    pub fn p50(&self) -> Option<f64> {
        self.tct_s.quantile(0.5)
    }

    /// 99th-percentile completion time.
    pub fn p99(&self) -> Option<f64> {
        self.tct_s.quantile(0.99)
    }

    /// 99.9th-percentile completion time.
    pub fn p999(&self) -> Option<f64> {
        self.tct_s.p999()
    }
}

/// The result of one serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Slots simulated.
    pub slots: usize,
    /// Devices in the fleet.
    pub devices: usize,
    /// Seed the run was driven by.
    pub seed: u64,
    /// Per-class statistics, in [`SlaClass::ALL`] order.
    pub classes: Vec<ClassStats>,
    /// Requests flagged as hard samples (full-chain traversals).
    pub hard_requests: u64,
    /// Device-slots during which the edge was unreachable or degraded
    /// service was in effect.
    pub fault_slots: u64,
    /// Sum of applied offloading ratios over device-slots (for the mean).
    pub offload_sum: f64,
    /// Device-slots the offload controller actually ran.
    pub offload_slots: u64,
    /// Fleet backlog (plan-task equivalents) at the end of the run,
    /// device queues plus edge queues.
    pub final_backlog: f64,
}

impl ServingReport {
    /// Statistics for `class`.
    pub fn class(&self, class: SlaClass) -> &ClassStats {
        &self.classes[class.index()]
    }

    /// Total offered requests across classes.
    pub fn offered_total(&self) -> u64 {
        self.classes.iter().map(|c| c.offered).sum()
    }

    /// Total admitted requests across classes.
    pub fn admitted_total(&self) -> u64 {
        self.classes.iter().map(|c| c.admitted).sum()
    }

    /// Total shed requests across classes.
    pub fn shed_total(&self) -> u64 {
        self.classes.iter().map(|c| c.shed).sum()
    }

    /// Mean applied offloading ratio across device-slots.
    pub fn mean_offload_ratio(&self) -> f64 {
        if self.offload_slots == 0 {
            return 0.0;
        }
        self.offload_sum / self.offload_slots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates_handle_empty_and_shed() {
        let mut c = ClassStats::new(SlaClass::Standard, 3.0);
        assert_eq!(c.hit_rate().to_bits(), 1.0f64.to_bits());
        assert_eq!(c.admitted_hit_rate().to_bits(), 1.0f64.to_bits());
        c.offered = 10;
        c.admitted = 4;
        c.shed = 6;
        c.deadline_hits = 4;
        // All admitted hit, but shed requests count as misses.
        assert!((c.hit_rate() - 0.4).abs() < 1e-12);
        assert!((c.admitted_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn report_serde_round_trip() {
        let mut stats = ClassStats::new(SlaClass::LatencyCritical, 1.0);
        stats.offered = 3;
        stats.admitted = 2;
        stats.shed = 1;
        stats.deadline_hits = 2;
        stats.tct_s.record(0.12);
        stats.tct_s.record(0.48);
        let report = ServingReport {
            slots: 10,
            devices: 2,
            seed: 42,
            classes: vec![
                stats,
                ClassStats::new(SlaClass::Standard, 3.0),
                ClassStats::new(SlaClass::BestEffort, 10.0),
            ],
            hard_requests: 1,
            fault_slots: 0,
            offload_sum: 6.0,
            offload_slots: 20,
            final_backlog: 1.5,
        };
        let text = serde_json::to_string(&report).unwrap();
        let back: ServingReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report, back);
        assert_eq!(back.offered_total(), 3);
        assert!((back.mean_offload_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn class_accessor_follows_priority_order() {
        let report = ServingReport {
            slots: 0,
            devices: 0,
            seed: 0,
            classes: SlaClass::ALL
                .iter()
                .map(|&c| ClassStats::new(c, 1.0))
                .collect(),
            hard_requests: 0,
            fault_slots: 0,
            offload_sum: 0.0,
            offload_slots: 0,
            final_backlog: 0.0,
        };
        for c in SlaClass::ALL {
            assert_eq!(report.class(c).class, c.name());
        }
    }
}
