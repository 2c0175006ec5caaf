use leime_simnet::stats::{Percentiles, TimeSeries, Welford};
use serde::{Deserialize, Serialize};

/// How many tasks exited at each tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierCounts {
    /// Tasks that exited at the First-exit.
    pub first: u64,
    /// Tasks that exited at the Second-exit.
    pub second: u64,
    /// Tasks that reached the Third-exit.
    pub third: u64,
}

impl TierCounts {
    /// Total tasks.
    pub fn total(&self) -> u64 {
        self.first + self.second + self.third
    }

    /// Fraction exiting at the First-exit.
    pub fn first_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.first as f64 / self.total() as f64
        }
    }
}

/// Fault and degradation tallies for one run (all zero for fault-free
/// scenarios).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Device-slots during which any injected fault touched the device's
    /// path to the edge.
    pub fault_slots: u64,
    /// Device-slots lost to device churn (the device was absent).
    pub churn_slots: u64,
    /// Transmissions/probes that found the edge unreachable.
    pub timeouts: u64,
    /// Retries scheduled after a timeout.
    pub retries: u64,
    /// Transitions into fully-local fallback (`x = 0`).
    pub fallbacks: u64,
    /// Recoveries back to normal offloading.
    pub recoveries: u64,
}

impl FaultStats {
    /// Whether the run saw any fault at all.
    pub fn any(&self) -> bool {
        self.fault_slots > 0 || self.churn_slots > 0 || self.timeouts > 0
    }
}

/// Aggregated results of one simulation run.
///
/// Serializes deterministically (field order is declaration order, the
/// nested stats are plain data), which is what the `integration_par`
/// differential suite compares byte-for-byte across worker counts.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunReport {
    tct: Percentiles,
    series: TimeSeries,
    tiers: TierCounts,
    offload_ratio: Welford,
    queue_q: Welford,
    queue_h: Welford,
    faults: FaultStats,
    /// Tasks that arrived / units of work actually served, for the
    /// completion-rate SLA metric under faults.
    arrived: u64,
    served: f64,
}

impl RunReport {
    /// An empty report.
    pub fn new() -> Self {
        RunReport::default()
    }

    /// Records one slot cohort's shared per-task completion time for all
    /// `n` tasks at once (`push_n` is bit-identical to `n` repeated
    /// `push`es, without `n` bucket searches).
    pub(crate) fn record_tct_n(&mut self, t: leime_simnet::SimTime, tct_s: f64, n: u64) {
        self.tct.push_n(tct_s, n);
        self.series.push_n(t, tct_s, n);
    }

    /// The per-task completion-time histogram, for merging into a
    /// telemetry registry.
    pub(crate) fn tct_buckets(&self) -> &leime_telemetry::Buckets {
        self.tct.buckets()
    }

    /// Folds one device-slot's exit-tier tallies (first/second/third) in;
    /// tier counts are additive, so the fold order does not matter.
    pub(crate) fn record_tier_counts(&mut self, counts: [u32; 3]) {
        self.tiers.first += u64::from(counts[0]);
        self.tiers.second += u64::from(counts[1]);
        self.tiers.third += u64::from(counts[2]);
    }

    /// Records one device-slot's chosen offloading ratio.
    pub(crate) fn record_offload(&mut self, x: f64) {
        self.offload_ratio.push(x);
    }

    /// Records queue lengths at a slot boundary.
    pub(crate) fn record_queues(&mut self, q: f64, h: f64) {
        self.queue_q.push(q);
        self.queue_h.push(h);
    }

    /// Records one device-slot's arrivals and the work actually drained
    /// from its queues (device- plus edge-side), for the completion rate.
    pub(crate) fn record_service(&mut self, arrived: u64, served: f64) {
        self.arrived += arrived;
        self.served += served.max(0.0);
    }

    /// Counts one faulted device-slot.
    pub(crate) fn record_fault_slot(&mut self) {
        self.faults.fault_slots += 1;
    }

    /// Counts one churned-out device-slot.
    pub(crate) fn record_churn_slot(&mut self) {
        self.faults.churn_slots += 1;
    }

    /// Folds one degradation outcome into the tallies.
    pub(crate) fn record_degrade(&mut self, outcome: &leime_offload::DegradeOutcome) {
        if outcome.timed_out {
            self.faults.timeouts += 1;
        }
        if outcome.retried {
            self.faults.retries += 1;
        }
        if outcome.fell_back {
            self.faults.fallbacks += 1;
        }
        if outcome.recovered {
            self.faults.recoveries += 1;
        }
    }

    /// Number of completed tasks.
    pub fn tasks(&self) -> usize {
        self.tct.len()
    }

    /// Mean task completion time in seconds (0 when no tasks completed).
    pub fn mean_tct_s(&self) -> f64 {
        self.tct.mean().unwrap_or(0.0)
    }

    /// Mean task completion time in milliseconds.
    pub fn mean_tct_ms(&self) -> f64 {
        self.mean_tct_s() * 1e3
    }

    /// Median TCT in seconds.
    pub fn median_tct_s(&self) -> f64 {
        self.tct.median().unwrap_or(0.0)
    }

    /// Median TCT in seconds (alias of [`RunReport::median_tct_s`], named
    /// to match the runtime report's percentile fields).
    pub fn p50_tct_s(&self) -> f64 {
        self.median_tct_s()
    }

    /// 95th-percentile TCT in seconds.
    pub fn p95_tct_s(&self) -> f64 {
        self.tct.quantile(0.95).unwrap_or(0.0)
    }

    /// 99th-percentile TCT in seconds.
    pub fn p99_tct_s(&self) -> f64 {
        self.tct.quantile(0.99).unwrap_or(0.0)
    }

    /// Exit-tier counts.
    pub fn tiers(&self) -> TierCounts {
        self.tiers
    }

    /// Mean offloading ratio over all device-slots.
    pub fn mean_offload_ratio(&self) -> f64 {
        self.offload_ratio.mean()
    }

    /// Mean device-queue length over all device-slots.
    pub fn mean_queue_q(&self) -> f64 {
        self.queue_q.mean()
    }

    /// Mean edge-queue length over all device-slots.
    pub fn mean_queue_h(&self) -> f64 {
        self.queue_h.mean()
    }

    /// The per-task TCT time series (for Fig. 9-style plots).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Fraction of tasks completing within `deadline_s` seconds — the
    /// SLA metric the paper's introduction motivates ("deadline
    /// requirements"); 0 when no tasks completed.
    ///
    /// # Panics
    ///
    /// Panics if `deadline_s` is negative or non-finite.
    pub fn fraction_within(&self, deadline_s: f64) -> f64 {
        assert!(
            deadline_s.is_finite() && deadline_s >= 0.0,
            "bad deadline {deadline_s}"
        );
        let n = self.series.len();
        if n == 0 {
            return 0.0;
        }
        let met = self
            .series
            .points()
            .filter(|&(_, tct)| tct <= deadline_s)
            .count();
        met as f64 / n as f64
    }

    /// Speedup of this run over `baseline` (baseline mean TCT / own mean
    /// TCT); > 1 means this run is faster.
    pub fn speedup_vs(&self, baseline: &RunReport) -> f64 {
        let own = self.mean_tct_s();
        if own <= 0.0 {
            return f64::INFINITY;
        }
        baseline.mean_tct_s() / own
    }

    /// Fault and degradation tallies (all zero for fault-free runs).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    /// Fraction of arrived work served within the run — the throughput
    /// SLA a faulty network erodes. Capped at 1; returns 1 when nothing
    /// arrived.
    pub fn completion_rate(&self) -> f64 {
        if self.arrived == 0 {
            1.0
        } else {
            (self.served / self.arrived as f64).min(1.0)
        }
    }

    /// Mean TCT over tasks recorded at simulated time ≥ `after` seconds —
    /// the post-fault recovery metric (0 when no such tasks exist).
    ///
    /// # Panics
    ///
    /// Panics if `after` is negative or non-finite.
    pub fn mean_tct_after(&self, after: f64) -> f64 {
        assert!(
            after.is_finite() && after >= 0.0,
            "bad recovery boundary {after}"
        );
        let boundary = leime_simnet::SimTime::from_secs(after);
        let mut sum = 0.0;
        let mut count = 0usize;
        for (t, tct) in self.series.points() {
            if t >= boundary {
                sum += tct;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leime_simnet::SimTime;

    #[test]
    fn tier_counting() {
        let mut r = RunReport::new();
        r.record_tier_counts([2, 1, 0]);
        r.record_tier_counts([0, 0, 1]);
        let t = r.tiers();
        assert_eq!((t.first, t.second, t.third), (2, 1, 1));
        assert_eq!(t.total(), 4);
        assert!((t.first_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tct_statistics() {
        let mut r = RunReport::new();
        for i in 1..=100 {
            r.record_tct_n(SimTime::from_secs(i as f64), i as f64 / 100.0, 1);
        }
        assert_eq!(r.tasks(), 100);
        assert!((r.mean_tct_s() - 0.505).abs() < 1e-9);
        assert!((r.mean_tct_ms() - 505.0).abs() < 1e-6);
        assert!(r.p95_tct_s() > r.median_tct_s());
        assert!(r.p99_tct_s() >= r.p95_tct_s());
        assert_eq!(r.p50_tct_s().to_bits(), r.median_tct_s().to_bits());
    }

    #[test]
    fn speedup_math() {
        let mut fast = RunReport::new();
        fast.record_tct_n(SimTime::ZERO, 0.1, 1);
        let mut slow = RunReport::new();
        slow.record_tct_n(SimTime::ZERO, 0.4, 1);
        assert!((fast.speedup_vs(&slow) - 4.0).abs() < 1e-12);
        assert!((slow.speedup_vs(&fast) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn deadline_fraction() {
        let mut r = RunReport::new();
        for i in 1..=10 {
            r.record_tct_n(SimTime::from_secs(i as f64), i as f64 / 10.0, 1);
        }
        assert!((r.fraction_within(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(r.fraction_within(1.0).to_bits(), 1.0_f64.to_bits());
        assert_eq!(r.fraction_within(0.0).to_bits(), 0.0_f64.to_bits());
        assert_eq!(
            RunReport::new().fraction_within(1.0).to_bits(),
            0.0_f64.to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "bad deadline")]
    fn deadline_rejects_negative() {
        RunReport::new().fraction_within(-1.0);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport::new();
        assert_eq!(r.mean_tct_s().to_bits(), 0.0_f64.to_bits());
        assert_eq!(r.tasks(), 0);
        assert_eq!(r.tiers().first_fraction().to_bits(), 0.0_f64.to_bits());
        assert!(!r.fault_stats().any());
        assert_eq!(r.completion_rate().to_bits(), 1.0_f64.to_bits());
        assert_eq!(r.mean_tct_after(0.0).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn fault_tallies_accumulate() {
        use leime_offload::DegradeOutcome;
        let mut r = RunReport::new();
        r.record_fault_slot();
        r.record_churn_slot();
        r.record_degrade(&DegradeOutcome {
            x: 0.0,
            timed_out: true,
            retried: true,
            fell_back: false,
            recovered: false,
        });
        r.record_degrade(&DegradeOutcome {
            x: 0.5,
            recovered: true,
            ..DegradeOutcome::default()
        });
        let f = r.fault_stats();
        assert!(f.any());
        assert_eq!(f.fault_slots, 1);
        assert_eq!(f.churn_slots, 1);
        assert_eq!(f.timeouts, 1);
        assert_eq!(f.retries, 1);
        assert_eq!(f.fallbacks, 0);
        assert_eq!(f.recoveries, 1);
    }

    #[test]
    fn completion_rate_is_served_over_arrived() {
        let mut r = RunReport::new();
        r.record_service(10, 7.0);
        r.record_service(10, 9.0);
        assert!((r.completion_rate() - 0.8).abs() < 1e-12);
        // Over-service (draining old backlog) saturates at 1.
        let mut full = RunReport::new();
        full.record_service(5, 50.0);
        assert_eq!(full.completion_rate().to_bits(), 1.0_f64.to_bits());
    }

    #[test]
    fn series_folds_match_a_point_by_point_reference() {
        // Cohorts recorded as runs (`record_tct_n`), including `-0.0`
        // next to `0.0` and repeated values across time steps; the
        // folds must equal plain loops over the expanded points, bit
        // for bit.
        let cohorts = [
            (0.0, 0.3, 4u64),
            (0.0, 0.1, 1),
            (0.0, -0.0, 2),
            (0.0, 0.0, 3),
            (1.0, 0.0, 1),
            (1.0, 0.7, 6),
            (2.0, 0.7, 2),
            (5.0, 1e-3, 9),
            (5.5, 2.5, 3),
        ];
        let mut r = RunReport::new();
        let mut points: Vec<(SimTime, f64)> = Vec::new();
        for (t, tct, n) in cohorts {
            r.record_tct_n(SimTime::from_secs(t), tct, n);
            for _ in 0..n {
                points.push((SimTime::from_secs(t), tct));
            }
        }
        for deadline in [0.0, 0.1, 0.5, 1.0, 3.0] {
            let met = points.iter().filter(|p| p.1 <= deadline).count();
            let expected = met as f64 / points.len() as f64;
            assert_eq!(r.fraction_within(deadline).to_bits(), expected.to_bits());
        }
        for after in [0.0, 0.5, 1.0, 2.0, 5.5, 9.0] {
            let (mut sum, mut count) = (0.0, 0usize);
            for &(t, tct) in &points {
                if t >= SimTime::from_secs(after) {
                    sum += tct;
                    count += 1;
                }
            }
            let expected = if count == 0 { 0.0 } else { sum / count as f64 };
            assert_eq!(r.mean_tct_after(after).to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn mean_tct_after_splits_the_series() {
        let mut r = RunReport::new();
        r.record_tct_n(SimTime::from_secs(1.0), 1.0, 1);
        r.record_tct_n(SimTime::from_secs(2.0), 1.0, 1);
        r.record_tct_n(SimTime::from_secs(10.0), 3.0, 1);
        r.record_tct_n(SimTime::from_secs(11.0), 5.0, 1);
        assert!((r.mean_tct_after(10.0) - 4.0).abs() < 1e-12);
        assert!((r.mean_tct_after(0.0) - 2.5).abs() < 1e-12);
        assert_eq!(r.mean_tct_after(100.0).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "bad recovery boundary")]
    fn mean_tct_after_rejects_negative() {
        RunReport::new().mean_tct_after(-1.0);
    }
}
