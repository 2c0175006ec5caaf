use leime_simnet::SimTime;
use leime_telemetry::hist::bucket_representative;
use leime_telemetry::Buckets;
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

/// One slot's totals over a system's devices, folded in device order by
/// the slotted replay. Every mean, window and per-slot registry series
/// of a run is derived from these rows.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct SlotRow {
    /// Slot start.
    pub(crate) t: SimTime,
    /// Device-slots simulated (not churned out).
    pub(crate) active: u64,
    /// Tasks that arrived, all completing with their cohort.
    pub(crate) tasks: u64,
    /// Σ cohort completion time (per-task TCT × cohort size).
    pub(crate) total: f64,
    /// Σ applied offloading ratio over active devices.
    pub(crate) x: f64,
    /// Σ device-queue length at slot start over active devices.
    pub(crate) q: f64,
    /// Σ edge-queue length at slot start over active devices.
    pub(crate) h: f64,
}

impl SlotRow {
    /// An empty row for the slot starting at `t`.
    pub(crate) fn new(t: SimTime) -> Self {
        SlotRow {
            t,
            ..SlotRow::default()
        }
    }
}

/// Aggregated results of one simulation run: the run's TCT histogram
/// (`tct`), one row per slot (`slots`: the slot start `t`, the simulated
/// device-slots `active`, `tasks`, their Σ completion time `total`, and
/// Σ `x`, `q`, `h` over the active devices), and run totals for tiers,
/// faults and service. Every mean, window and deadline figure is
/// derived from the histogram and the rows.
///
/// Serializes deterministically (field order is declaration order, the
/// nested stats are plain data), which is what the `integration_par`
/// differential suite compares byte-for-byte across worker counts.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// The per-task completion times.
    pub(crate) tct: Buckets,
    /// One row per slot, in time order.
    pub(crate) slots: Vec<SlotRow>,
    tiers: TierCounts,
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

    /// Folds one device-slot's exit-tier tallies (first/second/third) in;
    /// tier counts are additive, so the fold order does not matter.
    pub(crate) fn record_tier_counts(&mut self, counts: [u32; 3]) {
        self.tiers.first += u64::from(counts[0]);
        self.tiers.second += u64::from(counts[1]);
        self.tiers.third += u64::from(counts[2]);
    }

    /// Counts one device-slot's arrivals, for the completion rate.
    pub(crate) fn record_arrivals(&mut self, arrived: u64) {
        self.arrived += arrived;
    }

    /// Adds the work one device-slot drained from its queues (device-
    /// plus edge-side), for the completion rate. A float sum, so the
    /// replay adds it in device order (DESIGN.md §15).
    pub(crate) fn record_served(&mut self, served: f64) {
        self.served += served.max(0.0);
    }

    /// Merges a shard's partial of the order-free half (DESIGN.md §15):
    /// its histogram (exact sums merge exactly), tier, fault and churn
    /// tallies and arrivals. The partial's rows and served work are not
    /// read; a shard leaves them empty, as they are order-pinned.
    pub(crate) fn merge_tallies(&mut self, part: &RunReport) {
        self.tct.merge(&part.tct);
        let (t, f) = (&part.tiers, &part.faults);
        self.tiers.first += t.first;
        self.tiers.second += t.second;
        self.tiers.third += t.third;
        let mine = &mut self.faults;
        mine.fault_slots += f.fault_slots;
        mine.churn_slots += f.churn_slots;
        mine.timeouts += f.timeouts;
        mine.retries += f.retries;
        mine.fallbacks += f.fallbacks;
        mine.recoveries += f.recoveries;
        self.arrived += part.arrived;
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
        self.tct.count() as usize
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
        self.tct.quantile(0.5).unwrap_or(0.0)
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

    /// Σ `field` over all slots / simulated device-slots (0 when none).
    fn per_active(&self, field: fn(&SlotRow) -> f64) -> f64 {
        let active: u64 = self.slots.iter().map(|r| r.active).sum();
        if active == 0 {
            return 0.0;
        }
        self.slots.iter().map(field).fold(0.0, |s, v| s + v) / active as f64
    }

    /// Mean offloading ratio over all simulated device-slots.
    pub fn mean_offload_ratio(&self) -> f64 {
        self.per_active(|r| r.x)
    }

    /// Mean device-queue length over all simulated device-slots.
    pub fn mean_queue_q(&self) -> f64 {
        self.per_active(|r| r.q)
    }

    /// Mean edge-queue length over all simulated device-slots.
    pub fn mean_queue_h(&self) -> f64 {
        self.per_active(|r| r.h)
    }

    /// Mean TCT per consecutive window of `width` simulated seconds (for
    /// Fig. 9-style plots): `(window_end, Σ total / Σ tasks)` for each
    /// window whose slots saw tasks, with slots placed by their start.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn windowed_mean_tct(&self, width: SimTime) -> Vec<(SimTime, f64)> {
        assert!(width > SimTime::ZERO, "window width must be positive");
        let mut out = Vec::new();
        let mut window_end = width;
        let (mut total, mut tasks) = (0.0, 0u64);
        for row in self.slots.iter().filter(|r| r.tasks > 0) {
            while row.t >= window_end {
                if tasks > 0 {
                    out.push((window_end, total / tasks as f64));
                    (total, tasks) = (0.0, 0);
                }
                window_end += width;
            }
            total += row.total;
            tasks += row.tasks;
        }
        if tasks > 0 {
            out.push((window_end, total / tasks as f64));
        }
        out
    }

    /// Fraction of tasks completing within `deadline_s` seconds — the
    /// SLA metric the paper's introduction motivates ("deadline
    /// requirements"); 0 when no tasks completed.
    ///
    /// Read from the TCT histogram: a task counts as met when its
    /// bucket's representative, clamped to the run's `[min, max]`, is
    /// ≤ `deadline_s` — the rule [`Buckets::quantile`] uses. So the
    /// result is exact (1) for `deadline_s ≥ max` and (0) for
    /// `deadline_s < min`, within one bucket otherwise, and
    /// `fraction_within(p99_tct_s()) ≥ 0.99`.
    ///
    /// # Panics
    ///
    /// Panics if `deadline_s` is negative or non-finite.
    pub fn fraction_within(&self, deadline_s: f64) -> f64 {
        assert!(
            deadline_s.is_finite() && deadline_s >= 0.0,
            "bad deadline {deadline_s}"
        );
        let (Some(min), Some(max)) = (self.tct.min(), self.tct.max()) else {
            return 0.0;
        };
        if deadline_s >= max {
            return 1.0;
        }
        // Representatives rise with the index, so the met buckets are a
        // prefix of the non-empty ones.
        let met: u64 = self
            .tct
            .non_empty()
            .take_while(|&(i, _)| bucket_representative(i).clamp(min, max) <= deadline_s)
            .map(|(_, n)| n)
            .sum();
        met as f64 / self.tct.count() as f64
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

    /// Mean TCT over tasks of slots starting at simulated time ≥ `after`
    /// seconds — the post-fault recovery metric (0 when no such tasks
    /// exist).
    ///
    /// # Panics
    ///
    /// Panics if `after` is negative or non-finite.
    pub fn mean_tct_after(&self, after: f64) -> f64 {
        assert!(
            after.is_finite() && after >= 0.0,
            "bad recovery boundary {after}"
        );
        let boundary = SimTime::from_secs(after);
        let rows = self.slots.iter().filter(|r| r.t >= boundary);
        let (total, tasks) = rows.fold((0.0, 0u64), |(s, n), r| (s + r.total, n + r.tasks));
        if tasks == 0 {
            0.0
        } else {
            total / tasks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records one slot holding a single device's cohort of `n` tasks,
    /// `tct` seconds each, as the slotted replay would.
    fn cohort(r: &mut RunReport, t: f64, tct: f64, n: u64) {
        r.tct.record_n(tct, n);
        r.slots.push(SlotRow {
            active: 1,
            tasks: n,
            total: tct * n as f64,
            ..SlotRow::new(SimTime::from_secs(t))
        });
    }

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
            cohort(&mut r, i as f64, i as f64 / 100.0, 1);
        }
        assert_eq!(r.tasks(), 100);
        assert!((r.mean_tct_s() - 0.505).abs() < 1e-9);
        assert!((r.mean_tct_ms() - 505.0).abs() < 1e-6);
        assert!(r.p95_tct_s() > r.median_tct_s());
        assert!(r.p99_tct_s() >= r.p95_tct_s());
    }

    #[test]
    fn speedup_math() {
        let mut fast = RunReport::new();
        cohort(&mut fast, 0.0, 0.1, 1);
        let mut slow = RunReport::new();
        cohort(&mut slow, 0.0, 0.4, 1);
        assert!((fast.speedup_vs(&slow) - 4.0).abs() < 1e-12);
        assert!((slow.speedup_vs(&fast) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn deadline_fraction() {
        let mut r = RunReport::new();
        for i in 1..=10 {
            cohort(&mut r, i as f64, i as f64 / 10.0, 1);
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
        assert_eq!(r.mean_offload_ratio().to_bits(), 0.0_f64.to_bits());
        assert!(r.windowed_mean_tct(SimTime::from_secs(1.0)).is_empty());
    }

    #[test]
    fn new_report_holds_no_bucket_storage() {
        // `Buckets::new()` allocates nothing (pinned in leime-telemetry);
        // a fresh report's histogram is exactly that empty value.
        let r = RunReport::new();
        assert_eq!(r.tct, Buckets::new());
        assert_eq!(r.tct.non_empty().count(), 0);
        assert!(r.slots.is_empty());
    }

    #[test]
    fn malformed_histogram_json_is_rejected() {
        let mut r = RunReport::new();
        cohort(&mut r, 0.0, 0.5, 1);
        let text = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.p99_tct_s().to_bits(), r.p99_tct_s().to_bits());
        // A bucket with no extremes once read back and then panicked in
        // `p99_tct_s()`; it is now a parse error.
        let tct = r#""tct":{"buckets_per_octave":32,"min_magnitude":1e-9,"counts":[[2100,1]],"count":1,"sum":0.5,"min":null,"max":null}"#;
        let start = text.find(r#""tct":"#).unwrap();
        let end = start + text[start..].find('}').unwrap() + 1;
        let bad = format!("{}{tct}{}", &text[..start], &text[end..]);
        let err = serde_json::from_str::<RunReport>(&bad).unwrap_err();
        assert!(err.to_string().contains("malformed Buckets"), "{err}");
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
    fn merged_partials_equal_one_report() {
        // Device-slots folded into one report, or split over partials
        // merged in either order, give the same bytes.
        let slots: [(f64, u64, [u32; 3], bool); 5] = [
            (0.25, 4, [1, 2, 1], false),
            (1.5, 3, [3, 0, 0], true),
            (1e-3, 9, [0, 0, 9], false),
            (0.1, 0, [0, 0, 0], true),
            (7.0, 2, [1, 1, 0], false),
        ];
        let fold = |r: &mut RunReport, &(tct, n, tiers, fault): &(f64, u64, [u32; 3], bool)| {
            r.tct.record_n(tct, n);
            r.record_tier_counts(tiers);
            r.record_arrivals(n);
            if fault {
                r.record_fault_slot();
                r.record_churn_slot();
            }
            r.record_degrade(&leime_offload::DegradeOutcome {
                timed_out: fault,
                ..leime_offload::DegradeOutcome::default()
            });
        };
        let mut whole = RunReport::new();
        slots.iter().for_each(|s| fold(&mut whole, s));
        let (mut a, mut b) = (RunReport::new(), RunReport::new());
        slots[..2].iter().for_each(|s| fold(&mut a, s));
        slots[2..].iter().for_each(|s| fold(&mut b, s));
        for parts in [[&a, &b], [&b, &a]] {
            let mut merged = RunReport::new();
            for part in parts {
                merged.merge_tallies(part);
            }
            assert_eq!(
                serde_json::to_string(&merged).unwrap(),
                serde_json::to_string(&whole).unwrap()
            );
        }
    }

    #[test]
    fn completion_rate_is_served_over_arrived() {
        let mut r = RunReport::new();
        for served in [7.0, 9.0] {
            r.record_arrivals(10);
            r.record_served(served);
        }
        assert!((r.completion_rate() - 0.8).abs() < 1e-12);
        // Over-service (draining old backlog) saturates at 1.
        let mut full = RunReport::new();
        full.record_arrivals(5);
        full.record_served(50.0);
        assert_eq!(full.completion_rate().to_bits(), 1.0_f64.to_bits());
    }

    #[test]
    fn derived_views_match_the_rows_and_the_histogram() {
        // Slots of several device cohorts `(tct, n)` each, an idle slot,
        // a churned-out slot and a gap in time.
        let slots: [(f64, &[(f64, u64)]); 7] = [
            (0.0, &[(0.3, 4), (0.1, 1), (0.02, 3)]),
            (1.0, &[(0.7, 6)]),
            (2.0, &[(0.7, 0)]),
            (3.0, &[(0.7, 2), (1e-3, 9)]),
            (5.5, &[(2.5, 3)]),
            (6.0, &[]),
            (9.0, &[(0.05, 1), (0.4, 2)]),
        ];
        let mut r = RunReport::new();
        for (t, cohorts) in slots {
            let mut row = SlotRow::new(SimTime::from_secs(t));
            for &(tct, n) in cohorts {
                r.tct.record_n(tct, n);
                row.active += 1;
                row.tasks += n;
                row.total += tct * n as f64;
                row.x += 0.25;
                row.q += tct;
                row.h += 2.0 * tct;
            }
            r.slots.push(row);
        }
        let rows = &r.slots;
        assert_eq!(rows.iter().map(|w| w.tasks).sum::<u64>(), r.tasks() as u64);

        // Σ total / Σ tasks over the rows starting in [lo, hi).
        let mean = |lo: f64, hi: f64| {
            let set = rows.iter().filter(|w| (lo..hi).contains(&w.t.as_secs()));
            let (total, tasks) = set.fold((0.0, 0u64), |(s, n), w| (s + w.total, n + w.tasks));
            (tasks > 0).then(|| total / tasks as f64)
        };
        for width in [0.5, 1.0, 3.0, 20.0] {
            let expected: Vec<(SimTime, f64)> = (0..20)
                .filter_map(|k| {
                    let (lo, hi) = (k as f64 * width, (k + 1) as f64 * width);
                    mean(lo, hi).map(|m| (SimTime::from_secs(hi), m))
                })
                .collect();
            let got = r.windowed_mean_tct(SimTime::from_secs(width));
            assert_eq!(got, expected, "width {width}");
        }
        for after in [0.0, 0.5, 1.0, 3.0, 5.5, 9.0, 10.0] {
            let expected = mean(after, f64::INFINITY).unwrap_or(0.0);
            assert_eq!(r.mean_tct_after(after).to_bits(), expected.to_bits());
        }
        let active = rows.iter().map(|w| w.active).sum::<u64>() as f64;
        let per_active =
            |f: fn(&SlotRow) -> f64| rows.iter().map(f).fold(0.0, |s, v| s + v) / active;
        assert_eq!(
            r.mean_offload_ratio().to_bits(),
            per_active(|w| w.x).to_bits()
        );
        assert_eq!(r.mean_queue_q().to_bits(), per_active(|w| w.q).to_bits());
        assert_eq!(r.mean_queue_h().to_bits(), per_active(|w| w.h).to_bits());

        // The deadline share is exact outside [min, max], monotone in
        // the deadline, and consistent with the histogram's quantiles.
        for d in [0.0, 5e-4, 0.00099] {
            assert_eq!(r.fraction_within(d).to_bits(), 0.0_f64.to_bits(), "{d}");
        }
        for d in [2.5, 2.6, 100.0] {
            assert_eq!(r.fraction_within(d).to_bits(), 1.0_f64.to_bits(), "{d}");
        }
        let mut prev = 0.0;
        for k in 0..=3000 {
            let f = r.fraction_within(k as f64 * 1e-3);
            assert!(f >= prev, "not monotone at {k}");
            prev = f;
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let at = r.tct.quantile(q).unwrap();
            assert!(r.fraction_within(at) >= q, "q {q}");
        }
    }

    #[test]
    fn mean_tct_after_splits_the_series() {
        let mut r = RunReport::new();
        cohort(&mut r, 1.0, 1.0, 1);
        cohort(&mut r, 2.0, 1.0, 1);
        cohort(&mut r, 10.0, 3.0, 1);
        cohort(&mut r, 11.0, 5.0, 1);
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
