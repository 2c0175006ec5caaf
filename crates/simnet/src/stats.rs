//! Online statistics and experiment recording.

use crate::SimTime;
use serde::{DeError, Deserialize, Map, Serialize, Value};

/// Welford's online algorithm for mean and variance — numerically stable
/// for long simulations.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with < 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n = (self.count + other.count) as f64;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / n;
        self.mean += delta * other.count as f64 / n;
        self.count += other.count;
    }
}

/// Collects samples and answers quantile queries.
///
/// Backed by `leime-telemetry`'s log-bucketed [`Buckets`] histogram
/// (constant memory instead of retaining every sample): the mean,
/// `quantile(0.0)` and `quantile(1.0)` are exact, intermediate quantiles
/// carry a relative error of at most one log bucket (`2^(1/32) ≈ 2.2%`).
///
/// [`Buckets`]: leime_telemetry::Buckets
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    hist: leime_telemetry::Buckets,
}

impl Percentiles {
    /// An empty collector.
    pub fn new() -> Self {
        Percentiles::default()
    }

    /// Adds one sample. Non-finite values are ignored.
    pub fn push(&mut self, x: f64) {
        self.hist.record(x);
    }

    /// Adds the same sample `n` times — bit-identical to `n` successive
    /// [`Percentiles::push`] calls (see `Buckets::record_n`) while
    /// paying the bucket search once. The slotted runner records one
    /// cohort's per-task TCT for all of a slot's arrivals this way.
    pub fn push_n(&mut self, x: f64, n: u64) {
        self.hist.record_n(x, n);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.hist.count() as usize
    }

    /// Whether no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) by nearest rank on the histogram,
    /// or `None` when empty. Exact at the extremes, within one log
    /// bucket elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.hist.quantile(q)
    }

    /// Median shortcut.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean (exact), or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        self.hist.mean()
    }

    /// The underlying histogram, for merging into telemetry exports.
    pub fn buckets(&self) -> &leime_telemetry::Buckets {
        &self.hist
    }
}

/// A `(time, value)` series recorder with windowed averaging, used to
/// produce the paper's time-series plots (Fig. 9).
///
/// Stored as runs of equal points: adjacent observations with the same
/// timestamp and the same value bits (`to_bits`, so `-0.0` and `0.0`
/// never merge) share one `(t, value, count)` entry, which makes
/// [`TimeSeries::push_n`] O(1) in `n`. Everything observable — the
/// iterator of [`TimeSeries::points`], equality and the serialized
/// `{"points": [[t, v], …]}` — is the expanded point sequence.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    runs: Vec<(SimTime, f64, u64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends an observation. Timestamps need not be unique but must not
    /// decrease.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded timestamp.
    pub fn push(&mut self, t: SimTime, value: f64) {
        self.push_n(t, value, 1);
    }

    /// Appends the same observation `n` times. Equivalent to `n`
    /// successive [`TimeSeries::push`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded timestamp.
    pub fn push_n(&mut self, t: SimTime, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        if let Some((last, last_value, count)) = self.runs.last_mut() {
            assert!(t >= *last, "time series must be non-decreasing");
            if t.as_secs().to_bits() == last.as_secs().to_bits()
                && value.to_bits() == last_value.to_bits()
            {
                *count += n;
                return;
            }
        }
        self.runs.push((t, value, n));
    }

    /// The observations in recording order.
    pub fn points(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.runs
            .iter()
            .flat_map(|&(t, v, n)| std::iter::repeat_n((t, v), n as usize))
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(_, _, n)| n as usize).sum()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Averages values into consecutive windows of `width`, returning
    /// `(window_end, mean)` per non-empty window.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn windowed_mean(&self, width: SimTime) -> Vec<(SimTime, f64)> {
        assert!(width > SimTime::ZERO, "window width must be positive");
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        let mut window_end = width;
        let mut acc = Welford::new();
        for (t, v) in self.points() {
            while t >= window_end {
                if acc.count() > 0 {
                    out.push((window_end, acc.mean()));
                    acc = Welford::new();
                }
                window_end += width;
            }
            acc.push(v);
        }
        if acc.count() > 0 {
            out.push((window_end, acc.mean()));
        }
        out
    }
}

impl PartialEq for TimeSeries {
    fn eq(&self, other: &Self) -> bool {
        self.points().eq(other.points())
    }
}

// Hand-written serde impls: the runs serialize expanded, as the plain
// `{"points": [[t, v], …]}` list of observations.
impl Serialize for TimeSeries {
    fn to_value(&self) -> Value {
        let points: Vec<Value> = self.points().map(|p| p.to_value()).collect();
        let mut m = Map::new();
        m.insert("points".to_string(), Value::Array(points));
        Value::Object(m)
    }
}

impl Deserialize for TimeSeries {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let points = v
            .as_object()
            .and_then(|obj| obj.get("points"))
            .ok_or_else(|| DeError::custom("expected a TimeSeries object with `points`"))?;
        let mut out = TimeSeries::new();
        for (t, value) in Vec::<(SimTime, f64)>::from_value(points)? {
            if out.runs.last().is_some_and(|&(last, _, _)| t < last) {
                return Err(DeError::custom("time series must be non-decreasing"));
            }
            out.push(t, value);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_n_matches_repeated_push() {
        let mut pn = Percentiles::new();
        let mut pr = Percentiles::new();
        let mut sn = TimeSeries::new();
        let mut sr = TimeSeries::new();
        for (i, n) in [(1u64, 3u64), (2, 1), (3, 0), (4, 7)] {
            let t = SimTime::from_secs(i as f64);
            let v = 0.25 * i as f64;
            pn.push_n(v, n);
            sn.push_n(t, v, n);
            for _ in 0..n {
                pr.push(v);
                sr.push(t, v);
            }
        }
        assert_eq!(pn, pr);
        assert_eq!(sn, sr);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn push_n_rejects_time_regression() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(2.0), 1.0);
        s.push_n(SimTime::from_secs(1.0), 1.0, 2);
    }

    #[test]
    fn welford_matches_direct() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut all = Welford::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            all.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);
        let mut e = Welford::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn percentiles_quantiles() {
        let mut p = Percentiles::new();
        for i in 1..=100 {
            p.push(i as f64);
        }
        // Extremes and the mean are exact; interior quantiles carry the
        // histogram's one-bucket relative error (2^(1/32) ≈ 2.2%).
        let one_bucket = 2f64.powf(1.0 / 32.0);
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        let median = p.median().unwrap();
        assert!(median / 50.0 < one_bucket && median / 50.0 > 1.0 / one_bucket);
        let q99 = p.quantile(0.99).unwrap();
        assert!(q99 / 99.0 < one_bucket && q99 / 99.0 > 1.0 / one_bucket);
        assert_eq!(p.mean(), Some(50.5));
    }

    #[test]
    fn percentiles_empty() {
        let p = Percentiles::new();
        assert_eq!(p.median(), None);
        assert_eq!(p.mean(), None);
        assert!(p.is_empty());
    }

    #[test]
    fn time_series_windowing() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.push(SimTime::from_secs(i as f64), i as f64);
        }
        let w = ts.windowed_mean(SimTime::from_secs(5.0));
        // Window [0,5): values 0..=4 mean 2; window [5,10): values 5..=9 mean 7.
        assert_eq!(w.len(), 2);
        assert!((w[0].1 - 2.0).abs() < 1e-12);
        assert!((w[1].1 - 7.0).abs() < 1e-12);
    }

    #[test]
    fn time_series_skips_empty_windows() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(0.5), 1.0);
        ts.push(SimTime::from_secs(10.5), 3.0);
        let w = ts.windowed_mean(SimTime::from_secs(1.0));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].1.to_bits(), 1.0_f64.to_bits());
        assert_eq!(w[1].1.to_bits(), 3.0_f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn time_series_rejects_regression() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(2.0), 0.0);
        ts.push(SimTime::from_secs(1.0), 0.0);
    }
    /// The pre-run-length representation: one `(t, value)` per point.
    fn reference(points: &[(SimTime, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in points {
            s.push(t, v);
        }
        s
    }

    /// Mixed runs `(t, value, count)`: a value change at an equal
    /// time, `-0.0` next to `0.0` (distinct bits, equal under `==`), a
    /// NaN run, and a time step that keeps the value.
    const COHORTS: [(f64, f64, u64); 9] = [
        (0.0, 0.5, 3),
        (0.0, 0.25, 1),
        (0.0, -0.0, 2),
        (0.0, 0.0, 2),
        (1.0, 0.0, 1),
        (1.0, f64::NAN, 2),
        (1.5, 1e-300, 4),
        (2.0, 1e-300, 1),
        (7.25, 3.0, 5),
    ];

    fn mixed_points() -> Vec<(SimTime, f64)> {
        let mut pts = Vec::new();
        for (t, v, n) in COHORTS {
            for _ in 0..n {
                pts.push((SimTime::from_secs(t), v));
            }
        }
        pts
    }

    fn bits(points: impl Iterator<Item = (SimTime, f64)>) -> Vec<(u64, u64)> {
        points
            .map(|(t, v)| (t.as_secs().to_bits(), v.to_bits()))
            .collect()
    }

    #[test]
    fn runs_expand_to_the_pushed_points() {
        let pts = mixed_points();
        let mut runs = TimeSeries::new();
        for (t, v, n) in COHORTS {
            runs.push_n(SimTime::from_secs(t), v, n);
        }
        assert_eq!(bits(runs.points()), bits(pts.iter().copied()));
        assert_eq!(runs.len(), pts.len());
        // One run per cohort: `-0.0` and `0.0` stay apart, and so do
        // equal values at different times.
        assert_eq!(runs.runs.len(), COHORTS.len());
        // Point-by-point pushes merge into the same runs.
        assert_eq!(reference(&pts).runs.len(), COHORTS.len());
    }

    #[test]
    fn serialized_bytes_match_the_expanded_point_list() {
        // The JSON the derived impl over `Vec<(SimTime, f64)>` wrote.
        #[derive(Serialize)]
        struct Expanded {
            points: Vec<(SimTime, f64)>,
        }
        let mut pts = mixed_points();
        pts.retain(|p| !p.1.is_nan());
        let series = reference(&pts);
        let expected = serde_json::to_string(&Expanded {
            points: pts.clone(),
        })
        .unwrap();
        assert_eq!(serde_json::to_string(&series).unwrap(), expected);
        assert_eq!(
            serde_json::to_string(&TimeSeries::new()).unwrap(),
            r#"{"points":[]}"#
        );
    }

    #[test]
    fn deserialize_round_trips_and_rejects_time_regressions() {
        let mut pts = mixed_points();
        pts.retain(|p| !p.1.is_nan());
        let series = reference(&pts);
        let json = serde_json::to_string(&series).unwrap();
        let back: TimeSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(bits(back.points()), bits(series.points()));
        assert_eq!(back.runs, series.runs);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert!(serde_json::from_str::<TimeSeries>(r#"{"points":[[2.0,1.0],[1.0,1.0]]}"#).is_err());
        assert!(serde_json::from_str::<TimeSeries>(r#"{"other":[]}"#).is_err());
    }

    #[test]
    fn windowed_mean_matches_a_point_by_point_reference() {
        let pts = mixed_points();
        let series = reference(&pts);
        // windowed_mean against a Welford fold over the plain vector.
        for width in [0.5, 1.0, 3.0] {
            let width = SimTime::from_secs(width);
            let mut expected = Vec::new();
            let mut window_end = width;
            let mut acc = Welford::new();
            for &(t, v) in &pts {
                while t >= window_end {
                    if acc.count() > 0 {
                        expected.push((window_end, acc.mean()));
                        acc = Welford::new();
                    }
                    window_end += width;
                }
                acc.push(v);
            }
            if acc.count() > 0 {
                expected.push((window_end, acc.mean()));
            }
            assert_eq!(
                bits(series.windowed_mean(width).into_iter()),
                bits(expected.into_iter())
            );
        }
    }
}
