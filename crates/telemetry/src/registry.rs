//! The metric [`Registry`] and its serializable [`TelemetrySnapshot`].
//!
//! A registry is a cheap-to-clone handle over one table of plain
//! values, keyed by name: counter totals, [`Buckets`] histograms and
//! `(time, value)` series. Three writes add to it — [`add_count`],
//! [`merge_histogram`] and [`extend_series`] — and each creates its name
//! on first use. Every simulator records on its driving thread (shard
//! workers fill their own sinks, which the driver replays; DESIGN.md
//! §11), so the one mutex over the table never has a second writer to
//! wait for: it is there because perfbench writes through `&Registry`.
//!
//! Tables are `BTreeMap`s, so every export walks names in one fixed
//! order no matter what order metrics were written in — snapshot
//! output (and everything downstream: `telemetry.json`, replay diffs)
//! is byte-stable by construction, with no sort step to forget. The
//! workspace's `clippy::disallowed_types` entry for `HashMap`/`HashSet`
//! guards the same property against regressions.
//!
//! [`add_count`]: Registry::add_count
//! [`merge_histogram`]: Registry::merge_histogram
//! [`extend_series`]: Registry::extend_series

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use serde::{Deserialize, Serialize};

use crate::hist::Buckets;

/// Named metric store; clones share one table (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    tables: Arc<Mutex<Tables>>,
}

#[derive(Debug, Default)]
struct Tables {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Buckets>,
    series: BTreeMap<String, Vec<(f64, f64)>>,
}

/// Applies `write` to the value named `name`, created empty on first
/// use; the name is copied only then.
fn upsert<T: Default>(table: &mut BTreeMap<String, T>, name: &str, write: impl FnOnce(&mut T)) {
    match table.get_mut(name) {
        Some(value) => write(value),
        None => write(table.entry(name.to_owned()).or_default()),
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `n` to the counter named `name`.
    pub fn add_count(&self, name: &str, n: u64) {
        upsert(&mut self.tables().counters, name, |total| *total += n);
    }

    /// Merges `buckets` into the histogram named `name` (see
    /// [`Buckets::merge`]). Merged into a new name, the histogram
    /// equals `buckets`.
    pub fn merge_histogram(&self, name: &str, buckets: &Buckets) {
        upsert(&mut self.tables().histograms, name, |h| h.merge(buckets));
    }

    /// Appends `points`, in order, to the series named `name`.
    pub fn extend_series(&self, name: &str, points: impl IntoIterator<Item = (f64, f64)>) {
        upsert(&mut self.tables().series, name, |s| s.extend(points));
    }

    fn tables(&self) -> MutexGuard<'_, Tables> {
        crate::sync::lock_unpoisoned(&self.tables)
    }

    /// A serializable copy of every metric's current state. The tables
    /// are ordered maps, so each section comes out sorted by name with
    /// no explicit sort step.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let tables = self.tables();
        TelemetrySnapshot {
            schema: SCHEMA_VERSION.to_string(),
            counters: tables
                .counters
                .iter()
                .map(|(name, &value)| CounterSnapshot {
                    name: name.clone(),
                    value,
                })
                .collect(),
            histograms: tables
                .histograms
                .iter()
                .map(|(name, h)| HistogramSnapshot::from_buckets(name.clone(), h.clone()))
                .collect(),
            series: tables
                .series
                .iter()
                .map(|(name, points)| SeriesSnapshot {
                    name: name.clone(),
                    points: points.clone(),
                })
                .collect(),
        }
    }
}

/// Version tag written into every snapshot (`telemetry.json` schema).
pub const SCHEMA_VERSION: &str = "leime-telemetry/1";

/// A counter's name and value at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// A histogram's state plus pre-computed summary statistics, so
/// consumers of `telemetry.json` don't need to re-derive quantiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Exact arithmetic mean, or `None` when empty.
    pub mean: Option<f64>,
    /// Median estimate (error ≤ one log bucket).
    pub p50: Option<f64>,
    /// 95th-percentile estimate.
    pub p95: Option<f64>,
    /// 99th-percentile estimate.
    pub p99: Option<f64>,
    /// 99.9th-percentile estimate (tail-latency SLO quantile).
    pub p999: Option<f64>,
    /// Exact maximum.
    pub max: Option<f64>,
    /// Full bucket contents, for re-aggregation.
    pub buckets: Buckets,
}

impl HistogramSnapshot {
    /// Derives the summary fields from a bucket snapshot.
    pub fn from_buckets(name: String, buckets: Buckets) -> Self {
        HistogramSnapshot {
            name,
            count: buckets.count(),
            mean: buckets.mean(),
            p50: buckets.quantile(0.5),
            p95: buckets.quantile(0.95),
            p99: buckets.quantile(0.99),
            p999: buckets.p999(),
            max: buckets.max(),
            buckets,
        }
    }
}

/// A time series' name and `(time, value)` points at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// Metric name.
    pub name: String,
    /// `(time_seconds, value)` samples in recording order.
    pub points: Vec<(f64, f64)>,
}

/// Everything a [`Registry`] holds, ready for `serde_json`. This is the
/// top-level object of `telemetry.json` (schema in EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Schema version tag ([`SCHEMA_VERSION`]).
    pub schema: String,
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// All time series, sorted by name.
    pub series: Vec<SeriesSnapshot>,
}

impl TelemetrySnapshot {
    /// Looks up a series by exact name.
    pub fn series_named(&self, name: &str) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Looks up a histogram by exact name.
    pub fn histogram_named(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buckets(samples: &[f64]) -> Buckets {
        let mut b = Buckets::new();
        for &s in samples {
            b.record(s);
        }
        b
    }

    #[test]
    fn add_count_accumulates() {
        let r = Registry::new();
        let other = r.clone();
        r.add_count("tasks", 3);
        other.add_count("tasks", 4);
        assert_eq!(r.snapshot().counters[0].value, 7);
    }

    #[test]
    fn extend_series_preserves_order() {
        let r = Registry::new();
        let other = r.clone();
        r.extend_series("q", [(0.0, 1.0), (0.1, 2.0)]);
        other.extend_series("q", vec![(0.2, 3.0)]);
        assert_eq!(
            r.snapshot().series_named("q").unwrap().points,
            vec![(0.0, 1.0), (0.1, 2.0), (0.2, 3.0)]
        );
    }

    #[test]
    fn one_extend_matches_several() {
        let points: Vec<(f64, f64)> = (0..37).map(|i| (i as f64 * 0.5, (i * i) as f64)).collect();
        let several = Registry::new();
        several.extend_series("q", points[..10].iter().copied());
        several.extend_series("q", []);
        several.extend_series("q", points[10..].iter().copied());
        let one = Registry::new();
        one.extend_series("q", points.iter().copied());
        assert_eq!(
            several.snapshot().series_named("q").unwrap().points,
            one.snapshot().series_named("q").unwrap().points
        );
    }

    #[test]
    fn second_write_to_a_name_accumulates() {
        let r = Registry::new();
        let other = r.clone();
        let (a, b) = (buckets(&[0.5, 1.0, 2.0]), buckets(&[1.0, 8.0]));
        r.merge_histogram("tct", &a);
        other.merge_histogram("tct", &b);

        let snap = r.snapshot();
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(snap.histogram_named("tct").unwrap().buckets, merged);
        assert_eq!(snap.histograms[0].count, 5);
        // Into a new name, a merge equals its argument, sum bits too.
        assert_eq!(
            snap.histogram_named("tct").unwrap().buckets.sum().to_bits(),
            12.5_f64.to_bits()
        );
        let fresh = Registry::new();
        fresh.merge_histogram("b", &b);
        let stored = &fresh.snapshot().histograms[0].buckets;
        assert_eq!(stored, &b);
        assert_eq!(stored.sum().to_bits(), b.sum().to_bits());
    }

    #[test]
    fn an_attached_name_never_written_appears_empty() {
        let r = Registry::new();
        r.add_count("n", 0);
        r.merge_histogram("lat", &Buckets::new());
        r.extend_series("q", []);
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![CounterSnapshot {
                name: "n".into(),
                value: 0
            }]
        );
        let lat = snap.histogram_named("lat").unwrap();
        assert_eq!((lat.count, lat.mean, lat.max), (0, None, None));
        assert!(snap.series_named("q").unwrap().points.is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.add_count("zeta", 2);
        r.add_count("alpha", 1);
        r.merge_histogram("tct", &buckets(&[0.125]));
        r.extend_series("queue", [(0.0, 3.0)]);
        let snap = r.snapshot();
        assert_eq!(snap.schema, SCHEMA_VERSION);
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(snap.histograms[0].count, 1);
        assert_eq!(snap.histograms[0].max, Some(0.125));
        assert_eq!(snap.series_named("queue").unwrap().points, vec![(0.0, 3.0)]);
    }

    #[test]
    fn snapshot_bytes_are_registration_order_independent() {
        let write = |names: [&str; 4]| {
            let r = Registry::new();
            for name in names {
                r.add_count(name, 1);
                r.merge_histogram(name, &buckets(&[0.25]));
                r.extend_series(name, [(0.0, 1.0)]);
            }
            serde_json::to_string_pretty(&r.snapshot()).unwrap()
        };
        assert_eq!(
            write(["a", "b", "c", "zeta"]),
            write(["zeta", "c", "b", "a"])
        );
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.add_count("n", 7);
        let lat: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-3).collect();
        r.merge_histogram("lat", &buckets(&lat));
        r.extend_series("q", [(0.0, 1.0), (1.0, 2.0)]);
        let snap = r.snapshot();
        let text = serde_json::to_string_pretty(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(snap, back);

        // Snapshots written while the schema still carried an (always
        // empty) `gauges` section read back to the same value.
        let mut old: serde_json::Value = serde_json::from_str(&text).unwrap();
        let top = old.as_object_mut().unwrap();
        top.insert("gauges".to_string(), serde_json::from_str("[]").unwrap());
        let back: TelemetrySnapshot = serde_json::from_str(&old.to_string()).unwrap();
        assert_eq!(snap, back);
    }
}
