//! The metric [`Registry`] and its serializable [`TelemetrySnapshot`].
//!
//! A registry hands out `Arc` handles to named metrics, get-or-create
//! by name. Its internal mutex guards only the name → handle tables:
//! it is taken at registration and snapshot time, never while
//! recording — recording goes through the handles. Counters and gauges
//! are atomics; a histogram or series is one value behind its own lock,
//! written once per run on the driver.
//!
//! Tables are `BTreeMap`s, so every export walks names in one fixed
//! order no matter what order metrics were registered in — snapshot
//! output (and everything downstream: `telemetry.json`, replay diffs)
//! is byte-stable by construction, with no sort step to forget. The
//! workspace's `clippy::disallowed_types` entry for `HashMap`/`HashSet`
//! guards the same property against regressions.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::hist::{Buckets, Histogram};
use crate::metrics::{Counter, Gauge, Series};

/// Named metric store; see the module docs for locking discipline.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    series: Mutex<BTreeMap<String, Arc<Series>>>,
}

fn get_or_create<T: Default>(table: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut table = crate::sync::lock_unpoisoned(table);
    if let Some(handle) = table.get(name) {
        return Arc::clone(handle);
    }
    let handle = Arc::new(T::default());
    table.insert(name.to_string(), Arc::clone(&handle));
    handle
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// The time series named `name`, created on first use.
    pub fn series(&self, name: &str) -> Arc<Series> {
        get_or_create(&self.series, name)
    }

    /// A serializable copy of every registered metric's current state.
    /// The tables are ordered maps, so each section comes out sorted by
    /// name with no explicit sort step.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters: Vec<CounterSnapshot> = crate::sync::lock_unpoisoned(&self.counters)
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            })
            .collect();

        let gauges: Vec<GaugeSnapshot> = crate::sync::lock_unpoisoned(&self.gauges)
            .iter()
            .map(|(name, g)| GaugeSnapshot {
                name: name.clone(),
                value: g.get(),
            })
            .collect();

        let histograms: Vec<HistogramSnapshot> = crate::sync::lock_unpoisoned(&self.histograms)
            .iter()
            .map(|(name, h)| HistogramSnapshot::from_buckets(name.clone(), h.snapshot()))
            .collect();

        let series: Vec<SeriesSnapshot> = crate::sync::lock_unpoisoned(&self.series)
            .iter()
            .map(|(name, s)| SeriesSnapshot {
                name: name.clone(),
                points: s.points(),
            })
            .collect();

        TelemetrySnapshot {
            schema: SCHEMA_VERSION.to_string(),
            counters,
            gauges,
            histograms,
            series,
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

/// A gauge's name and value at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Gauge value.
    pub value: f64,
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
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
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

    #[test]
    fn get_or_create_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("tasks");
        let b = r.counter("tasks");
        a.incr();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("zeta").add(2);
        r.counter("alpha").add(1);
        r.gauge("util").set(0.5);
        r.histogram("tct").record(0.125);
        r.series("queue").push(0.0, 3.0);
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
        let forward = Registry::new();
        for name in ["a", "b", "c", "zeta"] {
            forward.counter(name).add(1);
            forward.gauge(name).set(2.0);
            forward.histogram(name).record(0.25);
            forward.series(name).push(0.0, 1.0);
        }
        let backward = Registry::new();
        for name in ["zeta", "c", "b", "a"] {
            backward.counter(name).add(1);
            backward.gauge(name).set(2.0);
            backward.histogram(name).record(0.25);
            backward.series(name).push(0.0, 1.0);
        }
        let fwd = serde_json::to_string_pretty(&forward.snapshot()).unwrap();
        let bwd = serde_json::to_string_pretty(&backward.snapshot()).unwrap();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter("n").add(7);
        r.gauge("g").set(-1.5);
        for i in 1..=100 {
            r.histogram("lat").record(i as f64 * 1e-3);
        }
        r.series("q").push(0.0, 1.0);
        r.series("q").push(1.0, 2.0);
        let snap = r.snapshot();
        let text = serde_json::to_string_pretty(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(snap, back);
    }
}
