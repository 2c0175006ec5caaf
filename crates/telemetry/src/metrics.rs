//! Scalar metrics: monotonically increasing [`Counter`]s, last-value
//! [`Gauge`]s, and time-indexed [`Series`] recorders.
//!
//! Counters and gauges are pure atomics. A series appends `(time,
//! value)` points behind a mutex: it is recorded at most once per
//! simulated slot or wall tick (a cold path by construction), never per task.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64` (stored as bits in an
/// `AtomicU64`).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A `(time, value)` time series, appended once per slot or tick.
///
/// Times are whatever clock the recorder uses — simulated seconds from a
/// `VirtualClock` or wall seconds from a `WallClock` — and must be
/// supplied by the caller so simulation series don't depend on real time.
#[derive(Debug, Default)]
pub struct Series {
    points: Mutex<Vec<(f64, f64)>>,
}

impl Series {
    /// An empty series.
    pub fn new() -> Self {
        Series::default()
    }

    /// Appends one sample at time `t`.
    pub fn push(&self, t: f64, value: f64) {
        crate::sync::lock_unpoisoned(&self.points).push((t, value));
    }

    /// Appends many samples under one lock acquisition — equivalent to
    /// calling [`Series::push`] for each point in order, but the hot
    /// slotted runner flushes a whole slot (or epoch) of points at once
    /// instead of taking the mutex per decision.
    pub fn push_batch(&self, points: &[(f64, f64)]) {
        if points.is_empty() {
            return;
        }
        crate::sync::lock_unpoisoned(&self.points).extend_from_slice(points);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.points).len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of all points recorded so far.
    pub fn points(&self) -> Vec<(f64, f64)> {
        crate::sync::lock_unpoisoned(&self.points).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_holds_last_value() {
        let g = Gauge::new();
        assert_eq!(g.get().to_bits(), 0.0_f64.to_bits());
        g.set(-2.5);
        g.set(7.25);
        assert_eq!(g.get().to_bits(), 7.25_f64.to_bits());
    }

    #[test]
    fn series_preserves_order() {
        let s = Series::new();
        s.push(0.0, 1.0);
        s.push(0.1, 2.0);
        s.push(0.2, 3.0);
        assert_eq!(s.points(), vec![(0.0, 1.0), (0.1, 2.0), (0.2, 3.0)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn push_batch_matches_sequential_pushes() {
        let batched = Series::new();
        let sequential = Series::new();
        let points: Vec<(f64, f64)> = (0..37).map(|i| (i as f64 * 0.5, (i * i) as f64)).collect();
        for &(t, v) in &points {
            sequential.push(t, v);
        }
        batched.push_batch(&points[..10]);
        batched.push_batch(&[]);
        batched.push_batch(&points[10..]);
        assert_eq!(batched.points(), sequential.points());
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = std::sync::Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }
}
