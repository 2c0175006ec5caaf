//! Property tests for the telemetry crate's core laws:
//! merge exactness, the quantile error bound, windowed bucket storage
//! against a dense reference, and clock parity of the tracer.

use leime_telemetry::hist::{
    bucket_index, bucket_representative, Buckets, BUCKETS_PER_OCTAVE, MIN_MAG, NUM_BUCKETS,
};
use leime_telemetry::{Clock, SpanRecord, Tracer, WallClock};
use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;

fn buckets_from(samples: &[f64]) -> Buckets {
    let mut b = Buckets::new();
    for &s in samples {
        b.record(s);
    }
    b
}

proptest! {
    /// merge(a, b) is indistinguishable from recording a ++ b: identical
    /// bucket counts (hence identical quantile answers), identical
    /// extremes, and sums equal up to float re-association.
    #[test]
    fn merge_equals_union(
        a in prop::collection::vec(-1e6f64..1e6, 0..200),
        b in prop::collection::vec(-1e6f64..1e6, 0..200),
    ) {
        let mut merged = buckets_from(&a);
        merged.merge(&buckets_from(&b));

        let union: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let direct = buckets_from(&union);

        prop_assert_eq!(merged.count(), direct.count());
        for i in 0..NUM_BUCKETS {
            prop_assert_eq!(merged.bucket_count(i), direct.bucket_count(i));
        }
        prop_assert_eq!(merged.min(), direct.min());
        prop_assert_eq!(merged.max(), direct.max());
        let tol = 1e-9 * (1.0 + direct.sum().abs());
        prop_assert!((merged.sum() - direct.sum()).abs() <= tol);
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), direct.quantile(q));
        }
    }

    /// A quantile estimate lands in the same log bucket as the exact
    /// nearest-rank sample quantile (or exactly at a recorded extreme),
    /// i.e. the error is at most one bucket width.
    #[test]
    fn quantile_within_one_bucket(
        samples in prop::collection::vec(1e-6f64..1e6, 1..300),
        q in 0.0f64..=1.0,
    ) {
        let b = buckets_from(&samples);
        let mut sorted = samples.clone();
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let est = b.quantile(q).unwrap();

        // Same bucket as the exact answer, or clamped onto an observed
        // extreme (which is itself a recorded sample).
        let same_bucket = bucket_index(est) == bucket_index(exact);
        let at_extreme = est.to_bits() == sorted[0].to_bits()
            || est.to_bits() == sorted[sorted.len() - 1].to_bits();
        // Either way the multiplicative error is ≤ one bucket growth
        // factor, except when clamping jumped to an extreme.
        let growth = 2f64.powf(1.0 / BUCKETS_PER_OCTAVE as f64);
        let ratio = est / exact;
        prop_assert!(
            same_bucket || at_extreme,
            "estimate {} for quantile({}) left the bucket of exact {}",
            est, q, exact
        );
        if same_bucket {
            prop_assert!(ratio < growth && ratio > 1.0 / growth);
        }
        // Estimates never escape the observed range.
        prop_assert!(est >= sorted[0] && est <= sorted[sorted.len() - 1]);
    }

    /// Quantiles are monotone in q.
    #[test]
    fn quantiles_are_monotone(
        samples in prop::collection::vec(-1e3f64..1e3, 1..200),
        qa in 0.0f64..=1.0,
        qb in 0.0f64..=1.0,
    ) {
        let b = buckets_from(&samples);
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(b.quantile(lo).unwrap() <= b.quantile(hi).unwrap());
    }
}

/// A dense reference histogram: every bucket's count, and the totals
/// accumulated in recording order.
struct Dense {
    counts: [u64; NUM_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Dense {
    fn new() -> Self {
        Dense {
            counts: [0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        for _ in 0..n {
            self.sum += v;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Nearest-rank quantile over all buckets, by the documented rule.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0;
        (0..NUM_BUCKETS).find_map(|i| {
            cumulative += self.counts[i];
            (cumulative >= target).then(|| bucket_representative(i).clamp(self.min, self.max))
        })
    }

    /// The sparse `[index, count]` serialization of the dense state.
    fn json(&self) -> serde_json::Value {
        let sparse: Vec<(u64, u64)> = (0..NUM_BUCKETS)
            .filter(|&i| self.counts[i] > 0)
            .map(|i| (i as u64, self.counts[i]))
            .collect();
        let (min, max) = if self.count > 0 {
            (Some(self.min), Some(self.max))
        } else {
            (None, None)
        };
        serde_json::json!({
            "buckets_per_octave": BUCKETS_PER_OCTAVE as u64,
            "min_magnitude": MIN_MAG,
            "counts": sparse,
            "count": self.count,
            "sum": self.sum,
            "min": min,
            "max": max
        })
    }
}

/// The sample `±m · 2^(base + e)` (0 when `m` is 0). Within one case
/// the magnitudes span 17 octaves above `2^base`, so every sum is exact
/// and any split adds up to the same bits; across cases `base` reaches
/// the zero bucket (below `MIN_MAG`) and the clamped outermost buckets.
fn sample(base: i32, sign: f64, m: u32, e: i32) -> f64 {
    sign.signum() * f64::from(m) * 2f64.powi(base + e)
}

/// Records `n` copies of `v`, through `record` when `n` is 1.
fn record(b: &mut Buckets, v: f64, n: u64) {
    if n == 1 {
        b.record(v);
    } else {
        b.record_n(v, n);
    }
}

proptest! {
    /// The windowed storage answers exactly as a dense array would,
    /// whatever the order and split: every bucket count, every quantile
    /// and the serialized bytes match the dense reference, and all
    /// splits merge back to `==` histograms.
    #[test]
    fn windowed_buckets_match_a_dense_reference(
        base in -45i32..26,
        steps in prop::collection::vec(
            (-1.0f64..1.0, 0u32..8, 0i32..15, 0u64..4, 0usize..3),
            0..100,
        ),
    ) {
        let mut dense = Dense::new();
        let mut whole = Buckets::new();
        let mut parts = [Buckets::new(), Buckets::new(), Buckets::new()];
        for &(sign, m, e, n, part) in &steps {
            let v = sample(base, sign, m, e);
            dense.record_n(v, n);
            record(&mut whole, v, n);
            record(&mut parts[part], v, n);
        }
        for i in 0..NUM_BUCKETS {
            prop_assert_eq!(whole.bucket_count(i), dense.counts[i], "bucket {}", i);
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            prop_assert_eq!(whole.quantile(q), dense.quantile(q));
        }
        prop_assert_eq!(
            serde_json::to_string(&whole).unwrap(),
            serde_json::to_string(&dense.json()).unwrap()
        );
        let nonzero = (0..NUM_BUCKETS).filter(|&i| dense.counts[i] > 0);
        prop_assert!(whole.non_empty().map(|(i, _)| i).eq(nonzero));

        // Every merge order, into an empty histogram and into a part.
        let orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for [a, b, c] in orders {
            let mut fresh = Buckets::new();
            for p in [a, b, c] {
                fresh.merge(&parts[p]);
            }
            prop_assert_eq!(&fresh, &whole);
            let mut into_part = parts[a].clone();
            into_part.merge(&parts[b]);
            into_part.merge(&parts[c]);
            prop_assert_eq!(&into_part, &whole);
        }
    }
}

/// A clock stepped by hand, standing in for simulated time.
#[derive(Clone, Default)]
struct SteppedClock(Rc<Cell<f64>>);

impl Clock for SteppedClock {
    fn now(&self) -> f64 {
        self.0.get()
    }
}

/// Drives the same generic instrumentation against a stepped clock and
/// the wall clock and checks the traces agree structurally: same span
/// names, same nesting order, non-negative durations. With the stepped
/// clock the timestamps are additionally exact.
#[test]
fn tracer_parity_virtual_vs_wall() {
    fn workload<C: Clock>(tracer: &Tracer<C>, advance: impl Fn(f64)) -> Vec<SpanRecord> {
        {
            let _run = tracer.span("run");
            for slot in 0..3 {
                let _s = tracer.span(format!("slot-{slot}"));
                advance(0.05);
                drop(tracer.span("decide"));
                advance(0.05);
            }
        }
        tracer.records()
    }

    let vclock = SteppedClock::default();
    let vtick = {
        let c = vclock.clone();
        move |dt: f64| c.0.set(c.now() + dt)
    };
    let virtual_records = workload(&Tracer::new(vclock), vtick);
    let spin = WallClock::new();
    let wall_records = workload(&Tracer::new(WallClock::new()), |_dt| {
        // A real sleep would slow the suite; spinning a moment is enough
        // for the wall clock to move on every platform we run on.
        let t0 = spin.now();
        while spin.now() - t0 < 1e-6 {}
    });

    let names = |rs: &[SpanRecord]| rs.iter().map(|r| r.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(&virtual_records), names(&wall_records));
    for r in virtual_records.iter().chain(&wall_records) {
        assert!(r.duration() >= 0.0, "negative duration in {r:?}");
    }
    // Stepped time is exact: each slot spans 0.1s and holds an instant
    // "decide" span at the midpoint.
    for slot in 0..3 {
        let decide = &virtual_records[2 * slot];
        assert_eq!(decide.name, "decide");
        assert!((decide.start - (0.1 * slot as f64 + 0.05)).abs() < 1e-12);
        assert_eq!(decide.duration().to_bits(), 0.0_f64.to_bits());
        let rec = &virtual_records[2 * slot + 1];
        assert_eq!(rec.name, format!("slot-{slot}"));
        assert!((rec.duration() - 0.1).abs() < 1e-12);
    }
    let run = virtual_records.last().unwrap();
    assert_eq!(run.name, "run");
    assert!((run.duration() - 0.3).abs() < 1e-12);
}
