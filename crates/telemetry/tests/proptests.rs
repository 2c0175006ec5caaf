//! Property tests for the telemetry crate's core laws:
//! merge exactness, the quantile error bound, and clock-impl parity of
//! the tracer.

use leime_telemetry::hist::{bucket_index, Buckets, BUCKETS_PER_OCTAVE, NUM_BUCKETS};
use leime_telemetry::{Clock, SpanRecord, Tracer, VirtualClock, WallClock};
use proptest::prelude::*;

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

/// Drives the same generic instrumentation against both clock impls and
/// checks the traces agree structurally: same span names, same nesting
/// order, non-negative durations. With the virtual clock the timestamps
/// are additionally exact.
#[test]
fn tracer_parity_virtual_vs_wall() {
    fn workload<C: Clock>(tracer: &Tracer<C>, advance: impl Fn(f64)) -> Vec<SpanRecord> {
        {
            let _run = tracer.span("run");
            for slot in 0..3 {
                let _s = tracer.span(format!("slot-{slot}"));
                advance(0.05);
                tracer.event("decide");
                advance(0.05);
            }
        }
        tracer.records()
    }

    let vclock = VirtualClock::new();
    let vtick = {
        let c = vclock.clone();
        move |dt: f64| c.advance_to(c.now() + dt)
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
    // Simulated time is exact: each slot spans 0.1s and holds its event
    // at the midpoint.
    for slot in 0..3 {
        let rec = &virtual_records[2 * slot + 1];
        assert_eq!(rec.name, format!("slot-{slot}"));
        assert!((rec.duration() - 0.1).abs() < 1e-12);
    }
    let run = virtual_records.last().unwrap();
    assert_eq!(run.name, "run");
    assert!((run.duration() - 0.3).abs() < 1e-12);
}
