//! Property tests for the simulation substrate: statistical identities
//! and trace evaluation over random inputs.

use leime_simnet::stats::{Percentiles, Welford};
use leime_simnet::{SimTime, TimeTrace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Welford mean/variance match the two-pass formulas.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e4f64..1e4, 2..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((w.variance() - var).abs() < 1e-6 * var.max(1.0));
    }

    /// Quantiles are monotone in q and bounded by the extremes.
    #[test]
    fn quantiles_are_monotone(xs in prop::collection::vec(-1e4f64..1e4, 1..100)) {
        let mut p = Percentiles::new();
        for &x in &xs {
            p.push(x);
        }
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = lo;
        for i in 0..=10 {
            let q = p.quantile(i as f64 / 10.0).unwrap();
            prop_assert!(q >= prev - 1e-9);
            prop_assert!(q >= lo - 1e-9 && q <= hi + 1e-9);
            prev = q;
        }
    }

    /// A time trace evaluates to exactly one of its breakpoint values and
    /// is right-continuous at breakpoints.
    #[test]
    fn trace_values_come_from_points(
        vals in prop::collection::vec(-100.0f64..100.0, 1..20),
        at in 0.0f64..1e4,
    ) {
        let points: Vec<(SimTime, f64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (SimTime::from_secs(i as f64 * 10.0), v))
            .collect();
        let trace = TimeTrace::from_points(points.clone()).unwrap();
        let v = trace.value_at(SimTime::from_secs(at));
        prop_assert!(vals.contains(&v));
        // Right-continuity at each breakpoint.
        for &(t, pv) in &points {
            prop_assert_eq!(trace.value_at(t).to_bits(), pv.to_bits());
        }
    }
}
