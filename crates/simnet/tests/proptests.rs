//! Property tests for the simulation substrate: trace evaluation over
//! random inputs.

use leime_simnet::{SimTime, TimeTrace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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
