//! Property tests for the simulation substrate: causality, work
//! conservation, and statistical identities over random inputs.

use leime_simnet::stats::{Percentiles, Welford};
use leime_simnet::{EventQueue, FifoServer, Link, SimTime, TimeTrace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Events always pop in non-decreasing time order with FIFO ties.
    #[test]
    fn event_queue_is_totally_ordered(times in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_secs(t), i);
        }
        let mut last_t = SimTime::ZERO;
        let mut seen_at_t: Vec<usize> = Vec::new();
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t >= last_t);
            if t > last_t {
                seen_at_t.clear();
            }
            // FIFO among equal timestamps: indices increase.
            if let Some(&prev) = seen_at_t.last() {
                prop_assert!(idx > prev, "tie broken out of order");
            }
            seen_at_t.push(idx);
            last_t = t;
        }
    }

    /// A FIFO server is work-conserving: total busy time equals total
    /// submitted work / rate, and completions are ordered.
    #[test]
    fn fifo_server_conserves_work(
        jobs in prop::collection::vec((0.0f64..100.0, 1.0f64..1e6), 1..50),
        rate in 1.0f64..1e9,
    ) {
        let mut server = FifoServer::new(rate);
        let mut arrivals: Vec<(f64, f64)> = jobs;
        arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut last_finish = SimTime::ZERO;
        let total_work: f64 = arrivals.iter().map(|j| j.1).sum();
        for &(at, work) in &arrivals {
            let finish = server.submit(SimTime::from_secs(at), work);
            // FIFO: completions never regress.
            prop_assert!(finish >= last_finish);
            // Completion is no earlier than arrival + own service.
            prop_assert!(finish.as_secs() >= at + work / rate - 1e-9);
            last_finish = finish;
        }
        // Work conservation: the last completion cannot beat total work
        // compressed from the first arrival.
        let first = arrivals[0].0;
        prop_assert!(last_finish.as_secs() >= first + total_work / rate - 1e-6);
    }

    /// Serializing links never finish a transfer earlier than the
    /// uncontended formula, and preserve ordering.
    #[test]
    fn link_serialization_bounds(
        transfers in prop::collection::vec((0.0f64..100.0, 1.0f64..1e7), 1..40),
        bw in 1e5f64..1e9,
        lat in 0.0f64..0.5,
    ) {
        let mut link = Link::new(bw, SimTime::from_secs(lat), true);
        let mut sorted = transfers;
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut last = SimTime::ZERO;
        for &(at, bytes) in &sorted {
            let arrive = link.transfer(SimTime::from_secs(at), bytes);
            let ideal = at + bytes * 8.0 / bw + lat;
            prop_assert!(arrive.as_secs() >= ideal - 1e-9,
                "transfer finished before physics allows");
            prop_assert!(arrive >= last);
            last = arrive;
        }
    }

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
