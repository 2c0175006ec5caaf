use crate::SimTime;
use serde::{Deserialize, Serialize};

/// A piecewise-constant time-varying parameter (bandwidth, arrival rate,
/// background load…).
///
/// Defined by breakpoints `(t_k, v_k)`: the value is `v_k` for
/// `t ∈ [t_k, t_{k+1})`, and the last value holds forever. Before the first
/// breakpoint the first value holds.
///
/// ```
/// use leime_simnet::{SimTime, TimeTrace};
///
/// let trace = TimeTrace::from_points(vec![
///     (SimTime::ZERO, 10.0),
///     (SimTime::from_secs(5.0), 50.0),
/// ]).unwrap();
/// assert_eq!(trace.value_at(SimTime::from_secs(2.0)), 10.0);
/// assert_eq!(trace.value_at(SimTime::from_secs(7.0)), 50.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeTrace {
    points: Vec<(SimTime, f64)>,
}

impl TimeTrace {
    /// A trace that is `value` forever.
    pub fn constant(value: f64) -> Self {
        TimeTrace {
            points: vec![(SimTime::ZERO, value)],
        }
    }

    /// Creates a trace from breakpoints.
    ///
    /// # Errors
    ///
    /// Returns a message if `points` is empty or timestamps are not
    /// strictly increasing.
    pub fn from_points(points: Vec<(SimTime, f64)>) -> Result<Self, String> {
        if points.is_empty() {
            return Err("trace requires at least one breakpoint".to_string());
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!(
                    "trace timestamps must strictly increase: {} then {}",
                    w[0].0, w[1].0
                ));
            }
        }
        Ok(TimeTrace { points })
    }

    /// A square wave alternating `lo`/`hi` with the given half-period,
    /// covering `[0, horizon)` — used for the paper's dynamic-arrival-rate
    /// stability experiment (Fig. 9).
    ///
    /// # Panics
    ///
    /// Panics if `half_period` is zero.
    pub fn square_wave(lo: f64, hi: f64, half_period: SimTime, horizon: SimTime) -> Self {
        assert!(half_period > SimTime::ZERO, "half_period must be positive");
        let mut points = Vec::new();
        let mut t = SimTime::ZERO;
        let mut high = false;
        while t < horizon {
            points.push((t, if high { hi } else { lo }));
            high = !high;
            t += half_period;
        }
        TimeTrace { points }
    }

    /// Value of the trace at time `t`.
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// The breakpoints.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace() {
        let t = TimeTrace::constant(3.5);
        assert_eq!(t.value_at(SimTime::ZERO).to_bits(), 3.5_f64.to_bits());
        assert_eq!(
            t.value_at(SimTime::from_secs(1e6)).to_bits(),
            3.5_f64.to_bits()
        );
    }

    #[test]
    fn step_boundaries() {
        let tr =
            TimeTrace::from_points(vec![(SimTime::ZERO, 1.0), (SimTime::from_secs(10.0), 2.0)])
                .unwrap();
        assert_eq!(
            tr.value_at(SimTime::from_secs(9.999)).to_bits(),
            1.0_f64.to_bits()
        );
        assert_eq!(
            tr.value_at(SimTime::from_secs(10.0)).to_bits(),
            2.0_f64.to_bits()
        );
        assert_eq!(
            tr.value_at(SimTime::from_secs(11.0)).to_bits(),
            2.0_f64.to_bits()
        );
    }

    #[test]
    fn rejects_non_increasing() {
        assert!(TimeTrace::from_points(vec![
            (SimTime::from_secs(5.0), 1.0),
            (SimTime::from_secs(5.0), 2.0),
        ])
        .is_err());
        assert!(TimeTrace::from_points(vec![]).is_err());
    }

    #[test]
    fn square_wave_alternates() {
        let tr =
            TimeTrace::square_wave(1.0, 9.0, SimTime::from_secs(10.0), SimTime::from_secs(40.0));
        assert_eq!(
            tr.value_at(SimTime::from_secs(5.0)).to_bits(),
            1.0_f64.to_bits()
        );
        assert_eq!(
            tr.value_at(SimTime::from_secs(15.0)).to_bits(),
            9.0_f64.to_bits()
        );
        assert_eq!(
            tr.value_at(SimTime::from_secs(25.0)).to_bits(),
            1.0_f64.to_bits()
        );
        assert_eq!(
            tr.value_at(SimTime::from_secs(35.0)).to_bits(),
            9.0_f64.to_bits()
        );
        // Holds last value past the horizon.
        assert_eq!(
            tr.value_at(SimTime::from_secs(100.0)).to_bits(),
            9.0_f64.to_bits()
        );
    }
}
