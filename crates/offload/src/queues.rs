use leime_invariant as invariant;
use serde::{Deserialize, Serialize};

/// The two task queues the paper tracks per device: the local queue
/// `Q_i(t)` of first-block tasks waiting on the device, and the edge queue
/// `H_i(t)` of first-block tasks this device offloaded that wait in its
/// edge share (Eq. 10–11).
///
/// Queue lengths are real-valued (expected task counts), matching the
/// paper's fluid treatment of fractional offloading ratios.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct QueuePair {
    q: f64,
    h: f64,
}

impl QueuePair {
    /// Empty queues.
    pub fn new() -> Self {
        QueuePair::default()
    }

    /// Device queue length `Q_i(t)`.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Edge queue length `H_i(t)`.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Applies one slot's updates:
    ///
    /// ```text
    /// Q(t+1) = max(Q(t) − b(t), 0) + A(t)      (Eq. 10)
    /// H(t+1) = max(H(t) − c(t), 0) + D(t)      (Eq. 11)
    /// ```
    ///
    /// where `A`/`D` are the locally-kept/offloaded arrivals and `b`/`c`
    /// the device/edge service quotas for the slot.
    ///
    /// # Panics
    ///
    /// Panics if any argument is negative or non-finite.
    #[inline]
    pub fn step(
        &mut self,
        arrivals_local: f64,
        arrivals_edge: f64,
        served_local: f64,
        served_edge: f64,
    ) {
        for (name, v) in [
            ("arrivals_local", arrivals_local),
            ("arrivals_edge", arrivals_edge),
            ("served_local", served_local),
            ("served_edge", served_edge),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{name} invalid: {v}");
        }
        self.q = (self.q - served_local).max(0.0) + arrivals_local;
        self.h = (self.h - served_edge).max(0.0) + arrivals_edge;
        invariant::check_nonneg("offload.queue.q", self.q);
        invariant::check_nonneg("offload.queue.h", self.h);
    }

    /// The quadratic Lyapunov function `L(Θ) = (Q² + H²)/2` for this pair.
    pub fn lyapunov(&self) -> f64 {
        0.5 * (self.q * self.q + self.h * self.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_follow_recursions() {
        let mut qp = QueuePair::new();
        qp.step(5.0, 3.0, 0.0, 0.0);
        assert_eq!((qp.q(), qp.h()), (5.0, 3.0));
        qp.step(2.0, 1.0, 4.0, 1.0);
        // Q: max(5-4,0)+2 = 3; H: max(3-1,0)+1 = 3.
        assert_eq!((qp.q(), qp.h()), (3.0, 3.0));
    }

    #[test]
    fn service_saturates_at_zero() {
        let mut qp = QueuePair::new();
        qp.step(1.0, 1.0, 0.0, 0.0);
        qp.step(0.0, 0.0, 100.0, 100.0);
        assert_eq!((qp.q(), qp.h()), (0.0, 0.0));
    }

    #[test]
    fn lyapunov_function() {
        let mut qp = QueuePair::new();
        qp.step(3.0, 4.0, 0.0, 0.0);
        assert_eq!(qp.lyapunov().to_bits(), f64::to_bits(0.5 * 25.0));
    }

    #[test]
    #[should_panic(expected = "served_local invalid")]
    fn rejects_negative_service() {
        let mut qp = QueuePair::new();
        qp.step(0.0, 0.0, -1.0, 0.0);
    }

    #[test]
    fn stable_when_service_exceeds_arrivals() {
        // Mean-rate stability (C3/C4): with service > arrivals, queues stay
        // bounded.
        let mut qp = QueuePair::new();
        for _ in 0..10_000 {
            qp.step(2.0, 1.0, 2.5, 1.5);
        }
        assert!(qp.q() <= 2.0 + 1e-9);
        assert!(qp.h() <= 1.0 + 1e-9);
    }

    #[test]
    fn unstable_when_overloaded() {
        let mut qp = QueuePair::new();
        for _ in 0..1000 {
            qp.step(2.0, 0.0, 1.0, 0.0);
        }
        assert!(qp.q() > 900.0);
    }
}
