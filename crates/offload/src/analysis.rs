//! Lyapunov drift analysis — the paper's Lemma 1 / Appendix C, made
//! executable.
//!
//! Lemma 1 bounds the conditional Lyapunov drift of the queue pair by
//!
//! ```text
//! Δ(Θ(t)) ≤ B + Q(t)·(A(t) − b(t)) + H(t)·(D(t) − c(t))
//! B = B₁ + B₂,
//! B₁ = max{ (A² + b²)/2 − b̃·A },  b̃ = min(Q, b)
//! B₂ = max{ (D² + c²)/2 − c̃·D },  c̃ = min(H, c)
//! ```
//!
//! This module computes the worst-case `B` for a device's parameter box
//! (used to instantiate Theorem 3's `B/V` gap numerically) and the exact
//! per-slot drift, so simulations can verify the lemma step by step.

use crate::{DeviceParams, QueuePair, SharedParams, SlotCost};

/// Exact Lyapunov drift of one queue-pair transition:
/// `L(Θ(t+1)) − L(Θ(t))` with `L = (Q² + H²)/2`.
pub fn drift(before: QueuePair, after: QueuePair) -> f64 {
    after.lyapunov() - before.lyapunov()
}

/// Lemma 1's per-slot bound evaluated at a concrete state and action:
/// `B + Q·(A − b) + H·(D − c)` with the *worst-case* `B` over the
/// device's arrival box (see [`b_constant`]).
// A slot snapshot is genuinely this wide (state + action + parameters).
#[allow(clippy::too_many_arguments, reason = "state, action and parameters")]
pub fn drift_bound(
    shared: SharedParams,
    device: DeviceParams,
    q: f64,
    h: f64,
    p_share: f64,
    x: f64,
    arrivals: f64,
    m_max: f64,
) -> f64 {
    let cost = SlotCost::new(shared, device, q, h, p_share);
    let a = (1.0 - x) * arrivals;
    let d = x * arrivals;
    let b = cost.device_quota();
    let c = cost.edge_quota(x);
    b_constant(shared, device, m_max) + q * (a - b) + h * (d - c)
}

/// The worst-case drift constant `B = B₁ + B₂` over the arrival box
/// `M(t) ∈ [0, m_max]` and offload ratio `x ∈ [0, 1]`.
///
/// Per Lemma 1, `B₁ = max{(A² + b²)/2 − b̃·A}`; the maximum over the box
/// is attained at the extremes, and dropping the (non-negative) `b̃·A`
/// rebate gives the safe closed form `B₁ ≤ (m_max² + b²)/2`, and
/// analogously `B₂ ≤ (m_max² + c_max²)/2` where `c_max` is the edge quota
/// at full offload with the whole edge.
///
/// # Panics
///
/// Panics if `m_max` is negative or non-finite.
pub fn b_constant(shared: SharedParams, device: DeviceParams, m_max: f64) -> f64 {
    assert!(
        m_max.is_finite() && m_max >= 0.0,
        "m_max must be non-negative, got {m_max}"
    );
    let cost = SlotCost::new(shared, device, 0.0, 0.0, 1.0);
    let b = cost.device_quota();
    let c_max = cost.edge_quota(1.0);
    (m_max * m_max + b * b) / 2.0 + (m_max * m_max + c_max * c_max) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn shared() -> SharedParams {
        SharedParams {
            slot_len_s: 1.0,
            v: 1e4,
            mu1: 2e8,
            mu2: 5e8,
            sigma1: 0.4,
            d0_bytes: 12_288.0,
            d1_bytes: 30_000.0,
            edge_flops: 12e9,
        }
    }

    #[test]
    fn drift_matches_lyapunov_difference() {
        let mut qp = QueuePair::new();
        qp.step(3.0, 4.0, 0.0, 0.0);
        let before = qp;
        qp.step(1.0, 2.0, 2.0, 3.0);
        // L before = (9 + 16)/2 = 12.5; after: Q = 2, H = 3 -> (4+9)/2 = 6.5.
        assert!((drift(before, qp) - (6.5 - 12.5)).abs() < 1e-12);
    }

    #[test]
    fn lemma1_holds_along_random_trajectories() {
        // Simulate the exact queue recursion under random arrivals and
        // actions; the measured drift must never exceed Lemma 1's bound.
        let mut rng = StdRng::seed_from_u64(4);
        let s = shared();
        let dev = DeviceParams::raspberry_pi(8.0);
        let m_max = 30.0;
        let mut qp = QueuePair::new();
        for _ in 0..2000 {
            let x: f64 = rng.gen_range(0.0..=1.0);
            let arrivals = rng.gen_range(0.0..m_max);
            let p = rng.gen_range(0.05..1.0);
            let cost = SlotCost::new(s, dev, qp.q(), qp.h(), p);
            let bound = drift_bound(s, dev, qp.q(), qp.h(), p, x, arrivals, m_max);
            let before = qp;
            qp.step(
                (1.0 - x) * arrivals,
                x * arrivals,
                cost.device_quota(),
                cost.edge_quota(x),
            );
            let measured = drift(before, qp);
            assert!(
                measured <= bound + 1e-6,
                "Lemma 1 violated: drift {measured} > bound {bound}"
            );
        }
    }

    #[test]
    fn b_constant_scales_with_arrival_box() {
        let s = shared();
        let dev = DeviceParams::raspberry_pi(8.0);
        let small = b_constant(s, dev, 10.0);
        let large = b_constant(s, dev, 100.0);
        assert!(large > small);
        // Quadratic growth in m_max dominates for large boxes.
        assert!(large / small > 10.0);
    }

    #[test]
    #[should_panic(expected = "m_max must be non-negative")]
    fn b_constant_validates() {
        b_constant(shared(), DeviceParams::raspberry_pi(1.0), -1.0);
    }
}
