//! Per-slot offloading-ratio solvers.

use crate::SlotCost;
use leime_invariant as invariant;

/// The bandwidth-feasible offloading-ratio interval from constraint (8):
///
/// ```text
/// D·d_0 + A·(1−σ_1)·d_1 ≤ B_i^e · (τ − L_i^e)    (bits)
/// ```
///
/// The left side is linear in `x`, so the feasible set is an interval.
/// Returns it clamped to `[0, 1]`; when no `x` is feasible (the link cannot
/// carry even the least-transmission choice within a slot), returns the
/// degenerate interval at the least-transmission endpoint — the controller
/// must still pick something.
pub fn feasible_interval(cost: &SlotCost) -> (f64, f64) {
    let s = cost.shared();
    let d = cost.device();
    let k = d.arrival_mean;
    if k <= 0.0 {
        return invariant::check_interval("offload.feasible_interval", 0.0, 1.0);
    }
    let cap_bits = d.bandwidth_bps * (s.slot_len_s - d.latency_s).max(0.0);
    // bits(x) = 8·k·[ x·d0 + (1−x)·(1−σ1)·d1 ] = base + slope·x.
    let base = 8.0 * k * (1.0 - s.sigma1) * s.d1_bytes;
    let slope = 8.0 * k * (s.d0_bytes - (1.0 - s.sigma1) * s.d1_bytes);
    let (lo, hi) = if slope.abs() < f64::EPSILON {
        if base <= cap_bits {
            (0.0, 1.0)
        } else {
            (0.0, 0.0)
        }
    } else {
        let x_star = (cap_bits - base) / slope;
        if slope > 0.0 {
            // Transmission grows with x: feasible is [0, x*].
            if x_star < 0.0 {
                (0.0, 0.0) // infeasible; least transmission at x = 0
            } else {
                (0.0, x_star.min(1.0))
            }
        } else {
            // Transmission shrinks with x: feasible is [x*, 1].
            if x_star > 1.0 {
                (1.0, 1.0) // infeasible; least transmission at x = 1
            } else {
                (x_star.max(0.0), 1.0)
            }
        }
    };
    invariant::check_interval("offload.feasible_interval", lo, hi)
}

/// The decentralized balance solver of §III-D4: as `V → ∞`, the per-slot
/// optimum equalises the device- and edge-side costs,
/// `T_i^d(x) = T_i^e(x)` (Cauchy–Schwarz, Eq. 20), within the
/// bandwidth-feasible interval. `T_d − T_e` is non-increasing and, since
/// the `x·k` offloaded tasks cost `k·(μ₁x + e₂)/(p_i F^e)` of edge
/// processing, a quadratic in `x` between the kinks `x = 1/k` and
/// `x = 1 − 1/k`: the solve takes its root in closed form on the piece
/// where the sign changes (DESIGN.md §5, decision 6). If `T_e`'s jump at
/// `x = 0⁺` alone makes the device side cheaper, it keeps `lo`.
// The `hi - lo < EPSILON` width test is an interval-degeneracy check;
// `!(w > 0)` deliberately treats a NaN share as no share.
#[allow(clippy::float_equality_without_abs, reason = "interval-width test")]
#[allow(clippy::neg_cmp_op_on_partial_ord, reason = "NaN share is no share")]
pub fn balance_solve(cost: &SlotCost) -> f64 {
    let (lo, hi) = feasible_interval(cost);
    let g = |x: f64| cost.t_device(x) - cost.t_edge(x);
    let w = cost.p_share * cost.shared().edge_flops;
    // Offload all if even full offloading leaves the device side dearer;
    // stay local if that is already cheaper than any offloading, or if
    // without an edge share every x > 0 costs an infinite edge wait.
    let x = if hi - lo < f64::EPSILON {
        lo
    } else if g(hi) >= 0.0 {
        hi
    } else if g(lo) <= 0.0 || !(w > 0.0) {
        lo
    } else {
        balance_root(cost, g, w, lo, hi)
    };
    invariant::check_unit_interval("offload.balance_solve", x)
}

/// The sign change of `g = T_d − T_e` on `[lo, hi]`, where
/// `g(lo) > 0 > g(hi)` and the share `w = p_i·F^e` is positive.
fn balance_root(cost: &SlotCost, g: impl Fn(f64) -> f64, w: f64, lo: f64, hi: f64) -> f64 {
    let (k, mu1, e2) = (cost.device().arrival_mean, cost.shared().mu1, cost.edge2);
    // 1/k and 1 − 1/k sit symmetrically about ½, so the breaks are sorted.
    let (kink_a, kink_b) = ((1.0 / k).min(1.0 - 1.0 / k), (1.0 / k).max(1.0 - 1.0 / k));
    let breaks = [kink_a, 0.5, kink_b, hi];
    let inside = |b: f64| b > lo && b <= hi;
    let pr = breaks.into_iter().find(|&b| inside(b) && g(b) < 0.0);
    let pr = pr.unwrap_or(hi);
    let pl = breaks.into_iter().filter(|&b| inside(b) && b < pr);
    let pl = pl.fold(lo, f64::max);
    // On this piece T_d = a₁·(1−x) + a₂·(1−x)² and T_e = b₀ + b₁·x + b₂·x²,
    // every coefficient non-negative.
    let mid = 0.5 * (pl + pr);
    let half_d = if (1.0 - mid) * k > 1.0 { 0.5 } else { 0.0 };
    let half_e = if mid * k > 1.0 { 0.5 } else { 0.0 };
    let p = cost.per_task_dev;
    let a1 = k * (p * (cost.q + 1.0 - half_d) + cost.one_minus_sigma1 * cost.tx1);
    let a2 = half_d * p * k * k;
    let (r, hh) = (k / w, cost.h + 1.0 - half_e);
    let (b0, b2) = (r * hh * e2, r * half_e * k * mu1);
    let b1 = k * cost.tx0 + r * (hh * mu1 + half_e * k * e2);
    let x = if pr <= 0.5 {
        falling_root(a1 + a2 - b0, a1 + 2.0 * a2 + b1, a2 - b2)
    } else {
        // −g in 1 − x.
        1.0 - falling_root(b0 + b1 + b2, a1 + b1 + 2.0 * b2, b2 - a2)
    };
    // `max` maps a NaN root (none left by rounding) to `pl`; an edge
    // cost that overflows there keeps everything local.
    let x = x.max(pl).min(pr);
    if cost.t_edge(x).is_finite() {
        x
    } else {
        lo
    }
}

/// The root of `c₀ − b·z + c₂·z²` (`b ≥ 0`) where it falls through zero,
/// `2c₀ / (b + √(b² − 4c₂c₀))`: the quadratic formula's branch without
/// cancellation, which reads `c₀/b` when `c₂ = 0`.
fn falling_root(c0: f64, b: f64, c2: f64) -> f64 {
    2.0 * c0 / (b + (b * b - 4.0 * c2 * c0).sqrt())
}

/// Newton iterations allowed per solve. Started on the convex side of
/// the root and within 2× of it, the iteration descends monotonically
/// and converges quadratically: over two 200k-input random corpora it
/// averaged 4–6 steps and never took more than 10 (counting the final
/// step that detects convergence), so the cap only bounds a
/// pathological input's cost.
const NEWTON_CAP: usize = 16;

/// Exact solver of the per-slot problem P1′: minimises the
/// drift-plus-penalty objective (Eq. 19) over the bandwidth-feasible
/// interval. The paper notes `P1′` is convex; this is the "common
/// method" LEIME's decentralized balance solver is compared against.
///
/// With `W = p_i·F^e`, `e₂ = (1−σ₁)·μ₂`, `u = μ₁·x + e₂` and
/// `C = H·W·τ·e₂`, the objective's derivative on `(0, 1]` is
/// `f′(x) = α + β·x − C/u²`: the device and edge costs are quadratic in
/// `x` between the intra-batch-queueing kinks at `x = 1 − 1/k` and
/// `x = 1/k`, and the edge quota contributes the rational term. Both
/// kinks are convex and `β ≥ 0`, so `f′` is non-decreasing. The solver
/// walks the (at most three) pieces to the one where `f′` changes sign
/// and solves `(α + β·x)·u² = C` there by Newton from an upper bound.
///
/// The objective has a jump discontinuity at `x = 0`: no task is
/// offloaded, so neither the edge wait nor the edge quota applies. With
/// `e₂ > 0` the jump is upward (`x = 0` can only win the final
/// comparison). With `e₂ = 0` (σ₁ = 1 or μ₂ = 0) the edge quota is the
/// constant `W·τ/μ₁` for every `x > 0`, the jump is downward, and the
/// infimum may sit at the open end `0⁺`: the search then starts at the
/// tiny positive `hi·ε²` instead. Either way the stationary point
/// finishes with an explicit comparison against both endpoints.
// The `hi - lo < EPSILON` width test is an interval-degeneracy check;
// `!(w > 0)` deliberately treats a NaN share as no share.
#[allow(clippy::float_equality_without_abs, reason = "interval-width test")]
#[allow(clippy::neg_cmp_op_on_partial_ord, reason = "NaN share is no share")]
pub fn exact_solve(cost: &SlotCost) -> f64 {
    let (lo, hi) = feasible_interval(cost);
    let w = cost.p_share * cost.shared().edge_flops;
    // A zero edge share prices every x > 0 at an infinite edge cost.
    if hi - lo < f64::EPSILON || !(w > 0.0) {
        return invariant::check_unit_interval("offload.exact_solve", lo);
    }
    let left = if cost.edge2 > 0.0 {
        lo
    } else {
        lo.max(hi * f64::EPSILON * f64::EPSILON)
    };
    let interior = stationary_point(cost, w, left, hi);
    // `total_cmp` keeps the argmin well-defined even if the objective
    // ever produced a NaN (it would order last, never win).
    let f = |x: f64| cost.drift_plus_penalty(x);
    let mut best = lo;
    let mut f_best = f(best);
    for x in [interior, hi] {
        let f_x = f(x);
        if f_x.total_cmp(&f_best).is_lt() {
            best = x;
            f_best = f_x;
        }
    }
    invariant::check_unit_interval("offload.exact_solve", best)
}

/// The zero of the non-decreasing `f′` on `[left, hi]` (see
/// [`exact_solve`]): `left` when `f′ ≥ 0` throughout, `hi` when
/// `f′ < 0` throughout, and a kink when `f′` jumps across zero there.
fn stationary_point(cost: &SlotCost, w: f64, left: f64, hi: f64) -> f64 {
    let s = cost.shared();
    let (k, mu1, e2, v) = (cost.device().arrival_mean, s.mu1, cost.edge2, s.v);
    let p = cost.per_task_dev;
    let c = cost.h * w * s.slot_len_s * e2;
    // Linear terms of T_d, T_e and the queue drifts (shared by every piece).
    let alpha0 = v
        * k
        * (cost.tx0 + (cost.h + 1.0) * mu1 / w
            - (cost.q + 1.0) * p
            - cost.one_minus_sigma1 * cost.tx1)
        + (cost.h - cost.q) * k;
    // (α, β) on the piece containing `mid`: the device's intra-batch
    // queueing term is live while (1−x)·k > 1, the edge's while x·k > 1.
    let coeffs = |mid: f64| {
        let (mut alpha, mut beta) = (alpha0, 0.0);
        if (1.0 - mid) * k > 1.0 {
            alpha -= v * k * p * (k - 0.5);
            beta += v * p * k * k;
        }
        if mid * k > 1.0 {
            alpha += v * k * (k * e2 - mu1) / (2.0 * w);
            beta += v * k * k * mu1 / w;
        }
        (alpha, beta)
    };
    let slope = |alpha: f64, beta: f64, x: f64| {
        let u = mu1 * x + e2;
        let rational = if c > 0.0 { c / (u * u) } else { 0.0 };
        alpha + beta * x - rational
    };
    let (kink_a, kink_b) = if k > 0.0 {
        let (a, b) = (1.0 / k, 1.0 - 1.0 / k);
        (a.min(b), a.max(b))
    } else {
        (hi, hi)
    };
    let mut pl = left;
    for pr in [kink_a, kink_b, hi] {
        if pr <= pl || pr > hi {
            continue;
        }
        let (alpha, beta) = coeffs(0.5 * (pl + pr));
        if slope(alpha, beta, pr) >= 0.0 {
            if slope(alpha, beta, pl) >= 0.0 {
                return pl;
            }
            return newton_root(alpha, beta, c, mu1, e2, pl, pr);
        }
        pl = pr;
    }
    hi
}

/// Solves `(α + β·x)·u² = C`, `u = μ₁·x + e₂`, on `[pl, pr]`, where the
/// left side crosses `C` from below. In `u` the equation reads
/// `(A + B·u)·u² = C` with `A = α − β·e₂/μ₁`, `B = β/μ₁`; Newton starts
/// at an upper bound within 2× of the root (`min(√(C/A), ∛(C/B))` when
/// `A > 0`, `−A/B + ∛(C/B)` otherwise), where the cubic is convex and
/// increasing, so every step descends monotonically onto the root.
// `!(next < x)` also stops on a NaN step.
#[allow(clippy::neg_cmp_op_on_partial_ord, reason = "stops on a NaN step")]
fn newton_root(alpha: f64, beta: f64, c: f64, mu1: f64, e2: f64, pl: f64, pr: f64) -> f64 {
    if c <= 0.0 {
        // No rational term: f′ is affine and β > 0 (f′ rose across the piece).
        return (-alpha / beta).clamp(pl, pr);
    }
    let (a, b) = (alpha - beta * e2 / mu1, beta / mu1);
    let u0 = if a > 0.0 {
        (c / a).sqrt().min((c / b).cbrt())
    } else {
        -a / b + (c / b).cbrt()
    };
    // `min` drops a NaN start in favour of the piece's right end.
    let mut x = pr.min((u0 - e2) / mu1).max(pl);
    for _ in 0..NEWTON_CAP {
        let s = alpha + beta * x;
        let u = mu1 * x + e2;
        let step = (s * u * u - c) / (u * (beta * u + 2.0 * mu1 * s));
        let next = x - step;
        // Converged: rounding noise stopped the monotone descent.
        if !(next < x) {
            break;
        }
        x = next.max(pl);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceParams, SharedParams};

    fn shared() -> SharedParams {
        SharedParams {
            slot_len_s: 1.0,
            v: 1e4,
            mu1: 2e8,
            mu2: 5e8,
            sigma1: 0.4,
            d0_bytes: 12_288.0,
            d1_bytes: 30_000.0,
            edge_flops: 40e9,
        }
    }

    fn cost_with(k: f64, q: f64, h: f64) -> SlotCost {
        SlotCost::new(shared(), DeviceParams::raspberry_pi(k), q, h, 0.25)
    }

    #[test]
    fn balance_point_equalises_costs() {
        let c = cost_with(10.0, 0.0, 0.0);
        let x = balance_solve(&c);
        if x > 0.001 && x < 0.999 {
            let (td, te) = (c.t_device(x), c.t_edge(x));
            assert!(
                (td - te).abs() / td.max(te) < 1e-6,
                "not balanced: {td} vs {te} at x={x}"
            );
        }
    }

    #[test]
    fn weak_device_offloads_more() {
        let weak = SlotCost::new(shared(), DeviceParams::raspberry_pi(10.0), 0.0, 0.0, 0.25);
        let strong = SlotCost::new(shared(), DeviceParams::jetson_nano(10.0), 0.0, 0.0, 0.25);
        assert!(balance_solve(&weak) > balance_solve(&strong));
    }

    #[test]
    fn device_backlog_pushes_offload_up() {
        let idle = cost_with(10.0, 0.0, 0.0);
        let backed = cost_with(10.0, 50.0, 0.0);
        assert!(balance_solve(&backed) >= balance_solve(&idle));
    }

    #[test]
    fn edge_backlog_pushes_offload_down() {
        let idle = cost_with(10.0, 0.0, 0.0);
        let backed = cost_with(10.0, 0.0, 50.0);
        assert!(balance_solve(&backed) <= balance_solve(&idle));
    }

    #[test]
    fn exact_solve_no_worse_than_balance_on_objective() {
        for &(q, h) in &[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (5.0, 5.0)] {
            let c = cost_with(8.0, q, h);
            let xe = exact_solve(&c);
            let xb = balance_solve(&c);
            assert!(
                c.drift_plus_penalty(xe) <= c.drift_plus_penalty(xb) + 1e-6,
                "exact {xe} worse than balance {xb} at (q={q}, h={h})"
            );
        }
    }

    #[test]
    fn exact_solve_finds_grid_minimum() {
        let c = cost_with(10.0, 3.0, 2.0);
        let xe = exact_solve(&c);
        let best_grid = (0..=1000)
            .map(|i| i as f64 / 1000.0)
            .map(|x| c.drift_plus_penalty(x))
            .fold(f64::INFINITY, f64::min);
        assert!(c.drift_plus_penalty(xe) <= best_grid + 1e-6);
    }

    #[test]
    fn exact_solve_takes_the_open_end_when_the_edge_has_no_second_block() {
        // e₂ = (1−σ₁)·μ₂ = 0: the edge quota is W·τ/μ₁ for every x > 0,
        // so the objective jumps *down* at 0⁺ and, with f′ > 0 beyond it,
        // the infimum sits at the open end. The solve must step off x = 0.
        let mut all_exit = shared();
        all_exit.sigma1 = 1.0;
        let mut no_mu2 = shared();
        no_mu2.mu2 = 0.0;
        for s in [all_exit, no_mu2] {
            let c = SlotCost::new(s, DeviceParams::jetson_nano(0.5), 0.0, 5.0, 0.25);
            let (_, hi) = feasible_interval(&c);
            let x = exact_solve(&c);
            assert!(x > 0.0 && x <= hi * 1e-30, "x = {x}");
            assert!(c.drift_plus_penalty(x) < c.drift_plus_penalty(0.0));
        }
    }

    #[test]
    fn exact_solve_keeps_the_low_end_without_an_edge_share() {
        // W = p·F^e = 0: every x > 0 costs an infinite edge wait.
        let c = SlotCost::new(shared(), DeviceParams::raspberry_pi(10.0), 3.0, 2.0, 0.0);
        assert_eq!(exact_solve(&c).to_bits(), 0.0_f64.to_bits());
        // Same with the bandwidth constraint binding from below (lo > 0).
        let mut s = shared();
        s.d1_bytes = 400_000.0;
        s.sigma1 = 0.0;
        let mut dev = DeviceParams::raspberry_pi(10.0);
        dev.bandwidth_bps = 20e6;
        let c = SlotCost::new(s, dev, 3.0, 2.0, 0.0);
        let (lo, _) = feasible_interval(&c);
        assert!(lo > 0.0);
        assert_eq!(exact_solve(&c).to_bits(), lo.to_bits());
    }

    #[test]
    fn feasible_interval_tightens_with_low_bandwidth() {
        // Make the raw input dominate the First-exit activation so that
        // offloading raises transmission, then starve the link: the upper
        // bound must fall below 1.
        let mut s = shared();
        s.d1_bytes = 2_000.0;
        let mut dev = DeviceParams::raspberry_pi(10.0);
        dev.bandwidth_bps = 0.5e6;
        let c = SlotCost::new(s, dev, 0.0, 0.0, 0.25);
        let (lo, hi) = feasible_interval(&c);
        assert!(lo == 0.0 && hi < 1.0, "({lo}, {hi})");
        let x = balance_solve(&c);
        assert!(x <= hi);
    }

    #[test]
    fn feasible_interval_flips_when_d1_dominates() {
        // When the intermediate activation is much larger than the raw
        // input, offloading *reduces* transmission, so feasibility binds
        // from below.
        let mut s = shared();
        s.d1_bytes = 400_000.0;
        s.sigma1 = 0.0;
        let mut dev = DeviceParams::raspberry_pi(10.0);
        dev.bandwidth_bps = 20e6;
        let c = SlotCost::new(s, dev, 0.0, 0.0, 0.25);
        let (lo, hi) = feasible_interval(&c);
        assert!(
            hi.to_bits() == 1.0_f64.to_bits() && lo > 0.0,
            "({lo}, {hi})"
        );
    }

    #[test]
    fn zero_arrivals_leave_full_interval() {
        let c = cost_with(0.0, 0.0, 0.0);
        assert_eq!(feasible_interval(&c), (0.0, 1.0));
    }
}
