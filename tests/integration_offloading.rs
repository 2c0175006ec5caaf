//! Integration + property tests for the Lyapunov offloading layer:
//! stability, the V trade-off (Theorem 3), the Fig. 3 optimal-ratio
//! shifts, and solver invariants on arbitrary inputs — including
//! oracles that check the exact P1′ solve against a golden-section
//! search and the closed-form balance solve against bisection.

use leime::{ControllerKind, ExitStrategy, ModelKind, Scenario, SlottedSystem, WorkloadKind};
use leime_offload::solver::{balance_solve, exact_solve, feasible_interval};
use leime_offload::{DeviceParams, SharedParams, SlotCost};
use proptest::prelude::*;

fn shared_with(v: f64, sigma1: f64, d0: f64, d1: f64) -> SharedParams {
    SharedParams {
        slot_len_s: 1.0,
        v,
        mu1: 2e8,
        mu2: 5e8,
        sigma1,
        d0_bytes: d0,
        d1_bytes: d1,
        edge_flops: 40e9,
    }
}

/// Reference minimiser for the oracle test: 80 golden-section rounds on
/// the drift-plus-penalty objective over the feasible interval, then the
/// comparison against both endpoints that the jump at `x = 0` requires.
// The `hi - lo < EPSILON` width test is an interval-degeneracy check.
#[allow(clippy::float_equality_without_abs, reason = "interval-width test")]
fn golden_section_solve(cost: &SlotCost) -> f64 {
    let (lo, hi) = feasible_interval(cost);
    if hi - lo < f64::EPSILON {
        return lo;
    }
    let f = |x: f64| cost.drift_plus_penalty(x);
    let inv_phi = (5.0f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let (mut fc, mut fd) = (f(c), f(d));
    for _ in 0..80 {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    let mut best = lo;
    for x in [0.5 * (a + b), hi] {
        if f(x).total_cmp(&f(best)).is_lt() {
            best = x;
        }
    }
    best
}

/// Reference balance solver for the oracle test: 60 rounds of bisection
/// on `g = T_d − T_e` over the feasible interval, with the endpoint
/// rules and the no-share fallback of the closed-form solve.
// The `hi - lo < EPSILON` width test is an interval-degeneracy check.
#[allow(clippy::float_equality_without_abs, reason = "interval-width test")]
fn bisection_balance_solve(cost: &SlotCost) -> f64 {
    let (lo, hi) = feasible_interval(cost);
    if hi - lo < f64::EPSILON {
        return lo;
    }
    let g = |x: f64| cost.t_device(x) - cost.t_edge(x);
    // If even full offloading leaves the device side dearer, offload all.
    if g(hi) >= 0.0 {
        return hi;
    }
    // If keeping everything local is already cheaper than any offloading,
    // stay local.
    if g(lo) <= 0.0 {
        return lo;
    }
    let (mut a, mut b) = (lo, hi);
    for _ in 0..60 {
        let mid = 0.5 * (a + b);
        let (prev_a, prev_b) = (a, b);
        if g(mid) >= 0.0 {
            a = mid;
        } else {
            b = mid;
        }
        // Once an iteration leaves the interval bitwise unchanged, every
        // remaining iteration recomputes this exact state (g is pure), so
        // exiting produces identical bits to running out the count.
        if a.to_bits() == prev_a.to_bits() && b.to_bits() == prev_b.to_bits() {
            break;
        }
    }
    let x = 0.5 * (a + b);
    // A device without edge capacity sees an infinite edge cost for any
    // x > 0; fall back to keeping everything local.
    if cost.t_edge(x).is_finite() {
        x
    } else {
        lo
    }
}

/// Checks the closed-form balance solve against [`bisection_balance_solve`]:
/// inside the feasible interval; the same bits wherever an endpoint rule
/// decides; otherwise `|T_d − T_e|` no worse than at the bisection's
/// point plus `1e-12·max(T_d, T_e)`. The one intended difference: with
/// `e₂ > 0`, `g` can jump from + to − across `x = 0⁺`, where the
/// bisection crawls to `≈ 2⁻⁶¹·hi` and the closed form keeps `lo`, which
/// never costs more `Y`.
// The `hi - lo < EPSILON` width test is an interval-degeneracy check.
#[allow(clippy::float_equality_without_abs, reason = "interval-width test")]
fn check_balance(cost: &SlotCost) -> Result<(), String> {
    let (lo, hi) = feasible_interval(cost);
    let x_new = balance_solve(cost);
    let x_bis = bisection_balance_solve(cost);
    if !(x_new >= lo && x_new <= hi) {
        return Err(format!("x {x_new} outside ({lo}, {hi}) on {cost:?}"));
    }
    let g = |x: f64| cost.t_device(x) - cost.t_edge(x);
    let s = cost.shared();
    let endpoint_rule = hi - lo < f64::EPSILON
        || g(hi) >= 0.0
        || g(lo) <= 0.0
        || cost.p_share * s.edge_flops <= 0.0;
    if endpoint_rule {
        return if x_new.to_bits() == x_bis.to_bits() {
            Ok(())
        } else {
            Err(format!("endpoint {x_bis} became {x_new} on {cost:?}"))
        };
    }
    let e2 = (1.0 - s.sigma1) * s.mu2;
    let jump = lo == 0.0 && e2 > 0.0 && g(hi * 2f64.powi(-61)) < 0.0;
    if jump && x_new.to_bits() == lo.to_bits() {
        return if cost.y(x_new) <= cost.y(x_bis) {
            Ok(())
        } else {
            Err(format!("lo costs more Y than {x_bis} on {cost:?}"))
        };
    }
    let slack = 1e-12 * cost.t_device(x_bis).max(cost.t_edge(x_bis));
    if g(x_new).abs() <= g(x_bis).abs() + slack {
        Ok(())
    } else {
        Err(format!(
            "closed form x {x_new} (g {}) loses to bisection x {x_bis} (g {}) on {cost:?}",
            g(x_new),
            g(x_bis)
        ))
    }
}

/// `fixed[sel]` when `sel` indexes into `fixed`, else `drawn`: mixes
/// pinned corner values into a uniformly drawn parameter.
fn pick(sel: usize, fixed: &[f64], drawn: f64) -> f64 {
    fixed.get(sel).copied().unwrap_or(drawn)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both solvers always return a ratio inside the bandwidth-feasible
    /// interval, for arbitrary queue states and parameters.
    #[test]
    fn solvers_respect_feasibility(
        q in 0.0f64..200.0,
        h in 0.0f64..200.0,
        k in 0.1f64..50.0,
        sigma1 in 0.0f64..1.0,
        d0 in 1e3f64..1e6,
        d1 in 1e2f64..1e6,
        bw in 1e5f64..1e8,
        p in 0.01f64..1.0,
    ) {
        let shared = shared_with(1e4, sigma1, d0, d1);
        let dev = DeviceParams {
            flops: 1e9,
            bandwidth_bps: bw,
            latency_s: 0.02,
            arrival_mean: k,
        };
        let cost = SlotCost::new(shared, dev, q, h, p);
        let (lo, hi) = feasible_interval(&cost);
        prop_assert!(lo >= 0.0 && hi <= 1.0 && lo <= hi + 1e-12);
        for x in [balance_solve(&cost), exact_solve(&cost)] {
            prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9,
                "solver x {x} outside feasible ({lo}, {hi})");
        }
    }

    /// The exact solution never loses to any grid point on the
    /// drift-plus-penalty objective (convexity check).
    ///
    /// Regression-seed map for `integration_offloading.proptest-regressions`
    /// (the vendored shim does not replay that file, so the corpus is
    /// documentation; the inputs below remain inside the generated ranges
    /// and are re-covered on every run):
    ///
    /// * `cc 9abb2662…` — shrunk to `q = 0.0, h = 44.05829483049645,
    ///   k = 0.5, sigma1 = 0.0`: with an empty device queue, a large
    ///   edge-bound backlog `H`, and no First-exit absorption, the
    ///   drift-plus-penalty objective is flattest near the upper feasible
    ///   bound; an early golden-section solver's tolerance returned an
    ///   `x` a grid point could beat by more than the comparison slack,
    ///   violating this grid-optimality invariant. Fixed then by
    ///   tightening the section search's convergence interval; the exact
    ///   solve has no such tolerance.
    #[test]
    fn golden_section_is_grid_optimal(
        q in 0.0f64..50.0,
        h in 0.0f64..50.0,
        k in 0.5f64..30.0,
        sigma1 in 0.0f64..0.95,
    ) {
        let shared = shared_with(1e4, sigma1, 12_288.0, 30_000.0);
        let dev = DeviceParams::raspberry_pi(k);
        let cost = SlotCost::new(shared, dev, q, h, 0.25);
        let xg = exact_solve(&cost);
        let (lo, hi) = feasible_interval(&cost);
        let fg = cost.drift_plus_penalty(xg);
        for i in 0..=100 {
            let x = lo + (hi - lo) * i as f64 / 100.0;
            prop_assert!(fg <= cost.drift_plus_penalty(x) + 1e-6 * fg.abs().max(1.0),
                "grid point {x} beats solver {xg}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The exact solve never loses to the golden-section search on the
    /// drift-plus-penalty objective, over a corpus that pins the
    /// degenerate corners: σ₁ ∈ {0, 1}, μ₂ = 0 (both give e₂ = 0 and the
    /// downward jump at 0⁺), a zero or tiny edge share, no arrivals,
    /// fluid (k ≤ 1) and heavy (k ≫ 1) arrivals, a link too starved to
    /// carry anything (degenerate interval) and one whose constraint
    /// binds from below (`lo > 0`). The slack scales with the objective's
    /// terms at the golden-section point: they cancel, and rounding in
    /// that cancellation reaches ~1e-13 of |f|.
    #[test]
    fn exact_solve_never_loses_to_golden_section(
        (sigma_sel, sigma_u) in (0usize..4, 0.0f64..1.0),
        mu2_sel in 0usize..4,
        (p_sel, p_u) in (0usize..5, 0.0f64..1.0),
        (k_sel, k_u) in (0usize..4, 0.0f64..1.0),
        (link_sel, bw_exp) in (0usize..4, 5.0f64..8.0),
        v_exp in -3.0f64..7.0,
        (q_sel, q_exp) in (0usize..3, -2.0f64..4.0),
        (h_sel, h_exp) in (0usize..3, -2.0f64..4.0),
    ) {
        let mut shared = shared_with(
            10f64.powf(v_exp),
            pick(sigma_sel, &[0.0, 1.0], sigma_u),
            12_288.0,
            30_000.0,
        );
        if mu2_sel == 0 {
            shared.mu2 = 0.0;
        }
        let mut dev = DeviceParams::raspberry_pi(pick(
            k_sel,
            &[0.0, 1.0 - k_u, 50.0 + 1e3 * k_u],
            1.0 + 49.0 * k_u,
        ));
        dev.bandwidth_bps = 10f64.powf(bw_exp);
        match link_sel {
            0 => dev.bandwidth_bps = 1.0,
            1 => {
                shared.d1_bytes = 400_000.0;
                dev.bandwidth_bps = 20e6;
            }
            _ => {}
        }
        let q = pick(q_sel, &[0.0], 10f64.powf(q_exp));
        let h = pick(h_sel, &[0.0], 10f64.powf(h_exp));
        let cost = SlotCost::new(shared, dev, q, h, pick(p_sel, &[0.0, 1e-6, 1.0], p_u));
        let (lo, hi) = feasible_interval(&cost);
        let x_new = exact_solve(&cost);
        let x_gs = golden_section_solve(&cost);
        prop_assert!(x_new >= lo && x_new <= hi, "x {x_new} outside ({lo}, {hi})");
        let k = dev.arrival_mean;
        let scale = shared.v * cost.y(x_gs).abs()
            + q * ((1.0 - x_gs) * k + cost.device_quota())
            + h * (x_gs * k + cost.edge_quota(x_gs));
        let (f_new, f_gs) = (cost.drift_plus_penalty(x_new), cost.drift_plus_penalty(x_gs));
        prop_assert!(
            f_new <= f_gs + 1e-12 * scale,
            "exact x {x_new} (f {f_new}) loses to golden x {x_gs} (f {f_gs}) on {cost:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The closed-form balance solve agrees with bisection
    /// ([`check_balance`]) over a corpus that pins k ∈ {0, ½, 1, 2, 10⁶},
    /// a zero edge share, e₂ = 0 through σ₁ = 1 and through μ₂ = 0, a
    /// starved link (degenerate interval), and feasible intervals bound
    /// from above (`hi < 1`) and from below (`lo > 0`); queue states,
    /// device and edge speeds span several decades. Backlogs up to 10⁷
    /// put balance points within 10⁻⁹ of x = 1, where a root taken in
    /// `x` rather than `1 − x` loses to the bisection.
    #[test]
    fn balance_solve_matches_bisection(
        (k_sel, k_u) in (0usize..8, 0.0f64..1.0),
        (sigma_sel, sigma_u) in (0usize..4, 0.0f64..1.0),
        mu2_sel in 0usize..5,
        (p_sel, p_u) in (0usize..5, 0.0f64..1.0),
        (link_sel, bw_exp) in (0usize..5, 5.0f64..8.5),
        (q_sel, q_exp) in (0usize..3, -2.0f64..7.0),
        (h_sel, h_exp) in (0usize..3, -2.0f64..7.0),
        flops_exp in 7.0f64..10.5,
        edge_exp in 9.0f64..12.0,
    ) {
        let mut shared = shared_with(
            f64::INFINITY,
            pick(sigma_sel, &[0.0, 1.0], sigma_u),
            12_288.0,
            30_000.0,
        );
        shared.edge_flops = 10f64.powf(edge_exp);
        if mu2_sel == 0 {
            shared.mu2 = 0.0;
        }
        let k = pick(k_sel, &[0.0, 0.5, 1.0, 2.0, 1e6], 0.1 + 60.0 * k_u);
        let mut dev = DeviceParams::raspberry_pi(k);
        dev.flops = 10f64.powf(flops_exp);
        dev.bandwidth_bps = 10f64.powf(bw_exp);
        match link_sel {
            0 => dev.bandwidth_bps = 1.0,
            1 => {
                // Offloading cuts transmission: bound from below.
                shared.d1_bytes = 400_000.0;
                dev.bandwidth_bps = 20e6 * (1.0 + k / 10.0);
            }
            2 => {
                // Offloading raises transmission: bound from above.
                shared.d1_bytes = 2_000.0;
                dev.bandwidth_bps = 0.05e6 * (1.0 + k);
            }
            _ => {}
        }
        let q = pick(q_sel, &[0.0], 10f64.powf(q_exp));
        let h = pick(h_sel, &[0.0], 10f64.powf(h_exp));
        let cost = SlotCost::new(shared, dev, q, h, pick(p_sel, &[0.0, 1e-6, 1.0], p_u));
        if let Err(msg) = check_balance(&cost) {
            prop_assert!(false, "{msg}");
        }
    }
}

#[test]
fn balance_solve_matches_bisection_at_the_corners() {
    // Every combination of the pinned corners, at three queue states.
    let all_exit = shared_with(f64::INFINITY, 1.0, 12_288.0, 30_000.0);
    let mut no_mu2 = shared_with(f64::INFINITY, 0.4, 12_288.0, 30_000.0);
    no_mu2.mu2 = 0.0;
    // Offloading cuts transmission (bound from below) or raises it
    // (bound from above).
    let below = shared_with(f64::INFINITY, 0.0, 12_288.0, 400_000.0);
    let above = shared_with(f64::INFINITY, 0.4, 12_288.0, 2_000.0);
    let plain = shared_with(f64::INFINITY, 0.4, 12_288.0, 30_000.0);
    let (mut endpoints, mut interior, mut bound_lo, mut bound_hi) = (0, 0, 0, 0);
    for (s, bw) in [
        (plain, 10e6),
        (all_exit, 10e6),
        (no_mu2, 10e6),
        (below, 20e6),
        (above, 0.5e6),
    ] {
        for k in [0.0, 0.5, 1.0, 2.0, 10.0, 1e6] {
            for p_share in [0.0, 0.25, 1.0] {
                for &(q, h) in &[(0.0, 0.0), (20.0, 5.0), (0.0, 40.0)] {
                    let mut dev = DeviceParams::raspberry_pi(k);
                    dev.bandwidth_bps = bw;
                    let cost = SlotCost::new(s, dev, q, h, p_share);
                    check_balance(&cost).unwrap();
                    let (lo, hi) = feasible_interval(&cost);
                    bound_lo += usize::from(lo > 0.0);
                    bound_hi += usize::from(hi < 1.0 && hi > lo);
                    let x = balance_solve(&cost);
                    if x.to_bits() == lo.to_bits() || x.to_bits() == hi.to_bits() {
                        endpoints += 1;
                    } else {
                        interior += 1;
                    }
                }
            }
        }
    }
    // The sweep reaches both kinds of answer and both interval shapes.
    assert!(endpoints > 0 && interior > 0, "{endpoints} / {interior}");
    assert!(bound_lo > 0 && bound_hi > 0, "{bound_lo} / {bound_hi}");
}

#[test]
fn queues_remain_stable_under_sustainable_load() {
    // C3/C4 of P1: under the Lyapunov controller and a sustainable load,
    // queues must be mean-rate stable (bounded over a long horizon).
    let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 4, 8.0);
    s.controller = ControllerKind::Lyapunov;
    let dep = s.deploy(ExitStrategy::Leime).unwrap();
    let mut sys = SlottedSystem::new(s, dep).unwrap();
    sys.run(800, 21).unwrap();
    for (i, qp) in sys.queues().iter().enumerate() {
        assert!(
            qp.q() < 200.0 && qp.h() < 200.0,
            "device {i} queues exploded: Q={} H={}",
            qp.q(),
            qp.h()
        );
    }
}

#[test]
fn v_controls_delay_vs_backlog_tradeoff() {
    // Theorem 3: larger V weights delay more (TCT approaches optimum at
    // B/V rate) at the price of queue backlog. We verify the backlog side
    // strictly and the TCT side loosely.
    let run_with_v = |v: f64| {
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 10.0);
        s.v = v;
        s.controller = ControllerKind::Lyapunov;
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        s.run_slotted(&dep, 400, 17).unwrap()
    };
    let low_v = run_with_v(1.0);
    let high_v = run_with_v(1e6);
    assert!(
        high_v.mean_tct_s() <= low_v.mean_tct_s() * 1.5,
        "huge V should not be much slower: {} vs {}",
        high_v.mean_tct_s(),
        low_v.mean_tct_s()
    );
}

#[test]
fn fig3a_optimal_ratio_shifts_with_arrival_rate() {
    // Fig. 3(a): as arrival rate grows, the best fixed offloading ratio
    // changes. Sweep fixed ratios at two rates and compare argmins.
    let best_ratio = |arrival: f64| {
        let mut best = (0.0, f64::INFINITY);
        for i in 0..=10 {
            let ratio = i as f64 / 10.0;
            let mut s = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, 1, arrival);
            s.controller = ControllerKind::Fixed(ratio);
            let dep = s.deploy(ExitStrategy::Leime).unwrap();
            let r = s.run_slotted(&dep, 120, 23).unwrap();
            if r.mean_tct_s() < best.1 {
                best = (ratio, r.mean_tct_s());
            }
        }
        best.0
    };
    let light = best_ratio(1.0);
    let heavy = best_ratio(20.0);
    assert!(
        (light - heavy).abs() > 1e-9,
        "optimal ratio should shift with arrival rate (got {light} for both)"
    );
}

#[test]
fn fig3c_optimal_ratio_shifts_with_bandwidth() {
    // Fig. 3(c): at 8 Mbps the paper's optimal ratio is ~1 (offload all);
    // at 128 Mbps it drops. Our qualitative check: the argmin moves.
    let best_ratio = |bw: f64| {
        let mut best = (0.0, f64::INFINITY);
        for i in 0..=10 {
            let ratio = i as f64 / 10.0;
            let mut s = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, 1, 8.0);
            s.devices[0].bandwidth_bps = bw;
            s.controller = ControllerKind::Fixed(ratio);
            let dep = s.deploy(ExitStrategy::Leime).unwrap();
            let r = s.run_slotted(&dep, 120, 29).unwrap();
            if r.mean_tct_s() < best.1 {
                best = (ratio, r.mean_tct_s());
            }
        }
        best.0
    };
    let slow_net = best_ratio(2e6);
    let fast_net = best_ratio(128e6);
    assert!(
        fast_net >= slow_net,
        "faster network should not reduce the optimal offload ratio \
         below the slow-network one here: slow {slow_net}, fast {fast_net}"
    );
}

#[test]
fn lyapunov_tracks_best_fixed_ratio() {
    // The online controller must be competitive with the best fixed ratio
    // chosen in hindsight (it has strictly more information per slot).
    let mut base = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, 2, 8.0);
    base.controller = ControllerKind::Lyapunov;
    let dep = base.deploy(ExitStrategy::Leime).unwrap();
    let lyapunov = base.run_slotted(&dep, 200, 31).unwrap();

    let mut best_fixed = f64::INFINITY;
    for i in 0..=10 {
        let mut s = base.clone();
        s.controller = ControllerKind::Fixed(i as f64 / 10.0);
        let r = s.run_slotted(&dep, 200, 31).unwrap();
        best_fixed = best_fixed.min(r.mean_tct_s());
    }
    assert!(
        lyapunov.mean_tct_s() <= best_fixed * 1.15,
        "lyapunov {:.4}s vs best fixed {:.4}s",
        lyapunov.mean_tct_s(),
        best_fixed
    );
}

#[test]
fn stability_under_dynamic_rates() {
    // Fig. 9's workload: a stepping arrival-rate trace. LEIME must stay
    // bounded while DeviceOnly degrades.
    let trace = leime_simnet::TimeTrace::square_wave(
        3.0,
        18.0,
        leime_simnet::SimTime::from_secs(50.0),
        leime_simnet::SimTime::from_secs(400.0),
    );
    let run = |controller: ControllerKind| {
        let mut s = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 5.0);
        s.workload = WorkloadKind::RateTrace {
            trace: trace.clone(),
            max: 1000,
        };
        s.controller = controller;
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        s.run_slotted(&dep, 400, 37).unwrap()
    };
    let leime_r = run(ControllerKind::Lyapunov);
    let device_r = run(ControllerKind::DeviceOnly);
    assert!(
        leime_r.mean_tct_s() < device_r.mean_tct_s(),
        "LEIME {:.4}s vs D-only {:.4}s under dynamic rates",
        leime_r.mean_tct_s(),
        device_r.mean_tct_s()
    );
}
