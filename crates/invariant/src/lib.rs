//! Machine-checked numeric invariants from the LEIME paper.
//!
//! The compiler cannot see the feasibility region the paper's analysis
//! lives in: offloading ratios `x_i(t) ∈ [0, 1]` (Eq. 8), non-negative
//! queue backlogs `Q_i`/`H_i` (Eq. 10–11), KKT compute shares `p_i` on
//! the probability simplex (Eq. 27), and the monotone cumulative exit
//! rates that make Theorem 1's branch-and-bound pruning sound. This
//! crate provides the guard functions the `leime-lint` S1 rule requires
//! every guarded ratio/share/queue-producing function in `leime-offload`,
//! `leime-exitcfg` and the crates above them to reach on some call path.
//!
//! Guards are **debug assertions by default** (zero cost in release
//! builds) and become **hard checks in every build** under the
//! `strict-invariants` feature — the configuration CI uses for the
//! paper-parameter benchmark scenarios. Each check-returning-value
//! guard passes its argument through so call sites stay expression-
//! oriented: `invariant::check_unit_interval("solver", x)`.
//!
//! The crate is re-exported as `leime::invariant` from the core crate.

/// Absolute tolerance for boundary comparisons: solver bisection and
/// KKT projection legitimately land within floating-point slop of the
/// feasible-region boundary.
pub const TOL: f64 = 1e-9;

/// Whether guards are active in this build: always in debug builds,
/// and in every build under `strict-invariants`.
#[inline]
#[must_use]
pub fn active() -> bool {
    cfg!(debug_assertions) || cfg!(feature = "strict-invariants")
}

/// Reports a violated invariant. The single sanctioned panic site of
/// the workspace's library code: an out-of-region value means the
/// surrounding analysis (and every number derived from it) is invalid,
/// so continuing would corrupt experiment results silently.
///
/// Public so other crates can route their own by-construction
/// invariants (builder misuse, statically-valid constructions) through
/// the same site instead of scattering `panic!`/`expect` calls.
#[cold]
#[inline(never)]
#[expect(
    clippy::panic,
    reason = "the sanctioned panic site: guards must stop an analysis whose feasibility region broke"
)]
pub fn violation(label: &str, detail: &str) -> ! {
    panic!("invariant violation [{label}]: {detail}");
}

/// Eq. 8 — an offloading ratio must lie in `[0, 1]`.
///
/// Returns `x` unchanged so guards can wrap return expressions.
#[inline]
pub fn check_unit_interval(label: &str, x: f64) -> f64 {
    if active() && !(x.is_finite() && (-TOL..=1.0 + TOL).contains(&x)) {
        violation(
            label,
            &format!("offloading ratio x = {x} outside [0, 1] (Eq. 8)"),
        );
    }
    x
}

/// Eq. 8 — a feasible-ratio interval must be ordered and within `[0, 1]`.
#[inline]
pub fn check_interval(label: &str, lo: f64, hi: f64) -> (f64, f64) {
    if active() {
        let ok = lo.is_finite() && hi.is_finite() && lo <= hi + TOL;
        if !ok || !(-TOL..=1.0 + TOL).contains(&lo) || !(-TOL..=1.0 + TOL).contains(&hi) {
            violation(
                label,
                &format!("feasible interval [{lo}, {hi}] invalid within [0, 1] (Eq. 8)"),
            );
        }
    }
    (lo, hi)
}

/// Eq. 10–11 — a queue backlog must be finite and non-negative.
///
/// Returns `v` unchanged.
#[inline]
pub fn check_nonneg(label: &str, v: f64) -> f64 {
    if active() && !(v.is_finite() && v >= -TOL) {
        violation(
            label,
            &format!("backlog {v} negative or non-finite (Eq. 10–11)"),
        );
    }
    v
}

/// Eq. 27 — KKT compute shares must lie on the probability simplex:
/// every `p_i ≥ 0` and `Σ p_i = 1`.
#[inline]
pub fn check_simplex(label: &str, shares: &[f64]) {
    if !active() {
        return;
    }
    let mut sum = 0.0f64;
    for (i, &p) in shares.iter().enumerate() {
        if !(p.is_finite() && p >= -TOL) {
            violation(
                label,
                &format!("share p_{i} = {p} off the simplex (Eq. 27)"),
            );
        }
        sum += p;
    }
    // Tolerance scales with n: each share contributes rounding error.
    let tol = TOL * (shares.len().max(1) as f64);
    if (sum - 1.0).abs() > tol.max(1e-6) {
        violation(label, &format!("shares sum to {sum}, not 1 (Eq. 27)"));
    }
}

/// A cost / completion-time must be finite and non-negative.
///
/// Returns `v` unchanged.
#[inline]
pub fn check_finite_cost(label: &str, v: f64) -> f64 {
    if active() && !(v.is_finite() && v >= 0.0) {
        violation(label, &format!("cost {v} non-finite or negative"));
    }
    v
}

/// Post-fault recovery — once every injected fault has cleared, a queue
/// backlog must have drained back inside a bounded envelope (the
/// stability the Eq. 10–11 drift analysis promises once service again
/// exceeds arrivals).
///
/// Returns `backlog` unchanged.
#[inline]
pub fn check_drained(label: &str, backlog: f64, envelope: f64) -> f64 {
    if active() {
        let envelope_ok = envelope.is_finite() && envelope >= 0.0;
        if !envelope_ok || !backlog.is_finite() || backlog > envelope + TOL {
            violation(
                label,
                &format!(
                    "backlog {backlog} above recovery envelope {envelope} \
                     after faults cleared (Eq. 10–11 stability)"
                ),
            );
        }
    }
    backlog
}

/// Eq. 10–11 stability bound as a *decision predicate*: whether a
/// predicted next-slot backlog stays within `bound` (with the usual
/// boundary slop [`TOL`]).
///
/// Unlike the guards above this never panics — admission control asks
/// it *before* admitting load, so out-of-bound inputs are an expected
/// answer ("shed"), not a broken analysis. Callers that then admit
/// anyway should still route the admitted value through
/// [`check_nonneg`] / [`violation`].
#[inline]
#[must_use]
pub fn within_bound(predicted: f64, bound: f64) -> bool {
    predicted.is_finite() && bound.is_finite() && predicted <= bound + TOL
}

/// Theorem 1 hypothesis — cumulative exit rates must be non-decreasing
/// (this monotonicity is what makes the branch-and-bound pruning sound).
#[inline]
pub fn check_monotone(label: &str, xs: &[f64]) {
    if !active() {
        return;
    }
    for (i, w) in xs.windows(2).enumerate() {
        // NaN in either element must trip the check, not slip past it.
        if !w[0].is_finite() || !w[1].is_finite() || w[0] > w[1] + TOL {
            violation(
                label,
                &format!(
                    "sequence not monotone at {i}: {} > {} (Theorem 1 hypothesis)",
                    w[0], w[1]
                ),
            );
        }
    }
}

/// A multi-tier exit placement must be strictly increasing with each
/// index inside the chain (generalised Eq. 7 feasibility).
#[inline]
pub fn check_increasing_exits(label: &str, exits: &[usize], num_layers: usize) {
    if !active() {
        return;
    }
    for (i, w) in exits.windows(2).enumerate() {
        if w[0] >= w[1] {
            violation(
                label,
                &format!("exits not strictly increasing at {i}: {exits:?}"),
            );
        }
    }
    if let Some(&last) = exits.last() {
        if last >= num_layers {
            violation(
                label,
                &format!("exit {last} outside chain of {num_layers} layers"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_pass_values_through() {
        assert_eq!(check_unit_interval("t", 0.5).to_bits(), 0.5_f64.to_bits());
        assert_eq!(check_nonneg("t", 3.0).to_bits(), 3.0_f64.to_bits());
        assert_eq!(check_finite_cost("t", 1.25).to_bits(), 1.25_f64.to_bits());
        assert_eq!(check_interval("t", 0.0, 1.0), (0.0, 1.0));
        assert_eq!(check_drained("t", 2.0, 5.0).to_bits(), 2.0_f64.to_bits());
    }

    #[test]
    fn within_bound_is_a_predicate_not_a_guard() {
        assert!(within_bound(3.0, 5.0));
        assert!(within_bound(5.0 + 0.5 * TOL, 5.0));
        assert!(!within_bound(5.1, 5.0));
        // Non-finite inputs answer "no" instead of panicking.
        assert!(!within_bound(f64::NAN, 5.0));
        assert!(!within_bound(f64::INFINITY, 5.0));
        assert!(!within_bound(3.0, f64::NAN));
    }

    #[test]
    fn boundary_slop_is_tolerated() {
        check_unit_interval("t", 1.0 + 0.5 * TOL);
        check_unit_interval("t", -0.5 * TOL);
        check_nonneg("t", -0.5 * TOL);
        check_simplex("t", &[0.5 + 1e-12, 0.5 - 1e-12]);
    }

    #[test]
    #[should_panic(expected = "Eq. 8")]
    fn ratio_above_one_fires() {
        if !active() {
            panic!("guards inactive: simulated Eq. 8 failure");
        }
        check_unit_interval("t", 1.5);
    }

    #[test]
    #[should_panic(expected = "Eq. 10")]
    fn negative_backlog_fires() {
        if !active() {
            panic!("guards inactive: simulated Eq. 10–11 failure");
        }
        check_nonneg("t", -0.2);
    }

    #[test]
    #[should_panic(expected = "Eq. 27")]
    fn off_simplex_fires() {
        if !active() {
            panic!("guards inactive: simulated Eq. 27 failure");
        }
        check_simplex("t", &[0.7, 0.7]);
    }

    #[test]
    #[should_panic(expected = "recovery envelope")]
    fn undrained_backlog_fires() {
        if !active() {
            panic!("guards inactive: simulated recovery envelope failure");
        }
        check_drained("t", 10.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "Theorem 1")]
    fn non_monotone_rates_fire() {
        if !active() {
            panic!("guards inactive: simulated Theorem 1 failure");
        }
        check_monotone("t", &[0.1, 0.5, 0.4]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_exits_fire() {
        if !active() {
            panic!("guards inactive: simulated strictly increasing exits failure");
        }
        check_increasing_exits("t", &[3, 3, 9], 10);
    }

    #[test]
    fn nan_is_rejected_everywhere() {
        if !active() {
            return;
        }
        for f in [
            std::panic::catch_unwind(|| check_unit_interval("t", f64::NAN)),
            std::panic::catch_unwind(|| check_nonneg("t", f64::NAN)),
            std::panic::catch_unwind(|| check_finite_cost("t", f64::NAN)),
        ] {
            assert!(f.is_err(), "NaN must violate every numeric guard");
        }
    }
}
