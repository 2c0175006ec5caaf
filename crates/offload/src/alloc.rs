//! Edge resource allocation (Appendix B).

use leime_invariant as invariant;

/// The KKT closed-form edge shares `p_i` (Eq. 27):
///
/// ```text
/// p_i = √k_i · (Σ_j F_j^d + F^e) / (F^e · Σ_j √k_j) − F_i^d / F^e
/// ```
///
/// which minimises the demand-weighted mean processing time `f(P)`
/// (Eq. 26) subject to `Σ p_i = 1`. The raw formula can go negative for a
/// device whose own FLOPS dwarf its demand; such devices are iteratively
/// pinned to a zero share and the remainder is re-solved over the active
/// set (standard KKT active-set projection), so the returned shares are
/// feasible: `p_i ≥ 0`, `Σ p_i = 1`.
///
/// Devices with `k_i = 0` receive a zero share.
///
/// # Panics
///
/// Panics if the slices have different lengths, are empty, any FLOPS is
/// non-positive, any demand is negative, or `edge_flops` is non-positive.
pub fn kkt_allocation(device_flops: &[f64], arrival_means: &[f64], edge_flops: f64) -> Vec<f64> {
    assert_eq!(
        device_flops.len(),
        arrival_means.len(),
        "device_flops and arrival_means must align"
    );
    assert!(!device_flops.is_empty(), "need at least one device");
    assert!(edge_flops > 0.0, "edge FLOPS must be positive");
    for (&f, &k) in device_flops.iter().zip(arrival_means) {
        assert!(f > 0.0 && f.is_finite(), "device FLOPS invalid: {f}");
        assert!(k >= 0.0 && k.is_finite(), "arrival mean invalid: {k}");
    }

    let n = device_flops.len();
    let mut shares = vec![0.0f64; n];
    // Active set: devices that receive a positive share.
    let mut active: Vec<usize> = (0..n).filter(|&i| arrival_means[i] > 0.0).collect();
    if active.is_empty() {
        // No demand anywhere: split evenly (any feasible point is optimal).
        let shares = vec![1.0 / n as f64; n];
        invariant::check_simplex("offload.kkt_allocation", &shares);
        return shares;
    }

    loop {
        let sum_fd: f64 = active.iter().map(|&i| device_flops[i]).sum();
        let sum_sqrt_k: f64 = active.iter().map(|&i| arrival_means[i].sqrt()).sum();
        let mut any_negative = false;
        for &i in &active {
            let p = arrival_means[i].sqrt() * (sum_fd + edge_flops) / (edge_flops * sum_sqrt_k)
                - device_flops[i] / edge_flops;
            shares[i] = p;
            if p < 0.0 {
                any_negative = true;
            }
        }
        if !any_negative {
            break;
        }
        // Pin negative-share devices to zero and re-solve.
        let before = active.len();
        active.retain(|&i| {
            if shares[i] < 0.0 {
                shares[i] = 0.0;
                false
            } else {
                true
            }
        });
        assert!(
            !active.is_empty() && active.len() < before,
            "KKT projection failed to converge"
        );
    }
    invariant::check_simplex("offload.kkt_allocation", &shares);
    shares
}

/// [`kkt_allocation`] with a minimum-share floor for demanding devices.
///
/// The raw KKT solution can pin a strong device to a zero share (its own
/// FLOPS dwarf its *first-block* demand), but in LEIME every device's
/// second-block work runs on its edge share regardless, so a demanding
/// device must own a strictly positive slice. This wrapper raises any
/// pinned-but-demanding device to `floor` and renormalises.
///
/// # Panics
///
/// Same conditions as [`kkt_allocation`], plus `floor` must be in
/// `(0, 1/n]`.
pub fn kkt_allocation_with_floor(
    device_flops: &[f64],
    arrival_means: &[f64],
    edge_flops: f64,
    floor: f64,
) -> Vec<f64> {
    let n = device_flops.len();
    assert!(
        floor > 0.0 && floor <= 1.0 / n as f64,
        "floor {floor} outside (0, 1/{n}]"
    );
    let mut shares = kkt_allocation(device_flops, arrival_means, edge_flops);
    for (s, &k) in shares.iter_mut().zip(arrival_means) {
        if k > 0.0 && *s < floor {
            *s = floor;
        }
    }
    let sum: f64 = shares.iter().sum();
    if sum > 0.0 {
        for s in &mut shares {
            *s /= sum;
        }
    }
    invariant::check_simplex("offload.kkt_allocation_with_floor", &shares);
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let p = kkt_allocation(&[1e9, 1e9, 8.2e9], &[5.0, 10.0, 5.0], 40e9);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn symmetric_devices_get_equal_shares() {
        let p = kkt_allocation(&[1e9, 1e9], &[5.0, 5.0], 40e9);
        assert!((p[0] - p[1]).abs() < 1e-12);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn higher_demand_gets_bigger_share() {
        let p = kkt_allocation(&[1e9, 1e9], &[2.0, 18.0], 40e9);
        assert!(p[1] > p[0]);
    }

    #[test]
    fn stronger_device_gets_smaller_share() {
        // Same demand; the Nano needs less help.
        let p = kkt_allocation(&[1e9, 8.2e9], &[10.0, 10.0], 40e9);
        assert!(p[0] > p[1]);
    }

    #[test]
    fn negative_raw_share_is_projected() {
        // A very strong device with tiny demand would get a negative raw
        // share; projection pins it to zero and keeps the sum at 1.
        let p = kkt_allocation(&[1e9, 500e9], &[10.0, 0.1], 10e9);
        assert_eq!(p[1].to_bits(), 0.0_f64.to_bits());
        assert!((p[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_demand_gets_zero_share() {
        let p = kkt_allocation(&[1e9, 1e9], &[10.0, 0.0], 40e9);
        assert_eq!(p[1].to_bits(), 0.0_f64.to_bits());
        assert!((p[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_idle_splits_evenly() {
        let p = kkt_allocation(&[1e9, 1e9], &[0.0, 0.0], 40e9);
        assert_eq!(p, vec![0.5, 0.5]);
    }

    #[test]
    fn matches_paper_formula_when_interior() {
        // Hand-compute Eq. 27 for a case with all-positive shares.
        let fd = [2e9, 3e9];
        let k = [4.0, 9.0];
        let fe = 50e9;
        let p = kkt_allocation(&fd, &k, fe);
        let sum_fd = 5e9;
        let sum_sqrt = 2.0 + 3.0;
        for i in 0..2 {
            let want = k[i].sqrt() * (sum_fd + fe) / (fe * sum_sqrt) - fd[i] / fe;
            assert!((p[i] - want).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn rejects_mismatched_lengths() {
        kkt_allocation(&[1e9], &[1.0, 2.0], 40e9);
    }

    #[test]
    fn floor_lifts_pinned_demanding_devices() {
        // The strong device would be pinned to 0 by raw KKT but has
        // demand, so the floored variant gives it a positive share.
        let p = kkt_allocation_with_floor(&[1e9, 500e9], &[10.0, 0.1], 10e9, 0.01);
        assert!(p[1] >= 0.009, "floored share {}", p[1]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn floor_is_noop_for_interior_solutions() {
        let raw = kkt_allocation(&[1e9, 1e9], &[5.0, 5.0], 40e9);
        let floored = kkt_allocation_with_floor(&[1e9, 1e9], &[5.0, 5.0], 40e9, 0.01);
        for (a, b) in raw.iter().zip(&floored) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn floor_bounds_validated() {
        kkt_allocation_with_floor(&[1e9, 1e9], &[1.0, 1.0], 10e9, 0.9);
    }
}
