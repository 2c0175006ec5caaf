use crate::{DeviceParams, SharedParams};

/// Per-slot cost evaluator for one device (Eq. 12–14 and the
/// drift-plus-penalty objective of Eq. 18–19).
///
/// All methods are parameterised by the offloading ratio `x ∈ [0, 1]`;
/// arrivals split into `A = (1−x)·k` local and `D = x·k` offloaded tasks.
/// The constructor computes every `x`-independent subtree once. Only
/// whole parenthesized subtrees of the Eq. 9/12–14 expressions are
/// hoisted: float arithmetic is not associative, so re-grouping anything
/// else would change results and break the DESIGN.md §11 byte-identical
/// contract (`evaluator_bits_are_pinned` pins every method's bits).
#[derive(Debug, Clone, Copy)]
pub struct SlotCost {
    shared: SharedParams,
    device: DeviceParams,
    /// Device queue length `Q_i(t)` at the slot start.
    pub q: f64,
    /// Edge queue length `H_i(t)` at the slot start.
    pub h: f64,
    /// Edge resource share `p_i` of this device.
    pub p_share: f64,
    /// `μ_1 / F_i^d` — device seconds per task.
    pub(crate) per_task_dev: f64,
    /// `1 − σ_1`.
    pub(crate) one_minus_sigma1: f64,
    /// First-exit upload time `d_1·8/B + L` (the `C^d_3` inner term).
    pub(crate) tx1: f64,
    /// Raw-input upload time `d_0·8/B + L` (the `C^e_1` inner term).
    pub(crate) tx0: f64,
    /// `e₂ = (1 − σ_1)·μ_2` — the x-independent half of the Eq. 9
    /// denominator.
    pub(crate) edge2: f64,
    /// Device service quota `F_i^d·τ/μ_1`.
    device_quota: f64,
}

impl SlotCost {
    /// Creates an evaluator for one device-slot.
    ///
    /// # Panics
    ///
    /// Panics if queue lengths are negative or `p_share` is outside
    /// `[0, 1]`.
    #[inline]
    pub fn new(shared: SharedParams, device: DeviceParams, q: f64, h: f64, p_share: f64) -> Self {
        assert!(q >= 0.0 && h >= 0.0, "queue lengths must be non-negative");
        assert!(
            (0.0..=1.0).contains(&p_share),
            "p_share {p_share} outside [0, 1]"
        );
        let (s, d) = (&shared, &device);
        SlotCost {
            shared,
            device,
            q,
            h,
            p_share,
            per_task_dev: s.mu1 / d.flops,
            one_minus_sigma1: 1.0 - s.sigma1,
            tx1: s.d1_bytes * 8.0 / d.bandwidth_bps + d.latency_s,
            tx0: s.d0_bytes * 8.0 / d.bandwidth_bps + d.latency_s,
            edge2: (1.0 - s.sigma1) * s.mu2,
            device_quota: d.flops * s.slot_len_s / s.mu1,
        }
    }

    /// This evaluator with the device's arrival mean set to `k`: the
    /// same bits as [`SlotCost::new`] with that mean, since no
    /// x-independent subtree the constructor computes reads the mean.
    #[inline]
    pub fn with_arrival_mean(&self, k: f64) -> Self {
        SlotCost {
            device: DeviceParams {
                arrival_mean: k,
                ..self.device
            },
            ..*self
        }
    }

    /// The shared parameters in use.
    pub fn shared(&self) -> SharedParams {
        self.shared
    }

    /// The device parameters in use.
    pub fn device(&self) -> DeviceParams {
        self.device
    }

    /// Edge FLOPS devoted to this device's *first-block* tasks,
    /// `F^e_{i,1}` (Eq. 9): the share `p_i F^e` is split between first- and
    /// second-block work in proportion to their demand.
    #[inline]
    pub fn edge_first_block_flops(&self, x: f64) -> f64 {
        let mu1 = self.shared.mu1;
        let denom = x * mu1 + self.edge2;
        if denom <= 0.0 {
            return 0.0;
        }
        x * mu1 * self.p_share * self.shared.edge_flops / denom
    }

    /// Edge FLOPS left for this device's *second-block* tasks: the share
    /// `p_i F^e` minus [`SlotCost::edge_first_block_flops`]. When the
    /// first block exhausts the share, the whole share (at least
    /// `f64::EPSILON`) — pessimistic but finite.
    #[inline]
    pub fn second_block_flops(&self, x: f64) -> f64 {
        let capacity = self.p_share * self.shared.edge_flops;
        let left = capacity - self.edge_first_block_flops(x);
        if left > 0.0 {
            left
        } else {
            capacity.max(f64::EPSILON)
        }
    }

    /// Device service quota `b_i(t) = F_i^d · τ / μ_1` (tasks per slot).
    pub fn device_quota(&self) -> f64 {
        self.device_quota
    }

    /// Edge service quota `c_i(t) = F^e_{i,1} · τ / μ_1` (tasks per slot).
    #[inline]
    pub fn edge_quota(&self, x: f64) -> f64 {
        self.edge_quota_from(self.edge_first_block_flops(x))
    }

    #[inline]
    fn edge_quota_from(&self, f_e1: f64) -> f64 {
        f_e1 * self.shared.slot_len_s / self.shared.mu1
    }

    /// Device-side slot cost `T_i^d(t)` (Eq. 12): backlog wait `C^d_1`,
    /// own processing + intra-batch queueing `C^d_2`, and the First-exit
    /// intermediate-data transmission `C^d_3`.
    #[inline]
    pub fn t_device(&self, x: f64) -> f64 {
        let a = (1.0 - x) * self.device.arrival_mean;
        if a <= 0.0 {
            return 0.0;
        }
        let per_task = self.per_task_dev;
        let c1 = a * self.q * per_task;
        // A(A−1)/2 intra-batch queueing; clamped at 0 for fluid A < 1.
        let c2 = a * per_task + (a * (a - 1.0) / 2.0).max(0.0) * per_task;
        let c3 = self.one_minus_sigma1 * a * self.tx1;
        c1 + c2 + c3
    }

    /// Edge-side slot cost `T_i^e(t)` (Eq. 13): raw-input transmission
    /// `C^e_1`, backlog wait `C^e_2`, own processing + intra-batch queueing
    /// `C^e_3`.
    ///
    /// Returns `f64::INFINITY` when tasks are offloaded (`x > 0`) but the
    /// device holds no edge share.
    #[inline]
    pub fn t_edge(&self, x: f64) -> f64 {
        self.t_edge_from(x, self.edge_first_block_flops(x))
    }

    #[inline]
    fn t_edge_from(&self, x: f64, f_e1: f64) -> f64 {
        let dd = x * self.device.arrival_mean;
        if dd <= 0.0 {
            return 0.0;
        }
        if f_e1 <= 0.0 {
            return f64::INFINITY;
        }
        let per_task = self.shared.mu1 / f_e1;
        let c1 = dd * self.tx0;
        let c2 = dd * self.h * per_task;
        let c3 = dd * per_task + (dd * (dd - 1.0) / 2.0).max(0.0) * per_task;
        c1 + c2 + c3
    }

    /// Total slot cost `Y_i(t) = T_i^d + T_i^e` (Eq. 14).
    #[inline]
    pub fn y(&self, x: f64) -> f64 {
        self.t_device(x) + self.t_edge(x)
    }

    /// Drift-plus-penalty objective for this device (Eq. 19):
    /// `V·Y_i + Q_i·(A_i − b_i) + H_i·(D_i − c_i)`, evaluating `F^e_{i,1}`
    /// once.
    pub fn drift_plus_penalty(&self, x: f64) -> f64 {
        let k = self.device.arrival_mean;
        let a = (1.0 - x) * k;
        let dd = x * k;
        let f_e1 = self.edge_first_block_flops(x);
        self.shared.v * (self.t_device(x) + self.t_edge_from(x, f_e1))
            + self.q * (a - self.device_quota)
            + self.h * (dd - self.edge_quota_from(f_e1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LyapunovController, OffloadController, SlotObservation};

    fn shared() -> SharedParams {
        SharedParams {
            slot_len_s: 1.0,
            v: 100.0,
            mu1: 2e8,
            mu2: 5e8,
            sigma1: 0.4,
            d0_bytes: 12_288.0,
            d1_bytes: 65_536.0,
            edge_flops: 40e9,
        }
    }

    fn cost(x_q: f64, h: f64) -> SlotCost {
        SlotCost::new(shared(), DeviceParams::raspberry_pi(10.0), x_q, h, 0.25)
    }

    #[test]
    fn t_device_zero_when_all_offloaded() {
        assert_eq!(cost(0.0, 0.0).t_device(1.0).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn t_edge_zero_when_none_offloaded() {
        assert_eq!(cost(0.0, 0.0).t_edge(0.0).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn t_device_decreases_in_x() {
        let c = cost(5.0, 0.0);
        let mut prev = f64::INFINITY;
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            let t = c.t_device(x);
            assert!(t <= prev + 1e-12, "t_device not decreasing at x={x}");
            prev = t;
        }
    }

    #[test]
    fn t_edge_increases_in_x() {
        let c = cost(0.0, 5.0);
        let mut prev = 0.0;
        for i in 1..=10 {
            let x = i as f64 / 10.0;
            let t = c.t_edge(x);
            assert!(t >= prev - 1e-12, "t_edge not increasing at x={x}");
            prev = t;
        }
    }

    #[test]
    fn edge_first_block_split_matches_eq9() {
        let c = cost(0.0, 0.0);
        let s = shared();
        let x = 0.6;
        let f1 = c.edge_first_block_flops(x);
        // Check the proportionality F1/F2 = x*mu1 / ((1-sigma1)*mu2):
        let f_total = c.p_share * s.edge_flops;
        let f2 = f_total - f1;
        let want_ratio = x * s.mu1 / ((1.0 - s.sigma1) * s.mu2);
        assert!((f1 / f2 - want_ratio).abs() < 1e-9);
    }

    #[test]
    fn second_block_gets_the_share_left_after_the_first() {
        let c = cost(0.0, 0.0);
        let f_total = c.p_share * shared().edge_flops;
        let x = 0.6;
        let left = c.second_block_flops(x);
        assert!(left > 0.0 && left < f_total);
        assert_eq!(
            left.to_bits(),
            (f_total - c.edge_first_block_flops(x)).to_bits()
        );
        // sigma1 = 1: nothing survives to block 2, so the first block
        // takes the whole share (exactly, at x = 0.5) and the fallback is
        // the share itself.
        let mut exhausted = shared();
        exhausted.sigma1 = 1.0;
        let c = SlotCost::new(exhausted, DeviceParams::raspberry_pi(10.0), 0.0, 0.0, 0.25);
        assert_eq!(c.edge_first_block_flops(0.5).to_bits(), f_total.to_bits());
        assert_eq!(c.second_block_flops(0.5).to_bits(), f_total.to_bits());
        // No share at all: the floor keeps the division finite.
        let c = SlotCost::new(shared(), DeviceParams::raspberry_pi(10.0), 0.0, 0.0, 0.0);
        assert_eq!(c.second_block_flops(x).to_bits(), f64::EPSILON.to_bits());
    }

    #[test]
    fn no_share_means_infinite_edge_cost() {
        let c = SlotCost::new(shared(), DeviceParams::raspberry_pi(10.0), 0.0, 0.0, 0.0);
        assert!(c.t_edge(0.5).is_infinite());
        assert_eq!(c.t_edge(0.0).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn backlog_raises_cost() {
        let empty = cost(0.0, 0.0);
        let backed = cost(20.0, 0.0);
        assert!(backed.t_device(0.0) > empty.t_device(0.0));
        let backed_edge = cost(0.0, 20.0);
        assert!(backed_edge.t_edge(0.5) > empty.t_edge(0.5));
    }

    #[test]
    fn quotas_match_formulas() {
        let c = cost(0.0, 0.0);
        assert!((c.device_quota() - 1.0e9 / 2e8).abs() < 1e-12);
        let f1 = c.edge_first_block_flops(0.5);
        assert!((c.edge_quota(0.5) - f1 / 2e8).abs() < 1e-9);
    }

    #[test]
    fn drift_penalty_composes() {
        let c = cost(3.0, 2.0);
        let x = 0.4;
        let manual = 100.0 * c.y(x)
            + 3.0 * ((1.0 - x) * 10.0 - c.device_quota())
            + 2.0 * (x * 10.0 - c.edge_quota(x));
        assert!((c.drift_plus_penalty(x) - manual).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "p_share")]
    fn rejects_bad_share() {
        SlotCost::new(shared(), DeviceParams::raspberry_pi(1.0), 0.0, 0.0, 1.5);
    }

    /// The pinned [`grid_checksum`] of evaluators built by
    /// [`SlotCost::new`].
    const GRID_BITS: u64 = 0x877f_13fa_98af_2cf8;

    /// FNV-1a over the bits of every evaluator method on the grid of
    /// 3 shared parameter sets × 4 arrival means × 4 queue states ×
    /// 4 edge shares × 65 ratios (x-independent quota once per cost),
    /// each evaluator built by `build(shared, k, q, h, p_share)`.
    fn grid_checksum(mut build: impl FnMut(SharedParams, f64, f64, f64, f64) -> SlotCost) -> u64 {
        let mut shared_grid = vec![shared()];
        let mut v_inf = shared();
        v_inf.v = f64::INFINITY;
        shared_grid.push(v_inf);
        let mut no_mu2 = shared();
        no_mu2.mu2 = 0.0;
        no_mu2.sigma1 = 1.0;
        shared_grid.push(no_mu2);
        let mut sum: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: f64| sum = (sum ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3);
        for s in shared_grid {
            for k in [0.0, 0.5, 10.0, 200.0] {
                for &(q, h) in &[(0.0, 0.0), (3.0, 2.0), (50.0, 0.0), (0.0, 75.0)] {
                    for p_share in [0.0, 1e-3, 0.25, 1.0] {
                        let c = build(s, k, q, h, p_share);
                        fold(c.device_quota());
                        for i in 0..=64 {
                            let x = i as f64 / 64.0;
                            fold(c.edge_first_block_flops(x));
                            fold(c.second_block_flops(x));
                            fold(c.edge_quota(x));
                            fold(c.t_device(x));
                            fold(c.t_edge(x));
                            fold(c.y(x));
                            fold(c.drift_plus_penalty(x));
                        }
                    }
                }
            }
        }
        sum
    }

    /// FNV-1a over the bits of `LyapunovController::decide` on every
    /// point of the [`grid_checksum`] grid.
    const DECIDE_BITS: u64 = 0x221c_a154_7f3c_25de;

    #[test]
    fn evaluator_bits_are_pinned() {
        // DESIGN.md §11 compares serialized output bytes, and every
        // solver and pricing path reads these methods, so their bits are
        // pinned over the whole grid, zero-share, zero-arrival, V = ∞
        // and e₂ = 0 corners included.
        let new = |s, k, q, h, p| SlotCost::new(s, DeviceParams::raspberry_pi(k), q, h, p);
        assert_eq!(grid_checksum(new), GRID_BITS);
        // The controller solves on the evaluator a caller built to price
        // the slot (`decide_cost`) exactly as from the inputs (`decide`).
        let mut sum: u64 = 0xcbf2_9ce4_8422_2325;
        let solved = |s, k, q, h, p| {
            let c = new(s, k, q, h, p);
            let obs = SlotObservation { q, h, p_share: p };
            let x = LyapunovController.decide(s, c.device(), obs);
            let x_cost = LyapunovController.decide_cost(&c);
            assert_eq!(x_cost.to_bits(), x.to_bits(), "k {k}, q {q}, h {h}, p {p}");
            sum = (sum ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3);
            c
        };
        assert_eq!(grid_checksum(solved), GRID_BITS);
        assert_eq!(sum, DECIDE_BITS);
    }

    #[test]
    fn with_arrival_mean_matches_new_bit_for_bit() {
        // Built for another mean, then reset to the grid's: every method
        // must return the bits `SlotCost::new` gives for the grid's mean.
        for other in [0.0, 3.0, 1e6] {
            let reset = |s, k, q, h, p| {
                SlotCost::new(s, DeviceParams::raspberry_pi(other), q, h, p).with_arrival_mean(k)
            };
            assert_eq!(grid_checksum(reset), GRID_BITS, "built at k = {other}");
        }
    }
}
