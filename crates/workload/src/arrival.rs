//! Task arrival processes.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-slot task count generator — the paper's `M_i(t)`, i.i.d. over slots
/// within `[0, M_max]` with expectation `k_i`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SlotArrivals {
    /// Exactly `k` tasks every slot (deterministic load).
    Deterministic {
        /// Tasks per slot.
        k: f64,
    },
    /// Uniform integer count on `[lo, hi]` (mean `(lo+hi)/2`).
    Uniform {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// Poisson count with the given mean, truncated at `max` (the paper
    /// bounds `M_i(t)` by `M_{i,max}`).
    Poisson {
        /// Mean tasks per slot `k_i`.
        mean: f64,
        /// Truncation bound `M_{i,max}`.
        max: u64,
    },
}

impl SlotArrivals {
    /// Draws the task count for one slot.
    ///
    /// # Panics
    ///
    /// Panics if the variant parameters are inconsistent (`lo > hi`,
    /// negative mean).
    pub fn draw(&self, rng: &mut StdRng) -> u64 {
        match *self {
            SlotArrivals::Deterministic { k } => {
                assert!(k >= 0.0, "negative arrival mean {k}");
                // Deterministic fractional rates: floor + Bernoulli remainder
                // keeps the long-run mean exact.
                let base = k.floor() as u64;
                let frac = k - k.floor();
                base + u64::from(rng.gen_bool(frac.clamp(0.0, 1.0)))
            }
            SlotArrivals::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform arrivals lo {lo} > hi {hi}");
                rng.gen_range(lo..=hi)
            }
            SlotArrivals::Poisson { mean, max } => {
                poisson_draw(mean, poisson_threshold(mean), max, rng)
            }
        }
    }

    /// Long-run expected tasks per slot `k_i` (ignoring truncation bias,
    /// which is negligible when `max ≳ 3·mean`).
    pub fn mean(&self) -> f64 {
        match *self {
            SlotArrivals::Deterministic { k } => k,
            SlotArrivals::Uniform { lo, hi } => (lo + hi) as f64 / 2.0,
            SlotArrivals::Poisson { mean, .. } => mean,
        }
    }
}

/// The largest mean [`poisson_draw`] samples with Knuth's algorithm;
/// above it the draw is a normal approximation and reads no threshold.
const KNUTH_MAX_MEAN: f64 = 30.0;

/// Knuth's threshold `exp(−mean)` for a Poisson draw of mean `mean`
/// ([`poisson_draw`]). Compute it where the mean is set, once per mean,
/// not per draw. Above the Knuth cutoff (mean 30) the draw reads no
/// threshold, so this returns 0 there without computing the exponential.
pub fn poisson_threshold(mean: f64) -> f64 {
    if mean > KNUTH_MAX_MEAN {
        0.0
    } else {
        (-mean).exp()
    }
}

/// A Poisson count of mean `mean`, truncated at `max`, with Knuth's
/// threshold `threshold` = [`poisson_threshold`]`(mean)`: Knuth's
/// algorithm for small means, a normal approximation above 30 to avoid
/// O(mean) work. Draws nothing from `rng` for `mean ≤ 0`.
///
/// # Panics
///
/// Panics if `mean` is negative.
pub fn poisson_draw(mean: f64, threshold: f64, max: u64, rng: &mut StdRng) -> u64 {
    assert!(mean >= 0.0, "negative arrival mean {mean}");
    if mean <= 0.0 {
        return 0;
    }
    if mean > KNUTH_MAX_MEAN {
        // Normal approximation N(mean, mean), rounded and clamped.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        return ((mean + z * mean.sqrt()).round().max(0.0) as u64).min(max);
    }
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= threshold {
            return k.min(max);
        }
        k += 1;
    }
}

/// Trials per inversion run of [`Binomial::draw`]: with `p ≤ ½`,
/// `(1 − p)^1000 ≥ 2^-1000` stays a normal `f64`.
const BINOMIAL_CHUNK: u64 = 1000;

/// Run lengths below which a [`Binomial`] law draws by guided lookup.
const ROWS: u64 = 64;

/// Guide buckets per row of a [`Binomial`] law: a power of two, so
/// `u · GUIDE` is exact.
const GUIDE: usize = 64;

/// The half-width `δ_k = (2k + 2)·2⁻⁵²` of boundary `k`'s band, which
/// outweighs the rounding of the row's running sum `C_k`, of the walk's
/// `k − 1` subtractions and of the band's own edges (DESIGN.md §12).
fn half_band(k: usize) -> f64 {
    (2 * k + 2) as f64 * f64::EPSILON
}

/// The `Binomial(·, p)` law for one success probability `p`, with the
/// constants of its sampler computed once: `s = min(p, 1 − p)`, `1 − s`,
/// `r = s/(1 − s)` and, for every run of `m < 64` trials, a band row
/// and a guide that find the inversion walk's count without walking
/// (DESIGN.md §12). Building a law costs about 2k divisions and 20 KiB,
/// so build it where `p` is fixed (once per run) and
/// [`draw`](Binomial::draw) per device-slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Binomial {
    p: f64,
    s: f64,
    /// `1 − s`.
    q: f64,
    /// `s / (1 − s)`.
    r: f64,
    /// Row `m` (at [`row_start`]`(m)`, `m` entries) holds the upper band
    /// edges `H_1, …, H_m` of a run of `m` trials: `H_k = C_k + δ_k`,
    /// where `C_k` is the running sum of the walk's first `k` pmf
    /// entries and `δ_k` is [`half_band`]`(k)`. The walk reaches a count
    /// of `k` or more when `u > H_k`, and stops short of `k` when
    /// `u ≤ L_k = H_k − 2δ_k`. Empty for the degenerate laws, which
    /// never walk.
    bands: Vec<f64>,
    /// `guide[m][j]` counts the boundaries `k` of row `m` with
    /// `H_k < j/64`: a count the walk reaches for every `u ≥ j/64`.
    guide: Vec<[u8; GUIDE]>,
    /// `heads[m] = q.powi(m)` bit for bit: the walk's first pmf entry
    /// for a run of `m < 64` trials.
    heads: Vec<f64>,
}

/// Where row `m` of [`Binomial::bands`] starts: rows `0..m` hold
/// `0 + 1 + … + (m − 1)` entries.
fn row_start(m: usize) -> usize {
    m * (m.saturating_sub(1)) / 2
}

impl Binomial {
    /// The law of success probability `p`. `p ≤ 0` (or NaN) and `p ≥ 1`
    /// are degenerate laws that draw nothing.
    pub fn new(p: f64) -> Self {
        let s = p.min(1.0 - p);
        let q = 1.0 - s;
        let r = s / q;
        let mut law = Binomial {
            p,
            s,
            q,
            r,
            bands: Vec::new(),
            guide: Vec::new(),
            heads: Vec::new(),
        };
        if p.is_nan() || p <= 0.0 || p >= 1.0 {
            return law;
        }
        let rows = ROWS as usize;
        law.bands = vec![0.0; row_start(rows)];
        law.guide = vec![[0; GUIDE]; rows];
        law.heads = vec![1.0; rows];
        // `powi` multiplies the squares `q^(2^k)` of `m`'s set bits in
        // ascending `k`, starting from 1 (square-and-multiply), so
        // `q^m` is `q^(m − 2^h)` times the top bit's square `q^(2^h)`:
        // one multiply per row, the same product `powi` forms.
        let mut square = q;
        for m in 1..rows {
            let top = 1 << m.ilog2();
            law.heads[m] = if m == top {
                if m > 1 {
                    square *= square;
                }
                square
            } else {
                law.heads[m - top] * square
            };
            // The walk's pmf entries, as the walk computes them, summed
            // in the order it subtracts them.
            let a = (m + 1) as f64 * r;
            let (mut pmf, mut sum) = (law.heads[m], 0.0);
            let row = &mut law.bands[row_start(m)..row_start(m + 1)];
            for (x, high) in row.iter_mut().enumerate() {
                sum += pmf;
                *high = sum + half_band(x + 1);
                pmf *= a / (x + 1) as f64 - r;
            }
            // `H_k < j/64` exactly when `j > ⌊64·H_k⌋` (`H_k > 0`): count
            // each boundary at the first bucket it lies below (64 for
            // none), then sum the counts up the buckets.
            let mut firsts = [0u8; GUIDE + 1];
            for &high in row.iter() {
                firsts[((high * GUIDE as f64) as usize + 1).min(GUIDE)] += 1;
            }
            let mut below = 0;
            for (start, first) in law.guide[m].iter_mut().zip(firsts) {
                below += first;
                *start = below;
            }
        }
        law
    }

    /// The success probability `p` the law was built for.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Draws a `Binomial(n, p)` count exactly, by inversion.
    ///
    /// The walk runs on `s` up the pmf recursion
    /// `P(x) = P(x − 1) · ((n + 1)·r/x − r)`, capped at `x ≤ n`, and
    /// costs `O(n·s)` steps. `n` is split into runs of at most 1000
    /// trials, so `(1 − s)ⁿ` never underflows; a sum of independent
    /// binomials with one `p` is itself binomial. A run of fewer than 64
    /// trials finds the walk's count on its band row from one guide
    /// lookup, with the same uniform, and walks only when the uniform
    /// lands inside a band. `n = 0` and the degenerate laws draw nothing
    /// from `rng`: `p ≤ 0` (or NaN) gives 0, `p ≥ 1` gives `n`.
    #[inline]
    pub fn draw(&self, n: u64, rng: &mut StdRng) -> u64 {
        let (p, s) = (self.p, self.s);
        if n == 0 || p.is_nan() || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        // Most of serving's draws are single short runs: look them up
        // without the chunk loop.
        let hits = if n < ROWS {
            self.walk_row(n, rng.gen())
        } else {
            self.walk_runs(n, rng)
        };
        if s < p {
            n - hits
        } else {
            hits
        }
    }

    /// The walks over `n ≥ 64` trials, in runs of at most 1000.
    fn walk_runs(&self, n: u64, rng: &mut StdRng) -> u64 {
        let mut hits = 0;
        let mut left = n;
        while left > 0 {
            let m = left.min(BINOMIAL_CHUNK);
            left -= m;
            hits += if m < ROWS {
                self.walk_row(m, rng.gen())
            } else {
                self.walk(m, rng)
            };
        }
        hits
    }

    /// The inversion walk's count over a run of `m < 64` trials for the
    /// uniform `u`.
    #[inline]
    fn walk_row(&self, m: u64, u: f64) -> u64 {
        self.guided(m as usize, u)
            .unwrap_or_else(|| self.walk_cold(m, u))
    }

    /// The walk's count over a run of `m < 64` trials for the uniform
    /// `u`, from row `m`'s guide and bands; `None` when `u` lies inside
    /// the band of the boundary it meets, where only the walk can tell.
    #[inline]
    fn guided(&self, m: usize, u: f64) -> Option<u64> {
        let row = &self.bands[row_start(m)..row_start(m + 1)];
        // `u · 64` is exact, so the bucket's floor is at most `u` and
        // the guide's count never passes the walk's.
        let mut x = usize::from(self.guide[m][(u * GUIDE as f64) as usize]);
        while let Some(&high) = row.get(x) {
            if u <= high {
                // Boundary `x + 1`: `u ≤ L` stops the walk at `x`.
                let low = high - 2.0 * half_band(x + 1);
                return (u <= low).then_some(x as u64);
            }
            x += 1;
        }
        Some(m as u64)
    }

    /// The walk over a run of `m < 64` trials for a uniform `u` that
    /// [`guided`](Binomial::guided) could not place (at most about two
    /// draws in 10¹²): the row's pmf recomputed from its head, bit for
    /// bit.
    #[cold]
    fn walk_cold(&self, m: u64, u: f64) -> u64 {
        self.walk_from(m, self.heads[m as usize], u)
    }

    /// The inversion walk over a run of `m ≥ 64` trials, computing the
    /// pmf as it goes.
    fn walk(&self, m: u64, rng: &mut StdRng) -> u64 {
        let head = self.q.powi(m as i32);
        self.walk_from(m, head, rng.gen())
    }

    /// The inversion walk over a run of `m` trials for the uniform `u`,
    /// from the first pmf entry `head = q^m` up the recursion.
    fn walk_from(&self, m: u64, head: f64, mut u: f64) -> u64 {
        let a = (m + 1) as f64 * self.r;
        let mut pmf = head;
        let mut x = 0;
        while u > pmf && x < m {
            u -= pmf;
            x += 1;
            pmf *= a / x as f64 - self.r;
        }
        x
    }
}

/// A two-state Markov-modulated Poisson process (bursty arrivals): each
/// slot the process sits in a *calm* or *burst* state with its own Poisson
/// mean, switching state with the given per-slot probabilities — the
/// classic model for the unpredictable load spikes of the "wild edge"
/// (§II-A: "task arrival rates vary dynamically").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mmpp {
    calm_mean: f64,
    burst_mean: f64,
    p_enter_burst: f64,
    p_leave_burst: f64,
    max: u64,
    in_burst: bool,
}

impl Mmpp {
    /// Creates a bursty process starting in the calm state.
    ///
    /// # Panics
    ///
    /// Panics if means are negative or switching probabilities are outside
    /// `[0, 1]`.
    pub fn new(
        calm_mean: f64,
        burst_mean: f64,
        p_enter_burst: f64,
        p_leave_burst: f64,
        max: u64,
    ) -> Self {
        assert!(calm_mean >= 0.0 && burst_mean >= 0.0, "negative MMPP means");
        assert!(
            (0.0..=1.0).contains(&p_enter_burst) && (0.0..=1.0).contains(&p_leave_burst),
            "MMPP switching probabilities outside [0, 1]"
        );
        Mmpp {
            calm_mean,
            burst_mean,
            p_enter_burst,
            p_leave_burst,
            max,
            in_burst: false,
        }
    }

    /// Whether the process is currently bursting.
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }

    /// Long-run mean tasks per slot (stationary distribution of the
    /// two-state chain).
    pub fn stationary_mean(&self) -> f64 {
        let denom = self.p_enter_burst + self.p_leave_burst;
        // Both probabilities are validated non-negative, so a non-positive
        // sum means both are zero: the chain never leaves its calm start.
        if denom <= 0.0 {
            return self.calm_mean;
        }
        let pi_burst = self.p_enter_burst / denom;
        (1.0 - pi_burst) * self.calm_mean + pi_burst * self.burst_mean
    }

    /// Advances the state machine one slot and draws that slot's count.
    pub fn draw(&mut self, rng: &mut StdRng) -> u64 {
        let switch = if self.in_burst {
            self.p_leave_burst
        } else {
            self.p_enter_burst
        };
        if rng.gen_bool(switch) {
            self.in_burst = !self.in_burst;
        }
        let mean = if self.in_burst {
            self.burst_mean
        } else {
            self.calm_mean
        };
        poisson_draw(mean, poisson_threshold(mean), self.max, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn deterministic_integer_rate() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = SlotArrivals::Deterministic { k: 5.0 };
        for _ in 0..10 {
            assert_eq!(a.draw(&mut rng), 5);
        }
    }

    #[test]
    fn deterministic_fractional_rate_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = SlotArrivals::Deterministic { k: 2.5 };
        let total: u64 = (0..20_000).map(|_| a.draw(&mut rng)).sum();
        let mean = total as f64 / 20_000.0;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = SlotArrivals::Uniform { lo: 2, hi: 8 };
        let mut total = 0u64;
        for _ in 0..10_000 {
            let x = a.draw(&mut rng);
            assert!((2..=8).contains(&x));
            total += x;
        }
        assert!((total as f64 / 10_000.0 - 5.0).abs() < 0.1);
        assert_eq!(a.mean().to_bits(), 5.0_f64.to_bits());
    }

    #[test]
    fn poisson_small_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = SlotArrivals::Poisson {
            mean: 4.0,
            max: 100,
        };
        let total: u64 = (0..20_000).map(|_| a.draw(&mut rng)).sum();
        let mean = total as f64 / 20_000.0;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_approx() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = SlotArrivals::Poisson {
            mean: 100.0,
            max: 10_000,
        };
        let total: u64 = (0..5_000).map(|_| a.draw(&mut rng)).sum();
        let mean = total as f64 / 5_000.0;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn poisson_truncation() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = SlotArrivals::Poisson {
            mean: 50.0,
            max: 10,
        };
        for _ in 0..100 {
            assert!(a.draw(&mut rng) <= 10);
        }
    }

    /// The `Binomial(n, p)` pmf, from the log-space product recursion.
    fn binomial_pmf(n: u64, p: f64) -> Vec<f64> {
        let mut ln_choose = 0.0;
        (0..=n)
            .map(|x| {
                if x > 0 {
                    ln_choose += ((n - x + 1) as f64 / x as f64).ln();
                }
                (ln_choose + x as f64 * p.ln() + (n - x) as f64 * (1.0 - p).ln()).exp()
            })
            .collect()
    }

    #[test]
    fn binomial_draw_follows_the_binomial_law() {
        const DRAWS: u64 = 20_000;
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1u64, 7, 48, 1000, 5000] {
            for p in [1e-3, 0.2, 0.5, 0.7] {
                let law = Binomial::new(p);
                let mut seen = vec![0u64; n as usize + 1];
                for _ in 0..DRAWS {
                    let x = law.draw(n, &mut rng);
                    assert!(x <= n, "Binomial({n}, {p}) drew {x}");
                    seen[x as usize] += 1;
                }
                let pmf = binomial_pmf(n, p);
                // Pool outcomes, in order, into bins expecting ≥ 10
                // draws; each bin's count must sit within 4σ.
                let (mut want, mut got) = (0.0, 0u64);
                for (x, (&px, &hits)) in pmf.iter().zip(&seen).enumerate() {
                    want += DRAWS as f64 * px;
                    got += hits;
                    if want >= 10.0 || x as u64 == n {
                        let sd = (want * (1.0 - want / DRAWS as f64)).max(0.0).sqrt();
                        assert!(
                            (got as f64 - want).abs() <= 4.0 * sd + 1e-9,
                            "Binomial({n}, {p}) up to {x}: {got} draws, expected {want:.1} ± {sd:.1}"
                        );
                        (want, got) = (0.0, 0);
                    }
                }
                let mean = (0..=n).map(|x| x * seen[x as usize]).sum::<u64>() as f64 / DRAWS as f64;
                let sd = (n as f64 * p * (1.0 - p) / DRAWS as f64).sqrt();
                assert!(
                    (mean - n as f64 * p).abs() <= 4.0 * sd,
                    "Binomial({n}, {p}) mean {mean}, expected {} ± {sd}",
                    n as f64 * p
                );
            }
        }
    }

    #[test]
    fn binomial_draw_edge_cases_are_exact_and_draw_nothing() {
        let mut rng = StdRng::seed_from_u64(12);
        for n in [0u64, 1, 7, 48, 1000, 5000] {
            for p in [0.0, 1.0, f64::NAN, -0.5, 1.5, 0.2, 0.5] {
                let before = rng.clone();
                let x = Binomial::new(p).draw(n, &mut rng);
                let degenerate = n == 0 || p.is_nan() || p <= 0.0 || p >= 1.0;
                if degenerate {
                    let exact = if n > 0 && p >= 1.0 { n } else { 0 };
                    assert_eq!(x, exact, "Binomial({n}, {p})");
                    assert_eq!(rng, before, "Binomial({n}, {p}) drew");
                } else {
                    assert_ne!(rng, before, "Binomial({n}, {p}) drew nothing");
                }
            }
        }
    }

    /// The sampler as it was before its constants moved into
    /// [`Binomial`], verbatim: the oracle for the law's walk, which
    /// computed each pmf entry as it stepped (no rows).
    fn binomial_draw(n: u64, p: f64, rng: &mut StdRng) -> u64 {
        if n == 0 || p.is_nan() || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        let s = p.min(1.0 - p);
        let r = s / (1.0 - s);
        let mut hits = 0;
        let mut left = n;
        while left > 0 {
            let m = left.min(BINOMIAL_CHUNK);
            left -= m;
            let a = (m + 1) as f64 * r;
            let mut pmf = (1.0 - s).powi(m as i32);
            let mut u: f64 = rng.gen();
            let mut x = 0;
            while u > pmf && x < m {
                u -= pmf;
                x += 1;
                pmf *= a / x as f64 - r;
            }
            hits += x;
        }
        if s < p {
            n - hits
        } else {
            hits
        }
    }

    /// The law's pmf rows as they were before the band rows replaced
    /// them, verbatim: row `m` (at [`row_start`]`(m)`) holds the walk's
    /// pmf `P(0), …, P(m − 1)`, starting from `q.powi(m)` bit for bit.
    fn pmf_rows(q: f64, r: f64) -> Vec<f64> {
        let mut rows = vec![0.0; row_start(ROWS as usize)];
        let mut square = q;
        for m in 1..ROWS as usize {
            let top = 1 << m.ilog2();
            let first = if m == top {
                if m > 1 {
                    square *= square;
                }
                square
            } else {
                rows[row_start(m - top)] * square
            };
            let a = (m + 1) as f64 * r;
            let mut pmf = first;
            for (x, entry) in rows[row_start(m)..row_start(m + 1)].iter_mut().enumerate() {
                *entry = pmf;
                pmf *= a / (x + 1) as f64 - r;
            }
        }
        rows
    }

    /// The row walk as it was before the guided lookup replaced it,
    /// with the uniform `u` passed in: the oracle for
    /// [`Binomial::walk_row`].
    fn walk_pmf_row(rows: &[f64], m: usize, mut u: f64) -> u64 {
        let mut x = 0;
        for &pmf in &rows[row_start(m)..row_start(m + 1)] {
            if u > pmf {
                u -= pmf;
                x += 1;
            } else {
                break;
            }
        }
        x
    }

    /// The edges `(L_k, H_k)` of band `k` in row `m`.
    fn band(law: &Binomial, m: usize, k: usize) -> (f64, f64) {
        let high = law.bands[row_start(m) + k - 1];
        (high - 2.0 * half_band(k), high)
    }

    #[test]
    fn binomial_power_table_is_powi_bit_for_bit() {
        // Each row's head is `(1 − s)^m`, the walk's first pmf entry.
        for p in [1e-12, 0.05, 0.2, 0.375, 0.5, 0.625, 0.8, 1.0 - 1e-12] {
            let law = Binomial::new(p);
            assert_eq!(law.bands.len(), row_start(ROWS as usize), "p {p}");
            assert_eq!(law.heads.len(), ROWS as usize, "p {p}");
            for m in 1..ROWS as usize {
                assert_eq!(
                    law.heads[m].to_bits(),
                    law.q.powi(m as i32).to_bits(),
                    "p {p}, m {m}"
                );
            }
        }
    }

    #[test]
    fn guided_lookup_counts_what_the_row_walk_counted_at_every_band_edge() {
        // Every uniform on the 2⁻⁵³ grid the draws use, from 64 steps
        // below each band to 64 steps above it, and the grid's ends.
        const STEP: f64 = 1.0 / (1u64 << 53) as f64;
        const TOP: i64 = (1 << 53) - 1;
        for p in [
            1e-300,
            1e-12,
            0.05,
            0.2,
            0.375,
            0.5,
            0.625,
            0.95,
            1.0 - 1e-12,
        ] {
            let law = Binomial::new(p);
            let rows = pmf_rows(law.q, law.r);
            for m in 0..ROWS as usize {
                let row = &law.bands[row_start(m)..row_start(m + 1)];
                for (j, &start) in law.guide[m].iter().enumerate() {
                    let floor = j as f64 / GUIDE as f64;
                    let below = row.iter().filter(|&&high| high < floor).count();
                    assert_eq!(usize::from(start), below, "p {p}, m {m}, bucket {j}");
                }
                let check = |i: i64| {
                    let u = i as f64 * STEP;
                    assert_eq!(
                        law.walk_row(m as u64, u),
                        walk_pmf_row(&rows, m, u),
                        "p {p}, m {m}, u {u:e}"
                    );
                };
                check(0);
                check(TOP);
                for k in 1..=m {
                    let (low, high) = band(&law, m, k);
                    let from = ((low / STEP).floor() as i64 - 64).max(0);
                    let to = ((high / STEP).ceil() as i64 + 64).min(TOP);
                    (from..=to).for_each(check);
                }
            }
        }
    }

    #[test]
    fn a_uniform_inside_a_band_falls_back_to_the_walk() {
        const STEP_INV: f64 = (1u64 << 53) as f64;
        for p in [0.05, 0.375, 0.625] {
            let law = Binomial::new(p);
            let rows = pmf_rows(law.q, law.r);
            for (m, k) in [(1, 1), (12, 3), (48, 9), (63, 40)] {
                let (low, high) = band(&law, m, k);
                // The grid point nearest the band's middle, as a draw
                // would produce it.
                let u = ((low + high) / 2.0 * STEP_INV).round() / STEP_INV;
                assert!(low < u && u <= high, "p {p}, m {m}, k {k}");
                assert_eq!(law.guided(m, u), None, "p {p}, m {m}, k {k}");
                assert_eq!(
                    law.walk_row(m as u64, u),
                    walk_pmf_row(&rows, m, u),
                    "p {p}, m {m}, k {k}"
                );
            }
        }
    }

    #[test]
    fn binomial_law_draws_exactly_what_the_plain_sampler_drew() {
        // Every run length with a pmf row and past it, and across the
        // 1000-trial chunk boundary.
        let ns = (0u64..=130).chain([999, 1000, 1001, 1063, 2500]);
        let ps = [
            f64::NAN,
            -0.1,
            0.0,
            1e-300,
            1e-12,
            0.05,
            0.2,
            0.375,
            0.5,
            0.625,
            0.95,
            1.0 - 1e-12,
            1.0,
            1.5,
        ];
        for seed in [0u64, 1, 7, 2024, u64::MAX] {
            let mut law_rng = StdRng::seed_from_u64(seed);
            let mut oracle_rng = StdRng::seed_from_u64(seed);
            for &p in &ps {
                let law = Binomial::new(p);
                for n in ns.clone() {
                    for _ in 0..3 {
                        let got = law.draw(n, &mut law_rng);
                        let want = binomial_draw(n, p, &mut oracle_rng);
                        assert_eq!(got, want, "Binomial({n}, {p}) at seed {seed}");
                        assert_eq!(law_rng, oracle_rng, "Binomial({n}, {p}) at seed {seed}");
                    }
                }
            }
        }
    }

    /// The Poisson sampler as it was before its threshold moved to the
    /// caller, verbatim: the oracle for [`poisson_draw`].
    fn poisson_draw_per_call_exp(mean: f64, rng: &mut StdRng) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean > 30.0 {
            // Normal approximation N(mean, mean), rounded and clamped.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            return (mean + z * mean.sqrt()).round().max(0.0) as u64;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    #[test]
    fn threshold_draw_draws_exactly_what_the_per_call_sampler_drew() {
        let means = [0.0, 1e-300, 0.5, 5.0, 29.999, 30.0, 30.5, 1e3];
        for seed in [0u64, 1, 7, 2024, u64::MAX] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle_rng = StdRng::seed_from_u64(seed);
            for &mean in &means {
                let threshold = poisson_threshold(mean);
                for max in [0u64, 1, 5, 1000] {
                    for _ in 0..3 {
                        let got = poisson_draw(mean, threshold, max, &mut rng);
                        let want = poisson_draw_per_call_exp(mean, &mut oracle_rng).min(max);
                        assert_eq!(got, want, "Poisson({mean}) max {max} at seed {seed}");
                        assert_eq!(rng, oracle_rng, "Poisson({mean}) at seed {seed}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn binomial_draw_never_exceeds_n(n in 0u64..20_000, p in 0.0f64..=1.0, seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            proptest::prop_assert!(Binomial::new(p).draw(n, &mut rng) <= n);
        }
    }

    #[test]
    fn mmpp_long_run_mean_matches_stationary() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut p = Mmpp::new(2.0, 20.0, 0.05, 0.2, 1000);
        let n = 100_000;
        let total: u64 = (0..n).map(|_| p.draw(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        let want = p.stationary_mean(); // pi_burst = 0.2 -> 2*0.8 + 20*0.2 = 5.6
        assert!((want - 5.6).abs() < 1e-9);
        assert!(
            (mean - want).abs() / want < 0.05,
            "mean {mean}, want {want}"
        );
    }

    #[test]
    fn mmpp_bursts_are_bursty() {
        // Variance of an MMPP must exceed a Poisson of the same mean
        // (index of dispersion > 1).
        let mut rng = StdRng::seed_from_u64(9);
        let mut p = Mmpp::new(2.0, 30.0, 0.02, 0.1, 1000);
        let xs: Vec<f64> = (0..50_000).map(|_| p.draw(&mut rng) as f64).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(var / mean > 2.0, "dispersion {}", var / mean);
    }

    #[test]
    fn mmpp_state_machine_switches() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut p = Mmpp::new(1.0, 10.0, 0.5, 0.5, 100);
        assert!(!p.in_burst());
        let mut saw_burst = false;
        for _ in 0..100 {
            p.draw(&mut rng);
            saw_burst |= p.in_burst();
        }
        assert!(saw_burst);
    }

    #[test]
    #[should_panic(expected = "switching probabilities")]
    fn mmpp_validates_probabilities() {
        Mmpp::new(1.0, 2.0, 1.5, 0.1, 10);
    }
}
