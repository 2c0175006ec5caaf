//! Log-bucketed histograms ([`Buckets`]), and a recorder that
//! coalesces runs of one value into them ([`RunBuckets`]).
//!
//! Values are bucketed by magnitude on a logarithmic grid with
//! [`BUCKETS_PER_OCTAVE`] buckets per power of two (growth factor
//! `2^(1/32) ≈ 1.022`), mirrored for negative values, with a dedicated
//! bucket for zero and sub-resolution magnitudes. Consequences:
//!
//! * a quantile estimate lies in the same bucket as the true sample
//!   quantile, so its relative error is bounded by one bucket width;
//! * merging two histograms is exact — bucket counts simply add, the
//!   sum is exact, and min and max fold through [`f64::total_cmp`],
//!   which puts `-0.0` below `0.0` — so `merge(a, b)` is byte for byte
//!   a histogram that recorded the union of their samples, in any order
//!   (the property tests in `tests/proptests.rs` check this);
//! * recording is O(1), also for `n` copies of one value.
//!
//! [`Buckets`] stores only the window of buckets it uses, from its
//! lowest to its highest non-empty one, so a run whose samples fill a
//! handful of buckets costs a handful of words rather than all
//! [`NUM_BUCKETS`]. The window grows when a sample lands outside it, at
//! most [`NUM_BUCKETS`] times per histogram.

use std::sync::OnceLock;

use serde::{DeError, Deserialize, Map, Serialize, Value};

use crate::exact::ExactSum;

/// Buckets per power of two; the growth factor is `2^(1/32)`.
pub const BUCKETS_PER_OCTAVE: usize = 32;

/// Smallest magnitude resolved by its own bucket; anything in
/// `(-MIN_MAG, MIN_MAG)` lands in the zero bucket.
pub const MIN_MAG: f64 = 1e-9;

/// Octaves covered above `MIN_MAG` (`1e-9 · 2^64 ≈ 1.8e10`); larger
/// magnitudes clamp into the outermost bucket.
const OCTAVES: usize = 64;

const MAG_BUCKETS: usize = OCTAVES * BUCKETS_PER_OCTAVE;

/// Total bucket count: negative magnitudes (descending), the zero
/// bucket, positive magnitudes (ascending).
pub const NUM_BUCKETS: usize = 2 * MAG_BUCKETS + 1;

const ZERO_BUCKET: usize = MAG_BUCKETS;

/// `32 · log2(1 / MIN_MAG)`: the magnitude index of 1.
const INDEX_OF_ONE: f64 = 956.715_291_327_560_4;

/// The magnitude bucket of `mag ≥ MIN_MAG` by definition:
/// `floor(32 · log2(mag / MIN_MAG))`, clamped to the outermost bucket.
fn log2_index(mag: f64) -> usize {
    let idx = ((mag / MIN_MAG).log2() * BUCKETS_PER_OCTAVE as f64).floor() as usize;
    idx.min(MAG_BUCKETS - 1)
}

/// `steps()[k]` is the least magnitude whose [`log2_index`] is at least
/// `k`, found by stepping floats from `MIN_MAG · 2^(k/32)` against the
/// definition itself; built once per process.
#[inline]
fn steps() -> &'static [f64; MAG_BUCKETS] {
    static STEPS: OnceLock<[f64; MAG_BUCKETS]> = OnceLock::new();
    STEPS.get_or_init(|| {
        let mut steps = [MIN_MAG; MAG_BUCKETS];
        for (k, step) in steps.iter_mut().enumerate().skip(1) {
            let mut x = MIN_MAG * 2f64.powf(k as f64 / BUCKETS_PER_OCTAVE as f64);
            while log2_index(x) >= k {
                x = x.next_down();
            }
            while log2_index(x) < k {
                x = x.next_up();
            }
            *step = x;
        }
        steps
    })
}

/// [`log2_index`] by table: the exponent and a quadratic in the mantissa
/// put `log2(mag)` within 0.008 (a quarter bucket), so the estimated
/// index is off by at most one, and one or two compares against the
/// steps settle it.
#[inline]
fn magnitude_index(mag: f64) -> usize {
    let steps = steps();
    let bits = mag.to_bits();
    let octave = (bits >> 52) as f64 - 1023.0;
    // The mantissa as 1 + f, f ∈ [0, 1); log2(1 + f) ≈ f·(1.3465 − 0.3465 f).
    let f = f64::from_bits(bits & ((1 << 52) - 1) | 1023 << 52) - 1.0;
    let log2 = octave + f * (1.3465 - 0.3465 * f);
    let k = ((log2 * BUCKETS_PER_OCTAVE as f64 + INDEX_OF_ONE) as usize).min(MAG_BUCKETS - 1);
    if mag < steps[k] {
        k.saturating_sub(1)
    } else if k + 1 < MAG_BUCKETS && mag >= steps[k + 1] {
        k + 1
    } else {
        k
    }
}

/// Bucket index for a finite value: `floor(32 · log2(|v| / MIN_MAG))`
/// on the side of `v`'s sign, clamped to the outermost bucket, and the
/// zero bucket below `MIN_MAG`. A lookup in a table of the steps of that
/// definition, so it allocates nothing and calls no `log2`.
///
/// # Panics
///
/// Panics if `v` is not finite (callers filter first).
#[inline]
pub fn bucket_index(v: f64) -> usize {
    assert!(v.is_finite(), "cannot bucket non-finite value {v}");
    let mag = v.abs();
    if mag < MIN_MAG {
        return ZERO_BUCKET;
    }
    let idx = magnitude_index(mag);
    if v > 0.0 {
        ZERO_BUCKET + 1 + idx
    } else {
        ZERO_BUCKET - 1 - idx
    }
}

/// The `[lo, hi)` magnitude boundaries of a bucket (signed; for the zero
/// bucket returns `(-MIN_MAG, MIN_MAG)`).
pub fn bucket_bounds(index: usize) -> (f64, f64) {
    assert!(index < NUM_BUCKETS, "bucket index {index} out of range");
    if index == ZERO_BUCKET {
        return (-MIN_MAG, MIN_MAG);
    }
    let (mag_idx, positive) = if index > ZERO_BUCKET {
        (index - ZERO_BUCKET - 1, true)
    } else {
        (ZERO_BUCKET - 1 - index, false)
    };
    let lo = MIN_MAG * 2f64.powf(mag_idx as f64 / BUCKETS_PER_OCTAVE as f64);
    let hi = MIN_MAG * 2f64.powf((mag_idx + 1) as f64 / BUCKETS_PER_OCTAVE as f64);
    if positive {
        (lo, hi)
    } else {
        (-hi, -lo)
    }
}

/// The representative value reported for a bucket: the geometric
/// midpoint of its boundaries (0 for the zero bucket), signed.
pub fn bucket_representative(index: usize) -> f64 {
    if index == ZERO_BUCKET {
        return 0.0;
    }
    let (lo, hi) = bucket_bounds(index);
    let sign = if lo < 0.0 { -1.0 } else { 1.0 };
    sign * (lo.abs() * hi.abs()).sqrt()
}

/// A plain log-bucketed histogram: what `leime`'s `RunReport` records
/// into and what a [`Registry`](crate::Registry) holds per name.
///
/// Only the window from the lowest to the highest non-empty bucket is
/// stored: `counts[k]` is bucket `start + k`. An empty histogram holds
/// no bucket storage at all. A sample landing outside the window grows
/// it to reach the sample's bucket; inside it, recording is one indexed
/// add. Counts only ever increase, so the window is always exactly
/// [first non-empty, last non-empty] and the derived `PartialEq`
/// compares contents. Each growth step widens the window by at least
/// one bucket, so a histogram allocates at most [`NUM_BUCKETS`] times
/// over its life, however many samples it records.
///
/// The sum is exact (see `exact.rs`), so it does not depend on the
/// order of records and merges, and [`Buckets::sum`] rounds it once.
/// `==` compares the rounded sum, as serialization writes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Buckets {
    /// Bucket index of `counts[0]` (0 while empty).
    start: usize,
    counts: Vec<u64>,
    count: u64,
    sum: ExactSum,
    min: f64,
    max: f64,
}

impl Default for Buckets {
    fn default() -> Self {
        Buckets {
            start: 0,
            counts: Vec::new(),
            count: 0,
            sum: ExactSum::default(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Buckets {
    /// An empty histogram; allocates nothing.
    pub fn new() -> Self {
        Buckets::default()
    }

    /// Grows the window to cover buckets `lo..=hi` (new buckets hold 0).
    #[inline]
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.start = lo;
        } else if lo < self.start {
            let grow = self.start - lo;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.start = lo;
        }
        let len = hi + 1 - self.start;
        if len > self.counts.len() {
            self.counts.resize(len, 0);
        }
    }

    /// Adds `n` to bucket `index`.
    #[inline]
    fn add(&mut self, index: usize, n: u64) {
        self.cover(index, index);
        self.counts[index - self.start] += n;
    }

    /// Adds one sample. Non-finite values are ignored.
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Adds the same sample `n` times in O(1): one bucket lookup, and
    /// `v · n` added to the exact sum.
    #[inline]
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 || !v.is_finite() {
            return;
        }
        self.add(bucket_index(v), n);
        self.count += n;
        self.sum.add(v, n);
        self.fold_range(v, v);
    }

    /// Folds `[lo, hi]` into the observed range through the total order
    /// `f64::total_cmp`. `f64::min` and `f64::max` leave unspecified
    /// which zero they return for `0.0` against `-0.0`; here `-0.0` is
    /// always the lesser, so no order of records and merges shows.
    #[inline]
    fn fold_range(&mut self, lo: f64, hi: f64) {
        self.min = std::cmp::min_by(self.min, lo, f64::total_cmp);
        self.max = std::cmp::max_by(self.max, hi, f64::total_cmp);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples: the exact sum, rounded to nearest once.
    pub fn sum(&self) -> f64 {
        self.sum.value()
    }

    /// Arithmetic mean (the rounded sum over the count), or `None` when
    /// empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum() / self.count as f64)
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The count in one bucket (for boundary tests); 0 outside the
    /// stored window.
    pub fn bucket_count(&self, index: usize) -> u64 {
        index
            .checked_sub(self.start)
            .and_then(|k| self.counts.get(k))
            .copied()
            .unwrap_or(0)
    }

    /// The non-empty buckets as `(index, count)` pairs, in ascending
    /// index order: the one walk that quantiles, merges, serialization
    /// and deadline fractions share.
    pub fn non_empty(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let start = self.start;
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(move |(k, &c)| (start + k, c))
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), or `None` when empty.
    ///
    /// The estimate is the representative of the bucket holding the
    /// nearest-rank sample quantile, clamped to the observed `[min, max]`
    /// — so its log-space error is at most one bucket width, and
    /// `quantile(0.0)`/`quantile(1.0)` are exact.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        // Nearest-rank: the ceil(q·n)-th smallest sample (1-indexed).
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, c) in self.non_empty() {
            cumulative += c;
            if cumulative >= target {
                return Some(bucket_representative(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The 99.9th percentile (tail-latency SLO quantile), or `None` when
    /// empty. Same log-bucket error bound as [`Buckets::quantile`].
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }

    /// Merges `other` into `self`. Bucket counts and exact sums add, so
    /// the merged histogram is indistinguishable from one that recorded
    /// both sample streams.
    pub fn merge(&mut self, other: &Buckets) {
        if !other.counts.is_empty() {
            self.cover(other.start, other.start + other.counts.len() - 1);
            for (i, c) in other.non_empty() {
                self.counts[i - self.start] += c;
            }
        }
        self.count += other.count;
        self.sum.merge(&other.sum);
        self.fold_range(other.min, other.max);
    }
}

/// A [`Buckets`] recorder that coalesces runs of one value: a
/// `record_n` at the bits of the pending run only adds to its count,
/// and any other value records the run with one [`Buckets::record_n`]
/// and starts a new one. What [`RunBuckets::merge_into`] leaves is the
/// histogram the same `record_n` calls made directly, bit for bit:
/// bucket counts add, min and max fold the same values, and the sum is
/// exact, so recording `n₁ + n₂` copies once is recording `n₁` and then
/// `n₂`. Values are compared by bits, so `0.0` and `-0.0`, or two NaN
/// payloads, never share a run.
///
/// A fold site whose cells repeat their price from one record to the
/// next (serving's (class, tier) cells under admission-bound load) pays
/// one compare per record instead of a bucket lookup and an exact add.
#[derive(Debug, Clone, Default)]
pub struct RunBuckets {
    buckets: Buckets,
    /// The pending run: its value's bits and its count.
    bits: u64,
    n: u64,
}

impl RunBuckets {
    /// Adds `n` copies of `v`: to the pending run when `v` has its
    /// bits, else the run is recorded and `(v, n)` starts the next. A
    /// zero count records nothing, so it does not break the run.
    #[inline]
    pub fn record_n(&mut self, v: f64, n: u64) {
        let bits = v.to_bits();
        if bits == self.bits {
            self.n += n;
        } else if n > 0 {
            self.start_run(bits, n);
        }
    }

    /// Records the pending run and starts one of `n` at `bits`: kept out
    /// of line, so the compare inlines alone at each record site.
    #[inline(never)]
    fn start_run(&mut self, bits: u64, n: u64) {
        self.buckets.record_n(f64::from_bits(self.bits), self.n);
        (self.bits, self.n) = (bits, n);
    }

    /// Merges everything recorded into `into`: the recorded runs, then
    /// the pending one.
    pub fn merge_into(&self, into: &mut Buckets) {
        into.merge(&self.buckets);
        into.record_n(f64::from_bits(self.bits), self.n);
    }
}

// Hand-written serde impls: the non-empty buckets are stored as
// [index, count] pairs so snapshots stay small.
impl Serialize for Buckets {
    fn to_value(&self) -> Value {
        let sparse: Vec<(u64, u64)> = self.non_empty().map(|(i, c)| (i as u64, c)).collect();
        let mut m = Map::new();
        m.insert(
            "buckets_per_octave".to_string(),
            (BUCKETS_PER_OCTAVE as u64).to_value(),
        );
        m.insert("min_magnitude".to_string(), MIN_MAG.to_value());
        m.insert("counts".to_string(), sparse.to_value());
        m.insert("count".to_string(), self.count.to_value());
        m.insert("sum".to_string(), self.sum().to_value());
        m.insert("min".to_string(), self.min().to_value());
        m.insert("max".to_string(), self.max().to_value());
        Value::Object(m)
    }
}

impl Deserialize for Buckets {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| {
            DeError::custom(format!("expected Buckets object, found {}", v.kind()))
        })?;
        let field = |name: &str| {
            obj.get(name)
                .ok_or_else(|| DeError::custom(format!("missing field `{name}` in Buckets")))
        };
        let bpo = u64::from_value(field("buckets_per_octave")?)?;
        if bpo != BUCKETS_PER_OCTAVE as u64 {
            return Err(DeError::custom(format!(
                "incompatible histogram resolution: {bpo} buckets/octave, expected {BUCKETS_PER_OCTAVE}"
            )));
        }
        let sparse: Vec<(u64, u64)> = Vec::from_value(field("counts")?)?;
        let bad = |what: String| Err(DeError::custom(format!("malformed Buckets: {what}")));
        let mut out = Buckets::new();
        let (mut total, mut prev) = (0u64, None);
        for (i, c) in sparse {
            let Some(i) = usize::try_from(i).ok().filter(|&i| i < NUM_BUCKETS) else {
                return bad(format!("bucket index {i} out of range"));
            };
            if prev.is_some_and(|p| i <= p) {
                return bad(format!("bucket index {i} not strictly ascending"));
            }
            if c == 0 {
                return bad(format!("bucket {i} has a zero count"));
            }
            let Some(t) = total.checked_add(c) else {
                return bad("bucket counts overflow u64".to_string());
            };
            out.add(i, c);
            (total, prev) = (t, Some(i));
        }
        out.count = u64::from_value(field("count")?)?;
        if out.count != total {
            return bad(format!(
                "count {} differs from the bucket total {total}",
                out.count
            ));
        }
        let sum = f64::from_value(field("sum")?)?;
        if !sum.is_finite() {
            return bad(format!("sum {sum} is not finite"));
        }
        out.sum = ExactSum::of(sum);
        let min = Option::<f64>::from_value(field("min")?)?;
        let max = Option::<f64>::from_value(field("max")?)?;
        match (min, max) {
            (None, None) if total == 0 => {}
            (Some(min), Some(max))
                if total > 0 && min.is_finite() && max.is_finite() && min <= max =>
            {
                out.min = min;
                out.max = max;
            }
            _ if total == 0 => return bad("min/max present with no samples".to_string()),
            _ => return bad(format!("min {min:?} / max {max:?} not a finite range")),
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Growth factor between adjacent bucket edges.
    fn growth() -> f64 {
        2f64.powf(1.0 / BUCKETS_PER_OCTAVE as f64)
    }

    #[test]
    fn bucket_boundaries_partition_the_line() {
        // Every bucket's hi edge is the next bucket's lo edge, and
        // representatives sit strictly inside their bucket.
        for i in 0..NUM_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo_next, _) = bucket_bounds(i + 1);
            assert!(
                (hi - lo_next).abs() <= 1e-12 * hi.abs().max(1e-300),
                "gap between buckets {i} and {}",
                i + 1
            );
        }
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            let rep = bucket_representative(i);
            assert!(rep >= lo && rep <= hi, "representative escapes bucket {i}");
        }
    }

    #[test]
    fn bucket_index_respects_bounds() {
        for &v in &[
            1e-9, 1.5e-9, 1e-6, 0.001, 0.5, 1.0, 2.0, 1e3, 1e9, -1e-9, -0.25, -1e4,
        ] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            // Half-open [lo, hi) up to float rounding at edges.
            assert!(
                v >= lo * (1.0 - 1e-12) && v < hi * (1.0 + 1e-12)
                    || (v < 0.0 && v <= hi * (1.0 - 1e-12) && v > lo * (1.0 + 1e-12)),
                "{v} not within bucket {i} = [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn tiny_and_zero_values_share_the_zero_bucket() {
        assert_eq!(bucket_index(0.0), bucket_index(1e-12));
        assert_eq!(bucket_index(0.0), bucket_index(-1e-12));
        assert_ne!(bucket_index(0.0), bucket_index(1e-9));
        assert_eq!(
            bucket_representative(bucket_index(0.0)).to_bits(),
            0.0_f64.to_bits()
        );
    }

    #[test]
    fn huge_values_clamp_to_outermost_bucket() {
        assert_eq!(bucket_index(1e300), bucket_index(1e30));
        assert_eq!(bucket_index(-1e300), bucket_index(-1e30));
    }

    #[test]
    fn quantile_error_is_within_one_bucket() {
        // Log-spaced positive samples: compare against the exact
        // nearest-rank quantile.
        let mut b = Buckets::new();
        let mut samples: Vec<f64> = (0..1000).map(|i| 1e-3 * 1.013f64.powi(i)).collect();
        for &s in &samples {
            b.record(s);
        }
        samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let exact = {
                let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
                samples[rank - 1]
            };
            let est = b.quantile(q).unwrap();
            let ratio = est / exact;
            assert!(
                ratio <= growth() + 1e-9 && ratio >= 1.0 / growth() - 1e-9,
                "quantile({q}) = {est}, exact {exact}: off by more than one bucket"
            );
        }
    }

    #[test]
    fn p999_error_is_within_one_bucket() {
        // A heavy-tailed sample set (Pareto-ish spacing) where the 99.9th
        // percentile sits deep in the tail: the log-bucket estimate must
        // land within one bucket width of the exact nearest-rank value,
        // and between the p99 and max estimates.
        let mut b = Buckets::new();
        let mut samples: Vec<f64> = (1..=10_000)
            .map(|i| 0.01 / (i as f64 / 10_000.0).powf(0.8))
            .collect();
        for &s in &samples {
            b.record(s);
        }
        samples.sort_by(|x, y| x.total_cmp(y));
        let exact = {
            let rank = ((0.999 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            samples[rank - 1]
        };
        let est = b.p999().unwrap();
        assert_eq!(b.p999(), b.quantile(0.999));
        let ratio = est / exact;
        assert!(
            ratio <= growth() + 1e-9 && ratio >= 1.0 / growth() - 1e-9,
            "p999 = {est}, exact {exact}: off by more than one bucket"
        );
        assert!(b.quantile(0.99).unwrap() <= est);
        assert!(est <= b.max().unwrap());
    }

    #[test]
    fn extreme_quantiles_are_exact() {
        let mut b = Buckets::new();
        for &v in &[0.123, 4.56, 78.9, 0.001] {
            b.record(v);
        }
        assert_eq!(b.quantile(0.0), Some(0.001));
        assert_eq!(b.quantile(1.0), Some(78.9));
        assert_eq!(b.min(), Some(0.001));
        assert_eq!(b.max(), Some(78.9));
    }

    #[test]
    fn mean_is_exact_and_nonfinite_ignored() {
        let mut b = Buckets::new();
        b.record(1.0);
        b.record(2.0);
        b.record(f64::NAN);
        b.record(f64::INFINITY);
        assert_eq!(b.count(), 2);
        assert_eq!(b.mean(), Some(1.5));
    }

    #[test]
    fn empty_histogram_answers_none() {
        let b = Buckets::new();
        assert_eq!(b.quantile(0.5), None);
        assert_eq!(b.mean(), None);
        assert_eq!(b.min(), None);
        assert!(b.is_empty());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Buckets::new();
        let mut b = Buckets::new();
        for i in 1..=100 {
            a.record(i as f64);
            b.record(i as f64 * 10.0);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(1000.0));
        // Into an empty histogram, a merge equals recording the samples.
        let mut fresh = Buckets::new();
        fresh.merge(&b);
        let mut direct = Buckets::new();
        for i in 1..=100 {
            direct.record(i as f64 * 10.0);
        }
        assert_eq!(fresh, direct);
        assert_eq!(fresh.sum().to_bits(), b.sum().to_bits());
    }

    #[test]
    fn record_n_is_bit_identical_to_repeated_record() {
        // The sums match to the bit, not just approximately: both are
        // the exact sum, rounded once. The slotted and serving replays
        // record cohorts via record_n where repeated record would be the
        // per-task equivalent, and DESIGN.md §11 compares serialized
        // snapshots.
        let mut plain_n = Buckets::new();
        let mut plain_rep = Buckets::new();
        for (i, n) in [(3u64, 1u64), (7, 4), (11, 17), (2, 0)] {
            let v = 0.1 + 0.37 * i as f64;
            plain_n.record_n(v, n);
            for _ in 0..n {
                plain_rep.record(v);
            }
        }
        assert_eq!(plain_n, plain_rep);
        assert_eq!(plain_n.sum().to_bits(), plain_rep.sum().to_bits());
        // Non-finite and zero-count records are ignored.
        plain_n.record_n(f64::NAN, 5);
        plain_n.record_n(f64::INFINITY, 5);
        assert_eq!(plain_n.count(), plain_rep.count());
    }

    #[test]
    fn empty_histograms_hold_no_bucket_storage() {
        assert_eq!(Buckets::new().counts.capacity(), 0);
        assert_eq!(Buckets::default().counts.capacity(), 0);
        let back: Buckets =
            serde_json::from_str(&serde_json::to_string(&Buckets::new()).unwrap()).unwrap();
        assert_eq!(back.counts.capacity(), 0);
    }

    #[test]
    fn front_growth_keeps_counts_and_bits() {
        // Descending samples widen the window at the front each time;
        // a reference fed the same samples in ascending order only ever
        // grows at the back. Both end with the same window and counts,
        // and the descending one's sum keeps its own addition order.
        let samples = [8.0, 8.0, 2.5, 0.75, 0.75, 1e-3, -0.5];
        let mut down = Buckets::new();
        let mut sum = 0.0;
        for &v in &samples {
            down.record(v);
            sum += v;
            assert_eq!(down.start, bucket_index(down.min().unwrap()));
            assert_eq!(down.counts.len(), bucket_index(8.0) - down.start + 1);
        }
        let mut up = Buckets::new();
        for &v in samples.iter().rev() {
            up.record(v);
        }
        assert_eq!(down.sum().to_bits(), sum.to_bits());
        assert_eq!(down.counts, up.counts);
        assert_eq!(down.start, up.start);
        assert_eq!(down.bucket_count(bucket_index(8.0)), 2);
        assert_eq!(down.bucket_count(bucket_index(0.75)), 2);
        assert_eq!(down.bucket_count(bucket_index(-0.5)), 1);
        assert_eq!(down.bucket_count(bucket_index(1.0)), 0);
        assert_eq!(down.bucket_count(NUM_BUCKETS), 0);
        // A merge that widens both ends matches recording its samples.
        let mut merged = Buckets::new();
        merged.record_n(0.75, 2);
        let mut wide = Buckets::new();
        for &v in &[8.0, 8.0, 2.5, 1e-3, -0.5] {
            wide.record(v);
        }
        merged.merge(&wide);
        assert_eq!(merged.counts, down.counts);
        assert_eq!(merged.start, down.start);
        assert_eq!(merged.count(), down.count());
    }

    #[test]
    fn malformed_json_is_rejected() {
        let doc = |counts: &str, count: u64, min: &str, max: &str| {
            format!(
                r#"{{"buckets_per_octave":32,"min_magnitude":1e-9,"counts":{counts},"count":{count},"sum":0.5,"min":{min},"max":{max}}}"#
            )
        };
        let bad = [
            // Missing extremes with samples: quantiles would clamp to
            // (inf, -inf) and panic.
            doc("[[2100,1]]", 1, "null", "null"),
            doc("[[2100,1]]", 1, "0.5", "null"),
            doc("[[2100,1]]", 1, "0.75", "0.5"),
            // A count with no buckets behind it.
            doc("[]", 3, "null", "null"),
            doc("[[2100,1]]", 2, "0.5", "0.5"),
            // Extremes with no samples.
            doc("[]", 0, "0.5", "0.5"),
            doc("[]", 0, "null", "0.5"),
            // Index order, range and zero counts.
            doc("[[2100,1],[2100,1]]", 2, "0.5", "0.5"),
            doc("[[2101,1],[2100,1]]", 2, "0.5", "0.5"),
            doc("[[4097,1]]", 1, "0.5", "0.5"),
            doc("[[2100,0]]", 0, "null", "null"),
            doc("[[2100,1],[2101,0]]", 1, "0.5", "0.5"),
        ];
        for text in &bad {
            assert!(
                serde_json::from_str::<Buckets>(text).is_err(),
                "accepted {text}"
            );
        }
        // The document of two samples at 0.01 and one at 0.5 is accepted.
        let (lo, hi) = (bucket_index(0.01), bucket_index(0.5));
        let good = doc(&format!("[[{lo},2],[{hi},1]]"), 3, "0.01", "0.5");
        let b: Buckets = serde_json::from_str(&good).unwrap();
        assert_eq!(b.non_empty().collect::<Vec<_>>(), [(lo, 2), (hi, 1)]);
        // A sum past f64::MAX parses as infinity, which no exact sum holds.
        let huge = good.replace(r#""sum":0.5"#, r#""sum":1e999"#);
        assert!(serde_json::from_str::<Buckets>(&huge).is_err());
        assert_eq!(b.counts.len(), hi - lo + 1);
        assert_eq!(b.quantile(0.5), Some(bucket_representative(lo)));
    }

    #[test]
    fn buckets_serde_round_trip() {
        let mut b = Buckets::new();
        for &v in &[0.5, 1.0, 2.0, -3.0, 0.0, 1e6] {
            b.record(v);
        }
        let text = serde_json::to_string(&b).unwrap();
        let back: Buckets = serde_json::from_str(&text).unwrap();
        assert_eq!(b, back);
        let empty_text = serde_json::to_string(&Buckets::new()).unwrap();
        let empty: Buckets = serde_json::from_str(&empty_text).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty, Buckets::new());
    }

    /// The magnitude bucket as the definition states it, with no table.
    fn by_log2(v: f64) -> usize {
        let mag = v.abs();
        if mag < MIN_MAG {
            return ZERO_BUCKET;
        }
        let idx = ((mag / MIN_MAG).log2() * BUCKETS_PER_OCTAVE as f64).floor() as usize;
        let idx = idx.min(MAG_BUCKETS - 1);
        if v > 0.0 {
            ZERO_BUCKET + 1 + idx
        } else {
            ZERO_BUCKET - 1 - idx
        }
    }

    /// The finite ones of `v` and its neighbouring floats, on both sides
    /// of zero.
    fn around(v: f64) -> impl Iterator<Item = f64> {
        [v.next_down(), v, v.next_up()]
            .into_iter()
            .filter(|x| x.is_finite())
            .flat_map(|x| [x, -x])
    }

    #[test]
    fn table_index_matches_the_log2_definition_at_every_step() {
        let steps = steps();
        assert!(steps.windows(2).all(|w| w[0] < w[1]), "steps must ascend");
        for (k, &step) in steps.iter().enumerate() {
            assert_eq!(log2_index(step), k, "step {k} = {step:e}");
            if k > 0 {
                assert_eq!(log2_index(step.next_down()), k - 1, "below step {k}");
            }
            for v in around(step) {
                assert_eq!(bucket_index(v), by_log2(v), "{v:e} next to step {k}");
            }
        }
        // The zero bucket, the clamp and the ends of the f64 range.
        for v in [
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1e-10,
            1.8e10,
            1e11,
            1e300,
            f64::MAX,
        ] {
            for v in around(v) {
                assert_eq!(bucket_index(v), by_log2(v), "{v:e}");
            }
        }
        assert_eq!(bucket_index(MIN_MAG.next_down()), ZERO_BUCKET);
        assert_eq!(bucket_index(-f64::MAX), 0);
        assert_eq!(bucket_index(f64::MAX), NUM_BUCKETS - 1);
    }

    proptest::proptest! {
        #[test]
        fn table_index_matches_the_log2_definition(
            bits in 0u64..u64::MAX,
            exp10 in -10.0f64..11.0,
            sign in -1.0f64..1.0,
        ) {
            // Any finite f64 (mostly far outside the resolved range), and
            // a log-uniform magnitude inside it.
            let any = f64::from_bits(bits);
            if any.is_finite() {
                proptest::prop_assert_eq!(bucket_index(any), by_log2(any), "{:e}", any);
            }
            let inside = sign.signum() * 10f64.powf(exp10);
            proptest::prop_assert_eq!(bucket_index(inside), by_log2(inside), "{:e}", inside);
        }

        #[test]
        fn record_and_merge_order_leave_the_same_bytes(
            steps in proptest::prop::collection::vec(
                (-330.0f64..308.0, -1.0f64..1.0, 0u64..6),
                0..60,
            ),
        ) {
            // Values over the whole finite range: subnormals, the zero
            // bucket, the resolved range and the clamp.
            let steps: Vec<(f64, u64)> = steps
                .into_iter()
                .map(|(e, sign, n)| (sign.signum() * 10f64.powf(e), n))
                .collect();
            let bytes = |b: &Buckets| serde_json::to_string(b).unwrap();
            let (mut forward, mut backward, mut one_by_one) =
                (Buckets::new(), Buckets::new(), Buckets::new());
            let mut halves = [Buckets::new(), Buckets::new()];
            for (i, &(v, n)) in steps.iter().enumerate() {
                forward.record_n(v, n);
                halves[i % 2].record_n(v, n);
                for _ in 0..n {
                    one_by_one.record(v);
                }
            }
            for &(v, n) in steps.iter().rev() {
                backward.record_n(v, n);
            }
            let want = bytes(&forward);
            proptest::prop_assert_eq!(&bytes(&backward), &want);
            proptest::prop_assert_eq!(&bytes(&one_by_one), &want);
            let [a, b] = halves;
            for (mut into, from) in [(a.clone(), &b), (b.clone(), &a)] {
                into.merge(from);
                proptest::prop_assert_eq!(&bytes(&into), &want);
                proptest::prop_assert!(into == forward);
            }
        }
    }

    #[test]
    fn zero_signs_fold_in_any_order() {
        // Recorded or merged either way round, `-0.0` is the minimum and
        // `0.0` the maximum, so the bytes never depend on the order.
        let bytes = |b: &Buckets| serde_json::to_string(b).unwrap();
        let one = |v: f64| {
            let mut b = Buckets::new();
            b.record(v);
            b
        };
        let mut recorded = [(-0.0, 0.0), (0.0, -0.0)].map(|(first, second)| {
            let mut b = one(first);
            b.record(second);
            b
        });
        let merged = [(-0.0, 0.0), (0.0, -0.0)].map(|(into, from)| {
            let mut b = one(into);
            b.merge(&one(from));
            b
        });
        let want = bytes(&recorded[0]);
        for b in recorded.iter().chain(&merged) {
            assert_eq!(bytes(b), want);
            let signs = (b.min().map(f64::to_bits), b.max().map(f64::to_bits));
            assert_eq!(signs, (Some((-0.0f64).to_bits()), Some(0.0f64.to_bits())));
        }
        // An empty histogram merges as the identity.
        recorded[1].merge(&Buckets::new());
        assert_eq!(bytes(&recorded[1]), want);
    }

    #[test]
    fn zero_signs_never_share_a_run() {
        // `-0.0` and `0.0` are distinct minima and maxima, so a run that
        // let one zero absorb the other could leave other min or max
        // bits than the direct calls.
        let bits = |b: &Buckets| (b.min().map(f64::to_bits), b.max().map(f64::to_bits));
        for calls in [
            [(-0.0, 2), (0.0, 3), (-0.0, 1)],
            [(0.0, 2), (-0.0, 3), (0.0, 1)],
        ] {
            let (mut direct, mut runs, mut merged) =
                (Buckets::new(), RunBuckets::default(), Buckets::new());
            for (v, n) in calls {
                direct.record_n(v, n);
                runs.record_n(v, n);
            }
            runs.merge_into(&mut merged);
            assert_eq!(bits(&merged), bits(&direct), "{calls:?}");
        }
    }

    /// Serializes, parses back, and checks both the value and the bytes.
    fn assert_round_trips(b: &Buckets) {
        let text = serde_json::to_string(b).unwrap();
        let back: Buckets = serde_json::from_str(&text).unwrap();
        assert_eq!(&back, b);
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    #[test]
    fn extreme_samples_never_panic_and_sum_exactly() {
        let big = 1u64 << 40;
        // Huge magnitudes: the exact sum of these cancels to 1e300.
        let mut huge = Buckets::new();
        huge.record_n(1e300, big);
        huge.record_n(-1e300, big - 1);
        assert_eq!(huge.sum().to_bits(), 1e300f64.to_bits());
        assert_eq!(huge.count(), 2 * big - 1);
        assert_round_trips(&huge);
        // Past f64::MAX the sum is infinite, and comes back when it
        // cancels.
        let mut over = Buckets::new();
        over.record_n(-1e300, big);
        assert_eq!(over.sum().to_bits(), f64::NEG_INFINITY.to_bits());
        over.record_n(1e300, big);
        over.record(f64::MAX);
        assert_eq!(over.sum().to_bits(), f64::MAX.to_bits());
        assert_round_trips(&over);
        // Subnormals sum exactly: 2^40 copies of the least one.
        let mut tiny = Buckets::new();
        tiny.record_n(5e-324, big);
        tiny.record_n(-2.5e-310, 3);
        tiny.record(0.0);
        let want = 5e-324 * big as f64 - 3.0 * 2.5e-310;
        assert_eq!(tiny.sum().to_bits(), want.to_bits());
        assert_eq!(tiny.bucket_count(ZERO_BUCKET), big + 4);
        assert_round_trips(&tiny);
        // Mixed signs and scales in one histogram, in both orders.
        let cells = [
            (7.0, big),
            (-1e-5, 3),
            (1e-300, 9),
            (-1e300, 2),
            (1e300, 2),
            (0.25, 1),
        ];
        let mut mixed = Buckets::new();
        let mut reversed = Buckets::new();
        for (&(v, n), &(w, m)) in cells.iter().zip(cells.iter().rev()) {
            mixed.record_n(v, n);
            reversed.record_n(w, m);
        }
        assert!(mixed.sum().is_finite());
        assert_eq!(
            mixed.sum().to_bits(),
            (7.0 * big as f64 + 0.25 - 3e-5).to_bits()
        );
        assert_eq!(mixed, reversed);
        assert_round_trips(&mixed);
    }
}
