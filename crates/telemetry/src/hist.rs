//! Log-bucketed histograms: a plain accumulator ([`Buckets`]) and its
//! lock-free atomic counterpart ([`Histogram`]).
//!
//! Values are bucketed by magnitude on a logarithmic grid with
//! [`BUCKETS_PER_OCTAVE`] buckets per power of two (growth factor
//! `2^(1/32) ≈ 1.022`), mirrored for negative values, with a dedicated
//! bucket for zero and sub-resolution magnitudes. Consequences:
//!
//! * a quantile estimate lies in the same bucket as the true sample
//!   quantile, so its relative error is bounded by one bucket width;
//! * merging two histograms is exact — bucket counts simply add, so
//!   `merge(a, b)` answers every quantile query identically to a
//!   histogram that recorded the union of their samples (the property
//!   test in `tests/proptests.rs` checks this);
//! * recording is O(1) and, in [`Histogram`], entirely atomic.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{DeError, Deserialize, Map, Serialize, Value};

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

/// Bucket index for a finite value.
///
/// # Panics
///
/// Panics if `v` is not finite (callers filter first).
pub fn bucket_index(v: f64) -> usize {
    assert!(v.is_finite(), "cannot bucket non-finite value {v}");
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

/// A plain (single-threaded) log-bucketed histogram: the math core
/// shared by [`Histogram`] snapshots and `leime-simnet`'s `Percentiles`.
#[derive(Debug, Clone, PartialEq)]
pub struct Buckets {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Buckets {
    fn default() -> Self {
        Buckets {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Buckets {
    /// An empty histogram.
    pub fn new() -> Self {
        Buckets::default()
    }

    /// Adds one sample. Non-finite values are ignored.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds the same sample `n` times — bit-identical to `n` successive
    /// [`Buckets::record`] calls (the sum is accumulated by repeated
    /// addition, not `n · v`, because float addition does not distribute)
    /// while paying the bucket search once.
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 || !v.is_finite() {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        for _ in 0..n {
            self.sum += v;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The count in one bucket (for boundary tests and export).
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.counts[index]
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
        for (i, &c) in self.counts.iter().enumerate() {
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

    /// Merges `other` into `self`. Bucket counts add, so the merged
    /// histogram is indistinguishable from one that recorded both sample
    /// streams.
    pub fn merge(&mut self, other: &Buckets) {
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// Hand-written serde impls: the dense bucket array is stored sparsely as
// [index, count] pairs so snapshots stay small.
impl Serialize for Buckets {
    fn to_value(&self) -> Value {
        let sparse: Vec<(u64, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64, c))
            .collect();
        let mut m = Map::new();
        m.insert(
            "buckets_per_octave".to_string(),
            (BUCKETS_PER_OCTAVE as u64).to_value(),
        );
        m.insert("min_magnitude".to_string(), MIN_MAG.to_value());
        m.insert("counts".to_string(), sparse.to_value());
        m.insert("count".to_string(), self.count.to_value());
        m.insert("sum".to_string(), self.sum.to_value());
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
        let mut out = Buckets::new();
        for (i, c) in sparse {
            let i = usize::try_from(i)
                .ok()
                .filter(|&i| i < NUM_BUCKETS)
                .ok_or_else(|| DeError::custom(format!("bucket index {i} out of range")))?;
            out.counts[i] = c;
        }
        out.count = u64::from_value(field("count")?)?;
        out.sum = f64::from_value(field("sum")?)?;
        out.min = Option::<f64>::from_value(field("min")?)?.unwrap_or(f64::INFINITY);
        out.max = Option::<f64>::from_value(field("max")?)?.unwrap_or(f64::NEG_INFINITY);
        Ok(out)
    }
}

/// A lock-free log-bucketed histogram: every mutation is a relaxed
/// atomic operation, so any number of threads can record concurrently
/// while others snapshot.
#[derive(Debug)]
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Bits of the running f64 sum, updated by CAS.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

/// CAS-updates an atomic holding f64 bits with `f(current, operand)`.
fn update_f64(cell: &AtomicU64, operand: f64, f: impl Fn(f64, f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current), operand).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample — atomics only, safe to call from any thread.
    /// Non-finite values are ignored.
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        update_f64(&self.sum_bits, v, |a, b| a + b);
        update_f64(&self.min_bits, v, f64::min);
        update_f64(&self.max_bits, v, f64::max);
    }

    /// Records the same sample `n` times with one bucket search and one
    /// CAS loop per metric — bit-identical to `n` successive
    /// [`Histogram::record`] calls from a single thread (the sum is
    /// accumulated by repeated addition inside the CAS closure, since
    /// float addition does not distribute over `n · v`).
    pub fn record_n(&self, v: f64, n: u64) {
        if n == 0 || !v.is_finite() {
            return;
        }
        self.counts[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        update_f64(&self.sum_bits, v, |acc, x| {
            let mut acc = acc;
            for _ in 0..n {
                acc += x;
            }
            acc
        });
        update_f64(&self.min_bits, v, f64::min);
        update_f64(&self.max_bits, v, f64::max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Merges a plain histogram into this one, as [`Buckets::merge`]
    /// does: counts, min and max are exact, and the sum adds `other`'s
    /// sum in one step. Merged into an empty histogram, the result is
    /// bit-identical to recording `other`'s samples here.
    pub fn merge(&self, other: &Buckets) {
        for (dst, &v) in self.counts.iter().zip(&other.counts) {
            if v > 0 {
                dst.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count, Ordering::Relaxed);
        update_f64(&self.sum_bits, other.sum, |a, b| a + b);
        update_f64(&self.min_bits, other.min, f64::min);
        update_f64(&self.max_bits, other.max, f64::max);
    }

    /// A plain copy of the current state, for quantile queries and
    /// serialization. Concurrent recording keeps the snapshot internally
    /// consistent per metric but counts may trail by in-flight updates.
    pub fn snapshot(&self) -> Buckets {
        let mut out = Buckets::new();
        for (dst, src) in out.counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        out.count = self.count.load(Ordering::Relaxed);
        out.sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        out.min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        out.max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        out
    }

    /// The `q`-quantile of the current contents (see [`Buckets::quantile`]).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }

    /// The 99.9th percentile of the current contents (see
    /// [`Buckets::p999`]).
    pub fn p999(&self) -> Option<f64> {
        self.snapshot().p999()
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
        // The atomic histogram surfaces the same accessor.
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.p999(), Some(est));
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
    fn atomic_histogram_matches_plain() {
        let h = Histogram::new();
        let mut b = Buckets::new();
        for i in 0..500 {
            let v = (i as f64 * 0.37).sin().abs() + 0.01;
            h.record(v);
            b.record(v);
        }
        assert_eq!(h.snapshot(), b);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000 {
                        h.record(0.001 * (1 + t) as f64 * (1.0 + (i % 10) as f64));
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        let snap = h.snapshot();
        let total: u64 = (0..NUM_BUCKETS).map(|i| snap.bucket_count(i)).sum();
        assert_eq!(total, 40_000);
    }

    #[test]
    fn merge_adds_counts() {
        let a = Histogram::new();
        let mut b = Buckets::new();
        for i in 1..=100 {
            a.record(i as f64);
            b.record(i as f64 * 10.0);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        let snap = a.snapshot();
        assert_eq!(snap.min(), Some(1.0));
        assert_eq!(snap.max(), Some(1000.0));
        // Into an empty histogram, a merge equals recording the samples.
        let fresh = Histogram::new();
        fresh.merge(&b);
        let direct = Histogram::new();
        for i in 1..=100 {
            direct.record(i as f64 * 10.0);
        }
        assert_eq!(fresh.snapshot(), direct.snapshot());
        assert_eq!(fresh.snapshot().sum().to_bits(), b.sum().to_bits());
    }

    #[test]
    fn record_n_is_bit_identical_to_repeated_record() {
        // The sums must match to the bit, not just approximately: the
        // slotted runner records per-task TCTs via record_n on the
        // parallel path and repeated record would be the sequential
        // equivalent, and DESIGN.md §11 compares serialized snapshots.
        let mut plain_n = Buckets::new();
        let mut plain_rep = Buckets::new();
        let atomic_n = Histogram::new();
        let atomic_rep = Histogram::new();
        for (i, n) in [(3u64, 1u64), (7, 4), (11, 17), (2, 0)] {
            let v = 0.1 + 0.37 * i as f64;
            plain_n.record_n(v, n);
            atomic_n.record_n(v, n);
            for _ in 0..n {
                plain_rep.record(v);
                atomic_rep.record(v);
            }
        }
        assert_eq!(plain_n, plain_rep);
        assert_eq!(plain_n.sum().to_bits(), plain_rep.sum().to_bits());
        assert_eq!(atomic_n.snapshot(), atomic_rep.snapshot());
        // Non-finite and zero-count records are ignored.
        plain_n.record_n(f64::NAN, 5);
        atomic_n.record_n(f64::INFINITY, 5);
        assert_eq!(plain_n.count(), plain_rep.count());
        assert_eq!(atomic_n.count(), atomic_rep.count());
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
}
