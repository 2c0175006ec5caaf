//! An exact, order-free sum of finite `f64` terms ([`ExactSum`]): what a
//! histogram's `sum` folds.
//!
//! Every finite `f64` is an integer multiple of `2^-1074`, so an exact
//! sum is an integer in those units, and integer addition associates:
//! any recording or merge order gives the same total, and adding one
//! value `n` times is one multiply-add. The common terms — magnitudes
//! in `[2^-12, 2^52)`, whose bits all sit at or above `2^-64`, counted
//! fewer than `2^11` times — add into an `i128` fixed point at `2^-64`.
//! Any other term, or one that would overflow it, adds into a wide
//! two's-complement integer at `2^-1074` that holds every sum of up to
//! `2^64` finite samples. Reading the sum rounds the total to the
//! nearest `f64` (ties to even) once.

/// `u64` limbs of the wide part: from `2^-1074` up past `f64::MAX · 2^64`
/// (2,162 bits), plus headroom for carries and the sign.
const LIMBS: usize = 35;

/// Exponent of the wide part's least bit: the least subnormal.
const WIDE_LSB: i32 = -1074;

/// Exponent of the fixed part's least bit.
const FIXED_LSB: i32 = -64;

/// `2^-64`, the fixed part's unit.
const FIXED_UNIT: f64 = 1.0 / 18_446_744_073_709_551_616.0;

/// The exact sum of finite `f64` terms.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactSum {
    /// The terms that fit, in units of `2^-64`.
    fixed: i128,
    /// Every other term, in units of `2^-1074`, least limb first; `None`
    /// until such a term arrives.
    wide: Option<Box<[u64; LIMBS]>>,
}

impl ExactSum {
    /// The sum holding exactly `v` (finite).
    pub(crate) fn of(v: f64) -> Self {
        let mut sum = ExactSum::default();
        sum.add(v, 1);
        sum
    }

    /// Adds `v · n` exactly; `v` must be finite.
    #[inline]
    pub(crate) fn add(&mut self, v: f64, n: u64) {
        let bits = v.to_bits();
        let negative = bits >> 63 == 1;
        let field = (bits >> 52) & 0x7ff;
        let frac = bits & ((1 << 52) - 1);
        // The fast path: a normal `v` in [2^-12, 2^52), whose least bit
        // `2^(field − 1075)` is `2^shift` fixed units, and `n < 2^11`, so
        // `mant · n < 2^64` and the term stays below 2^127.
        let shift = field.wrapping_sub(1075 - 64);
        if shift < 64 && n < 1 << 11 {
            let term = (u128::from((frac | 1 << 52) * n) << shift) as i128;
            let sum = if negative {
                self.fixed.checked_sub(term)
            } else {
                self.fixed.checked_add(term)
            };
            if let Some(sum) = sum {
                self.fixed = sum;
                return;
            }
        }
        let (mant, exp) = if field == 0 {
            (frac, WIDE_LSB)
        } else {
            (frac | 1 << 52, field as i32 - 1075)
        };
        let mag = u128::from(mant) * u128::from(n);
        if mag > 0 {
            self.spill(negative, mag, exp);
        }
    }

    /// Adds `±mag · 2^exp` (`exp ≥ WIDE_LSB`) to the wide part.
    #[cold]
    fn spill(&mut self, negative: bool, mag: u128, exp: i32) {
        let wide = self.wide.get_or_insert_with(|| Box::new([0; LIMBS]));
        add_wide(wide, negative, mag, (exp - WIDE_LSB) as u32);
    }

    /// Adds another exact sum.
    pub(crate) fn merge(&mut self, other: &ExactSum) {
        match self.fixed.checked_add(other.fixed) {
            Some(sum) => self.fixed = sum,
            None => self.spill(other.fixed < 0, other.fixed.unsigned_abs(), FIXED_LSB),
        }
        if let Some(theirs) = &other.wide {
            let wide = self.wide.get_or_insert_with(|| Box::new([0; LIMBS]));
            let mut carry = false;
            for (limb, &t) in wide.iter_mut().zip(theirs.iter()) {
                let (s, c1) = limb.overflowing_add(t);
                let (s, c2) = s.overflowing_add(u64::from(carry));
                *limb = s;
                carry = c1 || c2;
            }
        }
    }

    /// The sum rounded to the nearest `f64`, ties to even; `±∞` only when
    /// the exact sum rounds past `f64::MAX`.
    pub(crate) fn value(&self) -> f64 {
        let Some(wide) = &self.wide else {
            // Exact scaling: the magnitude is 0 or at least 2^-64.
            return self.fixed as f64 * FIXED_UNIT;
        };
        let mut total = **wide;
        let fixed = self.fixed;
        add_wide(
            &mut total,
            fixed < 0,
            fixed.unsigned_abs(),
            (FIXED_LSB - WIDE_LSB) as u32,
        );
        round(&total)
    }
}

/// Equal when the rounded sums are: what serialization writes.
impl PartialEq for ExactSum {
    fn eq(&self, other: &Self) -> bool {
        self.value().to_bits() == other.value().to_bits()
    }
}

/// Adds `±mag · 2^pos` (in units of the least limb bit) to `limbs`,
/// modulo `2^(64·LIMBS)`.
fn add_wide(limbs: &mut [u64; LIMBS], negative: bool, mag: u128, pos: u32) {
    let (k, sh) = ((pos / 64) as usize, pos % 64);
    let (lo, hi) = (mag as u64, (mag >> 64) as u64);
    let parts = if sh == 0 {
        [lo, hi, 0]
    } else {
        [lo << sh, hi << sh | lo >> (64 - sh), hi >> (64 - sh)]
    };
    let mut carry = false;
    for (i, limb) in limbs.iter_mut().enumerate().skip(k) {
        let part = parts.get(i - k).copied().unwrap_or(0);
        let (s, c1, c2);
        if negative {
            (s, c1) = limb.overflowing_sub(part);
            (*limb, c2) = s.overflowing_sub(u64::from(carry));
        } else {
            (s, c1) = limb.overflowing_add(part);
            (*limb, c2) = s.overflowing_add(u64::from(carry));
        }
        carry = c1 || c2;
        if !carry && i >= k + 2 {
            break;
        }
    }
}

/// Rounds a two's-complement integer in units of `2^-1074` to the
/// nearest `f64`, ties to even.
fn round(limbs: &[u64; LIMBS]) -> f64 {
    let negative = limbs[LIMBS - 1] >> 63 == 1;
    let mut mag = *limbs;
    if negative {
        let mut carry = true;
        for limb in &mut mag {
            (*limb, carry) = (!*limb).overflowing_add(u64::from(carry));
        }
    }
    let Some(top) = mag.iter().rposition(|&l| l != 0) else {
        return 0.0;
    };
    let high = top as u32 * 64 + 63 - mag[top].leading_zeros();
    let magnitude = if high < 53 {
        // Below 2^53 units the integer is its own bit pattern (subnormal,
        // or the least normal binade).
        f64::from_bits(mag[0])
    } else {
        let lo = high - 52;
        let mut mant = window(&mag, lo) & ((1 << 53) - 1);
        let mut high = high;
        let half = window(&mag, lo - 1) & 1 == 1;
        if half && (mant & 1 == 1 || below(&mag, lo - 1)) {
            mant += 1;
            if mant == 1 << 53 {
                mant >>= 1;
                high += 1;
            }
        }
        // The leading bit is worth 2^(high − 1074): biased exponent
        // high − 1074 + 1023.
        let biased = u64::from(high - 51);
        if biased >= 0x7ff {
            f64::INFINITY
        } else {
            f64::from_bits(biased << 52 | (mant & ((1 << 52) - 1)))
        }
    };
    if negative {
        -magnitude
    } else {
        magnitude
    }
}

/// The 64 bits of `mag` from bit `lo` up.
fn window(mag: &[u64; LIMBS], lo: u32) -> u64 {
    let (k, sh) = ((lo / 64) as usize, lo % 64);
    let next = mag.get(k + 1).copied().unwrap_or(0);
    if sh == 0 {
        mag[k]
    } else {
        mag[k] >> sh | next << (64 - sh)
    }
}

/// Whether any bit of `mag` below bit `i` is set.
fn below(mag: &[u64; LIMBS], i: u32) -> bool {
    let (k, sh) = ((i / 64) as usize, i % 64);
    mag[..k].iter().any(|&l| l != 0) || mag[k] & ((1 << sh) - 1) != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_values_round_trip() {
        // Fixed-part values, wide-part values (tiny, huge, subnormal) and
        // the edges of both.
        for v in [
            0.0,
            1.0,
            -1.0,
            0.1,
            3.0e18,
            9.3e18,
            2f64.powi(-12),
            1e-4,
            1e-300,
            -2.5e-320,
            5e-324,
            f64::MIN_POSITIVE,
            1e300,
            f64::MAX,
            -f64::MAX,
        ] {
            assert_eq!(ExactSum::of(v).value().to_bits(), v.to_bits(), "{v}");
        }
        assert_eq!(ExactSum::of(-0.0).value().to_bits(), 0f64.to_bits());
    }

    #[test]
    fn sums_round_once() {
        // 1 + 2·2^-53: naive addition loses both halves; the exact sum
        // rounds 1 + 2^-52 once.
        let tiny = 2f64.powi(-53);
        let mut s = ExactSum::of(1.0);
        s.add(tiny, 2);
        assert_eq!(s.value().to_bits(), (1.0 + 2f64.powi(-52)).to_bits());
        // A lone half ulp ties to even; anything below it breaks the tie.
        let mut t = ExactSum::of(1.0);
        t.add(tiny, 1);
        assert_eq!(t.value().to_bits(), 1f64.to_bits());
        t.add(5e-324, 1);
        assert_eq!(t.value().to_bits(), (1.0 + 2f64.powi(-52)).to_bits());
        // Cancellation across the two parts is exact.
        let mut c = ExactSum::of(1e300);
        c.add(0.1, 3);
        c.add(-1e300, 1);
        assert_eq!(c.value().to_bits(), (0.1f64 * 3.0).to_bits());
        let mut z = ExactSum::of(1e-20);
        z.add(-1e-20, 1);
        assert_eq!(z.value().to_bits(), 0f64.to_bits());
    }

    #[test]
    fn fixed_overflow_spills_exactly() {
        // Each term fits the fixed part (3e15 < 2^52, n < 2^11); their sum
        // passes 2^63 and spills.
        let mut s = ExactSum::default();
        s.add(3e15, 2000);
        assert!(s.wide.is_none());
        s.add(3e15, 2000);
        s.add(3e15, 2000);
        assert!(s.wide.is_some());
        assert_eq!(s.value().to_bits(), 1.8e19f64.to_bits());
        let mut m = ExactSum::of(-3e15);
        m.add(-3e15, 5999);
        s.merge(&m);
        assert_eq!(s.value().to_bits(), 0f64.to_bits());
        // Large counts and large values take the wide part directly.
        let mut w = ExactSum::default();
        w.add(0.5, 1 << 40);
        w.add(4e18, 3);
        assert_eq!(w.value().to_bits(), (2f64.powi(39) + 1.2e19).to_bits());
    }
}
