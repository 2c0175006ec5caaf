use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Virtual simulation time in seconds.
///
/// A thin `f64` newtype that provides a total order (NaN is rejected at
/// construction), so times sort and compare deterministically.
///
/// ```
/// use leime_simnet::SimTime;
///
/// let t = SimTime::ZERO + SimTime::from_millis(250.0);
/// assert_eq!(t.as_secs(), 0.25);
/// assert!(t < SimTime::from_secs(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or negative — virtual time is totally
    /// ordered and starts at zero by construction.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        SimTime(secs)
    }

    /// Creates a time from milliseconds.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SimTime::from_secs`].
    pub fn from_millis(ms: f64) -> Self {
        SimTime::from_secs(ms / 1e3)
    }

    /// The time in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The time in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating difference `self - other`, clamped at zero.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime((self.0 - other.0).max(0.0))
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction forbids NaN, and total_cmp stays a total order
        // even if one ever slipped through.
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics (in debug builds) if the result would be negative; use
    /// [`SimTime::saturating_sub`] when the order is not statically known.
    fn sub(self, rhs: SimTime) -> SimTime {
        let d = self.0 - rhs.0;
        debug_assert!(d >= -1e-12, "SimTime subtraction went negative: {d}");
        SimTime(d.max(0.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1.0 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(
            SimTime::from_millis(1500.0).as_secs().to_bits(),
            1.5_f64.to_bits()
        );
        assert_eq!(
            SimTime::from_secs(2.0).as_millis().to_bits(),
            2000.0_f64.to_bits()
        );
    }

    #[test]
    fn ordering_and_arith() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!((a + b).as_secs().to_bits(), 3.0_f64.to_bits());
        assert_eq!((b - a).as_secs().to_bits(), 1.0_f64.to_bits());
        assert_eq!(a.max(b), b);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_nan() {
        SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative() {
        SimTime::from_secs(-1.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_millis(12.5).to_string(), "12.500ms");
        assert_eq!(SimTime::from_secs(3.25).to_string(), "3.250s");
    }
}
