//! Time sources for tracing and series recording.
//!
//! A [`Clock`] reports seconds as `f64`. [`VirtualClock`] is advanced
//! explicitly by a simulator (clones share state, so a driver can hold
//! one handle and a tracer another); [`WallClock`] reads
//! `std::time::Instant` relative to its creation. Code generic over
//! `Clock` works identically in simulation and live runs — the tracer
//! parity test in `tests/proptests.rs` relies on exactly that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic time source reporting seconds since its origin.
pub trait Clock {
    /// Current time in seconds.
    fn now(&self) -> f64;
}

/// Simulated time, advanced explicitly by the owning simulator.
///
/// Clones share the underlying cell: the simulator holds one handle and
/// calls [`VirtualClock::advance_to`], while tracers and series
/// recorders read through their own clones.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    bits: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Moves simulated time to `t` seconds. Time never goes backwards:
    /// an earlier `t` leaves the clock unchanged, so out-of-order
    /// updates cannot rewind it.
    pub fn advance_to(&self, t: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            if t <= f64::from_bits(current) {
                return;
            }
            match self.bits.compare_exchange_weak(
                current,
                t.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Wall-clock time in seconds since this clock was created.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl Default for WallClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "the telemetry crate owns the wall clock; wall time feeds profiles only, never the deterministic report bytes"
    )]
    fn default() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        WallClock::default()
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_and_shares_state() {
        let a = VirtualClock::new();
        let b = a.clone();
        assert_eq!(a.now().to_bits(), 0.0_f64.to_bits());
        a.advance_to(1.5);
        assert_eq!(b.now().to_bits(), 1.5_f64.to_bits());
        // Never rewinds.
        b.advance_to(1.0);
        assert_eq!(a.now().to_bits(), 1.5_f64.to_bits());
        b.advance_to(2.0);
        assert_eq!(a.now().to_bits(), 2.0_f64.to_bits());
    }

    #[test]
    fn wall_clock_is_monotonic_from_zero() {
        let w = WallClock::new();
        let t0 = w.now();
        let t1 = w.now();
        assert!(t0 >= 0.0);
        assert!(t1 >= t0);
    }
}
