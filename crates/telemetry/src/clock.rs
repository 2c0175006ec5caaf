//! Time sources for tracing.
//!
//! A [`Clock`] reports seconds as `f64`. [`WallClock`] reads
//! `std::time::Instant` relative to its creation. Code generic over
//! `Clock` works identically under any time source — the tracer parity
//! test in `tests/proptests.rs` drives it with a stepped clock of its
//! own and with the wall clock.

use std::time::Instant;

/// A monotonic time source reporting seconds since its origin.
pub trait Clock {
    /// Current time in seconds.
    fn now(&self) -> f64;
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
    fn wall_clock_is_monotonic_from_zero() {
        let w = WallClock::new();
        let t0 = w.now();
        let t1 = w.now();
        assert!(t0 >= 0.0);
        assert!(t1 >= t0);
    }
}
