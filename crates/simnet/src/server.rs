use crate::SimTime;
use serde::{Deserialize, Serialize};

/// A work-conserving FIFO compute server with a fixed service rate in
/// FLOPS.
///
/// Models a device CPU, one Docker share of the edge server (`p_i · F^e`),
/// or the cloud GPU. Jobs submitted at time `t` start at
/// `max(t, busy_until)` and occupy the server for `flops / rate` seconds —
/// exactly the paper's FIFO queueing assumption (§III-D2).
///
/// ```
/// use leime_simnet::{FifoServer, SimTime};
///
/// let mut s = FifoServer::new(1e9); // 1 GFLOPS
/// let done1 = s.submit(SimTime::ZERO, 5e8); // 0.5 s of work
/// let done2 = s.submit(SimTime::ZERO, 5e8); // queues behind it
/// assert_eq!(done1.as_secs(), 0.5);
/// assert_eq!(done2.as_secs(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FifoServer {
    rate: f64,
    busy_until: SimTime,
    jobs_served: u64,
}

impl FifoServer {
    /// Creates a server with the given service rate in FLOPS.
    ///
    /// # Panics
    ///
    /// Panics if `rate_flops` is not strictly positive and finite.
    pub fn new(rate_flops: f64) -> Self {
        assert!(
            rate_flops.is_finite() && rate_flops > 0.0,
            "server rate must be positive, got {rate_flops}"
        );
        FifoServer {
            rate: rate_flops,
            busy_until: SimTime::ZERO,
            jobs_served: 0,
        }
    }

    /// Service rate in FLOPS.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Changes the service rate (e.g. when the edge reallocates shares).
    /// In-flight work is unaffected; only future submissions see the new
    /// rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate_flops` is not strictly positive and finite.
    pub fn set_rate(&mut self, rate_flops: f64) {
        assert!(
            rate_flops.is_finite() && rate_flops > 0.0,
            "server rate must be positive, got {rate_flops}"
        );
        self.rate = rate_flops;
    }

    /// Submits `flops` of work at time `now`; returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `flops` is negative or non-finite.
    pub fn submit(&mut self, now: SimTime, flops: f64) -> SimTime {
        assert!(flops.is_finite() && flops >= 0.0, "bad work size {flops}");
        let start = self.busy_until.max(now);
        let service = flops / self.rate;
        let finish = start + SimTime::from_secs(service);
        self.busy_until = finish;
        self.jobs_served += 1;
        finish
    }

    /// Time at which the server becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Outstanding backlog (seconds of queued work) as seen at `now`.
    pub fn backlog(&self, now: SimTime) -> SimTime {
        self.busy_until.saturating_sub(now)
    }

    /// Total jobs submitted so far.
    pub fn jobs_served(&self) -> u64 {
        self.jobs_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_jobs_queue() {
        let mut s = FifoServer::new(100.0);
        assert_eq!(
            s.submit(SimTime::ZERO, 100.0).as_secs().to_bits(),
            1.0_f64.to_bits()
        );
        assert_eq!(
            s.submit(SimTime::ZERO, 100.0).as_secs().to_bits(),
            2.0_f64.to_bits()
        );
        assert_eq!(s.jobs_served(), 2);
    }

    #[test]
    fn idle_gap_is_respected() {
        let mut s = FifoServer::new(100.0);
        s.submit(SimTime::ZERO, 100.0); // done at 1.0
        let done = s.submit(SimTime::from_secs(5.0), 100.0);
        assert_eq!(done.as_secs().to_bits(), 6.0_f64.to_bits()); // starts at arrival, not at 1.0
    }

    #[test]
    fn backlog_measured_from_now() {
        let mut s = FifoServer::new(100.0);
        s.submit(SimTime::ZERO, 300.0);
        assert_eq!(
            s.backlog(SimTime::from_secs(1.0)).as_secs().to_bits(),
            2.0_f64.to_bits()
        );
        assert_eq!(s.backlog(SimTime::from_secs(10.0)), SimTime::ZERO);
    }

    #[test]
    fn zero_work_completes_instantly() {
        let mut s = FifoServer::new(100.0);
        assert_eq!(
            s.submit(SimTime::from_secs(2.0), 0.0).as_secs().to_bits(),
            2.0_f64.to_bits()
        );
    }

    #[test]
    fn rate_change_affects_future_jobs() {
        let mut s = FifoServer::new(100.0);
        s.submit(SimTime::ZERO, 100.0); // 1s at rate 100
        s.set_rate(200.0);
        let done = s.submit(SimTime::ZERO, 100.0); // 0.5s at rate 200
        assert_eq!(done.as_secs().to_bits(), 1.5_f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_zero_rate() {
        FifoServer::new(0.0);
    }
}
