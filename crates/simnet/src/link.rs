use crate::SimTime;
use serde::{Deserialize, Serialize};

/// A point-to-point network pipe with bandwidth, propagation delay and
/// optional transfer serialization.
///
/// Transfer time for `b` bytes is `b·8 / bandwidth + latency` — the same
/// first-order model the paper's cost expressions use
/// (`d / B^e_i + L^e_i`). With `serializing = true`, concurrent transfers
/// queue behind each other on the bandwidth component (a shared WiFi
/// medium); with `false`, the link is treated as uncontended.
///
/// ```
/// use leime_simnet::{Link, SimTime};
///
/// // 8 Mbps, 10 ms propagation delay.
/// let mut l = Link::new(8e6, SimTime::from_millis(10.0), true);
/// let arrive = l.transfer(SimTime::ZERO, 1_000_000.0); // 1 MB
/// assert!((arrive.as_secs() - 1.01).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    bandwidth_bps: f64,
    latency: SimTime,
    serializing: bool,
    loss_rate: f64,
    busy_until: SimTime,
    bytes_moved: f64,
}

impl Link {
    /// Creates a link with bandwidth in bits/second and a propagation
    /// delay.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not strictly positive and finite.
    pub fn new(bandwidth_bps: f64, latency: SimTime, serializing: bool) -> Self {
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "bandwidth must be positive, got {bandwidth_bps}"
        );
        Link {
            bandwidth_bps,
            latency,
            serializing,
            loss_rate: 0.0,
            busy_until: SimTime::ZERO,
            bytes_moved: 0.0,
        }
    }

    /// Sets a packet-loss rate in `[0, 1)`; lost packets are retransmitted,
    /// so each payload occupies the medium for `1/(1−loss)` of its nominal
    /// time — the fluid model of TCP-style reliability over a lossy WiFi
    /// link (what COMCAST's loss shaping induces on average).
    ///
    /// # Panics
    ///
    /// Panics if `loss_rate` is outside `[0, 1)`.
    pub fn with_loss(mut self, loss_rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss_rate),
            "loss rate {loss_rate} outside [0, 1)"
        );
        self.loss_rate = loss_rate;
        self
    }

    /// The configured packet-loss rate.
    pub fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    /// Bandwidth in bits per second.
    pub fn bandwidth_bps(&self) -> f64 {
        self.bandwidth_bps
    }

    /// Propagation delay.
    pub fn latency(&self) -> SimTime {
        self.latency
    }

    /// Updates the bandwidth (e.g. applying a trace step); future transfers
    /// use the new value.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not strictly positive and finite.
    pub fn set_bandwidth(&mut self, bandwidth_bps: f64) {
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "bandwidth must be positive, got {bandwidth_bps}"
        );
        self.bandwidth_bps = bandwidth_bps;
    }

    /// Updates the propagation delay.
    pub fn set_latency(&mut self, latency: SimTime) {
        self.latency = latency;
    }

    /// Starts a transfer of `bytes` at `now`; returns the arrival time at
    /// the far end.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or non-finite.
    pub fn transfer(&mut self, now: SimTime, bytes: f64) -> SimTime {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "bad transfer size {bytes}"
        );
        let tx = SimTime::from_secs(bytes * 8.0 / self.bandwidth_bps / (1.0 - self.loss_rate));
        let start = if self.serializing {
            self.busy_until.max(now)
        } else {
            now
        };
        let done_tx = start + tx;
        if self.serializing {
            self.busy_until = done_tx;
        }
        self.bytes_moved += bytes;
        done_tx + self.latency
    }

    /// Pure one-way time for `bytes` on an idle link (no contention),
    /// including retransmission inflation.
    pub fn ideal_time(&self, bytes: f64) -> SimTime {
        SimTime::from_secs(bytes * 8.0 / self.bandwidth_bps / (1.0 - self.loss_rate)) + self.latency
    }

    /// Total payload bytes moved so far.
    pub fn bytes_moved(&self) -> f64 {
        self.bytes_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_formula() {
        let mut l = Link::new(1e6, SimTime::from_millis(50.0), false);
        // 125000 bytes = 1e6 bits -> 1 s + 50 ms.
        let t = l.transfer(SimTime::ZERO, 125_000.0);
        assert!((t.as_secs() - 1.05).abs() < 1e-12);
    }

    #[test]
    fn serializing_link_queues_transfers() {
        let mut l = Link::new(1e6, SimTime::ZERO, true);
        let t1 = l.transfer(SimTime::ZERO, 125_000.0);
        let t2 = l.transfer(SimTime::ZERO, 125_000.0);
        assert_eq!(t1.as_secs().to_bits(), 1.0_f64.to_bits());
        assert_eq!(t2.as_secs().to_bits(), 2.0_f64.to_bits());
    }

    #[test]
    fn non_serializing_link_is_uncontended() {
        let mut l = Link::new(1e6, SimTime::ZERO, false);
        let t1 = l.transfer(SimTime::ZERO, 125_000.0);
        let t2 = l.transfer(SimTime::ZERO, 125_000.0);
        assert_eq!(t1, t2);
    }

    #[test]
    fn latency_applies_after_queueing() {
        let mut l = Link::new(1e6, SimTime::from_secs(0.5), true);
        l.transfer(SimTime::ZERO, 125_000.0); // occupies [0, 1]
        let t2 = l.transfer(SimTime::ZERO, 125_000.0); // tx [1, 2] + 0.5
        assert_eq!(t2.as_secs().to_bits(), 2.5_f64.to_bits());
    }

    #[test]
    fn bandwidth_update() {
        let mut l = Link::new(1e6, SimTime::ZERO, false);
        l.set_bandwidth(2e6);
        let t = l.transfer(SimTime::ZERO, 125_000.0);
        assert_eq!(t.as_secs().to_bits(), 0.5_f64.to_bits());
        assert_eq!(l.bytes_moved().to_bits(), 125_000.0_f64.to_bits());
    }

    #[test]
    fn ideal_time_ignores_contention() {
        let mut l = Link::new(1e6, SimTime::ZERO, true);
        l.transfer(SimTime::ZERO, 1e6); // make it busy
        assert_eq!(
            l.ideal_time(125_000.0).as_secs().to_bits(),
            1.0_f64.to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        Link::new(0.0, SimTime::ZERO, false);
    }

    #[test]
    fn loss_inflates_transfer_time() {
        let mut lossless = Link::new(1e6, SimTime::ZERO, false);
        let mut lossy = Link::new(1e6, SimTime::ZERO, false).with_loss(0.5);
        let t0 = lossless.transfer(SimTime::ZERO, 125_000.0);
        let t1 = lossy.transfer(SimTime::ZERO, 125_000.0);
        assert!((t1.as_secs() / t0.as_secs() - 2.0).abs() < 1e-9);
        assert_eq!(lossy.loss_rate().to_bits(), 0.5_f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn rejects_total_loss() {
        Link::new(1e6, SimTime::ZERO, false).with_loss(1.0);
    }
}
