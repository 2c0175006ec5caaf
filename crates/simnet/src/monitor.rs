//! Telemetry bridge for the simulation substrate.
//!
//! [`Link`] and [`FifoServer`] are plain serializable values, so they
//! cannot own metric handles themselves. A [`SimMonitor`] sits beside
//! them in the driving simulator: the driver reports transfers,
//! submissions and per-slot queue state here, and the monitor forwards
//! them to `leime-telemetry` metrics under a common name prefix while
//! keeping a [`VirtualClock`] in step with simulated time.
//!
//! [`Link`]: crate::Link
//! [`FifoServer`]: crate::FifoServer

use std::sync::Arc;

use leime_telemetry::{Histogram, Registry, Series, VirtualClock};

use crate::SimTime;

/// Records simulation-side telemetry (transfer latencies, queue depths,
/// server utilisation) into a [`Registry`] under a fixed prefix.
#[derive(Debug, Clone)]
pub struct SimMonitor {
    clock: VirtualClock,
    transfer_latency: Arc<Histogram>,
    queue_depth: Arc<Series>,
    utilisation: Arc<Series>,
}

impl SimMonitor {
    /// Creates a monitor recording into `registry` as
    /// `{prefix}.transfer_latency_s` (histogram), `{prefix}.queue_depth`
    /// and `{prefix}.utilisation` (series). The returned monitor shares
    /// its [`VirtualClock`] with the caller via [`SimMonitor::clock`].
    pub fn attach(registry: &Registry, prefix: &str) -> Self {
        SimMonitor {
            clock: VirtualClock::new(),
            transfer_latency: registry.histogram(&format!("{prefix}.transfer_latency_s")),
            queue_depth: registry.series(&format!("{prefix}.queue_depth")),
            utilisation: registry.series(&format!("{prefix}.utilisation")),
        }
    }

    /// The virtual clock this monitor stamps series with. The driving
    /// simulator should `advance_to` it as events are processed (the
    /// observe methods below also advance it).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Records a completed link transfer that started at `start` and
    /// arrives at `arrival` (as returned by [`Link::transfer`]), i.e. its
    /// full queueing + serialization + propagation latency.
    ///
    /// [`Link::transfer`]: crate::Link::transfer
    pub fn observe_transfer(&self, start: SimTime, arrival: SimTime) {
        self.clock.advance_to(start.as_secs());
        self.transfer_latency.record((arrival - start).as_secs());
    }

    /// Samples a queue depth at time `now` (typically once per slot).
    pub fn sample_queue_depth(&self, now: SimTime, depth: f64) {
        self.clock.advance_to(now.as_secs());
        self.queue_depth.push(now.as_secs(), depth);
    }

    /// Samples a server utilisation at time `now` (typically once per
    /// slot, from [`FifoServer::utilisation`]).
    ///
    /// [`FifoServer::utilisation`]: crate::FifoServer::utilisation
    pub fn sample_utilisation(&self, now: SimTime, utilisation: f64) {
        self.clock.advance_to(now.as_secs());
        self.utilisation.push(now.as_secs(), utilisation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Link;

    #[test]
    fn monitor_records_into_registry() {
        let registry = Registry::new();
        let monitor = SimMonitor::attach(&registry, "simnet.wifi");
        let mut link = Link::new(1e6, SimTime::from_secs(0.010), true);

        let start = SimTime::from_secs(1.0);
        let arrival = link.transfer(start, 125_000.0); // 1s serialization + 10ms prop
        monitor.observe_transfer(start, arrival);
        monitor.sample_queue_depth(SimTime::from_secs(2.0), 3.0);
        monitor.sample_utilisation(SimTime::from_secs(2.0), 0.75);

        let snap = registry.snapshot();
        let hist = snap
            .histogram_named("simnet.wifi.transfer_latency_s")
            .unwrap();
        assert_eq!(hist.count, 1);
        assert!((hist.max.unwrap() - 1.010).abs() < 1e-9);
        assert_eq!(
            snap.series_named("simnet.wifi.queue_depth").unwrap().points,
            vec![(2.0, 3.0)]
        );
        assert_eq!(
            snap.series_named("simnet.wifi.utilisation").unwrap().points,
            vec![(2.0, 0.75)]
        );
        // The clock followed the sampled times.
        use leime_telemetry::Clock;
        assert_eq!(monitor.clock().now().to_bits(), 2.0_f64.to_bits());
    }
}
