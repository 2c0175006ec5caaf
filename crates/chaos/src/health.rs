//! Point-in-time health queries — what the rest of the stack observes.
//!
//! A controller (or the graceful-degradation wrapper) never sees fault
//! *events*; it sees the composed health of a resource at a slot
//! boundary. Runs compose it from lane cursors (`crate::lanes`); the
//! scans over a compiled [`FaultSchedule`] here are the reference they
//! are tested against. Overlapping multiplicative faults compose by product,
//! latency spikes by sum, and any active blackout/outage/churn wins
//! outright.

use crate::schedule::{FaultKind, FaultSchedule, FaultTarget};
use leime_invariant as invariant;
use leime_simnet::SimTime;

/// Composed state of one device→edge link at an instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkHealth {
    /// False while a `LinkBlackout` is active: transfers are lost.
    pub up: bool,
    /// Product of active `BandwidthCollapse` factors (1 when none).
    pub bandwidth_factor: f64,
    /// Sum of active `LatencySpike` additions in seconds (0 when none).
    pub extra_latency_s: f64,
}

impl LinkHealth {
    /// A fault-free link.
    pub const NOMINAL: LinkHealth = LinkHealth {
        up: true,
        bandwidth_factor: 1.0,
        extra_latency_s: 0.0,
    };

    /// Whether the link is exactly nominal (up, unshaped, unspiked).
    pub fn is_nominal(&self) -> bool {
        self.up
            && (self.bandwidth_factor - 1.0).abs() < f64::EPSILON
            && self.extra_latency_s < f64::EPSILON
    }
}

/// Composed state of the edge server at an instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeHealth {
    /// False while an `EdgeOutage` is active: the edge serves nothing and
    /// accepts nothing.
    pub up: bool,
    /// Product of active `EdgeSlowdown` factors (1 when none).
    pub speed_factor: f64,
}

impl EdgeHealth {
    /// A fault-free edge server.
    pub const NOMINAL: EdgeHealth = EdgeHealth {
        up: true,
        speed_factor: 1.0,
    };

    /// Whether the edge is exactly nominal (up and at full speed).
    pub fn is_nominal(&self) -> bool {
        self.up && (self.speed_factor - 1.0).abs() < f64::EPSILON
    }
}

impl FaultSchedule {
    /// Composed health of device `device`'s link at `t`.
    pub fn link_health(&self, device: usize, t: SimTime) -> LinkHealth {
        let mut health = LinkHealth::NOMINAL;
        for e in self.events() {
            if !e.active_at(t) {
                continue;
            }
            let hits = match e.target {
                FaultTarget::Device(d) => d == device,
                FaultTarget::AllDevices => true,
                FaultTarget::Edge => false,
            };
            if !hits {
                continue;
            }
            match e.kind {
                FaultKind::LinkBlackout => health.up = false,
                FaultKind::BandwidthCollapse { factor } => health.bandwidth_factor *= factor,
                FaultKind::LatencySpike { add_s } => health.extra_latency_s += add_s,
                _ => {}
            }
        }
        // Factors are (0, 1] per event, so the product stays in (0, 1];
        // spikes are non-negative per event, so the sum stays ≥ 0.
        invariant::check_unit_interval(
            "chaos.link_health.bandwidth_factor",
            health.bandwidth_factor,
        );
        invariant::check_nonneg("chaos.link_health.extra_latency_s", health.extra_latency_s);
        health
    }

    /// Composed health of the edge server at `t`.
    pub fn edge_health(&self, t: SimTime) -> EdgeHealth {
        let mut health = EdgeHealth::NOMINAL;
        for e in self.events() {
            if !e.active_at(t) || e.target != FaultTarget::Edge {
                continue;
            }
            match e.kind {
                FaultKind::EdgeOutage => health.up = false,
                FaultKind::EdgeSlowdown { factor } => health.speed_factor *= factor,
                _ => {}
            }
        }
        invariant::check_unit_interval("chaos.edge_health.speed_factor", health.speed_factor);
        health
    }

    /// Whether device `device` is present (no churn fault active) at `t`:
    /// the scan that device lanes are tested against.
    #[cfg(test)]
    pub(crate) fn device_alive(&self, device: usize, t: SimTime) -> bool {
        !self.events().iter().any(|e| {
            matches!(e.kind, FaultKind::DeviceChurn)
                && matches!(e.target, FaultTarget::Device(d) if d == device)
                && e.active_at(t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultEvent;

    fn ev(kind: FaultKind, target: FaultTarget, start: f64, end: f64) -> FaultEvent {
        FaultEvent {
            kind,
            target,
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
        }
    }

    #[test]
    fn empty_schedule_is_nominal_everywhere() {
        let s = FaultSchedule::empty();
        let h = s.link_health(0, SimTime::from_secs(123.0));
        assert!(h.is_nominal());
        assert!(s.edge_health(SimTime::ZERO).is_nominal());
        assert!(s.device_alive(7, SimTime::from_secs(1e6)));
    }

    #[test]
    fn overlapping_collapses_multiply_and_spikes_add() {
        let s = FaultSchedule::new(vec![
            ev(
                FaultKind::BandwidthCollapse { factor: 0.5 },
                FaultTarget::Device(0),
                0.0,
                10.0,
            ),
            ev(
                FaultKind::BandwidthCollapse { factor: 0.4 },
                FaultTarget::AllDevices,
                5.0,
                15.0,
            ),
            ev(
                FaultKind::LatencySpike { add_s: 0.1 },
                FaultTarget::Device(0),
                0.0,
                10.0,
            ),
            ev(
                FaultKind::LatencySpike { add_s: 0.05 },
                FaultTarget::Device(0),
                0.0,
                10.0,
            ),
        ])
        .unwrap();
        let h = s.link_health(0, SimTime::from_secs(7.0));
        assert!(h.up);
        assert!((h.bandwidth_factor - 0.2).abs() < 1e-12);
        assert!((h.extra_latency_s - 0.15).abs() < 1e-12);
        // Device 1 only sees the broadcast collapse.
        let h1 = s.link_health(1, SimTime::from_secs(7.0));
        assert!((h1.bandwidth_factor - 0.4).abs() < 1e-12);
        assert_eq!(h1.extra_latency_s.to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn blackout_dominates_link_state() {
        let s = FaultSchedule::new(vec![ev(
            FaultKind::LinkBlackout,
            FaultTarget::Device(2),
            1.0,
            2.0,
        )])
        .unwrap();
        assert!(!s.link_health(2, SimTime::from_secs(1.5)).up);
        assert!(s.link_health(2, SimTime::from_secs(2.5)).up);
        assert!(s.link_health(0, SimTime::from_secs(1.5)).up);
    }

    #[test]
    fn edge_faults_do_not_leak_into_links() {
        let s = FaultSchedule::new(vec![
            ev(FaultKind::EdgeOutage, FaultTarget::Edge, 0.0, 5.0),
            ev(
                FaultKind::EdgeSlowdown { factor: 0.25 },
                FaultTarget::Edge,
                5.0,
                10.0,
            ),
        ])
        .unwrap();
        assert!(s.link_health(0, SimTime::from_secs(1.0)).is_nominal());
        assert!(!s.edge_health(SimTime::from_secs(1.0)).up);
        let slow = s.edge_health(SimTime::from_secs(6.0));
        assert!(slow.up);
        assert!((slow.speed_factor - 0.25).abs() < 1e-12);
    }

    #[test]
    fn collapse_slows_then_restores_nominal_rate() {
        let s = FaultSchedule::new(vec![ev(
            FaultKind::BandwidthCollapse { factor: 0.25 },
            FaultTarget::AllDevices,
            0.0,
            10.0,
        )])
        .unwrap();
        let h = s.link_health(3, SimTime::ZERO);
        assert!(h.up);
        assert_eq!(h.bandwidth_factor.to_bits(), 0.25_f64.to_bits());
        assert_eq!(h.extra_latency_s.to_bits(), 0.0_f64.to_bits());
        assert!(s.link_health(3, SimTime::from_secs(20.0)).is_nominal());
    }

    #[test]
    fn spike_adds_latency_without_reshaping_bandwidth() {
        let s = FaultSchedule::new(vec![ev(
            FaultKind::LatencySpike { add_s: 0.5 },
            FaultTarget::Device(1),
            0.0,
            10.0,
        )])
        .unwrap();
        let h = s.link_health(1, SimTime::ZERO);
        assert!(h.up);
        assert_eq!(h.bandwidth_factor.to_bits(), 1.0_f64.to_bits());
        assert_eq!(h.extra_latency_s.to_bits(), 0.5_f64.to_bits());
        assert!(s.link_health(0, SimTime::ZERO).is_nominal());
    }

    #[test]
    fn outage_rejects_then_brownout_slows_jobs() {
        let s = FaultSchedule::new(vec![
            ev(FaultKind::EdgeOutage, FaultTarget::Edge, 0.0, 2.0),
            ev(
                FaultKind::EdgeSlowdown { factor: 0.5 },
                FaultTarget::Edge,
                2.0,
                10.0,
            ),
        ])
        .unwrap();
        assert!(!s.edge_health(SimTime::from_secs(1.0)).up);
        let brownout = s.edge_health(SimTime::from_secs(2.0));
        assert!(brownout.up);
        assert_eq!(brownout.speed_factor.to_bits(), 0.5_f64.to_bits());
        // Past the brownout the nominal rate returns.
        assert!(s.edge_health(SimTime::from_secs(20.0)).is_nominal());
    }

    #[test]
    fn churn_removes_one_device_only() {
        let s = FaultSchedule::new(vec![ev(
            FaultKind::DeviceChurn,
            FaultTarget::Device(1),
            10.0,
            20.0,
        )])
        .unwrap();
        assert!(s.device_alive(1, SimTime::from_secs(9.0)));
        assert!(!s.device_alive(1, SimTime::from_secs(15.0)));
        assert!(s.device_alive(0, SimTime::from_secs(15.0)));
    }
}
