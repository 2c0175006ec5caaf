//! The event-stream representation of injected faults.
//!
//! A [`FaultSchedule`] is a validated list of [`FaultEvent`]s — intervals
//! of simulated time during which one resource misbehaves in one way.
//! Schedules are plain data on the virtual clock: querying one never
//! mutates it, so the same schedule drives the slotted model, serving,
//! fleets and the bench binaries identically.

use leime_invariant as invariant;
use leime_simnet::SimTime;
use serde::{Deserialize, Serialize};

/// What a fault does while active.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The device→edge link is completely down (transfers are lost and
    /// time out; the paper's graceful-degradation trigger).
    LinkBlackout,
    /// COMCAST-style shaping: link bandwidth multiplied by `factor`
    /// (`0 < factor ≤ 1`).
    BandwidthCollapse {
        /// Multiplier applied to the nominal bandwidth.
        factor: f64,
    },
    /// Additional one-way propagation delay on the link, in seconds.
    LatencySpike {
        /// Extra latency added while the spike is active.
        add_s: f64,
    },
    /// The edge server's effective FLOPS multiplied by `factor`
    /// (`0 < factor ≤ 1`) — co-located load, thermal throttling.
    EdgeSlowdown {
        /// Multiplier applied to the nominal edge FLOPS.
        factor: f64,
    },
    /// The edge server is unreachable for every device.
    EdgeOutage,
    /// The device itself leaves the system (powered off / moved away):
    /// it generates no tasks and serves nothing while churned out.
    DeviceChurn,
}

impl FaultKind {
    /// Validates the kind's parameters.
    fn validate(&self) -> Result<(), String> {
        match *self {
            FaultKind::BandwidthCollapse { factor } | FaultKind::EdgeSlowdown { factor }
                if !(factor.is_finite() && factor > 0.0 && factor <= 1.0) =>
            {
                Err(format!("fault factor {factor} outside (0, 1]"))
            }
            FaultKind::LatencySpike { add_s } if !(add_s.is_finite() && add_s >= 0.0) => {
                Err(format!("latency spike {add_s} negative or non-finite"))
            }
            _ => Ok(()),
        }
    }

    /// Whether this kind targets the edge server (as opposed to a device
    /// link or the device itself).
    fn is_edge_kind(&self) -> bool {
        matches!(self, FaultKind::EdgeSlowdown { .. } | FaultKind::EdgeOutage)
    }
}

/// Which resource a fault event hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTarget {
    /// One device (its link, or the device itself for churn).
    Device(usize),
    /// Every device's link at once (shared-medium interference).
    AllDevices,
    /// The edge server.
    Edge,
}

/// One fault: a kind, a target, and the half-open interval
/// `[start, end)` of simulated time during which it is active.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// What happens.
    pub kind: FaultKind,
    /// What it happens to.
    pub target: FaultTarget,
    /// Activation time (inclusive).
    pub start: SimTime,
    /// Deactivation time (exclusive).
    pub end: SimTime,
}

impl FaultEvent {
    /// Whether the event is active at `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    fn validate(&self) -> Result<(), String> {
        self.kind.validate()?;
        if self.end <= self.start {
            return Err(format!(
                "fault interval [{}, {}) is empty or reversed",
                self.start, self.end
            ));
        }
        if self.kind.is_edge_kind() && self.target != FaultTarget::Edge {
            return Err("edge fault kinds must target FaultTarget::Edge".to_string());
        }
        if matches!(self.kind, FaultKind::DeviceChurn)
            && !matches!(self.target, FaultTarget::Device(_))
        {
            return Err("device churn must target a single device".to_string());
        }
        Ok(())
    }
}

/// A validated, immutable set of fault events — the full disturbance a
/// run is subjected to.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// A schedule with no faults (every query reports nominal health).
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// Builds a schedule from events, validating each.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid event.
    pub fn new(events: Vec<FaultEvent>) -> Result<Self, String> {
        for (i, e) in events.iter().enumerate() {
            e.validate().map_err(|msg| format!("event {i}: {msg}"))?;
        }
        Ok(FaultSchedule { events })
    }

    /// The events, in generation order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Routes a by-construction violation through the sanctioned panic
    /// site (used by infallible compilation paths that operate on
    /// already-validated configs).
    pub(crate) fn new_checked(events: Vec<FaultEvent>) -> Self {
        match FaultSchedule::new(events) {
            Ok(s) => s,
            Err(msg) => invariant::violation("chaos.schedule", &msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: FaultKind, target: FaultTarget, start: f64, end: f64) -> FaultEvent {
        FaultEvent {
            kind,
            target,
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
        }
    }

    #[test]
    fn interval_is_half_open() {
        let e = ev(FaultKind::LinkBlackout, FaultTarget::Device(0), 2.0, 5.0);
        assert!(!e.active_at(SimTime::from_secs(1.9)));
        assert!(e.active_at(SimTime::from_secs(2.0)));
        assert!(e.active_at(SimTime::from_secs(4.999)));
        assert!(!e.active_at(SimTime::from_secs(5.0)));
    }

    #[test]
    fn validation_rejects_bad_events() {
        // Reversed interval.
        assert!(FaultSchedule::new(vec![ev(
            FaultKind::LinkBlackout,
            FaultTarget::Device(0),
            5.0,
            2.0
        )])
        .is_err());
        // Factor outside (0, 1].
        assert!(FaultSchedule::new(vec![ev(
            FaultKind::BandwidthCollapse { factor: 1.5 },
            FaultTarget::Device(0),
            0.0,
            1.0
        )])
        .is_err());
        // Edge kind on a device target.
        assert!(FaultSchedule::new(vec![ev(
            FaultKind::EdgeOutage,
            FaultTarget::Device(0),
            0.0,
            1.0
        )])
        .is_err());
        // Churn on the edge.
        assert!(FaultSchedule::new(vec![ev(
            FaultKind::DeviceChurn,
            FaultTarget::Edge,
            0.0,
            1.0
        )])
        .is_err());
    }

    #[test]
    fn schedule_serialises_round_trip() {
        let s = FaultSchedule::new(vec![ev(
            FaultKind::LatencySpike { add_s: 0.25 },
            FaultTarget::Device(1),
            3.0,
            9.0,
        )])
        .unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
