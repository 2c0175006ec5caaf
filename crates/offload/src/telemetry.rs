//! Controller-side telemetry: per-slot recording of the Lyapunov state.
//!
//! A [`ControllerTelemetry`] bundles the series a driving simulator
//! records a controller's decisions into — device queue `Q_i(t)`, edge
//! queue `H_i(t)`, the chosen ratio `x_i(t)` and the drift-plus-penalty
//! objective value (Eq. 19). Controllers record nothing themselves
//! ([`crate::OffloadController::decide`] is pure): the driver buffers
//! each recorded decision, stamped with its slot-start time, into a
//! [`DecisionBatch`] and flushes the batch once per slot. Several
//! devices share one handle, so each series holds one point per device
//! per slot.

use std::sync::Arc;

use leime_telemetry::{Registry, Series};

use crate::SlotObservation;

/// Recording handles for one system's controller decisions.
#[derive(Debug, Clone)]
pub struct ControllerTelemetry {
    queue_q: Arc<Series>,
    queue_h: Arc<Series>,
    offload_x: Arc<Series>,
    drift_plus_penalty: Arc<Series>,
}

impl ControllerTelemetry {
    /// Creates handles recording into `registry` as
    /// `{prefix}.queue_q`, `{prefix}.queue_h`, `{prefix}.offload_x` and
    /// `{prefix}.drift_plus_penalty`.
    pub fn attach(registry: &Registry, prefix: &str) -> Self {
        ControllerTelemetry {
            queue_q: registry.series(&format!("{prefix}.queue_q")),
            queue_h: registry.series(&format!("{prefix}.queue_h")),
            offload_x: registry.series(&format!("{prefix}.offload_x")),
            drift_plus_penalty: registry.series(&format!("{prefix}.drift_plus_penalty")),
        }
    }

    /// Flushes a [`DecisionBatch`] accumulated by a driving simulator:
    /// each series takes its lock once per flush instead of once per
    /// decision, and keeps the batch's points in order. The batch is
    /// left empty and ready for reuse.
    pub fn flush_batch(&self, batch: &mut DecisionBatch) {
        self.queue_q.push_batch(&batch.queue_q);
        self.queue_h.push_batch(&batch.queue_h);
        self.offload_x.push_batch(&batch.offload_x);
        self.drift_plus_penalty
            .push_batch(&batch.drift_plus_penalty);
        batch.clear();
    }
}

/// A plain accumulation buffer for controller telemetry, filled by a
/// driving simulator in decision order and handed to
/// [`ControllerTelemetry::flush_batch`] once per slot (or epoch). Reuse
/// one batch across slots — [`DecisionBatch::clear`] keeps the
/// capacity, so steady-state slots allocate nothing.
#[derive(Debug, Default)]
pub struct DecisionBatch {
    queue_q: Vec<(f64, f64)>,
    queue_h: Vec<(f64, f64)>,
    offload_x: Vec<(f64, f64)>,
    drift_plus_penalty: Vec<(f64, f64)>,
}

impl DecisionBatch {
    /// An empty batch.
    pub fn new() -> Self {
        DecisionBatch::default()
    }

    /// Buffers one device-slot decision stamped at time `t` (the
    /// caller supplies the slot-start time): the observed queues, the
    /// chosen ratio `x` and the objective value `dpp` at the optimum.
    pub fn record_decision(&mut self, t: f64, obs: &SlotObservation, x: f64, dpp: f64) {
        self.queue_q.push((t, obs.q));
        self.queue_h.push((t, obs.h));
        self.offload_x.push((t, x));
        self.drift_plus_penalty.push((t, dpp));
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.queue_q.is_empty()
    }

    /// Empties the batch, keeping buffer capacity for the next slot.
    pub fn clear(&mut self) {
        self.queue_q.clear();
        self.queue_h.clear();
        self.offload_x.clear();
        self.drift_plus_penalty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_one_point_per_series() {
        let registry = Registry::new();
        let telemetry = ControllerTelemetry::attach(&registry, "sys.ctrl");
        let obs = SlotObservation {
            q: 3.0,
            h: 1.5,
            p_share: 0.25,
        };
        let mut batch = DecisionBatch::new();
        assert!(batch.is_empty());
        batch.record_decision(2.0, &obs, 0.4, 12.5);
        telemetry.flush_batch(&mut batch);
        assert!(batch.is_empty());
        let snap = registry.snapshot();
        assert_eq!(
            snap.series_named("sys.ctrl.queue_q").unwrap().points,
            vec![(2.0, 3.0)]
        );
        assert_eq!(
            snap.series_named("sys.ctrl.queue_h").unwrap().points,
            vec![(2.0, 1.5)]
        );
        assert_eq!(
            snap.series_named("sys.ctrl.offload_x").unwrap().points,
            vec![(2.0, 0.4)]
        );
        assert_eq!(
            snap.series_named("sys.ctrl.drift_plus_penalty")
                .unwrap()
                .points,
            vec![(2.0, 12.5)]
        );
    }
}
