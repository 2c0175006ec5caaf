//! Controller-side telemetry: per-decision recording of the Lyapunov
//! queues.
//!
//! A [`ControllerTelemetry`] names the series a driving simulator
//! records a controller's decisions into — the device queue `Q_i(t)`
//! and the edge queue `H_i(t)` each decision observed. Controllers
//! record nothing themselves ([`crate::OffloadController::decide`] is
//! pure). The points are in device order, so they are among the little
//! a sharded simulator still replays on its driving thread: the driver
//! buffers each recorded decision, stamped with its slot-start time,
//! into a [`DecisionBatch`] and flushes the batch once per slot, into
//! series it can size up front ([`ControllerTelemetry::reserve`]).
//! Several devices share one recorder, so each series holds one point
//! per device per slot.

use leime_telemetry::Registry;

/// The registry and series names one system's controller decisions
/// record into.
#[derive(Debug, Clone)]
pub struct ControllerTelemetry {
    registry: Registry,
    queue_q: String,
    queue_h: String,
}

impl ControllerTelemetry {
    /// Records into `registry` as `{prefix}.queue_q` and
    /// `{prefix}.queue_h`, both created (empty) here.
    pub fn attach(registry: &Registry, prefix: &str) -> Self {
        let (queue_q, queue_h) = (format!("{prefix}.queue_q"), format!("{prefix}.queue_h"));
        registry.extend_series(&queue_q, []);
        registry.extend_series(&queue_h, []);
        ControllerTelemetry {
            registry: Registry::clone(registry),
            queue_q,
            queue_h,
        }
    }

    /// Makes room for `points` more decisions in both series
    /// ([`Registry::reserve_series`]), so a driver that knows how many
    /// decisions it will flush sizes them once.
    pub fn reserve(&self, points: usize) {
        self.registry.reserve_series(&self.queue_q, points);
        self.registry.reserve_series(&self.queue_h, points);
    }

    /// Flushes a [`DecisionBatch`] accumulated by a driving simulator:
    /// one registry write per series, keeping the batch's points in
    /// order. The batch is left empty and ready for reuse.
    pub fn flush_batch(&self, batch: &mut DecisionBatch) {
        let registry = &self.registry;
        registry.extend_series(&self.queue_q, batch.queue_q.iter().copied());
        registry.extend_series(&self.queue_h, batch.queue_h.iter().copied());
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
}

impl DecisionBatch {
    /// An empty batch.
    pub fn new() -> Self {
        DecisionBatch::default()
    }

    /// Buffers one device-slot decision stamped at time `t` (the
    /// caller supplies the slot-start time): the queues `q` and `h` the
    /// decision observed.
    pub fn record_decision(&mut self, t: f64, q: f64, h: f64) {
        self.queue_q.push((t, q));
        self.queue_h.push((t, h));
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.queue_q.is_empty()
    }

    /// Empties the batch, keeping buffer capacity for the next slot.
    pub fn clear(&mut self) {
        self.queue_q.clear();
        self.queue_h.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_one_point_per_series() {
        let registry = Registry::new();
        let telemetry = ControllerTelemetry::attach(&registry, "sys.ctrl");
        let attached = registry.snapshot();
        assert!(attached.series.iter().all(|s| s.points.is_empty()));
        assert_eq!(attached.series.len(), 2);
        let mut batch = DecisionBatch::new();
        assert!(batch.is_empty());
        batch.record_decision(2.0, 3.0, 1.5);
        batch.record_decision(3.0, 0.0, 4.0);
        telemetry.flush_batch(&mut batch);
        assert!(batch.is_empty());
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["sys.ctrl.queue_h", "sys.ctrl.queue_q"]);
        assert_eq!(
            snap.series_named("sys.ctrl.queue_q").unwrap().points,
            vec![(2.0, 3.0), (3.0, 0.0)]
        );
        assert_eq!(
            snap.series_named("sys.ctrl.queue_h").unwrap().points,
            vec![(2.0, 1.5), (3.0, 4.0)]
        );
    }
}
