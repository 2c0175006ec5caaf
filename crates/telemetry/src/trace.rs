//! Span and event tracing over an abstract [`Clock`].
//!
//! A [`Tracer`] stamps named spans with its clock's time, so the same
//! instrumentation produces comparable traces whether time is simulated
//! (`VirtualClock`) or real (`WallClock`). Spans close on drop; instant
//! events are spans with `start == end`.

use std::sync::{Arc, Mutex};

use serde::Serialize;

use crate::clock::Clock;

/// One finished span (or instant event, when `start == end`), in the
/// tracer's clock seconds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanRecord {
    /// Span name, as passed to [`Tracer::span`] or [`Tracer::event`].
    pub name: String,
    /// Start time in clock seconds.
    pub start: f64,
    /// End time in clock seconds; equals `start` for instant events.
    pub end: f64,
}

impl SpanRecord {
    /// Span duration in seconds (zero for instant events).
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug, Default)]
struct SpanLog {
    records: Mutex<Vec<SpanRecord>>,
}

/// Records named spans and events against a [`Clock`].
///
/// Clones share the same record log, so a tracer can be handed to
/// several components and drained once at the end of a run.
#[derive(Debug)]
pub struct Tracer<C: Clock> {
    clock: C,
    log: Arc<SpanLog>,
}

impl<C: Clock + Clone> Clone for Tracer<C> {
    fn clone(&self) -> Self {
        Tracer {
            clock: self.clock.clone(),
            log: Arc::clone(&self.log),
        }
    }
}

impl<C: Clock> Tracer<C> {
    /// A tracer reading time from `clock`.
    pub fn new(clock: C) -> Self {
        Tracer {
            clock,
            log: Arc::default(),
        }
    }

    /// Opens a span that records itself when dropped.
    pub fn span(&self, name: impl Into<String>) -> Span<'_, C> {
        Span {
            tracer: self,
            name: name.into(),
            start: self.clock.now(),
        }
    }

    /// Records an instant event (`start == end == now`).
    pub fn event(&self, name: impl Into<String>) {
        let t = self.clock.now();
        crate::sync::lock_unpoisoned(&self.log.records).push(SpanRecord {
            name: name.into(),
            start: t,
            end: t,
        });
    }

    /// Current clock reading, for callers that want to stamp their own
    /// series with tracer time.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// A copy of everything recorded so far, in completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        crate::sync::lock_unpoisoned(&self.log.records).clone()
    }
}

/// An open span; records `[start, now]` into its tracer when dropped.
#[must_use = "a span records on drop; binding it to _ closes it immediately"]
pub struct Span<'t, C: Clock> {
    tracer: &'t Tracer<C>,
    name: String,
    start: f64,
}

impl<C: Clock> Drop for Span<'_, C> {
    fn drop(&mut self) {
        let end = self.tracer.clock.now();
        crate::sync::lock_unpoisoned(&self.tracer.log.records).push(SpanRecord {
            name: std::mem::take(&mut self.name),
            start: self.start,
            end,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn spans_capture_virtual_time() {
        let clock = VirtualClock::new();
        let tracer = Tracer::new(clock.clone());
        {
            let _slot = tracer.span("slot");
            clock.advance_to(0.1);
            tracer.event("decision");
            clock.advance_to(0.25);
        }
        let records = tracer.records();
        assert_eq!(records.len(), 2);
        // The event completes before the enclosing span's drop.
        assert_eq!(
            records[0],
            SpanRecord {
                name: "decision".into(),
                start: 0.1,
                end: 0.1
            }
        );
        assert_eq!(
            records[1],
            SpanRecord {
                name: "slot".into(),
                start: 0.0,
                end: 0.25
            }
        );
        assert_eq!(records[1].duration().to_bits(), 0.25_f64.to_bits());
    }

    #[test]
    fn clones_share_the_log() {
        let tracer = Tracer::new(VirtualClock::new());
        let other = tracer.clone();
        other.event("from-clone");
        assert_eq!(tracer.records().len(), 1);
    }
}
