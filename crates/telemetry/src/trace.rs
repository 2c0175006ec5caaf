//! Span tracing over an abstract [`Clock`].
//!
//! A [`Tracer`] stamps named spans with its clock's time, so the same
//! instrumentation produces comparable traces under any time source.
//! Spans close on drop.

use std::sync::Mutex;

use serde::Serialize;

use crate::clock::Clock;

/// One finished span, in the tracer's clock seconds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanRecord {
    /// Span name, as passed to [`Tracer::span`].
    pub name: String,
    /// Start time in clock seconds.
    pub start: f64,
    /// End time in clock seconds.
    pub end: f64,
}

impl SpanRecord {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records named spans against a [`Clock`].
#[derive(Debug)]
pub struct Tracer<C: Clock> {
    clock: C,
    log: Mutex<Vec<SpanRecord>>,
}

impl<C: Clock> Tracer<C> {
    /// A tracer reading time from `clock`.
    pub fn new(clock: C) -> Self {
        Tracer {
            clock,
            log: Mutex::default(),
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

    /// A copy of everything recorded so far, in completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        crate::sync::lock_unpoisoned(&self.log).clone()
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
        crate::sync::lock_unpoisoned(&self.tracer.log).push(SpanRecord {
            name: std::mem::take(&mut self.name),
            start: self.start,
            end,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A clock the test steps by hand, standing in for simulated time.
    #[derive(Clone, Default)]
    struct Stepped(Rc<Cell<f64>>);

    impl Clock for Stepped {
        fn now(&self) -> f64 {
            self.0.get()
        }
    }

    #[test]
    fn spans_capture_virtual_time() {
        let clock = Stepped::default();
        let tracer = Tracer::new(clock.clone());
        {
            let _slot = tracer.span("slot");
            clock.0.set(0.1);
            drop(tracer.span("decision"));
            clock.0.set(0.25);
        }
        let records = tracer.records();
        assert_eq!(records.len(), 2);
        // The inner span completes before the enclosing span's drop.
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
}
