//! # leime-telemetry
//!
//! Unified observability for the LEIME reproduction: one subsystem that
//! every layer (simnet, offload controllers and the experiment binaries)
//! records into, replacing the one-off series and percentile code that
//! used to live in each of them.
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s, [`Histogram`]s and
//!   [`Series`], created on first use and shared via `Arc`. The
//!   registry's own lock is held only at registration and snapshot time.
//! * [`Buckets`] — log-bucketed latency histogram: quantile queries with
//!   error bounded by one bucket width, an exact sum, and exact merging
//!   (bucket counts and sums add, in any order). It holds a `leime` run report's completion times; a registry
//!   [`Histogram`] is one `Buckets` behind a lock, merged into once per
//!   run.
//! * [`Series`] — `(time, value)` recorders sampled per simulated slot
//!   or wall tick.
//! * [`Tracer`] — span/event tracing generic over a [`Clock`], with a
//!   [`VirtualClock`] for simulated time and a [`WallClock`] over
//!   `std::time::Instant`, so simulated and wall-clock traces share one
//!   format.
//! * [`TelemetrySnapshot`] — a serializable dump of everything a
//!   registry holds; the bench binaries write it as `telemetry.json`
//!   (see EXPERIMENTS.md for the schema).

pub mod clock;
mod exact;
pub mod hist;
pub mod metrics;
pub mod registry;
pub(crate) mod sync;
pub mod trace;

pub use clock::{Clock, VirtualClock, WallClock};
pub use hist::{Buckets, Histogram};
pub use metrics::{Counter, Gauge, Series};
pub use registry::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Registry, SeriesSnapshot, TelemetrySnapshot,
};
pub use trace::{Span, SpanRecord, Tracer};
