//! # leime-telemetry
//!
//! Unified observability for the LEIME reproduction: one subsystem that
//! every layer (simnet, offload controllers and the experiment binaries)
//! records into, replacing the one-off series and percentile code that
//! used to live in each of them.
//!
//! * [`Registry`] — named counters, [`Buckets`] histograms and
//!   `(time, value)` series, held as plain values in one table. Each
//!   write creates its name on first use; clones of a registry share
//!   the table, and neither a registry nor its clones leave the thread
//!   that made them.
//! * [`Buckets`] — log-bucketed latency histogram: quantile queries with
//!   error bounded by one bucket width, an exact sum, and exact merging
//!   (bucket counts and sums add, in any order). It holds a `leime` run
//!   report's completion times, merged into the registry once per run.
//!   [`RunBuckets`] records into one, coalescing runs of one value.
//! * [`Tracer`] — span tracing generic over a [`Clock`]; the
//!   [`WallClock`] reads `std::time::Instant`, and tests drive a tracer
//!   with a clock of their own.
//! * [`TelemetrySnapshot`] — a serializable dump of everything a
//!   registry holds; the bench binaries write it as `telemetry.json`
//!   (see EXPERIMENTS.md for the schema).

pub mod clock;
mod exact;
pub mod hist;
pub mod registry;
pub mod trace;

pub use clock::{Clock, WallClock};
pub use hist::{Buckets, RunBuckets};
pub use registry::{
    CounterSnapshot, HistogramSnapshot, Registry, SeriesSnapshot, TelemetrySnapshot,
};
pub use trace::{Span, SpanRecord, Tracer};
