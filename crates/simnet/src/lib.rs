//! # leime-simnet
//!
//! Discrete-event simulation substrate for the LEIME reproduction — the
//! stand-in for the paper's physical testbed (Raspberry Pis, Jetson Nanos,
//! an i7 edge server, a V100 cloud, WiFi and Internet links shaped with
//! COMCAST).
//!
//! The crate provides composable primitives rather than a monolithic
//! simulator; the `leime` core crate assembles them into the full
//! device/edge/cloud co-inference pipeline:
//!
//! * [`SimTime`] — virtual time (seconds, f64 newtype),
//! * [`EventQueue`] — a deterministic time-ordered event heap with FIFO
//!   tie-breaking,
//! * [`FifoServer`] — a work-conserving single-queue server expressed in
//!   FLOPS (models a device CPU, an edge Docker share, or a cloud GPU),
//! * [`Link`] — a bandwidth + propagation-delay pipe with optional
//!   serialization (transfers queue behind each other, like a shared WiFi
//!   medium),
//! * [`TimeTrace`] — piecewise-constant time-varying parameters (bandwidth,
//!   arrival-rate traces),
//! * [`stats`] — Welford online moments, percentile sketches, and
//!   time-series recording for experiment output.
//!
//! ```
//! use leime_simnet::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule_at(SimTime::from_secs(2.0), "later");
//! q.schedule_at(SimTime::from_secs(1.0), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t.as_secs(), ev), (1.0, "sooner"));
//! ```

mod event;
mod link;
mod server;
mod time;
mod trace;

pub mod stats;

pub use event::EventQueue;
pub use link::Link;
pub use server::FifoServer;
pub use time::SimTime;
pub use trace::TimeTrace;
