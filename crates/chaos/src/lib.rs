//! # leime-chaos
//!
//! Deterministic, seed-driven fault injection for the LEIME simulation
//! stack — the "in the wild" half of the paper's title, made testable.
//!
//! The paper evaluates LEIME under COMCAST-shaped links (§IV): bandwidth
//! collapses, latency spikes and outright blackouts. This crate expresses
//! those disturbances — plus edge-server slowdown/outage and device churn
//! — as **fault events on the virtual clock**: closed intervals of
//! simulated time during which a link, the edge server or a device is
//! degraded. Because every schedule is generated from a single `u64` seed
//! with `StdRng::seed_from_u64` and queried purely as a function of
//! [`SimTime`](leime_simnet::SimTime), a replay with the same seed is bit-identical
//! (`tests/integration_chaos.rs` pins this).
//!
//! * [`FaultKind`] / [`FaultEvent`] / [`FaultSchedule`] — the event-stream
//!   representation and its point-in-time health queries,
//! * [`FaultModel`] / [`ChaosConfig`] — declarative, serialisable fault
//!   generators (duty cycle + mean episode length per model), compiled to
//!   a concrete schedule per seed,
//! * [`LaneCursor`] / [`SharedLanes`] / [`DeviceLanes`] / [`EdgeChaos`] —
//!   the same episodes drawn forward in time, which is how a run reads
//!   them: O(1) per lane and slot instead of a scan of the schedule,
//! * [`LinkHealth`] / [`EdgeHealth`] / [`SharedHealth`] — what a
//!   controller (or the graceful-degradation wrapper in `leime-offload`)
//!   observes at a slot boundary.
//!
//! Fault *injection* lives here; fault *handling* (timeout → bounded
//! retry → fully-local fallback, Eq. 10–11 queue evolution under x = 0)
//! lives in `leime-offload::degrade` and the `leime` core systems.

mod health;
mod lanes;
mod models;
mod schedule;

pub use health::{EdgeHealth, LinkHealth};
pub use lanes::{DeviceLanes, EdgeChaos, LaneCursor, SharedHealth, SharedLanes};
pub use models::{ChaosConfig, FaultModel};
pub use schedule::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
