//! # leime-offload
//!
//! Computation-level task offloading — the second core contribution of the
//! LEIME paper (§III-D).
//!
//! Each time slot, every device `i` picks an offloading ratio `x_i(t)`: the
//! fraction of its newly arrived first-block inference tasks that are sent
//! to the edge server instead of running locally. The paper formulates the
//! long-term average-TCT minimisation `P1`, converts it with Lyapunov
//! drift-plus-penalty into the per-slot problem `P1′` (Eq. 18), and solves
//! it decentrally: as `V → ∞` the optimum balances the device-side and
//! edge-side costs, `T_i^d(t) = T_i^e(t)` (Eq. 20, Cauchy–Schwarz).
//!
//! * [`SharedParams`] / [`DeviceParams`] — the slotted-system description
//!   (`τ`, `V`, block FLOPs `μ_1`, `μ_2`, exit rate `σ_1`, data sizes
//!   `d_0`, `d_1`, edge FLOPS, per-device FLOPS/bandwidth/latency),
//! * [`QueuePair`] — the device queue `Q_i` and edge queue `H_i` with the
//!   paper's update recursions (Eq. 10–11),
//! * [`SlotCost`] — the per-slot cost terms `C^d_{i,1..3}`, `C^e_{i,1..3}`
//!   (Eq. 12–14) and the drift-plus-penalty objective (Eq. 18–19),
//! * [`kkt_allocation`] — the closed-form edge resource shares `p_i`
//!   (Eq. 27, Appendix B) with feasibility projection,
//! * [`solver`] — the decentralized balance solver (bisection on
//!   `T_d = T_e`), the exact per-piece solve of `P1′`, and the
//!   bandwidth-feasibility interval of constraint (8),
//! * [`controller`] — pluggable per-slot policies: LEIME's Lyapunov
//!   controller plus the paper's baselines (device-only, edge-only,
//!   capability-based, fixed ratio),
//! * [`degrade`] — graceful degradation when the edge stops answering:
//!   per-slot transmission timeout, bounded retry, and fallback to
//!   fully-local execution (`x_i(t) = 0`) with exponential-backoff
//!   recovery probes,
//! * [`telemetry`] — the series a driving simulator records controller
//!   decisions into (`Q_i`, `H_i`, `x_i(t)`, drift-plus-penalty), batched
//!   per slot into a `leime-telemetry` registry.

mod alloc;

pub mod analysis;
mod cost;
mod params;
mod queues;

pub mod controller;
pub mod degrade;
pub mod solver;
pub mod telemetry;

pub use alloc::{kkt_allocation, kkt_allocation_with_floor};
pub use controller::{
    CapabilityBased, DeviceOnly, EdgeOnly, FixedRatio, LyapunovController, OffloadController,
    SlotObservation,
};
pub use cost::{CostEval, SlotCost};
pub use degrade::{DegradeMode, DegradeOutcome, DegradePolicy, DegradeState};
pub use params::{DeviceParams, SharedParams};
pub use queues::QueuePair;
pub use telemetry::{ControllerTelemetry, DecisionBatch};
