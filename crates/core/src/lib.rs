//! # leime
//!
//! LEIME — a Low latency Edge Intelligence scheme based on Multi-Exit DNNs
//! (reproduction of Huang et al., ICDCS 2021).
//!
//! LEIME serves DNN inference tasks launched from heterogeneous end
//! devices with a device / edge / cloud hierarchy and minimises long-term
//! average task completion time (TCT) with two coordinated mechanisms:
//!
//! 1. **Exit setting** (model level): a branch-and-bound search places a
//!    First/Second/Third exit in the DNN chain, partitioning it into
//!    device, edge and cloud blocks (`leime-exitcfg`).
//! 2. **Online offloading** (computation level): each time slot, every
//!    device picks the fraction of new tasks to launch on the edge using a
//!    Lyapunov drift-plus-penalty controller that balances device- and
//!    edge-side costs (`leime-offload`).
//!
//! This crate assembles those pieces into runnable systems:
//!
//! * [`Scenario`] — a declarative experiment description (model, devices,
//!   links, workload, controller),
//! * [`SlottedSystem`] — the paper's slotted queueing model (Eq. 10–14),
//!   used for the motivation and ablation experiments,
//! * [`systems`] — LEIME plus the paper's benchmark systems (DDNN,
//!   Neurosurgeon, Edgent) behind one interface.
//!
//! ## Quickstart
//!
//! ```
//! use leime::{ExitStrategy, Scenario};
//!
//! # fn main() -> Result<(), leime::LeimeError> {
//! let scenario = Scenario::raspberry_pi_cluster(leime::ModelKind::SqueezeNet, 2, 5.0);
//! let deployment = scenario.deploy(ExitStrategy::Leime)?;
//! let report = scenario.run_slotted(&deployment, 200, 7)?;
//! println!("mean TCT = {:.1} ms", report.mean_tct_ms());
//! # Ok(())
//! # }
//! ```

mod deploy;
mod error;
mod model;
mod report;
mod scenario;
mod slotted;

pub mod systems;

/// Paper-invariant guards (Eq. 8 ratios, Eq. 10–11 queues, Eq. 27 simplex,
/// Theorem 1 monotonicity). Active under `debug_assertions` or the
/// `strict-invariants` feature; pass-through no-ops otherwise.
pub use leime_invariant as invariant;

/// Deterministic fault injection for scenarios (see [`Scenario::chaos`]):
/// seed-driven schedules of link blackouts, bandwidth collapses, latency
/// spikes, edge slowdown/outage and device churn on the virtual clock.
pub use leime_chaos::{ChaosConfig, FaultModel, FaultSchedule};
/// Graceful-degradation policy (timeout → bounded retry → local fallback)
/// applied by the simulators when faults make the edge unreachable.
pub use leime_offload::DegradePolicy;

pub use deploy::{Deployment, ExitStrategy};
pub use error::LeimeError;
pub use model::ModelKind;
pub use report::{FaultStats, RunReport, TierCounts};
pub use scenario::{ControllerKind, Scenario, WorkloadKind};
pub use slotted::{
    decide_device, run_slot_loop, share_floor, BoundaryAction, DecideCtx, DecideMemo,
    DeviceDecision, DeviceRow, Edges, EpochRecords, SlotEpochs, SlotQuants, SlotRecords,
    SlottedSystem, DEFAULT_EPOCH_LEN, SHARE_FLOOR,
};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, LeimeError>;
