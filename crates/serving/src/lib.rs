//! `leime-serving`: an online serving runtime with deadlines, SLA
//! classes and admission control, layered on the LEIME reproduction's
//! slotted queueing machinery (`leime::SlottedSystem` is the offline
//! analogue; this crate fronts it with requests).
//!
//! | Module | What it owns |
//! |---|---|
//! | `request` | [`SlaClass`], [`SlaPolicy`] — the request model |
//! | `traffic` | [`TrafficConfig`] — deterministic offered-load generators |
//! | `admission` | [`admit`] — Eq. 10–11 stability-bound load shedding |
//! | `steer` | [`steer_exits`] — per-class exit settings via priced environments |
//! | `system` | [`ServingSystem`] — the serving stage on the shared slot loop (`leime::run_slot_loop`, `leime::decide_device`) and testbed presets |
//! | `report` | [`ServingReport`] — per-class deadline/latency statistics |
//!
//! See DESIGN.md §12 for the request lifecycle, the class-equivalent
//! queue accounting and the shedding ladder.

mod admission;
mod report;
mod request;
mod steer;
mod system;
mod traffic;

pub use admission::{admit, AdmissionDecision, AdmissionPolicy};
pub use report::{ClassStats, ServingReport};
pub use request::{SlaClass, SlaPolicy};
pub use steer::{steer_exits, ClassPlan, SteerPolicy};
pub use system::{flash_brownout_testbed, serving_testbed, ServingConfig, ServingSystem};
pub use traffic::{TrafficConfig, TrafficModel, TRAFFIC_STREAM};
