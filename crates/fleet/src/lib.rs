//! # leime-fleet — hierarchical multi-edge fleets
//!
//! Places a slotted system's devices on many edges under a regional
//! tier (DESIGN.md §16):
//!
//! - [`topology`]: [`FleetConfig`], the seeded deterministic
//!   device→edge [`initial_assignment`] and per-edge chaos derivation.
//! - [`balancer`]: Eq. 10–11 queue-pressure observation
//!   ([`edge_pressures`]), cross-edge [`rebalance`] migration and
//!   chaos-failover [`evacuate`].
//! - [`system`]: [`FleetSystem`] — one continuing slotted run whose
//!   boundaries rewrite the assignment — and its serialized
//!   [`FleetReport`].
//!
//! The intra-edge controller is byte-for-byte the existing Lyapunov
//! path; the fleet only decides *where* devices live between intervals.
//! Every run is byte-identical at every worker count (the §11 contract,
//! pinned by `tests/integration_fleet.rs`).

pub mod balancer;
pub mod system;
pub mod topology;

pub use balancer::{edge_pressures, evacuate, rebalance, MigrationCause, MigrationEvent};
pub use system::{FleetReport, FleetSystem, IntervalReport};
pub use topology::{edge_chaos, initial_assignment, FleetConfig};
