//! Device→edge topology: the fleet configuration, the seeded
//! deterministic initial assignment and the per-edge chaos derivation.
//!
//! Everything here is a pure function of its inputs — the assignment is
//! a dense device-indexed vector dealt from a seeded key ordering, and
//! per-edge chaos configs re-seed the template's fault bundle per edge.
//! RNG lanes belong to devices, not edges (`stream_rng(seed, id)` for
//! global id `id`), so a fleet run is reproducible from
//! `(scenario, config, seed)` alone at any worker count (DESIGN.md §16).

use leime::{LeimeError, Result};
use leime_chaos::ChaosConfig;
use serde::{Deserialize, Serialize};

/// How a regional tier places a fleet's devices on edges: the edge
/// count, the seeded assignment, and the balancer / failover knobs
/// applied at rebalance-interval boundaries. Boundaries only rewrite the
/// assignment; the fleet's time, queues and per-device state run on
/// across them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of edge shards (≥ 1). Each edge runs the template
    /// scenario's `edge_flops` — capacity scales *out*, not up.
    pub edges: usize,
    /// Seed for the initial device→edge assignment permutation.
    pub assign_seed: u64,
    /// Slots between regional-tier boundaries (balancing + failover);
    /// `0` runs the whole horizon as one interval (no regional action).
    pub rebalance_interval: usize,
    /// The balancer migrates while the hottest edge's queue pressure
    /// exceeds `pressure_ratio` × the coolest edge's (must be > 1).
    pub pressure_ratio: f64,
    /// Absolute pressure floor: edges below this total backlog are
    /// never balanced (protects idle fleets from churn).
    pub min_pressure: f64,
    /// Cap on balancer migrations per boundary (failover evacuations
    /// are not capped — a downed edge always empties).
    pub max_migrations_per_round: usize,
}

impl FleetConfig {
    /// The degenerate one-edge fleet: a single shard, no regional
    /// action. A run under this config is byte-identical to the bare
    /// [`leime::SlottedSystem`] run (pinned by `integration_fleet`).
    pub fn single_edge() -> Self {
        FleetConfig {
            edges: 1,
            assign_seed: 0,
            rebalance_interval: 0,
            pressure_ratio: 4.0,
            min_pressure: 1.0,
            max_migrations_per_round: 0,
        }
    }

    /// A regional tier over `edges` shards balancing every
    /// `rebalance_interval` slots with moderate defaults.
    pub fn regional(edges: usize, rebalance_interval: usize) -> Self {
        FleetConfig {
            edges,
            assign_seed: 0x01ee_fa57,
            rebalance_interval,
            pressure_ratio: 4.0,
            min_pressure: 1.0,
            max_migrations_per_round: 64,
        }
    }

    /// Sanity-checks the config.
    ///
    /// # Errors
    ///
    /// Returns [`LeimeError::Config`] naming the first violation.
    pub fn validate(&self) -> Result<()> {
        if self.edges == 0 {
            return Err(LeimeError::Config("fleet needs at least one edge".into()));
        }
        if !self.pressure_ratio.is_finite() || self.pressure_ratio <= 1.0 {
            return Err(LeimeError::Config(format!(
                "pressure_ratio must exceed 1, got {}",
                self.pressure_ratio
            )));
        }
        if !(self.min_pressure >= 0.0 && self.min_pressure.is_finite()) {
            return Err(LeimeError::Config(format!(
                "min_pressure must be finite and non-negative, got {}",
                self.min_pressure
            )));
        }
        Ok(())
    }
}

/// The seeded initial assignment: devices are ordered by a per-device
/// `stream_seed` key (a deterministic shuffle with no RNG state) and
/// dealt round-robin across edges, so every edge starts within one
/// device of balanced regardless of the seed. `assignment[i]` is device
/// `i`'s edge.
pub fn initial_assignment(n_devices: usize, edges: usize, assign_seed: u64) -> Vec<usize> {
    // `(key, id)` pairs are distinct, so the unstable sort is a total
    // order: ties on the key break to the lower id.
    let mut order: Vec<(u64, usize)> = (0..n_devices)
        .map(|i| (leime_par::stream_seed(assign_seed, i as u64), i))
        .collect();
    order.sort_unstable();
    let mut assignment = vec![0; n_devices];
    for (j, &(_, device)) in order.iter().enumerate() {
        assignment[device] = j % edges;
    }
    assignment
}

/// Per-edge chaos derivation: edge 0 keeps the template's config (the
/// equivalence anchor); sibling edges re-seed the same fault bundle so
/// outages strike edges independently but deterministically. A device
/// derives its lanes of an edge's config from its global id (again
/// after each move), so a 1-edge fleet sees exactly the bare run's
/// faults.
pub fn edge_chaos(template: Option<&ChaosConfig>, edge: usize) -> Option<ChaosConfig> {
    template.map(|c| {
        if edge == 0 {
            c.clone()
        } else {
            ChaosConfig {
                seed: leime_par::stream_seed(c.seed, edge as u64),
                models: c.models.clone(),
                window_s: c.window_s,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(FleetConfig::single_edge().validate().is_ok());
        assert!(FleetConfig::regional(8, 25).validate().is_ok());
        let mut bad = FleetConfig::single_edge();
        bad.edges = 0;
        assert!(bad.validate().is_err());
        let mut bad = FleetConfig::regional(2, 10);
        bad.pressure_ratio = 1.0;
        assert!(bad.validate().is_err());
        let mut bad = FleetConfig::regional(2, 10);
        bad.min_pressure = f64::NAN;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn assignment_is_balanced_and_deterministic() {
        let a = initial_assignment(103, 4, 7);
        let b = initial_assignment(103, 4, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 103);
        let mut per_edge = [0usize; 4];
        for &e in &a {
            per_edge[e] += 1;
        }
        for count in per_edge {
            assert!((25..=26).contains(&count), "unbalanced: {per_edge:?}");
        }
        // A different seed permutes the deal.
        let c = initial_assignment(103, 4, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn single_edge_assignment_is_identity_onto_edge_zero() {
        let a = initial_assignment(10, 1, 99);
        assert!(a.iter().all(|&e| e == 0));
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn edge_chaos_reseeds_siblings_only() {
        let template = ChaosConfig::quiet(5);
        assert_eq!(edge_chaos(Some(&template), 0), Some(template.clone()));
        let sibling = edge_chaos(Some(&template), 3).expect("some");
        assert_ne!(sibling.seed, template.seed);
        assert_eq!(sibling.models, template.models);
        assert_eq!(edge_chaos(None, 1), None);
    }
}
