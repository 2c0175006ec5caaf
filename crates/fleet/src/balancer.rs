//! The regional tier's cross-edge actions, applied at rebalance-interval
//! boundaries: pressure balancing ([`rebalance`]) and chaos failover
//! ([`evacuate`]).
//!
//! Both observe per-edge Eq. 10–11 queue pressure (the sum of every
//! assigned device's `Q_i + H_i`) and move devices between edges by
//! rewriting the assignment — a device's queue pair travels with it,
//! so backlog is conserved bit-for-bit through a migration (queue values
//! are moved, never recomputed). The moved device's backlog then drains
//! through the destination edge's ordinary degrade ladder. All ordering
//! is deterministic: ascending device-id scans over the dense
//! device-indexed `assignment`/`queues` slices, `total_cmp`
//! with index tie-breaks for edge selection, so the same fleet state
//! yields the same migrations at every worker count (DESIGN.md §16).

use leime_invariant as invariant;
use leime_offload::QueuePair;
use serde::{Deserialize, Serialize};

use crate::FleetConfig;

/// Why a device moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationCause {
    /// The balancer relieved a pressure imbalance.
    Balance,
    /// The device's edge went down and its queues were evacuated.
    Failover,
}

/// One cross-edge device move, recorded in the fleet report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationEvent {
    /// Slot index (fleet horizon) at whose boundary the move happened.
    pub at_slot: usize,
    /// The migrated device's global id.
    pub device: usize,
    /// Source edge.
    pub from_edge: usize,
    /// Destination edge.
    pub to_edge: usize,
    /// The device's `Q + H` backlog carried through the move.
    pub backlog: f64,
    /// Balancer move or failover evacuation.
    pub cause: MigrationCause,
}

/// Per-edge queue pressure: the sum of `Q_i + H_i` over every device
/// assigned to the edge (`assignment[i]` is device `i`'s edge and
/// `queues[i]` its queues). Sequential loop in ascending device order —
/// a reviewed order-pinned reduction (DESIGN.md §15, `s9_approved_fns`).
pub fn edge_pressures(edges: usize, assignment: &[usize], queues: &[QueuePair]) -> Vec<f64> {
    let mut pressures = vec![0.0f64; edges];
    for (device, &edge) in assignment.iter().enumerate() {
        if let Some(qp) = queues.get(device) {
            pressures[edge] += qp.q() + qp.h();
        }
    }
    for (edge, p) in pressures.iter().enumerate() {
        invariant::check_nonneg("fleet.pressure", *p);
        debug_assert!(p.is_finite(), "edge {edge} pressure diverged: {p}");
    }
    pressures
}

/// The hottest/coolest *live* edges by pressure (down edges are neither
/// sources nor targets); ties break to the lowest edge index.
fn extremes(pressures: &[f64], down: &[bool]) -> Option<(usize, usize)> {
    let mut hottest: Option<usize> = None;
    let mut coolest: Option<usize> = None;
    for (e, &p) in pressures.iter().enumerate() {
        if down.get(e).copied().unwrap_or(false) {
            continue;
        }
        if hottest.is_none_or(|h| p.total_cmp(&pressures[h]).is_gt()) {
            hottest = Some(e);
        }
        if coolest.is_none_or(|c| p.total_cmp(&pressures[c]).is_lt()) {
            coolest = Some(e);
        }
    }
    hottest.zip(coolest)
}

/// The device on `edge` carrying the most backlog (ties to the lowest
/// device id), with that backlog.
fn heaviest_device(
    edge: usize,
    assignment: &[usize],
    queues: &[QueuePair],
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (device, &e) in assignment.iter().enumerate() {
        if e != edge {
            continue;
        }
        let backlog = queues.get(device).map_or(0.0, |qp| qp.q() + qp.h());
        if best.is_none_or(|(_, b)| backlog.total_cmp(&b).is_gt()) {
            best = Some((device, backlog));
        }
    }
    best
}

/// Regional balancing at an interval boundary: while the hottest live
/// edge's Eq. 10–11 pressure exceeds `pressure_ratio` × the coolest
/// live edge's (and the absolute `min_pressure` floor), migrate the
/// hottest edge's heaviest device to the coolest edge, up to
/// `max_migrations_per_round` moves. Deterministic in the fleet state
/// alone; every per-edge pressure is invariant-checked non-negative.
pub fn rebalance(
    config: &FleetConfig,
    at_slot: usize,
    assignment: &mut [usize],
    queues: &[QueuePair],
    down: &[bool],
) -> Vec<MigrationEvent> {
    let mut pressures = edge_pressures(config.edges, assignment, queues);
    let mut events = Vec::new();
    while events.len() < config.max_migrations_per_round {
        let Some((hot, cool)) = extremes(&pressures, down) else {
            break;
        };
        if hot == cool
            || pressures[hot] < config.min_pressure
            || pressures[hot] <= config.pressure_ratio * pressures[cool]
        {
            break;
        }
        let Some((device, backlog)) = heaviest_device(hot, assignment, queues) else {
            break;
        };
        if backlog <= 0.0 {
            break;
        }
        assignment[device] = cool;
        pressures[hot] = (pressures[hot] - backlog).max(0.0);
        pressures[cool] += backlog;
        invariant::check_nonneg("fleet.balance.backlog", backlog);
        events.push(MigrationEvent {
            at_slot,
            device,
            from_edge: hot,
            to_edge: cool,
            backlog,
            cause: MigrationCause::Balance,
        });
    }
    events
}

/// Chaos failover: evacuate every device off `down_edge`, dealing each
/// (heaviest first, ties to the lowest id) to the currently
/// least-pressured live sibling. After evacuation the downed edge must
/// hold zero backlog — `invariant::check_drained` enforces it. With no
/// live sibling the devices stay put (the intra-edge degrade ladder
/// already forces fully-local operation under an edge outage).
pub fn evacuate(
    config: &FleetConfig,
    at_slot: usize,
    down_edge: usize,
    assignment: &mut [usize],
    queues: &[QueuePair],
    down: &[bool],
) -> Vec<MigrationEvent> {
    let any_live =
        (0..config.edges).any(|e| e != down_edge && !down.get(e).copied().unwrap_or(false));
    if !any_live {
        return Vec::new();
    }
    let mut pressures = edge_pressures(config.edges, assignment, queues);
    // Heaviest-first deal: big backlogs spread across targets instead of
    // piling onto one.
    let mut evacuees: Vec<(usize, f64)> = assignment
        .iter()
        .enumerate()
        .filter(|&(_, &e)| e == down_edge)
        .map(|(device, _)| (device, queues.get(device).map_or(0.0, |qp| qp.q() + qp.h())))
        .collect();
    evacuees.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut events = Vec::with_capacity(evacuees.len());
    for (device, backlog) in evacuees {
        let mut target: Option<usize> = None;
        for e in 0..config.edges {
            if e == down_edge || down.get(e).copied().unwrap_or(false) {
                continue;
            }
            if target.is_none_or(|t| pressures[e].total_cmp(&pressures[t]).is_lt()) {
                target = Some(e);
            }
        }
        let Some(to_edge) = target else { break };
        assignment[device] = to_edge;
        pressures[to_edge] += backlog;
        events.push(MigrationEvent {
            at_slot,
            device,
            from_edge: down_edge,
            to_edge,
            backlog,
            cause: MigrationCause::Failover,
        });
    }
    // The evacuated edge retains exactly zero backlog: queue pairs moved
    // with their devices, nothing was recomputed.
    let residual: f64 = assignment
        .iter()
        .enumerate()
        .filter(|&(_, &e)| e == down_edge)
        .map(|(device, _)| queues.get(device).map_or(0.0, |qp| qp.q() + qp.h()))
        .sum();
    invariant::check_drained("fleet.evacuated", residual, 0.0);
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_queues(backlogs: &[f64]) -> Vec<QueuePair> {
        backlogs
            .iter()
            .map(|&b| {
                let mut qp = QueuePair::new();
                qp.step(b, 0.0, 0.0, 0.0);
                qp
            })
            .collect()
    }

    fn flat_assignment(per_edge: &[&[usize]]) -> Vec<usize> {
        let n = per_edge.iter().map(|devices| devices.len()).sum();
        let mut a = vec![usize::MAX; n];
        for (e, devices) in per_edge.iter().enumerate() {
            for &d in *devices {
                a[d] = e;
            }
        }
        a
    }

    #[test]
    fn pressures_sum_per_edge() {
        let assignment = flat_assignment(&[&[0, 1], &[2]]);
        let queues = loaded_queues(&[1.0, 2.0, 7.0]);
        assert_eq!(edge_pressures(2, &assignment, &queues), vec![3.0, 7.0]);
    }

    #[test]
    fn rebalance_moves_heaviest_device_to_coolest_edge() {
        let mut assignment = flat_assignment(&[&[0, 1], &[2, 3]]);
        let queues = loaded_queues(&[50.0, 30.0, 1.0, 1.0]);
        let config = FleetConfig::regional(2, 10);
        let events = rebalance(&config, 10, &mut assignment, &queues, &[false, false]);
        assert!(!events.is_empty());
        assert_eq!(events[0].device, 0, "heaviest device moves first");
        assert_eq!((events[0].from_edge, events[0].to_edge), (0, 1));
        assert_eq!(events[0].cause, MigrationCause::Balance);
        assert_eq!(assignment[0], 1);
    }

    #[test]
    fn rebalance_respects_floor_ratio_and_cap() {
        let config = FleetConfig::regional(2, 10);
        // Below the absolute floor: no action.
        let mut a = flat_assignment(&[&[0], &[1]]);
        let q = loaded_queues(&[0.5, 0.0]);
        assert!(rebalance(&config, 0, &mut a, &q, &[false, false]).is_empty());
        // Balanced within the ratio: no action.
        let mut a = flat_assignment(&[&[0], &[1]]);
        let q = loaded_queues(&[8.0, 4.0]);
        assert!(rebalance(&config, 0, &mut a, &q, &[false, false]).is_empty());
        // The migration cap binds.
        let mut capped = FleetConfig::regional(2, 10);
        capped.max_migrations_per_round = 1;
        let mut a = flat_assignment(&[&[0, 1, 2], &[3]]);
        let q = loaded_queues(&[40.0, 40.0, 40.0, 0.0]);
        assert_eq!(rebalance(&capped, 0, &mut a, &q, &[false, false]).len(), 1);
    }

    #[test]
    fn rebalance_is_deterministic() {
        let config = FleetConfig::regional(3, 10);
        let queues = loaded_queues(&[9.0, 9.0, 9.0, 9.0, 0.0, 0.0]);
        let run = || {
            let mut a = flat_assignment(&[&[0, 1, 2, 3], &[4], &[5]]);
            let ev = rebalance(&config, 5, &mut a, &queues, &[false, false, false]);
            (a, ev)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn evacuate_empties_the_downed_edge() {
        let config = FleetConfig::regional(3, 10);
        let mut assignment = flat_assignment(&[&[0, 1], &[2], &[3]]);
        let queues = loaded_queues(&[10.0, 5.0, 1.0, 2.0]);
        let events = evacuate(
            &config,
            20,
            0,
            &mut assignment,
            &queues,
            &[true, false, false],
        );
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.cause == MigrationCause::Failover));
        assert!(assignment.iter().all(|&e| e != 0), "edge 0 not empty");
        // Heaviest evacuee (device 0) lands on the least-pressured live
        // edge (edge 1 at pressure 1), the next on edge 2.
        assert_eq!(assignment[0], 1);
        assert_eq!(assignment[1], 2);
    }

    #[test]
    fn evacuate_with_no_live_sibling_is_a_no_op() {
        let config = FleetConfig::regional(2, 10);
        let mut assignment = flat_assignment(&[&[0], &[1]]);
        let queues = loaded_queues(&[3.0, 3.0]);
        let events = evacuate(&config, 0, 0, &mut assignment, &queues, &[true, true]);
        assert!(events.is_empty());
        assert_eq!(assignment[0], 0, "devices stay put");
    }
}
