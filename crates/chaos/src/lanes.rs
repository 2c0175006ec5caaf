//! Lane cursors: fault episodes drawn forward in time, on demand.
//!
//! Every (model, lane) pair of a [`ChaosConfig`] draws its alternating
//! gap/episode lengths from its own sub-stream, in time order. A
//! [`LaneCursor`] holds that stream open: one lane's RNG and its current
//! episode. A run asks for health at non-decreasing slot starts, so a
//! query only moves each cursor past the episodes that have ended: O(1)
//! amortised per lane and slot, where a scan of the compiled
//! [`crate::FaultSchedule`] costs O(events). [`ChaosConfig::compile`]
//! drains the same cursors, so there is one episode generator.
//!
//! Within one lane episodes never overlap (each start is the previous
//! end plus a gap of at least 0, and intervals are half-open), so a lane
//! has at most one active episode. Bandwidth factors come only from
//! all-device lanes, latency spikes and blackouts only from device
//! lanes, and edge factors only from edge lanes; composing the cursors
//! in model order therefore repeats the scan's float operations exactly.
//!
//! A run splits the lanes by who advances them: the lanes every device
//! of an edge shares ([`SharedLanes`]: edge and all-device models) move
//! once per slot on the driver, and each device's own lanes
//! ([`DeviceLanes`]: flaps, spikes, churn) move in its step.

use crate::health::{EdgeHealth, LinkHealth};
use crate::models::ChaosConfig;
use crate::schedule::FaultKind;
use leime_invariant as invariant;
use leime_simnet::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shortest episode a lane emits, in seconds. Guards against degenerate
/// zero-length intervals from extreme exponential draws.
const MIN_EPISODE_S: f64 = 1e-3;

/// One (model, lane) episode stream, advanced forward in time.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneCursor {
    kind: FaultKind,
    rng: StdRng,
    mean_gap: f64,
    mean_episode: f64,
    /// End of the fault window, in seconds; no episode reaches past it.
    window: f64,
    /// Start of the next undrawn episode, in seconds.
    next: f64,
    /// The current episode `[start, end)`, or `None` past the window.
    episode: Option<(SimTime, SimTime)>,
}

impl LaneCursor {
    /// Lane `lane` of model `model` of `config`, over a run of length
    /// `horizon`, positioned on its first episode. The mean gap makes
    /// the long-run active fraction the model's duty cycle, and the
    /// first interval is always a gap, so runs never start mid-fault.
    pub fn new(config: &ChaosConfig, model: usize, lane: usize, horizon: SimTime) -> Self {
        let m = &config.models[model];
        let (duty, mean_episode) = m.duty_mean();
        let mean_gap = mean_episode * (1.0 - duty) / duty;
        let mut rng = StdRng::seed_from_u64(sub_seed(config.seed, model, lane));
        let next = exp_draw(&mut rng, mean_gap);
        let mut cursor = LaneCursor {
            kind: m.kind(),
            rng,
            mean_gap,
            mean_episode,
            window: config.window(horizon).as_secs(),
            next,
            episode: None,
        };
        cursor.episode = cursor.draw();
        cursor
    }

    /// Draws the next episode, clipped to the window.
    fn draw(&mut self) -> Option<(SimTime, SimTime)> {
        while self.next < self.window {
            let start = self.next;
            let len = exp_draw(&mut self.rng, self.mean_episode).max(MIN_EPISODE_S);
            let end = (start + len).min(self.window);
            self.next = end + exp_draw(&mut self.rng, self.mean_gap);
            if end > start {
                return Some((SimTime::from_secs(start), SimTime::from_secs(end)));
            }
        }
        None
    }

    /// Whether an episode is active at `t`. Queries must not go back in
    /// time: the cursor drops every episode that ended by `t`.
    pub fn active_at(&mut self, t: SimTime) -> bool {
        while self.episode.is_some_and(|(_, end)| end <= t) {
            self.episode = self.draw();
        }
        self.episode.is_some_and(|(start, _)| start <= t)
    }

    /// Every remaining episode, in time order.
    pub(crate) fn episodes(mut self) -> impl Iterator<Item = (SimTime, SimTime)> {
        std::iter::from_fn(move || {
            let episode = self.episode?;
            self.episode = self.draw();
            Some(episode)
        })
    }
}

/// What the lanes an edge's devices share say at one instant: the edge
/// server's health and the shared-medium bandwidth factor every link
/// of the edge sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedHealth {
    /// Composed edge-lane health.
    pub edge: EdgeHealth,
    /// Product of active all-device `BandwidthCollapse` factors.
    pub bandwidth_factor: f64,
}

impl SharedHealth {
    /// No shared fault active.
    pub const NOMINAL: SharedHealth = SharedHealth {
        edge: EdgeHealth::NOMINAL,
        bandwidth_factor: 1.0,
    };
}

/// An edge's shared lanes (edge and all-device models), in model order.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedLanes(Vec<LaneCursor>);

impl SharedLanes {
    /// The composed shared health at `t` (non-decreasing across calls).
    pub fn health(&mut self, t: SimTime) -> SharedHealth {
        let mut health = SharedHealth::NOMINAL;
        for lane in &mut self.0 {
            if !lane.active_at(t) {
                continue;
            }
            match lane.kind {
                FaultKind::EdgeOutage => health.edge.up = false,
                FaultKind::EdgeSlowdown { factor } => health.edge.speed_factor *= factor,
                FaultKind::BandwidthCollapse { factor } => health.bandwidth_factor *= factor,
                _ => {}
            }
        }
        // Factors are (0, 1] per episode, so the products stay in (0, 1].
        invariant::check_unit_interval("chaos.edge_health.speed_factor", health.edge.speed_factor);
        invariant::check_unit_interval(
            "chaos.link_health.bandwidth_factor",
            health.bandwidth_factor,
        );
        health
    }
}

impl ChaosConfig {
    /// The lanes every device shares (edge and all-device models), at
    /// the start of a run of length `horizon`.
    pub fn shared_lanes(&self, horizon: SimTime) -> SharedLanes {
        SharedLanes(self.lanes(false, 0, horizon).collect())
    }

    /// Lane `lane` of each model that draws one lane per device (or, for
    /// `!per_device`, of each that does not), in model order, at the
    /// start of a run of length `horizon`.
    fn lanes(
        &self,
        per_device: bool,
        lane: usize,
        horizon: SimTime,
    ) -> impl Iterator<Item = LaneCursor> + '_ {
        (0..self.models.len())
            .filter(move |&m| self.models[m].per_device() == per_device)
            .map(move |m| LaneCursor::new(self, m, lane, horizon))
    }
}

/// One device's own lanes (link flaps, latency spikes, churn), in model
/// order, tagged with the edge whose config they were derived from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceLanes {
    edge: Option<usize>,
    cursors: Vec<LaneCursor>,
}

impl DeviceLanes {
    /// The device's link health at `t` (non-decreasing across calls),
    /// given the edge's `shared` health at `t`, or `None` while the
    /// device is churned out.
    fn health(&mut self, shared: &SharedHealth, t: SimTime) -> Option<LinkHealth> {
        let mut health = LinkHealth {
            bandwidth_factor: shared.bandwidth_factor,
            ..LinkHealth::NOMINAL
        };
        let mut alive = true;
        for lane in &mut self.cursors {
            if !lane.active_at(t) {
                continue;
            }
            match lane.kind {
                FaultKind::LinkBlackout => health.up = false,
                FaultKind::LatencySpike { add_s } => health.extra_latency_s += add_s,
                FaultKind::DeviceChurn => alive = false,
                _ => {}
            }
        }
        // Spikes are non-negative per episode, so the sum stays ≥ 0.
        invariant::check_nonneg("chaos.link_health.extra_latency_s", health.extra_latency_s);
        alive.then_some(health)
    }
}

/// One edge's faults over one run, as a device step reads them: the
/// edge's config, its index and the run's horizon.
#[derive(Debug, Clone, Copy)]
pub struct EdgeChaos<'a> {
    /// The edge's fault config.
    pub config: &'a ChaosConfig,
    /// The edge's index (tags the device lanes derived from `config`).
    pub edge: usize,
    /// The run's length; faults are clipped to it.
    pub horizon: SimTime,
}

impl EdgeChaos<'_> {
    /// Device `device`'s link health at `t` under this edge, given the
    /// edge's `shared` health at `t`; `None` while it is churned out.
    /// Lanes derived for another edge (a device that migrated) are first
    /// re-derived from this edge's config, from t = 0, in place: once
    /// sized, the lanes never allocate again.
    pub fn link_health(
        &self,
        lanes: &mut DeviceLanes,
        device: usize,
        shared: &SharedHealth,
        t: SimTime,
    ) -> Option<LinkHealth> {
        if lanes.edge != Some(self.edge) {
            lanes.edge = Some(self.edge);
            lanes.cursors.clear();
            lanes
                .cursors
                .extend(self.config.lanes(true, device, self.horizon));
        }
        lanes.health(shared, t)
    }
}

/// Mixes (seed, model, lane) into an independent sub-stream seed.
fn sub_seed(seed: u64, model_idx: usize, lane_idx: usize) -> u64 {
    seed ^ (model_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (lane_idx as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Exponential draw with the given mean via inverse-CDF.
fn exp_draw(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -mean * (1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::FaultModel;
    use crate::schedule::FaultSchedule;
    use proptest::prelude::*;

    /// Model `kind` (0..6) with duty, mean length and factor.
    fn model(kind: usize, duty: f64, mean_s: f64, factor: f64) -> FaultModel {
        match kind {
            0 => FaultModel::LinkFlaps {
                duty,
                mean_outage_s: mean_s,
            },
            1 => FaultModel::BandwidthCollapse {
                duty,
                factor,
                mean_episode_s: mean_s,
            },
            2 => FaultModel::LatencySpikes {
                duty,
                add_s: factor * 0.3,
                mean_episode_s: mean_s,
            },
            3 => FaultModel::EdgeBrownout {
                duty,
                factor,
                mean_episode_s: mean_s,
            },
            4 => FaultModel::EdgeOutages {
                duty,
                mean_outage_s: mean_s,
            },
            _ => FaultModel::DeviceChurn {
                duty,
                mean_absence_s: mean_s,
            },
        }
    }

    fn config(seed: u64, models: &[(usize, f64, f64, f64)], window_s: Option<f64>) -> ChaosConfig {
        ChaosConfig {
            seed,
            models: models
                .iter()
                .map(|&(k, duty, mean_s, factor)| model(k, duty, mean_s, factor))
                .collect(),
            window_s,
        }
    }

    /// Asserts that device `i`'s cursor health at `t` is the scan's,
    /// bit for bit.
    fn assert_scan(
        schedule: &FaultSchedule,
        i: usize,
        t: SimTime,
        shared: &SharedHealth,
        link: Option<LinkHealth>,
    ) {
        let edge = schedule.edge_health(t);
        assert_eq!(shared.edge.up, edge.up, "edge up at {t}");
        assert_eq!(
            shared.edge.speed_factor.to_bits(),
            edge.speed_factor.to_bits(),
            "edge speed at {t}"
        );
        assert_eq!(
            link.is_some(),
            schedule.device_alive(i, t),
            "alive {i} at {t}"
        );
        if let Some(link) = link {
            let want = schedule.link_health(i, t);
            assert_eq!(link.up, want.up, "link {i} up at {t}");
            assert_eq!(
                link.bandwidth_factor.to_bits(),
                want.bandwidth_factor.to_bits(),
                "link {i} bandwidth at {t}"
            );
            assert_eq!(
                link.extra_latency_s.to_bits(),
                want.extra_latency_s.to_bits(),
                "link {i} latency at {t}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Cursor health is the compiled schedule's scan at every
        /// (device, slot): all six models, one to three composed, with
        /// and without a window, several slot lengths.
        #[test]
        fn cursor_health_equals_the_schedule_scan(
            seed in 0u64..u64::MAX,
            models in prop::collection::vec((0usize..6, 0.05f64..0.9, 0.2f64..20.0, 0.05f64..1.0), 1..4),
            window_slots in 1usize..150,
            windowed in 0u8..2,
            n in 1usize..17,
            slot_len in 0.1f64..5.0,
            slots in 1usize..120,
        ) {
            // A window on the slot grid ends an episode exactly at a
            // slot start, where the half-open interval must not count.
            let window = window_slots as f64 * slot_len;
            let cfg = config(seed, &models, (windowed == 1).then_some(window));
            let horizon = SimTime::from_secs(slots as f64 * slot_len);
            let schedule = cfg.compile(n, horizon);
            let chaos = EdgeChaos { config: &cfg, edge: 0, horizon };
            let mut shared = cfg.shared_lanes(horizon);
            let mut lanes = vec![DeviceLanes::default(); n];
            for slot in 0..slots {
                let t = SimTime::from_secs(slot as f64 * slot_len);
                let health = shared.health(t);
                for (i, lanes) in lanes.iter_mut().enumerate() {
                    let link = chaos.link_health(lanes, i, &health, t);
                    assert_scan(&schedule, i, t, &health, link);
                }
            }
        }

        /// A device that moves between edges re-derives its lanes from
        /// the new edge's config, and from then on reads that edge's
        /// compiled schedule exactly, whether or not it was there
        /// before.
        #[test]
        fn migrated_lanes_equal_the_new_edges_scan(
            seed in 0u64..u64::MAX,
            models in prop::collection::vec((0usize..6, 0.05f64..0.9, 0.2f64..20.0, 0.05f64..1.0), 1..4),
            moves in prop::collection::vec((0usize..3, 1usize..30), 1..6),
            n in 1usize..9,
        ) {
            let slot_len = 1.0;
            let slots = moves.iter().map(|m| m.1).sum::<usize>();
            let horizon = SimTime::from_secs(slots as f64 * slot_len);
            let cfgs: Vec<ChaosConfig> = (0..3u64)
                .map(|e| config(seed ^ e.wrapping_mul(0x5851_F42D), &models, None))
                .collect();
            let schedules: Vec<FaultSchedule> =
                cfgs.iter().map(|c| c.compile(n, horizon)).collect();
            let edges: Vec<EdgeChaos<'_>> = cfgs
                .iter()
                .enumerate()
                .map(|(edge, config)| EdgeChaos { config, edge, horizon })
                .collect();
            let mut shared: Vec<SharedLanes> =
                cfgs.iter().map(|c| c.shared_lanes(horizon)).collect();
            let mut lanes = vec![DeviceLanes::default(); n];
            let mut slot = 0;
            for &(first, len) in &moves {
                for _ in 0..len {
                    let t = SimTime::from_secs(slot as f64 * slot_len);
                    let health: Vec<SharedHealth> =
                        shared.iter_mut().map(|s| s.health(t)).collect();
                    for (i, lanes) in lanes.iter_mut().enumerate() {
                        // Devices sit on different edges and move together.
                        let e = (first + i) % edges.len();
                        let link = edges[e].link_health(lanes, i, &health[e], t);
                        assert_scan(&schedules[e], i, t, &health[e], link);
                    }
                    slot += 1;
                }
            }
        }
    }

    #[test]
    fn compile_drains_the_cursors() {
        let cfg = config(7, &[(0, 0.3, 4.0, 1.0), (3, 0.5, 10.0, 0.3)], Some(50.0));
        let horizon = SimTime::from_secs(80.0);
        let schedule = cfg.compile(2, horizon);
        // Lane order: model 0's two device lanes, then model 1's edge lane.
        let mut events = schedule.events().iter();
        for (model, lane) in [(0, 0), (0, 1), (1, 0)] {
            for (start, end) in LaneCursor::new(&cfg, model, lane, horizon).episodes() {
                let e = events.next().unwrap();
                assert_eq!((e.start, e.end), (start, end));
                assert!(end <= SimTime::from_secs(50.0));
            }
        }
        assert!(events.next().is_none());
    }

    #[test]
    fn rederiving_for_the_same_edge_keeps_the_cursors() {
        let cfg = config(3, &[(0, 0.4, 2.0, 1.0)], None);
        let horizon = SimTime::from_secs(100.0);
        let chaos = EdgeChaos {
            config: &cfg,
            edge: 2,
            horizon,
        };
        let mut lanes = DeviceLanes::default();
        chaos.link_health(
            &mut lanes,
            0,
            &SharedHealth::NOMINAL,
            SimTime::from_secs(40.0),
        );
        let advanced = lanes.clone();
        assert_ne!(advanced.cursors[0], LaneCursor::new(&cfg, 0, 0, horizon));
        chaos.link_health(
            &mut lanes,
            0,
            &SharedHealth::NOMINAL,
            SimTime::from_secs(40.0),
        );
        assert_eq!(lanes, advanced);
    }
}
