//! The benchmark's workloads. Each one is a batch simulation run from
//! one process, one run at a time (a closed loop with one client); load
//! is set in simulated time. The seed fixes every input.

use std::num::NonZeroUsize;

use leime::{
    ExitStrategy, ModelKind, RunReport, Scenario, SlottedSystem, WorkloadKind, DEFAULT_EPOCH_LEN,
};
use leime_fleet::{FleetConfig, FleetReport, FleetSystem};
use leime_par::split_mix64;
use leime_serving::{
    flash_brownout_testbed, ServingConfig, ServingReport, ServingSystem, SlaClass, SlaPolicy,
};
use leime_telemetry::{Clock, Registry, WallClock};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["slotted_poisson", "fleet_rebalance", "serving_flash"];

const SLOTTED_DEVICES: usize = 256;
const SLOTTED_SLOTS: usize = 1000;
const FLEET_DEVICES: usize = 8_000;
const FLEET_EDGES: usize = 16;
const FLEET_SLOTS: usize = 40;
const SERVING_DEVICES: usize = 64;
const SERVING_SLOTS: usize = 1000;
/// Offered load of the serving workload, as a multiple of the testbed's
/// nominal rate: a true overload where admission must shed.
const SERVING_LOAD: f64 = 2.0;
/// Devices the serving testbed's edge capacity is calibrated for.
const SERVING_TESTBED_DEVICES: usize = 4;

/// Least wall time of back-to-back set-ups per set-up sample: one set-up
/// takes tens of microseconds on the small workloads, too short to time
/// alone on a shared host.
const SETUP_BLOCK_S: f64 = 0.005;

/// Registry prefix for the fleet and serving workloads' telemetry.
pub const PREFIX: &str = "bench";

/// The system each workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `SlottedSystem`, one worker, no registry, no chaos.
    SlottedPoisson,
    /// `FleetSystem::run_with_registry` at two workers, a regional
    /// boundary every slot.
    FleetRebalance,
    /// `ServingSystem::run` with a registry under a flash crowd over an
    /// edge brownout.
    ServingFlash,
}

/// A workload with its inputs fixed by the seed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which system it drives.
    pub kind: Kind,
    /// Its name, one of [`NAMES`].
    pub name: &'static str,
    /// The workload seed (run seed, and where it applies, chaos and
    /// assignment seeds).
    pub seed: u64,
    /// The scenario handed to the system (for a fleet, the template).
    pub scenario: Scenario,
    /// Simulated slots per run.
    pub slots: usize,
    /// Worker threads the workload runs at.
    pub workers: NonZeroUsize,
    /// The regional tier (fleet workload only).
    pub fleet: Option<FleetConfig>,
    /// Traffic, SLA, admission and steering (serving workload only).
    pub serving: Option<ServingConfig>,
}

/// The system under test, freshly set up. One lives at a time, so the
/// variants' size difference costs nothing worth a box.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum System {
    /// A single-edge slotted system.
    Slotted(SlottedSystem),
    /// A multi-edge fleet.
    Fleet(FleetSystem),
    /// The online serving runtime.
    Serving(ServingSystem),
}

/// A run's report, kept for the output checks.
#[derive(Debug)]
pub enum Report {
    /// From a slotted run.
    Slotted(RunReport),
    /// From a fleet run.
    Fleet(FleetReport),
    /// From a serving run.
    Serving(ServingReport),
}

impl Report {
    /// The report's deterministic serialization.
    pub fn to_json(&self) -> String {
        match self {
            Report::Slotted(r) => to_json(r),
            Report::Fleet(r) => to_json(r),
            Report::Serving(r) => to_json(r),
        }
    }

    /// Whether two reports serialize to the same bytes. A fleet report
    /// is compared piece by piece (every edge-interval report on its
    /// own), which keeps the serializer's value tree small.
    pub fn identical(&self, other: &Report) -> bool {
        match (self, other) {
            (Report::Fleet(a), Report::Fleet(b)) => {
                a.devices == b.devices
                    && a.edges == b.edges
                    && a.final_assignment == b.final_assignment
                    && to_json(&a.migrations) == to_json(&b.migrations)
                    && a.intervals.len() == b.intervals.len()
                    && a.intervals.iter().zip(&b.intervals).all(|(x, y)| {
                        x.start_slot == y.start_slot
                            && x.slots == y.slots
                            && x.down_edges == y.down_edges
                            && x.edges.len() == y.edges.len()
                            && x.edges
                                .iter()
                                .zip(&y.edges)
                                .all(|(r, s)| to_json(r) == to_json(s))
                    })
            }
            _ => self.to_json() == other.to_json(),
        }
    }

    /// Completed tasks (admitted requests, for serving).
    pub fn tasks(&self) -> u64 {
        match self {
            Report::Slotted(r) => r.tasks() as u64,
            Report::Fleet(r) => r.tasks() as u64,
            Report::Serving(r) => r.admitted_total(),
        }
    }

    /// Mean simulated completion time of completed tasks, in seconds.
    pub fn sim_tct_s(&self) -> f64 {
        match self {
            Report::Slotted(r) => r.mean_tct_s(),
            Report::Fleet(r) => r.mean_tct_s(),
            Report::Serving(r) => {
                let (sum, count) = r.classes.iter().fold((0.0, 0u64), |(s, c), k| {
                    (s + k.tct_s.sum(), c + k.tct_s.count())
                });
                sum / count.max(1) as f64
            }
        }
    }

    /// Share of tasks finishing within the latency-critical deadline.
    /// Serving judges its latency-critical class and counts shed
    /// requests as misses; the slotted and fleet systems have no
    /// classes, so every task is judged against that deadline.
    pub fn lc_hit_rate(&self) -> f64 {
        let deadline = lc_deadline_s();
        match self {
            Report::Slotted(r) => r.fraction_within(deadline),
            Report::Fleet(r) => {
                let (hits, tasks) = fleet_runs(r).fold((0.0, 0usize), |(h, t), run| {
                    (
                        h + run.fraction_within(deadline) * run.tasks() as f64,
                        t + run.tasks(),
                    )
                });
                hits / tasks.max(1) as f64
            }
            Report::Serving(r) => r.class(SlaClass::LatencyCritical).hit_rate(),
        }
    }

    /// Simulated p99 completion time: of latency-critical requests for
    /// serving, of all tasks otherwise.
    pub fn lc_p99_s(&self) -> f64 {
        match self {
            Report::Slotted(r) => r.p99_tct_s(),
            Report::Fleet(r) => {
                // The per-edge histograms are not exposed; the worst
                // edge-interval p99 bounds the fleet's from above.
                fleet_runs(r).map(RunReport::p99_tct_s).fold(0.0, f64::max)
            }
            Report::Serving(r) => r.class(SlaClass::LatencyCritical).p99().unwrap_or(f64::NAN),
        }
    }
}

fn to_json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("reports serialize")
}

/// Every per-edge, per-interval run report of a fleet run.
pub fn fleet_runs(r: &FleetReport) -> impl Iterator<Item = &RunReport> {
    r.intervals.iter().flat_map(|iv| iv.edges.iter())
}

/// The latency-critical deadline of the default serving SLA.
fn lc_deadline_s() -> f64 {
    SlaPolicy::default().deadline_for(SlaClass::LatencyCritical)
}

/// A uniform draw in `[0, 1)` from the seed, for the one input a
/// workload varies by hand.
fn unit_draw(seed: u64, stream: u64) -> f64 {
    let mut state = leime_par::stream_seed(seed, stream);
    (split_mix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64
}

impl Workload {
    /// Builds the named workload's inputs from `seed`.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let one = NonZeroUsize::MIN;
        let two = NonZeroUsize::new(2).expect("non-zero");
        Some(match name {
            "slotted_poisson" => {
                // Poisson counts give every device different queue bits
                // every slot, so every device-slot runs the solver. The
                // Pi-cluster preset runs the Lyapunov controller.
                let scenario =
                    Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, SLOTTED_DEVICES, 5.0);
                Workload {
                    kind: Kind::SlottedPoisson,
                    name: NAMES[0],
                    seed,
                    scenario,
                    slots: SLOTTED_SLOTS,
                    workers: one,
                    fleet: None,
                    serving: None,
                }
            }
            "fleet_rebalance" => {
                // Identical devices with identical deterministic
                // arrivals present identical decision inputs, so each
                // shard-slot solves once and the regional boundary
                // dominates. Those inputs leave the seed nothing to
                // draw, so it sets the per-edge capacity within ±1% of
                // the default 12 GFLOPS (plus the assignment and run
                // seeds, which identical devices make moot).
                let mut scenario =
                    Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, FLEET_DEVICES, 5.0);
                scenario.workload = WorkloadKind::Deterministic;
                scenario.edge_flops *= 0.99 + 0.02 * unit_draw(seed, 0);
                let mut config = FleetConfig::regional(FLEET_EDGES, 1);
                config.assign_seed = seed;
                Workload {
                    kind: Kind::FleetRebalance,
                    name: NAMES[1],
                    seed,
                    scenario,
                    slots: FLEET_SLOTS,
                    workers: two,
                    fleet: Some(config),
                    serving: None,
                }
            }
            "serving_flash" => {
                let (mut scenario, config) = flash_brownout_testbed(
                    ModelKind::SqueezeNet,
                    SERVING_DEVICES,
                    seed,
                    SERVING_LOAD,
                );
                // Scale the edge with the fleet so per-device load
                // matches the 4-device testbed, and stretch the
                // brownout window over the whole horizon.
                scenario.edge_flops *= (SERVING_DEVICES / SERVING_TESTBED_DEVICES) as f64;
                if let Some(chaos) = &mut scenario.chaos {
                    chaos.window_s = Some(SERVING_SLOTS as f64 * scenario.slot_len_s);
                }
                Workload {
                    kind: Kind::ServingFlash,
                    name: NAMES[2],
                    seed,
                    scenario,
                    slots: SERVING_SLOTS,
                    workers: one,
                    fleet: None,
                    serving: Some(config),
                }
            }
            _ => return None,
        })
    }

    /// Simulated devices × slots of one run.
    pub fn device_slots(&self) -> f64 {
        (self.scenario.devices.len() * self.slots) as f64
    }

    /// Whether the workload records into a telemetry registry.
    pub fn uses_registry(&self) -> bool {
        self.kind != Kind::SlottedPoisson
    }

    /// Set-up: the exit setting (`Scenario::deploy`) plus system
    /// construction (`ServingSystem::new` runs its own per-class exit
    /// setting, `steer_exits`).
    pub fn setup(&self) -> leime::Result<System> {
        Ok(match self.kind {
            Kind::SlottedPoisson => {
                let deployment = self.scenario.deploy(ExitStrategy::Leime)?;
                System::Slotted(SlottedSystem::new(self.scenario.clone(), deployment)?)
            }
            Kind::FleetRebalance => {
                let deployment = self.scenario.deploy(ExitStrategy::Leime)?;
                let config = self.fleet.clone().expect("fleet workload has a config");
                System::Fleet(FleetSystem::new(self.scenario.clone(), deployment, config)?)
            }
            Kind::ServingFlash => {
                let config = self.serving.clone().expect("serving workload has a config");
                System::Serving(ServingSystem::new(self.scenario.clone(), config)?)
            }
        })
    }

    /// Runs the workload once on a freshly set-up `system` at `workers`,
    /// recording into `registry` when given. Returns the report and the
    /// run's wall time in seconds.
    pub fn run(
        &self,
        system: &mut System,
        workers: NonZeroUsize,
        registry: Option<&Registry>,
    ) -> leime::Result<(Report, f64)> {
        let clock = WallClock::new();
        let report = match system {
            System::Slotted(sys) => {
                if let Some(reg) = registry {
                    sys.attach_registry(reg, PREFIX);
                }
                Report::Slotted(sys.run_with_workers(self.slots, self.seed, workers)?)
            }
            System::Fleet(fleet) => Report::Fleet(match registry {
                Some(reg) => fleet.run_with_registry(
                    self.slots,
                    self.seed,
                    workers,
                    DEFAULT_EPOCH_LEN,
                    reg,
                    PREFIX,
                )?,
                None => fleet.run_with_workers(self.slots, self.seed, workers)?,
            }),
            System::Serving(sys) => {
                if let Some(reg) = registry {
                    sys.attach_registry(reg, PREFIX);
                }
                Report::Serving(sys.run(self.slots, self.seed)?)
            }
        };
        Ok((report, clock.now()))
    }

    /// Sets up the workload back to back for at least
    /// [`SETUP_BLOCK_S`] (and at least twice), then runs the last system
    /// as defined: at its own worker count, with a fresh registry when it
    /// uses one. Returns the report and the timings.
    pub fn setup_and_run(&self) -> leime::Result<(Report, Timing)> {
        let clock = WallClock::new();
        let mut system = self.setup()?;
        let mut setups = 1;
        while setups < 2 || clock.now() < SETUP_BLOCK_S {
            system = self.setup()?;
            setups += 1;
        }
        let setup_s = clock.now() / f64::from(setups);
        let registry = Registry::new();
        let (report, wall_s) = self.run(
            &mut system,
            self.workers,
            self.uses_registry().then_some(&registry),
        )?;
        let timing = Timing { setup_s, wall_s };
        Ok((report, timing))
    }
}

/// Wall times of one set-up block and run.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Mean wall time of one set-up in the block, in seconds.
    pub setup_s: f64,
    /// Wall time of the run, in seconds.
    pub wall_s: f64,
}
