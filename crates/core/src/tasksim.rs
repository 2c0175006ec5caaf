use leime_chaos::{EdgeHealth, FaultSchedule, LinkHealth};
use leime_offload::{
    kkt_allocation_with_floor, DegradeState, DeviceParams, OffloadController, SlotObservation,
};
use leime_par::{Rng, StdRng};
use leime_simnet::{EventQueue, FifoServer, Link, SimTime};

use crate::{Deployment, Result, RunReport, Scenario, WorkloadKind};

/// One in-flight inference task.
#[derive(Debug, Clone, Copy)]
struct Task {
    born: SimTime,
    /// Predetermined exit tier (0 = First-exit, 1 = Second, 2 = Third),
    /// sampled from the deployment's exit probabilities at creation.
    tier: usize,
    /// True when the task was offloaded raw and the edge must run the
    /// first block too.
    needs_first_block: bool,
}

#[derive(Debug)]
enum Event {
    /// A new task materialises at device `dev`; the handler draws the next
    /// arrival.
    Arrival { dev: usize },
    /// Device finished the first block of a local task.
    DeviceDone { dev: usize, task: Task },
    /// A task's data finished crossing the device→edge link.
    EdgeArrive { dev: usize, task: Task },
    /// The edge share finished its blocks for the task.
    EdgeDone { task: Task },
    /// A task's intermediate data reached the cloud.
    CloudArrive { task: Task },
    /// The cloud finished the third block.
    CloudDone { task: Task },
    /// Slot boundary: refresh shares and offloading decisions.
    SlotTick,
}

/// End-to-end task-level discrete-event simulation: individual tasks flow
/// through device servers, serializing WiFi links, per-device edge shares,
/// the edge→cloud link and the cloud GPU, exiting early according to the
/// deployment's exit probabilities.
///
/// Unlike [`crate::SlottedSystem`] (the paper's analytic queueing model),
/// every queueing interaction here is simulated explicitly, so the two can
/// cross-validate each other (see `tests/integration_end_to_end.rs`).
#[derive(Debug)]
pub struct TaskSim {
    scenario: Scenario,
    deployment: Deployment,
    controller: Box<dyn OffloadController>,
    /// Per-device bursty state machines (populated for `Bursty` workloads);
    /// advanced once per slot tick.
    mmpp: Vec<leime_workload::Mmpp>,
    /// Current per-device arrival means (refreshed at each slot tick).
    current_means: Vec<f64>,
}

impl TaskSim {
    /// Builds the simulation for a scenario and deployment.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid scenarios.
    pub fn new(scenario: Scenario, deployment: Deployment) -> Result<Self> {
        scenario.validate()?;
        let controller = scenario.controller.build();
        let mmpp = match &scenario.workload {
            WorkloadKind::Bursty {
                burst_factor,
                p_enter,
                p_leave,
                max,
            } => scenario
                .devices
                .iter()
                .map(|d| {
                    leime_workload::Mmpp::new(
                        d.arrival_mean,
                        d.arrival_mean * burst_factor,
                        *p_enter,
                        *p_leave,
                        *max,
                    )
                })
                .collect(),
            _ => Vec::new(),
        };
        let current_means = scenario.devices.iter().map(|d| d.arrival_mean).collect();
        Ok(TaskSim {
            scenario,
            deployment,
            controller,
            mmpp,
            current_means,
        })
    }

    /// Runs the simulation: arrivals are generated for `horizon_s`
    /// simulated seconds and every generated task is carried to
    /// completion.
    ///
    /// # Errors
    ///
    /// Propagates deployment sampling errors (cannot occur for deployments
    /// built by this crate).
    pub fn run(&mut self, horizon_s: f64, seed: u64) -> Result<RunReport> {
        let scenario = self.scenario.clone();
        let dep = self.deployment.clone();
        let scenario = &scenario;
        let dep = &dep;
        let shared = self.scenario.shared_params(&self.deployment);
        let n = scenario.devices.len();
        let horizon = SimTime::from_secs(horizon_s);
        let mut rng = leime_par::stream_rng(seed, 0);
        let mut report = RunReport::new();
        let schedule: Option<FaultSchedule> =
            scenario.chaos.as_ref().map(|c| c.compile(n, horizon));
        let mut degrade = vec![DegradeState::new(); n];
        let mut slot_idx: u64 = 0;
        // Transmission-level health at an instant: can `dev` reach the
        // edge right now?
        let edge_reachable = |dev: usize, t: SimTime| match &schedule {
            Some(s) => s.link_health(dev, t).up && s.edge_health(t).up,
            None => true,
        };

        let mut device_servers: Vec<FifoServer> = scenario
            .devices
            .iter()
            .map(|d| FifoServer::new(d.flops))
            .collect();
        let mut dev_links: Vec<Link> = scenario
            .devices
            .iter()
            .map(|d| Link::new(d.bandwidth_bps, SimTime::from_secs(d.latency_s), true))
            .collect();
        let mut edge_shares: Vec<FifoServer> = (0..n)
            .map(|_| FifoServer::new((scenario.edge_flops / n as f64).max(1.0)))
            .collect();
        let mut cloud = FifoServer::new(scenario.cloud_flops);
        let mut cloud_link = Link::new(
            scenario.cloud_bandwidth_bps,
            SimTime::from_secs(scenario.cloud_latency_s),
            true,
        );

        let mut x = vec![0.0f64; n];
        let mut shares = vec![1.0 / n as f64; n];
        let mut queue = EventQueue::new();

        // Prime arrivals and the slot clock.
        for dev in 0..n {
            let gap = self.arrival_gap(dev, SimTime::ZERO, &mut rng);
            queue.schedule_at(gap, Event::Arrival { dev });
        }
        queue.schedule_at(SimTime::ZERO, Event::SlotTick);

        while let Some((now, event)) = queue.pop() {
            match event {
                Event::SlotTick => {
                    self.refresh_means(now, &mut rng);
                    let means: Vec<f64> = self.current_means.clone();
                    let flops: Vec<f64> = scenario.devices.iter().map(|d| d.flops).collect();
                    shares = kkt_allocation_with_floor(
                        &flops,
                        &means,
                        scenario.edge_flops,
                        crate::slotted::share_floor(flops.len()),
                    );
                    let edge = match &schedule {
                        Some(s) => s.edge_health(now),
                        None => EdgeHealth::NOMINAL,
                    };
                    for i in 0..n {
                        let (link, alive) = match &schedule {
                            Some(s) => (s.link_health(i, now), s.device_alive(i, now)),
                            None => (LinkHealth::NOMINAL, true),
                        };
                        if !alive {
                            report.record_churn_slot();
                            x[i] = 0.0;
                            continue;
                        }
                        if !link.is_nominal() || !edge.is_nominal() {
                            report.record_fault_slot();
                        }
                        let rate = (shares[i] * scenario.edge_flops * edge.speed_factor).max(1.0);
                        edge_shares[i].set_rate(rate);
                        let bandwidth = scenario.bandwidth_at(i, now) * link.bandwidth_factor;
                        dev_links[i].set_bandwidth(bandwidth);
                        dev_links[i].set_latency(SimTime::from_secs(
                            scenario.devices[i].latency_s + link.extra_latency_s,
                        ));
                        // Queue estimates from server backlogs (in
                        // first-block task equivalents).
                        let q = device_servers[i].backlog(now).as_secs()
                            * scenario.devices[i].flops
                            / shared.mu1;
                        let h = edge_shares[i].backlog(now).as_secs() * rate / shared.mu1;
                        let dev_params = DeviceParams {
                            arrival_mean: means[i],
                            bandwidth_bps: bandwidth,
                            latency_s: scenario.devices[i].latency_s + link.extra_latency_s,
                            ..scenario.devices[i]
                        };
                        let x_opt = self.controller.decide(
                            shared,
                            dev_params,
                            SlotObservation {
                                q,
                                h,
                                p_share: shares[i].clamp(0.0, 1.0),
                            },
                        );
                        let outcome = degrade[i].degraded_decide(
                            &scenario.degrade,
                            slot_idx,
                            link.up && edge.up,
                            x_opt,
                        );
                        x[i] = outcome.x;
                        report.record_degrade(&outcome);
                        report.record_offload(x[i]);
                        report.record_queues(q, h);
                    }
                    slot_idx += 1;
                    let next = now + SimTime::from_secs(scenario.slot_len_s);
                    if next < horizon {
                        queue.schedule_at(next, Event::SlotTick);
                    }
                }
                Event::Arrival { dev } => {
                    let alive = match &schedule {
                        Some(s) => s.device_alive(dev, now),
                        None => true,
                    };
                    if alive {
                        let task = Task {
                            born: now,
                            tier: dep.tier_for_draw(rng.gen_range(0.0..1.0))?,
                            needs_first_block: false,
                        };
                        report.record_service(1, 0.0);
                        // Offloading needs the edge to be reachable *now* —
                        // the slot decision may predate a mid-slot blackout.
                        if rng.gen_bool(x[dev].clamp(0.0, 1.0)) && edge_reachable(dev, now) {
                            // Offload raw input to the edge.
                            let task = Task {
                                needs_first_block: true,
                                ..task
                            };
                            let arrive = dev_links[dev].transfer(now, dep.d[0]);
                            queue.schedule_at(arrive, Event::EdgeArrive { dev, task });
                        } else {
                            let done = device_servers[dev].submit(now, dep.mu[0]);
                            queue.schedule_at(done, Event::DeviceDone { dev, task });
                        }
                    }
                    // Next arrival for this device (a churned-out device
                    // generates nothing but will resume arrivals later).
                    let next = now + self.arrival_gap(dev, now, &mut rng);
                    if next < horizon {
                        queue.schedule_at(next, Event::Arrival { dev });
                    }
                }
                Event::DeviceDone { dev, task } => {
                    if task.tier == 0 || !edge_reachable(dev, now) {
                        // Done at the First-exit — either by design, or
                        // degraded: the uplink is dark, so the device
                        // settles for its local early-exit answer.
                        report.record_tct(now, (now - task.born).as_secs());
                        report.record_tier(0);
                        report.record_service(0, 1.0);
                    } else {
                        let arrive = dev_links[dev].transfer(now, dep.d[1]);
                        queue.schedule_at(arrive, Event::EdgeArrive { dev, task });
                    }
                }
                Event::EdgeArrive { dev, task } => {
                    let mut work = 0.0;
                    if task.needs_first_block {
                        work += dep.mu[0];
                    }
                    if task.tier >= 1 {
                        work += dep.mu[1];
                    }
                    let done = edge_shares[dev].submit(now, work);
                    queue.schedule_at(done, Event::EdgeDone { task });
                }
                Event::EdgeDone { task } => {
                    if task.tier <= 1 {
                        report.record_tct(now, (now - task.born).as_secs());
                        report.record_tier(task.tier);
                        report.record_service(0, 1.0);
                    } else {
                        let arrive = cloud_link.transfer(now, dep.d[2]);
                        queue.schedule_at(arrive, Event::CloudArrive { task });
                    }
                }
                Event::CloudArrive { task } => {
                    let done = cloud.submit(now, dep.mu[2]);
                    queue.schedule_at(done, Event::CloudDone { task });
                }
                Event::CloudDone { task } => {
                    report.record_tct(now, (now - task.born).as_secs());
                    report.record_tier(2);
                    report.record_service(0, 1.0);
                }
            }
        }
        Ok(report)
    }

    /// Refreshes the per-device arrival means for the slot starting at
    /// `t` (advancing MMPP state machines for bursty workloads).
    fn refresh_means(&mut self, t: SimTime, rng: &mut StdRng) {
        for i in 0..self.scenario.devices.len() {
            self.current_means[i] = match &self.scenario.workload {
                WorkloadKind::RateTrace { trace, .. } => trace.value_at(t),
                WorkloadKind::Bursty { .. } => {
                    // One MMPP transition per slot; the state's mean is
                    // this slot's arrival rate (the DES samples its own
                    // Poisson arrivals from it).
                    self.mmpp[i].advance_mean(rng)
                }
                _ => self.scenario.devices[i].arrival_mean,
            };
        }
    }

    /// Exponential inter-arrival gap matching the current per-slot mean.
    fn arrival_gap(&self, dev: usize, _now: SimTime, rng: &mut StdRng) -> SimTime {
        let mean_per_slot = self.current_means[dev].max(1e-9);
        let rate_per_sec = mean_per_slot / self.scenario.slot_len_s;
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        SimTime::from_secs(-u.ln() / rate_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControllerKind, ExitStrategy, ModelKind};

    fn scenario() -> Scenario {
        Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, 2, 5.0)
    }

    fn run_des(controller: ControllerKind, horizon: f64, seed: u64) -> RunReport {
        let mut s = scenario();
        s.controller = controller;
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        s.run_des(&dep, horizon, seed).unwrap()
    }

    #[test]
    fn completes_all_generated_tasks() {
        let r = run_des(ControllerKind::Lyapunov, 50.0, 1);
        // 2 devices x 5 tasks/slot x 50 slots ≈ 500 tasks.
        assert!(r.tasks() > 300, "tasks {}", r.tasks());
        assert!(r.mean_tct_s() > 0.0 && r.mean_tct_s().is_finite());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_des(ControllerKind::Lyapunov, 20.0, 9);
        let b = run_des(ControllerKind::Lyapunov, 20.0, 9);
        assert_eq!(a.tasks(), b.tasks());
        assert!((a.mean_tct_s() - b.mean_tct_s()).abs() < 1e-15);
    }

    #[test]
    fn tier_fractions_match_sigma() {
        let s = scenario();
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let r = s.run_des(&dep, 100.0, 3).unwrap();
        let frac = r.tiers().first_fraction();
        assert!(
            (frac - dep.sigma[0]).abs() < 0.07,
            "first-exit fraction {frac} vs sigma1 {}",
            dep.sigma[0]
        );
    }

    #[test]
    fn early_exit_beats_no_early_exit() {
        // LEIME's deployment vs Neurosurgeon's exit-free one, same
        // controller: early exits must cut mean TCT.
        let s = scenario();
        let leime = s.deploy(ExitStrategy::Leime).unwrap();
        let ns = s.deploy(ExitStrategy::Neurosurgeon).unwrap();
        let r_leime = s.run_des(&leime, 60.0, 4).unwrap();
        let r_ns = s.run_des(&ns, 60.0, 4).unwrap();
        assert!(
            r_leime.mean_tct_s() < r_ns.mean_tct_s(),
            "leime {} >= neurosurgeon {}",
            r_leime.mean_tct_s(),
            r_ns.mean_tct_s()
        );
    }

    #[test]
    fn blackouts_degrade_to_local_first_exit() {
        let mut s = scenario();
        s.chaos = Some(leime_chaos::ChaosConfig {
            seed: 3,
            models: vec![leime_chaos::FaultModel::LinkFlaps {
                duty: 0.95,
                mean_outage_s: 20.0,
            }],
            window_s: None,
        });
        s.controller = ControllerKind::EdgeOnly;
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let r = s.run_des(&dep, 60.0, 8).unwrap();
        // Even an offload-everything policy ends up mostly First-exit
        // local when the uplink is dark ~95% of the time.
        assert!(r.tasks() > 100);
        assert!(
            r.tiers().first_fraction() > 0.7,
            "first fraction {}",
            r.tiers().first_fraction()
        );
        let f = r.fault_stats();
        assert!(f.fault_slots > 0 && f.timeouts > 0 && f.fallbacks > 0);
        assert!(r.completion_rate() > 0.99, "{}", r.completion_rate());
    }

    #[test]
    fn churned_devices_generate_no_tasks() {
        let mut s = scenario();
        s.chaos = Some(leime_chaos::ChaosConfig {
            seed: 5,
            models: vec![leime_chaos::FaultModel::DeviceChurn {
                duty: 0.9,
                mean_absence_s: 30.0,
            }],
            window_s: None,
        });
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let faulted = s.run_des(&dep, 60.0, 8).unwrap();
        s.chaos = None;
        let clean = s.run_des(&dep, 60.0, 8).unwrap();
        assert!(faulted.fault_stats().churn_slots > 0);
        assert!(
            (faulted.tasks() as f64) < 0.5 * clean.tasks() as f64,
            "churn {} vs clean {}",
            faulted.tasks(),
            clean.tasks()
        );
    }

    #[test]
    fn chaos_des_is_deterministic_per_seed() {
        let s = Scenario::chaos_testbed(ModelKind::SqueezeNet, 2, 21, 30.0);
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let a = s.run_des(&dep, 60.0, 4).unwrap();
        let b = s.run_des(&dep, 60.0, 4).unwrap();
        assert_eq!(a.tasks(), b.tasks());
        assert_eq!(a.fault_stats(), b.fault_stats());
        assert!((a.mean_tct_s() - b.mean_tct_s()).abs() < 1e-15);
    }

    #[test]
    fn offloading_helps_overloaded_devices() {
        let mut s = scenario();
        for d in &mut s.devices {
            d.arrival_mean = 25.0;
        }
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        s.controller = ControllerKind::Lyapunov;
        let ly = s.run_des(&dep, 60.0, 5).unwrap();
        s.controller = ControllerKind::DeviceOnly;
        let d_only = s.run_des(&dep, 60.0, 5).unwrap();
        assert!(ly.mean_tct_s() < d_only.mean_tct_s());
    }
}
