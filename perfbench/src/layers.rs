//! The traced run: times the benchmark's own calls into each layer's
//! public functions with `Tracer<WallClock>` spans and derives the
//! per-layer metrics from the span durations. Nothing inside the
//! program is instrumented; spans stay in memory and go into the
//! record when the run ends.
//!
//! Every layer is probed on every workload, on that workload's own
//! scenario and recorded decision inputs, so each metric is measured
//! wherever it is reported. Which workload's end-to-end figures each
//! metric should move is listed in `perfbench/README.md`.

use std::hint::black_box;
use std::num::NonZeroUsize;

use leime::{
    Deployment, ExitStrategy, RunReport, Scenario, SlottedSystem, WorkloadKind, DEFAULT_EPOCH_LEN,
};
use leime_chaos::ChaosConfig;
use leime_fleet::{FleetConfig, FleetSystem};
use leime_offload::{
    kkt_allocation_with_floor, DeviceParams, LyapunovController, OffloadController, QueuePair,
    SharedParams, SlotObservation,
};
use leime_serving::{admit, steer_exits, AdmissionPolicy, SteerPolicy};
use leime_simnet::SimTime;
use leime_telemetry::{Registry, SpanRecord, Tracer, WallClock};
use serde_json::{json, Value};

use crate::workloads::{Kind, Report, Workload, PREFIX};
use crate::{sample_summary, stats, Outcome, MIB};

/// Timed repetitions of each whole-run probe.
const REPS: usize = 3;
/// Repetitions of each set-up probe.
const SETUP_REPS: usize = 5;
/// Decisions replayed per solver probe.
const MAX_REPLAY: usize = 1 << 16;

/// Peak resident memory of this process so far (`VmHWM` in
/// `/proc/self/status`), in bytes; NaN where that is unavailable.
pub fn peak_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0)
}

/// Flag of the hidden mode in which the benchmark sets up and runs one
/// workload once and prints its own peak memory ([`rss_probe`]).
pub const RSS_PROBE_FLAG: &str = "--rss-probe";

/// The hidden memory-probe mode: sets up and runs `w` once, with or
/// without a registry, and prints this process's peak memory in bytes.
pub fn rss_probe(w: &Workload, registry: bool) -> Result<(), String> {
    let mut system = w.setup().map_err(|e| e.to_string())?;
    let reg = Registry::new();
    let (report, _) = w
        .run(&mut system, w.workers, registry.then_some(&reg))
        .map_err(|e| e.to_string())?;
    crate::check_report(&report)?;
    println!("{}", peak_rss_bytes());
    Ok(())
}

/// Peak memory of a fresh process that sets up and runs `w` once, with
/// or without a registry, in bytes.
fn child_peak_rss(w: &Workload, registry: bool) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args([
            RSS_PROBE_FLAG,
            w.name,
            &w.seed.to_string(),
            if registry { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("memory probe did not start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match (output.status.success(), stdout.trim().parse::<f64>()) {
        (true, Ok(bytes)) if bytes.is_finite() => Ok(bytes),
        _ => Err(format!(
            "memory probe failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

/// One recorded decision input of the workload.
#[derive(Debug, Clone, Copy)]
struct Decision {
    shared: SharedParams,
    device: DeviceParams,
    obs: SlotObservation,
}

/// The traced run's state: the tracer, the workload and the outcome
/// being filled in.
struct Probe<'w> {
    tracer: Tracer<WallClock>,
    w: &'w Workload,
    out: Outcome,
}

impl Probe<'_> {
    /// Runs `f` inside a span named `name`.
    fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _span = self.tracer.span(name);
        f()
    }

    /// Durations of every span named `name`, in seconds.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.tracer
            .records()
            .iter()
            .filter(|r| r.name == name)
            .map(SpanRecord::duration)
            .collect()
    }

    /// Median duration of the spans named `name`, in seconds.
    fn median_s(&self, name: &str) -> f64 {
        stats::median(&self.durations(name)).unwrap_or(f64::NAN)
    }

    /// Counts one run of the program; a failed `check` fails it.
    fn attempt(&mut self, check: Result<(), String>) {
        self.out.attempted += 1;
        if let Err(why) = check {
            self.out.fail(why);
        }
    }

    /// Runs one probe of the program, counting it; an error fails it.
    fn run<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.out.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.out.fail(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// The traced per-layer run of `w`.
pub fn traced(w: &Workload) -> Outcome {
    let mut p = Probe {
        tracer: Tracer::new(WallClock::new()),
        w,
        out: Outcome::default(),
    };
    if let Err(e) = probe_all(&mut p) {
        p.out.fail(e);
    }
    let spans: Vec<Value> = p
        .tracer
        .records()
        .iter()
        .map(|r| json!({"name": r.name.clone(), "start": r.start, "end": r.end}))
        .collect();
    p.out.detail.insert("spans".into(), Value::Array(spans));
    p.out
}

fn probe_all(p: &mut Probe<'_>) -> Result<(), String> {
    let w = p.w;
    let deployment = probe_exitcfg(p)?;

    // The workload as defined, untraced and with spans around its set-up
    // and run, alternating after one warm-up run; `trace.overhead_ratio`
    // is their throughput ratio.
    p.run("warm-up run", w.setup_and_run());
    let mut plain = Vec::new();
    let mut main = None;
    for _ in 0..REPS {
        if let Some((_, timing)) = p.run("workload run", w.setup_and_run()) {
            plain.push(timing.wall_s);
        }
        let registry = Registry::new();
        let reg = w.uses_registry().then_some(&registry);
        let Some(mut system) = p.run("workload set-up", p.span("workload.setup", || w.setup()))
        else {
            continue;
        };
        let run = p.span("workload.run", || w.run(&mut system, w.workers, reg));
        if let Some((report, _)) = p.run("workload run", run) {
            main = Some(report);
        }
    }
    let main = main.ok_or("no traced run completed")?;
    crate::check_report(&main)?;
    let plain_wall = stats::median(&plain).ok_or("no untraced run completed")?;
    let traced_wall = p.median_s("workload.run");
    p.out
        .metric("trace.overhead_ratio", "ratio", plain_wall / traced_wall);
    p.out
        .detail
        .insert("untraced_run_s".into(), sample_summary(&plain));

    let registry = probe_telemetry(p)?;
    let decisions = recorded_decisions(p, &registry, &deployment)?;
    let counters = registry.snapshot().counters;
    let counter_sum = |suffix: &str| {
        counters
            .iter()
            .filter(|c| c.name.ends_with(suffix))
            .map(|c| c.value)
            .sum::<u64>() as f64
    };
    let (fallbacks, timeouts) = (
        counter_sum(".ctrl.fallbacks"),
        counter_sum(".ctrl.timeouts"),
    );
    drop(registry);

    let solves = solves_per_device_slot(w, &decisions, &main);
    let solve_s = probe_offload(p, &decisions, solves, fallbacks, timeouts);
    probe_core(p, &deployment, &main, plain_wall, solve_s)?;
    probe_par(p, &deployment)?;
    probe_fleet(p, &deployment)?;
    probe_chaos(p, &main);
    probe_serving(p, &decisions, &main);
    Ok(())
}

/// `leime-exitcfg` through `Scenario::deploy`: the exit-setting search.
fn probe_exitcfg(p: &mut Probe<'_>) -> Result<Deployment, String> {
    let scenario = &p.w.scenario;
    let mut deployment = None;
    for _ in 0..SETUP_REPS {
        let d = p.span("exitcfg.deploy", || scenario.deploy(ExitStrategy::Leime));
        deployment = p.run("deploy", d).or(deployment);
    }
    let deployment = deployment.ok_or("the exit setting failed")?;
    let evals = deployment.search_stats.map_or(0, |s| s.total_evals());
    p.out
        .metric("exitcfg.deploy_s", "s", p.median_s("exitcfg.deploy"));
    p.out.metric("exitcfg.bb_evals", "count", evals as f64);
    Ok(deployment)
}

/// The scenario one `SlottedSystem` of the workload runs: the workload's
/// own for the slotted and serving workloads, one edge's share of the
/// devices for the fleet.
fn core_scenario(w: &Workload) -> Scenario {
    let mut scenario = w.scenario.clone();
    if let Some(config) = w.fleet.as_ref() {
        scenario
            .devices
            .truncate(w.scenario.devices.len() / config.edges);
    }
    scenario
}

/// One `SlottedSystem` run of [`core_scenario`] at `workers`, with spans
/// `core.system_new` and `core.run.w<workers>` around construction and
/// the run.
fn core_run(p: &mut Probe<'_>, deployment: &Deployment, workers: usize) -> Option<RunReport> {
    let scenario = core_scenario(p.w);
    let built = p.span("core.system_new", || {
        SlottedSystem::new(scenario, deployment.clone())
    });
    let mut system = p.run("SlottedSystem::new", built)?;
    let workers = NonZeroUsize::new(workers).expect("non-zero workers");
    let name = format!("core.run.w{workers}");
    let report = p.span(&name, || {
        system.run_with_workers(p.w.slots, p.w.seed, workers)
    });
    p.run("SlottedSystem run", report)
}

/// `leime-telemetry`: the workload with and without a registry. The
/// reports must be byte-identical. Returns the registry of the last run
/// with one, whose decision series the solver probes replay.
fn probe_telemetry(p: &mut Probe<'_>) -> Result<Registry, String> {
    let w = p.w;
    let mut with = Vec::new();
    let mut without = Vec::new();
    let mut reports: [Option<Report>; 2] = [None, None];
    let mut kept = None;
    for _ in 0..REPS {
        for (k, on) in [true, false].into_iter().enumerate() {
            let registry = Registry::new();
            let Some(mut system) = p.run("set-up", w.setup()) else {
                continue;
            };
            let name = if on {
                "telemetry.run_with_registry"
            } else {
                "telemetry.run_without_registry"
            };
            let run = p.span(name, || {
                w.run(&mut system, w.workers, on.then_some(&registry))
            });
            let Some((report, wall)) = p.run(name, run) else {
                continue;
            };
            if on {
                with.push(wall);
                kept = Some(registry);
            } else {
                without.push(wall);
            }
            reports[k].get_or_insert(report);
        }
    }
    let identical = matches!(&reports, [Some(a), Some(b)] if a.identical(b));
    p.attempt(if identical {
        Ok(())
    } else {
        Err("reports differ with and without a registry".into())
    });
    let (Some(with), Some(without), Some(registry)) =
        (stats::median(&with), stats::median(&without), kept)
    else {
        return Err("telemetry probe runs failed".into());
    };
    let snapshot = registry.snapshot();
    let points = snapshot
        .series
        .iter()
        .map(|s| s.points.len() as f64)
        .sum::<f64>()
        + snapshot
            .histograms
            .iter()
            .map(|h| h.count as f64)
            .sum::<f64>();
    drop(snapshot);
    if identical {
        // Peak memory needs a fresh process per arm: this one's peak
        // already holds every earlier probe.
        let mut peak = |on: bool| {
            let probe = child_peak_rss(w, on);
            p.run("memory probe", probe)
        };
        let (on, off) = (peak(true), peak(false));
        p.out.metric("telemetry.overhead_s", "s", with - without);
        if let (Some(on), Some(off)) = (on, off) {
            p.out.metric("telemetry.rss_mb", "MB", (on - off) / MIB);
        }
    }
    p.out.metric("telemetry.points", "count", points);
    Ok(registry)
}

/// The workload's own decision inputs, as its registry recorded them:
/// per-decision queues for the slotted system (first edge's series for
/// the fleet), per-slot fleet means for serving, which records no
/// per-decision series. Shares are the Eq. 27 KKT split of the recorded
/// system's devices.
fn recorded_decisions(
    p: &Probe<'_>,
    registry: &Registry,
    deployment: &Deployment,
) -> Result<Vec<Decision>, String> {
    let w = p.w;
    let snapshot = registry.snapshot();
    let (q_name, h_name, mut shared) = match w.kind {
        Kind::ServingFlash => {
            let config = w.serving.as_ref().ok_or("serving config")?;
            let plan = steer_exits(&w.scenario, &config.steer).map_err(|e| e.to_string())?;
            let std_plan = plan.standard();
            (
                format!("{PREFIX}.queue_q"),
                format!("{PREFIX}.queue_h"),
                shared_params(&w.scenario, std_plan),
            )
        }
        Kind::FleetRebalance => (
            format!("{PREFIX}.edge0.ctrl.queue_q"),
            format!("{PREFIX}.edge0.ctrl.queue_h"),
            shared_params(&w.scenario, deployment),
        ),
        Kind::SlottedPoisson => (
            format!("{PREFIX}.ctrl.queue_q"),
            format!("{PREFIX}.ctrl.queue_h"),
            shared_params(&w.scenario, deployment),
        ),
    };
    let series = |name: &str| {
        snapshot
            .series_named(name)
            .map(|s| s.points.clone())
            .ok_or(format!("registry has no series {name}"))
    };
    let (qs, hs) = (series(&q_name)?, series(&h_name)?);
    let scenario = core_scenario(w);
    shared.edge_flops = scenario.edge_flops;
    let flops: Vec<f64> = scenario.devices.iter().map(|d| d.flops).collect();
    let means: Vec<f64> = scenario.devices.iter().map(|d| d.arrival_mean).collect();
    let shares = kkt_allocation_with_floor(
        &flops,
        &means,
        scenario.edge_flops,
        leime::share_floor(flops.len()),
    );
    let n = flops.len();
    Ok(qs
        .iter()
        .zip(&hs)
        .take(MAX_REPLAY)
        .enumerate()
        .map(|(k, (&(_, q), &(_, h)))| Decision {
            shared,
            device: scenario.devices[k % n],
            obs: SlotObservation {
                q,
                h,
                p_share: shares[k % n],
            },
        })
        .collect())
}

/// The per-slot shared parameters a system derives from a deployment.
fn shared_params(scenario: &Scenario, deployment: &Deployment) -> SharedParams {
    SharedParams {
        slot_len_s: scenario.slot_len_s,
        v: scenario.v,
        mu1: deployment.mu[0],
        mu2: deployment.mu[1],
        sigma1: deployment.sigma[0],
        d0_bytes: deployment.d[0],
        d1_bytes: deployment.d[1],
        edge_flops: scenario.edge_flops,
    }
}

/// Solver calls per simulated device-slot. The slotted system solves
/// once per shard-slot when every device presents identical input bits
/// (and the previous shard-slot's were different), else once per
/// device; a fleet rebuilds its systems at every boundary, which resets
/// that memo. Serving solves every live device-slot.
fn solves_per_device_slot(w: &Workload, decisions: &[Decision], main: &Report) -> f64 {
    if let Report::Serving(r) = main {
        return r.offload_slots as f64 / w.device_slots();
    }
    let n = core_scenario(w).devices.len();
    let memo_resets = w.fleet.as_ref().is_some_and(|c| c.rebalance_interval == 1);
    let key = |d: &Decision| [d.obs.q, d.obs.h, d.obs.p_share].map(f64::to_bits);
    let mut solves = 0usize;
    let mut memo = None;
    let mut slots = 0usize;
    for slot in decisions.chunks(n).filter(|s| s.len() == n) {
        slots += 1;
        if memo_resets {
            memo = None;
        }
        let first = key(&slot[0]);
        if slot.iter().all(|d| key(d) == first) {
            if memo != Some(first) {
                solves += 1;
                memo = Some(first);
            }
        } else {
            solves += n;
        }
    }
    solves as f64 / (slots * n).max(1) as f64
}

/// `leime-offload`: the solver (scalar and batched) replayed on the
/// recorded inputs, the KKT split and the queue recursion. Returns the
/// solve time per simulated device-slot on the path the workload takes:
/// the slotted system batches shard-slots whose inputs differ, while the
/// fleet's uniform shard-slots and serving call the scalar solve.
fn probe_offload(
    p: &mut Probe<'_>,
    decisions: &[Decision],
    solves: f64,
    fallbacks: f64,
    timeouts: f64,
) -> f64 {
    let controller = LyapunovController::new();
    let n = core_scenario(p.w).devices.len().max(1);
    let calls = decisions.len().max(1) as f64;
    // One batch per recorded slot, laid out as `decide_batch` takes it.
    let batches: Vec<(Vec<SharedParams>, Vec<DeviceParams>, Vec<SlotObservation>)> = decisions
        .chunks(n)
        .map(|slot| {
            (
                slot.iter().map(|d| d.shared).collect(),
                slot.iter().map(|d| d.device).collect(),
                slot.iter().map(|d| d.obs).collect(),
            )
        })
        .collect();
    let mut out = vec![0.0; n];
    for _ in 0..REPS {
        p.span("offload.decide", || {
            for d in decisions {
                black_box(controller.decide(d.shared, d.device, d.obs));
            }
        });
        p.span("offload.decide_batch", || {
            for (shared, devices, obs) in &batches {
                let out = &mut out[..obs.len()];
                controller.decide_batch(shared, devices, obs, out);
                black_box(out);
            }
        });
        p.span("offload.queue_step", || {
            let mut qp = QueuePair::new();
            for d in decisions {
                qp.step(
                    d.device.arrival_mean * 0.5,
                    d.device.arrival_mean * 0.5,
                    d.obs.q,
                    d.obs.h,
                );
            }
            black_box(qp);
        });
    }
    let scenario = core_scenario(p.w);
    let flops: Vec<f64> = scenario.devices.iter().map(|d| d.flops).collect();
    let means: Vec<f64> = scenario.devices.iter().map(|d| d.arrival_mean).collect();
    let floor = leime::share_floor(flops.len());
    const KKT_CALLS: usize = 200;
    for _ in 0..REPS {
        p.span("offload.kkt", || {
            for _ in 0..KKT_CALLS {
                black_box(kkt_allocation_with_floor(
                    &flops,
                    &means,
                    scenario.edge_flops,
                    floor,
                ));
            }
        });
    }
    let per_call_ns = |name: &str| p.median_s(name) * 1e9 / calls;
    let decide_ns = per_call_ns("offload.decide");
    let decide_batch_ns = per_call_ns("offload.decide_batch");
    let queue_step_ns = per_call_ns("offload.queue_step");
    p.out.metric("offload.decide_ns", "ns", decide_ns);
    p.out
        .metric("offload.decide_batch_ns", "ns", decide_batch_ns);
    p.out.metric("offload.queue_step_ns", "ns", queue_step_ns);
    p.out.metric(
        "offload.kkt_us",
        "us",
        p.median_s("offload.kkt") * 1e6 / KKT_CALLS as f64,
    );
    p.out
        .metric("offload.solves_per_device_slot", "ratio", solves);
    p.out.metric("offload.fallbacks", "count", fallbacks);
    p.out.metric("offload.timeouts", "count", timeouts);
    p.out
        .detail
        .insert("replayed_decisions".into(), json!(decisions.len()));
    let solve_ns = if p.w.kind == Kind::SlottedPoisson {
        decide_batch_ns
    } else {
        decide_ns
    };
    solves * solve_ns * 1e-9
}

/// `leime` core: `SlottedSystem` construction and runs, the solve's share
/// of the workload's wall time (`solve_s_per_device_slot` of
/// [`probe_offload`]), tier sampling and the report size.
fn probe_core(
    p: &mut Probe<'_>,
    deployment: &Deployment,
    main: &Report,
    workload_wall: f64,
    solve_s_per_device_slot: f64,
) -> Result<(), String> {
    for _ in 0..REPS {
        core_run(p, deployment, 1).ok_or("core run failed")?;
    }
    const DRAWS: usize = 1 << 20;
    for _ in 0..REPS {
        p.span("core.tier_draw", || {
            for k in 0..DRAWS {
                black_box(deployment.tier_for_draw(k as f64 / DRAWS as f64).ok());
            }
        });
    }
    let decide_share = solve_s_per_device_slot * p.w.device_slots() / workload_wall;
    p.out.metric("core.run_s", "s", p.median_s("core.run.w1"));
    p.out
        .metric("core.system_new_s", "s", p.median_s("core.system_new"));
    p.out.metric("core.decide_share", "ratio", decide_share);
    p.out.metric(
        "core.tier_draw_ns",
        "ns",
        p.median_s("core.tier_draw") * 1e9 / DRAWS as f64,
    );
    p.out.metric("core.tasks", "count", main.tasks() as f64);
    p.out
        .metric("core.report_bytes", "bytes", main.to_json().len() as f64);
    Ok(())
}

/// `leime-par`: the same run at one and two workers, byte-identical
/// reports required. The fleet workload runs the fleet itself; the
/// others run their `SlottedSystem` (serving has no parallel path).
fn probe_par(p: &mut Probe<'_>, deployment: &Deployment) -> Result<(), String> {
    let w = p.w;
    let mut reports: [Option<Report>; 2] = [None, None];
    let mut rounds = 0.0;
    for _ in 0..REPS {
        for (k, workers) in [1usize, 2].into_iter().enumerate() {
            let report = if w.kind == Kind::FleetRebalance {
                let workers = NonZeroUsize::new(workers).expect("non-zero");
                let Some(mut system) = p.run("set-up", w.setup()) else {
                    continue;
                };
                let name = format!("par.fleet_run.w{workers}");
                let run = p.span(&name, || w.run(&mut system, workers, None));
                let Some((report, _)) = p.run(&name, run) else {
                    continue;
                };
                if let Report::Fleet(r) = &report {
                    rounds = r
                        .intervals
                        .iter()
                        .map(|iv| {
                            let live = iv.edges.iter().filter(|e| e.tasks() > 0).count();
                            live * leime_par::epoch_ranges(iv.slots, DEFAULT_EPOCH_LEN.get()).len()
                        })
                        .sum::<usize>() as f64;
                }
                report
            } else {
                let Some(report) = core_run(p, deployment, workers) else {
                    continue;
                };
                if w.kind == Kind::SlottedPoisson {
                    rounds = leime_par::epoch_ranges(w.slots, DEFAULT_EPOCH_LEN.get()).len() as f64;
                }
                Report::Slotted(report)
            };
            reports[k].get_or_insert(report);
        }
    }
    let identical = matches!(&reports, [Some(a), Some(b)] if a.identical(b));
    p.attempt(if identical {
        Ok(())
    } else {
        Err("reports differ between 1 and 2 workers".into())
    });
    let (one, two) = if w.kind == Kind::FleetRebalance {
        (
            p.median_s("par.fleet_run.w1"),
            p.median_s("par.fleet_run.w2"),
        )
    } else {
        (p.median_s("core.run.w1"), p.median_s("core.run.w2"))
    };
    if identical {
        p.out.metric("par.speedup_w2", "ratio", one / two);
    }
    p.out.metric("par.rounds", "count", rounds);
    Ok(())
}

/// The fleet the boundary probe runs at `rebalance`: the workload's own
/// for the fleet workload, else the workload's devices as a one-edge
/// fleet. Boundaries reseed each interval's draws and restart its fault
/// schedule, so that fleet runs deterministic arrivals without faults:
/// only then do both runs simulate the same tasks, and the wall-time
/// difference is the boundary alone.
fn fleet_view(
    w: &Workload,
    deployment: &Deployment,
    rebalance: usize,
) -> leime::Result<FleetSystem> {
    let mut scenario = w.scenario.clone();
    let config = match w.fleet.as_ref() {
        Some(c) => FleetConfig {
            rebalance_interval: rebalance,
            ..c.clone()
        },
        None => {
            scenario.workload = WorkloadKind::Deterministic;
            scenario.chaos = None;
            FleetConfig::regional(1, rebalance)
        }
    };
    FleetSystem::new(scenario, deployment.clone(), config)
}

/// `leime-fleet`: the cost of the regional boundary, as the wall time
/// of a boundary every slot minus that of one interval, plus the
/// boundary's own steps timed at per-edge size.
fn probe_fleet(p: &mut Probe<'_>, deployment: &Deployment) -> Result<(), String> {
    let w = p.w;
    let workers = w.workers;
    let mut outcomes: [Option<(usize, f64)>; 2] = [None, None];
    let mut shape = (0usize, 0usize, 0usize);
    for _ in 0..REPS {
        for (k, rebalance) in [1usize, 0].into_iter().enumerate() {
            let Some(mut fleet) = p.run("FleetSystem::new", fleet_view(w, deployment, rebalance))
            else {
                continue;
            };
            let name = format!("fleet.run.rebalance{rebalance}");
            let run = p.span(&name, || fleet.run_with_workers(w.slots, w.seed, workers));
            let Some(report) = p.run(&name, run) else {
                continue;
            };
            outcomes[k].get_or_insert((report.tasks(), report.mean_tct_s()));
            if rebalance == 1 {
                shape = (
                    report.edges,
                    report.intervals.len(),
                    report.migrations.len(),
                );
            }
        }
    }
    let agree = match outcomes {
        [Some((t1, c1)), Some((t0, c0))] => t1 == t0 && (c1 - c0).abs() <= 1e-9 * c0.abs(),
        _ => false,
    };
    p.attempt(if agree {
        Ok(())
    } else {
        Err(format!(
            "rebalance 0 and 1 disagree on tasks or TCT: {outcomes:?}"
        ))
    });
    let (edges, intervals, migrations) = shape;

    let template = &w.scenario;
    let per_edge = core_scenario(w);
    for _ in 0..SETUP_REPS {
        p.span("fleet.template_clone", || black_box(template.clone()));
        let built = p.span("fleet.edge_build", || {
            SlottedSystem::new(per_edge.clone(), deployment.clone()).and_then(|mut s| {
                s.set_queues(&vec![QueuePair::new(); per_edge.devices.len()])
                    .map(|()| s)
            })
        });
        p.run("edge build", built);
    }
    let boundaries = (edges * intervals) as f64;
    let r1 = p.median_s("fleet.run.rebalance1");
    let boundary_s = r1 - p.median_s("fleet.run.rebalance0");
    if agree {
        p.out.metric("fleet.boundary_s", "s", boundary_s);
        p.out
            .metric("fleet.boundary_share", "ratio", boundary_s / r1);
    }
    p.out.metric(
        "fleet.template_clone_s",
        "s",
        p.median_s("fleet.template_clone") * boundaries,
    );
    p.out.metric(
        "fleet.edge_build_s",
        "s",
        p.median_s("fleet.edge_build") * boundaries,
    );
    p.out.metric("fleet.intervals", "count", intervals as f64);
    p.out.metric("fleet.migrations", "count", migrations as f64);
    Ok(())
}

/// `leime-chaos`: compiling the workload's fault configuration (a quiet
/// one when it has none) and health lookups on the schedule.
fn probe_chaos(p: &mut Probe<'_>, main: &Report) {
    let w = p.w;
    let scenario = core_scenario(w);
    let config = scenario
        .chaos
        .clone()
        .unwrap_or_else(|| ChaosConfig::quiet(w.seed));
    let n = scenario.devices.len();
    let horizon = SimTime::from_secs(w.slots as f64 * scenario.slot_len_s);
    let mut schedule = None;
    for _ in 0..SETUP_REPS {
        schedule = Some(p.span("chaos.compile", || config.compile(n, horizon)));
    }
    let schedule = schedule.expect("at least one compile");
    const LOOKUPS: usize = 1 << 16;
    for _ in 0..REPS {
        p.span("chaos.health", || {
            for k in 0..LOOKUPS {
                let t = SimTime::from_secs((k / n % w.slots) as f64 * scenario.slot_len_s);
                black_box(schedule.link_health(k % n, t));
                black_box(schedule.edge_health(t));
            }
        });
    }
    let fault_slots = match main {
        Report::Slotted(r) => r.fault_stats().fault_slots,
        Report::Fleet(r) => crate::workloads::fleet_runs(r)
            .map(|run| run.fault_stats().fault_slots)
            .sum(),
        Report::Serving(r) => r.fault_slots,
    };
    p.out
        .metric("chaos.compile_s", "s", p.median_s("chaos.compile"));
    p.out.metric(
        "chaos.health_ns",
        "ns",
        p.median_s("chaos.health") * 1e9 / LOOKUPS as f64,
    );
    p.out
        .metric("chaos.fault_device_slots", "count", fault_slots as f64);
}

/// `leime-serving`: per-class exit steering and Eq. 10–11 admission on
/// the recorded queues, plus the serving report's load figures.
fn probe_serving(p: &mut Probe<'_>, decisions: &[Decision], main: &Report) {
    let w = p.w;
    let policy = w
        .serving
        .as_ref()
        .map_or_else(SteerPolicy::default, |c| c.steer);
    for _ in 0..SETUP_REPS {
        let plan = p.span("serving.steer", || steer_exits(&w.scenario, &policy));
        p.run("steer_exits", plan);
    }
    let admission = w
        .serving
        .as_ref()
        .map_or_else(AdmissionPolicy::default, |c| c.admission);
    for _ in 0..REPS {
        p.span("serving.admit", || {
            for d in decisions {
                black_box(admit(
                    &admission,
                    d.obs.q,
                    d.obs.h,
                    d.device.arrival_mean,
                    d.device.arrival_mean * 0.5,
                    0.5,
                    [1.0, 1.0, 1.0],
                    [4, 10, 6],
                ));
            }
        });
    }
    let (offered, shed_ratio, lc_p99) = match main {
        Report::Serving(r) => (
            r.offered_total() as f64,
            r.shed_total() as f64 / r.offered_total().max(1) as f64,
            main.lc_p99_s(),
        ),
        _ => (0.0, 0.0, main.lc_p99_s()),
    };
    p.out
        .metric("serving.steer_s", "s", p.median_s("serving.steer"));
    p.out.metric(
        "serving.admit_ns",
        "ns",
        p.median_s("serving.admit") * 1e9 / decisions.len().max(1) as f64,
    );
    p.out.metric("serving.offered", "count", offered);
    p.out.metric("serving.shed_ratio", "ratio", shed_ratio);
    p.out.metric("serving.lc_p99_s", "s", lc_p99);
}
