//! A live, multi-threaded prototype of the LEIME co-inference pipeline.
//!
//! Where [`crate::SlottedSystem`] models time, this module *executes*: device
//! threads run the First-exit classifier on real tensors (`leime-tensor`
//! MLPs trained by the calibration pipeline), ship real byte payloads over
//! crossbeam channels with link delays emulated by scaled sleeps, an edge
//! thread runs the Second-exit, and a cloud thread finishes stragglers.
//! Wall-clock completion times and classification accuracy are measured on
//! the collector side.
//!
//! The offloading decision here is a per-task Bernoulli draw — fixed
//! ratio, or queue-adaptive when [`RuntimeConfig::adaptive`] is set (edge
//! request backlog damps the offload probability, a live analogue of the
//! Lyapunov controller's `H_i` term). The point of the prototype is the
//! mechanism: confidence-gated early exit, staged transmission, and
//! tiered execution — the paper's Fig. 4 pipeline, running for real.

mod messages;

pub use messages::{payload_for_bytes, EdgeRequest, TaskOutcome};

use crate::{LeimeError, Result, TierCounts};
use crossbeam::channel::{unbounded, Receiver, Sender};
use leime_inference::{EarlyExitPipeline, ExitDecision};
use leime_par::{Rng, StdRng};
use leime_telemetry::{Buckets, Clock, Histogram, Registry, WallClock};
use leime_workload::{FeatureCascade, SyntheticDataset};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Configuration of a live run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Number of device threads.
    pub num_devices: usize,
    /// Tasks each device generates.
    pub tasks_per_device: usize,
    /// Per-task probability of offloading the raw input to the edge.
    pub offload_ratio: f64,
    /// Emulated device→edge bandwidth in bits/second.
    pub bandwidth_bps: f64,
    /// Emulated one-way link latency in seconds.
    pub latency_s: f64,
    /// Multiplier applied to emulated delays (use ≪ 1 in tests so a run
    /// finishes in milliseconds while preserving relative timing).
    pub time_scale: f64,
    /// Raw-input payload bytes (`d_0`).
    pub input_bytes: usize,
    /// First-exit intermediate payload bytes (`d_1`).
    pub intermediate_bytes: usize,
    /// RNG seed.
    pub seed: u64,
    /// When true, devices adapt their offload probability to edge
    /// congestion (the length of the edge request queue), a lightweight
    /// live analogue of the Lyapunov controller's queue awareness.
    pub adaptive: bool,
    /// Per-transmission probability that the device→edge uplink drops the
    /// payload. A dropped transmission degrades gracefully: the device
    /// settles for its local First-exit answer instead of blocking
    /// (`x = 0` for that task). Zero (the default) injects no faults.
    #[serde(default)]
    pub edge_fault_rate: f64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            num_devices: 2,
            tasks_per_device: 50,
            offload_ratio: 0.3,
            bandwidth_bps: 10e6,
            latency_s: 0.02,
            time_scale: 0.01,
            input_bytes: 12_288,
            intermediate_bytes: 8_192,
            seed: 0,
            adaptive: false,
            edge_fault_rate: 0.0,
        }
    }
}

impl RuntimeConfig {
    fn validate(&self) -> Result<()> {
        if self.num_devices == 0 || self.tasks_per_device == 0 {
            return Err(LeimeError::Config(
                "runtime needs at least one device and one task".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.offload_ratio) {
            return Err(LeimeError::Config(format!(
                "offload_ratio {} outside [0, 1]",
                self.offload_ratio
            )));
        }
        if !(self.bandwidth_bps > 0.0 && self.time_scale >= 0.0 && self.latency_s >= 0.0) {
            return Err(LeimeError::Config(
                "invalid link emulation parameters".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.edge_fault_rate) {
            return Err(LeimeError::Config(format!(
                "edge_fault_rate {} outside [0, 1]",
                self.edge_fault_rate
            )));
        }
        Ok(())
    }

    /// Emulated transfer duration for `bytes` on the configured link.
    pub fn transfer_delay(&self, bytes: usize) -> Duration {
        let secs = (bytes as f64 * 8.0 / self.bandwidth_bps + self.latency_s) * self.time_scale;
        Duration::from_secs_f64(secs.max(0.0))
    }
}

/// Aggregated results of a live run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeReport {
    /// Tasks completed (always `num_devices × tasks_per_device` on
    /// success).
    pub completed: usize,
    /// Correctly classified tasks.
    pub correct: usize,
    /// Exit-tier counts.
    pub tiers: TierCounts,
    /// Mean wall-clock completion time in seconds (at the configured time
    /// scale).
    pub mean_tct_s: f64,
    /// Median completion time in seconds (histogram estimate, relative
    /// error ≤ one log bucket ≈ 2.2%).
    #[serde(default)]
    pub p50_tct_s: f64,
    /// 95th-percentile completion time in seconds (same error bound).
    #[serde(default)]
    pub p95_tct_s: f64,
    /// 99th-percentile completion time in seconds (same error bound).
    #[serde(default)]
    pub p99_tct_s: f64,
    /// Tasks whose raw input was offloaded to the edge.
    pub offloaded: usize,
    /// Uplink transmissions lost to injected faults
    /// ([`RuntimeConfig::edge_fault_rate`]).
    #[serde(default)]
    pub faults: usize,
    /// Tasks that settled for the degraded local First-exit answer after
    /// their transmission was lost.
    #[serde(default)]
    pub degraded: usize,
}

impl RuntimeReport {
    /// Classification accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.correct as f64 / self.completed as f64
        }
    }
}

/// Runs the live pipeline to completion.
///
/// Spawns `num_devices` device threads, one edge thread and one cloud
/// thread; returns once every task has been classified.
///
/// # Errors
///
/// Returns [`LeimeError::Config`] for invalid configurations and
/// [`LeimeError::Runtime`] if a worker thread panics or a channel
/// disconnects prematurely.
pub fn run_live(
    pipeline: &EarlyExitPipeline,
    cascade: &FeatureCascade,
    dataset: &SyntheticDataset,
    config: RuntimeConfig,
) -> Result<RuntimeReport> {
    run_live_inner(pipeline, cascade, dataset, config, None)
}

/// Like [`run_live`], but additionally records into `registry` under
/// `prefix`: per-tier completion-time histograms
/// (`{prefix}.tct_s`, `{prefix}.tct_device_s`, `{prefix}.tct_edge_s`,
/// `{prefix}.tct_cloud_s`), a `{prefix}.tasks` counter, and
/// `{prefix}.run_wall_s` — the whole run's wall-clock duration, measured
/// with a [`WallClock`].
///
/// # Errors
///
/// Same as [`run_live`].
pub fn run_live_with_registry(
    pipeline: &EarlyExitPipeline,
    cascade: &FeatureCascade,
    dataset: &SyntheticDataset,
    config: RuntimeConfig,
    registry: &Registry,
    prefix: &str,
) -> Result<RuntimeReport> {
    let telemetry = RuntimeTelemetry {
        tct: registry.histogram(&format!("{prefix}.tct_s")),
        tct_tier: [
            registry.histogram(&format!("{prefix}.tct_device_s")),
            registry.histogram(&format!("{prefix}.tct_edge_s")),
            registry.histogram(&format!("{prefix}.tct_cloud_s")),
        ],
        tasks: registry.counter(&format!("{prefix}.tasks")),
        run_wall: registry.histogram(&format!("{prefix}.run_wall_s")),
    };
    run_live_inner(pipeline, cascade, dataset, config, Some(&telemetry))
}

/// Registry handles for one live run (see [`run_live_with_registry`]).
struct RuntimeTelemetry {
    tct: Arc<Histogram>,
    /// Indexed device / edge / cloud.
    tct_tier: [Arc<Histogram>; 3],
    tasks: Arc<leime_telemetry::Counter>,
    run_wall: Arc<Histogram>,
}

fn run_live_inner(
    pipeline: &EarlyExitPipeline,
    cascade: &FeatureCascade,
    dataset: &SyntheticDataset,
    config: RuntimeConfig,
    telemetry: Option<&RuntimeTelemetry>,
) -> Result<RuntimeReport> {
    config.validate()?;
    let wall = WallClock::new();
    let pipeline = Arc::new(pipeline.clone());
    let cascade = Arc::new(cascade.clone());
    let dataset = Arc::new(dataset.clone());

    let (edge_tx, edge_rx) = unbounded::<EdgeRequest>();
    let (cloud_tx, cloud_rx) = unbounded::<EdgeRequest>();
    let (done_tx, done_rx) = unbounded::<TaskOutcome>();

    // ---- Edge thread: Second-exit classification + forwarding.
    let edge_handle = {
        let pipeline = Arc::clone(&pipeline);
        let cascade = Arc::clone(&cascade);
        let done = done_tx.clone();
        let cloud = cloud_tx.clone();
        let wall = wall.clone();
        thread::spawn(move || {
            edge_loop(&pipeline, &cascade, &edge_rx, &cloud, &done, &wall, config)
        })
    };

    // ---- Cloud thread: Third-exit (unconditional).
    let cloud_handle = {
        let pipeline = Arc::clone(&pipeline);
        let cascade = Arc::clone(&cascade);
        let done = done_tx.clone();
        let wall = wall.clone();
        thread::spawn(move || cloud_loop(&pipeline, &cascade, &cloud_rx, &done, &wall))
    };

    // ---- Device threads.
    let counters = Arc::new(DeviceCounters::default());
    let mut device_handles = Vec::new();
    for dev in 0..config.num_devices {
        let pipeline = Arc::clone(&pipeline);
        let cascade = Arc::clone(&cascade);
        let dataset = Arc::clone(&dataset);
        let edge = edge_tx.clone();
        let done = done_tx.clone();
        let counters = Arc::clone(&counters);
        let wall = wall.clone();
        device_handles.push(thread::spawn(move || {
            device_loop(
                dev, &pipeline, &cascade, &dataset, &edge, &done, &counters, &wall, config,
            )
        }));
    }
    drop(edge_tx);
    drop(cloud_tx);
    drop(done_tx);

    // ---- Collector, on this thread. Completion times go into plain
    // histograms, merged into the registry once after the run.
    let total = config.num_devices * config.tasks_per_device;
    let stats = Mutex::new((0usize, 0usize, TierCounts::default(), 0.0f64));
    let mut tct_hist = Buckets::new();
    let mut tier_hists = [Buckets::new(), Buckets::new(), Buckets::new()];
    for _ in 0..total {
        let outcome = done_rx
            .recv()
            .map_err(|_| LeimeError::Runtime("completion channel closed early".into()))?;
        let secs = outcome.elapsed.as_secs_f64();
        let tier_idx = match outcome.tier {
            ExitDecision::Device => 0,
            ExitDecision::Edge => 1,
            ExitDecision::Cloud => 2,
        };
        tct_hist.record(secs);
        tier_hists[tier_idx].record(secs);
        let mut s = stats.lock();
        s.0 += 1;
        if outcome.correct {
            s.1 += 1;
        }
        match tier_idx {
            0 => s.2.first += 1,
            1 => s.2.second += 1,
            _ => s.2.third += 1,
        }
        s.3 += secs;
    }

    for h in device_handles {
        h.join()
            .map_err(|_| LeimeError::Runtime("device thread panicked".into()))?;
    }
    edge_handle
        .join()
        .map_err(|_| LeimeError::Runtime("edge thread panicked".into()))?;
    cloud_handle
        .join()
        .map_err(|_| LeimeError::Runtime("cloud thread panicked".into()))?;

    if let Some(tel) = telemetry {
        tel.tct.merge(&tct_hist);
        for (dst, src) in tel.tct_tier.iter().zip(&tier_hists) {
            dst.merge(src);
        }
        tel.tasks.add(total as u64);
        tel.run_wall.record(wall.now());
    }

    let (completed, correct, tiers, total_secs) = stats.into_inner();
    Ok(RuntimeReport {
        completed,
        correct,
        tiers,
        mean_tct_s: if completed == 0 {
            0.0
        } else {
            total_secs / completed as f64
        },
        p50_tct_s: tct_hist.quantile(0.5).unwrap_or(0.0),
        p95_tct_s: tct_hist.quantile(0.95).unwrap_or(0.0),
        p99_tct_s: tct_hist.quantile(0.99).unwrap_or(0.0),
        offloaded: counters
            .offloaded
            .load(std::sync::atomic::Ordering::Relaxed),
        faults: counters.faults.load(std::sync::atomic::Ordering::Relaxed),
        degraded: counters.degraded.load(std::sync::atomic::Ordering::Relaxed),
    })
}

/// Cross-thread tallies the device loops share.
#[derive(Debug, Default)]
struct DeviceCounters {
    offloaded: std::sync::atomic::AtomicUsize,
    faults: std::sync::atomic::AtomicUsize,
    degraded: std::sync::atomic::AtomicUsize,
}

/// Elapsed time since `born` (a reading of the same run-scoped
/// [`WallClock`]). All wall-clock access in the runtime goes through the
/// telemetry clock abstraction, never `Instant::now` directly.
fn elapsed_since(wall: &WallClock, born: f64) -> Duration {
    Duration::from_secs_f64((wall.now() - born).max(0.0))
}

// The device loop's channel endpoints and counters are genuinely distinct.
#[allow(clippy::too_many_arguments, reason = "distinct channels and counters")]
fn device_loop(
    dev: usize,
    pipeline: &EarlyExitPipeline,
    cascade: &FeatureCascade,
    dataset: &SyntheticDataset,
    edge: &Sender<EdgeRequest>,
    done: &Sender<TaskOutcome>,
    counters: &DeviceCounters,
    wall: &WallClock,
    config: RuntimeConfig,
) {
    use std::sync::atomic::Ordering;
    let mut rng = leime_par::stream_rng(config.seed, dev as u64);
    // A transmission is lost with `edge_fault_rate` probability; the rate-0
    // fast path keeps the RNG stream identical to fault-free builds.
    let transmission_lost =
        |rng: &mut StdRng| config.edge_fault_rate > 0.0 && rng.gen_bool(config.edge_fault_rate);
    for _ in 0..config.tasks_per_device {
        let sample = dataset.draw(&mut rng);
        let born = wall.now();
        let feature_seed: u64 = rng.gen();
        // Queue-aware adaptation: each pending edge request halves the
        // appetite for offloading (a live proxy for the H_i term of the
        // drift-plus-penalty objective).
        let x = if config.adaptive {
            config.offload_ratio / (1.0 + edge.len() as f64 * 0.5)
        } else {
            config.offload_ratio
        };
        if rng.gen_bool(x.clamp(0.0, 1.0)) {
            if transmission_lost(&mut rng) {
                // Raw input lost in transit: fall back to running the
                // first block locally (x = 0 for this task).
                counters.faults.fetch_add(1, Ordering::Relaxed);
            } else {
                counters.offloaded.fetch_add(1, Ordering::Relaxed);
                // Offload the raw input: the edge runs the First-exit too.
                thread::sleep(config.transfer_delay(config.input_bytes));
                let _ = edge.send(EdgeRequest {
                    sample,
                    born,
                    feature_seed,
                    first_exit_pending: true,
                    payload: payload_for_bytes(config.input_bytes),
                });
                continue;
            }
        }
        // Local First-exit on real tensors. Feature streams are tiered:
        // stream 0 = device, 1 = edge, 2 = cloud — `stream_seed` keeps
        // them collision-free instead of the old `wrapping_add` offsets.
        let mut frng = leime_par::stream_rng(feature_seed, 0);
        let (tier, pred, _conf, correct) = pipeline.infer_first(cascade, sample, &mut frng);
        if tier == ExitDecision::Device {
            let _ = pred;
            let _ = done.send(TaskOutcome {
                tier,
                correct,
                elapsed: elapsed_since(wall, born),
            });
        } else if transmission_lost(&mut rng) {
            // Degraded routing: the intermediate payload would be lost, so
            // the device settles for its (low-confidence) First-exit
            // answer rather than blocking on a dark uplink.
            counters.faults.fetch_add(1, Ordering::Relaxed);
            counters.degraded.fetch_add(1, Ordering::Relaxed);
            let _ = done.send(TaskOutcome {
                tier: ExitDecision::Device,
                correct,
                elapsed: elapsed_since(wall, born),
            });
        } else {
            thread::sleep(config.transfer_delay(config.intermediate_bytes));
            let _ = edge.send(EdgeRequest {
                sample,
                born,
                feature_seed,
                first_exit_pending: false,
                payload: payload_for_bytes(config.intermediate_bytes),
            });
        }
    }
}

fn edge_loop(
    pipeline: &EarlyExitPipeline,
    cascade: &FeatureCascade,
    edge_rx: &Receiver<EdgeRequest>,
    cloud: &Sender<EdgeRequest>,
    done: &Sender<TaskOutcome>,
    wall: &WallClock,
    config: RuntimeConfig,
) {
    while let Ok(req) = edge_rx.recv() {
        let mut frng = leime_par::stream_rng(req.feature_seed, 1);
        if req.first_exit_pending {
            // Offloaded raw input: run the First-exit here first.
            let (tier, _pred, _conf, correct) =
                pipeline.infer_first(cascade, req.sample, &mut frng);
            if tier == ExitDecision::Device {
                let _ = done.send(TaskOutcome {
                    tier,
                    correct,
                    elapsed: elapsed_since(wall, req.born),
                });
                continue;
            }
        }
        let (tier, _pred, _conf, correct) = pipeline.infer_second(cascade, req.sample, &mut frng);
        if tier == ExitDecision::Edge {
            let _ = done.send(TaskOutcome {
                tier,
                correct,
                elapsed: elapsed_since(wall, req.born),
            });
        } else {
            thread::sleep(config.transfer_delay(config.intermediate_bytes));
            let _ = cloud.send(EdgeRequest {
                first_exit_pending: false,
                payload: payload_for_bytes(config.intermediate_bytes),
                ..req
            });
        }
    }
}

fn cloud_loop(
    pipeline: &EarlyExitPipeline,
    cascade: &FeatureCascade,
    cloud_rx: &Receiver<EdgeRequest>,
    done: &Sender<TaskOutcome>,
    wall: &WallClock,
) {
    while let Ok(req) = cloud_rx.recv() {
        let mut frng = leime_par::stream_rng(req.feature_seed, 2);
        let (_pred, correct) = pipeline.infer_third(cascade, req.sample, &mut frng);
        let _ = done.send(TaskOutcome {
            tier: ExitDecision::Cloud,
            correct,
            elapsed: elapsed_since(wall, req.born),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelKind;
    use leime_dnn::ExitCombo;
    use leime_inference::{calibrate, CalibrationConfig, TrainConfig};
    use leime_workload::CascadeParams;
    use rand::SeedableRng;

    fn setup() -> (EarlyExitPipeline, FeatureCascade, SyntheticDataset) {
        let chain = ModelKind::SqueezeNet.build(10);
        let cascade = FeatureCascade::new(10, CascadeParams::default(), 33);
        let dataset = SyntheticDataset::cifar_like();
        let mut rng = StdRng::seed_from_u64(33);
        let cal = calibrate(
            &chain,
            &cascade,
            &dataset,
            CalibrationConfig {
                train_samples: 160,
                val_samples: 160,
                train: TrainConfig {
                    epochs: 5,
                    ..TrainConfig::default()
                },
                accuracy_target_ratio: 0.95,
            },
            &mut rng,
        );
        let m = chain.num_layers();
        let combo = ExitCombo::new(1, m / 2, m - 1, m).unwrap();
        (
            EarlyExitPipeline::from_calibration(&cal, combo),
            cascade,
            dataset,
        )
    }

    #[test]
    fn live_run_completes_every_task() {
        let (pipeline, cascade, dataset) = setup();
        let config = RuntimeConfig {
            num_devices: 3,
            tasks_per_device: 20,
            time_scale: 0.0005,
            ..RuntimeConfig::default()
        };
        let report = run_live(&pipeline, &cascade, &dataset, config).unwrap();
        assert_eq!(report.completed, 60);
        assert_eq!(report.tiers.total(), 60);
        assert!(report.accuracy() > 0.3, "accuracy {}", report.accuracy());
        assert!(report.mean_tct_s >= 0.0);
    }

    #[test]
    fn config_validation() {
        let (pipeline, cascade, dataset) = setup();
        let bad = RuntimeConfig {
            offload_ratio: 2.0,
            ..RuntimeConfig::default()
        };
        assert!(run_live(&pipeline, &cascade, &dataset, bad).is_err());
        let empty = RuntimeConfig {
            num_devices: 0,
            ..RuntimeConfig::default()
        };
        assert!(run_live(&pipeline, &cascade, &dataset, empty).is_err());
    }

    #[test]
    fn adaptive_offloading_backs_off_under_congestion() {
        let (pipeline, cascade, dataset) = setup();
        // A slow edge link creates backlog; the adaptive policy must
        // offload fewer tasks than the fixed one under identical seeds.
        let base = RuntimeConfig {
            num_devices: 4,
            tasks_per_device: 40,
            offload_ratio: 0.9,
            time_scale: 0.002,
            ..RuntimeConfig::default()
        };
        let fixed = run_live(&pipeline, &cascade, &dataset, base).unwrap();
        let adaptive = run_live(
            &pipeline,
            &cascade,
            &dataset,
            RuntimeConfig {
                adaptive: true,
                ..base
            },
        )
        .unwrap();
        assert_eq!(fixed.completed, adaptive.completed);
        assert!(
            adaptive.offloaded <= fixed.offloaded,
            "adaptive offloaded {} > fixed {}",
            adaptive.offloaded,
            fixed.offloaded
        );
    }

    #[test]
    fn total_uplink_loss_degrades_every_task_to_device() {
        let (pipeline, cascade, dataset) = setup();
        let config = RuntimeConfig {
            num_devices: 2,
            tasks_per_device: 30,
            offload_ratio: 0.8,
            edge_fault_rate: 1.0,
            time_scale: 0.0005,
            ..RuntimeConfig::default()
        };
        let report = run_live(&pipeline, &cascade, &dataset, config).unwrap();
        // Every transmission is lost, yet every task still completes —
        // on-device, at the First-exit.
        assert_eq!(report.completed, 60);
        assert_eq!(report.offloaded, 0);
        assert_eq!(report.tiers.second + report.tiers.third, 0);
        assert!(report.faults > 0, "no faults recorded");
        assert!(report.degraded > 0, "no degraded completions recorded");
        assert!(report.faults >= report.degraded);
    }

    #[test]
    fn fault_rate_validation_and_serde_default() {
        let (pipeline, cascade, dataset) = setup();
        let bad = RuntimeConfig {
            edge_fault_rate: 1.5,
            ..RuntimeConfig::default()
        };
        assert!(run_live(&pipeline, &cascade, &dataset, bad).is_err());
        // Old configs without the field still parse (serde default 0).
        let json = r#"{"num_devices":1,"tasks_per_device":1,"offload_ratio":0.2,
            "bandwidth_bps":1e7,"latency_s":0.02,"time_scale":0.01,
            "input_bytes":100,"intermediate_bytes":50,"seed":0,"adaptive":false}"#;
        let cfg: RuntimeConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.edge_fault_rate.to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn transfer_delay_scales() {
        let config = RuntimeConfig {
            bandwidth_bps: 8e6,
            latency_s: 0.0,
            time_scale: 1.0,
            ..RuntimeConfig::default()
        };
        // 1e6 bytes at 8 Mbps = 1 s.
        let d = config.transfer_delay(1_000_000);
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-9);
    }
}
