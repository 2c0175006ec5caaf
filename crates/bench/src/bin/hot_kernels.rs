//! Microbenchmarks for the slot loops' inner kernels (DESIGN.md §14):
//! the Eq. 10–11 queue update, the per-device-slot offloading decision
//! (the exact P1′ solve), the batched telemetry flush, a replay's
//! histogram record of one cohort, one serving device-slot's nine
//! (class, tier) cells through the run recorder, serving's count-level
//! class split,
//! and a device-slot's Poisson arrival draw with Knuth's threshold
//! computed per call and once per mean. Reports ns/op and *appends* a git-keyed run
//! record to the `BENCH_kernels.json` history (schema `leime-bench/1`,
//! same envelope as `BENCH_par.json`) so kernel-level drift stays
//! visible between commits without running the full `perf_baseline`
//! scenario. A pre-history single-record file migrates in place on the
//! next write.
//!
//! ```text
//! cargo run --release -p leime-bench --bin hot_kernels
//! ```
//!
//! Flags: `--json <path>` (default `BENCH_kernels.json`).
//!
//! Each kernel runs long enough to dominate timer noise (tens of
//! milliseconds) and folds its outputs into a sink the optimiser cannot
//! remove. Numbers are single-core and machine-specific: compare runs
//! from the same box, not across boxes.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use std::hint::black_box;
use std::path::PathBuf;

use leime::ModelKind;
use leime_bench::perf;
use leime_bench::{header, render_table};
use leime_offload::{
    ControllerTelemetry, DecisionBatch, DeviceParams, LyapunovController, OffloadController,
    QueuePair, SharedParams, SlotObservation,
};
use leime_telemetry::{Buckets, Clock, Registry, RunBuckets, WallClock};
use leime_workload::{poisson_draw, poisson_threshold, Binomial};
use rand::SeedableRng;

/// A fleet-sized batch: matches the reference scenario's device count, so
/// the telemetry flush replays one realistic slot.
const BATCH: usize = 64;

struct KernelResult {
    name: &'static str,
    ops: u64,
    ns_per_op: f64,
}

/// Times `op` over `ops` iterations (the closure must consume its index
/// and return a value folded into the sink).
fn time_kernel(name: &'static str, ops: u64, mut op: impl FnMut(u64) -> f64) -> KernelResult {
    // One untimed pass warms caches and the branch predictor.
    black_box(op(0));
    let clock = WallClock::new();
    let mut sink = 0.0;
    for i in 0..ops {
        sink += op(i);
    }
    let elapsed = clock.now();
    black_box(sink);
    KernelResult {
        name,
        ops,
        ns_per_op: elapsed * 1e9 / ops as f64,
    }
}

/// Reference-scenario-shaped parameters (an InceptionV3-like partition
/// on a Raspberry-Pi-class device; values only need to be plausible and
/// fixed, not calibrated — the benchmark tracks drift, not truth).
fn params() -> (SharedParams, DeviceParams) {
    let shared = SharedParams {
        slot_len_s: 1.0,
        v: 1.0e4,
        mu1: 8.0e8,
        mu2: 1.2e9,
        sigma1: 0.6,
        d0_bytes: 268_203.0,
        d1_bytes: 1.0e5,
        edge_flops: 1.0e11,
    };
    let dev = DeviceParams::raspberry_pi(5.0);
    shared.validate().expect("benchmark shared params");
    dev.validate().expect("benchmark device params");
    (shared, dev)
}

/// A deterministic spread of queue states (drained through loaded) so
/// the decision kernels cannot ride a single memoised solve.
fn obs_for(i: u64) -> SlotObservation {
    SlotObservation {
        q: (i % 17) as f64 * 0.7,
        h: (i % 11) as f64 * 0.4,
        p_share: 1.0 / BATCH as f64,
    }
}

fn json_path() -> PathBuf {
    leime_bench::json_out_path().unwrap_or_else(|| PathBuf::from("BENCH_kernels.json"))
}

fn main() {
    let (shared, dev) = params();
    let ctrl = LyapunovController::new();
    let mut results = Vec::new();

    // Kernel 1: the Eq. 10–11 queue update (QueuePair::step).
    let mut queue = QueuePair::new();
    results.push(time_kernel("queue_update", 2_000_000, |i| {
        let a = (i % 7) as f64 * 0.5;
        queue.step(a, a * 0.3, 2.0, 1.5);
        queue.q() + queue.h()
    }));

    // Kernel 2: one offloading decision (the exact P1′ solve).
    results.push(time_kernel("decision_exact", 20_000, |i| {
        ctrl.decide(shared, dev, obs_for(i))
    }));

    // Kernel 3: telemetry replay — buffer a fleet's decisions in a
    // `DecisionBatch` and flush once, as the slotted driver does per
    // slot; ns per recorded decision.
    let registry = Registry::new();
    let tel = ControllerTelemetry::attach(&registry, "bench");
    let mut batch = DecisionBatch::new();
    let mut flush = time_kernel("telemetry_flush", 10_000, |r| {
        for j in 0..BATCH as u64 {
            let o = obs_for(r * BATCH as u64 + j);
            batch.record_decision(r as f64, o.q, o.h);
        }
        tel.flush_batch(&mut batch);
        r as f64
    });
    flush.ns_per_op /= BATCH as f64;
    flush.ops *= BATCH as u64;
    results.push(flush);

    // Kernel 4: one replayed cohort — 5 tasks at one completion time —
    // into a run's TCT histogram, over a spread of times (0.05–1.8 s).
    let mut tct = Buckets::new();
    results.push(time_kernel("histogram_record_n", 2_000_000, |i| {
        let v = 0.05 * (1.0 + (i % 97) as f64 * 0.37);
        tct.record_n(v, 5);
        v
    }));

    // Kernel 5: one serving device-slot's nine (class, tier) cells,
    // 3.8 of them non-zero, each at its own price, which steps once
    // every 50 device-slots (admission-bound overload repeats ~98% of
    // them), each cell through its own run recorder.
    const CELL_OPS: u64 = 1_000_000;
    let cell = |i: u64, c: usize| {
        let n = match c {
            0 | 1 | 3 => 3,
            6 if !i.is_multiple_of(5) => 2,
            _ => 0,
        };
        let step = (i / 50 % 7) as f64 * 1e-3;
        (0.05 * (1.0 + c as f64 * 0.37 + step), n)
    };
    let mut runs: [RunBuckets; 9] = Default::default();
    results.push(time_kernel("histogram_record_run", CELL_OPS, |i| {
        let mut sink = 0.0;
        for (c, run) in runs.iter_mut().enumerate() {
            let (v, n) = cell(i, c);
            run.record_n(v, n);
            sink += v;
        }
        sink
    }));
    // The recorders hold the bits of the same cells recorded directly,
    // untimed warm-up pass (`i = 0`) included.
    let (mut merged, mut direct) = (Buckets::new(), Buckets::new());
    for run in &runs {
        run.merge_into(&mut merged);
    }
    for i in std::iter::once(0).chain(0..CELL_OPS) {
        for c in 0..9 {
            let (v, n) = cell(i, c);
            direct.record_n(v, n);
        }
    }
    assert_eq!(merged, direct, "the recorder left other bits");

    // Kernel 6: serving's class split of one device-slot's 48 offered
    // requests under the flash-crowd testbed's class mix, as two
    // conditional binomial draws.
    let mix = leime_serving::flash_brownout_testbed(ModelKind::SqueezeNet, 1, 0, 2.0)
        .1
        .sla
        .mix;
    let first = Binomial::new(mix[0]);
    let second = Binomial::new(mix[1] / (mix[1] + mix[2]));
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    results.push(time_kernel("binomial_class_split", 500_000, |_| {
        let a = first.draw(48, &mut rng);
        let b = second.draw(48 - a, &mut rng);
        (a * 3 + b) as f64
    }));

    // Kernels 7–8: one device-slot's Poisson(5) arrival draw (the
    // slotted workloads' mean), with Knuth's threshold `exp(−mean)`
    // computed per call (`black_box` keeps the mean opaque, so the
    // exponential cannot be hoisted) and once, where the mean is set.
    const MEAN: f64 = 5.0;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    results.push(time_kernel("poisson_draw_per_call_exp", 1_000_000, |_| {
        let mean = black_box(MEAN);
        poisson_draw(mean, poisson_threshold(mean), 1000, &mut rng) as f64
    }));
    let threshold = poisson_threshold(MEAN);
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    results.push(time_kernel("poisson_draw_threshold", 1_000_000, |_| {
        poisson_draw(black_box(MEAN), threshold, 1000, &mut rng) as f64
    }));

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.1}", r.ns_per_op),
                r.ops.to_string(),
            ]
        })
        .collect();
    println!("== hot_kernels: slot-loop inner kernels, ns/op ==\n");
    println!(
        "{}",
        render_table(&header(&["kernel", "ns/op", "ops"]), &rows)
    );

    let path = json_path();
    let kernels: Vec<_> = results
        .iter()
        .map(|r| serde_json::json!({"name": r.name, "ns_per_op": r.ns_per_op, "ops": r.ops}))
        .collect();
    let fields = serde_json::json!({"kernels": kernels});
    if let Err(e) = perf::append_row(&path, "hot_kernels", "kernels", fields) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    println!("kernel timings written to {}", path.display());
}
