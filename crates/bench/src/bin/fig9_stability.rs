//! Fig. 9 / Test Case 3 — system stability under dynamic task arrival
//! rates: windowed average TCT over time for LEIME and the three
//! benchmarks, on a Raspberry Pi (upper) and a Jetson Nano (lower), while
//! the arrival rate steps between low and high phases.
//!
//! Paper-reported: LEIME shows the smallest average TCT and best
//! stability on both devices; DDNN explodes on the Pi; Neurosurgeon
//! fluctuates the most.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use leime::{systems, ModelKind, WorkloadKind};
use leime_bench::{fmt_time, render_table, single_device, sparkline};
use leime_simnet::{SimTime, TimeTrace};
use leime_telemetry::Registry;

const SLOTS: usize = 400;
const WINDOW_S: f64 = 50.0;
const SEED: u64 = 9;

fn run_device(nano: bool, registry: &Registry) {
    // Both devices share one registry, so metric names carry a device tag
    // (`pi.leime.tct_s` vs `nano.leime.tct_s`).
    let (device, tag) = if nano {
        ("Jetson Nano", "nano")
    } else {
        ("Raspberry Pi", "pi")
    };
    println!("== Fig. 9: TCT over time under dynamic arrival rates ({device}) ==\n");

    // Arrival rate steps 2 -> 10 -> 2 -> 10 ... every 50 slots.
    let trace = TimeTrace::square_wave(
        2.0,
        10.0,
        SimTime::from_secs(50.0),
        SimTime::from_secs(SLOTS as f64),
    );

    let specs = systems::all();
    let mut columns: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut means = Vec::new();
    let mut stds = Vec::new();
    for spec in &specs {
        let mut base = single_device(ModelKind::InceptionV3, nano, 2.0);
        base.workload = WorkloadKind::RateTrace {
            trace: trace.clone(),
            max: 1000,
        };
        base.controller = spec.controller;
        let deployment = base.deploy(spec.strategy).unwrap();
        let prefix = format!("{tag}.{}", spec.name.to_lowercase());
        let r = base
            .run_slotted_with_registry(&deployment, SLOTS, SEED, registry, &prefix)
            .unwrap();
        let windows = r
            .series()
            .windowed_mean(SimTime::from_secs(WINDOW_S))
            .into_iter()
            .map(|(t, v)| (t.as_secs(), v))
            .collect::<Vec<_>>();
        // Stability metric: std-dev across windows.
        let mean = windows.iter().map(|w| w.1).sum::<f64>() / windows.len().max(1) as f64;
        let var =
            windows.iter().map(|w| (w.1 - mean).powi(2)).sum::<f64>() / windows.len().max(1) as f64;
        means.push(mean);
        stds.push(var.sqrt());
        columns.push(windows);
    }

    let mut h = vec!["t_end".to_string()];
    h.extend(specs.iter().map(|s| s.name.to_string()));
    let n_windows = columns.iter().map(Vec::len).min().unwrap_or(0);
    let mut rows = Vec::new();
    for w in 0..n_windows {
        let mut row = vec![format!("{:.0}s", columns[0][w].0)];
        for col in &columns {
            row.push(fmt_time(col[w].1));
        }
        rows.push(row);
    }
    println!("{}", render_table(&h, &rows));
    for (((spec, mean), std), col) in specs.iter().zip(&means).zip(&stds).zip(&columns) {
        let series: Vec<f64> = col.iter().map(|w| w.1).collect();
        println!(
            "{:>14}: overall mean {} | window std {} | {}",
            spec.name,
            fmt_time(*mean),
            fmt_time(*std),
            sparkline(&series)
        );
    }
    println!();
}

fn main() {
    let json_path = leime_bench::json_out_path();
    let registry = Registry::new();
    run_device(false, &registry);
    run_device(true, &registry);
    println!(
        "Paper reference: LEIME has the smallest mean TCT and best stability \
         on both devices; the benchmarks degrade or fluctuate when the rate \
         steps up."
    );
    if let Some(path) = json_path {
        leime_bench::write_telemetry(&registry, &path);
    }
}
