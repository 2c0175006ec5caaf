//! Fig. 8 / Test Case 2 — performance under different DNN models
//! (SqueezeNet-1.0, VGG-16, Inception v3, ResNet-34) on a Raspberry Pi
//! and a Jetson Nano.
//!
//! Paper-reported: LEIME achieves 1.6×–13.2× speedup on the Pi and
//! 1.1×–10.3× on the Nano; Neurosurgeon tracks LEIME's shape (same
//! partition, no early exit); Edgent and DDNN fluctuate across models.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use leime::{systems, ModelKind};
use leime_bench::{fmt_speedup, fmt_time, header, render_table, single_device};

const SLOTS: usize = 150;
const SEED: u64 = 8;

fn run_device(nano: bool) {
    let device = if nano { "Jetson Nano" } else { "Raspberry Pi" };
    println!("== Fig. 8: average TCT per model on {device} ==\n");
    let specs = systems::all();
    let mut rows = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    // Load scaled to device capability (the paper drives both devices at
    // rates each can sustain; a Pi at the Nano's rate only measures queue
    // explosion for the no-offload baselines).
    let arrival = if nano { 4.0 } else { 1.0 };
    for model in ModelKind::ALL {
        let base = single_device(model, nano, arrival);
        let mut row = vec![model.name().to_string()];
        let mut leime_tct = 0.0;
        for (i, spec) in specs.iter().enumerate() {
            let (_, r) = spec.run_slotted(&base, SLOTS, SEED).unwrap();
            if i == 0 {
                leime_tct = r.mean_tct_s();
            } else {
                speedups.push(r.mean_tct_s() / leime_tct);
            }
            row.push(fmt_time(r.mean_tct_s()));
        }
        rows.push(row);
    }
    let mut h = header(&["model"]);
    h.extend(specs.iter().map(|s| s.name.to_string()));
    println!("{}", render_table(&h, &rows));
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "LEIME speedup range on {device}: {} – {}\n",
        fmt_speedup(min),
        fmt_speedup(max)
    );
}

fn main() {
    run_device(false);
    run_device(true);
    println!(
        "Paper reference: 1.6x–13.2x on the Raspberry Pi, 1.1x–10.3x on the \
         Jetson Nano."
    );
}
