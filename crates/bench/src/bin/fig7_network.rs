//! Fig. 7 / Test Case 2 — overall system performance under varying
//! networks: average TCT of LEIME vs Neurosurgeon, Edgent and DDNN on a
//! Raspberry Pi running ME-Inception v3, sweeping (left) bandwidth and
//! (right) propagation delay.
//!
//! Paper-reported average speedups: 4.4× / 6.5× / 18.7× over
//! Neurosurgeon / Edgent / DDNN across bandwidths, and 4.2× / 5.7× /
//! 14.5× across propagation delays; LEIME's edge grows as the network
//! degrades.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use leime::{systems, ModelKind};
use leime_bench::{fmt_speedup, fmt_time, render_table, single_device};

const SLOTS: usize = 150;
const SEED: u64 = 7;

fn main() {
    let specs = systems::all();

    // ---- Left: bandwidth sweep.
    println!("== Fig. 7 (left): average TCT vs bandwidth (ME-Inception v3, Pi) ==\n");
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 3];
    let bws = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
    for &bw in &bws {
        let mut base = single_device(ModelKind::InceptionV3, false, 1.0);
        base.devices[0].bandwidth_bps = bw * 1e6;
        let mut row = vec![format!("{bw}Mbps")];
        let mut leime_tct = 0.0;
        for (i, spec) in specs.iter().enumerate() {
            let (_, r) = spec.run_slotted(&base, SLOTS, SEED).unwrap();
            if i == 0 {
                leime_tct = r.mean_tct_s();
            } else {
                sums[i - 1] += r.mean_tct_s() / leime_tct;
            }
            row.push(fmt_time(r.mean_tct_s()));
        }
        rows.push(row);
    }
    let mut h = vec!["bandwidth".to_string()];
    h.extend(specs.iter().map(|s| s.name.to_string()));
    println!("{}", render_table(&h, &rows));
    for (i, spec) in specs.iter().skip(1).enumerate() {
        println!(
            "mean speedup of LEIME vs {}: {}",
            spec.name,
            fmt_speedup(sums[i] / bws.len() as f64)
        );
    }

    // ---- Right: propagation-delay sweep.
    println!("\n== Fig. 7 (right): average TCT vs propagation delay ==\n");
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 3];
    let lats = [10.0, 25.0, 50.0, 100.0, 150.0, 200.0];
    for &lat in &lats {
        let mut base = single_device(ModelKind::InceptionV3, false, 1.0);
        base.devices[0].latency_s = lat / 1e3;
        let mut row = vec![format!("{lat}ms")];
        let mut leime_tct = 0.0;
        for (i, spec) in specs.iter().enumerate() {
            let (_, r) = spec.run_slotted(&base, SLOTS, SEED).unwrap();
            if i == 0 {
                leime_tct = r.mean_tct_s();
            } else {
                sums[i - 1] += r.mean_tct_s() / leime_tct;
            }
            row.push(fmt_time(r.mean_tct_s()));
        }
        rows.push(row);
    }
    let mut h = vec!["prop_delay".to_string()];
    h.extend(specs.iter().map(|s| s.name.to_string()));
    println!("{}", render_table(&h, &rows));
    for (i, spec) in specs.iter().skip(1).enumerate() {
        println!(
            "mean speedup of LEIME vs {}: {}",
            spec.name,
            fmt_speedup(sums[i] / lats.len() as f64)
        );
    }
    println!(
        "\nPaper reference: 4.4x/6.5x/18.7x (bandwidth sweep) and \
         4.2x/5.7x/14.5x (delay sweep) vs Neurosurgeon/Edgent/DDNN."
    );
}
