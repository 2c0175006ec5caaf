//! Theorem 3 — the Lyapunov optimality gap: the time-average TCT under
//! the drift-plus-penalty controller approaches the offline optimum at
//! rate `B/V`, trading queue backlog for delay.
//!
//! Sweeps `V` and reports the mean TCT and the mean queue backlogs; the
//! offline reference is the best fixed offloading ratio chosen in
//! hindsight for the same workload.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use leime::{ControllerKind, ExitStrategy, ModelKind, Scenario};
use leime_bench::{fmt_time, header, render_table};

const SLOTS: usize = 400;
const SEED: u64 = 12;

fn main() {
    println!("== Theorem 3: V sweep (ME-Inception v3, Raspberry Pi, rate 8/slot) ==\n");
    let mut base = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, 2, 8.0);
    let dep = base.deploy(ExitStrategy::Leime).unwrap();

    // Offline reference: best fixed ratio in hindsight.
    let mut best_fixed = f64::INFINITY;
    let mut best_ratio = 0.0;
    for i in 0..=20 {
        let ratio = i as f64 / 20.0;
        base.controller = ControllerKind::Fixed(ratio);
        let r = base.run_slotted(&dep, SLOTS, SEED).unwrap();
        if r.mean_tct_s() < best_fixed {
            best_fixed = r.mean_tct_s();
            best_ratio = ratio;
        }
    }
    println!(
        "offline reference: best fixed ratio x = {best_ratio:.2} with mean TCT {}\n",
        fmt_time(best_fixed)
    );

    let mut rows = Vec::new();
    for v in [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6] {
        base.controller = ControllerKind::Lyapunov;
        base.v = v;
        let r = base.run_slotted(&dep, SLOTS, SEED).unwrap();
        rows.push(vec![
            format!("{v:.0}"),
            fmt_time(r.mean_tct_s()),
            format!("{:.3}", r.mean_tct_s() / best_fixed),
            format!("{:.2}", r.mean_queue_q()),
            format!("{:.2}", r.mean_queue_h()),
            format!("{:.3}", r.mean_offload_ratio()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &header(&["V", "mean_TCT", "vs_offline", "mean_Q", "mean_H", "mean_x"]),
            &rows
        )
    );
    println!(
        "\nTheorem 3 predicts the `vs_offline` column approaches 1 as V grows \
         (gap shrinking like B/V), with queue backlog as the price."
    );
}
