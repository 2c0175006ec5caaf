//! Fig. 10 / Test Case 4 — algorithm ablations.
//!
//! (a) Exit setting: LEIME's branch-and-bound vs min-computation,
//!     min-transmission and average-division placements, with LEIME's
//!     offloading algorithm fixed for all (paper: LEIME best overall, with
//!     larger gains on the large models).
//! (b) Offloading: LEIME's online algorithm vs device-only, edge-only and
//!     capability-based policies on a Jetson Nano (paper: 1.1×/1.2× at
//!     arrival rates 5/20, rising to 1.8× at rate 100).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use leime::{ControllerKind, ExitStrategy, ModelKind, Scenario};
use leime_bench::{fmt_speedup, fmt_time, header, render_table};

const SLOTS: usize = 150;
const SEED: u64 = 10;

fn main() {
    // ---- (a) Exit-setting ablation.
    println!("== Fig. 10(a): exit-setting ablation (LEIME offloading fixed) ==\n");
    let strategies = [
        ExitStrategy::Leime,
        ExitStrategy::MinComp,
        ExitStrategy::MinTran,
        ExitStrategy::Mean,
    ];
    let mut rows = Vec::new();
    for model in ModelKind::ALL {
        let base = Scenario::raspberry_pi_cluster(model, 4, 1.0);
        let mut row = vec![model.name().to_string()];
        let mut leime_tct = 0.0;
        for (i, strategy) in strategies.iter().enumerate() {
            let dep = base.deploy(*strategy).unwrap();
            let r = base.run_slotted(&dep, SLOTS, SEED).unwrap();
            if i == 0 {
                leime_tct = r.mean_tct_s();
            }
            row.push(fmt_time(r.mean_tct_s()));
            if i > 0 {
                row.push(fmt_speedup(r.mean_tct_s() / leime_tct));
            }
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &header(&[
                "model", "LEIME", "min_comp", "speedup", "min_tran", "speedup", "mean", "speedup",
            ]),
            &rows
        )
    );

    // ---- (b) Offloading ablation on a Jetson Nano.
    println!("\n== Fig. 10(b): offloading ablation (Jetson Nano, ME-Inception v3) ==\n");
    let controllers = [
        ("LEIME", ControllerKind::Lyapunov),
        ("D-only", ControllerKind::DeviceOnly),
        ("E-only", ControllerKind::EdgeOnly),
        ("cap_based", ControllerKind::CapabilityBased),
    ];
    let mut rows = Vec::new();
    for arrival in [5.0, 20.0, 100.0] {
        let mut row = vec![format!("rate {arrival}")];
        let mut leime_tct = 0.0;
        let mut baseline_sum = 0.0;
        for (i, (_, kind)) in controllers.iter().enumerate() {
            let mut base = Scenario::jetson_nano_cluster(ModelKind::InceptionV3, 1, arrival);
            // 80 Mbps WiFi: our d_0 is a raw f32 tensor (~67 KB at 75 px),
            // ~20x a compressed CIFAR image, so rate-100 offloading needs
            // headroom the paper's 3 KB JPEGs never did.
            base.devices[0].bandwidth_bps = 80e6;
            base.controller = *kind;
            let dep = base.deploy(ExitStrategy::Leime).unwrap();
            let r = base.run_slotted(&dep, SLOTS, SEED).unwrap();
            if i == 0 {
                leime_tct = r.mean_tct_s();
            } else {
                baseline_sum += r.mean_tct_s();
            }
            row.push(fmt_time(r.mean_tct_s()));
        }
        row.push(fmt_speedup(baseline_sum / 3.0 / leime_tct));
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &header(&[
                "arrival",
                "LEIME",
                "D-only",
                "E-only",
                "cap_based",
                "mean_speedup",
            ]),
            &rows
        )
    );
    println!(
        "\nPaper reference: LEIME improves 1.1x/1.2x at rates 5/20 and 1.8x \
         at rate 100 over the baselines on average."
    );
}
