//! Fig. 2 — the effect of system computing capability and DNN type on the
//! optimal exit settings (§II-B1 motivation).
//!
//! (a) normalized latency vs First-exit position on Raspberry Pi vs Jetson
//!     Nano (ME-Inception v3),
//! (b) normalized latency vs Second-exit position under light vs heavy
//!     edge load,
//! (c)(d) optimal First/Second exits per DNN type.
//!
//! Uses the paper-faithful cost model (Eq. 1–4, first block on device) —
//! these are pre-LEIME motivation measurements without offloading.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use leime::ModelKind;
use leime_bench::{fmt_time, header, render_table};
use leime_dnn::{ExitCombo, ExitSpec, ModelProfile};
use leime_exitcfg::{branch_and_bound, CostModel, EnvParams};
use leime_workload::ExitRateModel;

fn main() {
    let chain = ModelKind::InceptionV3.build(10);
    let rates = ExitRateModel::cifar_like().rates_for_chain(&chain);
    let profile = ModelProfile::from_chain(&chain, ExitSpec::default()).unwrap();
    let m = profile.num_layers();

    // ---- (a) First-exit sweep on Pi vs Nano (Second-exit fixed optimal).
    println!("== Fig. 2(a): normalized latency vs First-exit (ME-Inception v3) ==\n");
    let mut rows = Vec::new();
    let envs = [
        ("raspberry_pi", EnvParams::raspberry_pi()),
        ("jetson_nano", EnvParams::jetson_nano()),
    ];
    let mut optima = Vec::new();
    for (name, env) in envs {
        let cost = CostModel::new(&profile, &rates, env).unwrap();
        // For each candidate First-exit, use the best Second-exit.
        let latency_for_first = |first: usize| -> f64 {
            (first + 1..m - 1)
                .map(|second| {
                    cost.total(ExitCombo::new(first, second, m - 1, m).unwrap())
                        .unwrap()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let lats: Vec<f64> = (0..m - 2).map(latency_for_first).collect();
        let best = lats.iter().copied().fold(f64::INFINITY, f64::min);
        let argbest = lats
            .iter()
            .position(|&l| l == best)
            .expect("non-empty sweep");
        optima.push((name, argbest + 1));
        for (i, &l) in lats.iter().enumerate() {
            if rows.len() <= i {
                rows.push(vec![format!("exit-{}", i + 1)]);
            }
            rows[i].push(format!("{:.3}", l / best));
        }
    }
    println!(
        "{}",
        render_table(&header(&["first_exit", "pi_norm", "nano_norm"]), &rows)
    );
    for (name, exit) in &optima {
        println!("optimal First-exit on {name}: exit-{exit}");
    }

    // ---- (b) Second-exit sweep under light vs heavy edge load.
    println!("\n== Fig. 2(b): normalized latency vs Second-exit (edge load) ==\n");
    let mut rows = Vec::new();
    let mut optima = Vec::new();
    for (name, scale) in [("light_edge", 20.0f64), ("heavy_edge", 0.05)] {
        let env = EnvParams::raspberry_pi().with_edge_scale(scale);
        let cost = CostModel::new(&profile, &rates, env).unwrap();
        let latency_for_second = |second: usize| -> f64 {
            (0..second)
                .map(|first| {
                    cost.total(ExitCombo::new(first, second, m - 1, m).unwrap())
                        .unwrap()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let lats: Vec<f64> = (1..m - 1).map(latency_for_second).collect();
        let best = lats.iter().copied().fold(f64::INFINITY, f64::min);
        let argbest = lats.iter().position(|&l| l == best).unwrap();
        optima.push((name, argbest + 2));
        for (i, &l) in lats.iter().enumerate() {
            if rows.len() <= i {
                rows.push(vec![format!("exit-{}", i + 2)]);
            }
            rows[i].push(format!("{:.3}", l / best));
        }
    }
    println!(
        "{}",
        render_table(&header(&["second_exit", "light_norm", "heavy_norm"]), &rows)
    );
    for (name, exit) in &optima {
        println!("optimal Second-exit with {name}: exit-{exit}");
    }

    // ---- (c)(d) Optimal exits per DNN type.
    println!("\n== Fig. 2(c)(d): optimal exits per DNN type (Raspberry Pi env) ==\n");
    let mut rows = Vec::new();
    for model in ModelKind::ALL {
        let chain = model.build(10);
        let rates = ExitRateModel::cifar_like().rates_for_chain(&chain);
        let profile = ModelProfile::from_chain(&chain, ExitSpec::default()).unwrap();
        let cost = CostModel::new(&profile, &rates, EnvParams::raspberry_pi()).unwrap();
        let (combo, t, _) = branch_and_bound(&cost).unwrap();
        let (f, s, th) = combo.to_one_based();
        rows.push(vec![
            model.name().to_string(),
            chain.num_layers().to_string(),
            format!("exit-{f}"),
            format!("exit-{s}"),
            format!("exit-{th}"),
            fmt_time(t),
        ]);
    }
    println!(
        "{}",
        render_table(
            &header(&["model", "m", "first", "second", "third", "T(E)"]),
            &rows
        )
    );
}
