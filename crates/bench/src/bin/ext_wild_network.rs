//! Extension experiment — the "wild" network: bandwidth collapses and
//! bursty arrivals at the same time (the §II-A environment the paper
//! motivates but only evaluates one factor at a time). LEIME's online
//! controller vs the static policies under compound dynamics.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use leime::{systems, ControllerKind, ExitStrategy, ModelKind, Scenario, WorkloadKind};
use leime_bench::{fmt_time, render_table};
use leime_simnet::{SimTime, TimeTrace};
use leime_telemetry::Registry;

const SLOTS: usize = 400;
const SEED: u64 = 31;

fn wild_scenario() -> Scenario {
    let mut s = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, 3, 2.0);
    // WiFi quality cycles between nominal and 20 % (interference bursts).
    s.bandwidth_scale = Some(TimeTrace::square_wave(
        1.0,
        0.2,
        SimTime::from_secs(60.0),
        SimTime::from_secs(SLOTS as f64),
    ));
    // Arrivals burst to 6x with ~10% duty cycle.
    s.workload = WorkloadKind::Bursty {
        burst_factor: 6.0,
        p_enter: 0.03,
        p_leave: 0.25,
        max: 1000,
    };
    s
}

fn main() {
    println!("== Extension: compound wild-edge dynamics ==");
    println!("(bandwidth square wave 100%/20% every 60 s + 6x MMPP arrival bursts)\n");

    let json_path = leime_bench::json_out_path();
    let registry = Registry::new();

    let base = wild_scenario();
    let mut rows = Vec::new();
    let specs = systems::all();
    for spec in &specs {
        let (_, r) = spec
            .run_slotted_with_registry(&base, SLOTS, SEED, &registry)
            .unwrap();
        rows.push(vec![
            spec.name.to_string(),
            fmt_time(r.mean_tct_s()),
            fmt_time(r.p95_tct_s()),
            format!("{:.2}", r.mean_offload_ratio()),
            format!("{:.1}", r.mean_queue_q()),
        ]);
    }
    let h: Vec<String> = ["system", "mean_TCT", "p95_TCT", "mean_x", "mean_Q"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    println!("{}", render_table(&h, &rows));

    // Offloading-policy ablation under the same dynamics.
    println!("\n-- controller ablation (LEIME exits fixed) --\n");
    let mut rows = Vec::new();
    for (name, kind) in [
        ("lyapunov", ControllerKind::Lyapunov),
        ("d_only", ControllerKind::DeviceOnly),
        ("e_only", ControllerKind::EdgeOnly),
        ("cap_based", ControllerKind::CapabilityBased),
        ("fixed_0.5", ControllerKind::Fixed(0.5)),
    ] {
        let mut s = base.clone();
        s.controller = kind;
        let dep = s.deploy(ExitStrategy::Leime).unwrap();
        let prefix = format!("ablation.{name}");
        let r = s
            .run_slotted_with_registry(&dep, SLOTS, SEED, &registry, &prefix)
            .unwrap();
        rows.push(vec![
            name.to_string(),
            fmt_time(r.mean_tct_s()),
            fmt_time(r.p95_tct_s()),
            format!("{:.2}", r.mean_offload_ratio()),
        ]);
    }
    let h: Vec<String> = ["controller", "mean_TCT", "p95_TCT", "mean_x"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    println!("{}", render_table(&h, &rows));
    println!(
        "\nReading: under compound dynamics the online controller matches the \
         best static policy chosen in hindsight -- without knowing the \
         dynamics -- while the exit-placement benchmarks collapse outright."
    );
    if let Some(path) = json_path {
        leime_bench::write_telemetry(&registry, &path);
    }
}
