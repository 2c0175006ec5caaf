//! Smart-camera fleet: the workload the paper's introduction motivates —
//! face/object recognition from heterogeneous cameras whose traffic surges
//! during rush hours.
//!
//! Four Pi-class fixed cameras and two Nano-class PTZ cameras share one
//! edge box. The arrival rate follows a day-cycle trace (quiet → rush →
//! quiet), and we watch LEIME keep the completion time flat through the
//! surge while a static policy degrades.
//!
//! ```sh
//! cargo run --release -p leime --example smart_camera
//! ```

use leime::{ControllerKind, ExitStrategy, ModelKind, Scenario, WorkloadKind};
use leime_offload::DeviceParams;
use leime_simnet::{SimTime, TimeTrace};

fn main() -> Result<(), leime::LeimeError> {
    // Rush-hour trace: 2 tasks/s baseline, surging to 12 tasks/s.
    let trace = TimeTrace::from_points(vec![
        (SimTime::ZERO, 2.0),
        (SimTime::from_secs(100.0), 12.0), // morning rush
        (SimTime::from_secs(200.0), 3.0),
        (SimTime::from_secs(300.0), 10.0), // evening rush
        (SimTime::from_secs(400.0), 2.0),
    ])
    .map_err(leime::LeimeError::Config)?;

    let mut scenario = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, 4, 2.0);
    scenario.devices.push(DeviceParams::jetson_nano(2.0));
    scenario.devices.push(DeviceParams::jetson_nano(2.0));
    scenario.workload = WorkloadKind::RateTrace { trace, max: 1000 };

    let deployment = scenario.deploy(ExitStrategy::Leime)?;
    let (f, s, t) = deployment.combo.to_one_based();
    println!("fleet: 4x Pi cameras + 2x Nano cameras, ME-Inception v3");
    println!("LEIME exits: {f}, {s}, {t}\n");

    println!("{:>10}  {:>14}  {:>14}", "window", "LEIME", "device-only");
    let leime_run = scenario.run_slotted(&deployment, 500, 7)?;
    scenario.controller = ControllerKind::DeviceOnly;
    let static_run = scenario.run_slotted(&deployment, 500, 7)?;

    let window = SimTime::from_secs(100.0);
    let leime_w = leime_run.windowed_mean_tct(window);
    let static_w = static_run.windowed_mean_tct(window);
    for (lw, sw) in leime_w.iter().zip(&static_w) {
        println!(
            "{:>9.0}s  {:>12.1}ms  {:>12.1}ms",
            lw.0.as_secs(),
            lw.1 * 1e3,
            sw.1 * 1e3
        );
    }
    println!(
        "\noverall: LEIME {:.1} ms vs device-only {:.1} ms ({:.2}x), \
         offloading {:.0}% of tasks on average",
        leime_run.mean_tct_ms(),
        static_run.mean_tct_ms(),
        leime_run.speedup_vs(&static_run),
        leime_run.mean_offload_ratio() * 100.0
    );
    Ok(())
}
