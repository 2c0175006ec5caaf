//! Extension experiment — fault injection and graceful degradation: a
//! seeded `leime-chaos` schedule (≈30 % link-blackout duty plus
//! shared-medium bandwidth collapses) hits the fleet for the first
//! `FAULT_WINDOW_S` seconds of the run, then clears so the tail measures
//! recovery. LEIME with the timeout → retry → local-fallback ladder is
//! compared against the fault-free run and against a fully-local
//! baseline under the same faults.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use leime::{
    invariant, ControllerKind, ExitStrategy, ModelKind, RunReport, Scenario, SlottedSystem,
};
use leime_bench::{fmt_time, render_table};
use leime_telemetry::Registry;

const SLOTS: usize = 300;
const SEED: u64 = 17;
const CHAOS_SEED: u64 = 42;
const DEVICES: usize = 3;
const FAULT_WINDOW_S: f64 = 120.0;
/// Post-fault backlog envelope (first-block task equivalents) the queues
/// must drain back into once the schedule clears — Eq. 10–11 stability.
/// Sized ~2x the fault-free steady-state backlog (≈56 at this load);
/// the unstable fully-local baseline ends an order of magnitude above it.
const DRAIN_ENVELOPE: f64 = 100.0;

struct Arm {
    name: &'static str,
    report: RunReport,
    backlog: f64,
}

fn run_arm(name: &'static str, scenario: &Scenario, registry: &Registry) -> Arm {
    let dep = scenario.deploy(ExitStrategy::Leime).unwrap();
    let mut sys = SlottedSystem::new(scenario.clone(), dep).unwrap();
    sys.attach_registry(registry, &format!("chaos.{name}"));
    let report = sys.run(SLOTS, SEED).unwrap();
    let backlog = sys.queues().iter().map(|qp| qp.q() + qp.h()).sum::<f64>();
    Arm {
        name,
        report,
        backlog,
    }
}

fn main() {
    println!("== Extension: fault injection & graceful degradation ==");
    println!(
        "({DEVICES} Pi-class devices, link flaps at 30% duty + bandwidth collapses \
         for the first {FAULT_WINDOW_S:.0} s of {SLOTS} slots, chaos seed {CHAOS_SEED})\n"
    );

    let json_path = leime_bench::json_out_path();
    let registry = Registry::new();

    let faulted =
        Scenario::chaos_testbed(ModelKind::SqueezeNet, DEVICES, CHAOS_SEED, FAULT_WINDOW_S);
    let mut clean = faulted.clone();
    clean.chaos = None;
    let mut local = faulted.clone();
    local.controller = ControllerKind::DeviceOnly;

    let arms = [
        run_arm("clean", &clean, &registry),
        run_arm("graceful", &faulted, &registry),
        run_arm("d_only", &local, &registry),
    ];
    let clean_mean = arms[0].report.mean_tct_s();

    let mut rows = Vec::new();
    for arm in &arms {
        let r = &arm.report;
        let f = r.fault_stats();
        rows.push(vec![
            arm.name.to_string(),
            fmt_time(r.mean_tct_s()),
            fmt_time(r.mean_tct_after(FAULT_WINDOW_S)),
            format!("{:.3}", r.completion_rate()),
            format!("{}", f.fault_slots),
            format!("{}/{}/{}", f.timeouts, f.fallbacks, f.recoveries),
            format!("{:.1}", arm.backlog),
        ]);
    }
    let h: Vec<String> = [
        "arm",
        "mean_TCT",
        "tail_TCT",
        "completion",
        "fault_slots",
        "to/fb/rec",
        "end_backlog",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    println!("{}", render_table(&h, &rows));

    // Recovery guard: once the schedule clears, the LEIME arms' queues
    // must drain back into the envelope (Eq. 10–11 stability after
    // faults). The fully-local baseline is exempt — the testbed load
    // exceeds standalone device capacity by design, so its backlog grows
    // without bound whether or not faults are injected.
    for arm in &arms[..2] {
        invariant::check_drained(
            &format!("ext_chaos.{}", arm.name),
            arm.backlog,
            DRAIN_ENVELOPE,
        );
    }

    let graceful = &arms[1].report;
    let local = &arms[2].report;
    let tail = graceful.mean_tct_after(FAULT_WINDOW_S);
    println!(
        "\nReading: under faults the graceful controller completes \
         {:.1}% of arriving work vs {:.1}% fully-local, and its post-fault \
         mean TCT ({}) recovers to within {:.1}% of the fault-free mean ({}).",
        graceful.completion_rate() * 100.0,
        local.completion_rate() * 100.0,
        fmt_time(tail),
        (tail / clean_mean - 1.0).abs() * 100.0,
        fmt_time(clean_mean),
    );
    if let Some(path) = json_path {
        leime_bench::write_telemetry(&registry, &path);
    }
}
