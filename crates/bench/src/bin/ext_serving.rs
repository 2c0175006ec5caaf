//! Extension experiment — online serving with SLA classes and admission
//! control: sweeps offered load (as a multiple of the serving testbed's
//! nominal rate) with the `leime-serving` admission controller enabled
//! and disabled, and reports the per-class deadline-hit-rate and
//! completion-time quantiles (p50/p99/p999). A flash-crowd-over-brownout
//! composition arm exercises the same stack under `leime-chaos` faults.
//!
//! Writes `BENCH_serving.json` (schema `leime-bench/1`) and hard-fails
//! if admission control does not beat the no-admission baseline on
//! latency-critical hit-rate under overload (the PR's acceptance bar).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use leime::{invariant, ModelKind};
use leime_bench::{fmt_time, render_table};
use leime_serving::{
    flash_brownout_testbed, serving_testbed, ServingReport, ServingSystem, SlaClass,
};
use leime_telemetry::Registry;

const SLOTS: usize = 120;
const SEED: u64 = 3;
const CHAOS_SEED: u64 = 42;
const DEVICES: usize = 4;
/// Load multipliers: 0.6 underload, 1.0 nominal (~75% of fleet
/// capacity), 2.0 and 3.0 true overload where admission must shed.
const LOADS: [f64; 4] = [0.6, 1.0, 2.0, 3.0];
/// Loads at or above this are the overload regime the acceptance check
/// (admission beats no-admission on latency-critical hit-rate) runs on.
const OVERLOAD: f64 = 2.0;
const OUT_PATH: &str = "BENCH_serving.json";

struct Arm {
    load: f64,
    admission: bool,
    report: ServingReport,
}

fn run_arm(load: f64, admission: bool, registry: Option<(&Registry, &str)>) -> Arm {
    let (scenario, mut config) = serving_testbed(ModelKind::SqueezeNet, DEVICES, load);
    config.admission.enabled = admission;
    let mut sys = ServingSystem::new(scenario, config).unwrap();
    if let Some((reg, prefix)) = registry {
        sys.attach_registry(reg, prefix);
    }
    let report = sys.run(SLOTS, SEED).unwrap();
    Arm {
        load,
        admission,
        report,
    }
}

fn table_row(name: &str, arm: &Arm) -> Vec<String> {
    let r = &arm.report;
    let lc = r.class(SlaClass::LatencyCritical);
    let hit = |c: SlaClass| {
        format!(
            "{:.3}",
            invariant::check_unit_interval("ext_serving.hit_rate", r.class(c).hit_rate())
        )
    };
    let q = |v: Option<f64>| v.map_or("-".to_string(), fmt_time);
    vec![
        name.to_string(),
        format!("{:.1}", arm.load),
        if arm.admission { "on" } else { "off" }.to_string(),
        format!("{}", r.offered_total()),
        format!(
            "{:.1}%",
            100.0 * r.shed_total() as f64 / r.offered_total().max(1) as f64
        ),
        hit(SlaClass::LatencyCritical),
        hit(SlaClass::Standard),
        hit(SlaClass::BestEffort),
        q(lc.p50()),
        q(lc.p99()),
        q(lc.p999()),
        format!(
            "{:.0}",
            invariant::check_nonneg("ext_serving.backlog", r.final_backlog)
        ),
    ]
}

fn class_json(r: &ServingReport) -> serde_json::Value {
    let per = |c: SlaClass| {
        let s = r.class(c);
        serde_json::json!({
            "deadline_s": s.deadline_s,
            "offered": s.offered,
            "admitted": s.admitted,
            "shed": s.shed,
            "hit_rate": s.hit_rate(),
            "admitted_hit_rate": s.admitted_hit_rate(),
            "p50_s": s.p50(),
            "p99_s": s.p99(),
            "p999_s": s.p999(),
        })
    };
    let mut classes = serde_json::Map::new();
    for c in SlaClass::ALL {
        classes.insert(c.name().to_string(), per(c));
    }
    serde_json::Value::Object(classes)
}

fn arm_json(arm: &Arm) -> serde_json::Value {
    let r = &arm.report;
    serde_json::json!({
        "load": arm.load,
        "admission": arm.admission,
        "offered": r.offered_total(),
        "admitted": r.admitted_total(),
        "shed": r.shed_total(),
        "hard_requests": r.hard_requests,
        "fault_slots": r.fault_slots,
        "mean_offload_x": r.mean_offload_ratio(),
        "final_backlog": r.final_backlog,
        "classes": class_json(r),
    })
}

fn main() {
    println!("== Extension: online serving — load vs deadline-hit-rate ==");
    println!(
        "({DEVICES} Pi-class devices on a scarce 2.5 GFLOPS edge, \
         {SLOTS} slots, seed {SEED}; hit-rate counts shed requests as \
         misses; latency-critical / standard / best-effort deadlines \
         are the serving defaults)\n"
    );

    let json_path = leime_bench::json_out_path();
    let registry = Registry::new();

    let mut arms = Vec::new();
    for &load in &LOADS {
        for admission in [true, false] {
            // Telemetry follows the headline overload arm.
            let tap = (load == OVERLOAD && admission).then_some((&registry, "serving.load2x"));
            arms.push(run_arm(load, admission, tap));
        }
    }

    let rows: Vec<Vec<String>> = arms.iter().map(|a| table_row("sweep", a)).collect();
    let h: Vec<String> = [
        "arm", "load", "adm", "offered", "shed", "lc_hit", "std_hit", "be_hit", "lc_p50", "lc_p99",
        "lc_p999", "backlog",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    println!("{}", render_table(&h, &rows));

    // The golden composition: a 3x flash crowd breaking over an edge
    // brownout, admission on — the stack's worst plausible hour.
    let (scenario, config) =
        flash_brownout_testbed(ModelKind::SqueezeNet, DEVICES, CHAOS_SEED, 1.0);
    let mut sys = ServingSystem::new(scenario, config).unwrap();
    let flash_report = sys.run(SLOTS, SEED).unwrap();
    let flash = Arm {
        load: 1.0,
        admission: true,
        report: flash_report,
    };
    println!(
        "{}",
        render_table(&h, &[table_row("flash+brownout", &flash)])
    );

    // Acceptance: under overload, shedding must buy latency-critical
    // hit-rate relative to admitting everything.
    let lc_hit = |load: f64, admission: bool| {
        arms.iter()
            .find(|a| a.load == load && a.admission == admission)
            .map(|a| a.report.class(SlaClass::LatencyCritical).hit_rate())
            .unwrap_or(0.0)
    };
    for &load in LOADS.iter().filter(|&&l| l >= OVERLOAD) {
        let (on, off) = (lc_hit(load, true), lc_hit(load, false));
        if on <= off {
            eprintln!(
                "FATAL: at {load}x load, admission control's latency-critical \
                 hit-rate {on:.3} does not beat the no-admission baseline {off:.3}"
            );
            std::process::exit(1);
        }
    }

    let (on2, off2) = (lc_hit(OVERLOAD, true), lc_hit(OVERLOAD, false));
    println!(
        "Reading: at {OVERLOAD}x overload the admission controller sheds \
         best-effort traffic to keep latency-critical deadline-hit-rate at \
         {:.1}% (vs {:.1}% with admission off, where backlog growth drags \
         every class past its deadline); under the flash-crowd-over-brownout \
         composition it still holds {:.1}% on latency-critical with \
         {} fault device-slots.",
        on2 * 100.0,
        off2 * 100.0,
        flash.report.class(SlaClass::LatencyCritical).hit_rate() * 100.0,
        flash.report.fault_slots,
    );

    let record = serde_json::json!({
        "schema": "leime-bench/1",
        "bench": "ext_serving",
        "devices": DEVICES,
        "slots": SLOTS,
        "seed": SEED,
        "chaos_seed": CHAOS_SEED,
        "sweep": arms.iter().map(arm_json).collect::<Vec<_>>(),
        "flash_brownout": arm_json(&flash),
        "headline": {
            "overload": OVERLOAD,
            "lc_hit_with_admission": on2,
            "lc_hit_without_admission": off2,
        },
    });
    let text = match serde_json::to_string_pretty(&record) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("BENCH_serving record failed to serialise: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(OUT_PATH, text + "\n") {
        eprintln!("write {OUT_PATH}: {e}");
        std::process::exit(1);
    }
    eprintln!("bench record written to {OUT_PATH}");

    if let Some(path) = json_path {
        leime_bench::write_telemetry(&registry, &path);
    }
}
