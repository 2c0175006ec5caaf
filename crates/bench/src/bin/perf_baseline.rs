//! Perf baseline for the deterministic parallel fleet runner.
//!
//! Times the 64-device reference scenario sequentially and under
//! `leime-par` sharding, verifies the outputs are byte-identical (the
//! DESIGN.md §11 contract — a perf number from a diverging run would be
//! meaningless), and appends the run to `BENCH_par.json` (schema
//! `leime-bench/1`) for CI to archive.
//!
//! The artifact is a *history*: `{"runs": [...]}` with one record per
//! invocation, keyed by git revision and a monotonically increasing run
//! id, so perf drift across commits stays visible. A pre-history
//! single-record file is migrated in place on the next run.
//!
//! ```text
//! cargo run --release -p leime-bench --bin perf_baseline -- --workers 1,2,4
//! ```
//!
//! Flags: `--workers <list>` (comma-separated counts, default `1,2,4`),
//! `--devices <n>` (default 64), `--slots <n>` (default 200),
//! `--json <path>` (default `BENCH_par.json`), `--gate` (regression
//! gate, see below).
//!
//! The ≥1.5× speedup expectation at 4 workers is a *soft* check: on a
//! constrained CI box it logs a warning rather than failing, so the
//! artifact still lands and the regression shows up in the history.
//!
//! `--gate` turns the *history* into a hard check: the run's best
//! slots/s is compared against the **rolling median** of the last
//! [`perf::GATE_WINDOW`] comparable prior records (same host, device
//! and slot counts — see `leime_bench::perf`), and a drop of more than
//! [`perf::GATE_REGRESSION_PCT`]% exits non-zero — after appending the run,
//! so the regression is archived either way. A median baseline means a
//! single lucky run cannot ratchet the floor up permanently. With no
//! comparable history the gate skips with a notice instead of failing,
//! so fresh clones, new hardware and parameter changes don't wedge CI.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use std::num::NonZeroUsize;
use std::path::PathBuf;

use leime::{ControllerKind, ExitStrategy, ModelKind, RunReport, Scenario};
use leime_bench::perf::{self, history_doc, load_history, rolling_median_baseline};
use leime_bench::{fmt_speedup, fmt_time, header, render_table};
use leime_telemetry::{Clock, WallClock};

const SEED: u64 = 7;
/// Expected parallel speedup at 4 workers on the reference scenario
/// (soft: logged, not enforced — CI runners vary).
const SOFT_SPEEDUP_FLOOR: f64 = 1.5;

struct Args {
    workers: Vec<usize>,
    devices: usize,
    slots: usize,
    json: PathBuf,
    gate: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workers: vec![1, 2, 4],
        devices: 64,
        slots: 200,
        json: PathBuf::from("BENCH_par.json"),
        gate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a {what} argument");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--workers" => {
                args.workers = value("comma-separated list")
                    .split(',')
                    .map(|w| {
                        w.trim().parse().unwrap_or_else(|_| {
                            eprintln!("bad worker count {w:?}");
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            "--devices" => args.devices = parse_or_die(&value("number")),
            "--slots" => args.slots = parse_or_die(&value("number")),
            "--json" => args.json = PathBuf::from(value("path")),
            "--gate" => args.gate = true,
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if args.workers.is_empty() || args.workers.contains(&0) {
        eprintln!("--workers needs at least one non-zero count");
        std::process::exit(2);
    }
    args
}

fn parse_or_die(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad numeric argument {s:?}");
        std::process::exit(2);
    })
}

/// One timed run; the clock is the telemetry crate's [`WallClock`] (the
/// workspace's only sanctioned wall-time source, rule L3).
fn timed_run(
    scenario: &Scenario,
    deployment: &leime::Deployment,
    slots: usize,
    workers: usize,
) -> (RunReport, f64) {
    let clock = WallClock::new();
    let report = scenario
        .run_slotted_workers(
            deployment,
            slots,
            SEED,
            NonZeroUsize::new(workers).expect("validated non-zero"),
        )
        .expect("reference scenario must run");
    (report, clock.now())
}

fn main() {
    let args = parse_args();
    let mut scenario = Scenario::raspberry_pi_cluster(ModelKind::InceptionV3, args.devices, 5.0);
    scenario.controller = ControllerKind::Lyapunov;
    let deployment = scenario
        .deploy(ExitStrategy::Leime)
        .expect("reference deployment");

    println!(
        "== perf_baseline: {} devices, {} slots, seed {SEED} ==\n",
        args.devices, args.slots
    );

    // Warm-up (page in code, spin up allocator arenas), then the timed
    // sequential reference.
    let _ = timed_run(&scenario, &deployment, args.slots.min(20), 1);
    let (seq_report, seq_s) = timed_run(&scenario, &deployment, args.slots, 1);
    let seq_json = serde_json::to_string(&seq_report).expect("report serializes");

    let mut rows = Vec::new();
    let mut runs = Vec::new();
    rows.push(vec![
        "1 (reference)".to_string(),
        fmt_time(seq_s),
        format!("{:.1}", args.slots as f64 / seq_s),
        fmt_speedup(1.0),
        "yes".to_string(),
    ]);
    let mut best_speedup = 1.0f64;
    for &w in &args.workers {
        if w == 1 {
            continue;
        }
        let (report, par_s) = timed_run(&scenario, &deployment, args.slots, w);
        let identical = serde_json::to_string(&report).expect("report serializes") == seq_json;
        if !identical {
            // A diverging parallel run is a correctness bug, not a perf
            // data point; fail loudly.
            eprintln!("FATAL: run with {w} workers diverged from sequential output");
            std::process::exit(1);
        }
        let speedup = seq_s / par_s;
        best_speedup = best_speedup.max(speedup);
        rows.push(vec![
            w.to_string(),
            fmt_time(par_s),
            format!("{:.1}", args.slots as f64 / par_s),
            fmt_speedup(speedup),
            "yes".to_string(),
        ]);
        runs.push(serde_json::json!({
            "workers": w,
            "wall_ms": par_s * 1e3,
            "slots_per_sec": args.slots as f64 / par_s,
            "speedup": speedup,
            "identical_to_sequential": true,
        }));
    }
    println!(
        "{}",
        render_table(
            &header(&["workers", "wall", "slots/s", "speedup", "identical"]),
            &rows
        )
    );

    if args.workers.iter().any(|&w| w >= 4) && best_speedup < SOFT_SPEEDUP_FLOOR {
        eprintln!(
            "WARN: best speedup {best_speedup:.2}x below the {SOFT_SPEEDUP_FLOOR}x expectation \
             (constrained runner?) — recorded, not failed"
        );
    }

    let mut history = load_history(&args.json);
    // Snapshot the rolling-median baseline before this run joins the
    // history; the gate verdict comes after the write so the regression
    // is archived either way.
    let host = perf::host();
    let baseline = rolling_median_baseline(&history, &host, args.devices, args.slots);
    let current_best = (args.slots as f64 / seq_s).max(
        runs.iter()
            .filter_map(|r| r["slots_per_sec"].as_f64())
            .fold(0.0, f64::max),
    );
    let record = perf::new_row(
        history.len() + 1,
        serde_json::json!({
            "devices": args.devices,
            "slots": args.slots,
            "seed": SEED,
            "sequential": {
                "wall_ms": seq_s * 1e3,
                "slots_per_sec": args.slots as f64 / seq_s,
            },
            "parallel": runs,
            "best_speedup": best_speedup,
            "soft_speedup_floor": SOFT_SPEEDUP_FLOOR,
        }),
    );
    history.push(record);
    let doc = history_doc(history);
    let pretty = serde_json::to_string_pretty(&doc).expect("record serializes");
    if let Err(e) = std::fs::write(&args.json, pretty + "\n") {
        eprintln!("write {}: {e}", args.json.display());
        std::process::exit(1);
    }
    println!(
        "baseline appended to {} ({} run(s) on record)",
        args.json.display(),
        doc["runs"].as_array().map_or(0, Vec::len)
    );

    if args.gate {
        let envelope = format!("{} devices / {} slots", args.devices, args.slots);
        let label = perf::GateLabel {
            figure: "best",
            unit: "slots/s",
            decimals: 1,
            envelope: &envelope,
            archive: &args.json,
        };
        match perf::gate(baseline, current_best, label) {
            Ok(line) => println!("{line}"),
            Err(line) => {
                eprintln!("{line}");
                std::process::exit(1);
            }
        }
    }
}
