//! Fleet-scale throughput sweep: devices × edges up to a million-device
//! multi-edge run (ISSUE 10 / EXPERIMENTS.md `ext_fleet`).
//!
//! Each sweep cell builds a [`leime_fleet::FleetSystem`] over the
//! reference SqueezeNet/Raspberry-Pi scenario, runs a fixed slot horizon
//! under `leime-par` sharding and reports wall-clock, slots/s and
//! device-slots/s (the scale-comparable unit: one device advancing one
//! slot). The smallest cell is additionally run at one worker and must
//! be byte-identical to the sharded run — a perf number from a diverging
//! fleet would be meaningless (DESIGN.md §16). Both of its wall times and
//! their ratio are printed and archived, with a plain "N workers lose"
//! when the sharded run is the slower one.
//!
//! ```text
//! cargo run --release -p leime-bench --bin ext_fleet -- \
//!     --devices 10000,100000,1000000 --edges 1,4,16
//! ```
//!
//! Flags: `--devices <list>` (default `10000,100000,1000000`),
//! `--edges <list>` (default `1,4,16`), `--slots <n>` (default 10),
//! `--workers <n>` (default 4), `--rebalance <n>` (boundary cadence in
//! slots, default 5), `--json <path>` (default `BENCH_fleet.json`),
//! `--gate`.
//!
//! The artifact is a history (`{"runs": [...]}`, schema `leime-bench/1`)
//! keyed by git revision, like `BENCH_par.json`. `--gate` compares the
//! run's peak device-slots/s against the rolling median of the last
//! [`perf::GATE_WINDOW`] comparable records (same host and devices ×
//! edges × slots envelope) and fails on a drop of more than
//! [`perf::GATE_REGRESSION_PCT`]% — after appending, so regressions are
//! archived either way. With no comparable history the gate skips with
//! a notice (fresh clones, new hardware and sweep changes must not
//! wedge CI).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use std::num::NonZeroUsize;
use std::path::PathBuf;

use leime::{ControllerKind, ExitStrategy, ModelKind, Scenario, DEFAULT_EPOCH_LEN};
use leime_bench::perf::{self, fleet_rolling_median_baseline, history_doc_for, load_history_for};
use leime_bench::{fmt_time, header, render_table};
use leime_fleet::{FleetConfig, FleetReport, FleetSystem};
use leime_telemetry::{Clock, WallClock};

const SEED: u64 = 13;

struct Args {
    devices: Vec<usize>,
    edges: Vec<usize>,
    slots: usize,
    workers: usize,
    rebalance: usize,
    json: PathBuf,
    gate: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        devices: vec![10_000, 100_000, 1_000_000],
        edges: vec![1, 4, 16],
        slots: 10,
        workers: 4,
        rebalance: 5,
        json: PathBuf::from("BENCH_fleet.json"),
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
            "--devices" => args.devices = parse_list_or_die(&value("comma-separated list")),
            "--edges" => args.edges = parse_list_or_die(&value("comma-separated list")),
            "--slots" => args.slots = parse_or_die(&value("number")),
            "--workers" => args.workers = parse_or_die(&value("number")),
            "--rebalance" => args.rebalance = parse_or_die(&value("number")),
            "--json" => args.json = PathBuf::from(value("path")),
            "--gate" => args.gate = true,
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if args.devices.is_empty() || args.edges.is_empty() || args.edges.contains(&0) {
        eprintln!("--devices and --edges need at least one non-zero entry");
        std::process::exit(2);
    }
    if args.workers == 0 || args.slots == 0 {
        eprintln!("--workers and --slots must be non-zero");
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

fn parse_list_or_die(s: &str) -> Vec<usize> {
    s.split(',').map(|v| parse_or_die(v.trim())).collect()
}

fn build_fleet(devices: usize, edges: usize, rebalance: usize) -> FleetSystem {
    let mut scenario = Scenario::raspberry_pi_cluster(ModelKind::SqueezeNet, devices, 5.0);
    scenario.controller = ControllerKind::Lyapunov;
    let deployment = scenario
        .deploy(ExitStrategy::Leime)
        .expect("reference deployment");
    FleetSystem::new(
        scenario,
        deployment,
        FleetConfig::regional(edges, rebalance),
    )
    .expect("fleet builds")
}

/// One timed fleet run; the clock is the telemetry crate's [`WallClock`]
/// (the workspace's only sanctioned wall-time source, rule L3).
fn timed_run(
    devices: usize,
    edges: usize,
    rebalance: usize,
    slots: usize,
    workers: usize,
) -> (FleetReport, f64) {
    let mut fleet = build_fleet(devices, edges, rebalance);
    let clock = WallClock::new();
    let report = fleet
        .run_with_workers_epochs(
            slots,
            SEED,
            NonZeroUsize::new(workers).expect("validated non-zero"),
            DEFAULT_EPOCH_LEN,
        )
        .expect("fleet runs");
    (report, clock.now())
}

fn main() {
    let args = parse_args();
    println!(
        "== ext_fleet: devices {:?} × edges {:?}, {} slots, {} workers, seed {SEED} ==\n",
        args.devices, args.edges, args.slots, args.workers
    );

    // §16 sanity on the smallest cell: the sharded run must reproduce
    // the one-worker bytes before any timing is trusted.
    let (&min_devices, &min_edges) = (
        args.devices.iter().min().expect("non-empty"),
        args.edges.iter().min().expect("non-empty"),
    );
    let (seq_report, seq_s) = timed_run(min_devices, min_edges, args.rebalance, args.slots, 1);
    let (par_report, par_s) = timed_run(
        min_devices,
        min_edges,
        args.rebalance,
        args.slots,
        args.workers,
    );
    let identical = serde_json::to_string(&seq_report).expect("report serializes")
        == serde_json::to_string(&par_report).expect("report serializes");
    if !identical {
        eprintln!(
            "FATAL: {min_devices}-device × {min_edges}-edge fleet diverged between 1 and {} \
             workers",
            args.workers
        );
        std::process::exit(1);
    }
    let speedup = seq_s / par_s;
    println!(
        "identity cell {min_devices} devices × {min_edges} edges: 1 worker {}, {} workers {}, \
         speedup {speedup:.2}x{}\n",
        fmt_time(seq_s),
        args.workers,
        fmt_time(par_s),
        if speedup < 1.0 {
            format!(" — {} workers lose", args.workers)
        } else {
            String::new()
        }
    );

    let mut rows = Vec::new();
    let mut sweep = Vec::new();
    let total_clock = WallClock::new();
    for &devices in &args.devices {
        for &edges in &args.edges {
            let (report, wall_s) =
                timed_run(devices, edges, args.rebalance, args.slots, args.workers);
            let slots_per_sec = args.slots as f64 / wall_s;
            let device_slots_per_sec = (devices * args.slots) as f64 / wall_s;
            rows.push(vec![
                devices.to_string(),
                edges.to_string(),
                fmt_time(wall_s),
                format!("{slots_per_sec:.1}"),
                format!("{device_slots_per_sec:.0}"),
                report.migrations.len().to_string(),
            ]);
            sweep.push(serde_json::json!({
                "devices": devices,
                "edges": edges,
                "slots": args.slots,
                "wall_ms": wall_s * 1e3,
                "slots_per_sec": slots_per_sec,
                "device_slots_per_sec": device_slots_per_sec,
                "migrations": report.migrations.len(),
                "tasks": report.tasks(),
            }));
        }
    }
    let total_s = total_clock.now();
    println!(
        "{}",
        render_table(
            &header(&[
                "devices",
                "edges",
                "wall",
                "slots/s",
                "device-slots/s",
                "migrations"
            ]),
            &rows
        )
    );
    println!("sweep total: {}\n", fmt_time(total_s));

    // The gate envelope is the sweep's largest cell — the scale point
    // the ISSUE pins ("a 1M-device run completing in minutes").
    let (&max_devices, &max_edges) = (
        args.devices.iter().max().expect("non-empty"),
        args.edges.iter().max().expect("non-empty"),
    );
    let mut history = load_history_for(&args.json, "sweep");
    // Snapshot the baseline before this run joins the history; the gate
    // verdict comes after the write so regressions are archived.
    let host = perf::host();
    let baseline =
        fleet_rolling_median_baseline(&history, &host, max_devices, max_edges, args.slots);
    let current_peak = sweep
        .iter()
        .filter_map(|row| row["device_slots_per_sec"].as_f64())
        .fold(0.0, f64::max);
    let record = perf::new_row(
        history.len() + 1,
        serde_json::json!({
            "seed": SEED,
            "devices": max_devices,
            "edges": max_edges,
            "slots": args.slots,
            "workers": args.workers,
            "rebalance_interval": args.rebalance,
            "sweep_wall_ms": total_s * 1e3,
            "sweep": sweep,
            "identity_cell": {
                "devices": min_devices,
                "edges": min_edges,
                "wall_ms_1_worker": seq_s * 1e3,
                "wall_ms_n_workers": par_s * 1e3,
                "speedup": speedup,
            },
        }),
    );
    history.push(record);
    let doc = history_doc_for("ext_fleet", history);
    let pretty = serde_json::to_string_pretty(&doc).expect("record serializes");
    if let Err(e) = std::fs::write(&args.json, pretty + "\n") {
        eprintln!("write {}: {e}", args.json.display());
        std::process::exit(1);
    }
    println!(
        "fleet history appended to {} ({} run(s) on record)",
        args.json.display(),
        doc["runs"].as_array().map_or(0, Vec::len)
    );

    if args.gate {
        let envelope = format!(
            "{max_devices} devices × {max_edges} edges / {} slots",
            args.slots
        );
        let label = perf::GateLabel {
            figure: "peak",
            unit: "device-slots/s",
            decimals: 0,
            envelope: &envelope,
            archive: &args.json,
        };
        match perf::gate(baseline, current_peak, label) {
            Ok(line) => println!("{line}"),
            Err(line) => {
                eprintln!("{line}");
                std::process::exit(1);
            }
        }
    }
}
