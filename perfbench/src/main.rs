//! LEIME benchmark: one workload per invocation, end-to-end metrics with
//! tracing off, or per-layer metrics from a separate traced run.
//!
//! ```text
//! python3 perfbench/run.py --workload slotted_poisson --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A full record (the
//! manifest, every sample and, for traced runs, every span) is written
//! under `--out-dir`. `--compare <old> <new>` prints the ratio of each
//! metric between two records, and refuses records whose manifests
//! differ.

mod calibration;
mod layers;
mod manifest;
mod stats;
mod workloads;

use std::path::PathBuf;

use serde_json::{json, Map, Value};

use workloads::Workload;

/// Timed runs an end-to-end measurement takes at least, however long.
const MIN_RUNS: usize = 3;
/// Runs after which an end-to-end measurement stops early (a guard
/// against a workload that became trivially fast).
const MAX_RUNS: u64 = 10_000;

/// Bytes per MiB, for memory figures.
const MIB: f64 = 1024.0 * 1024.0;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (checked by [`stats::valid_metric_name`]).
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` declares it.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs whose output checks failed (or that returned an error).
    pub failed: u64,
    /// Why each failed run failed.
    pub failures: Vec<String>,
    /// The reported figures.
    pub metrics: Vec<Metric>,
    /// Extra detail for the record: samples, spans.
    pub detail: Map,
}

impl Outcome {
    /// Records a failed check; the run counts as failed.
    pub fn fail(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("check failed: {why}");
        self.failed += 1;
        self.failures.push(why);
    }

    /// Adds a figure.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: leime-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--out-dir <dir>]\n       leime-perfbench --compare <old.json> <new.json>",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("perfbench-records"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        usage();
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        let [_, old, new] = argv.as_slice() else {
            usage()
        };
        std::process::exit(compare(old, new));
    }
    if argv.first().map(String::as_str) == Some(layers::RSS_PROBE_FLAG) {
        let [_, name, seed, registry] = argv.as_slice() else {
            usage()
        };
        let workload = seed
            .parse()
            .ok()
            .and_then(|seed| Workload::new(name, seed))
            .unwrap_or_else(|| usage());
        if let Err(e) = layers::rss_probe(&workload, registry == "1") {
            eprintln!("memory probe: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = parse_args(&argv);
    let Some(workload) = Workload::new(&args.workload, args.seed) else {
        eprintln!("unknown workload {:?}", args.workload);
        usage();
    };
    let manifest = manifest::collect(&args.workload, args.seed);
    eprintln!("manifest: {manifest}");

    let outcome = if args.trace {
        layers::traced(&workload)
    } else {
        end_to_end(&workload, args.seconds)
    };
    if outcome.attempted == 0 || outcome.metrics.is_empty() {
        eprintln!("no run completed: {:?}", outcome.failures);
        std::process::exit(1);
    }

    let mut metrics = Map::new();
    let mut correct = outcome.failed == 0;
    for m in &outcome.metrics {
        if !stats::valid_metric_name(m.name) || !m.value.is_finite() {
            eprintln!(
                "check failed: metric {} = {} is not reportable",
                m.name, m.value
            );
            correct = false;
            continue;
        }
        metrics.insert(
            m.name.to_string(),
            json!({"value": m.value, "unit": m.unit}),
        );
    }
    let result = json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    });

    let record = json!({
        "schema": "leime-perfbench/1",
        "manifest": manifest,
        "trace": args.trace,
        "result": result.clone(),
        "failures": outcome.failures,
        "detail": Value::Object(outcome.detail),
    });
    let path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, record.to_string() + "\n"));
    if let Err(e) = written {
        eprintln!("cannot write record {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("record written to {}", path.display());
    println!("{result}");
}

/// The end-to-end run: set up and run the workload repeatedly for
/// `seconds` of wall time (at least three timed runs after an untimed
/// warm-up), checking every run's outputs, and report the medians of the
/// set-up blocks and runs, each scaled to the reference host speed.
fn end_to_end(workload: &Workload, seconds: f64) -> Outcome {
    use leime_telemetry::{Clock, WallClock};

    let mut out = Outcome::default();
    let budget = WallClock::new();
    let mut gauge = calibration::Gauge::new();
    let mut gauge_before = gauge.time();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut wall_rates = Vec::new();
    let mut slowdowns = Vec::new();
    let mut first: Option<workloads::Report> = None;
    let mut first_json: Option<String> = None;
    while budget.now() < seconds || (rates.len() < MIN_RUNS && out.failed == 0) {
        out.attempted += 1;
        let result = workload.setup_and_run();
        // How much slower than the reference the host ran around this
        // set-up and run (see `calibration`).
        let gauge_after = gauge.time();
        let slowdown = (gauge_before + gauge_after) / 2.0 / calibration::REFERENCE_S;
        gauge_before = gauge_after;
        let (report, timing) = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("run {}: {e}", out.attempted));
                continue;
            }
        };
        if let Err(why) = check_report(&report) {
            out.fail(format!("run {}: {why}", out.attempted));
            continue;
        }
        match &first {
            None => {
                first = Some(report);
            }
            Some(reference) => {
                // Every run uses the same seed, so the simulated figures
                // must repeat exactly; serving reports are small enough
                // to compare byte for byte.
                if let Err(why) = same_outputs(reference, &report, &mut first_json) {
                    out.fail(format!("run {}: {why}", out.attempted));
                    continue;
                }
            }
        }
        // The first run warms caches and the allocator; it is checked
        // but not timed.
        if out.attempted > 1 {
            let wall_rate = workload.device_slots() / timing.wall_s;
            setups.push(timing.setup_s / slowdown);
            rates.push(wall_rate * slowdown);
            wall_rates.push(wall_rate);
            slowdowns.push(slowdown);
        }
        if out.attempted > MAX_RUNS {
            break;
        }
    }
    let Some(reference) = first else {
        return out;
    };
    if workload.fleet.is_some() {
        check_fleet_workers(workload, &reference, &mut out);
    }
    let (Some(setup_s), Some(rate)) = (stats::median(&setups), stats::median(&rates)) else {
        out.fail("no timed run completed");
        return out;
    };
    out.metric("setup_s", "s", setup_s);
    out.metric("device_slots_per_s", "1/s", rate);
    out.metric("peak_rss_mb", "MB", layers::peak_rss_bytes() / MIB);
    out.metric("sim_tct_s", "s", reference.sim_tct_s());
    out.metric("lc_hit_rate", "ratio", reference.lc_hit_rate());
    out.detail.insert("setup_s".into(), sample_summary(&setups));
    out.detail
        .insert("device_slots_per_s".into(), sample_summary(&rates));
    out.detail.insert(
        "wall_device_slots_per_s".into(),
        sample_summary(&wall_rates),
    );
    out.detail
        .insert("slowdown".into(), sample_summary(&slowdowns));
    out.detail
        .insert("lc_p99_s".into(), json!(reference.lc_p99_s()));
    out.detail.insert("tasks".into(), json!(reference.tasks()));
    out
}

/// Median, quartiles and the highest percentile with at least ten
/// samples beyond it, with the sample count.
pub fn sample_summary(values: &[f64]) -> Value {
    let quartiles = stats::quartiles(values);
    let tail = stats::tail_percentile(values.len());
    json!({
        "n": values.len(),
        "median": stats::median(values),
        "q1": quartiles.map(|q| q.0),
        "q3": quartiles.map(|q| q.1),
        "relative_spread": stats::relative_spread(values),
        "tail_percentile": tail,
        "tail_value": tail.and_then(|p| stats::percentile(values, p)),
        "samples": values.to_vec(),
    })
}

/// Output checks every run must pass: finite figures and a non-empty,
/// plausible report.
pub fn check_report(report: &workloads::Report) -> Result<(), String> {
    let figures = [
        ("sim_tct_s", report.sim_tct_s()),
        ("lc_hit_rate", report.lc_hit_rate()),
        ("lc_p99_s", report.lc_p99_s()),
    ];
    for (name, v) in figures {
        if !v.is_finite() {
            return Err(format!("{name} is not finite ({v})"));
        }
    }
    if report.tasks() == 0 {
        return Err("no task completed".into());
    }
    if report.sim_tct_s() <= 0.0 {
        return Err("mean completion time is not positive".into());
    }
    if !(0.0..=1.0).contains(&report.lc_hit_rate()) {
        return Err("hit rate outside [0, 1]".into());
    }
    if let workloads::Report::Serving(r) = report {
        if r.offered_total() != r.admitted_total() + r.shed_total() {
            return Err("offered requests are not admitted plus shed".into());
        }
    }
    Ok(())
}

/// Two runs with the same seed must agree: on every simulated figure,
/// and for serving on the full report bytes.
fn same_outputs(
    reference: &workloads::Report,
    report: &workloads::Report,
    reference_json: &mut Option<String>,
) -> Result<(), String> {
    let summary = |r: &workloads::Report| {
        [
            r.sim_tct_s(),
            r.lc_hit_rate(),
            r.lc_p99_s(),
            r.tasks() as f64,
        ]
        .map(f64::to_bits)
    };
    if summary(reference) != summary(report) {
        return Err("simulated figures differ between runs with the same seed".into());
    }
    if let workloads::Report::Serving(_) = report {
        let reference_json = reference_json.get_or_insert_with(|| reference.to_json());
        if *reference_json != report.to_json() {
            return Err("serving reports differ between runs with the same seed".into());
        }
    }
    Ok(())
}

/// The fleet must give byte-identical reports at one and at the
/// workload's worker count (the cross-worker determinism contract).
fn check_fleet_workers(workload: &Workload, reference: &workloads::Report, out: &mut Outcome) {
    out.attempted += 1;
    let one = std::num::NonZeroUsize::MIN;
    let registry = leime_telemetry::Registry::new();
    let single = workload
        .setup()
        .and_then(|mut system| workload.run(&mut system, one, Some(&registry)));
    match single {
        Ok((report, _)) if report.identical(reference) => {}
        Ok(_) => out.fail("fleet report differs between 1 and 2 workers"),
        Err(e) => out.fail(format!("fleet run at 1 worker: {e}")),
    }
}

/// Prints each metric's new/old ratio for two records, or refuses when
/// their manifests differ. Returns the exit code.
fn compare(old: &str, new: &str) -> i32 {
    let load = |path: &str| -> Option<Value> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| eprintln!("cannot read {path}: {e}"))
            .ok()?;
        serde_json::from_str(&text)
            .map_err(|e| eprintln!("{path} is not JSON: {e}"))
            .ok()
    };
    let (Some(old), Some(new)) = (load(old), load(new)) else {
        return 2;
    };
    if !manifest::comparable(&old["manifest"], &new["manifest"]) {
        eprintln!(
            "manifests differ; records are not comparable:\n  old {}\n  new {}",
            old["manifest"], new["manifest"]
        );
        return 1;
    }
    let Some(metrics) = new["result"]["metrics"].as_object() else {
        eprintln!("new record has no metrics");
        return 2;
    };
    for (name, m) in metrics.iter() {
        let value = m["value"].as_f64();
        let base = old["result"]["metrics"][name.as_str()]["value"].as_f64();
        match (base, value) {
            (Some(b), Some(v)) if b != 0.0 => println!("{name}: {b} -> {v} ({:.3}x)", v / b),
            _ => println!("{name}: not comparable"),
        }
    }
    0
}
