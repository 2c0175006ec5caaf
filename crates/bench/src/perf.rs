//! History and gate logic for the benchmark artifacts
//! (`BENCH_par.json` and `BENCH_kernels.json`, schema `leime-bench/1`).
//!
//! The artifact is a *history*: `{"runs": [...]}` with one record per
//! invocation, keyed by git revision and a monotonically increasing run
//! id, so perf drift across commits stays visible. Three layouts are
//! accepted on read (the golden tests in this module pin all three):
//!
//! 1. the current history document (`runs` array),
//! 2. a pre-history file whose whole body was one run record — migrated
//!    in place to a single-entry history on the next write,
//! 3. anything else — warned about and treated as a fresh history (the
//!    artifact is regenerable, so corruption must not block a benchmark
//!    run).
//!
//! The `--gate` baseline is the **rolling median** of the last
//! [`GATE_WINDOW`] comparable runs (same host, device and slot counts),
//! not the all-time best: a single lucky run on a quiet machine would
//! otherwise ratchet the floor up permanently and fail every honest run
//! after it. The median of a short trailing window tracks what the
//! current code on the current hardware actually does. Every record
//! names its [`host`]; a row from another host, or one without a host,
//! is never comparable, so a gate on new hardware skips until that
//! hardware has history of its own.

use serde_json::Value;

/// Trailing window for the gate's rolling-median baseline.
pub const GATE_WINDOW: usize = 3;

/// `--gate` tolerance: a run fails when its figure drops more than this
/// many percent below the rolling-median baseline.
pub const GATE_REGRESSION_PCT: f64 = 10.0;

/// Best-effort git revision for an archived record (`"unknown"`
/// outside a git checkout).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The toolchain a record was built with: `rustc --version`, or
/// `"unknown"` where `rustc` cannot run.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether the checkout a record was built from has uncommitted changes
/// (`git status --porcelain` prints anything; false outside git).
pub fn git_dirty() -> bool {
    std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty())
}

/// A new history row: run id `run` and the row's provenance — `git_rev`,
/// `git_dirty`, `rustc` and `host` — followed by the entries of the
/// `fields` object. Only `host` decides which rows a gate compares.
pub fn new_row(run: usize, fields: Value) -> Value {
    let mut row = serde_json::Map::new();
    let provenance = [
        ("run", serde_json::json!(run)),
        ("git_rev", Value::String(git_rev())),
        ("git_dirty", Value::Bool(git_dirty())),
        ("rustc", Value::String(rustc_version())),
        ("host", host()),
    ];
    for (key, value) in provenance {
        row.insert(key.to_string(), value);
    }
    if let Value::Object(fields) = fields {
        for (key, value) in fields.iter() {
            row.insert(key.clone(), value.clone());
        }
    }
    Value::Object(row)
}

/// The host an archived record was measured on: its available
/// parallelism and CPU model (`"unknown"` where `/proc/cpuinfo` names
/// none). The gates compare only records with an equal `host`.
pub fn host() -> Value {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    serde_json::json!({"available_parallelism": cores, "cpu_model": cpu_model})
}

/// Parses a bench history from file text. `Ok` is the runs list (empty
/// for a fresh file); `Err` carries a warning for the caller to print —
/// the history restarts either way. `record_key` names the field whose
/// presence marks the pre-history layout where the whole document was
/// one run record (`"sequential"` for `perf_baseline`, `"kernels"` for
/// `hot_kernels`).
pub fn history_from_text_for(text: &str, record_key: &str) -> Result<Vec<Value>, String> {
    let Ok(Value::Object(mut doc)) = serde_json::from_str::<Value>(text) else {
        return Err("not a JSON object — starting a fresh history".to_string());
    };
    if let Some(Value::Array(runs)) = doc.remove("runs") {
        return Ok(runs);
    }
    // Pre-history layout: the whole file was one run record.
    if doc.get(record_key).is_some() {
        doc.remove("schema");
        doc.remove("bench");
        doc.insert("run".to_string(), serde_json::json!(1));
        return Ok(vec![Value::Object(doc)]);
    }
    Err("unrecognized layout — starting a fresh history".to_string())
}

/// Reads a bench history from `path`: the current `runs` list, a
/// migrated pre-history single record, or empty for a missing file. A
/// corrupt history warns on stderr and restarts rather than blocking
/// the run.
pub fn load_history_for(path: &std::path::Path, record_key: &str) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    history_from_text_for(&text, record_key).unwrap_or_else(|warning| {
        eprintln!("WARN: {}: {warning}", path.display());
        Vec::new()
    })
}

/// Wraps a bench history back into the archived document layout.
pub fn history_doc_for(bench: &str, runs: Vec<Value>) -> Value {
    serde_json::json!({
        "schema": "leime-bench/1",
        "bench": bench,
        "runs": runs,
    })
}

/// Appends a [`new_row`] of `fields` to the `bench` history at `path`
/// and writes the history back; a pre-history file (one record marked
/// by `record_key`) becomes its first row. Earlier rows are written back
/// unchanged. Returns the number of rows on record.
///
/// # Errors
///
/// Returns a message when the history cannot be serialised or written.
pub fn append_row(
    path: &std::path::Path,
    bench: &str,
    record_key: &str,
    fields: Value,
) -> Result<usize, String> {
    let mut history = load_history_for(path, record_key);
    history.push(new_row(history.len() + 1, fields));
    let rows = history.len();
    let doc = history_doc_for(bench, history);
    let pretty = serde_json::to_string_pretty(&doc)
        .map_err(|e| format!("{bench} history failed to serialise: {e}"))?;
    std::fs::write(path, pretty + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(rows)
}

/// A run's peak slots/s — sequential and parallel figures both count;
/// the gate tracks peak throughput, whichever mode produced it.
pub fn peak_slots_per_sec(run: &Value) -> Option<f64> {
    let candidates = std::iter::once(run["sequential"]["slots_per_sec"].as_f64()).chain(
        run["parallel"]
            .as_array()
            .into_iter()
            .flatten()
            .map(|p| p["slots_per_sec"].as_f64()),
    );
    candidates.flatten().fold(None, |best: Option<f64>, sps| {
        Some(best.map_or(sps, |b| b.max(sps)))
    })
}

/// The gate baseline: median peak slots/s over the last [`GATE_WINDOW`]
/// runs on the same `host` (see [`host`]) with the same device and slot
/// counts, with the git revisions that contributed. `None` when no
/// comparable history exists (fresh clones, new hardware and parameter
/// changes must not wedge CI).
pub fn rolling_median_baseline(
    history: &[Value],
    host: &Value,
    devices: usize,
    slots: usize,
) -> Option<(String, f64)> {
    let comparable: Vec<&Value> = history
        .iter()
        .filter(|run| {
            run["host"] == *host
                && run["devices"].as_u64() == Some(devices as u64)
                && run["slots"].as_u64() == Some(slots as u64)
        })
        .collect();
    windowed_median(&comparable, peak_slots_per_sec)
}

/// A `BENCH_fleet.json` run's peak device-slots/s across its sweep rows
/// (the fleet bench's throughput unit: one device advancing one slot —
/// comparable across devices × edges grid cells).
pub fn fleet_peak_device_slots_per_sec(run: &Value) -> Option<f64> {
    run["sweep"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|row| row["device_slots_per_sec"].as_f64())
        .fold(None, |best: Option<f64>, dsps| {
            Some(best.map_or(dsps, |b| b.max(dsps)))
        })
}

/// The fleet gate baseline: median peak device-slots/s over the last
/// [`GATE_WINDOW`] `ext_fleet` runs on the same `host` with the same
/// sweep envelope (devices *and* edges *and* slots — the edge dimension
/// changes where time goes, so cross-shape comparisons would be
/// meaningless).
pub fn fleet_rolling_median_baseline(
    history: &[Value],
    host: &Value,
    devices: usize,
    edges: usize,
    slots: usize,
) -> Option<(String, f64)> {
    let comparable: Vec<&Value> = history
        .iter()
        .filter(|run| {
            run["host"] == *host
                && run["devices"].as_u64() == Some(devices as u64)
                && run["edges"].as_u64() == Some(edges as u64)
                && run["slots"].as_u64() == Some(slots as u64)
        })
        .collect();
    windowed_median(&comparable, fleet_peak_device_slots_per_sec)
}

/// Median peak over the trailing [`GATE_WINDOW`] of `comparable`, with
/// the contributing git revisions (sorted by peak, ascending).
fn windowed_median(
    comparable: &[&Value],
    peak: impl Fn(&Value) -> Option<f64>,
) -> Option<(String, f64)> {
    let window = &comparable[comparable.len().saturating_sub(GATE_WINDOW)..];
    let mut peaks: Vec<(f64, &str)> = window
        .iter()
        .filter_map(|run| peak(run).map(|p| (p, run["git_rev"].as_str().unwrap_or("unknown"))))
        .collect();
    if peaks.is_empty() {
        return None;
    }
    peaks.sort_by(|a, b| a.0.total_cmp(&b.0));
    let revs = peaks
        .iter()
        .map(|(_, rev)| *rev)
        .collect::<Vec<_>>()
        .join(",");
    // Median: middle element, or the mean of the middle pair for an
    // even-sized window.
    let median = if peaks.len() % 2 == 1 {
        peaks[peaks.len() / 2].0
    } else {
        let hi = peaks.len() / 2;
        (peaks[hi - 1].0 + peaks[hi].0) / 2.0
    };
    Some((revs, median))
}

/// How a gated bench names its figure in the [`gate`] verdict.
#[derive(Debug, Clone, Copy)]
pub struct GateLabel<'a> {
    /// Which of the run's figures is gated, e.g. `"best"`.
    pub figure: &'a str,
    /// Its unit, e.g. `"slots/s"`.
    pub unit: &'a str,
    /// Decimals the figures are printed with.
    pub decimals: usize,
    /// The comparable envelope, e.g. `"4 devices / 200 slots"`.
    pub envelope: &'a str,
    /// The history file the run was appended to.
    pub archive: &'a std::path::Path,
}

/// The `--gate` verdict on a run whose figure is `current`, against the
/// rolling-median `baseline` (see [`rolling_median_baseline`]).
///
/// `Ok` carries the line to print: a skip when no comparable history
/// exists (a first run has nothing to regress against), or a pass when
/// `current` is at most [`GATE_REGRESSION_PCT`]% below the median. One
/// or two comparable runs still gate: their median stands in for the
/// full [`GATE_WINDOW`]. `Err` carries the failure line; the caller
/// exits non-zero.
pub fn gate(
    baseline: Option<(String, f64)>,
    current: f64,
    label: GateLabel<'_>,
) -> Result<String, String> {
    let GateLabel {
        figure,
        unit,
        decimals: d,
        envelope,
        archive,
    } = label;
    let Some((revs, median)) = baseline else {
        return Ok(format!(
            "gate: skipped — no comparable history for {envelope} \
             (the gate binds from the next run)"
        ));
    };
    let window = revs.split(',').count();
    let floor = median * (1.0 - GATE_REGRESSION_PCT / 100.0);
    if current < floor {
        return Err(format!(
            "gate: FAIL — {figure} {current:.d$} {unit} is more than \
             {GATE_REGRESSION_PCT}% below the rolling median {median:.d$} \
             of the last {window} of {GATE_WINDOW} comparable run(s) (git {revs}); \
             the run is archived in {} for triage",
            archive.display()
        ));
    }
    Ok(format!(
        "gate: ok — {figure} {current:.d$} {unit} vs rolling median \
         {median:.d$} over {window} run(s) (git {revs}, floor {floor:.d$})"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The host every test record is measured on.
    fn test_host() -> Value {
        serde_json::json!({"available_parallelism": 2, "cpu_model": "Test CPU"})
    }

    /// `record` with its `host` replaced (`None` removes it).
    fn on_host(mut record: Value, host: Option<Value>) -> Value {
        if let Value::Object(m) = &mut record {
            m.remove("host");
            if let Some(h) = host {
                m.insert("host".to_string(), h);
            }
        }
        record
    }

    fn run_record(devices: u64, slots: u64, rev: &str, seq: f64, par: &[f64]) -> Value {
        serde_json::json!({
            "run": 1,
            "git_rev": rev,
            "host": test_host(),
            "devices": devices,
            "slots": slots,
            "sequential": {"slots_per_sec": seq},
            "parallel": par.iter().map(|&p| serde_json::json!({"slots_per_sec": p}))
                .collect::<Vec<_>>(),
        })
    }

    /// Golden: the three accepted `BENCH_par.json` layouts. The
    /// pre-history migration is byte-level behavior other tooling
    /// depends on (run ids restart at 1, envelope keys dropped), so the
    /// exact output object is pinned.
    #[test]
    fn history_migration_golden() {
        // Current layout: runs pass through untouched.
        let current = r#"{"schema":"leime-bench/1","bench":"perf_baseline",
            "runs":[{"run":1,"git_rev":"abc"},{"run":2,"git_rev":"def"}]}"#;
        let runs = history_from_text_for(current, "sequential").unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1]["git_rev"].as_str(), Some("def"));

        // Pre-history layout: one record as the whole document becomes
        // run 1 with the envelope keys stripped.
        let pre = r#"{"schema":"leime-bench/1","bench":"perf_baseline",
            "git_rev":"a1b2c3","devices":64,"slots":200,
            "sequential":{"wall_ms":24.3,"slots_per_sec":8221.8},
            "parallel":[],"best_speedup":1.0}"#;
        let migrated = history_from_text_for(pre, "sequential").unwrap();
        assert_eq!(migrated.len(), 1);
        // NB: the vendored serde_json compares objects in insertion
        // order, so the pinned record lists "run" last — the migration
        // appends it after stripping the envelope.
        let expected = serde_json::json!({
            "git_rev": "a1b2c3",
            "devices": 64,
            "slots": 200,
            "sequential": {"wall_ms": 24.3, "slots_per_sec": 8221.8},
            "parallel": [],
            "best_speedup": 1.0,
            "run": 1,
        });
        assert_eq!(migrated[0], expected, "pre-history migration drifted");

        // Re-wrapping round-trips through the current layout, and a
        // newly appended row names its toolchain and checkout state.
        let mut runs = migrated;
        runs.push(new_row(2, serde_json::json!({"devices": 64})));
        let doc = history_doc_for("perf_baseline", runs);
        let reread = history_from_text_for(&doc.to_string(), "sequential").unwrap();
        assert_eq!(reread[0], expected);
        let row = &reread[1];
        assert_eq!(row["run"].as_u64(), Some(2));
        assert_eq!(row["devices"].as_u64(), Some(64));
        assert!(row["rustc"].as_str().is_some_and(|v| !v.is_empty()));
        assert!(row["git_dirty"].as_bool().is_some());
        assert_eq!(row["host"], host());

        // Corrupt layouts warn and restart.
        assert!(history_from_text_for("[]", "sequential").is_err());
        assert!(history_from_text_for(r#"{"schema":"x"}"#, "sequential").is_err());
        assert!(history_from_text_for("not json", "sequential").is_err());
    }

    /// Golden: the committed single-record `BENCH_kernels.json` layout
    /// (shipped by the PR that introduced the kernel bench) migrates to
    /// a run-1 history exactly like the perf_baseline pre-history did.
    #[test]
    fn kernels_history_migration_golden() {
        let pre = r#"{"schema":"leime-bench/1","bench":"hot_kernels",
            "git_rev":"40c8d1b",
            "kernels":[{"name":"queue_update","ns_per_op":10.5,"ops":2000000}]}"#;
        let migrated = history_from_text_for(pre, "kernels").unwrap();
        assert_eq!(migrated.len(), 1);
        let expected = serde_json::json!({
            "git_rev": "40c8d1b",
            "kernels": [{"name": "queue_update", "ns_per_op": 10.5, "ops": 2000000}],
            "run": 1,
        });
        assert_eq!(migrated[0], expected, "kernels migration drifted");

        // Round-trips through the history envelope, keeping the bench
        // tag, and appended runs extend the list.
        let mut runs = migrated;
        runs.push(serde_json::json!({"git_rev": "fff", "kernels": [], "run": 2}));
        let doc = history_doc_for("hot_kernels", runs);
        assert_eq!(doc["bench"].as_str(), Some("hot_kernels"));
        let reread = history_from_text_for(&doc.to_string(), "kernels").unwrap();
        assert_eq!(reread.len(), 2);
        assert_eq!(reread[0], expected);
        assert_eq!(reread[1]["run"].as_u64(), Some(2));

        // A perf_baseline-shaped document is NOT a kernels record.
        assert!(history_from_text_for(r#"{"sequential":{}}"#, "kernels").is_err());
    }

    #[test]
    fn peak_covers_sequential_and_parallel() {
        let run = run_record(64, 200, "abc", 100.0, &[250.0, 180.0]);
        assert_eq!(peak_slots_per_sec(&run), Some(250.0));
        let seq_only = run_record(64, 200, "abc", 300.0, &[]);
        assert_eq!(peak_slots_per_sec(&seq_only), Some(300.0));
        assert_eq!(peak_slots_per_sec(&serde_json::json!({})), None);
    }

    /// The gate baseline is the median of the last three comparable
    /// runs — an old outlier ages out of the window instead of pinning
    /// the floor forever.
    #[test]
    fn gate_baseline_is_rolling_median_of_last_three() {
        let history = vec![
            run_record(64, 200, "r1", 9_000.0, &[]),
            // Lucky outlier — must NOT set the floor once three newer
            // comparable runs exist.
            run_record(64, 200, "r2", 50_000.0, &[]),
            run_record(64, 200, "r3", 10_000.0, &[]),
            // Different parameters: never comparable.
            run_record(8, 200, "r4", 99_000.0, &[]),
            run_record(64, 100, "r5", 99_000.0, &[]),
            run_record(64, 200, "r6", 11_000.0, &[12_000.0]),
            run_record(64, 200, "r7", 10_500.0, &[]),
            // Identical but for the host: another machine's record, and
            // one written before records named their host.
            on_host(
                run_record(64, 200, "r8", 99_000.0, &[]),
                Some(serde_json::json!({"available_parallelism": 64, "cpu_model": "Test CPU"})),
            ),
            on_host(run_record(64, 200, "r9", 99_000.0, &[]), None),
        ];
        let host = test_host();
        let (revs, median) = rolling_median_baseline(&history, &host, 64, 200).unwrap();
        // Window = {r3: 10000, r6: 12000, r7: 10500} → median 10500.
        assert_eq!(median.to_bits(), 10_500.0_f64.to_bits());
        assert_eq!(revs, "r3,r7,r6");

        // Shorter histories: median of what exists (even window →
        // mean of the middle pair).
        let two = &history[..2];
        let (_, m2) = rolling_median_baseline(two, &host, 64, 200).unwrap();
        assert_eq!(m2.to_bits(), f64::to_bits((9_000.0 + 50_000.0) / 2.0));

        // No comparable runs at all → no gate: neither other shapes nor
        // the same shape from another host, or from no named host.
        assert!(rolling_median_baseline(&history, &host, 1, 1).is_none());
        assert!(rolling_median_baseline(&history[7..], &host, 64, 200).is_none());
        let other = history[7]["host"].clone();
        let (revs, _) = rolling_median_baseline(&history, &other, 64, 200).unwrap();
        assert_eq!(revs, "r8");
    }

    /// Histories shorter than [`GATE_WINDOW`] must still gate: the
    /// median of whatever comparable runs exist stands in. Only a
    /// zero-run history skips (a first run has nothing to regress
    /// against).
    #[test]
    fn short_histories_still_gate() {
        // 0 runs: skip.
        assert!(rolling_median_baseline(&[], &test_host(), 64, 200).is_none());

        // 1 run: that run IS the baseline.
        let one = vec![run_record(64, 200, "r1", 9_000.0, &[])];
        let (revs, median) = rolling_median_baseline(&one, &test_host(), 64, 200).unwrap();
        assert_eq!(revs, "r1");
        assert_eq!(median.to_bits(), 9_000.0_f64.to_bits());

        // 2 runs: mean of the pair (peak of r2 is its parallel figure's
        // better, 11_000 sequential here).
        let two = vec![
            run_record(64, 200, "r1", 9_000.0, &[]),
            run_record(64, 200, "r2", 11_000.0, &[10_000.0]),
        ];
        let (revs, median) = rolling_median_baseline(&two, &test_host(), 64, 200).unwrap();
        assert_eq!(revs, "r1,r2");
        assert_eq!(median.to_bits(), 10_000.0_f64.to_bits());

        // A lone comparable run whose record carries no parsable peak
        // cannot gate either.
        let unparsable = vec![serde_json::json!({
            "run": 1, "git_rev": "rx", "host": test_host(), "devices": 64, "slots": 200,
        })];
        assert!(rolling_median_baseline(&unparsable, &test_host(), 64, 200).is_none());
    }

    fn fleet_record(devices: u64, edges: u64, slots: u64, rev: &str, dsps: &[f64]) -> Value {
        serde_json::json!({
            "run": 1,
            "git_rev": rev,
            "host": test_host(),
            "devices": devices,
            "edges": edges,
            "slots": slots,
            "sweep": dsps.iter().map(|&d| serde_json::json!({
                "devices": devices, "edges": edges, "slots": slots,
                "device_slots_per_sec": d,
            })).collect::<Vec<_>>(),
        })
    }

    /// The fleet peak is the best device-slots/s over the sweep rows;
    /// records with no sweep (or no parsable rows) yield no peak.
    #[test]
    fn fleet_peak_covers_the_sweep() {
        let run = fleet_record(1_000_000, 16, 10, "abc", &[8.0e5, 1.8e6, 1.2e6]);
        assert_eq!(fleet_peak_device_slots_per_sec(&run), Some(1.8e6));
        assert_eq!(
            fleet_peak_device_slots_per_sec(&serde_json::json!({})),
            None
        );
        assert_eq!(
            fleet_peak_device_slots_per_sec(&serde_json::json!({"sweep": []})),
            None
        );
    }

    /// The fleet gate matches on the full sweep envelope — devices,
    /// edges *and* slots — and medians the trailing window exactly like
    /// the `perf_baseline` gate.
    #[test]
    fn fleet_gate_baseline_requires_matching_envelope() {
        let history = vec![
            fleet_record(1_000_000, 16, 10, "r1", &[1.0e6]),
            // Different edge count: never comparable.
            fleet_record(1_000_000, 4, 10, "r2", &[9.9e6]),
            // Different devices / slots: never comparable.
            fleet_record(100_000, 16, 10, "r3", &[9.9e6]),
            fleet_record(1_000_000, 16, 20, "r4", &[9.9e6]),
            fleet_record(1_000_000, 16, 10, "r5", &[1.4e6]),
            fleet_record(1_000_000, 16, 10, "r6", &[1.2e6]),
            fleet_record(1_000_000, 16, 10, "r7", &[1.3e6]),
            // Identical but for the host: never comparable.
            on_host(
                fleet_record(1_000_000, 16, 10, "r8", &[9.9e6]),
                Some(serde_json::json!({"available_parallelism": 2, "cpu_model": "Other CPU"})),
            ),
            on_host(fleet_record(1_000_000, 16, 10, "r9", &[9.9e6]), None),
        ];
        let host = test_host();
        let (revs, median) =
            fleet_rolling_median_baseline(&history, &host, 1_000_000, 16, 10).unwrap();
        // Window = {r5: 1.4e6, r6: 1.2e6, r7: 1.3e6} → median 1.3e6.
        assert_eq!(median.to_bits(), 1.3e6_f64.to_bits());
        assert_eq!(revs, "r6,r7,r5");
        // Single comparable run gates; empty history does not.
        let (_, one) =
            fleet_rolling_median_baseline(&history[..1], &host, 1_000_000, 16, 10).unwrap();
        assert_eq!(one.to_bits(), 1.0e6_f64.to_bits());
        assert!(fleet_rolling_median_baseline(&[], &host, 1_000_000, 16, 10).is_none());
        assert!(fleet_rolling_median_baseline(&history[7..], &host, 1_000_000, 16, 10).is_none());
        let other = history[7]["host"].clone();
        let (revs, _) = fleet_rolling_median_baseline(&history, &other, 1_000_000, 16, 10).unwrap();
        assert_eq!(revs, "r8");
        // The "sweep" record key marks the fleet pre-history layout for
        // `history_from_text_for`, mirroring the kernels migration.
        let pre = r#"{"schema":"leime-bench/1","bench":"ext_fleet",
            "git_rev":"abc","devices":100,"edges":2,"slots":10,"sweep":[]}"#;
        let migrated = history_from_text_for(pre, "sweep").unwrap();
        assert_eq!(migrated.len(), 1);
        assert_eq!(migrated[0]["run"].as_u64(), Some(1));
    }

    #[test]
    fn appended_rows_leave_earlier_rows_byte_identical() {
        let path =
            std::env::temp_dir().join(format!("leime-bench-append-{}.json", std::process::id()));
        // A pre-history record: the whole file is one run.
        let pre = r#"{"schema":"leime-bench/1","bench":"ext_serving",
            "devices":4,"slots":120,"sweep":[{"load":0.6,"offered":6848}]}"#;
        std::fs::write(&path, pre).unwrap();
        let rows = |path: &std::path::Path| -> Vec<String> {
            let text = std::fs::read_to_string(path).unwrap();
            let doc: Value = serde_json::from_str(&text).unwrap();
            assert_eq!(doc["bench"].as_str(), Some("ext_serving"));
            let runs = doc["runs"].as_array().unwrap();
            runs.iter()
                .map(|r| serde_json::to_string_pretty(r).unwrap())
                .collect()
        };
        assert_eq!(
            append_row(
                &path,
                "ext_serving",
                "sweep",
                serde_json::json!({"slots": 120})
            ),
            Ok(2)
        );
        let first = rows(&path);
        assert_eq!(
            append_row(
                &path,
                "ext_serving",
                "sweep",
                serde_json::json!({"slots": 60})
            ),
            Ok(3)
        );
        let second = rows(&path);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(second[..2], first[..], "earlier rows changed");
        // The migrated record keeps its fields as run 1, without provenance.
        let migrated: Value = serde_json::from_str(&first[0]).unwrap();
        assert_eq!(migrated["run"].as_u64(), Some(1));
        let sweep = migrated["sweep"].as_array().unwrap();
        assert_eq!(sweep[0]["offered"].as_u64(), Some(6848));
        assert!(migrated.get("git_rev").is_none() && migrated.get("schema").is_none());
        // Appended rows carry their provenance.
        let row: Value = serde_json::from_str(&second[2]).unwrap();
        assert_eq!(row["run"].as_u64(), Some(3));
        assert_eq!(row["slots"].as_u64(), Some(60));
        for key in ["git_rev", "git_dirty", "rustc", "host"] {
            assert!(row.get(key).is_some(), "row lacks {key}");
        }
    }

    #[test]
    fn gate_skips_without_history_and_fails_just_below_the_floor() {
        let label = GateLabel {
            figure: "best",
            unit: "slots/s",
            decimals: 1,
            envelope: "4 devices / 200 slots",
            archive: std::path::Path::new("BENCH_par.json"),
        };
        let baseline = || Some(("a,b,c".to_string(), 200.0));
        // No comparable history: skip, whatever the figure.
        let skip = gate(None, 0.0, label).unwrap();
        assert!(skip.starts_with("gate: skipped"), "{skip}");
        assert!(skip.contains("4 devices / 200 slots"), "{skip}");
        // The floor is 10% below the median of 200: exactly 180 passes.
        let ok = gate(baseline(), 180.0, label).unwrap();
        assert!(ok.starts_with("gate: ok — best 180.0 slots/s"), "{ok}");
        assert!(
            ok.contains("over 3 run(s)") && ok.contains("floor 180.0"),
            "{ok}"
        );
        // The next float down fails, and names the archive.
        let fail = gate(baseline(), 180.0_f64.next_down(), label).unwrap_err();
        assert!(fail.starts_with("gate: FAIL — best"), "{fail}");
        assert!(
            fail.contains("10% below the rolling median 200.0"),
            "{fail}"
        );
        assert!(fail.contains("archived in BENCH_par.json"), "{fail}");
    }
}
