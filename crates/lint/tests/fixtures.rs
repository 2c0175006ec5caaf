//! Fixture tests: each seeded fixture file must produce exactly the
//! expected `(rule, path, line)` tuples, in both the text and the
//! `leime-lint/5` JSON renderings.

use leime_lint::layering::{self, Dep};
use leime_lint::tree::{FileFacts, ShardBody};
use leime_lint::{
    parse_rule_filter, run, Report, ScanOptions, SemaConfig, RULE_IDS, SCHEMA_VERSION,
};
use std::path::{Path, PathBuf};

/// Workspace root, derived from this crate's manifest directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(Path::parent) {
        Some(root) => root.to_path_buf(),
        None => unreachable!("crates/lint always sits two levels below the root"),
    }
}

/// Runs the lint over one fixture file.
fn scan_fixture(name: &str, config: SemaConfig) -> Report {
    let mut opts = ScanOptions::new(workspace_root());
    opts.paths = vec![PathBuf::from(format!("crates/lint/fixtures/{name}"))];
    opts.config = config;
    match run(&opts) {
        Ok(report) => report,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    }
}

/// The `(rule, path, line)` triples of a report's violations.
fn triples(report: &Report) -> Vec<(String, String, u32)> {
    report
        .violations
        .iter()
        .map(|f| (f.rule.clone(), f.path.clone(), f.line))
        .collect()
}

fn expected(rule: &str, file: &str, lines: &[u32]) -> Vec<(String, String, u32)> {
    lines
        .iter()
        .map(|&line| {
            (
                rule.to_string(),
                format!("crates/lint/fixtures/{file}"),
                line,
            )
        })
        .collect()
}

/// Config for the fixtures: the requested rules only, with the S1 and
/// S6 path markers pointing at the fixtures directory.
fn fixture_config(rules: &str) -> SemaConfig {
    let mut config = SemaConfig::default();
    if let Err(e) = parse_rule_filter(&mut config, rules) {
        unreachable!("rule filter must parse: {e}");
    }
    let marker = "crates/lint/fixtures".to_string();
    config.guarded_path_markers.push(marker.clone());
    config.hot_path_markers.push(marker);
    config
}

#[test]
fn s1_fixture_flags_the_transitively_unguarded_solver() {
    let report = scan_fixture("s1.rs", fixture_config("S1"));
    assert_eq!(triples(&report), expected("S1", "s1.rs", &[5, 21]));
    assert_eq!(
        report.violations[0].message,
        "`fn decide` never reaches an `invariant::` guard on any call path \
         (Eq. 8 / Eq. 10–11 / Eq. 27)"
    );
    assert!(report.violations[1].message.contains("`fn balance_solve`"));
}

#[test]
fn text_report_formats_path_line_rule() {
    let report = scan_s6("s6.rs", "s6_baseline.json");
    let text = report.render_text();
    assert!(
        text.contains(
            "crates/lint/fixtures/s6.rs:6: [S6] `fn run` hot-path allocation count rose to 1 \
             (baseline 0) — the S6 ratchet only goes down"
        ),
        "unexpected text report:\n{text}"
    );
    assert!(text.contains("2 violation(s) (S6: 2)"), "{text}");
}

#[test]
fn json_report_carries_schema_rules_paths_and_lines() {
    let mut opts = ScanOptions::new(workspace_root());
    opts.paths = vec![
        PathBuf::from("crates/lint/fixtures/s1.rs"),
        PathBuf::from("crates/lint/fixtures/s6.rs"),
    ];
    opts.config = fixture_config("S1,S6");
    opts.s6_baseline = Some(workspace_root().join("crates/lint/fixtures/s6_baseline.json"));
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    };
    let v: serde_json::Value = match serde_json::from_str(&report.to_json()) {
        Ok(v) => v,
        Err(e) => unreachable!("JSON report must parse: {e:?}"),
    };
    assert_eq!(v["schema"].as_str(), Some(SCHEMA_VERSION));
    assert_eq!(v["files_scanned"].as_u64(), Some(2));
    let rule_set: Vec<&str> = v["rule_set"]
        .as_array()
        .map(|a| a.iter().filter_map(|r| r.as_str()).collect())
        .unwrap_or_default();
    assert_eq!(rule_set, RULE_IDS);
    let got: Vec<(String, String, u64)> = v["violations"]
        .as_array()
        .map(|list| {
            list.iter()
                .map(|f| {
                    (
                        f["rule"].as_str().unwrap_or("").to_string(),
                        f["path"].as_str().unwrap_or("").to_string(),
                        f["line"].as_u64().unwrap_or(0),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let want: Vec<(String, String, u64)> = [
        ("S1", "s1.rs", 5u64),
        ("S1", "s1.rs", 21),
        ("S6", "s6.rs", 6),
        ("S6", "s6.rs", 12),
    ]
    .iter()
    .map(|&(r, f, l)| (r.to_string(), format!("crates/lint/fixtures/{f}"), l))
    .collect();
    assert_eq!(got, want);
    let summary: Vec<(&str, u64)> = v["summary"]
        .as_array()
        .map(|list| {
            list.iter()
                .map(|c| {
                    (
                        c["rule"].as_str().unwrap_or(""),
                        c["count"].as_u64().unwrap_or(0),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    assert_eq!(summary, vec![("S1", 2), ("S6", 2)]);
}

#[test]
fn s4_fixture_workspace_flags_rank_fence_and_shim_edges() {
    // A fake workspace whose manifests break the rank, tooling-fence and
    // shim-path constraints one crate each; the clean leime-workload
    // manifest stays silent. Each crate's dependencies are listed as
    // `cargo metadata` reports them.
    let dep = |name: &'static str, normal: bool| Dep { name, normal };
    let cases = [
        ("leime-dnn", dep("proptest", false), "shims"),
        ("leime-simnet", dep("leime-lint", true), "tooling fence"),
        (
            "leime-telemetry",
            dep("leime-offload", true),
            "strictly downward",
        ),
        ("leime-workload", dep("leime-dnn", true), ""),
    ];
    for (krate, dep, want) in cases {
        let path = workspace_root().join(format!(
            "crates/lint/fixtures/s4_ws/crates/{krate}/Cargo.toml"
        ));
        let manifest = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => unreachable!("cannot read {}: {e}", path.display()),
        };
        let found = layering::violations(krate, &[dep], &manifest);
        if want.is_empty() {
            assert!(found.is_empty(), "{krate}: {found:?}");
        } else {
            assert_eq!(found.len(), 1, "{krate}: {found:?}");
            assert_eq!(found[0].line, 6, "{krate}: {found:?}");
            assert!(found[0].message.contains(want), "{krate}: {found:?}");
        }
    }
}

#[test]
fn s_rule_findings_carry_rule_file_line_in_text_and_json() {
    let report = scan_fixture("s1.rs", fixture_config("S1"));

    let text = report.render_text();
    for line in [
        "crates/lint/fixtures/s1.rs:5: [S1] `fn decide` never reaches",
        "crates/lint/fixtures/s1.rs:21: [S1] `fn balance_solve` never reaches",
        "2 violation(s) (S1: 2)",
    ] {
        assert!(text.contains(line), "missing `{line}` in:\n{text}");
    }

    let v: serde_json::Value = match serde_json::from_str(&report.to_json()) {
        Ok(v) => v,
        Err(e) => unreachable!("JSON report must parse: {e:?}"),
    };
    assert_eq!(v["schema"].as_str(), Some(SCHEMA_VERSION));
    assert_eq!(v["files_scanned"].as_u64(), Some(1));
    let rule_set: Vec<&str> = v["rule_set"]
        .as_array()
        .map(|a| a.iter().filter_map(|r| r.as_str()).collect())
        .unwrap_or_default();
    assert_eq!(rule_set, RULE_IDS);
    let got: Vec<(String, String, u64)> = v["violations"]
        .as_array()
        .map(|list| {
            list.iter()
                .map(|f| {
                    (
                        f["rule"].as_str().unwrap_or("").to_string(),
                        f["path"].as_str().unwrap_or("").to_string(),
                        f["line"].as_u64().unwrap_or(0),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let want: Vec<(String, String, u64)> = [5u64, 21]
        .iter()
        .map(|&l| {
            (
                "S1".to_string(),
                "crates/lint/fixtures/s1.rs".to_string(),
                l,
            )
        })
        .collect();
    assert_eq!(got, want);
    let summary = v["summary"]
        .as_array()
        .map(Vec::as_slice)
        .unwrap_or_default();
    assert_eq!(summary.len(), 1);
    assert_eq!(summary[0]["rule"].as_str(), Some("S1"));
    assert_eq!(summary[0]["count"].as_u64(), Some(2));
}

#[test]
fn rand_dependency_fixture_flags_the_normal_edge_only() {
    // A stream-pinned crate with `rand` under `[dependencies]` could seed
    // an RNG from a literal, an ad-hoc value or ambient entropy; with
    // `rand` under `[dev-dependencies]` its library code cannot name
    // `SeedableRng` at all.
    let dep = |normal: bool| Dep {
        name: "rand",
        normal,
    };
    for (krate, dep, flagged) in [
        ("leime-serving", dep(true), true),
        ("leime-fleet", dep(false), false),
    ] {
        let path = workspace_root().join(format!(
            "crates/lint/fixtures/rand_ws/crates/{krate}/Cargo.toml"
        ));
        let manifest = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => unreachable!("cannot read {}: {e}", path.display()),
        };
        let found = layering::rand_violations(krate, &[dep], &manifest);
        if flagged {
            assert_eq!(found.len(), 1, "{krate}: {found:?}");
            assert_eq!(found[0].line, 7, "{krate}: {found:?}");
            assert!(
                found[0].message.contains("stream_rng"),
                "{krate}: {found:?}"
            );
        } else {
            assert!(found.is_empty(), "{krate}: {found:?}");
        }
    }
}

#[test]
fn flow_ws_fixture_crosses_files() {
    // The shard body lives in driver.rs; its helper's allocation lives
    // in worker.rs — the flow graph must connect them, and must leave
    // the driver fn that hands out the shard body cold.
    let report = scan_s6("flow_ws", "flow_ws/baseline.json");
    assert_eq!(triples(&report), expected("S6", "flow_ws/worker.rs", &[3]));
    assert!(
        report.violations[0]
            .message
            .contains("`fn shard_step` hot-path allocation count rose to 1 (baseline 0)"),
        "{}",
        report.violations[0].message
    );
}

#[test]
fn s6_fixture_trips_the_ratchet_against_the_pinned_baseline() {
    let mut opts = ScanOptions::new(workspace_root());
    opts.paths = vec![PathBuf::from("crates/lint/fixtures/s6.rs")];
    opts.config = fixture_config("S6");
    opts.s6_baseline = Some(workspace_root().join("crates/lint/fixtures/s6_baseline.json"));
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    };
    // `run` (root) and `helper` (callee) each allocate once against a
    // baseline of zero; `cold` allocates too but is not hot.
    assert_eq!(triples(&report), expected("S6", "s6.rs", &[6, 12]));
    assert!(
        report.violations[0]
            .message
            .contains("rose to 1 (baseline 0)"),
        "{}",
        report.violations[0].message
    );
}

#[test]
fn s6_write_baseline_round_trips_to_a_clean_run() {
    let path = std::env::temp_dir().join(format!("leime_s6_baseline_{}.json", std::process::id()));
    let mut opts = ScanOptions::new(workspace_root());
    opts.paths = vec![PathBuf::from("crates/lint/fixtures/s6.rs")];
    opts.config = fixture_config("S6");
    opts.s6_baseline = Some(path.clone());
    opts.write_s6_baseline = true;
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("baseline write must succeed: {e}"),
    };
    assert!(report.is_clean(), "{:?}", report.violations);
    // A second run against the freshly written baseline is clean.
    opts.write_s6_baseline = false;
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    };
    let _ = std::fs::remove_file(&path);
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn flow_rule_findings_carry_rule_file_line_in_text_and_json() {
    let report = scan_s6("flow_ws", "flow_ws/baseline.json");

    let text = report.render_text();
    for line in [
        "crates/lint/fixtures/flow_ws/worker.rs:3: [S6] `fn shard_step`",
        "1 violation(s) (S6: 1)",
    ] {
        assert!(text.contains(line), "missing `{line}` in:\n{text}");
    }

    let v: serde_json::Value = match serde_json::from_str(&report.to_json()) {
        Ok(v) => v,
        Err(e) => unreachable!("JSON report must parse: {e:?}"),
    };
    assert_eq!(v["schema"].as_str(), Some("leime-lint/5"));
    assert_eq!(v["schema"].as_str(), Some(SCHEMA_VERSION));
    assert_eq!(v["files_scanned"].as_u64(), Some(2));
    let rule_set: Vec<&str> = v["rule_set"]
        .as_array()
        .map(|a| a.iter().filter_map(|r| r.as_str()).collect())
        .unwrap_or_default();
    assert_eq!(rule_set, ["S1", "S6"]);
    let got: Vec<(String, String, u64)> = v["violations"]
        .as_array()
        .map(|list| {
            list.iter()
                .map(|f| {
                    (
                        f["rule"].as_str().unwrap_or("").to_string(),
                        f["path"].as_str().unwrap_or("").to_string(),
                        f["line"].as_u64().unwrap_or(0),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let want = vec![(
        "S6".to_string(),
        "crates/lint/fixtures/flow_ws/worker.rs".to_string(),
        3u64,
    )];
    assert_eq!(got, want);
}

#[test]
fn deny_all_semantics_fixtures_dirty_workspace_clean_of_fixture_rules() {
    // The whole fixtures directory trips the gate...
    let mut opts = ScanOptions::new(workspace_root());
    opts.paths = vec![PathBuf::from("crates/lint/fixtures")];
    opts.config = fixture_config(&RULE_IDS.join(","));
    opts.s6_baseline = Some(workspace_root().join("crates/lint/fixtures/flow_ws/baseline.json"));
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    };
    assert!(!report.is_clean());
    // ...and every rule is represented in the summary: S6 against an
    // empty baseline, which an explicit-path scan needs passed in.
    let hit: Vec<&str> = report.summary.iter().map(|c| c.rule.as_str()).collect();
    for rule in RULE_IDS {
        assert!(hit.contains(rule), "rule {rule} missing from {hit:?}");
    }
}

/// Runs the S6 ratchet over one fixture against one fixture baseline.
fn scan_s6(fixture: &str, baseline: &str) -> Report {
    let mut opts = ScanOptions::new(workspace_root());
    opts.paths = vec![PathBuf::from(format!("crates/lint/fixtures/{fixture}"))];
    opts.config = fixture_config("S6");
    opts.s6_baseline = Some(workspace_root().join(format!("crates/lint/fixtures/{baseline}")));
    match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    }
}

#[test]
fn s6_blind_spot_fixture_counts_the_helper_in_a_vec_length() {
    // The hot root reaches `row_len` only through `vec![0; row_len(n)]`.
    let report = scan_s6("s6_blind.rs", "s6_blind_baseline.json");
    assert_eq!(triples(&report), expected("S6", "s6_blind.rs", &[9]));
    assert!(
        report.violations[0]
            .message
            .contains("`fn row_len` hot-path allocation count rose to 1 (baseline 0)"),
        "{}",
        report.violations[0].message
    );
}

#[test]
fn s6_stale_baseline_entries_are_reported() {
    // Against s6.rs (`run` 1, `helper` 1): `run` is pinned above its
    // count, `helper` exactly, and `gone` names no fn at all (reported
    // at line 0: the baseline records no lines).
    let report = scan_s6("s6.rs", "s6_stale_baseline.json");
    assert_eq!(triples(&report), expected("S6", "s6.rs", &[0, 6]));
    assert!(
        report.violations[0]
            .message
            .contains("baseline entry for `fn gone` matches no hot-path fn"),
        "{}",
        report.violations[0].message
    );
    assert!(
        report.violations[1]
            .message
            .contains("`fn run` hot-path allocation count fell to 1 (baseline 2)"),
        "{}",
        report.violations[1].message
    );
    for f in &report.violations {
        assert!(f.message.contains("`--write-baseline`"), "{}", f.message);
    }
}

#[test]
fn live_call_sites_yield_their_shard_bodies() {
    // An argument index left behind by a signature change would drop the
    // shard bodies' callees from the S6 hot set without a finding. Each
    // live call site must yield its shard body: `run_slot_loop`'s own
    // `work` (passed to `run_rounds`), and the per-device steps of
    // `run_on_edges` and of serving.
    let read = |path: &str| match std::fs::read_to_string(workspace_root().join(path)) {
        Ok(src) => src,
        Err(e) => unreachable!("cannot read {path}: {e}"),
    };
    let config = SemaConfig::default();
    let (core, serving) = ("crates/core/src/slotted.rs", "crates/serving/src/system.rs");
    let bodies = |path: &str| FileFacts::new(path, &read(path), &config).shard_bodies;
    let has = |bodies: &[ShardBody], entry: &str, callee: &str| {
        bodies
            .iter()
            .any(|b| b.entry == entry && b.calls.contains(callee))
    };
    let (core_bodies, serving_bodies) = (bodies(core), bodies(serving));
    assert!(has(&core_bodies, "run_rounds", "step"), "{core_bodies:?}");
    assert!(
        has(&core_bodies, "run_slot_loop", "device_slot"),
        "{core_bodies:?}"
    );
    assert!(
        has(&serving_bodies, "run_slot_loop", "serve_device"),
        "{serving_bodies:?}"
    );
}
