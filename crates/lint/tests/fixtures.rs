//! Fixture tests: each seeded fixture file must produce exactly the
//! expected `(rule, path, line)` tuples, in both the text and the
//! `leime-lint/4` JSON renderings.

use leime_lint::layering::{self, Dep};
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
/// S6 path markers pointing at the fixtures directory (S5/S8 are
/// unscoped — shard bodies are shard bodies anywhere).
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
fn waiver_fixture_reports_hygiene_and_waived_sites() {
    let report = scan_fixture("waivers.rs", fixture_config("S1,S8"));
    // W1: justification-free S8 waiver (line 13); W2: unknown rule L1
    // (line 19); W3: stale S5 waiver (line 22).
    let at = |rule: &str, line: u32| {
        (
            rule.to_string(),
            "crates/lint/fixtures/waivers.rs".to_string(),
            line,
        )
    };
    assert_eq!(
        triples(&report),
        vec![at("W1", 13), at("W2", 19), at("W3", 22)]
    );
    // Both seeded sites are suppressed (the justification-free one still
    // counts as waived; its hygiene problem is the W1 above).
    assert_eq!(report.waivers_used, 2);
    assert_eq!(report.waived[0].finding.rule, "S1");
    assert_eq!(report.waived[0].finding.line, 7);
    assert_eq!(
        report.waived[0].justification,
        "fixture exercises the waiver path"
    );
    assert_eq!(report.waived[1].finding.rule, "S8");
    assert_eq!(report.waived[1].finding.line, 14);
    assert_eq!(report.waived[1].justification, "");
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
fn l5_fixture_flags_only_the_unguarded_solver() {
    // One solver never calls a guard, the other calls one directly; S1
    // (the transitive form of the old L5) flags only the first.
    let report = scan_fixture("l5.rs", fixture_config("S1"));
    assert_eq!(triples(&report), expected("S1", "l5.rs", &[4]));
    assert_eq!(
        report.violations[0].message,
        "`fn balance_solve` never reaches an `invariant::` guard on any call path \
         (Eq. 8 / Eq. 10–11 / Eq. 27)"
    );
}

#[test]
fn text_report_formats_path_line_rule() {
    let report = scan_fixture("s8.rs", fixture_config("S8"));
    let text = report.render_text();
    assert!(
        text.contains(
            "crates/lint/fixtures/s8.rs:6: [S8] `par_map_shards` shard body blocks on \
             `thread::sleep` — shard workers must stay lock- and wait-free (the pool owns \
             all synchronization)"
        ),
        "unexpected text report:\n{text}"
    );
    assert!(text.contains("2 violation(s) (S8: 2)"), "{text}");
}

#[test]
fn json_report_carries_schema_rules_paths_and_lines() {
    let mut opts = ScanOptions::new(workspace_root());
    opts.paths = vec![
        PathBuf::from("crates/lint/fixtures/l5.rs"),
        PathBuf::from("crates/lint/fixtures/s8.rs"),
    ];
    opts.config = fixture_config("S1,S8");
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
        ("S1", "l5.rs", 4u64),
        ("S8", "s8.rs", 6),
        ("S8", "s8.rs", 12),
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
    assert_eq!(summary, vec![("S1", 1), ("S8", 2)]);
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
fn s5_fixture_flags_interior_captures() {
    let report = scan_fixture("s5.rs", fixture_config("S5"));
    assert_eq!(triples(&report), expected("S5", "s5.rs", &[9]));
    assert!(
        report.violations[0].message.contains("`shared`")
            && report.violations[0].message.contains(".lock()"),
        "{}",
        report.violations[0].message
    );
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
fn s8_fixture_flags_direct_and_transitive_blocking() {
    let report = scan_fixture("s8.rs", fixture_config("S8"));
    assert_eq!(triples(&report), expected("S8", "s8.rs", &[6, 12]));
    assert!(
        report.violations[0].message.contains("thread::sleep"),
        "{}",
        report.violations[0].message
    );
    assert!(
        report.violations[1].message.contains("`fn slow_helper`")
            && report.violations[1].message.contains("reachable"),
        "{}",
        report.violations[1].message
    );
}

#[test]
fn flow_ws_fixture_crosses_files() {
    // The shard body lives in driver.rs; its helper's blocking receive
    // lives in worker.rs — the flow graph must connect them.
    let report = scan_fixture("flow_ws", fixture_config("S5,S8"));
    assert_eq!(
        triples(&report),
        vec![
            (
                "S5".to_string(),
                "crates/lint/fixtures/flow_ws/driver.rs".to_string(),
                8
            ),
            (
                "S8".to_string(),
                "crates/lint/fixtures/flow_ws/worker.rs".to_string(),
                4
            ),
        ]
    );
    assert!(report.violations[0].message.contains("`hits`"));
    assert!(report.violations[1].message.contains("`fn shard_step`"));
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
    let mut opts = ScanOptions::new(workspace_root());
    opts.paths = ["s5.rs", "s8.rs"]
        .iter()
        .map(|f| PathBuf::from(format!("crates/lint/fixtures/{f}")))
        .collect();
    opts.config = fixture_config("S5,S8");
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    };

    let text = report.render_text();
    for line in [
        "crates/lint/fixtures/s5.rs:9: [S5]",
        "crates/lint/fixtures/s8.rs:6: [S8]",
    ] {
        assert!(text.contains(line), "missing `{line}` in:\n{text}");
    }

    let v: serde_json::Value = match serde_json::from_str(&report.to_json()) {
        Ok(v) => v,
        Err(e) => unreachable!("JSON report must parse: {e:?}"),
    };
    assert_eq!(v["schema"].as_str(), Some("leime-lint/4"));
    assert_eq!(v["schema"].as_str(), Some(SCHEMA_VERSION));
    let rule_set: Vec<&str> = v["rule_set"]
        .as_array()
        .map(|a| a.iter().filter_map(|r| r.as_str()).collect())
        .unwrap_or_default();
    for rule in ["S5", "S6", "S8"] {
        assert!(rule_set.contains(&rule), "{rule} missing from {rule_set:?}");
    }
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
    // The `.lock()` at s5.rs:9 is doubly wrong: a shared-mutation S5
    // *and* a blocking S8 inside the shard body.
    let want: Vec<(String, String, u64)> = [
        ("S5", "s5.rs", 9u64),
        ("S8", "s5.rs", 9),
        ("S8", "s8.rs", 6),
        ("S8", "s8.rs", 12),
    ]
    .iter()
    .map(|&(r, f, l)| (r.to_string(), format!("crates/lint/fixtures/{f}"), l))
    .collect();
    assert_eq!(got, want);
}

#[test]
fn s12_fixture_flags_the_lock_cycle() {
    // The old S12 fixture, now S8's: the two helpers take `reg` and
    // `stats` in opposite order. Every
    // acquisition reachable from a shard body is an S8 finding, so a
    // lock-order cycle there is always reported (and clippy bans
    // `RwLock`, whose argument-free `.read()`/`.write()` S8 would miss).
    let report = scan_fixture("lock_cycle.rs", fixture_config("S8"));
    assert_eq!(
        triples(&report),
        expected("S8", "lock_cycle.rs", &[14, 15, 19, 20])
    );
    for (f, helper) in report.violations.iter().zip(["fwd", "fwd", "bwd", "bwd"]) {
        assert!(
            f.message
                .contains(&format!("`fn {helper}` blocks on `.lock()`")),
            "{}",
            f.message
        );
    }
}

#[test]
fn deny_all_semantics_fixtures_dirty_workspace_clean_of_fixture_rules() {
    // The whole fixtures directory trips the gate...
    let mut opts = ScanOptions::new(workspace_root());
    opts.paths = vec![PathBuf::from("crates/lint/fixtures")];
    opts.config = fixture_config(&RULE_IDS.join(","));
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    };
    assert!(!report.is_clean());
    // ...and every rule with a seeded fixture is represented in the
    // summary (S6 needs a baseline, which explicit-path scans skip).
    let hit: Vec<&str> = report.summary.iter().map(|c| c.rule.as_str()).collect();
    for rule in ["S1", "S5", "S8", "W1", "W2", "W3"] {
        assert!(hit.contains(&rule), "rule {rule} missing from {hit:?}");
    }
}

#[test]
fn s8_blind_spot_fixture_sees_let_else_and_match_guard_locks() {
    // Each `.lock()` sits where a recursive-descent front end dropped
    // the tokens: a `let … else` block and a match guard.
    let report = scan_fixture("s8_blind.rs", fixture_config("S8"));
    assert_eq!(triples(&report), expected("S8", "s8_blind.rs", &[11, 18]));
    for (f, helper) in report.violations.iter().zip(["first_or_wait", "guarded"]) {
        assert!(
            f.message
                .contains(&format!("`fn {helper}` blocks on `.lock()`")),
            "{}",
            f.message
        );
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
    // count, `helper` exactly, and `gone` names no fn at all.
    let report = scan_s6("s6.rs", "s6_stale_baseline.json");
    assert_eq!(triples(&report), expected("S6", "s6.rs", &[6, 30]));
    assert!(
        report.violations[0]
            .message
            .contains("`fn run` hot-path allocation count fell to 1 (baseline 2)"),
        "{}",
        report.violations[0].message
    );
    assert!(
        report.violations[1]
            .message
            .contains("baseline entry for `fn gone` matches no hot-path fn"),
        "{}",
        report.violations[1].message
    );
    for f in &report.violations {
        assert!(f.message.contains("`--write-baseline`"), "{}", f.message);
    }
}
