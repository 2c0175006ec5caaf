//! Fixture tests: each seeded fixture file must produce exactly the
//! expected `(rule, path, line)` tuples, in both the text and the
//! `leime-lint/4` JSON renderings.

use leime_lint::{parse_rule_filter, run, Report, RuleConfig, ScanOptions, SCHEMA_VERSION};
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
fn scan_fixture(name: &str, config: RuleConfig) -> Report {
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

#[test]
fn l1_fixture_flags_each_panic_site_once() {
    let report = scan_fixture("l1.rs", RuleConfig::default());
    assert_eq!(triples(&report), expected("L1", "l1.rs", &[4, 8, 12, 16]));
    assert_eq!(
        report.violations[0].message,
        "`.unwrap()` in library code — return a typed error instead"
    );
    assert_eq!(
        report.violations[2].message,
        "`panic!` in library code — return a typed error instead"
    );
    assert!(!report.is_clean());
}

#[test]
fn l2_fixture_flags_partial_cmp_only() {
    let report = scan_fixture("l2.rs", RuleConfig::default());
    // One L2 finding; the unwrap inside it must not double-report as L1.
    assert_eq!(triples(&report), expected("L2", "l2.rs", &[4]));
    assert_eq!(
        report.violations[0].message,
        "NaN-unsafe `partial_cmp(..)` unwrap — use `total_cmp`"
    );
}

#[test]
fn l3_fixture_flags_both_clock_types() {
    let report = scan_fixture("l3.rs", RuleConfig::default());
    assert_eq!(triples(&report), expected("L3", "l3.rs", &[4, 8]));
    assert_eq!(
        report.violations[0].message,
        "wall-clock `Instant::now` breaks sim determinism — use a telemetry `Clock`"
    );
    assert_eq!(
        report.violations[1].message,
        "wall-clock `SystemTime::now` breaks sim determinism — use a telemetry `Clock`"
    );
}

#[test]
fn l4_fixture_flags_float_eq_and_ne() {
    let report = scan_fixture("l4.rs", RuleConfig::default());
    assert_eq!(triples(&report), expected("L4", "l4.rs", &[4, 8]));
}

#[test]
fn l5_fixture_flags_only_the_unguarded_solver() {
    // Mark the fixture directory as L5-guarded; by default only
    // offload/exitcfg sources are. Restrict to the token rules so the
    // (deliberately overlapping) transitive S1 rule stays out of the
    // expectation — the S-rules have their own fixtures below.
    let mut config = RuleConfig::default();
    if let Err(e) = parse_rule_filter(&mut config, "L1,L2,L3,L4,L5") {
        unreachable!("rule filter must parse: {e}");
    }
    config
        .guarded_path_markers
        .push("crates/lint/fixtures".to_string());
    let report = scan_fixture("l5.rs", config);
    assert_eq!(triples(&report), expected("L5", "l5.rs", &[3]));
    assert_eq!(
        report.violations[0].message,
        "`fn balance_solve` produces ratios/shares/queue state but never calls an \
         `invariant::` guard (Eq. 8 / Eq. 10–11 / Eq. 27)"
    );
}

#[test]
fn l5_fixture_is_exempt_without_the_path_marker() {
    let report = scan_fixture("l5.rs", RuleConfig::default());
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn waiver_fixture_reports_hygiene_and_waived_sites() {
    let report = scan_fixture("waivers.rs", RuleConfig::default());
    // W1: justification-free waiver (line 10); W2: unknown rule L9
    // (line 14); W3: stale L2 waiver (line 17).
    assert_eq!(
        triples(&report),
        vec![
            (
                "W1".to_string(),
                "crates/lint/fixtures/waivers.rs".to_string(),
                10
            ),
            (
                "W2".to_string(),
                "crates/lint/fixtures/waivers.rs".to_string(),
                14
            ),
            (
                "W3".to_string(),
                "crates/lint/fixtures/waivers.rs".to_string(),
                17
            ),
        ]
    );
    // Both unwraps are suppressed (the justification-free one still
    // counts as waived; its hygiene problem is the W1 above).
    assert_eq!(report.waivers_used, 2);
    assert_eq!(report.waived[0].finding.rule, "L1");
    assert_eq!(report.waived[0].finding.line, 6);
    assert_eq!(
        report.waived[0].justification,
        "fixture exercises the waiver path"
    );
    assert_eq!(report.waived[1].finding.line, 11);
    assert_eq!(report.waived[1].justification, "");
}

#[test]
fn text_report_formats_path_line_rule() {
    let report = scan_fixture("l1.rs", RuleConfig::default());
    let text = report.render_text();
    assert!(
        text.contains(
            "crates/lint/fixtures/l1.rs:4: [L1] `.unwrap()` in library code — \
             return a typed error instead"
        ),
        "unexpected text report:\n{text}"
    );
    assert!(text.contains("4 violation(s) (L1: 4)"), "{text}");
}

#[test]
fn json_report_carries_schema_rules_paths_and_lines() {
    let mut opts = ScanOptions::new(workspace_root());
    opts.paths = vec![
        PathBuf::from("crates/lint/fixtures/l1.rs"),
        PathBuf::from("crates/lint/fixtures/l3.rs"),
    ];
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    };
    let json = report.to_json();
    let v: serde_json::Value = match serde_json::from_str(&json) {
        Ok(v) => v,
        Err(e) => unreachable!("JSON report must parse: {e:?}"),
    };
    assert_eq!(v["schema"].as_str(), Some(SCHEMA_VERSION));
    assert_eq!(v["files_scanned"].as_u64(), Some(2));
    let violations = match v["violations"].as_array() {
        Some(list) => list,
        None => unreachable!("violations must be an array"),
    };
    let got: Vec<(String, String, u64)> = violations
        .iter()
        .map(|f| {
            (
                f["rule"].as_str().unwrap_or("").to_string(),
                f["path"].as_str().unwrap_or("").to_string(),
                f["line"].as_u64().unwrap_or(0),
            )
        })
        .collect();
    let want: Vec<(String, String, u64)> = [
        ("L1", "l1.rs", 4u64),
        ("L1", "l1.rs", 8),
        ("L1", "l1.rs", 12),
        ("L1", "l1.rs", 16),
        ("L3", "l3.rs", 4),
        ("L3", "l3.rs", 8),
    ]
    .iter()
    .map(|&(r, f, l)| (r.to_string(), format!("crates/lint/fixtures/{f}"), l))
    .collect();
    assert_eq!(got, want);
    // Per-rule summary mirrors the violation list.
    let summary = match v["summary"].as_array() {
        Some(list) => list,
        None => unreachable!("summary must be an array"),
    };
    assert_eq!(summary.len(), 2);
    assert_eq!(summary[0]["rule"].as_str(), Some("L1"));
    assert_eq!(summary[0]["count"].as_u64(), Some(4));
    assert_eq!(summary[1]["rule"].as_str(), Some("L3"));
    assert_eq!(summary[1]["count"].as_u64(), Some(2));
}

/// Config for the S-rule fixtures: semantic rules only, with every
/// S1–S3 path marker pointing at the fixtures directory.
fn s_rule_config() -> RuleConfig {
    let mut config = RuleConfig::default();
    if let Err(e) = parse_rule_filter(&mut config, "S1,S2,S3,S4") {
        unreachable!("rule filter must parse: {e}");
    }
    let marker = "crates/lint/fixtures".to_string();
    config.guarded_path_markers.push(marker.clone());
    config.hash_path_markers.push(marker.clone());
    config.unit_path_markers.push(marker);
    config
}

#[test]
fn s1_fixture_flags_the_transitively_unguarded_solver() {
    let report = scan_fixture("s1.rs", s_rule_config());
    assert_eq!(triples(&report), expected("S1", "s1.rs", &[5]));
    assert_eq!(
        report.violations[0].message,
        "`fn decide` never reaches an `invariant::` guard on any call path \
         (Eq. 8 / Eq. 10–11 / Eq. 27)"
    );
}

#[test]
fn s2_fixture_flags_hash_iteration_only() {
    let report = scan_fixture("s2.rs", s_rule_config());
    assert_eq!(triples(&report), expected("S2", "s2.rs", &[8]));
    assert!(
        report.violations[0].message.contains(".keys()")
            && report.violations[0].message.contains("`stats`"),
        "{}",
        report.violations[0].message
    );
}

#[test]
fn s3_fixture_flags_unit_mixing_only() {
    let report = scan_fixture("s3.rs", s_rule_config());
    assert_eq!(triples(&report), expected("S3", "s3.rs", &[5]));
    assert!(
        report.violations[0].message.contains("milliseconds")
            && report.violations[0].message.contains("seconds"),
        "{}",
        report.violations[0].message
    );
}

#[test]
fn s4_fixture_workspace_flags_rank_fence_and_shim_edges() {
    // Point the scan root at a fake workspace whose manifests break the
    // rank, tooling-fence and shim-path constraints one crate each; the
    // clean leime-workload manifest must stay silent.
    let mut opts = ScanOptions::new(
        workspace_root()
            .join("crates")
            .join("lint")
            .join("fixtures")
            .join("s4_ws"),
    );
    opts.config = s_rule_config();
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    };
    let want: Vec<(String, String, u32)> = [
        ("crates/leime-dnn/Cargo.toml", "shims"),
        ("crates/leime-simnet/Cargo.toml", "tooling"),
        ("crates/leime-telemetry/Cargo.toml", "strictly downward"),
    ]
    .iter()
    .map(|&(path, _)| ("S4".to_string(), path.to_string(), 6))
    .collect();
    assert_eq!(triples(&report), want);
    assert!(report.violations[0].message.contains("shims"));
    assert!(report.violations[1].message.contains("tooling"));
    assert!(report.violations[2].message.contains("strictly downward"));
}

#[test]
fn s_rule_findings_carry_rule_file_line_in_text_and_json() {
    let mut opts = ScanOptions::new(workspace_root());
    opts.paths = ["s1.rs", "s2.rs", "s3.rs"]
        .iter()
        .map(|f| PathBuf::from(format!("crates/lint/fixtures/{f}")))
        .collect();
    opts.config = s_rule_config();
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    };

    let text = report.render_text();
    for line in [
        "crates/lint/fixtures/s1.rs:5: [S1]",
        "crates/lint/fixtures/s2.rs:8: [S2]",
        "crates/lint/fixtures/s3.rs:5: [S3]",
    ] {
        assert!(text.contains(line), "missing `{line}` in:\n{text}");
    }

    let v: serde_json::Value = match serde_json::from_str(&report.to_json()) {
        Ok(v) => v,
        Err(e) => unreachable!("JSON report must parse: {e:?}"),
    };
    assert_eq!(v["schema"].as_str(), Some(SCHEMA_VERSION));
    let rule_set: Vec<&str> = v["rule_set"]
        .as_array()
        .map(|a| a.iter().filter_map(|r| r.as_str()).collect())
        .unwrap_or_default();
    for rule in ["S1", "S2", "S3", "S4"] {
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
    let want: Vec<(String, String, u64)> = [
        ("S1", "s1.rs", 5u64),
        ("S2", "s2.rs", 8),
        ("S3", "s3.rs", 5),
    ]
    .iter()
    .map(|&(r, f, l)| (r.to_string(), format!("crates/lint/fixtures/{f}"), l))
    .collect();
    assert_eq!(got, want);
}

/// Config for the flow-rule fixtures (S5–S8): the requested rules only,
/// with the S6/S7 path markers pointing at the fixtures directory
/// (S5/S8 are unscoped — shard bodies are shard bodies anywhere).
fn flow_rule_config(rules: &str) -> RuleConfig {
    let mut config = RuleConfig::default();
    if let Err(e) = parse_rule_filter(&mut config, rules) {
        unreachable!("rule filter must parse: {e}");
    }
    let marker = "crates/lint/fixtures".to_string();
    config.hot_path_markers.push(marker.clone());
    config.rng_path_markers.push(marker);
    config
}

#[test]
fn s5_fixture_flags_mutable_and_interior_captures() {
    let report = scan_fixture("s5.rs", flow_rule_config("S5"));
    assert_eq!(triples(&report), expected("S5", "s5.rs", &[8, 17]));
    assert!(
        report.violations[0].message.contains("`total`")
            && report.violations[0].message.contains("mutably captures"),
        "{}",
        report.violations[0].message
    );
    assert!(
        report.violations[1].message.contains("`shared`")
            && report.violations[1].message.contains(".lock()"),
        "{}",
        report.violations[1].message
    );
}

#[test]
fn s7_fixture_flags_literal_adhoc_and_entropy_seeds() {
    let report = scan_fixture("s7.rs", flow_rule_config("S7"));
    assert_eq!(triples(&report), expected("S7", "s7.rs", &[5, 9, 13]));
    assert!(
        report.violations[0].message.contains("literal seed"),
        "{}",
        report.violations[0].message
    );
    assert!(
        report.violations[1].message.contains("ad-hoc seed"),
        "{}",
        report.violations[1].message
    );
    assert!(
        report.violations[2].message.contains("ambient entropy"),
        "{}",
        report.violations[2].message
    );
}

#[test]
fn s8_fixture_flags_direct_and_transitive_blocking() {
    let report = scan_fixture("s8.rs", flow_rule_config("S8"));
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
    let report = scan_fixture("flow_ws", flow_rule_config("S5,S7,S8"));
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
    opts.config = flow_rule_config("S6");
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
    opts.config = flow_rule_config("S6");
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
    opts.paths = ["s5.rs", "s7.rs", "s8.rs"]
        .iter()
        .map(|f| PathBuf::from(format!("crates/lint/fixtures/{f}")))
        .collect();
    opts.config = flow_rule_config("S5,S7,S8");
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    };

    let text = report.render_text();
    for line in [
        "crates/lint/fixtures/s5.rs:8: [S5]",
        "crates/lint/fixtures/s7.rs:5: [S7]",
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
    for rule in ["S5", "S6", "S7", "S8"] {
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
    // The `.lock()` at s5.rs:17 is doubly wrong: a shared-mutation S5
    // *and* a blocking S8 inside the shard body.
    let want: Vec<(String, String, u64)> = [
        ("S5", "s5.rs", 8u64),
        ("S5", "s5.rs", 17),
        ("S8", "s5.rs", 17),
        ("S7", "s7.rs", 5),
        ("S7", "s7.rs", 9),
        ("S7", "s7.rs", 13),
        ("S8", "s8.rs", 6),
        ("S8", "s8.rs", 12),
    ]
    .iter()
    .map(|&(r, f, l)| (r.to_string(), format!("crates/lint/fixtures/{f}"), l))
    .collect();
    assert_eq!(got, want);
}

#[test]
fn s9_fixture_flags_hot_float_accumulations_only() {
    let report = scan_fixture("s9.rs", flow_rule_config("S9"));
    // `seq_sweep` is a hot root: its loop-carried `acc +=` and the
    // trailing float `.sum()` both fire; `cold` stays silent.
    assert_eq!(triples(&report), expected("S9", "s9.rs", &[6, 8]));
    assert!(
        report.violations[0].message.contains("`acc += …`")
            && report.violations[0].message.contains("byte-identical"),
        "{}",
        report.violations[0].message
    );
    assert!(
        report.violations[1].message.contains(".sum()"),
        "{}",
        report.violations[1].message
    );
}

#[test]
fn s12_fixture_flags_the_lock_cycle() {
    let report = scan_fixture("s12.rs", flow_rule_config("S12"));
    // The cycle anchors at the first acquisition of its smallest lock.
    assert_eq!(triples(&report), expected("S12", "s12.rs", &[12]));
    assert!(
        report.violations[0].message.contains("reg → stats → reg"),
        "{}",
        report.violations[0].message
    );
}

#[test]
fn numeric_ws_fixture_crosses_files_in_text_and_json() {
    // The hot root and shard body live in driver.rs; the S9 float
    // reduction sits in kernel.rs and the S12 lock cycle in locks.rs —
    // the flow graph must connect all three files.
    let report = scan_fixture("numeric_ws", flow_rule_config("S9,S12"));
    assert_eq!(
        triples(&report),
        vec![
            (
                "S9".to_string(),
                "crates/lint/fixtures/numeric_ws/kernel.rs".to_string(),
                6
            ),
            (
                "S12".to_string(),
                "crates/lint/fixtures/numeric_ws/locks.rs".to_string(),
                4
            ),
        ]
    );
    assert!(report.violations[0].message.contains("`fn accumulate`"));
    assert!(
        report.violations[1]
            .message
            .contains("registry → stats → registry"),
        "{}",
        report.violations[1].message
    );

    let text = report.render_text();
    for line in [
        "crates/lint/fixtures/numeric_ws/kernel.rs:6: [S9]",
        "crates/lint/fixtures/numeric_ws/locks.rs:4: [S12]",
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
    for rule in ["S9", "S12"] {
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
    let want: Vec<(String, String, u64)> = vec![
        (
            "S9".to_string(),
            "crates/lint/fixtures/numeric_ws/kernel.rs".to_string(),
            6,
        ),
        (
            "S12".to_string(),
            "crates/lint/fixtures/numeric_ws/locks.rs".to_string(),
            4,
        ),
    ];
    assert_eq!(got, want);
}

#[test]
fn s2_hash_markers_pin_the_serving_crate() {
    // The serving slot loop and admission path are determinism-sensitive;
    // S2's default scope must keep covering them.
    let config = RuleConfig::default();
    assert!(
        config
            .hash_path_markers
            .iter()
            .any(|m| m == "crates/serving/src"),
        "crates/serving/src missing from S2 hash_path_markers: {:?}",
        config.hash_path_markers
    );
}

#[test]
fn no_sema_turns_the_s_rules_off() {
    let mut opts = ScanOptions::new(workspace_root());
    opts.paths = vec![PathBuf::from("crates/lint/fixtures/s1.rs")];
    opts.config = s_rule_config();
    opts.sema = false;
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    };
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn deny_all_semantics_fixtures_dirty_workspace_clean_of_fixture_rules() {
    // The whole fixtures directory trips the gate...
    let mut opts = ScanOptions::new(workspace_root());
    opts.paths = vec![PathBuf::from("crates/lint/fixtures")];
    opts.config
        .guarded_path_markers
        .push("crates/lint/fixtures".to_string());
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("fixture scan must succeed: {e}"),
    };
    assert!(!report.is_clean());
    // ...and every primary rule is represented in the summary.
    let hit: Vec<&str> = report.summary.iter().map(|c| c.rule.as_str()).collect();
    for rule in ["L1", "L2", "L3", "L4", "L5", "W1", "W2", "W3"] {
        assert!(hit.contains(&rule), "rule {rule} missing from {hit:?}");
    }
}
