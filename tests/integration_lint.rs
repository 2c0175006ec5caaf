//! Tier-2 gates on the workspace's static analysis.
//!
//! The library sources must pass every leime-lint rule (S1, S5–S9 and
//! S12) with zero violations and escapes within budget: the same scan
//! `cargo run -p leime-lint -- --deny-all` performs in CI, run here so a
//! plain `cargo test` catches regressions too. The crate layering is
//! checked here as well, over `cargo metadata`. Panics, float equality,
//! wall-clock reads and hash containers are clippy's job
//! (`[workspace.lints.clippy]`), and `unsafe` is forbidden by the
//! compiler (`[workspace.lints.rust]`).

use leime_lint::layering::{self, Dep, LAYERS, TOOLING};
use leime_lint::{run, ScanOptions, RULE_IDS, SCHEMA_VERSION, WAIVER_BUDGET};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Workspace root: two levels above the `leime` core crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(Path::parent) {
        Some(root) => root.to_path_buf(),
        None => unreachable!("crates/core always sits two levels below the root"),
    }
}

#[test]
fn workspace_library_sources_are_lint_clean() {
    let opts = ScanOptions::new(workspace_root());
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("workspace lint scan must succeed: {e}"),
    };
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — did the walk break?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "workspace must be lint-clean; report:\n{}",
        report.render_text()
    );
}

#[test]
fn semantic_rules_are_part_of_the_workspace_gate() {
    // The default scan runs every rule and reports the `leime-lint/4`
    // schema, so the clean result above is a *semantic* clean: every
    // guarded solver transitively reaches `invariant::`, shard bodies
    // capture nothing mutable and never block, hot-path allocation
    // counts hold at the pinned baseline, every RNG stream derives via
    // `stream_seed`, hot float accumulations are order-pinned or
    // approved, and lock acquisition orders are acyclic.
    let opts = ScanOptions::new(workspace_root());
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("workspace lint scan must succeed: {e}"),
    };
    assert_eq!(report.schema, SCHEMA_VERSION);
    assert_eq!(SCHEMA_VERSION, "leime-lint/4");
    assert_eq!(RULE_IDS, ["S1", "S5", "S6", "S7", "S8", "S9", "S12"]);
    assert_eq!(report.rule_set, RULE_IDS);
    for f in &report.violations {
        assert!(
            !f.rule.starts_with('S'),
            "semantic violation crept in at {}:{} [{}] {}",
            f.path,
            f.line,
            f.rule,
            f.message
        );
    }
}

/// `#[expect(…)]` attributes in the workspace's own sources (vendored
/// shims and build output excluded).
fn count_expects(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut n = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "shims" && name != "target" {
                n += count_expects(&path);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).unwrap_or_default();
            n += src
                .lines()
                .filter(|l| {
                    let l = l.trim_start();
                    l.starts_with("#[expect(") || l.starts_with("#![expect(")
                })
                .count();
        }
    }
    n
}

#[test]
fn waiver_budget_is_tight() {
    // `lint:allow` waivers and `#[expect(clippy::…)]` escapes share one
    // budget. Today there are four: the driver-drained telemetry mutex
    // (two S8 findings on one line in `telemetry/src/sync.rs`), the
    // sanctioned panic site in the invariant crate, and the wall clock
    // in `telemetry/src/clock.rs`.
    let opts = ScanOptions::new(workspace_root());
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("workspace lint scan must succeed: {e}"),
    };
    let expects = count_expects(&workspace_root().join("crates"));
    assert!(
        report.waivers_used + expects <= WAIVER_BUDGET,
        "escapes crept up to {} waivers + {expects} expects — justify or fix instead",
        report.waivers_used
    );
    for w in &report.waived {
        assert!(
            !w.justification.is_empty(),
            "waiver at {}:{} has no justification",
            w.finding.path,
            w.finding.line
        );
    }
}

#[test]
fn crate_layering_flows_strictly_downward() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args([
            "metadata",
            "--offline",
            "--no-deps",
            "--format-version",
            "1",
        ])
        .current_dir(workspace_root())
        .output();
    let stdout = match output {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
        Ok(o) => unreachable!(
            "cargo metadata failed: {}",
            String::from_utf8_lossy(&o.stderr)
        ),
        Err(e) => unreachable!("cannot run cargo metadata: {e}"),
    };
    let meta: serde_json::Value = match serde_json::from_str(&stdout) {
        Ok(v) => v,
        Err(e) => unreachable!("cargo metadata must emit JSON: {e:?}"),
    };
    let packages = meta["packages"]
        .as_array()
        .map(Vec::as_slice)
        .unwrap_or_default();

    let mut names = Vec::new();
    let mut violations = Vec::new();
    for pkg in packages {
        let name = pkg["name"].as_str().unwrap_or_default();
        if !layering::is_leime(name) {
            continue;
        }
        names.push(name.to_string());
        let deps: Vec<Dep<'_>> = pkg["dependencies"]
            .as_array()
            .map(|ds| {
                ds.iter()
                    .filter_map(|d| {
                        d["name"].as_str().map(|name| Dep {
                            name,
                            normal: d["kind"].is_null(),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        let manifest_path = pkg["manifest_path"].as_str().unwrap_or_default();
        let manifest = match std::fs::read_to_string(manifest_path) {
            Ok(text) => text,
            Err(e) => unreachable!("cannot read {manifest_path}: {e}"),
        };
        for v in layering::violations(name, &deps, &manifest) {
            violations.push(format!("{manifest_path}:{}: {}", v.line, v.message));
        }
    }

    // The tables name exactly the workspace's crates: a new crate must be
    // placed, and a deleted one leaves.
    names.sort();
    let mut known: Vec<String> = LAYERS
        .iter()
        .flat_map(|layer| layer.iter())
        .chain(TOOLING)
        .map(|s| (*s).to_string())
        .collect();
    known.sort();
    assert_eq!(names, known, "LAYERS/TOOLING out of date");
    assert!(violations.is_empty(), "{violations:#?}");
}
