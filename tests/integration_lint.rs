//! Tier-2 gate: the workspace's own library sources must pass the full
//! leime-lint rule set — token L1–L5 *and* semantic S1–S9 and S12, zero
//! violations, waivers within budget. This is the same scan
//! `cargo run -p leime-lint -- --deny-all` performs in CI, run here so
//! a plain `cargo test` catches regressions too.

use leime_lint::{run, ScanOptions, RULE_IDS, SCHEMA_VERSION};
use std::path::{Path, PathBuf};

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
    // The default scan runs sema (S1–S4, the interprocedural flow rules
    // S5–S8, and the numeric-determinism rules S9 and S12) and
    // reports the `leime-lint/4` schema; the clean result above is
    // therefore a *semantic* clean — every guarded solver transitively
    // reaches `invariant::`, no hash iteration or unit mixing in the
    // marked paths, the crate DAG flows strictly downward, shard bodies
    // capture nothing mutable and never block, hot-path allocation
    // counts hold at the pinned baseline, every RNG stream derives via
    // `stream_seed`, hot float accumulations are order-pinned or
    // approved, and lock acquisition orders are acyclic. (`unsafe` is
    // forbidden by the compiler workspace-wide, `[workspace.lints]`.)
    let opts = ScanOptions::new(workspace_root());
    assert!(opts.sema, "sema must be on by default");
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("workspace lint scan must succeed: {e}"),
    };
    assert_eq!(report.schema, SCHEMA_VERSION);
    assert_eq!(SCHEMA_VERSION, "leime-lint/4");
    for rule in [
        "L1", "L2", "L3", "L4", "L5", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S12",
    ] {
        assert!(
            report.rule_set.iter().any(|r| r == rule),
            "{rule} missing from rule_set {:?}",
            report.rule_set
        );
        assert!(RULE_IDS.contains(&rule));
    }
    assert_eq!(RULE_IDS.len(), 15, "{RULE_IDS:?}");
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

#[test]
fn waiver_budget_is_tight() {
    // The acceptance bar is at most 5 justified waivers across the tree;
    // today there are three: the sanctioned panic site inside the
    // invariant crate, and the driver-drained telemetry mutex (two S8
    // findings on one line in `telemetry/src/sync.rs`).
    let opts = ScanOptions::new(workspace_root());
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("workspace lint scan must succeed: {e}"),
    };
    assert!(
        report.waivers_used <= 5,
        "waiver count crept up to {} — justify or fix instead",
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
