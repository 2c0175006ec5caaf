//! # leime-lint
//!
//! Offline, dependency-light static analysis for the LEIME workspace.
//!
//! LEIME's correctness rests on numeric invariants the compiler cannot
//! see — offloading ratios `x_i(t) ∈ [0, 1]` (Eq. 8), non-negative queue
//! backlogs `Q_i`/`H_i` (Eq. 10–11), KKT compute shares on the simplex
//! (Eq. 27) — and on library code that never panics under load. This
//! crate scans the workspace's own sources with a token-level scanner
//! (no `syn` in the offline build environment) and enforces the L1–L5
//! rule set described in [`rules`], with inline
//! `// lint:allow(<rule>): <justification>` waivers under a budget.
//! The semantic S1–S4 rules — transitive invariant reachability, hash
//! iteration, unit-suffix mixing, crate layering — and the
//! interprocedural flow rules S5–S8 — shard-capture races, the
//! hot-path allocation ratchet, RNG-stream hygiene, shard-body
//! blocking — and the numeric-determinism rules S9 and S12 — hot-path
//! float reductions, shard lock-order cycles — come from [`leime_sema`]
//! (re-exported as [`sema`]) and are merged into the same
//! waiver/report pipeline under the `leime-lint/4` schema.
//!
//! The binary (`cargo run -p leime-lint -- --deny-all`) is the CI gate;
//! the library is exercised directly by the tier-2 integration tests.

pub mod report;
pub mod rules;

/// The semantic-analysis layer: parser, AST, call graph, flow, S1–S8.
pub use leime_sema as sema;
/// The shared token-level lexer (lives in `leime-sema`, where the
/// parser builds on it; the L-rules consume it from here).
pub use leime_sema::lexer;

pub use report::{Report, RuleCount, SCHEMA_VERSION};
pub use rules::{FileScan, Finding, RuleConfig, Waived, RULE_IDS};

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};

/// Default waiver budget: a handful of justified escapes, no more.
pub const DEFAULT_WAIVER_BUDGET: usize = 8;

/// Options for one lint run.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// Workspace root; paths in findings are reported relative to it.
    pub root: PathBuf,
    /// Explicit files/directories to scan instead of the default
    /// workspace library-source walk.
    pub paths: Vec<PathBuf>,
    /// Maximum number of waivers before the run fails.
    pub max_waivers: usize,
    /// Rule configuration (scoping, guarded functions, enabled set).
    pub config: RuleConfig,
    /// Whether to run the semantic S1–S8 rules (`--no-sema` turns the
    /// run back into the token-level L1–L5 scanner).
    pub sema: bool,
    /// S6 allocation-ratchet baseline file. `None` uses the committed
    /// [`S6_BASELINE_PATH`] under the root in workspace mode and
    /// disables the ratchet for explicit-path scans.
    pub s6_baseline: Option<PathBuf>,
    /// Regenerate the S6 baseline from this run's counts instead of
    /// comparing against it (`--write-baseline`).
    pub write_s6_baseline: bool,
}

impl ScanOptions {
    /// Default options rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ScanOptions {
            root: root.into(),
            paths: Vec::new(),
            max_waivers: DEFAULT_WAIVER_BUDGET,
            config: RuleConfig::default(),
            sema: true,
            s6_baseline: None,
            write_s6_baseline: false,
        }
    }
}

/// The committed S6 hot-allocation baseline, relative to the workspace
/// root. The ratchet: a hot-path function's allocation count may only
/// go down; raising it requires deliberately regenerating this file
/// with `--write-baseline` (and justifying the diff in review).
pub const S6_BASELINE_PATH: &str = "crates/lint/hot_alloc_baseline.json";

/// Schema tag of the S6 baseline file.
pub const S6_BASELINE_SCHEMA: &str = "leime-lint-hot-alloc/1";

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

/// Directory names excluded from the default workspace walk (vendored
/// shims, lint fixtures, and non-library code).
const NON_LIBRARY_DIRS: &[&str] = &["shims", "fixtures", "tests", "benches", "examples", "bin"];

/// Runs the lint over the workspace (or over `opts.paths` when given).
///
/// # Errors
///
/// Returns a description of the first I/O failure (unreadable root or
/// source file).
pub fn run(opts: &ScanOptions) -> Result<Report, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    if opts.paths.is_empty() {
        let crates_dir = opts.root.join("crates");
        collect_files(&crates_dir, true, &mut files)?;
    } else {
        for p in &opts.paths {
            let full = if p.is_absolute() {
                p.clone()
            } else {
                opts.root.join(p)
            };
            if full.is_dir() {
                collect_files(&full, false, &mut files)?;
            } else {
                files.push(full);
            }
        }
    }
    files.sort();
    files.dedup();

    let mut sources: Vec<(String, String)> = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        sources.push((display_path(&opts.root, file), src));
    }

    // Semantic pass first: S1 needs whole-crate call graphs, so files
    // group by crate before per-file findings come back out.
    let mut sema_by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    if opts.sema {
        let sema_cfg = opts.config.sema_config();
        let mut groups: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
        for (rel, src) in &sources {
            groups
                .entry(crate_key(rel))
                .or_default()
                .push((rel.clone(), src.clone()));
        }
        for group in groups.values() {
            for f in leime_sema::analyze_crate(group, &sema_cfg) {
                sema_by_file.entry(f.path.clone()).or_default().push(f);
            }
        }

        // Interprocedural flow pass (S5/S7/S8): one analysis over the
        // whole scanned file set — flow edges cross crates.
        let flow = leime_sema::flow::FlowAnalysis::build(&sources, &sema_cfg);
        for f in flow.findings(&sema_cfg) {
            sema_by_file.entry(f.path.clone()).or_default().push(f);
        }

        // S6 allocation ratchet: hot-path counts against the pinned
        // baseline. Explicit-path scans skip it unless a baseline was
        // passed in (a partial scan would see a partial hot set and
        // report nonsense diffs).
        let baseline_path = opts.s6_baseline.clone().or_else(|| {
            opts.paths
                .is_empty()
                .then(|| opts.root.join(S6_BASELINE_PATH))
        });
        if sema_cfg.rule_on("S6") {
            if let Some(bp) = baseline_path {
                let counts = flow.hot_alloc_counts(&sema_cfg);
                if opts.write_s6_baseline {
                    write_s6_baseline(&bp, &counts)?;
                } else if bp.is_file() {
                    for f in check_s6(&bp, &counts)? {
                        sema_by_file.entry(f.path.clone()).or_default().push(f);
                    }
                }
            }
        }
    }

    let mut violations = Vec::new();
    let mut waived = Vec::new();
    for (rel, src) in &sources {
        let extra = sema_by_file.remove(rel).unwrap_or_default();
        let scan = rules::scan_source_with(rel, src, &opts.config, extra);
        violations.extend(scan.findings);
        waived.extend(scan.waived);
    }

    // S4 runs in workspace mode only (it reads `crates/*/Cargo.toml`
    // under the root, not the scanned file list) and bypasses waivers:
    // manifests carry no lint:allow comments by design.
    if opts.sema && opts.paths.is_empty() {
        violations.extend(leime_sema::check_layering(
            &opts.root,
            &opts.config.sema_config(),
        )?);
    }

    Ok(Report::new(
        files.len(),
        violations,
        waived,
        opts.max_waivers,
    ))
}

/// Writes the S6 baseline file from this run's hot-allocation counts
/// (sorted keys — the file diffs cleanly).
fn write_s6_baseline(
    path: &Path,
    counts: &BTreeMap<String, leime_sema::flow::HotAlloc>,
) -> Result<(), String> {
    let mut fns = serde_json::Map::new();
    for (key, ha) in counts {
        fns.insert(
            key.clone(),
            serde_json::json!({ "line": ha.line, "count": ha.count }),
        );
    }
    let mut root = serde_json::Map::new();
    root.insert(
        "schema".to_string(),
        serde_json::Value::String(S6_BASELINE_SCHEMA.to_string()),
    );
    root.insert("fns".to_string(), serde_json::Value::Object(fns));
    let doc = serde_json::Value::Object(root);
    let text = serde_json::to_string_pretty(&doc)
        .map_err(|e| format!("cannot serialize S6 baseline: {e}"))?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Compares this run's hot-allocation counts against the pinned
/// baseline: any function whose count rose (functions missing from the
/// baseline count as 0) yields an S6 finding at its definition line.
fn check_s6(
    path: &Path,
    counts: &BTreeMap<String, leime_sema::flow::HotAlloc>,
) -> Result<Vec<Finding>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc: serde_json::Value = serde_json::from_str(&text)
        .map_err(|e| format!("malformed S6 baseline {}: {e}", path.display()))?;
    let fns = doc.get("fns").and_then(|v| v.as_object());
    let mut out = Vec::new();
    for (key, ha) in counts {
        let base = fns
            .and_then(|m| m.get(key))
            .and_then(|e| e.get("count"))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0) as usize;
        if ha.count > base {
            let name = key.rsplit("::").next().unwrap_or(key);
            out.push(Finding {
                rule: "S6".to_string(),
                path: ha.path.clone(),
                line: ha.line,
                message: format!(
                    "`fn {name}` hot-path allocation count rose to {} (baseline {base}) — \
                     the S6 ratchet only goes down; hoist the allocation out of the hot \
                     region or regenerate the baseline with `--write-baseline` and justify \
                     the diff in review",
                    ha.count
                ),
            });
        }
    }
    Ok(out)
}

/// Grouping key for the per-crate semantic analysis: `crates/<name>`
/// for workspace paths, the parent directory otherwise.
fn crate_key(rel: &str) -> String {
    let norm = rel.replace('\\', "/");
    let comps: Vec<&str> = norm.split('/').collect();
    if comps.len() >= 2 && comps[0] == "crates" {
        return comps[..2].join("/");
    }
    match norm.rsplit_once('/') {
        Some((dir, _)) => dir.to_string(),
        None => String::new(),
    }
}

/// Path shown in findings: relative to the root when possible.
fn display_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Recursively collects `.rs` files. With `library_only`, skips vendored
/// shims, fixtures, tests/benches/examples directories, and binary
/// targets (`src/main.rs`, `src/bin/`), so the walk covers exactly the
/// workspace's non-test library sources.
fn collect_files(dir: &Path, library_only: bool, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str())
                || (library_only && NON_LIBRARY_DIRS.contains(&name.as_str()))
            {
                continue;
            }
            collect_files(&path, library_only, out)?;
        } else if name.ends_with(".rs") {
            if library_only && name == "main.rs" {
                continue;
            }
            out.push(path);
        }
    }
    Ok(())
}

/// Restricts a config to the comma-separated rule list (`"L1,L3"`).
///
/// # Errors
///
/// Returns the offending identifier when it is not a known rule.
pub fn parse_rule_filter(config: &mut RuleConfig, list: &str) -> Result<(), String> {
    let mut set = HashSet::new();
    for id in list.split(',') {
        let id = id.trim();
        if id.is_empty() {
            continue;
        }
        if !RULE_IDS.contains(&id) {
            return Err(format!(
                "unknown rule `{id}` (known: {})",
                RULE_IDS.join(", ")
            ));
        }
        set.insert(id.to_string());
    }
    config.enabled = Some(set);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_filter_validates_ids() {
        let mut cfg = RuleConfig::default();
        assert!(parse_rule_filter(&mut cfg, "L1,L4").is_ok());
        match &cfg.enabled {
            Some(set) => assert_eq!(set.len(), 2),
            None => unreachable!("filter must restrict the set"),
        }
        assert!(parse_rule_filter(&mut cfg, "L9").is_err());
    }

    #[test]
    fn display_path_is_root_relative() {
        let root = PathBuf::from("/ws");
        let file = PathBuf::from("/ws/crates/x/src/lib.rs");
        assert_eq!(display_path(&root, &file), "crates/x/src/lib.rs");
    }
}
