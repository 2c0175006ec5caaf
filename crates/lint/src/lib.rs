//! # leime-lint
//!
//! Offline, dependency-light static analysis for the LEIME workspace:
//! the rules that guard the byte-identical output contract (DESIGN.md
//! §11) and that no off-the-shelf tool provides. Whatever the compiler,
//! clippy or cargo already enforces lives there instead (DESIGN.md §8):
//! panics, float equality, wall-clock reads and hash containers are
//! `[workspace.lints.clippy]` entries, and the crate layering is a
//! `cargo metadata` test over the pure check in [`layering`].
//!
//! The offline build has no `syn`, so the crate carries its own
//! [`lexer`] and a token [`tree`] over it — matched delimiters, the
//! `fn` items and the per-fn facts the rules read — plus one
//! name-keyed [`flow`] graph over those facts. The rules built on them:
//!
//! | Rule | Enforces | Earns its keep by |
//! | ---- | -------- | ----------------- |
//! | `S1` | guarded solver fns transitively reach an `invariant::` guard (Eq. 8 / Eq. 10–11 / Eq. 27) | `fixtures/s1.rs`: a solver that delegates to an unguarded helper, which a per-fn check misses |
//! | `S5` | no interior mutability (`lock`, `borrow_mut`, atomics, channels) of a capture inside a `leime-par` shard body | `fixtures/s5.rs`: a `Mutex` captured by a shard body compiles, since `Mutex` is `Sync` |
//! | `S6` | hot-path allocation counts only go down against a pinned baseline | `fixtures/s6.rs`: a hot root and its callee each gain an allocation no type or clippy lint sees |
//! | `S8` | no blocking call inside, or reachable from, a shard worker body | the whole-edge-per-worker fleet prototype drew 7 findings (nested `run_rounds` waits, telemetry locks); `fixtures/s8.rs` |
//!
//! Neighbouring properties need no rule here: a plain mutable capture in
//! a shard body does not compile (the bodies are `Fn + Sync`); `rand` is
//! only a dev-dependency of `leime`, `leime-serving` and `leime-fleet`,
//! so their library code seeds RNGs through `leime_par::stream_rng`
//! alone (a `cargo metadata` test over [`layering::rand_violations`]);
//! clippy bans `RwLock`, so every lock a shard body can reach is an S8
//! finding; and float reduction order is pinned by the byte-identity
//! walls (DESIGN.md §15).
//!
//! Findings pass through the inline `// lint:allow(<rule>): <why>`
//! waivers of [`rules`] and come out as a [`Report`] under the
//! `leime-lint/4` schema. The binary (`cargo run -p leime-lint --
//! --deny-all`) is the CI gate; the library is exercised directly by the
//! tier-2 integration tests.

pub mod flow;
pub mod layering;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod tree;

pub use report::{Report, RuleCount, SCHEMA_VERSION};
pub use rules::{FileScan, Waived, RULE_IDS};

use flow::{FlowAnalysis, HotAlloc};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use tree::FileFacts;

/// The waiver budget: at most this many justified `lint:allow` escapes
/// across the workspace, shared with its `#[expect(clippy::…)]`s.
pub const WAIVER_BUDGET: usize = 2;

/// One rule violation.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (one of [`RULE_IDS`], or `W1`–`W3`).
    pub rule: String,
    /// Path of the offending file, relative to the scan root.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Which rules run, and where.
#[derive(Debug, Clone)]
pub struct SemaConfig {
    /// Rules to run; `None` runs all of them.
    pub enabled: Option<BTreeSet<String>>,
    /// Path substrings marking files subject to S1.
    pub guarded_path_markers: Vec<String>,
    /// Function names that must transitively reach `invariant::` (S1).
    pub guarded_fn_names: Vec<String>,
    /// Path substrings marking hot-path files for the S6 allocation
    /// ratchet (counts compare against the pinned baseline only here).
    pub hot_path_markers: Vec<String>,
    /// Hot-region roots: fn names whose transitive callees form the S6
    /// hot set (`SlottedSystem::run*` and `ServingSystem::run`, both of
    /// which reach the shared `run_slot_loop`).
    pub hot_root_fns: Vec<String>,
    /// `leime-par` entry points as `(fn name, worker-closure arg
    /// index)` — the closure at that argument is a shard body (S5/S8).
    pub par_entry_args: Vec<(String, usize)>,
}

fn strings(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| (*s).to_string()).collect()
}

impl Default for SemaConfig {
    fn default() -> Self {
        SemaConfig {
            enabled: None,
            guarded_path_markers: strings(&[
                "crates/offload/src",
                "crates/exitcfg/src",
                "crates/chaos/src",
                "crates/serving/src",
                "crates/fleet/src",
            ]),
            guarded_fn_names: strings(&[
                "kkt_allocation",
                "kkt_allocation_with_floor",
                "step",
                "balance_solve",
                "exact_solve",
                "feasible_interval",
                "decide",
                "branch_and_bound",
                "exhaustive",
                "multi_tier_exits",
                // chaos + graceful-degradation entry points (`health`:
                // composition over lane cursors)
                "compile",
                "link_health",
                "edge_health",
                "health",
                "degraded_decide",
                // serving admission + exit-steering entry points
                "admit",
                "steer_exits",
                // fleet regional-tier entry points (pressure balancing
                // and failover evacuation route through invariant::)
                "rebalance",
                "evacuate",
            ]),
            hot_path_markers: strings(&[
                "crates/chaos/src",
                "crates/core/src",
                "crates/par/src",
                "crates/serving/src",
                "crates/exitcfg/src",
                "crates/fleet/src",
            ]),
            hot_root_fns: strings(&[
                "run",
                "run_with_workers",
                "run_with_workers_epochs",
                "run_slotted",
                "run_slotted_workers",
                "run_slotted_with_registry",
            ]),
            par_entry_args: vec![
                ("run_rounds".to_string(), 3),
                // A slot-loop stage's per-device step runs on the
                // workers of the loop's own `run_rounds` call.
                ("run_slot_loop".to_string(), 4),
            ],
        }
    }
}

impl SemaConfig {
    /// Whether rule `id` is enabled under this config.
    pub fn rule_on(&self, id: &str) -> bool {
        match &self.enabled {
            None => true,
            Some(set) => set.contains(id),
        }
    }
}

/// Whether `path` (normalized to `/` separators) contains any marker.
pub fn path_matches(path: &str, markers: &[String]) -> bool {
    let norm = path.replace('\\', "/");
    markers.iter().any(|m| norm.contains(m.as_str()))
}

/// Options for one lint run.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// Workspace root; paths in findings are reported relative to it.
    pub root: PathBuf,
    /// Explicit files/directories to scan instead of the default
    /// workspace library-source walk.
    pub paths: Vec<PathBuf>,
    /// Rule configuration (scoping, guarded functions, enabled set).
    pub config: SemaConfig,
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
            config: SemaConfig::default(),
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
pub const S6_BASELINE_SCHEMA: &str = "leime-lint-hot-alloc/2";

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
/// source file, or an unreadable or unwritable S6 baseline).
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

    let cfg = &opts.config;
    let mut facts: Vec<FileFacts> = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        facts.push(FileFacts::new(&display_path(&opts.root, file), &src, cfg));
    }

    let flow = FlowAnalysis::build(&facts);
    let mut raw = semantic_findings(&facts, &flow, cfg);

    // S6 allocation ratchet: hot-path counts against the pinned
    // baseline. Explicit-path scans skip it unless a baseline was
    // passed in (a partial scan would see a partial hot set and report
    // nonsense diffs).
    let baseline_path = opts.s6_baseline.clone().or_else(|| {
        opts.paths
            .is_empty()
            .then(|| opts.root.join(S6_BASELINE_PATH))
    });
    if cfg.rule_on("S6") {
        if let Some(bp) = baseline_path {
            let counts = flow.hot_alloc_counts(cfg);
            if opts.write_s6_baseline {
                write_s6_baseline(&bp, &counts)?;
            } else if bp.is_file() {
                raw.extend(check_s6(&bp, &counts)?);
            }
        }
    }

    let scan = rules::apply_waivers(&facts, raw);
    Ok(Report::new(files.len(), scan.findings, scan.waived))
}

/// Lints in-memory `(path, source)` pairs with every enabled rule except
/// the S6 ratchet, which needs a baseline file ([`run`] adds it), and
/// applies each file's waivers.
pub fn scan_sources(sources: &[(String, String)], cfg: &SemaConfig) -> FileScan {
    let facts: Vec<FileFacts> = sources
        .iter()
        .map(|(path, src)| FileFacts::new(path, src, cfg))
        .collect();
    let flow = FlowAnalysis::build(&facts);
    rules::apply_waivers(&facts, semantic_findings(&facts, &flow, cfg))
}

/// S1 over each crate's files (its graphs are whole-crate), then the
/// flow rules over the whole file set (flow edges cross crates).
fn semantic_findings(facts: &[FileFacts], flow: &FlowAnalysis, cfg: &SemaConfig) -> Vec<Finding> {
    let mut groups: BTreeMap<String, Vec<&FileFacts>> = BTreeMap::new();
    for file in facts {
        groups.entry(crate_key(&file.path)).or_default().push(file);
    }
    let mut out = Vec::new();
    for group in groups.values() {
        out.extend(rules::analyze_crate(group, cfg));
    }
    out.extend(flow.findings(cfg));
    out
}

/// Writes the S6 baseline file from this run's hot-allocation counts:
/// one `{"count": n}` per `path::fn` key, sorted, and no line numbers,
/// so edits that only move a function leave the file alone.
fn write_s6_baseline(path: &Path, counts: &BTreeMap<String, HotAlloc>) -> Result<(), String> {
    let mut fns = serde_json::Map::new();
    for (key, ha) in counts {
        fns.insert(key.clone(), serde_json::json!({ "count": ha.count }));
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
/// baseline, exactly: a function whose count rose (functions missing
/// from the baseline count as 0) yields an S6 finding at its definition
/// line, and so does a baseline entry left stale — its count above the
/// measured one, or its fn no longer measured at all (reported at line 0
/// of the key's file) — since unclaimed slack could be re-spent without
/// a finding.
fn check_s6(path: &Path, counts: &BTreeMap<String, HotAlloc>) -> Result<Vec<Finding>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc: serde_json::Value = serde_json::from_str(&text)
        .map_err(|e| format!("malformed S6 baseline {}: {e}", path.display()))?;
    let empty = serde_json::Map::new();
    let fns = doc.get("fns").and_then(|v| v.as_object()).unwrap_or(&empty);
    let finding = |path: &str, line: u32, message: String| Finding {
        rule: "S6".to_string(),
        path: path.to_string(),
        line,
        message,
    };
    let mut out = Vec::new();
    for (key, ha) in counts {
        let name = key.rsplit("::").next().unwrap_or(key);
        let base = fns
            .get(key)
            .and_then(|e| e.get("count"))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0) as usize;
        if ha.count > base {
            out.push(finding(
                &ha.path,
                ha.line,
                format!(
                    "`fn {name}` hot-path allocation count rose to {} (baseline {base}) — \
                     the S6 ratchet only goes down; hoist the allocation out of the hot \
                     region or regenerate the baseline with `--write-baseline` and justify \
                     the diff in review",
                    ha.count
                ),
            ));
        } else if ha.count < base {
            out.push(finding(
                &ha.path,
                ha.line,
                format!(
                    "`fn {name}` hot-path allocation count fell to {} (baseline {base}) — \
                     regenerate the baseline with `--write-baseline` so the slack cannot \
                     be re-spent",
                    ha.count
                ),
            ));
        }
    }
    for (key, _) in fns.iter().filter(|(key, _)| !counts.contains_key(*key)) {
        let (file, name) = key.rsplit_once("::").unwrap_or(("", key));
        out.push(finding(
            file,
            0,
            format!(
                "baseline entry for `fn {name}` matches no hot-path fn (gone, or no longer \
                 hot) — regenerate the baseline with `--write-baseline`"
            ),
        ));
    }
    Ok(out)
}

/// Grouping key for the per-crate S1 analysis: `crates/<name>` for
/// workspace paths, the parent directory otherwise.
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

/// Restricts a config to the comma-separated rule list (`"S1,S8"`).
///
/// # Errors
///
/// Returns the offending identifier when it is not a known rule.
pub fn parse_rule_filter(config: &mut SemaConfig, list: &str) -> Result<(), String> {
    let mut set = BTreeSet::new();
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
        let mut cfg = SemaConfig::default();
        assert!(parse_rule_filter(&mut cfg, "S1,S8").is_ok());
        match &cfg.enabled {
            Some(set) => assert_eq!(set.len(), 2),
            None => unreachable!("filter must restrict the set"),
        }
        // L1 moved to clippy and S7 to a cargo dependency fact: neither
        // is a leime-lint rule any more.
        assert!(parse_rule_filter(&mut cfg, "L1").is_err());
        assert!(parse_rule_filter(&mut cfg, "S7").is_err());
    }

    #[test]
    fn rule_gate_respects_enabled_set() {
        let mut cfg = SemaConfig::default();
        assert!(cfg.rule_on("S1") && cfg.rule_on("S8"));
        cfg.enabled = Some(["S5".to_string()].into_iter().collect());
        assert!(cfg.rule_on("S5"));
        assert!(!cfg.rule_on("S1"));
    }

    #[test]
    fn default_markers_cover_the_guarded_crates() {
        let cfg = SemaConfig::default();
        assert!(path_matches(
            "crates/offload/src/solver.rs",
            &cfg.guarded_path_markers
        ));
        assert!(path_matches(
            "crates/serving/src/system.rs",
            &cfg.guarded_path_markers
        ));
        assert!(path_matches(
            "crates/fleet/src/system.rs",
            &cfg.hot_path_markers
        ));
        assert!(!path_matches(
            "crates/tensor/src/shape.rs",
            &cfg.guarded_path_markers
        ));
    }

    #[test]
    fn display_path_is_root_relative() {
        let root = PathBuf::from("/ws");
        let file = PathBuf::from("/ws/crates/x/src/lib.rs");
        assert_eq!(display_path(&root, &file), "crates/x/src/lib.rs");
    }
}
