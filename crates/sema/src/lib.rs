//! # leime-sema
//!
//! Semantic analysis for the LEIME workspace, layered over the
//! token-level scanner that `leime-lint` ships: a recursive-descent
//! [`parser`] over the shared [`lexer`], a simplified [`ast`], per-file
//! [`symbols`], an intra-crate [`callgraph`], the workspace crate
//! [`layering`] DAG, and the S1–S4 [`rules`] built on top of them.
//!
//! LEIME's guarantees are semantic, not textual: the Theorem-1 exit
//! search and the Eq. 16–20 per-slot controller must reach `invariant::`
//! guards through *every* call path (S1), byte-identical replay dies
//! the moment a solver or report path iterates a `HashMap` (S2), slot
//! arithmetic silently corrupts when seconds meet milliseconds (S3),
//! and the crate DAG keeps the whole thing auditable (S4).
//!
//! This crate is pure analysis — no product dependencies (layer 1,
//! below `leime-lint`, which re-exports it and owns waivers, reports
//! and the CLI). `leime-lint` merges S1–S3 findings into its per-file
//! waiver machinery; S4 findings live in manifests and are not
//! waivable.

pub mod ast;
pub mod callgraph;
pub mod flow;
pub mod layering;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;

pub use flow::analyze_workspace;
pub use layering::check_layering;
pub use rules::analyze_crate;

use serde::Serialize;
use std::collections::BTreeSet;

/// The semantic rule identifiers.
pub const SEMA_RULE_IDS: &[&str] = &["S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S12"];

/// One rule violation. This is the finding type for the whole lint
/// stack: `leime-lint` re-exports it and wraps it in waiver/report
/// machinery.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`L1`–`L5`, `S1`–`S8`, or `W1`–`W3`).
    pub rule: String,
    /// Path of the offending file, relative to the scan root.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Configuration for the semantic rules.
#[derive(Debug, Clone)]
pub struct SemaConfig {
    /// Rules to run; `None` runs all of them.
    pub enabled: Option<BTreeSet<String>>,
    /// Path substrings marking files subject to S1.
    pub guarded_path_markers: Vec<String>,
    /// Function names that must transitively reach `invariant::` (S1).
    pub guarded_fn_names: Vec<String>,
    /// Path substrings marking determinism-sensitive files (S2): solver,
    /// schedule, report and serialization paths.
    pub hash_path_markers: Vec<String>,
    /// Path substrings marking unit-suffix-checked numeric files (S3).
    pub unit_path_markers: Vec<String>,
    /// Path substrings marking hot-path files for the S6 allocation
    /// ratchet (counts compare against the pinned baseline only here).
    pub hot_path_markers: Vec<String>,
    /// Path substrings marking files whose RNG constructions S7 audits.
    pub rng_path_markers: Vec<String>,
    /// Hot-region roots: fn names whose transitive callees form the S6
    /// hot set (`SlottedSystem::run*`, `ServingSystem::run`, sweeps, …).
    pub hot_root_fns: Vec<String>,
    /// `leime-par` entry points as `(fn name, worker-closure arg
    /// index)` — the closure at that argument is a shard body (S5/S8).
    pub par_entry_args: Vec<(String, usize)>,
    /// Captured-name substrings exempt from S5's interior-mutability
    /// branch (the sanctioned driver-drained telemetry sinks).
    pub s5_exempt_names: Vec<String>,
    /// Function names allowed to hold float accumulations under S9:
    /// the ordered-reduction helpers and the approved bit-exact
    /// kernels. Everything else reachable from a byte-identical
    /// contract root must route its float reductions through one of
    /// these.
    pub s9_approved_fns: Vec<String>,
}

impl Default for SemaConfig {
    fn default() -> Self {
        SemaConfig {
            enabled: None,
            guarded_path_markers: vec![
                "crates/offload/src".to_string(),
                "crates/exitcfg/src".to_string(),
                "crates/chaos/src".to_string(),
                "crates/serving/src".to_string(),
                "crates/fleet/src".to_string(),
            ],
            guarded_fn_names: [
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
                "compile",
                "link_health",
                "edge_health",
                "degraded_decide",
                "transfer",
                "submit",
                "par_sweep",
                "admit",
                "steer_exits",
                "rebalance",
                "evacuate",
            ]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
            hash_path_markers: vec![
                "crates/offload/src".to_string(),
                "crates/exitcfg/src".to_string(),
                "crates/chaos/src".to_string(),
                "crates/telemetry/src".to_string(),
                "crates/simnet/src".to_string(),
                "crates/core/src".to_string(),
                "crates/par/src".to_string(),
                "crates/serving/src".to_string(),
                "crates/fleet/src".to_string(),
            ],
            unit_path_markers: vec![
                "crates/exitcfg/src".to_string(),
                "crates/offload/src".to_string(),
                "crates/simnet/src".to_string(),
            ],
            hot_path_markers: vec![
                "crates/core/src".to_string(),
                "crates/par/src".to_string(),
                "crates/serving/src".to_string(),
                "crates/exitcfg/src".to_string(),
                "crates/fleet/src".to_string(),
            ],
            rng_path_markers: vec![
                "crates/par/src".to_string(),
                "crates/core/src".to_string(),
                "crates/serving/src".to_string(),
                "crates/fleet/src".to_string(),
            ],
            hot_root_fns: [
                "run",
                "run_with_workers",
                "run_with_workers_epochs",
                "run_live",
                "run_live_with_registry",
                "run_slotted",
                "run_slotted_workers",
                "run_slotted_with_registry",
                "run_des",
                "run_des_with_registry",
                "par_sweep",
                "seq_sweep",
            ]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
            par_entry_args: vec![
                ("par_map_shards".to_string(), 2),
                ("run_rounds".to_string(), 3),
            ],
            s5_exempt_names: vec!["telemetry".to_string()],
            s9_approved_fns: [
                // ordered-reduction helpers (leime-par)
                "concat_shards",
                "merge_btree_maps",
                // reviewed order-pinned sequential reductions (DESIGN.md
                // §15 ledger): single-threaded source-order loops whose
                // result never crosses a shard boundary unreduced.
                "run",
                "avg_env",
                "flops_prefix",
                "check_simplex",
                "validate",
                "softmax_rows",
                "norm",
                "poisson_draw",
                // fleet regional tier (leime-fleet): sequential
                // BTreeMap-ordered pressure/backlog sums at interval
                // boundaries, never crossing a shard boundary.
                "edge_pressures",
                "rebalance",
                "evacuate",
            ]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_gate_respects_enabled_set() {
        let mut cfg = SemaConfig::default();
        assert!(cfg.rule_on("S1") && cfg.rule_on("S4"));
        cfg.enabled = Some(["S2".to_string()].into_iter().collect());
        assert!(cfg.rule_on("S2"));
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
            "crates/telemetry/src/registry.rs",
            &cfg.hash_path_markers
        ));
        assert!(path_matches(
            "crates/simnet/src/link.rs",
            &cfg.unit_path_markers
        ));
        assert!(!path_matches(
            "crates/tensor/src/shape.rs",
            &cfg.hash_path_markers
        ));
    }
}
