//! The rule registry and rule S1.
//!
//! S1 — guarded solver fns must *transitively* reach an `invariant::`
//! call — runs here over the flow graph of one crate's files; the S6
//! ratchet reads the whole scan's graph ([`crate::flow`]). Both read the
//! facts of [`crate::tree`], which skips `#[cfg(test)]` / `#[test]`
//! items.
//!
//! Every finding fails the gate: there is no inline waiver, so a
//! `// lint:allow(…)` comment is an ordinary comment. The workspace's
//! only escapes are three `#[expect(clippy::…)]`s, which a workspace
//! test pins by site (DESIGN.md §15).

use crate::flow::FlowAnalysis;
use crate::tree::FileFacts;
use crate::{path_matches, Finding, SemaConfig};

/// All rule identifiers: S1 here, and S6 over [`crate::flow`]'s hot
/// set (driven by [`crate::run`]).
pub const RULE_IDS: &[&str] = &["S1", "S6"];

/// S1 over one crate's files: the flow graph spans all of them, and
/// every guarded fn defined in a guarded file must reach a direct
/// `invariant::` caller. Findings are sorted by path, line and rule.
pub fn analyze_crate(files: &[&FileFacts], cfg: &SemaConfig) -> Vec<Finding> {
    if !cfg.rule_on("S1") {
        return Vec::new();
    }
    let graph = FlowAnalysis::build(files.iter().copied());
    let mut out = Vec::new();
    for file in files {
        if !path_matches(&file.path, &cfg.guarded_path_markers) {
            continue;
        }
        for f in &file.fns {
            if cfg.guarded_fn_names.contains(&f.name) && !graph.reaches_guard(&f.name) {
                out.push(Finding {
                    rule: "S1".to_string(),
                    path: file.path.clone(),
                    line: f.line,
                    message: format!(
                        "`fn {}` never reaches an `invariant::` guard on any call path \
                         (Eq. 8 / Eq. 10–11 / Eq. 27)",
                        f.name
                    ),
                });
            }
        }
    }
    out.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_all_paths() -> SemaConfig {
        SemaConfig {
            guarded_path_markers: vec!["src".to_string()],
            ..SemaConfig::default()
        }
    }

    fn analyze(src: &str) -> Vec<Finding> {
        let cfg = cfg_all_paths();
        analyze_crate(&[&FileFacts::new("crates/x/src/lib.rs", src, &cfg)], &cfg)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn s1_accepts_delegated_guard_that_l5_would_reject() {
        let found = analyze(
            "pub fn decide(x: f64) -> f64 { clamp(x) }\n\
             fn clamp(x: f64) -> f64 { invariant::check_unit_interval(\"x\", x) }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn s1_flags_unreachable_guard() {
        let found =
            analyze("pub fn decide(x: f64) -> f64 { helper(x) }\nfn helper(x: f64) -> f64 { x }");
        assert_eq!(rules_of(&found), vec!["S1"]);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn s1_skips_trait_declarations_and_nonguarded_names() {
        let found = analyze("pub trait C { fn decide(&self) -> f64; }\nfn misc() {}");
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn s1_spans_files_within_the_crate() {
        let cfg = cfg_all_paths();
        let a = FileFacts::new(
            "crates/x/src/a.rs",
            "pub fn decide(x: f64) -> f64 { solver::balance(x) }",
            &cfg,
        );
        let b = FileFacts::new(
            "crates/x/src/b.rs",
            "pub fn balance(x: f64) -> f64 { invariant::check_unit_interval(\"x\", x) }",
            &cfg,
        );
        let found = analyze_crate(&[&a, &b], &cfg);
        assert!(found.is_empty(), "{found:?}");
    }

    /// Lints `src` at `path` under the default config.
    fn scan_at(path: &str, src: &str) -> Vec<Finding> {
        crate::scan_sources(
            &[(path.to_string(), src.to_string())],
            &SemaConfig::default(),
        )
    }

    #[test]
    fn l5_requires_guard_in_guarded_fn() {
        // The old L5's direct case, now S1's: a guarded solver in a
        // marked crate must call a guard.
        let bad = scan_at(
            "crates/offload/src/solver.rs",
            "pub fn balance_solve(x: f64) -> f64 { x * 0.5 }",
        );
        assert_eq!(rules_of(&bad), vec!["S1"]);
        let good = scan_at(
            "crates/offload/src/solver.rs",
            "pub fn balance_solve(x: f64) -> f64 { invariant::check_unit_interval(\"x\", x) }",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn l5_skips_trait_declarations_and_other_crates() {
        let decl = scan_at(
            "crates/offload/src/controller.rs",
            "pub trait C { fn decide(&self) -> f64; }",
        );
        assert!(decl.is_empty(), "{decl:?}");
        let elsewhere = scan_at(
            "crates/simnet/src/lib.rs",
            "pub fn decide(x: f64) -> f64 { x }",
        );
        assert!(elsewhere.is_empty(), "{elsewhere:?}");
    }

    #[test]
    fn lint_allow_comment_suppresses_nothing() {
        let found = scan_at(
            "crates/fleet/src/lib.rs",
            "// lint:allow(S1): checked by construction\npub fn decide(x: f64) -> f64 {\n    x\n}",
        );
        assert_eq!(rules_of(&found), vec!["S1"]);
        assert_eq!(found[0].line, 2);
    }
}
