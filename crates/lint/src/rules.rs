//! The rule registry, rule S1, and the waiver machinery every rule's
//! findings pass through.
//!
//! S1 — guarded solver fns must *transitively* reach an `invariant::`
//! call — runs here over the flow graph of one crate's files; the flow
//! rules S5, S6 and S8 live in [`crate::flow`]. Both read the facts of
//! [`crate::tree`], which skips `#[cfg(test)]` / `#[test]` items.
//!
//! Waivers: a comment `// lint:allow(<RULE>): <justification>` on the
//! offending line, or on the line directly above it, suppresses exactly
//! the named rule on that line. A waiver must name a known rule and carry
//! a non-empty justification; violations of either are reported as `W2` /
//! `W1` findings, and a waiver that suppresses nothing is reported as
//! `W3` (stale waiver).

use crate::flow::FlowAnalysis;
use crate::lexer::Comment;
use crate::tree::FileFacts;
use crate::{path_matches, Finding, SemaConfig};
use serde::Serialize;
use std::collections::BTreeMap;

/// All primary rule identifiers: S1 here, S5, S6 and S8 in
/// [`crate::flow`] (S6 is driven by [`crate::run`]).
pub const RULE_IDS: &[&str] = &["S1", "S5", "S6", "S8"];

/// A violation suppressed by an inline waiver.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct Waived {
    /// The suppressed finding.
    pub finding: Finding,
    /// The justification text from the waiver comment.
    pub justification: String,
}

/// Findings after waivers: what stands and what was waived.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Unwaived violations.
    pub findings: Vec<Finding>,
    /// Waived violations with their justifications.
    pub waived: Vec<Waived>,
}

/// A parsed `lint:allow` waiver.
#[derive(Debug)]
struct Waiver {
    line: u32,
    rules: Vec<String>,
    justification: String,
    used: bool,
}

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

/// Applies each source file's waivers to the raw findings for that
/// file, appending waiver-hygiene problems (W1–W3).
pub fn apply_waivers(files: &[FileFacts], raw: Vec<Finding>) -> FileScan {
    let mut by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in raw {
        by_file.entry(f.path.clone()).or_default().push(f);
    }
    let mut scan = FileScan::default();
    for file in files {
        let raw = by_file.remove(&file.path).unwrap_or_default();
        let file = waive_file(&file.path, &file.comments, raw);
        scan.findings.extend(file.findings);
        scan.waived.extend(file.waived);
    }
    scan.findings.extend(by_file.into_values().flatten());
    scan
}

/// Parses one file's waivers from its comments and partitions its raw
/// findings into violations and waived findings.
fn waive_file(path: &str, comments: &[Comment], raw: Vec<Finding>) -> FileScan {
    let mut waivers: Vec<Waiver> = Vec::new();
    for c in comments {
        // A waiver must BE the comment, not merely be mentioned in one
        // (doc text may legitimately describe the syntax).
        let trimmed = c.text.trim_start();
        if !trimmed.starts_with("lint:allow(") {
            continue;
        }
        let rest = &trimmed["lint:allow(".len()..];
        let Some(end) = rest.find(')') else { continue };
        let rules: Vec<String> = rest[..end]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let justification = rest[end + 1..]
            .trim_start_matches([':', ' ', '-', '—'])
            .trim()
            .to_string();
        waivers.push(Waiver {
            line: c.line,
            rules,
            justification,
            used: false,
        });
    }

    let mut scan = FileScan::default();

    for w in &waivers {
        for r in &w.rules {
            if !RULE_IDS.contains(&r.as_str()) {
                scan.findings.push(Finding {
                    rule: "W2".to_string(),
                    path: path.to_string(),
                    line: w.line,
                    message: format!("waiver names unknown rule `{r}`"),
                });
            }
        }
    }

    for f in raw {
        let waiver = waivers
            .iter_mut()
            .find(|w| (w.line == f.line || w.line + 1 == f.line) && w.rules.contains(&f.rule));
        match waiver {
            Some(w) => {
                w.used = true;
                if w.justification.is_empty() {
                    scan.findings.push(Finding {
                        rule: "W1".to_string(),
                        path: path.to_string(),
                        line: w.line,
                        message: format!("waiver for {} has no justification", f.rule),
                    });
                }
                scan.waived.push(Waived {
                    justification: w.justification.clone(),
                    finding: f,
                });
            }
            None => scan.findings.push(f),
        }
    }

    for w in &waivers {
        let all_known = w.rules.iter().all(|r| RULE_IDS.contains(&r.as_str()));
        if !w.used && all_known {
            scan.findings.push(Finding {
                rule: "W3".to_string(),
                path: path.to_string(),
                line: w.line,
                message: format!(
                    "stale waiver: lint:allow({}) suppresses nothing",
                    w.rules.join(",")
                ),
            });
        }
    }

    scan.findings
        .sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    scan
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

    /// Lints `src` as a fleet source: S1-guarded under the default
    /// config.
    fn scan(src: &str) -> FileScan {
        crate::scan_sources(
            &[("crates/fleet/src/lib.rs".to_string(), src.to_string())],
            &SemaConfig::default(),
        )
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
    fn scan_at(path: &str, src: &str) -> FileScan {
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
        assert_eq!(rules_of(&bad.findings), vec!["S1"]);
        let good = scan_at(
            "crates/offload/src/solver.rs",
            "pub fn balance_solve(x: f64) -> f64 { invariant::check_unit_interval(\"x\", x) }",
        );
        assert!(good.findings.is_empty(), "{:?}", good.findings);
    }

    #[test]
    fn l5_skips_trait_declarations_and_other_crates() {
        let decl = scan_at(
            "crates/offload/src/controller.rs",
            "pub trait C { fn decide(&self) -> f64; }",
        );
        assert!(decl.findings.is_empty(), "{:?}", decl.findings);
        let elsewhere = scan_at(
            "crates/simnet/src/lib.rs",
            "pub fn decide(x: f64) -> f64 { x }",
        );
        assert!(elsewhere.findings.is_empty(), "{:?}", elsewhere.findings);
    }

    #[test]
    fn waiver_suppresses_named_rule_only() {
        let s = scan(
            "// lint:allow(S1): checked by construction\npub fn decide(x: f64) -> f64 {\n    x\n}",
        );
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        assert_eq!(s.waived.len(), 1);
        assert_eq!(s.waived[0].finding.rule, "S1");
        assert_eq!(s.waived[0].justification, "checked by construction");
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress() {
        let s = scan("// lint:allow(S5): wrong rule\npub fn decide(x: f64) -> f64 {\n    x\n}");
        let rules = rules_of(&s.findings);
        assert!(rules.contains(&"S1"), "{rules:?}");
        assert!(
            rules.contains(&"W3"),
            "stale waiver must be flagged: {rules:?}"
        );
    }

    #[test]
    fn waiver_without_justification_is_flagged() {
        let s = scan("// lint:allow(S1)\npub fn decide(x: f64) -> f64 {\n    x\n}");
        assert_eq!(rules_of(&s.findings), vec!["W1"]);
        assert_eq!(s.waived.len(), 1);
    }

    #[test]
    fn unknown_rule_in_waiver_is_flagged() {
        // L1 moved to clippy, so a leftover L1 waiver names no rule.
        let s = scan("// lint:allow(L1): no such rule\npub fn f() {}");
        assert_eq!(rules_of(&s.findings), vec!["W2"]);
    }

    #[test]
    fn trailing_same_line_waiver_works() {
        let s = scan("pub fn decide(x: f64) -> f64 { x } // lint:allow(S1): exercised\n");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        assert_eq!(s.waived.len(), 1);
    }
}
