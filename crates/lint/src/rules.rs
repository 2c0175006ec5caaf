//! The L1–L5 rule set, run over the token stream of one file.
//!
//! | Rule | Enforces |
//! | ---- | -------- |
//! | `L1` | no `unwrap()` / `expect()` / `panic!` / `unimplemented!` / `todo!` in non-test library code |
//! | `L2` | no NaN-unsafe `partial_cmp(..).unwrap()` / `.expect(..)` — use `total_cmp` |
//! | `L3` | no wall-clock `Instant::now` / `SystemTime::now` outside the telemetry crate |
//! | `L4` | no `==` / `!=` against float literals |
//! | `L5` | guarded solver/queue functions in `offload`/`exitcfg` must call `invariant::` |
//!
//! The semantic S1–S4 rules (implemented in `leime-sema`, orchestrated
//! by [`crate::run`]) share this module's waiver and finding machinery:
//! S1–S3 findings merge into the per-file scan before waivers apply,
//! S4 findings live in `Cargo.toml`s and are not waivable.
//!
//! Waivers: a comment `// lint:allow(<RULE>): <justification>` on the
//! offending line, or on the line directly above it, suppresses exactly
//! the named rule on that line. A waiver must name a known rule and carry
//! a non-empty justification; violations of either are reported as `W2` /
//! `W1` findings, and a waiver that suppresses nothing is reported as
//! `W3` (stale waiver).

use crate::lexer::{lex, test_mask, Tok, TokKind};
use serde::Serialize;
use std::collections::HashSet;

/// One rule violation (or waived violation). The type lives in
/// `leime-sema` so both analysis layers speak it; the waiver and report
/// machinery wrapping it lives here.
pub use leime_sema::Finding;

/// All primary rule identifiers: the token-level L-rules plus the
/// semantic S-rules from `leime-sema` (S5–S8 are the interprocedural
/// flow rules, S9 and S12 the float-reduction and lock-order rules).
pub const RULE_IDS: &[&str] = &[
    "L1", "L2", "L3", "L4", "L5", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S12",
];

/// A violation suppressed by an inline waiver.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct Waived {
    /// The suppressed finding.
    pub finding: Finding,
    /// The justification text from the waiver comment.
    pub justification: String,
}

/// Per-run rule configuration.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Rules to run; `None` runs all of them.
    pub enabled: Option<HashSet<String>>,
    /// Path substrings marking files subject to L5.
    pub guarded_path_markers: Vec<String>,
    /// Function names that must route through `invariant::` (L5).
    pub guarded_fn_names: Vec<String>,
    /// Path substrings exempt from L3 (the telemetry crate owns the
    /// wall clock).
    pub wallclock_exempt_markers: Vec<String>,
    /// Path substrings marking determinism-sensitive files (S2).
    pub hash_path_markers: Vec<String>,
    /// Path substrings marking unit-suffix-checked numeric files (S3).
    pub unit_path_markers: Vec<String>,
    /// Path substrings marking hot-path files for the S6 allocation
    /// ratchet.
    pub hot_path_markers: Vec<String>,
    /// Path substrings marking files whose RNG constructions S7 audits.
    pub rng_path_markers: Vec<String>,
    /// Function names allowed to hold float accumulations under S9
    /// (ordered-reduction helpers and approved bit-exact kernels).
    pub s9_approved_fns: Vec<String>,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
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
                // chaos + graceful-degradation entry points
                "compile",
                "link_health",
                "edge_health",
                "degraded_decide",
                "transfer",
                "submit",
                // parallel sweep entry point (finite-cost guard)
                "par_sweep",
                // serving admission + exit-steering entry points
                "admit",
                "steer_exits",
                // fleet regional-tier entry points (pressure balancing
                // and failover evacuation route through invariant::)
                "rebalance",
                "evacuate",
            ]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
            wallclock_exempt_markers: vec!["crates/telemetry/".to_string()],
            hash_path_markers: leime_sema::SemaConfig::default().hash_path_markers,
            unit_path_markers: leime_sema::SemaConfig::default().unit_path_markers,
            hot_path_markers: leime_sema::SemaConfig::default().hot_path_markers,
            rng_path_markers: leime_sema::SemaConfig::default().rng_path_markers,
            s9_approved_fns: leime_sema::SemaConfig::default().s9_approved_fns,
        }
    }
}

impl RuleConfig {
    fn rule_on(&self, id: &str) -> bool {
        match &self.enabled {
            None => true,
            Some(set) => set.contains(id),
        }
    }

    /// The `leime-sema` view of this configuration: same enabled set and
    /// guarded-function scoping, plus the S2/S3 and flow (S6/S7) path
    /// markers. Hot-region roots, `leime-par` entry points, and the S5
    /// telemetry exemption keep their `leime-sema` defaults.
    pub fn sema_config(&self) -> leime_sema::SemaConfig {
        leime_sema::SemaConfig {
            enabled: self
                .enabled
                .as_ref()
                .map(|set| set.iter().cloned().collect()),
            guarded_path_markers: self.guarded_path_markers.clone(),
            guarded_fn_names: self.guarded_fn_names.clone(),
            hash_path_markers: self.hash_path_markers.clone(),
            unit_path_markers: self.unit_path_markers.clone(),
            hot_path_markers: self.hot_path_markers.clone(),
            rng_path_markers: self.rng_path_markers.clone(),
            s9_approved_fns: self.s9_approved_fns.clone(),
            ..leime_sema::SemaConfig::default()
        }
    }
}

/// The outcome of scanning one file.
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

/// Scans one file's source text against the token-level rule set.
pub fn scan_source(path: &str, src: &str, cfg: &RuleConfig) -> FileScan {
    scan_source_with(path, src, cfg, Vec::new())
}

/// Like [`scan_source`], with externally-produced raw findings (the
/// semantic S1–S3 results for this file) merged in *before* waivers
/// apply, so one `// lint:allow(S2): …` machinery covers both layers.
pub fn scan_source_with(path: &str, src: &str, cfg: &RuleConfig, extra: Vec<Finding>) -> FileScan {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let mask = test_mask(toks);
    let mut raw: Vec<Finding> = Vec::new();

    // L2 first: its matches also contain an `unwrap`/`expect` token that
    // L1 must not double-report.
    let mut consumed_by_l2: HashSet<usize> = HashSet::new();
    if cfg.rule_on("L2") {
        scan_l2(path, toks, &mask, &mut raw, &mut consumed_by_l2);
    }
    if cfg.rule_on("L1") {
        scan_l1(path, toks, &mask, &consumed_by_l2, &mut raw);
    }
    if cfg.rule_on("L3") && !path_matches(path, &cfg.wallclock_exempt_markers) {
        scan_l3(path, toks, &mask, &mut raw);
    }
    if cfg.rule_on("L4") {
        scan_l4(path, toks, &mask, &mut raw);
    }
    if cfg.rule_on("L5") && path_matches(path, &cfg.guarded_path_markers) {
        scan_l5(path, toks, &mask, &cfg.guarded_fn_names, &mut raw);
    }
    raw.extend(extra);

    apply_waivers(path, &lexed.comments, raw)
}

fn path_matches(path: &str, markers: &[String]) -> bool {
    let norm = path.replace('\\', "/");
    markers.iter().any(|m| norm.contains(m.as_str()))
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// L1: panic-prone calls and macros in non-test code.
fn scan_l1(
    path: &str,
    toks: &[Tok],
    mask: &[bool],
    consumed_by_l2: &HashSet<usize>,
    out: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = toks.get(i + 1);
        match t.text.as_str() {
            "unwrap" | "expect" => {
                let is_method = i > 0 && is_punct(&toks[i - 1], ".");
                let is_call = next.is_some_and(|n| is_punct(n, "("));
                if is_method && is_call && !consumed_by_l2.contains(&i) {
                    out.push(Finding {
                        rule: "L1".to_string(),
                        path: path.to_string(),
                        line: t.line,
                        message: format!(
                            "`.{}()` in library code — return a typed error instead",
                            t.text
                        ),
                    });
                }
            }
            "panic" | "unimplemented" | "todo" if next.is_some_and(|n| is_punct(n, "!")) => {
                out.push(Finding {
                    rule: "L1".to_string(),
                    path: path.to_string(),
                    line: t.line,
                    message: format!(
                        "`{}!` in library code — return a typed error instead",
                        t.text
                    ),
                });
            }
            _ => {}
        }
    }
}

/// L2: `partial_cmp(..)` whose result is immediately unwrapped.
fn scan_l2(
    path: &str,
    toks: &[Tok],
    mask: &[bool],
    out: &mut Vec<Finding>,
    consumed: &mut HashSet<usize>,
) {
    for i in 0..toks.len() {
        if mask[i] || !is_ident(&toks[i], "partial_cmp") {
            continue;
        }
        let Some(open) = toks.get(i + 1).filter(|t| is_punct(t, "(")) else {
            continue;
        };
        let _ = open;
        // Find the matching close paren of the argument list.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut close = None;
        while j < toks.len() {
            if is_punct(&toks[j], "(") {
                depth += 1;
            } else if is_punct(&toks[j], ")") {
                depth -= 1;
                if depth == 0 {
                    close = Some(j);
                    break;
                }
            }
            j += 1;
        }
        let Some(close) = close else { continue };
        if toks.get(close + 1).is_some_and(|t| is_punct(t, "."))
            && toks
                .get(close + 2)
                .is_some_and(|t| is_ident(t, "unwrap") || is_ident(t, "expect"))
        {
            consumed.insert(close + 2);
            out.push(Finding {
                rule: "L2".to_string(),
                path: path.to_string(),
                line: toks[i].line,
                message: "NaN-unsafe `partial_cmp(..)` unwrap — use `total_cmp`".to_string(),
            });
        }
    }
}

/// L3: wall-clock reads outside the telemetry crate.
fn scan_l3(path: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let clock = match toks[i].text.as_str() {
            "Instant" | "SystemTime" if toks[i].kind == TokKind::Ident => &toks[i].text,
            _ => continue,
        };
        if toks.get(i + 1).is_some_and(|t| is_punct(t, "::"))
            && toks.get(i + 2).is_some_and(|t| is_ident(t, "now"))
        {
            out.push(Finding {
                rule: "L3".to_string(),
                path: path.to_string(),
                line: toks[i].line,
                message: format!(
                    "wall-clock `{clock}::now` breaks sim determinism — use a telemetry `Clock`"
                ),
            });
        }
    }
}

/// L4: `==` / `!=` against a float literal.
fn scan_l4(path: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Punct {
            continue;
        }
        let op = toks[i].text.as_str();
        if op != "==" && op != "!=" {
            continue;
        }
        let float_beside = (i > 0 && toks[i - 1].kind == TokKind::Float)
            || toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Float);
        if float_beside {
            out.push(Finding {
                rule: "L4".to_string(),
                path: path.to_string(),
                line: toks[i].line,
                message: format!(
                    "float `{op}` comparison — compare with a tolerance or restructure"
                ),
            });
        }
    }
}

/// L5: guarded functions must call into the `invariant` module.
fn scan_l5(path: &str, toks: &[Tok], mask: &[bool], guarded: &[String], out: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < toks.len() {
        if mask[i] || !is_ident(&toks[i], "fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        if !guarded.iter().any(|g| g == &name_tok.text) {
            i += 1;
            continue;
        }
        // Find the body: the first `{` before a top-level `;`.
        let mut j = i + 2;
        let mut body_start = None;
        while j < toks.len() {
            if is_punct(&toks[j], "{") {
                body_start = Some(j);
                break;
            }
            if is_punct(&toks[j], ";") {
                break; // trait method declaration, no body
            }
            j += 1;
        }
        let Some(start) = body_start else {
            i = j + 1;
            continue;
        };
        let mut depth = 0isize;
        let mut k = start;
        let mut guarded_call = false;
        while k < toks.len() {
            if is_punct(&toks[k], "{") {
                depth += 1;
            } else if is_punct(&toks[k], "}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if is_ident(&toks[k], "invariant")
                && toks.get(k + 1).is_some_and(|t| is_punct(t, "::"))
            {
                guarded_call = true;
            }
            k += 1;
        }
        if !guarded_call {
            out.push(Finding {
                rule: "L5".to_string(),
                path: path.to_string(),
                line: toks[i].line,
                message: format!(
                    "`fn {}` produces ratios/shares/queue state but never calls an \
                     `invariant::` guard (Eq. 8 / Eq. 10–11 / Eq. 27)",
                    name_tok.text
                ),
            });
        }
        i = k + 1;
    }
}

/// Parses waivers from comments and partitions raw findings into
/// violations and waived findings, appending waiver-hygiene problems.
fn apply_waivers(path: &str, comments: &[crate::lexer::Comment], raw: Vec<Finding>) -> FileScan {
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

    fn scan(src: &str) -> FileScan {
        scan_source("crates/x/src/lib.rs", src, &RuleConfig::default())
    }

    fn rules_of(scan: &FileScan) -> Vec<&str> {
        scan.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn l1_flags_unwrap_and_macros() {
        let s = scan("pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\nfn g() { panic!(\"x\") }");
        assert_eq!(rules_of(&s), vec!["L1", "L1"]);
        assert_eq!(s.findings[0].line, 1);
        assert_eq!(s.findings[1].line, 2);
    }

    #[test]
    fn l1_ignores_unwrap_or_variants() {
        let s =
            scan("pub fn f(o: Option<u32>) -> u32 { o.unwrap_or(3).max(o.unwrap_or_default()) }");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn l1_ignores_test_code() {
        let s = scan("#[cfg(test)]\nmod tests { fn t() { None::<u32>.unwrap(); } }");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn l2_subsumes_l1_on_same_site() {
        let s = scan("pub fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
        assert_eq!(rules_of(&s), vec!["L2"]);
    }

    #[test]
    fn l2_matches_across_lines() {
        let s = scan(
            "pub fn f(a: f64, b: f64) {\n    a.partial_cmp(&b)\n        .expect(\"finite\");\n}",
        );
        assert_eq!(rules_of(&s), vec!["L2"]);
        assert_eq!(s.findings[0].line, 2);
    }

    #[test]
    fn l2_allows_handled_partial_cmp() {
        let s = scan("pub fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn l3_flags_wall_clock() {
        let s = scan("pub fn f() { let t = std::time::Instant::now(); let _ = t; }");
        assert_eq!(rules_of(&s), vec!["L3"]);
    }

    #[test]
    fn l3_exempts_telemetry_paths() {
        let s = scan_source(
            "crates/telemetry/src/clock.rs",
            "pub fn f() { let _ = Instant::now(); }",
            &RuleConfig::default(),
        );
        assert!(s.findings.is_empty());
    }

    #[test]
    fn l4_flags_float_literal_eq() {
        let s = scan("pub fn f(x: f64) -> bool { x == 0.0 || 1.5 != x }");
        assert_eq!(rules_of(&s), vec!["L4", "L4"]);
    }

    #[test]
    fn l4_ignores_integer_eq() {
        let s = scan("pub fn f(x: u32) -> bool { x == 0 && x != 7 }");
        assert!(s.findings.is_empty());
    }

    #[test]
    fn l5_requires_guard_in_guarded_fn() {
        let cfg = RuleConfig::default();
        let bad = scan_source(
            "crates/offload/src/solver.rs",
            "pub fn balance_solve(x: f64) -> f64 { x * 0.5 }",
            &cfg,
        );
        assert_eq!(rules_of(&bad), vec!["L5"]);
        let good = scan_source(
            "crates/offload/src/solver.rs",
            "pub fn balance_solve(x: f64) -> f64 { invariant::check_unit_interval(\"x\", x) }",
            &cfg,
        );
        assert!(good.findings.is_empty());
    }

    #[test]
    fn l5_skips_trait_declarations_and_other_crates() {
        let cfg = RuleConfig::default();
        let decl = scan_source(
            "crates/offload/src/controller.rs",
            "pub trait C { fn decide(&self) -> f64; }",
            &cfg,
        );
        assert!(decl.findings.is_empty(), "{:?}", decl.findings);
        let elsewhere = scan_source(
            "crates/simnet/src/lib.rs",
            "pub fn step(x: f64) -> f64 { x }",
            &cfg,
        );
        assert!(elsewhere.findings.is_empty());
    }

    #[test]
    fn waiver_suppresses_named_rule_only() {
        let s = scan(
            "pub fn f(o: Option<u32>) -> u32 {\n    // lint:allow(L1): checked by construction\n    o.unwrap()\n}",
        );
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        assert_eq!(s.waived.len(), 1);
        assert_eq!(s.waived[0].finding.rule, "L1");
        assert_eq!(s.waived[0].justification, "checked by construction");
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress() {
        let s = scan(
            "pub fn f(o: Option<u32>) -> u32 {\n    // lint:allow(L3): wrong rule\n    o.unwrap()\n}",
        );
        let rules = rules_of(&s);
        assert!(rules.contains(&"L1"), "{rules:?}");
        assert!(
            rules.contains(&"W3"),
            "stale waiver must be flagged: {rules:?}"
        );
    }

    #[test]
    fn waiver_without_justification_is_flagged() {
        let s = scan("pub fn f(o: Option<u32>) -> u32 {\n    // lint:allow(L1)\n    o.unwrap()\n}");
        assert_eq!(rules_of(&s), vec!["W1"]);
        assert_eq!(s.waived.len(), 1);
    }

    #[test]
    fn unknown_rule_in_waiver_is_flagged() {
        let s = scan("// lint:allow(L9): no such rule\npub fn f() {}");
        assert_eq!(rules_of(&s), vec!["W2"]);
    }

    #[test]
    fn trailing_same_line_waiver_works() {
        let s =
            scan("pub fn f(o: Option<u32>) -> u32 { o.unwrap() } // lint:allow(L1): exercised\n");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        assert_eq!(s.waived.len(), 1);
    }
}
