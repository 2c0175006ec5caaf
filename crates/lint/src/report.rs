//! Report rendering: human-readable text and the `leime-lint/5` JSON
//! schema (same versioned-schema idiom as `leime-telemetry/1`).
//!
//! `leime-lint/2` extended `/1` with semantic rules and a `rule_set`
//! field naming the rule universe the schema covers; `/3` and `/4`
//! extended that universe with the flow rules. Rules that moved to
//! clippy, the compiler or a test, or were retired (L1–L5, S2–S5, S8),
//! simply left `rule_set`. `/5` is `/4` without the waiver fields (`waived`,
//! `waivers_used`, `waiver_budget`): every finding is a violation.

use crate::rules::RULE_IDS;
use crate::Finding;
use serde::Serialize;

/// Version tag written into every JSON report.
pub const SCHEMA_VERSION: &str = "leime-lint/5";

/// Per-rule violation count.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct RuleCount {
    /// Rule identifier.
    pub rule: String,
    /// Number of violations.
    pub count: usize,
}

/// The aggregated result of one lint run.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Schema tag (`leime-lint/5`).
    pub schema: String,
    /// The rule identifiers this run covers ([`RULE_IDS`]).
    pub rule_set: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Violations, sorted by path, line, rule.
    pub violations: Vec<Finding>,
    /// Per-rule violation counts (only rules with hits).
    pub summary: Vec<RuleCount>,
}

impl Report {
    /// Builds a report from the merged per-file results.
    pub fn new(files_scanned: usize, mut violations: Vec<Finding>) -> Self {
        violations.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
        let mut summary: Vec<RuleCount> = Vec::new();
        for f in &violations {
            match summary.iter_mut().find(|c| c.rule == f.rule) {
                Some(c) => c.count += 1,
                None => summary.push(RuleCount {
                    rule: f.rule.clone(),
                    count: 1,
                }),
            }
        }
        summary.sort_by(|a, b| a.rule.cmp(&b.rule));
        Report {
            schema: SCHEMA_VERSION.to_string(),
            rule_set: RULE_IDS.iter().map(|r| (*r).to_string()).collect(),
            files_scanned,
            violations,
            summary,
        }
    }

    /// Whether the run passes: no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.violations {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.path, f.line, f.rule, f.message
            ));
        }
        if !self.violations.is_empty() {
            out.push('\n');
        }
        let summary = if self.summary.is_empty() {
            "none".to_string()
        } else {
            self.summary
                .iter()
                .map(|c| format!("{}: {}", c.rule, c.count))
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.push_str(&format!(
            "leime-lint: {} violation(s) ({summary}), {} file(s) scanned\n",
            self.violations.len(),
            self.files_scanned,
        ));
        out
    }

    /// Renders the `leime-lint/5` JSON report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| format!("{{\"schema\":\"{SCHEMA_VERSION}\",\"error\":\"{e:?}\"}}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, path: &str, line: u32) -> Finding {
        Finding {
            rule: rule.to_string(),
            path: path.to_string(),
            line,
            message: "m".to_string(),
        }
    }

    #[test]
    fn summary_counts_and_sorts() {
        let r = Report::new(
            3,
            vec![
                finding("S7", "b.rs", 9),
                finding("S1", "a.rs", 4),
                finding("S1", "a.rs", 2),
            ],
        );
        assert_eq!(r.violations[0].line, 2);
        assert_eq!(r.summary.len(), 2);
        assert_eq!((r.summary[0].rule.as_str(), r.summary[0].count), ("S1", 2));
        assert!(!r.is_clean());
    }

    #[test]
    fn clean_report() {
        let r = Report::new(10, vec![]);
        assert!(r.is_clean());
        assert!(r.render_text().contains("0 violation(s)"));
    }

    #[test]
    fn json_has_schema_and_findings() {
        let r = Report::new(2, vec![finding("S6", "c.rs", 7)]);
        let json = r.to_json();
        let v: serde_json::Value = match serde_json::from_str(&json) {
            Ok(v) => v,
            Err(e) => unreachable!("report JSON must parse: {e:?}"),
        };
        assert_eq!(v["schema"].as_str(), Some(SCHEMA_VERSION));
        let first = match v["violations"].as_array() {
            Some(list) => &list[0],
            None => unreachable!("violations must be an array"),
        };
        assert_eq!(first["rule"].as_str(), Some("S6"));
        assert_eq!(first["line"].as_u64(), Some(7));
    }
}
