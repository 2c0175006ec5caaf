//! Report rendering: human-readable text and the `leime-lint/4` JSON
//! schema (same versioned-schema idiom as `leime-telemetry/1`).
//!
//! `leime-lint/2` extended `/1` with the semantic S1–S4 rules and a
//! `rule_set` field naming the rule universe the schema covers;
//! `leime-lint/3` extended the rule universe with the interprocedural
//! flow rules S5–S8 (shard-capture races, the hot-path allocation
//! ratchet, RNG-stream hygiene, shard-body blocking); `leime-lint/4`
//! extends it again with the numeric-determinism rules S9 and S12
//! (hot-path float reductions, shard lock-order cycles). All `/2`-era
//! fields are unchanged, so older consumers keep working; only
//! `rule_set` and the possible `rule` values change.

use crate::rules::{Finding, Waived, RULE_IDS};
use serde::Serialize;

/// Version tag written into every JSON report.
pub const SCHEMA_VERSION: &str = "leime-lint/4";

/// Per-rule violation count.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct RuleCount {
    /// Rule identifier.
    pub rule: String,
    /// Number of unwaived violations.
    pub count: usize,
}

/// The aggregated result of one lint run.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Schema tag (`leime-lint/4`).
    pub schema: String,
    /// The rule identifiers this schema covers (L1–L5, S1–S9, S12).
    pub rule_set: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Unwaived violations, sorted by path, line, rule.
    pub violations: Vec<Finding>,
    /// Waived violations with justifications.
    pub waived: Vec<Waived>,
    /// Waivers actually used.
    pub waivers_used: usize,
    /// Maximum allowed waivers.
    pub waiver_budget: usize,
    /// Per-rule violation counts (only rules with hits).
    pub summary: Vec<RuleCount>,
}

impl Report {
    /// Builds a report from the merged per-file results.
    pub fn new(
        files_scanned: usize,
        mut violations: Vec<Finding>,
        waived: Vec<Waived>,
        waiver_budget: usize,
    ) -> Self {
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
            waivers_used: waived.len(),
            waiver_budget,
            violations,
            waived,
            summary,
        }
    }

    /// Whether the run passes: no violations and the waiver budget holds.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.waivers_used <= self.waiver_budget
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
        for w in &self.waived {
            out.push_str(&format!(
                "{}:{}: waived [{}] — {}\n",
                w.finding.path, w.finding.line, w.finding.rule, w.justification
            ));
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
            "leime-lint: {} violation(s) ({summary}), {} waived (budget {}/{}), {} file(s) scanned\n",
            self.violations.len(),
            self.waived.len(),
            self.waivers_used,
            self.waiver_budget,
            self.files_scanned,
        ));
        if self.waivers_used > self.waiver_budget {
            out.push_str(&format!(
                "leime-lint: waiver budget exceeded ({} > {})\n",
                self.waivers_used, self.waiver_budget
            ));
        }
        out
    }

    /// Renders the `leime-lint/4` JSON report.
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
                finding("L2", "b.rs", 9),
                finding("L1", "a.rs", 4),
                finding("L1", "a.rs", 2),
            ],
            vec![],
            5,
        );
        assert_eq!(r.violations[0].line, 2);
        assert_eq!(r.summary.len(), 2);
        assert_eq!((r.summary[0].rule.as_str(), r.summary[0].count), ("L1", 2));
        assert!(!r.is_clean());
    }

    #[test]
    fn clean_report() {
        let r = Report::new(10, vec![], vec![], 5);
        assert!(r.is_clean());
        assert!(r.render_text().contains("0 violation(s)"));
    }

    #[test]
    fn budget_overflow_fails() {
        let w = Waived {
            finding: finding("L1", "a.rs", 1),
            justification: "j".to_string(),
        };
        let r = Report::new(1, vec![], vec![w.clone(), w], 1);
        assert!(!r.is_clean());
        assert!(r.render_text().contains("budget exceeded"));
    }

    #[test]
    fn json_has_schema_and_findings() {
        let r = Report::new(2, vec![finding("L3", "c.rs", 7)], vec![], 5);
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
        assert_eq!(first["rule"].as_str(), Some("L3"));
        assert_eq!(first["line"].as_u64(), Some(7));
    }
}
