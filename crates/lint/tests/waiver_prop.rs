//! Property test: a `lint:allow(<rule>)` waiver suppresses exactly the
//! named rule — never a violation of a different rule on the same line.

use leime_lint::{scan_sources, SemaConfig, RULE_IDS};
use proptest::prelude::*;

/// The rules [`seeded_source`] can violate.
const SEEDED: &[&str] = &["S1", "S7"];

/// A source snippet violating exactly one rule, with the waiver comment
/// placed on the line directly above the violating line.
///
/// Returns `(source, violation_line)`.
fn seeded_source(violated: &str, waived: &str) -> (String, u32) {
    let allow = format!("// lint:allow({waived}): generated case");
    match violated {
        "S1" => (
            // S1 anchors on the `fn` line, so the waiver sits above it.
            format!("{allow}\npub fn balance_solve(x: f64) -> f64 {{\n    x.min(1.0)\n}}\n"),
            2,
        ),
        "S7" => (
            format!("pub fn rng() -> StdRng {{\n    {allow}\n    StdRng::seed_from_u64(42)\n}}\n"),
            3,
        ),
        other => unreachable!("unknown rule {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For every (violated, waived) rule pair, the violation is
    /// suppressed iff the waiver names exactly the violated rule; a
    /// mismatched waiver leaves the violation standing and is itself
    /// flagged as stale (W3).
    #[test]
    fn waiver_never_suppresses_a_different_rule(
        violated_ix in 0usize..SEEDED.len(),
        waived_ix in 0usize..RULE_IDS.len(),
    ) {
        let violated = SEEDED[violated_ix];
        let waived = RULE_IDS[waived_ix];
        let (src, line) = seeded_source(violated, waived);
        // The default config S1-guards and S7-audits fleet sources.
        let path = "crates/fleet/src/system.rs".to_string();
        let scan = scan_sources(&[(path, src)], &SemaConfig::default());

        if violated == waived {
            prop_assert!(
                scan.findings.is_empty(),
                "matching waiver must suppress {violated}: {:?}",
                scan.findings
            );
            prop_assert_eq!(scan.waived.len(), 1);
            prop_assert_eq!(scan.waived[0].finding.rule.as_str(), violated);
            prop_assert_eq!(scan.waived[0].finding.line, line);
        } else {
            prop_assert!(
                scan.waived.is_empty(),
                "waiver for {} must not absorb a {} violation: {:?}",
                waived, violated, scan.waived
            );
            let rules: Vec<&str> = scan.findings.iter().map(|f| f.rule.as_str()).collect();
            prop_assert!(
                rules.contains(&violated),
                "{violated} must survive a {waived} waiver: {rules:?}"
            );
            prop_assert!(
                rules.contains(&"W3"),
                "mismatched waiver must be reported stale: {rules:?}"
            );
        }
    }
}
