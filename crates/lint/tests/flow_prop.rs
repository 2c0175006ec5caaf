//! Tier-2 property tests: the interprocedural flow analysis is *total*.
//! Whatever facts token or byte soup yields, `FlowAnalysis::build`,
//! `findings`, `hot_alloc_counts`, `reachable` and `Tree::captures`
//! must terminate without panicking — and deterministically, since the
//! lint gate diffs their output across runs.
//!
//! The proptest shim seeds each test from its module path (see
//! `crates/shims/proptest`), so every run draws the same fixed cases.

use leime_lint::flow::FlowAnalysis;
use leime_lint::tree::{FileFacts, Tree};
use leime_lint::SemaConfig;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Token vocabulary skewed toward the constructs the flow engine
/// dispatches on: closures, shard-entry calls, interior-mutability,
/// allocating and blocking methods — plus enough bracket soup to leave
/// many of them unclosed.
const VOCAB: &[&str] = &[
    "fn",
    "pub",
    "let",
    "mut",
    "move",
    "if",
    "else",
    "for",
    "in",
    "while",
    "loop",
    "match",
    "return",
    "self",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "|",
    "||",
    "|i, x|",
    ";",
    ",",
    ".",
    "::",
    "=",
    "+=",
    "&",
    "&mut",
    "*",
    "par_map_shards",
    "run_rounds",
    "stream_seed",
    "seed_from_u64",
    "from_entropy",
    "thread_rng",
    "lock",
    "borrow_mut",
    "recv",
    "sleep",
    "push",
    "insert",
    "clone",
    "collect",
    "to_string",
    "format!",
    "vec!",
    "Box",
    "Vec",
    "with_capacity",
    "new",
    "x",
    "y",
    "items",
    "workers",
    "telemetry",
    "0",
    "42",
    "1_000u64",
    "\"str\"",
    "// line\n",
    "/*",
    "\n",
    // Attribute and item-modifier soup, float reductions and
    // `RwLock`-style acquisitions: constructs no rule reads, kept so
    // the pipeline stays total on them.
    "unsafe",
    "#[target_feature(enable = \"avx2,fma\")]",
    "// safety: soup\n",
    "fold",
    "sum",
    "product",
    "::<f64>",
    "0.0",
    "1.5f32",
    "f64",
    "*=",
    "read",
    "write",
    "extern",
    "\"C\"",
    "impl",
    "trait",
];

/// Printable-ASCII alphabet plus whitespace for the byte-soup cases.
const CHARS: &[u8] = b" \t\nabcfnle{}()[]<>;:,.#!?&|+-*/%='\"_0123456789";

/// A config whose markers match every path, so no stage short-circuits
/// on path scoping.
fn open_config() -> SemaConfig {
    let mut cfg = SemaConfig::default();
    cfg.hot_path_markers.push(String::new());
    cfg
}

/// Runs the whole flow pipeline over one source and returns a stable
/// rendering of everything it produced.
fn pipeline(src: &str) -> String {
    let cfg = open_config();
    let file = FileFacts::new("crates/soup/src/lib.rs", src, &cfg);
    let flow = FlowAnalysis::build([&file]);
    let findings = flow.findings(&cfg);
    let counts = flow.hot_alloc_counts(&cfg);
    let reach = flow.reachable(cfg.hot_root_fns.iter().map(String::as_str));
    format!("{findings:?}|{counts:?}|{reach:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flow_pipeline_is_total_on_token_soup(picks in prop::collection::vec(0usize..VOCAB.len(), 0..120)) {
        let src: String = picks
            .iter()
            .map(|&i| VOCAB[i])
            .collect::<Vec<_>>()
            .join(" ");
        let _ = pipeline(&src);
    }

    #[test]
    fn flow_pipeline_is_total_on_byte_soup(picks in prop::collection::vec(0usize..CHARS.len(), 0..200)) {
        let src: String = picks.iter().map(|&i| CHARS[i] as char).collect();
        let _ = pipeline(&src);
    }

    #[test]
    fn flow_pipeline_is_deterministic(picks in prop::collection::vec(0usize..VOCAB.len(), 0..80)) {
        let src: String = picks
            .iter()
            .map(|&i| VOCAB[i])
            .collect::<Vec<_>>()
            .join(" ");
        prop_assert_eq!(pipeline(&src), pipeline(&src));
    }

    #[test]
    fn closure_captures_is_total_on_parsed_soup(
        picks in prop::collection::vec(0usize..VOCAB.len(), 0..100),
        bound in prop::collection::vec(0usize..VOCAB.len(), 0..8),
    ) {
        // Run capture extraction on every closure the tree finds in
        // the soup, against an arbitrary enclosing binding set.
        let src: String = picks
            .iter()
            .map(|&i| VOCAB[i])
            .collect::<Vec<_>>()
            .join(" ");
        let enclosing: BTreeSet<String> =
            bound.iter().map(|&i| VOCAB[i].to_string()).collect();
        let tree = Tree::new(&src);
        for closure in tree.closures() {
            // Every reported capture must come from the enclosing
            // binding set, never thin air.
            for c in tree.captures(&closure, &enclosing) {
                prop_assert!(enclosing.contains(&c), "phantom capture {:?}", c);
            }
        }
    }
}
