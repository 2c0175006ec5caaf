//! Tier-2 property tests: the lint's token tree is *total*. Whatever
//! bytes or token soup come in — unbalanced brackets, unclosed strings
//! and comments, keyword salad — `FileFacts::new` must terminate without
//! panicking, and must do so deterministically (same input, same
//! facts). And no construct may hide a later item: after any
//! delimiter-balanced soup, a top-level `fn marker() {}` is still found.
//!
//! The proptest shim seeds each test from its module path (see
//! `crates/shims/proptest`), so every run draws the same fixed cases.

use leime_lint::tree::{FileFacts, Tree};
use leime_lint::SemaConfig;
use proptest::prelude::*;

/// Token vocabulary skewed toward the constructs the tree reads, and
/// toward those a parser could misread — a `<` comparison in a match
/// guard or a closure, `>>` closing nested generics, `as` casts —
/// including deliberately unclosed string/comment openers.
const VOCAB: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "impl",
    "trait",
    "mod",
    "use",
    "let",
    "if",
    "else",
    "while",
    "for",
    "in",
    "match",
    "loop",
    "move",
    "return",
    "break",
    "continue",
    "as",
    "pub",
    "const",
    "static",
    "unsafe",
    "where",
    "dyn",
    "macro_rules",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "<",
    ">",
    "::",
    ":",
    ";",
    ",",
    ".",
    "..",
    "..=",
    "->",
    "=>",
    "=",
    "==",
    "!=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "&&",
    "|",
    "||",
    "^",
    "!",
    "?",
    "#",
    "@",
    "'a",
    "'static",
    "x",
    "y",
    "foo",
    "HashMap",
    "self",
    "Self",
    "invariant",
    "check",
    "0",
    "1.5",
    "0xff",
    "1_000u64",
    "\"str\"",
    "'c'",
    "b'x'",
    "b\"bytes\"",
    "r#\"raw\"#",
    "r#match",
    "\n",
    "// line\n",
    "/* block */",
    "y if y < 1.0 =>",
    "Vec<Vec<u8>>",
    "|a| a < b",
    "x as f64",
    "/*",
    "\"",
];

/// The vocabulary entries that open a string or comment they never
/// close, which would swallow everything after them.
const UNCLOSED: &[&str] = &["/*", "\""];

/// Printable-ASCII alphabet plus whitespace for the byte-soup cases.
const CHARS: &[u8] = b" \t\nabcfnle{}()[]<>;:,.#!?&|+-*/%='\"_0123456789";

/// Lints `src` as one library file.
fn facts(src: &str) -> FileFacts {
    FileFacts::new("crates/soup/src/lib.rs", src, &SemaConfig::default())
}

/// Joins the picked vocabulary entries into a source string.
fn soup(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| VOCAB[i])
        .collect::<Vec<_>>()
        .join(" ")
}

/// The picked entries with every delimiter balanced: a closer that does
/// not match the innermost open group is dropped, and the groups still
/// open at the end are closed.
fn balanced_soup(picks: &[usize]) -> String {
    let mut out: Vec<&str> = Vec::new();
    let mut open: Vec<&str> = Vec::new();
    for &i in picks {
        let tok = VOCAB[i];
        if UNCLOSED.contains(&tok) {
            continue;
        }
        match tok {
            "(" => open.push(")"),
            "[" => open.push("]"),
            "{" => open.push("}"),
            ")" | "]" | "}" => {
                if open.last() != Some(&tok) {
                    continue;
                }
                open.pop();
            }
            _ => {}
        }
        out.push(tok);
    }
    out.extend(open.iter().rev());
    out.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_is_total_on_token_soup(picks in prop::collection::vec(0usize..VOCAB.len(), 0..120)) {
        let src = soup(&picks);
        let file = facts(&src);
        // Termination and no-panic are the property; the fn count
        // bound just checks the result is sane, not attacker-sized.
        prop_assert!(file.fns.len() <= src.len() + 1);
    }

    #[test]
    fn parser_is_total_on_byte_soup(picks in prop::collection::vec(0usize..CHARS.len(), 0..200)) {
        let src: String = picks.iter().map(|&i| CHARS[i] as char).collect();
        let _ = facts(&src);
    }

    #[test]
    fn parser_is_deterministic(picks in prop::collection::vec(0usize..VOCAB.len(), 0..80)) {
        let src = soup(&picks);
        let a = format!("{:?}", facts(&src));
        let b = format!("{:?}", facts(&src));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn top_level_fn_survives_balanced_soup(picks in prop::collection::vec(0usize..VOCAB.len(), 0..120)) {
        // The bug class a recursive-descent front end had: one misread
        // construct skipped to the wrong closer and dropped every later
        // fn in the file. A matched tree confines any misreading to its
        // own group.
        let src = format!("{}\nfn marker() {{}}", balanced_soup(&picks));
        let tree = Tree::new(&src);
        prop_assert!(tree.fns.iter().any(|f| f.name == "marker"), "lost `fn marker` after:\n{}", src);
    }
}
