//! Tier-2 property tests: the lint parser is *total*. Whatever bytes or
//! token soup come in — unbalanced brackets, unclosed strings and
//! comments, keyword salad — `parse_source` must terminate without
//! panicking, and must do so deterministically (same input, same AST).
//!
//! The proptest shim seeds each test from its module path (see
//! `crates/shims/proptest`), so every run draws the same fixed cases.

use leime_lint::parser::parse_source;
use proptest::prelude::*;

/// Token vocabulary skewed toward the constructs the parser dispatches
/// on, including deliberately unclosed string/comment openers.
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
    "/*",
    "\"",
];

/// Printable-ASCII alphabet plus whitespace for the byte-soup cases.
const CHARS: &[u8] = b" \t\nabcfnle{}()[]<>;:,.#!?&|+-*/%='\"_0123456789";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_is_total_on_token_soup(picks in prop::collection::vec(0usize..VOCAB.len(), 0..120)) {
        let src: String = picks
            .iter()
            .map(|&i| VOCAB[i])
            .collect::<Vec<_>>()
            .join(" ");
        let file = parse_source(&src);
        // Termination and no-panic are the property; the item count
        // bound just checks the result is sane, not attacker-sized.
        prop_assert!(file.items.len() <= src.len() + 1);
    }

    #[test]
    fn parser_is_total_on_byte_soup(picks in prop::collection::vec(0usize..CHARS.len(), 0..200)) {
        let src: String = picks.iter().map(|&i| CHARS[i] as char).collect();
        let _ = parse_source(&src);
    }

    #[test]
    fn parser_is_deterministic(picks in prop::collection::vec(0usize..VOCAB.len(), 0..80)) {
        let src: String = picks
            .iter()
            .map(|&i| VOCAB[i])
            .collect::<Vec<_>>()
            .join(" ");
        let a = format!("{:?}", parse_source(&src));
        let b = format!("{:?}", parse_source(&src));
        prop_assert_eq!(a, b);
    }
}
