//! Token-level scanner for Rust sources.
//!
//! The offline build environment has no `syn`, so the [`crate::tree`]
//! works on a lexical token stream, lexed once per file, instead of
//! `rustc`'s own syntax tree. The scanner understands exactly as much of
//! Rust's lexical grammar as its consumer needs: line and nested block
//! comments (skipped), string/char/lifetime disambiguation, raw and byte
//! strings, byte-char literals (`b'x'`), raw identifiers (`r#fn`),
//! identifiers, numeric literals with float detection, and multi-char
//! operators — each token tagged with the 1-based source line it
//! *starts* on.

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal (including hex/octal/binary).
    Int,
    /// Float literal (contains `.`, an exponent, or an `f32`/`f64` suffix).
    Float,
    /// Operator or delimiter, possibly multi-char (`==`, `::`, `->`, …).
    Punct,
    /// Lifetime such as `'a`.
    Lifetime,
    /// String, raw-string, byte-string or char literal (content dropped).
    Str,
}

/// One token with its source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Lexical class.
    pub kind: TokKind,
    /// Token text (empty for [`TokKind::Str`]).
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

/// Multi-char operators, matched greedily (longest first).
const OPERATORS: &[&str] = &[
    "..=", "<<=", ">>=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=",
    "/=", "%=", "^=", "&=", "|=", "..", "<<", ">>",
];

/// Lexes `src` into its tokens, in source order.
pub fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = chars.len();

    let at = |i: usize| -> char {
        if i < n {
            chars[i]
        } else {
            '\0'
        }
    };

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && at(i + 1) == '/' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && at(i + 1) == '*' {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if chars[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if chars[j] == '/' && at(j + 1) == '*' {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && at(j + 1) == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
            continue;
        }
        // Identifier / keyword, or a raw/byte string or byte-char prefix.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            let mut j = i;
            while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            let ident: String = chars[start..j].iter().collect();
            let nc = at(j);
            let is_str_prefix = matches!(ident.as_str(), "r" | "b" | "br" | "rb");
            if is_str_prefix && (nc == '"' || nc == '#') {
                let raw = ident != "b"; // plain `b"…"` keeps escape processing
                let start_line = line;
                if let Some(end) = consume_string(&chars, j, raw, &mut line) {
                    out.push(Tok {
                        kind: TokKind::Str,
                        text: String::new(),
                        line: start_line,
                    });
                    i = end;
                    continue;
                }
            }
            // Raw identifier `r#fn`: one token, keyword meaning stripped.
            if ident == "r" && nc == '#' && (at(j + 1).is_alphabetic() || at(j + 1) == '_') {
                let mut k = j + 1;
                while k < n && (chars[k].is_alphanumeric() || chars[k] == '_') {
                    k += 1;
                }
                out.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[j + 1..k].iter().collect(),
                    line,
                });
                i = k;
                continue;
            }
            // Byte-char literal `b'x'` / `b'\n'`: defer to the `'` branch
            // below instead of emitting a phantom `b` identifier.
            if ident == "b" && nc == '\'' {
                i = j;
                continue;
            }
            out.push(Tok {
                kind: TokKind::Ident,
                text: ident,
                line,
            });
            i = j;
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let (tok, j) = lex_number(&chars, i, line);
            out.push(tok);
            i = j;
            continue;
        }
        // String literal.
        if c == '"' {
            let start_line = line;
            if let Some(end) = consume_string(&chars, i, false, &mut line) {
                out.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line: start_line,
                });
                i = end;
                continue;
            }
            i += 1;
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            let nc = at(i + 1);
            if nc.is_alphabetic() || nc == '_' {
                let mut j = i + 1;
                while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                if at(j) == '\'' {
                    // 'a' — a char literal.
                    out.push(Tok {
                        kind: TokKind::Str,
                        text: String::new(),
                        line,
                    });
                    i = j + 1;
                } else {
                    // 'a — a lifetime.
                    out.push(Tok {
                        kind: TokKind::Lifetime,
                        text: chars[i + 1..j].iter().collect(),
                        line,
                    });
                    i = j;
                }
                continue;
            }
            // '\n', '(', … — a char literal with optional escape.
            let mut j = i + 1;
            if at(j) == '\\' {
                j += 2;
                // Skip over \u{…} and multi-char escapes until the quote.
                while j < n && chars[j] != '\'' {
                    j += 1;
                }
            } else if j < n {
                j += 1;
            }
            if at(j) == '\'' {
                j += 1;
            }
            out.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line,
            });
            i = j;
            continue;
        }
        // Multi-char operator.
        let mut matched = false;
        for op in OPERATORS {
            let oc: Vec<char> = op.chars().collect();
            if i + oc.len() <= n && chars[i..i + oc.len()] == oc[..] {
                out.push(Tok {
                    kind: TokKind::Punct,
                    text: (*op).to_string(),
                    line,
                });
                i += oc.len();
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }
        // Single-char punct.
        out.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Consumes a string literal starting at `i` (at the opening `"` or at the
/// `#` of a raw string). Returns the index one past the closing delimiter,
/// or `None` if the prefix does not actually open a string.
fn consume_string(chars: &[char], i: usize, raw: bool, line: &mut u32) -> Option<usize> {
    let n = chars.len();
    let mut j = i;
    let mut hashes = 0usize;
    while j < n && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || chars[j] != '"' {
        return None;
    }
    j += 1;
    while j < n {
        let c = chars[j];
        if c == '\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if !raw && c == '\\' {
            j += 2;
            continue;
        }
        if c == '"' {
            // A raw string needs `hashes` trailing '#'s to close.
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && k < n && chars[k] == '#' {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
            j += 1;
            continue;
        }
        j += 1;
    }
    Some(n)
}

/// Lexes a numeric literal starting at digit `i`.
fn lex_number(chars: &[char], i: usize, line: u32) -> (Tok, usize) {
    let n = chars.len();
    let at = |i: usize| -> char {
        if i < n {
            chars[i]
        } else {
            '\0'
        }
    };
    let start = i;
    let mut j = i;
    let mut float = false;
    if chars[i] == '0' && matches!(at(i + 1), 'x' | 'o' | 'b') {
        j += 2;
        while j < n && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        return (
            Tok {
                kind: TokKind::Int,
                text: chars[start..j].iter().collect(),
                line,
            },
            j,
        );
    }
    while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
        j += 1;
    }
    // Fractional part: `1.0`, or trailing `1.` when not a range/method.
    if at(j) == '.' {
        let after = at(j + 1);
        if after.is_ascii_digit() {
            float = true;
            j += 1;
            while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        } else if after != '.' && !after.is_alphabetic() && after != '_' {
            float = true;
            j += 1;
        }
    }
    // Exponent.
    if matches!(at(j), 'e' | 'E') {
        let (a, b) = (at(j + 1), at(j + 2));
        if a.is_ascii_digit() || ((a == '+' || a == '-') && b.is_ascii_digit()) {
            float = true;
            j += 1;
            if matches!(at(j), '+' | '-') {
                j += 1;
            }
            while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        }
    }
    // Type suffix: `1.0f64`, `10u32`.
    if at(j).is_alphabetic() {
        let suffix_start = j;
        while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        let suffix: String = chars[suffix_start..j].iter().collect();
        if suffix == "f32" || suffix == "f64" {
            float = true;
        }
    }
    (
        Tok {
            kind: if float { TokKind::Float } else { TokKind::Int },
            text: chars[start..j].iter().collect(),
            line,
        },
        j,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_numbers_and_operators() {
        let toks = lex("let x: f64 = 1.5e3; x == 0.0");
        let kinds: Vec<TokKind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            toks.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            vec!["let", "x", ":", "f64", "=", "1.5e3", ";", "x", "==", "0.0"]
        );
        assert_eq!(kinds[5], TokKind::Float);
        assert_eq!(kinds[8], TokKind::Punct);
        assert_eq!(kinds[9], TokKind::Float);
    }

    #[test]
    fn strings_hide_their_content() {
        let t = texts(r#"let s = "panic!(unwrap())"; t"#);
        assert!(!t.contains(&"panic".to_string()));
        assert!(!t.contains(&"unwrap".to_string()));
        assert!(t.contains(&"t".to_string()));
    }

    #[test]
    fn raw_strings_do_not_process_escapes() {
        let t = texts(r##"let s = r"a\"; after"##);
        assert!(t.contains(&"after".to_string()));
        let t2 = texts(r###"let s = r#"quote " inside"#; tail"###);
        assert!(t2.contains(&"tail".to_string()));
    }

    #[test]
    fn raw_string_token_keeps_its_start_line() {
        let src = "a\nlet s = r#\"first\nsecond\nthird\"#;\nb";
        let lexed = lex(src);
        let s_tok = lexed
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("raw string token");
        assert_eq!(
            s_tok.line, 2,
            "string tokens are stamped with their start line"
        );
        let b_tok = lexed.iter().find(|t| t.text == "b").expect("b");
        assert_eq!(b_tok.line, 5, "line counting resumes after the string body");
    }

    #[test]
    fn raw_string_hash_contents_stay_hidden() {
        // `r#"…"#` with quotes, hashes and comment markers inside.
        let t = texts("let s = r##\"quote \"# almost // not a comment\"##; tail");
        assert!(t.contains(&"tail".to_string()));
        assert!(!t.contains(&"almost".to_string()));
        assert!(!t.contains(&"not".to_string()));
        assert_eq!(
            texts("let s = r##\"x\"##; t"),
            ["let", "s", "=", "", ";", "t"]
        );
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let t = texts("before /* outer /* inner */ still outer */ after");
        assert_eq!(t, vec!["before", "after"]);
        // Line counting across a multi-line nested comment.
        let toks = lex("/* a\n/* b\n*/\n*/\ntail");
        assert_eq!(toks.len(), 1);
        assert_eq!((toks[0].text.as_str(), toks[0].line), ("tail", 5));
    }

    #[test]
    fn byte_char_literals_do_not_leak_a_b_ident() {
        let lexed = lex("let x = b'a'; let nl = b'\\n'; tail");
        let idents: Vec<&str> = lexed
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["let", "x", "let", "nl", "tail"]);
        let strs = lexed.iter().filter(|t| t.kind == TokKind::Str).count();
        assert_eq!(strs, 2, "b'a' and b'\\n' each lex as one literal");
    }

    #[test]
    fn byte_strings_lex_as_one_literal() {
        let t = texts("let s = b\"bytes\"; let r = br#\"raw bytes\"#; tail");
        assert!(t.contains(&"tail".to_string()));
        assert!(!t.contains(&"bytes".to_string()));
    }

    #[test]
    fn raw_identifiers_lex_as_plain_idents() {
        let lexed = lex("let r#fn = 1; r#type + r#fn");
        let idents: Vec<&str> = lexed
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["let", "fn", "type", "fn"]);
        // No stray `#` puncts left behind.
        assert!(!lexed.iter().any(|t| t.text == "#"));
    }

    #[test]
    fn lifetimes_versus_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes: Vec<&Tok> = lexed
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let strs = lexed.iter().filter(|t| t.kind == TokKind::Str).count();
        assert_eq!(strs, 2); // 'x' and '\n'
    }

    #[test]
    fn static_lifetime_and_anonymous_lifetime() {
        let lexed = lex("fn f(x: &'static str, y: &'_ u8) {}");
        let lifetimes: Vec<&str> = lexed
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["static", "_"]);
    }

    #[test]
    fn escaped_quote_char_literal() {
        let lexed = lex(r"let q = '\''; let bs = '\\'; tail");
        let strs = lexed.iter().filter(|t| t.kind == TokKind::Str).count();
        assert_eq!(strs, 2);
        assert!(lexed.iter().any(|t| t.text == "tail"));
    }

    #[test]
    fn float_versus_int_detection() {
        let lexed = lex("1 1.0 1. 1e9 0x1f 10u32 2.5f32 3f64");
        let kinds: Vec<TokKind> = lexed.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::Int,
                TokKind::Float,
                TokKind::Float,
                TokKind::Float,
                TokKind::Int,
                TokKind::Int,
                TokKind::Float,
                TokKind::Float
            ]
        );
    }

    #[test]
    fn tuple_access_is_not_a_float() {
        let t = lex("x.0 .max(1)");
        assert_eq!(t[2].kind, TokKind::Int);
    }

    #[test]
    fn multiline_tracking() {
        let lexed = lex("a\nb\n  c");
        let lines: Vec<u32> = lexed.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }
}
