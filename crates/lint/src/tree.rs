//! The token tree every rule reads: one [`lex`] per file, `()[]{}`
//! matched into a partner index, the `fn` items found over it, and the
//! per-fn facts — calls, allocation sites, direct guards and the calls
//! of `leime-par` shard bodies.
//!
//! Nothing here is a Rust parser. Every fact is a token pattern read
//! inside one matched group: `name(` and `name::<T>(` calls,
//! `.method(` calls, `name!(` macros, `let`/`for`/closure bindings and
//! the `{` that opens a loop body. Two properties follow from the
//! matching alone. The walk is *total*: an unmatched opener closes at
//! EOF, a stray closer is ignored, and every loop moves forward. And a
//! construct the patterns misread cannot leak past its group, so it can
//! never hide a later `fn` in the same file.
//!
//! A `fn`, `impl`, `mod` or `trait` nested inside a body is its own
//! span: its tokens belong to no enclosing fn's facts, and its fns are
//! nodes of their own. Anything under an attribute that mentions `test`
//! (`#[test]`, `#[cfg(test)]`) is skipped whole.

use crate::lexer::{lex, Tok, TokKind};
use crate::SemaConfig;
use std::collections::BTreeSet;

/// Keywords that never name a call, a binding or a receiver.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where", "while",
];

/// Item modifiers an attribute's `test` mark carries across.
const MODIFIERS: &[&str] = &["pub", "unsafe", "async", "extern", "const"];

/// Container types whose `with_capacity` allocates.
const ALLOC_CONTAINERS: &[&str] = &["Vec", "String", "VecDeque", "BTreeMap", "BTreeSet", "Box"];

/// Always-allocating method calls, counted in method-call form
/// (`v.clone()`) and in path form (`Vec::clone(&v)`).
const ALLOC_METHODS: &[&str] = &["clone", "to_string", "to_vec", "to_owned", "collect"];

/// Reference-counted pointers: their path-form `clone` (`Arc::clone(&a)`)
/// bumps a count and allocates nothing.
const REFCOUNT_TYPES: &[&str] = &["Arc", "Rc"];

/// A half-open token range `lo..hi`.
type Range = (usize, usize);

/// One `fn` definition with a body.
#[derive(Debug)]
pub struct FnNode {
    /// The fn's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Tokens inside the parameter parentheses.
    params: Range,
    /// Tokens inside the body braces.
    body: Range,
}

/// One lexed file with its delimiters matched and its `fn`s found.
#[derive(Debug)]
pub struct Tree {
    toks: Vec<Tok>,
    /// An opener's closer (`toks.len()` when unclosed), a matched
    /// closer's opener, and every other token's own index.
    partner: Vec<usize>,
    /// Spans no enclosing fn's facts read, in source order: every
    /// `fn`/`impl`/`mod`/`trait` item and every attribute.
    skipped: Vec<Range>,
    /// The non-test fns with bodies, in source pre-order.
    pub fns: Vec<FnNode>,
}

impl Tree {
    /// Lexes `src` once and builds its tree.
    pub fn new(src: &str) -> Self {
        let toks = lex(src);
        let mut partner: Vec<usize> = (0..toks.len()).collect();
        let mut open: Vec<usize> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Punct {
                continue;
            }
            match t.text.as_str() {
                "(" | "[" | "{" => {
                    partner[i] = toks.len();
                    open.push(i);
                }
                ")" | "]" | "}" => {
                    let want = match t.text.as_str() {
                        ")" => "(",
                        "]" => "[",
                        _ => "{",
                    };
                    if let Some(&o) = open.last().filter(|&&o| toks[o].text == want) {
                        open.pop();
                        partner[o] = i;
                        partner[i] = o;
                    }
                }
                _ => {}
            }
        }
        let mut tree = Tree {
            toks,
            partner,
            skipped: Vec::new(),
            fns: Vec::new(),
        };
        let (mut skipped, mut fns) = (Vec::new(), Vec::new());
        tree.scan(0, tree.toks.len(), &mut skipped, &mut fns);
        tree.skipped = skipped;
        tree.fns = fns;
        tree
    }

    // ----- token predicates ----------------------------------------------

    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn punct(&self, i: usize, s: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    }

    fn ident(&self, i: usize) -> Option<&str> {
        self.toks
            .get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    }

    fn is_open(&self, i: usize) -> bool {
        ["(", "[", "{"].iter().any(|s| self.punct(i, s))
    }

    fn is_close(&self, i: usize) -> bool {
        [")", "]", "}"].iter().any(|s| self.punct(i, s))
    }

    /// The index just past the group opened at `i` (or past token `i`).
    fn after(&self, i: usize) -> usize {
        if self.is_open(i) {
            self.partner[i] + 1
        } else {
            i + 1
        }
    }

    /// Whether `fn name` starts at `i`.
    fn fn_def(&self, i: usize) -> bool {
        self.ident(i) == Some("fn") && self.ident(i + 1).is_some_and(|n| !KEYWORDS.contains(&n))
    }

    /// Whether token `i` can end an expression, so that a `|` after it
    /// is a binary operator rather than a closure's opening bar.
    fn ends_expr(&self, i: usize) -> bool {
        match self.toks.get(i) {
            None => false,
            Some(t) => match t.kind {
                TokKind::Ident => !KEYWORDS.contains(&t.text.as_str()),
                TokKind::Int | TokKind::Float | TokKind::Str => true,
                TokKind::Lifetime => false,
                TokKind::Punct => matches!(t.text.as_str(), ")" | "]" | "}" | "?"),
            },
        }
    }

    /// `i`, or the token after it when `i` is the keyword `word`.
    fn past(&self, i: usize, word: &str) -> usize {
        i + usize::from(self.ident(i) == Some(word))
    }

    /// The first sibling from `i` on that is one of `stops`, a closer or
    /// `hi`.
    fn sibling(&self, mut i: usize, hi: usize, stops: &[&str]) -> usize {
        while i < hi && !self.is_close(i) && !stops.iter().any(|s| self.punct(i, s)) {
            i = self.after(i);
        }
        i.min(hi)
    }

    /// The end of an item header from `i`: its `{`, its `;`, a closer,
    /// or the next `fn` item.
    fn header_end(&self, mut i: usize, hi: usize) -> usize {
        while i < hi
            && !self.is_close(i)
            && !self.punct(i, "{")
            && !self.punct(i, ";")
            && !self.fn_def(i)
        {
            i = self.after(i);
        }
        i
    }

    /// Skips a `<…>` group at `i` by angle depth; a `;`, a `{`, the
    /// parent's closer or a `fn` item stops a runaway one.
    fn skip_angles(&self, mut i: usize, hi: usize) -> usize {
        let mut depth = 0i32;
        while i < hi && !self.is_close(i) && !self.fn_def(i) {
            match self.text(i) {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                ";" | "{" => return i,
                _ => {}
            }
            i = self.after(i);
            if depth <= 0 {
                return i;
            }
        }
        i
    }

    /// Token indices of `lo..hi`, minus every skipped span that starts
    /// inside it.
    fn visible(&self, lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
        let mut k = self.skipped.partition_point(|s| s.0 < lo);
        let mut i = lo;
        std::iter::from_fn(move || loop {
            while self.skipped.get(k).is_some_and(|s| s.0 < i) {
                k += 1;
            }
            if let Some(&(s, e)) = self.skipped.get(k).filter(|s| s.0 == i) {
                i = e.max(s + 1);
                continue;
            }
            if i >= hi {
                return None;
            }
            i += 1;
            return Some(i - 1);
        })
    }

    // ----- items ---------------------------------------------------------

    /// Finds the items of `lo..hi`, recursing into every group.
    fn scan(&self, lo: usize, hi: usize, skipped: &mut Vec<Range>, fns: &mut Vec<FnNode>) {
        let mut test = false;
        let mut i = lo;
        while i < hi {
            if self.punct(i, "#") {
                let j = if self.punct(i + 1, "!") { i + 2 } else { i + 1 };
                if self.punct(j, "[") {
                    let end = self.after(j).min(hi);
                    test |= (j..end).any(|k| self.ident(k) == Some("test"));
                    skipped.push((i, end));
                    i = end;
                } else {
                    i = j;
                }
                continue;
            }
            if let Some(m) = self.ident(i).filter(|m| MODIFIERS.contains(m)) {
                let grouped = (m == "pub" && self.punct(i + 1, "("))
                    || (m == "extern"
                        && self.toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Str));
                i = if grouped { self.after(i + 1) } else { i + 1 };
                continue;
            }
            if self.fn_def(i) {
                i = self.fn_item(i, hi, test, skipped, fns);
            } else if matches!(self.ident(i), Some("impl" | "mod" | "trait")) {
                let j = self.header_end(i + 1, hi);
                if j < hi && self.punct(j, "{") {
                    let end = self.after(j).min(hi);
                    skipped.push((i, end));
                    if !test {
                        self.scan(j + 1, self.partner[j].min(hi), skipped, fns);
                    }
                    i = end;
                } else {
                    i = j;
                }
            } else if self.is_open(i) {
                self.scan(i + 1, self.partner[i].min(hi), skipped, fns);
                i = self.after(i);
            } else {
                i += 1;
            }
            test = false;
        }
    }

    /// Records the `fn` item at `i` (its span always; its node and
    /// nested items unless `test`), returning the index past it.
    fn fn_item(
        &self,
        i: usize,
        hi: usize,
        test: bool,
        skipped: &mut Vec<Range>,
        fns: &mut Vec<FnNode>,
    ) -> usize {
        let mut j = i + 2;
        if self.punct(j, "<") {
            j = self.skip_angles(j, hi);
        }
        let mut params = (j, j);
        if self.punct(j, "(") {
            params = (j + 1, self.partner[j].min(hi));
            j = self.after(j);
        }
        j = self.header_end(j, hi);
        if !(j < hi && self.punct(j, "{")) {
            let end = if self.punct(j, ";") { j + 1 } else { j };
            skipped.push((i, end.min(hi)));
            return end.min(hi);
        }
        let body = (j + 1, self.partner[j].min(hi));
        let end = self.after(j).min(hi);
        skipped.push((i, end));
        if !test {
            fns.push(FnNode {
                name: self.text(i + 1).to_string(),
                line: self.toks[i].line,
                params,
                body,
            });
            self.scan(body.0, body.1, skipped, fns);
        }
        end
    }

    // ----- expressions ---------------------------------------------------

    /// The path starting at `i` as `(segments, index past it)`: idents
    /// joined by `::`, turbofish groups skipped. `None` unless `i`
    /// starts a path (not a field, a method or a later segment).
    fn path_at(&self, i: usize) -> Option<(Vec<&str>, usize)> {
        let first = self.ident(i)?;
        let prev = i.checked_sub(1);
        if prev.is_some_and(|p| self.punct(p, ".")) {
            return None;
        }
        if prev.is_some_and(|p| self.punct(p, "::"))
            && i.checked_sub(2)
                .is_some_and(|pp| self.ident(pp).is_some() || self.punct(pp, ">"))
        {
            return None;
        }
        let mut segs = vec![first];
        let mut j = i + 1;
        while self.punct(j, "::") {
            if self.punct(j + 1, "<") {
                j = self.skip_angles(j + 1, self.toks.len());
            } else if let Some(seg) = self.ident(j + 1) {
                segs.push(seg);
                j += 2;
            } else {
                break;
            }
        }
        if segs.len() == 1 && KEYWORDS.contains(&first) {
            return None;
        }
        Some((segs, j))
    }

    /// The index of the `(` when the method name at `i` is called
    /// (`.name(` or `.name::<T>(`).
    fn method_call_at(&self, i: usize) -> Option<usize> {
        self.ident(i)?;
        if !i.checked_sub(1).is_some_and(|p| self.punct(p, ".")) {
            return None;
        }
        let mut j = i + 1;
        if self.punct(j, "::") && self.punct(j + 1, "<") {
            j = self.skip_angles(j + 1, self.toks.len());
        }
        self.punct(j, "(").then_some(j)
    }

    /// The end of the expression starting at `i`: the next `,` or `;`
    /// at its own level, or the parent's closer.
    fn expr_end(&self, mut i: usize, hi: usize) -> usize {
        while i < hi && !self.is_close(i) && !self.punct(i, ",") && !self.punct(i, ";") {
            if self.punct(i, "::") && self.punct(i + 1, "<") {
                i = self.skip_angles(i + 1, hi);
            } else if let Some((_, end)) = self.bar_params(i) {
                i = end + 1;
            } else {
                i = self.after(i);
            }
        }
        i.min(hi)
    }

    /// The argument ranges of the call group opened at `open`.
    fn args(&self, open: usize) -> Vec<Range> {
        let hi = self.partner[open];
        let mut out = Vec::new();
        let mut s = open + 1;
        while s < hi {
            let e = self.expr_end(s, hi);
            out.push((s, e));
            if !self.punct(e, ",") {
                break;
            }
            s = e + 1;
        }
        out
    }

    /// The identifiers a pattern list binds, from `i` up to a `|`, `;`
    /// or closer: pattern idents (`mut`, `ref` and `_` aside) outside
    /// type annotations, whose `<…>` commas do not end them.
    fn pattern_names(&self, mut i: usize, hi: usize) -> (Vec<String>, usize) {
        let binds = |t: &Tok| {
            t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "_" | "move")
        };
        let (mut names, mut in_type, mut angle) = (Vec::new(), false, 0i32);
        while i < hi {
            let t = &self.toks[i];
            if self.is_open(i) {
                if !in_type {
                    let inner = &self.toks[i + 1..self.partner[i].min(hi)];
                    names.extend(inner.iter().filter(|t| binds(t)).map(|t| t.text.clone()));
                }
                i = self.after(i);
                continue;
            }
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "|" | ";" | ")" | "]" | "}") => break,
                (TokKind::Punct, ":") => in_type = true,
                (TokKind::Punct, ",") if angle <= 0 => (in_type, angle) = (false, 0),
                (TokKind::Punct, "<") => angle += 1,
                (TokKind::Punct, "<<") => angle += 2,
                (TokKind::Punct, ">") => angle -= 1,
                (TokKind::Punct, ">>") => angle -= 2,
                _ if !in_type && binds(t) => names.push(t.text.clone()),
                _ => {}
            }
            i += 1;
        }
        (names, i)
    }

    /// A closure's parameters when `i` is its opening `|` or `||`, with
    /// the index of the closing bar.
    fn bar_params(&self, i: usize) -> Option<(Vec<String>, usize)> {
        let opens = self.punct(i, "|") || self.punct(i, "||");
        if !opens || i.checked_sub(1).is_some_and(|p| self.ends_expr(p)) {
            return None;
        }
        if self.punct(i, "||") {
            return Some((Vec::new(), i));
        }
        let (names, end) = self.pattern_names(i + 1, self.toks.len());
        self.punct(end, "|").then_some((names, end))
    }

    /// The body of the closure whose opening bar is at `i`, up to the
    /// next `,` or `;` at the closure's own level (a leading `move` is
    /// the caller's to skip).
    fn closure_body(&self, i: usize) -> Option<Range> {
        let (_, bar) = self.bar_params(i)?;
        let len = self.toks.len();
        let mut lo = bar + 1;
        if self.punct(lo, "->") {
            lo = self.sibling(lo, len, &["{", ";"]);
        }
        Some((lo, self.expr_end(lo, len)))
    }

    /// The opener of the loop body whose header starts at `i` (just
    /// past `for`/`while`); a `while let` pattern is skipped to its `=`.
    fn loop_body(&self, mut i: usize) -> Option<usize> {
        let len = self.toks.len();
        if self.ident(i) == Some("let") {
            i = self.sibling(i, len, &["=", ";"]) + 1;
        }
        let open = self.sibling(i, len, &["{", ";"]);
        self.punct(open, "{").then_some(open)
    }

    // ----- bindings --------------------------------------------------------

    /// Every identifier `lo..hi` binds: `let` patterns (simple or
    /// destructuring), `for` patterns and closure parameters, at any
    /// depth. Match-arm and `if let` patterns bind nothing here.
    fn bindings(&self, lo: usize, hi: usize) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for i in self.visible(lo, hi) {
            match self.ident(i) {
                Some("let") => {
                    let cond = i
                        .checked_sub(1)
                        .is_some_and(|p| matches!(self.text(p), "if" | "while" | "&&" | "||"));
                    if !cond {
                        out.extend(self.let_names(i + 1, hi));
                    }
                }
                Some("for") if !self.punct(i + 1, "<") => {
                    let mut j = i + 1;
                    while let Some(t) = self.toks.get(j) {
                        if t.kind == TokKind::Ident && t.text == "in"
                            || ["{", "}", ";"].iter().any(|s| self.punct(j, s))
                        {
                            break;
                        }
                        if t.kind == TokKind::Ident
                            && !matches!(t.text.as_str(), "mut" | "ref" | "_")
                        {
                            out.insert(t.text.clone());
                        }
                        j += 1;
                    }
                }
                _ => {
                    if let Some((names, _)) = self.bar_params(i) {
                        out.extend(names);
                    }
                }
            }
        }
        out
    }

    /// The names the `let` pattern starting at `i` binds: its var-like
    /// identifiers up to its `=`, `;` or type annotation, less path
    /// segments, struct and variant names, and the field name of each
    /// `field: binding` pair (`let (a, b)`, `let Row { queue, rng: r, .. }`
    /// and `let [x, .., y]` bind every name but `Row`).
    fn let_names(&self, i: usize, hi: usize) -> Vec<String> {
        let end = self.sibling(i, hi, &["=", ";", ":"]);
        (i..end)
            .filter(|&k| {
                let path = k.checked_sub(1).is_some_and(|p| self.punct(p, "::"));
                let field = k + 1 < end && self.punct(k + 1, ":");
                !path && !field && !matches!(self.text(k + 1), "::" | "(" | "{" | "!")
            })
            .filter_map(|k| self.ident(k))
            .filter(|name| is_var_like(name) && !matches!(*name, "mut" | "ref" | "_" | "self"))
            .map(str::to_string)
            .collect()
    }

    /// Every identifier `f` binds: its parameter patterns, `self`, and
    /// the `let`, `for` and closure bindings of its body.
    fn fn_bindings(&self, f: &FnNode) -> BTreeSet<String> {
        let mut out = self.bindings(f.body.0, f.body.1);
        out.extend(self.pattern_names(f.params.0, f.params.1).0);
        out.insert("self".to_string());
        out
    }

    /// [`Tree::fn_bindings`] plus every identifier in `f`'s `let` and
    /// match-arm patterns: the names in `f` that may be locals rather
    /// than fns (an over-approximation, which only drops value edges).
    fn locals(&self, f: &FnNode) -> BTreeSet<String> {
        let (lo, hi) = f.body;
        let mut out = self.fn_bindings(f);
        let mut idents = |from: usize, to: usize| {
            out.extend((from..to).filter_map(|k| self.ident(k)).map(str::to_string));
        };
        for i in self.visible(lo, hi) {
            if self.ident(i) == Some("let") {
                idents(i + 1, self.sibling(i + 1, hi, &["=", ";"]));
            } else if self.punct(i, "=>") {
                // Back to the arm's start, over any bracketed pattern.
                let mut k = i;
                while let Some(p) = k.checked_sub(1).filter(|&p| p >= lo) {
                    let arm_block = self.punct(p, "}")
                        && self.partner[p]
                            .checked_sub(1)
                            .is_some_and(|b| self.punct(b, "=>"));
                    if self.punct(p, ",") || self.is_open(p) || arm_block {
                        break;
                    }
                    k = if self.is_close(p) {
                        self.partner[p].min(p)
                    } else {
                        p
                    };
                }
                idents(k, i);
            }
        }
        out
    }

    // ----- facts -----------------------------------------------------------

    /// The effect facts of the tokens in `lo..hi`, loop depth counted
    /// from zero there; `locals` are the enclosing fn's [`Tree::locals`].
    fn facts(&self, lo: usize, hi: usize, locals: &BTreeSet<String>) -> FnFacts {
        let mut fx = FnFacts::default();
        let (mut loop_opens, mut loop_ends): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
        for i in self.visible(lo, hi) {
            while loop_ends.last().is_some_and(|&e| e <= i) {
                loop_ends.pop();
            }
            if loop_opens.contains(&i) {
                loop_ends.push(self.partner[i]);
            }
            let in_loop = !loop_ends.is_empty();
            let Some(word) = self.ident(i) else { continue };
            let line = self.toks[i].line;
            match word {
                "for" if !self.punct(i + 1, "<") => loop_opens.extend(self.loop_body(i + 1)),
                "while" => loop_opens.extend(self.loop_body(i + 1)),
                "loop" if self.punct(i + 1, "{") => loop_opens.push(i + 1),
                "invariant" | "leime_invariant" if self.punct(i + 1, "::") => {
                    fx.direct_guard = true
                }
                _ => {}
            }
            if self.method_call_at(i).is_some() {
                fx.calls.insert(word.to_string());
                if ALLOC_METHODS.contains(&word) {
                    fx.allocs.push((line, format!(".{word}()")));
                }
                continue;
            }
            let Some((segs, j)) = self.path_at(i) else {
                continue;
            };
            let last = segs[segs.len() - 1];
            if self.punct(j, "!") && self.is_open(j + 1) {
                match last {
                    "vec" if in_loop => fx.allocs.push((line, "vec! in loop".to_string())),
                    "format" => fx.allocs.push((line, "format!".to_string())),
                    _ => {}
                }
            } else if self.punct(j, "(") {
                let line = self.toks[j].line;
                fx.calls.insert(last.to_string());
                if last == "new" && segs.contains(&"Box") {
                    fx.allocs.push((line, "Box::new".to_string()));
                }
                let owner = segs.len().checked_sub(2).map(|k| segs[k]);
                if ALLOC_METHODS.contains(&last)
                    && owner.is_some_and(|o| !REFCOUNT_TYPES.contains(&o))
                {
                    fx.allocs.push((line, format!("{}()", segs.join("::"))));
                }
                if last == "with_capacity"
                    && in_loop
                    && segs.iter().any(|s| ALLOC_CONTAINERS.contains(s))
                {
                    fx.allocs.push((line, "with_capacity in loop".to_string()));
                }
            } else if self.fn_value_at(i, &segs, j, locals) {
                fx.calls.insert(last.to_string());
            }
        }
        fx
    }

    /// Whether the path `segs` spanning `i..j` names a function passed
    /// as a value (`chaos: edge_chaos`, `.map(Self::price)`): it stands
    /// alone between separators, reads like a fn name, and a single
    /// segment is none of the enclosing fn's `locals`.
    fn fn_value_at(&self, i: usize, segs: &[&str], j: usize, locals: &BTreeSet<String>) -> bool {
        let last = segs[segs.len() - 1];
        let alone = i
            .checked_sub(1)
            .is_some_and(|p| [":", "(", ",", "="].iter().any(|s| self.punct(p, s)))
            && [",", ")", "}", ";"].iter().any(|s| self.punct(j, s));
        alone
            && is_var_like(last)
            && !matches!(last, "self" | "_")
            && (segs.len() > 1 || !locals.contains(last))
    }

    /// Every shard body in `f`: the worker argument of each configured
    /// `leime-par` entry call, inline or named by a `let`-bound closure.
    fn shard_bodies(&self, f: &FnNode, cfg: &SemaConfig) -> Vec<ShardBody> {
        let (lo, hi) = f.body;
        let mut out = Vec::new();
        for i in self.visible(lo, hi) {
            let Some((segs, j)) = self.path_at(i) else {
                continue;
            };
            let last = segs[segs.len() - 1];
            let Some((entry, idx)) = cfg.par_entry_args.iter().find(|(e, _)| e == last) else {
                continue;
            };
            if !self.punct(j, "(") {
                continue;
            }
            let Some(&(a, b)) = self.args(j).get(*idx) else {
                continue;
            };
            let body = match self.ident(a) {
                Some(name) if b == a + 1 => self.let_closure(lo, hi, name),
                _ => self.closure_body(self.past(a, "move")),
            };
            let Some((clo, chi)) = body else { continue };
            out.push(ShardBody {
                entry: entry.clone(),
                calls: self.facts(clo, chi, &self.locals(f)).calls,
            });
        }
        out
    }

    /// The body of the closure initializing the first `let name = |…| …`
    /// in `lo..hi`.
    fn let_closure(&self, lo: usize, hi: usize, name: &str) -> Option<Range> {
        self.visible(lo, hi)
            .filter(|&i| self.ident(i) == Some("let"))
            .find_map(|i| {
                let j = self.past(i + 1, "mut");
                if self.ident(j) != Some(name) {
                    return None;
                }
                let eq = self.sibling(j + 1, hi, &["=", ";"]);
                if !self.punct(eq, "=") {
                    return None;
                }
                self.closure_body(self.past(eq + 1, "move"))
            })
    }
}

/// Whether `name` reads as a local variable (not a type, enum variant,
/// screaming const, or bool literal).
fn is_var_like(name: &str) -> bool {
    if name == "true" || name == "false" {
        return false;
    }
    name.chars()
        .next()
        .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        || name == "self"
}

/// Effect facts for one function *definition* (or, unnamed, for one
/// shard body).
#[derive(Debug, Default)]
pub struct FnFacts {
    /// The fn's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Names this function calls (paths by last segment, methods by
    /// name) or passes as a fn value — the flow-graph edges.
    pub calls: BTreeSet<String>,
    /// Allocation sites: `(line, what)`. `Box::new`, `format!` and the
    /// always-allocating methods count anywhere; `vec!` and container
    /// `with_capacity` only inside a loop body, where they churn.
    pub allocs: Vec<(u32, String)>,
    /// Whether the body names `invariant::` or `leime_invariant::`
    /// itself (S1's base case).
    pub direct_guard: bool,
}

/// A closure passed as the worker argument of a `leime-par` entry point.
#[derive(Debug)]
pub struct ShardBody {
    /// Entry-point name (`run_rounds`, `run_slot_loop`).
    pub entry: String,
    /// Names the body calls — roots of the S6 hot set.
    pub calls: BTreeSet<String>,
}

/// Everything the rules read from one source file, from one lex.
#[derive(Debug)]
pub struct FileFacts {
    /// Scan-relative path.
    pub path: String,
    /// One entry per non-test fn with a body, in source pre-order.
    pub fns: Vec<FnFacts>,
    /// The shard bodies of those fns.
    pub shard_bodies: Vec<ShardBody>,
}

impl FileFacts {
    /// Lexes and reads `src` once.
    pub fn new(path: &str, src: &str, cfg: &SemaConfig) -> Self {
        let tree = Tree::new(src);
        let mut fns = Vec::new();
        let mut shard_bodies = Vec::new();
        for f in &tree.fns {
            fns.push(FnFacts {
                name: f.name.clone(),
                line: f.line,
                ..tree.facts(f.body.0, f.body.1, &tree.locals(f))
            });
            shard_bodies.extend(tree.shard_bodies(f, cfg));
        }
        FileFacts {
            path: path.to_string(),
            fns,
            shard_bodies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> FileFacts {
        FileFacts::new("crates/x/src/lib.rs", src, &SemaConfig::default())
    }

    fn names(src: &str) -> Vec<String> {
        Tree::new(src).fns.into_iter().map(|f| f.name).collect()
    }

    /// The calls of `src`'s first fn.
    fn calls(src: &str) -> Vec<String> {
        facts(src).fns[0].calls.iter().cloned().collect()
    }

    /// The names `src`'s first fn binds.
    fn bound(src: &str) -> Vec<String> {
        let tree = Tree::new(src);
        tree.fn_bindings(&tree.fns[0]).into_iter().collect()
    }

    #[test]
    fn fn_signature_and_params() {
        let src = "pub fn decide<T: Fn(u32)>(x: f64, q: &mut Vec<f64>) -> f64 { x }";
        assert_eq!(names(src), ["decide"]);
        assert_eq!(bound(src), ["q", "self", "x"]);
    }

    #[test]
    fn items_nest_through_mods_and_impls() {
        let src = "mod a { pub struct S { x: f64 } impl S { fn get(&self) -> f64 { self.x } } }";
        assert_eq!(names(src), ["get"]);
    }

    #[test]
    fn calls_and_method_calls() {
        let src = "fn f() { helper(1.0); x.solve(2, 3); a::b::c(); y.field; }";
        assert_eq!(calls(src), ["c", "helper", "solve"]);
    }

    #[test]
    fn fns_passed_as_values_are_call_edges() {
        let src = "fn f(n: u64) -> E { let h = g; E { chaos: edge_chaos, n, h: h, p: price(n, Self::tail) } }";
        assert_eq!(calls(src), ["edge_chaos", "g", "price", "tail"]);
        // Locals, fields, types and literals are not fns.
        let src = "fn f(x: u64, v: V) -> u64 { let k: usize = 2; v.len(); take(x, k, true, S) }";
        assert_eq!(calls(src), ["len", "take"]);
        let src = "fn f(o: O) -> P { let (a, mut b) = o.pair(); match o.get() { Some((c, d)) => P(a, b, c, d), None => P(e, b, b, b) } }";
        assert_eq!(calls(src), ["P", "Some", "e", "get", "pair"]);
    }

    #[test]
    fn destructuring_lets_bind_their_pattern_names() {
        let src = "fn f(o: O) { let (a, mut b) = o.pair(); \
                   let Row { queue, rng: r, .. } = o.row(); let [x, .., y] = o.arr(); \
                   let e::V(z) = o.v(); let Some(w) = o.w() else { return }; \
                   let (p, q): (u8, u8) = (1, 2); if let Some(m) = o.m() { m.go(); } }";
        assert_eq!(
            bound(src),
            ["a", "b", "o", "p", "q", "queue", "r", "self", "w", "x", "y", "z"]
        );
    }

    #[test]
    fn for_loop_over_method_call() {
        let src = "fn f(m: &M) { for (k, v) in m.entries.iter() { use_it(k, v); } }";
        assert_eq!(calls(src), ["iter", "use_it"]);
        assert_eq!(bound(src), ["k", "m", "self", "v"]);
    }

    #[test]
    fn let_captures_name_and_init() {
        let src = "fn f() { let m: HashMap<String, u64> = HashMap::new(); }";
        assert_eq!(calls(src), ["new"]);
        assert_eq!(bound(src), ["m", "self"]);
    }

    #[test]
    fn turbofish_collect_is_captured() {
        let f = &facts("fn f(v: Vec<u64>) { let _m = v.iter().collect::<HashMap<u64, u64>>(); }")
            .fns[0];
        assert_eq!(f.calls.iter().collect::<Vec<_>>(), ["collect", "iter"]);
        assert_eq!(f.allocs, [(1, ".collect()".to_string())]);
    }

    #[test]
    fn if_else_chain_and_match() {
        let src = "fn f(x: u32) -> u32 { if x > 1 { a() } else if x > 0 { b() } else { c() } }";
        assert_eq!(calls(src), ["a", "b", "c"]);
        let src = "fn g(x: Option<u32>) -> u32 { match x { Some(v) if v > 2 => v, Some(_) => d(), None => 0 } }";
        assert!(calls(src).contains(&"d".to_string()));
    }

    #[test]
    fn struct_literal_versus_block() {
        assert_eq!(calls("fn f() -> P { P { x: g(), y: 2.0 } }"), ["g"]);
        assert_eq!(calls("fn h(c: C) { if c.ready { act(); } }"), ["act"]);
    }

    #[test]
    fn closures_and_macros_expose_inner_calls() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert_eq!(calls(src), ["sort_by", "total_cmp"]);
        assert_eq!(
            calls("fn g(x: f64) { record!(compute(x), \"label\"); }"),
            ["compute"]
        );
    }

    #[test]
    fn match_guard_comparison_does_not_swallow_later_items() {
        let src = "impl T { fn a(x: f64) -> u32 { match x { y if y < 1.0 => 1, _ => 0 } }\n\
                   fn b() -> u32 { 2 } }";
        assert_eq!(names(src), ["a", "b"]);
    }

    #[test]
    fn move_closure_keeps_params_and_body() {
        // The body runs past `move` and the bars, and its lone `x` is a
        // parameter, not a fn passed as a value.
        let src = "fn f(n: u32) { run_rounds(s, move |i, x| helper(i + n, x), d); }";
        let bodies = facts(src).shard_bodies;
        assert_eq!(bodies.len(), 1, "{bodies:?}");
        assert_eq!(bodies[0].calls.iter().collect::<Vec<_>>(), ["helper"]);
    }

    #[test]
    fn trait_methods_with_and_without_bodies() {
        let src =
            "pub trait C { fn decide(&self) -> f64; fn helper(&self) -> f64 { self.decide() } }";
        assert_eq!(names(src), ["helper"]);
    }

    #[test]
    fn opaque_recovery_keeps_going() {
        assert_eq!(calls("fn f() { @ # $ ; g(); }"), ["g"]);
    }

    #[test]
    fn deep_nesting_terminates() {
        let mut src = String::from("fn f() { ");
        src.push_str(&"(1 + ".repeat(500));
        src.push('1');
        src.push_str(&")".repeat(500));
        src.push_str(" ; }");
        assert_eq!(names(&src), ["f"]);
        let blocks = format!("fn g() {}{}", "{".repeat(300), "}".repeat(300));
        assert_eq!(names(&blocks), ["g"]);
    }

    #[test]
    fn unbalanced_input_terminates() {
        for src in [
            "fn f( { ) } ] [ } } } fn g() { h( }",
            "{{{{{{",
            "))))))",
            "fn",
            "let x = ",
            "match { => , => }",
        ] {
            let _ = facts(src);
        }
        // An unclosed body runs to EOF; a stray closer is ignored.
        assert_eq!(names("} fn a() { b( }"), ["a"]);
    }

    #[test]
    fn nested_items_are_their_own_nodes() {
        let f = facts("fn outer() { fn inner() { a() } impl S { fn m() { c() } } b() }");
        let got: Vec<(&str, Vec<&str>)> = f
            .fns
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.calls.iter().map(String::as_str).collect(),
                )
            })
            .collect();
        assert_eq!(
            got,
            [("outer", vec!["b"]), ("inner", vec!["a"]), ("m", vec!["c"])]
        );
    }

    #[test]
    fn let_else_guard_and_vec_length_calls_are_seen() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   let Some(y) = x else { return g.lock() };\n\
                   let v = vec![0; len_of(y)];\n\
                   match y { z if z.min(1) > 0 => 1, _ => 0 } }";
        let f = &facts(src).fns[0];
        for call in ["len_of", "lock", "min"] {
            assert!(f.calls.contains(call), "{call}: {:?}", f.calls);
        }
    }

    #[test]
    fn loop_bodies_count_but_their_heads_do_not() {
        let src = "fn f(n: usize) {\n\
                   while let Some(S { a }) = it.next() { vec![a]; }\n\
                   for i in vec![0; n] { loop { vec![i]; } }\n\
                   vec![n]; }";
        let allocs: Vec<u32> = facts(src).fns[0].allocs.iter().map(|a| a.0).collect();
        assert_eq!(allocs, [2, 3]);
    }
}
