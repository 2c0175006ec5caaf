//! Recursive-descent parser over the [`crate::lexer`] token stream.
//!
//! Two properties dominate every other concern here:
//!
//! 1. **Total**: the parser never panics and always terminates, on *any*
//!    token stream (enforced by proptest). Every loop either advances the
//!    cursor or returns; recursion is capped by [`MAX_DEPTH`], beyond
//!    which balanced token groups are skimmed iteratively.
//! 2. **Recovering**: unknown constructs degrade to [`Expr::Opaque`] /
//!    skipped tokens instead of failing the file — a lint must keep
//!    scanning the 95% it understands.
//!
//! The grammar subset is what the S-rules need: item structure with
//! nesting, `fn` signatures (param names + flattened type text), and
//! bodies parsed into the simplified [`crate::ast`]
//! expression forms (calls, method calls with turbofish, field access,
//! binary/unary operators, loops, `if`/`match` and closures).

use crate::ast::{Block, Expr, File, Item, ItemKind, Stmt};
use crate::lexer::{lex, Tok, TokKind};

/// Recursion cap: beyond this depth balanced groups are skimmed flat.
const MAX_DEPTH: u32 = 64;

/// Parses `src` into a simplified [`File`].
pub fn parse_source(src: &str) -> File {
    parse_tokens(&lex(src).toks)
}

/// Parses an already-lexed token stream.
pub fn parse_tokens(toks: &[Tok]) -> File {
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    File {
        items: p.parse_items(true),
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    // ----- cursor primitives -------------------------------------------

    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + off)
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, s: &str) -> bool {
        self.peek()
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek()
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    }

    fn eat_punct(&mut self, s: &str) -> bool {
        if self.at_punct(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn line(&self) -> u32 {
        self.peek().map_or(0, |t| t.line)
    }

    /// Skips one balanced group if the cursor sits on an opening
    /// delimiter, else skips one token. Iterative, so safe at any depth.
    fn skim_group_or_token(&mut self) {
        let (open, close) = match self.peek() {
            Some(t) if t.kind == TokKind::Punct => match t.text.as_str() {
                "(" => ("(", ")"),
                "[" => ("[", "]"),
                "{" => ("{", "}"),
                _ => {
                    self.pos += 1;
                    return;
                }
            },
            Some(_) => {
                self.pos += 1;
                return;
            }
            None => return,
        };
        let mut depth = 0usize;
        while let Some(t) = self.bump() {
            if t.kind == TokKind::Punct {
                if t.text == open {
                    depth += 1;
                } else if t.text == close {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
            }
        }
    }

    /// Skips tokens until `stop` at delimiter depth 0 (consuming the
    /// `stop` token), or until an unbalanced closer/EOF (not consumed).
    fn skip_until_top(&mut self, stop: &str) {
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    s if s == stop => {
                        self.pos += 1;
                        return;
                    }
                    "(" | "[" | "{" => {
                        self.skim_group_or_token();
                        continue;
                    }
                    ")" | "]" | "}" => return,
                    _ => {}
                }
            }
            self.pos += 1;
        }
    }

    // ----- items -------------------------------------------------------

    /// Parses items until EOF (`top` true) or a closing `}`.
    fn parse_items(&mut self, top: bool) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            match self.peek() {
                None => return items,
                Some(t) if t.kind == TokKind::Punct && t.text == "}" => {
                    if top {
                        self.pos += 1; // stray closer at top level: skip
                        continue;
                    }
                    return items;
                }
                _ => {}
            }
            let before = self.pos;
            if let Some(item) = self.parse_item() {
                items.push(item);
            }
            if self.pos == before {
                self.pos += 1; // always make progress
            }
        }
    }

    /// Parses one item, or returns `None` after skipping noise.
    fn parse_item(&mut self) -> Option<Item> {
        let is_test = self.skip_attrs_and_vis();
        let mut parsed = self.parse_item_dispatch();
        if let Some(item) = parsed.as_mut() {
            item.cfg_test |= is_test;
        }
        parsed
    }

    fn parse_item_dispatch(&mut self) -> Option<Item> {
        // Modifier keywords in front of `fn` / `impl` / `trait`.
        while self.at_ident("unsafe")
            || self.at_ident("async")
            || self.at_ident("default")
            || (self.at_ident("extern")
                && self
                    .peek_at(1)
                    .is_some_and(|t| t.kind == TokKind::Str || t.text == "fn"))
        {
            self.pos += 1;
            // `extern "C"` string
            if self.peek().is_some_and(|t| t.kind == TokKind::Str) {
                self.pos += 1;
            }
        }
        let t = self.peek()?;
        if t.kind != TokKind::Ident {
            return None; // caller skips one token
        }
        let line = t.line;
        match t.text.as_str() {
            "fn" => {
                self.pos += 1;
                Some(self.parse_fn(line))
            }
            "mod" => {
                self.pos += 1;
                let name = self.bump_ident_text();
                let mut item = Item::new(ItemKind::Mod, name, line);
                if self.eat_punct("{") {
                    item.children = self.parse_items(false);
                    self.eat_punct("}");
                } else {
                    self.skip_until_top(";");
                }
                Some(item)
            }
            "struct" => {
                self.pos += 1;
                let name = self.bump_ident_text();
                let item = Item::new(ItemKind::Struct, name, line);
                self.skip_generics();
                self.skip_where_clause();
                if self.at_punct("{") {
                    self.skim_group_or_token();
                } else {
                    // tuple struct `(…);` or unit struct `;`
                    if self.at_punct("(") {
                        self.skim_group_or_token();
                    }
                    self.skip_until_top(";");
                }
                Some(item)
            }
            "enum" | "union" => {
                let kind = if t.text == "enum" {
                    ItemKind::Enum
                } else {
                    ItemKind::Other
                };
                self.pos += 1;
                let name = self.bump_ident_text();
                let item = Item::new(kind, name, line);
                self.skip_generics();
                self.skip_where_clause();
                if self.at_punct("{") {
                    self.skim_group_or_token();
                } else {
                    self.skip_until_top(";");
                }
                Some(item)
            }
            "trait" => {
                self.pos += 1;
                let name = self.bump_ident_text();
                let mut item = Item::new(ItemKind::Trait, name, line);
                self.consume_until_body_or_semi();
                if self.eat_punct("{") {
                    item.children = self.parse_items(false);
                    self.eat_punct("}");
                }
                Some(item)
            }
            "impl" => {
                self.pos += 1;
                let name = self.consume_until_body_or_semi();
                let mut item = Item::new(ItemKind::Impl, name, line);
                if self.eat_punct("{") {
                    item.children = self.parse_items(false);
                    self.eat_punct("}");
                }
                Some(item)
            }
            "use" => {
                self.pos += 1;
                let mut text = String::new();
                while let Some(t) = self.peek() {
                    if t.kind == TokKind::Punct && t.text == ";" {
                        self.pos += 1;
                        break;
                    }
                    if t.kind == TokKind::Punct && (t.text == "}" || t.text == "{") {
                        self.skim_group_or_token();
                        continue;
                    }
                    if !text.is_empty() {
                        text.push(' ');
                    }
                    text.push_str(&t.text);
                    self.pos += 1;
                }
                Some(Item::new(ItemKind::Use, text, line))
            }
            "const" | "static" => {
                self.pos += 1;
                self.eat_ident("mut");
                // `const fn` — re-dispatch.
                if self.at_ident("fn") {
                    self.pos += 1;
                    return Some(self.parse_fn(line));
                }
                let name = self.bump_ident_text();
                let mut item = Item::new(ItemKind::Const, name, line);
                if self.eat_punct(":") {
                    self.skip_type(&[";", "="]);
                }
                if self.eat_punct("=") {
                    let init = self.parse_expr(true);
                    item.body = Some(Block {
                        stmts: vec![Stmt::Expr(init)],
                    });
                }
                self.skip_until_top(";");
                Some(item)
            }
            "type" => {
                self.pos += 1;
                let name = self.bump_ident_text();
                self.skip_until_top(";");
                Some(Item::new(ItemKind::Other, name, line))
            }
            "macro_rules" => {
                self.pos += 1;
                self.eat_punct("!");
                let name = self.bump_ident_text();
                if self.at_punct("{") || self.at_punct("(") || self.at_punct("[") {
                    self.skim_group_or_token();
                }
                self.eat_punct(";");
                Some(Item::new(ItemKind::Other, name, line))
            }
            "extern" => {
                // `extern crate x;` or `extern { … }`
                self.pos += 1;
                if self.peek().is_some_and(|t| t.kind == TokKind::Str) {
                    self.pos += 1;
                }
                if self.at_punct("{") {
                    self.skim_group_or_token();
                } else {
                    self.skip_until_top(";");
                }
                Some(Item::new(ItemKind::Other, "extern", line))
            }
            _ => None, // not an item keyword; caller skips one token
        }
    }

    /// Parses a `fn` from just after the `fn` keyword.
    fn parse_fn(&mut self, line: u32) -> Item {
        let name = self.bump_ident_text();
        let mut item = Item::new(ItemKind::Fn, name, line);
        self.skip_generics();
        if self.at_punct("(") {
            item.params = self.parse_params();
        }
        // Return type / where clause, up to body or `;`.
        self.consume_until_body_or_semi();
        if self.eat_punct("{") {
            item.body = Some(self.parse_block_inner());
        } else {
            self.eat_punct(";");
        }
        item
    }

    /// Parses `(name: Type, …)` capturing the parameter names.
    fn parse_params(&mut self) -> Vec<String> {
        let mut params = Vec::new();
        if !self.eat_punct("(") {
            return params;
        }
        loop {
            match self.peek() {
                None => return params,
                Some(t) if t.kind == TokKind::Punct && t.text == ")" => {
                    self.pos += 1;
                    return params;
                }
                _ => {}
            }
            let before = self.pos;
            // Pattern side: attributes, `mut x`, `&self`, `self`, …
            self.skip_attrs_and_vis();
            self.eat_ident("mut");
            if let Some(t) = self.peek() {
                if t.kind == TokKind::Ident && self.peek_at(1).is_some_and(|n| n.text == ":") {
                    params.push(t.text.clone());
                    self.pos += 2; // ident and `:`
                    self.skip_type(&[",", ")"]);
                    self.eat_punct(",");
                    continue;
                }
            }
            // `self`, `&mut self`, destructuring patterns, …: skip to
            // the next top-level `,` or the closing paren.
            while let Some(t) = self.peek() {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "," => {
                            self.pos += 1;
                            break;
                        }
                        ")" => break,
                        "(" | "[" | "{" => {
                            self.skim_group_or_token();
                            continue;
                        }
                        "<" => {
                            self.skip_generics();
                            continue;
                        }
                        _ => {}
                    }
                }
                self.pos += 1;
            }
            if self.pos == before {
                self.pos += 1;
            }
        }
    }

    /// Skips `#[…]` / `#![…]` attributes and `pub((…))?` visibility.
    /// Returns `true` when an attribute mentions `test` (`#[test]`,
    /// `#[cfg(test)]`, `#[cfg(all(test, …))]`).
    fn skip_attrs_and_vis(&mut self) -> bool {
        let mut is_test = false;
        loop {
            if self.at_punct("#") {
                self.pos += 1;
                self.eat_punct("!");
                if self.at_punct("[") {
                    let start = self.pos;
                    self.skim_group_or_token();
                    let inner = &self.toks[start..self.pos];
                    if inner
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && t.text == "test")
                    {
                        is_test = true;
                    }
                }
                continue;
            }
            if self.at_ident("pub") {
                self.pos += 1;
                if self.at_punct("(") {
                    self.skim_group_or_token();
                }
                continue;
            }
            return is_test;
        }
    }

    /// Skips a `<…>` generics group if present (angle-depth matched,
    /// shift-operator aware).
    fn skip_generics(&mut self) {
        if !self.at_punct("<") {
            return;
        }
        let mut depth = 0isize;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth <= 0 {
                            self.pos += 1;
                            return;
                        }
                    }
                    "<<" => depth += 2,
                    ">>" => {
                        depth -= 2;
                        if depth <= 0 {
                            self.pos += 1;
                            return;
                        }
                    }
                    "(" | "[" | "{" => {
                        self.skim_group_or_token();
                        continue;
                    }
                    ";" => return, // runaway: unclosed generics
                    _ => {}
                }
            }
            self.pos += 1;
        }
    }

    /// Skips a `where` clause if present (consumes up to, not including,
    /// `{` or `;`).
    fn skip_where_clause(&mut self) {
        if !self.at_ident("where") {
            return;
        }
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" | ";" | "}" => return,
                    "(" | "[" => {
                        self.skim_group_or_token();
                        continue;
                    }
                    "<" => {
                        self.skip_generics();
                        continue;
                    }
                    _ => {}
                }
            }
            self.pos += 1;
        }
    }

    /// Consumes tokens up to (not including) a body `{` or past a `;`,
    /// returning the flattened text (used for impl headers and return
    /// types).
    fn consume_until_body_or_semi(&mut self) -> String {
        let mut text = String::new();
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => return text,
                    "}" => return text,
                    ";" => {
                        return text;
                    }
                    "(" | "[" => {
                        self.skim_group_or_token();
                        if !text.is_empty() {
                            text.push(' ');
                        }
                        text.push_str("()");
                        continue;
                    }
                    "<" => {
                        self.skip_generics();
                        continue;
                    }
                    _ => {}
                }
            }
            if !text.is_empty() {
                text.push(' ');
            }
            text.push_str(&t.text);
            self.pos += 1;
        }
        text
    }

    /// Skips type tokens up to one of `stops` at depth 0 (not consumed).
    fn skip_type(&mut self, stops: &[&str]) {
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                let s = t.text.as_str();
                if stops.contains(&s) || s == "}" || s == ")" || s == ";" {
                    return;
                }
                match s {
                    "<" => {
                        self.skip_generics();
                        continue;
                    }
                    "(" | "[" => {
                        self.skim_group_or_token();
                        continue;
                    }
                    _ => {}
                }
            }
            self.pos += 1;
        }
    }

    // ----- statements and blocks --------------------------------------

    /// Parses a block body, assuming the opening `{` is already consumed.
    /// Consumes the closing `}` when present.
    fn parse_block_inner(&mut self) -> Block {
        if self.depth >= MAX_DEPTH {
            // Too deep: skim the rest of the group flat.
            let mut depth = 1usize;
            while let Some(t) = self.bump() {
                if t.kind == TokKind::Punct {
                    if t.text == "{" {
                        depth += 1;
                    } else if t.text == "}" {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                }
            }
            return Block::default();
        }
        self.depth += 1;
        let mut block = Block::default();
        loop {
            match self.peek() {
                None => break,
                Some(t) if t.kind == TokKind::Punct && t.text == "}" => {
                    self.pos += 1;
                    break;
                }
                _ => {}
            }
            let before = self.pos;
            if let Some(stmt) = self.parse_stmt() {
                block.stmts.push(stmt);
            }
            if self.pos == before {
                self.pos += 1;
            }
        }
        self.depth -= 1;
        block
    }

    fn parse_stmt(&mut self) -> Option<Stmt> {
        self.skip_attrs_and_vis();
        let t = self.peek()?;
        if t.kind == TokKind::Punct && t.text == ";" {
            self.pos += 1;
            return None;
        }
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "let" => return Some(self.parse_let()),
                "fn" | "struct" | "enum" | "union" | "trait" | "impl" | "mod" | "use" | "type"
                | "macro_rules" | "extern" => {
                    let item = self.parse_item()?;
                    return Some(Stmt::Item(item));
                }
                // `const X: T = …;` item — but NOT `const` in other
                // positions; peek for `ident :` or `fn`.
                "const" | "static"
                    if self
                        .peek_at(1)
                        .is_some_and(|n| n.kind == TokKind::Ident || n.text == "fn") =>
                {
                    let item = self.parse_item()?;
                    return Some(Stmt::Item(item));
                }
                _ => {}
            }
        }
        let expr = self.parse_expr(true);
        self.eat_punct(";");
        Some(Stmt::Expr(expr))
    }

    fn parse_let(&mut self) -> Stmt {
        let line = self.line();
        self.pos += 1; // `let`
        self.eat_ident("mut");
        let mut name = String::new();
        // Single-identifier pattern (the common case we model).
        if let Some(t) = self.peek() {
            if t.kind == TokKind::Ident
                && self
                    .peek_at(1)
                    .is_some_and(|n| matches!(n.text.as_str(), ":" | "=" | ";"))
            {
                name = t.text.clone();
                self.pos += 1;
            }
        }
        if name.is_empty() {
            // Destructuring or path pattern: skip to `:`/`=`/`;` at depth 0.
            while let Some(t) = self.peek() {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        ":" | "=" | ";" | "}" => break,
                        "(" | "[" | "{" => {
                            self.skim_group_or_token();
                            continue;
                        }
                        "<" => {
                            self.skip_generics();
                            continue;
                        }
                        _ => {}
                    }
                }
                self.pos += 1;
            }
        }
        if self.eat_punct(":") {
            self.skip_type(&["=", ";"]);
        }
        let init = if self.eat_punct("=") {
            Some(self.parse_expr(true))
        } else {
            None
        };
        // let-else
        if self.eat_ident("else") && self.eat_punct("{") {
            let _ = self.parse_block_inner();
        }
        self.eat_punct(";");
        Stmt::Let { name, init, line }
    }

    // ----- expressions -------------------------------------------------

    /// Pratt expression parser. `allow_struct` gates `Path { … }` struct
    /// literals (off inside `if`/`while`/`for`/`match` heads).
    fn parse_expr(&mut self, allow_struct: bool) -> Expr {
        if self.depth >= MAX_DEPTH {
            self.skim_group_or_token();
            return Expr::Opaque;
        }
        self.depth += 1;
        let e = self.parse_assign(allow_struct);
        self.depth -= 1;
        e
    }

    fn parse_assign(&mut self, allow_struct: bool) -> Expr {
        let lhs = self.parse_range(allow_struct);
        if let Some(t) = self.peek() {
            if t.kind == TokKind::Punct
                && matches!(
                    t.text.as_str(),
                    "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>="
                )
            {
                let op = t.text.clone();
                let line = t.line;
                self.pos += 1;
                let rhs = self.parse_expr(allow_struct);
                return Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                };
            }
        }
        lhs
    }

    fn parse_range(&mut self, allow_struct: bool) -> Expr {
        let lhs = self.parse_binary(0, allow_struct);
        if let Some(t) = self.peek() {
            if t.kind == TokKind::Punct && (t.text == ".." || t.text == "..=") {
                let op = t.text.clone();
                let line = t.line;
                self.pos += 1;
                // Open-ended range: `a..` — only parse a RHS when one
                // can start here.
                if self.can_start_expr() {
                    let rhs = self.parse_binary(0, allow_struct);
                    return Expr::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        line,
                    };
                }
                return Expr::Unary {
                    op,
                    expr: Box::new(lhs),
                };
            }
        }
        lhs
    }

    fn can_start_expr(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => match t.kind {
                TokKind::Ident => !matches!(t.text.as_str(), "in" | "else" | "where" | "as"),
                TokKind::Int | TokKind::Float | TokKind::Str => true,
                TokKind::Lifetime => false,
                TokKind::Punct => matches!(
                    t.text.as_str(),
                    "(" | "[" | "{" | "-" | "!" | "*" | "&" | "|" | "||" | ".."
                ),
            },
        }
    }

    /// Binary operator precedence (higher binds tighter).
    fn bin_prec(op: &str) -> Option<u8> {
        Some(match op {
            "||" => 1,
            "&&" => 2,
            "==" | "!=" | "<" | ">" | "<=" | ">=" => 3,
            "|" => 4,
            "^" => 5,
            "&" => 6,
            "<<" | ">>" => 7,
            "+" | "-" => 8,
            "*" | "/" | "%" => 9,
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_prec: u8, allow_struct: bool) -> Expr {
        let mut lhs = self.parse_unary(allow_struct);
        loop {
            let Some(t) = self.peek() else { return lhs };
            if t.kind != TokKind::Punct {
                return lhs;
            }
            let Some(prec) = Self::bin_prec(&t.text) else {
                return lhs;
            };
            if prec < min_prec {
                return lhs;
            }
            let op = t.text.clone();
            let line = t.line;
            self.pos += 1;
            if !self.can_start_expr() {
                // `x & ` at EOF or before a closer: treat as unary-ish.
                return Expr::Unary {
                    op,
                    expr: Box::new(lhs),
                };
            }
            let rhs = self.parse_binary(prec + 1, allow_struct);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
    }

    fn parse_unary(&mut self, allow_struct: bool) -> Expr {
        if let Some(t) = self.peek() {
            if t.kind == TokKind::Punct && matches!(t.text.as_str(), "-" | "!" | "*" | "&") {
                let mut op = t.text.clone();
                self.pos += 1;
                // Preserve `&mut` (the capture analysis needs it); other
                // `mut`-after-op forms are still silently eaten.
                if self.eat_ident("mut") && op == "&" {
                    op.push_str("mut");
                }
                if !self.can_start_expr() {
                    return Expr::Opaque;
                }
                let expr = self.parse_unary(allow_struct);
                return Expr::Unary {
                    op,
                    expr: Box::new(expr),
                };
            }
        }
        self.parse_postfix(allow_struct)
    }

    fn parse_postfix(&mut self, allow_struct: bool) -> Expr {
        let mut expr = self.parse_primary(allow_struct);
        loop {
            let Some(t) = self.peek() else { return expr };
            if t.kind != TokKind::Punct {
                // `expr as Type`
                if t.kind == TokKind::Ident && t.text == "as" {
                    self.pos += 1;
                    self.skip_cast_type();
                    expr = Expr::Cast {
                        expr: Box::new(expr),
                    };
                    continue;
                }
                return expr;
            }
            match t.text.as_str() {
                "." => {
                    let Some(next) = self.peek_at(1) else {
                        self.pos += 1;
                        return expr;
                    };
                    match next.kind {
                        TokKind::Ident if next.text == "await" => {
                            self.pos += 2;
                        }
                        TokKind::Ident => {
                            let method = next.text.clone();
                            let line = next.line;
                            self.pos += 2;
                            // Optional turbofish `::<…>`.
                            if self.at_punct("::") && self.peek_at(1).is_some_and(|t| t.text == "<")
                            {
                                self.pos += 1;
                                self.skip_generics();
                            }
                            if self.at_punct("(") {
                                let args = self.parse_call_args();
                                expr = Expr::MethodCall {
                                    recv: Box::new(expr),
                                    method,
                                    args,
                                    line,
                                };
                            } else {
                                expr = Expr::Field {
                                    recv: Box::new(expr),
                                    name: method,
                                    line,
                                };
                            }
                        }
                        TokKind::Int => {
                            // tuple index `.0`
                            let name = next.text.clone();
                            let line = next.line;
                            self.pos += 2;
                            expr = Expr::Field {
                                recv: Box::new(expr),
                                name,
                                line,
                            };
                        }
                        _ => {
                            self.pos += 1;
                        }
                    }
                }
                "(" => {
                    let line = t.line;
                    let args = self.parse_call_args();
                    expr = Expr::Call {
                        callee: Box::new(expr),
                        args,
                        line,
                    };
                }
                "[" => {
                    self.pos += 1;
                    let index = if self.at_punct("]") {
                        Expr::Opaque
                    } else {
                        self.parse_expr(true)
                    };
                    self.skip_until_top("]");
                    expr = Expr::Index {
                        recv: Box::new(expr),
                        index: Box::new(index),
                    };
                }
                "?" => {
                    self.pos += 1;
                }
                _ => return expr,
            }
        }
    }

    /// Parses `(a, b, …)` call arguments, assuming the cursor is at `(`.
    fn parse_call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        if !self.eat_punct("(") {
            return args;
        }
        loop {
            match self.peek() {
                None => return args,
                Some(t) if t.kind == TokKind::Punct && t.text == ")" => {
                    self.pos += 1;
                    return args;
                }
                _ => {}
            }
            let before = self.pos;
            args.push(self.parse_expr(true));
            self.eat_punct(",");
            if self.pos == before {
                self.pos += 1; // unparseable token: recover
            }
        }
    }

    /// Parses closure parameters, assuming the cursor is just past the
    /// opening `|`. Collects the bound identifiers best-effort —
    /// including those inside tuple/struct patterns, skipping
    /// `mut`/`ref`/`_` — and stops after the closing `|` at depth 0.
    /// Type-annotation text after a `:` is skimmed, not collected (a
    /// type name must not masquerade as a binding).
    fn parse_closure_params(&mut self) -> Vec<String> {
        let mut params = Vec::new();
        let mut depth = 0usize; // (), [], {} nesting inside patterns
        let mut in_type = false; // between `:` and the next `,` at depth 0
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "|" if depth == 0 => {
                        self.pos += 1;
                        return params;
                    }
                    "(" | "[" | "{" => {
                        if in_type {
                            self.skim_group_or_token();
                            continue;
                        }
                        depth += 1;
                    }
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            return params; // runaway: an enclosing closer
                        }
                        depth -= 1;
                    }
                    ";" if depth == 0 => return params, // runaway
                    ":" if depth == 0 => in_type = true,
                    "," if depth == 0 => in_type = false,
                    "<" if in_type => {
                        self.skip_generics();
                        continue;
                    }
                    _ => {}
                }
            } else if t.kind == TokKind::Ident
                && !in_type
                && !matches!(t.text.as_str(), "mut" | "ref" | "_" | "move")
            {
                params.push(t.text.clone());
            }
            self.pos += 1;
        }
        params
    }

    /// Best-effort type skipping after `as` (stops at any token that
    /// cannot continue a type).
    fn skip_cast_type(&mut self) {
        while let Some(t) = self.peek() {
            match t.kind {
                TokKind::Ident
                    if !matches!(t.text.as_str(), "as" | "in" | "else" | "if" | "match") =>
                {
                    self.pos += 1;
                }
                TokKind::Lifetime => self.pos += 1,
                TokKind::Punct => match t.text.as_str() {
                    "::" | "&" | "*" => self.pos += 1,
                    "<" => self.skip_generics(),
                    _ => return,
                },
                _ => return,
            }
        }
    }

    fn parse_primary(&mut self, allow_struct: bool) -> Expr {
        let Some(t) = self.peek() else {
            return Expr::Opaque;
        };
        let line = t.line;
        match t.kind {
            TokKind::Int | TokKind::Float | TokKind::Str => {
                self.pos += 1;
                Expr::Lit { line }
            }
            TokKind::Lifetime => {
                // Loop label `'a: loop { … }` — skip label and colon.
                self.pos += 1;
                self.eat_punct(":");
                self.parse_primary(allow_struct)
            }
            TokKind::Punct => match t.text.as_str() {
                "(" => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    loop {
                        match self.peek() {
                            None => break,
                            Some(t) if t.kind == TokKind::Punct && t.text == ")" => {
                                self.pos += 1;
                                break;
                            }
                            _ => {}
                        }
                        let before = self.pos;
                        items.push(self.parse_expr(true));
                        self.eat_punct(",");
                        if self.pos == before {
                            self.pos += 1;
                        }
                    }
                    if items.len() == 1 {
                        match items.pop() {
                            Some(e) => e,
                            None => Expr::Opaque,
                        }
                    } else {
                        Expr::Tuple(items)
                    }
                }
                "[" => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    loop {
                        match self.peek() {
                            None => break,
                            Some(t) if t.kind == TokKind::Punct && t.text == "]" => {
                                self.pos += 1;
                                break;
                            }
                            _ => {}
                        }
                        let before = self.pos;
                        items.push(self.parse_expr(true));
                        // `[x; n]` repeat syntax or `,` separators.
                        if !self.eat_punct(",") {
                            self.eat_punct(";");
                        }
                        if self.pos == before {
                            self.pos += 1;
                        }
                    }
                    Expr::Array(items)
                }
                "{" => {
                    self.pos += 1;
                    Expr::BlockExpr(self.parse_block_inner())
                }
                "|" | "||" => {
                    // Closure args.
                    let mut params = Vec::new();
                    if t.text == "||" {
                        self.pos += 1;
                    } else {
                        self.pos += 1;
                        params = self.parse_closure_params();
                    }
                    // Optional `-> Type` before a braced body.
                    if self.eat_punct("->") {
                        self.skip_type(&["{"]);
                    }
                    let body = self.parse_expr(true);
                    Expr::Closure {
                        params,
                        body: Box::new(body),
                        line,
                    }
                }
                ".." | "..=" => {
                    // RangeTo / full range.
                    let op = t.text.clone();
                    self.pos += 1;
                    if self.can_start_expr() {
                        let rhs = self.parse_binary(0, allow_struct);
                        Expr::Unary {
                            op,
                            expr: Box::new(rhs),
                        }
                    } else {
                        Expr::Opaque
                    }
                }
                _ => {
                    self.pos += 1; // unknown punct: consume and give up
                    Expr::Opaque
                }
            },
            TokKind::Ident => match t.text.as_str() {
                "if" => {
                    self.pos += 1;
                    self.parse_if()
                }
                "while" => {
                    self.pos += 1;
                    self.skip_let_pattern();
                    let cond = self.parse_expr(false);
                    let body = if self.eat_punct("{") {
                        self.parse_block_inner()
                    } else {
                        Block::default()
                    };
                    Expr::While {
                        cond: Some(Box::new(cond)),
                        body,
                    }
                }
                "loop" => {
                    self.pos += 1;
                    let body = if self.eat_punct("{") {
                        self.parse_block_inner()
                    } else {
                        Block::default()
                    };
                    Expr::While { cond: None, body }
                }
                "for" => {
                    self.pos += 1;
                    let pat = self.parse_for_pattern();
                    let iter = if self.can_start_expr() {
                        self.parse_expr(false)
                    } else {
                        Expr::Opaque
                    };
                    let body = if self.eat_punct("{") {
                        self.parse_block_inner()
                    } else {
                        Block::default()
                    };
                    Expr::For {
                        pat,
                        iter: Box::new(iter),
                        body,
                        line,
                    }
                }
                "match" => {
                    self.pos += 1;
                    let scrutinee = self.parse_expr(false);
                    let arms = if self.eat_punct("{") {
                        self.parse_match_arms()
                    } else {
                        Vec::new()
                    };
                    Expr::Match {
                        scrutinee: Box::new(scrutinee),
                        arms,
                    }
                }
                "unsafe" | "async" => {
                    self.pos += 1;
                    self.eat_ident("move");
                    if self.eat_punct("{") {
                        Expr::BlockExpr(self.parse_block_inner())
                    } else {
                        self.parse_primary(allow_struct)
                    }
                }
                "move" => {
                    self.pos += 1;
                    self.parse_primary(allow_struct)
                }
                "return" | "break" => {
                    self.pos += 1;
                    // Optional label on break.
                    if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.pos += 1;
                    }
                    let expr = if self.can_start_expr() {
                        Some(Box::new(self.parse_expr(allow_struct)))
                    } else {
                        None
                    };
                    Expr::Jump { expr }
                }
                "continue" => {
                    self.pos += 1;
                    if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.pos += 1;
                    }
                    Expr::Jump { expr: None }
                }
                "let" => {
                    // `let Pat = expr` inside a condition chain.
                    self.pos += 1;
                    self.skip_until_condition_eq();
                    if self.can_start_expr() {
                        self.parse_expr(false)
                    } else {
                        Expr::Opaque
                    }
                }
                _ => self.parse_path_like(allow_struct),
            },
        }
    }

    /// After `if`: condition (struct literals off), then block, optional
    /// `else` / `else if` chain.
    fn parse_if(&mut self) -> Expr {
        self.skip_let_pattern();
        let cond = if self.can_start_expr() {
            self.parse_expr(false)
        } else {
            Expr::Opaque
        };
        let then = if self.eat_punct("{") {
            self.parse_block_inner()
        } else {
            Block::default()
        };
        let els = if self.eat_ident("else") {
            if self.at_ident("if") {
                self.pos += 1;
                let nested = self.parse_if();
                Some(Block {
                    stmts: vec![Stmt::Expr(nested)],
                })
            } else if self.eat_punct("{") {
                Some(self.parse_block_inner())
            } else {
                None
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            then,
            els,
        }
    }

    /// If the cursor is at `let` (an `if let` / `while let` head), skips
    /// the pattern through the `=`.
    fn skip_let_pattern(&mut self) {
        if !self.at_ident("let") {
            return;
        }
        self.pos += 1;
        self.skip_until_condition_eq();
    }

    /// Skips pattern tokens until a top-level `=` (consumed).
    fn skip_until_condition_eq(&mut self) {
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "=" => {
                        self.pos += 1;
                        return;
                    }
                    "(" | "[" | "{" => {
                        self.skim_group_or_token();
                        continue;
                    }
                    ";" | ")" | "}" => return, // runaway pattern
                    "<" => {
                        self.skip_generics();
                        continue;
                    }
                    _ => {}
                }
            }
            self.pos += 1;
        }
    }

    /// For-loop pattern: collect bound identifiers until `in` at depth 0.
    fn parse_for_pattern(&mut self) -> Vec<String> {
        let mut pat = Vec::new();
        while let Some(t) = self.peek() {
            match t.kind {
                TokKind::Ident if t.text == "in" => {
                    self.pos += 1;
                    return pat;
                }
                TokKind::Ident => {
                    if !matches!(t.text.as_str(), "mut" | "ref" | "_") {
                        pat.push(t.text.clone());
                    }
                    self.pos += 1;
                }
                TokKind::Punct => match t.text.as_str() {
                    ";" | "{" | "}" => return pat, // runaway
                    _ => {
                        self.pos += 1;
                    }
                },
                _ => {
                    self.pos += 1;
                }
            }
        }
        pat
    }

    /// Match arms until the closing `}` (consumed): skips each pattern
    /// to its `=>`, parses the arm value.
    fn parse_match_arms(&mut self) -> Vec<Expr> {
        let mut arms = Vec::new();
        loop {
            match self.peek() {
                None => return arms,
                Some(t) if t.kind == TokKind::Punct && t.text == "}" => {
                    self.pos += 1;
                    return arms;
                }
                _ => {}
            }
            let before = self.pos;
            // Pattern (and optional `if` guard) through `=>`. In a guard
            // `<` compares; skipping it as generics would run away.
            let mut found_arrow = false;
            let mut in_guard = false;
            while let Some(t) = self.peek() {
                in_guard |= t.kind == TokKind::Ident && t.text == "if";
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "=>" => {
                            self.pos += 1;
                            found_arrow = true;
                            break;
                        }
                        "(" | "[" | "{" => {
                            self.skim_group_or_token();
                            continue;
                        }
                        "}" => break, // end of match body
                        "<" if !in_guard => {
                            self.skip_generics();
                            continue;
                        }
                        _ => {}
                    }
                }
                self.pos += 1;
            }
            if found_arrow {
                let arm = if self.eat_punct("{") {
                    Expr::BlockExpr(self.parse_block_inner())
                } else if self.can_start_expr() {
                    self.parse_expr(true)
                } else {
                    Expr::Opaque
                };
                arms.push(arm);
                self.eat_punct(",");
            }
            if self.pos == before {
                self.pos += 1;
            }
        }
    }

    /// A path (`a::b::c`, with turbofish segments skipped), possibly
    /// continuing into a struct literal or macro call.
    fn parse_path_like(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        let mut segs: Vec<String> = Vec::new();
        // Leading `::`.
        self.eat_punct("::");
        loop {
            match self.peek() {
                Some(t) if t.kind == TokKind::Ident => {
                    segs.push(t.text.clone());
                    self.pos += 1;
                }
                _ => break,
            }
            if self.at_punct("::") {
                // `::<…>` turbofish or `::ident`.
                if self.peek_at(1).is_some_and(|t| t.text == "<") {
                    self.pos += 1;
                    self.skip_generics();
                    if !self.at_punct("::") {
                        break;
                    }
                    self.pos += 1;
                    continue;
                }
                self.pos += 1;
                continue;
            }
            break;
        }
        if segs.is_empty() {
            // Bare `::` or nothing parseable.
            return Expr::Opaque;
        }
        // Macro call `path!(…)`.
        if self.at_punct("!") {
            let delim_ok = self
                .peek_at(1)
                .is_some_and(|t| matches!(t.text.as_str(), "(" | "[" | "{"));
            if delim_ok {
                self.pos += 1; // `!`
                let args = self.parse_macro_args();
                return Expr::MacroCall { segs, args, line };
            }
        }
        // Struct literal `Path { … }`.
        if allow_struct && self.at_punct("{") && Self::path_could_be_type(&segs) {
            self.pos += 1;
            let fields = self.parse_struct_lit_fields();
            return Expr::StructLit { segs, fields, line };
        }
        Expr::Path { segs, line }
    }

    /// Heuristic: struct-literal paths start with an upper-case segment
    /// somewhere (`Foo`, `mod::Foo`) or are `Self`.
    fn path_could_be_type(segs: &[String]) -> bool {
        segs.iter()
            .any(|s| s.chars().next().is_some_and(|c| c.is_uppercase()))
    }

    /// `{ field: expr, ..base }` — assumes `{` consumed; consumes `}`.
    fn parse_struct_lit_fields(&mut self) -> Vec<Expr> {
        let mut fields = Vec::new();
        loop {
            match self.peek() {
                None => return fields,
                Some(t) if t.kind == TokKind::Punct && t.text == "}" => {
                    self.pos += 1;
                    return fields;
                }
                _ => {}
            }
            let before = self.pos;
            if self.at_punct("..") {
                self.pos += 1;
                if self.can_start_expr() {
                    fields.push(self.parse_expr(true));
                }
            } else if self.peek().is_some_and(|t| t.kind == TokKind::Ident)
                && self.peek_at(1).is_some_and(|t| t.text == ":")
            {
                self.pos += 2;
                fields.push(self.parse_expr(true));
            } else if self.peek().is_some_and(|t| t.kind == TokKind::Ident)
                && self
                    .peek_at(1)
                    .is_some_and(|t| t.text == "," || t.text == "}")
            {
                // Shorthand `field`.
                let line = self.line();
                let name = self.bump_ident_text();
                fields.push(Expr::Path {
                    segs: vec![name],
                    line,
                });
            } else {
                self.skip_until_top(",");
                if self.pos == before {
                    self.pos += 1;
                }
                continue;
            }
            self.eat_punct(",");
            if self.pos == before {
                self.pos += 1;
            }
        }
    }

    /// Macro arguments: the delimited group parsed as a best-effort
    /// comma-separated expression list.
    fn parse_macro_args(&mut self) -> Vec<Expr> {
        let close = match self.peek() {
            Some(t) if t.kind == TokKind::Punct => match t.text.as_str() {
                "(" => ")",
                "[" => "]",
                "{" => "}",
                _ => return Vec::new(),
            },
            _ => return Vec::new(),
        };
        self.pos += 1;
        let mut args = Vec::new();
        loop {
            match self.peek() {
                None => return args,
                Some(t) if t.kind == TokKind::Punct && t.text == close => {
                    self.pos += 1;
                    return args;
                }
                _ => {}
            }
            let before = self.pos;
            if self.can_start_expr() {
                args.push(self.parse_expr(true));
            }
            // Recover to the next comma or the closing delimiter.
            while let Some(t) = self.peek() {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "," => {
                            self.pos += 1;
                            break;
                        }
                        s if s == close => break,
                        "(" | "[" | "{" => {
                            self.skim_group_or_token();
                            continue;
                        }
                        ")" | "]" | "}" => break, // mismatched closer
                        _ => {}
                    }
                }
                self.pos += 1;
            }
            if self.pos == before {
                self.pos += 1;
            }
        }
    }

    fn bump_ident_text(&mut self) -> String {
        match self.peek() {
            Some(t) if t.kind == TokKind::Ident => {
                let s = t.text.clone();
                self.pos += 1;
                s
            }
            _ => String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{walk_block, walk_fns, ItemKind};

    fn first_fn(src: &str) -> Item {
        let file = parse_source(src);
        let mut found = None;
        crate::ast::walk_fns(&file.items, &mut |f| {
            if found.is_none() {
                found = Some(f.clone());
            }
        });
        match found {
            Some(f) => f,
            None => unreachable!("fixture source must contain a fn"),
        }
    }

    fn body_exprs(src: &str) -> Vec<Expr> {
        let f = first_fn(src);
        let mut out = Vec::new();
        if let Some(b) = &f.body {
            walk_block(b, &mut |e| out.push(e.clone()));
        }
        out
    }

    #[test]
    fn fn_signature_and_params() {
        let f = first_fn("pub fn decide(x: f64, q: &mut Vec<f64>) -> f64 { x }");
        assert_eq!(f.name, "decide");
        assert_eq!(f.params, ["x", "q"]);
    }

    #[test]
    fn items_nest_through_mods_and_impls() {
        let file = parse_source(
            "mod a { pub struct S { x: f64 } impl S { fn get(&self) -> f64 { self.x } } }",
        );
        assert_eq!(file.items.len(), 1);
        assert_eq!(file.items[0].kind, ItemKind::Mod);
        let inner = &file.items[0].children;
        assert_eq!(inner.len(), 2);
        assert_eq!(inner[0].kind, ItemKind::Struct);
        assert_eq!(inner[1].kind, ItemKind::Impl);
        assert_eq!(inner[1].children[0].name, "get");
    }

    #[test]
    fn calls_and_method_calls() {
        let exprs = body_exprs("fn f() { helper(1.0); x.solve(2, 3); a::b::c(); }");
        let calls: Vec<String> = exprs
            .iter()
            .filter_map(|e| match e {
                Expr::Call { callee, .. } => match callee.as_ref() {
                    Expr::Path { segs, .. } => Some(segs.join("::")),
                    _ => None,
                },
                Expr::MethodCall { method, .. } => Some(format!(".{method}")),
                _ => None,
            })
            .collect();
        assert!(calls.contains(&"helper".to_string()));
        assert!(calls.contains(&".solve".to_string()));
        assert!(calls.contains(&"a::b::c".to_string()));
    }

    #[test]
    fn for_loop_over_method_call() {
        let exprs = body_exprs("fn f(m: &M) { for (k, v) in m.entries.iter() { use_it(k, v); } }");
        let fors: Vec<&Expr> = exprs
            .iter()
            .filter(|e| matches!(e, Expr::For { .. }))
            .collect();
        assert_eq!(fors.len(), 1);
        match fors[0] {
            Expr::For { pat, iter, .. } => {
                assert_eq!(pat, &vec!["k".to_string(), "v".to_string()]);
                assert!(
                    matches!(iter.as_ref(), Expr::MethodCall { method, .. } if method == "iter")
                );
            }
            _ => unreachable!(),
        }
        // The loop body's call is visible too.
        assert!(exprs.iter().any(
            |e| matches!(e, Expr::Call { callee, .. } if matches!(callee.as_ref(), Expr::Path { segs, .. } if segs == &vec!["use_it".to_string()]))
        ));
    }

    #[test]
    fn binary_ops_with_lines() {
        let exprs = body_exprs("fn f(a_s: f64, b_ms: f64) -> f64 {\n    a_s + b_ms\n}");
        let bins: Vec<&Expr> = exprs
            .iter()
            .filter(|e| matches!(e, Expr::Binary { .. }))
            .collect();
        assert_eq!(bins.len(), 1);
        match bins[0] {
            Expr::Binary { op, lhs, rhs, line } => {
                assert_eq!(op, "+");
                assert_eq!(*line, 2);
                assert!(matches!(lhs.as_ref(), Expr::Path { segs, .. } if segs[0] == "a_s"));
                assert!(matches!(rhs.as_ref(), Expr::Path { segs, .. } if segs[0] == "b_ms"));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn precedence_binds_mul_over_add() {
        let exprs = body_exprs("fn f(a: f64, b: f64, c: f64) -> f64 { a + b * c }");
        let top = exprs
            .iter()
            .find(|e| matches!(e, Expr::Binary { op, .. } if op == "+"));
        match top {
            Some(Expr::Binary { rhs, .. }) => {
                assert!(matches!(rhs.as_ref(), Expr::Binary { op, .. } if op == "*"));
            }
            _ => unreachable!("expected a + (b * c)"),
        }
    }

    #[test]
    fn let_captures_name_and_init() {
        let f = first_fn("fn f() { let m: HashMap<String, u64> = HashMap::new(); }");
        let body = match &f.body {
            Some(b) => b,
            None => unreachable!(),
        };
        match &body.stmts[0] {
            Stmt::Let { name, init, .. } => {
                assert_eq!(name, "m");
                assert!(matches!(
                    init,
                    Some(Expr::Call { callee, .. })
                        if matches!(callee.as_ref(), Expr::Path { segs, .. } if segs == &vec!["HashMap".to_string(), "new".to_string()])
                ));
            }
            other => unreachable!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn turbofish_collect_is_captured() {
        let exprs =
            body_exprs("fn f(v: Vec<u64>) { let _m = v.iter().collect::<HashMap<u64, u64>>(); }");
        // The turbofish is skipped, not mistaken for a path or a
        // comparison: the call on `v.iter()` survives with its receiver.
        let collected = exprs.iter().find_map(|e| match e {
            Expr::MethodCall {
                method, recv, args, ..
            } if method == "collect" => Some((recv.clone(), args.len())),
            _ => None,
        });
        assert!(
            collected.is_some_and(|(recv, n)| n == 0
                && matches!(recv.as_ref(), Expr::MethodCall { method, .. } if method == "iter")),
            "{exprs:?}"
        );
    }

    #[test]
    fn if_else_chain_and_match() {
        let exprs = body_exprs(
            "fn f(x: u32) -> u32 { if x > 1 { a() } else if x > 0 { b() } else { c() } }",
        );
        assert!(
            exprs
                .iter()
                .filter(|e| matches!(e, Expr::If { .. }))
                .count()
                >= 2
        );
        let exprs2 = body_exprs(
            "fn g(x: Option<u32>) -> u32 { match x { Some(v) if v > 2 => v, Some(_) => d(), None => 0 } }",
        );
        let arms = exprs2.iter().find_map(|e| match e {
            Expr::Match { arms, .. } => Some(arms.len()),
            _ => None,
        });
        assert_eq!(arms, Some(3));
        assert!(exprs2.iter().any(
            |e| matches!(e, Expr::Call { callee, .. } if matches!(callee.as_ref(), Expr::Path { segs, .. } if segs == &vec!["d".to_string()]))
        ));
    }

    #[test]
    fn struct_literal_versus_block() {
        let exprs = body_exprs("fn f() -> P { P { x: g(), y: 2.0 } }");
        assert!(exprs.iter().any(|e| matches!(e, Expr::StructLit { .. })));
        assert!(exprs.iter().any(
            |e| matches!(e, Expr::Call { callee, .. } if matches!(callee.as_ref(), Expr::Path { segs, .. } if segs == &vec!["g".to_string()]))
        ));
        // In a condition, `{` opens the block, not a struct literal.
        let exprs2 = body_exprs("fn h(c: C) { if c.ready { act(); } }");
        assert!(exprs2.iter().any(|e| matches!(e, Expr::If { .. })));
        assert!(exprs2.iter().any(
            |e| matches!(e, Expr::Call { callee, .. } if matches!(callee.as_ref(), Expr::Path { segs, .. } if segs == &vec!["act".to_string()]))
        ));
    }

    #[test]
    fn closures_and_macros_expose_inner_calls() {
        let exprs = body_exprs("fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }");
        assert!(exprs
            .iter()
            .any(|e| matches!(e, Expr::MethodCall { method, .. } if method == "total_cmp")));
        let exprs2 = body_exprs("fn g(x: f64) { record!(compute(x), \"label\"); }");
        assert!(exprs2.iter().any(
            |e| matches!(e, Expr::Call { callee, .. } if matches!(callee.as_ref(), Expr::Path { segs, .. } if segs == &vec!["compute".to_string()]))
        ));
    }

    #[test]
    fn match_guard_comparison_does_not_swallow_later_items() {
        let file = parse_source(
            "impl T { fn a(x: f64) -> u32 { match x { y if y < 1.0 => 1, _ => 0 } }\n\
             fn b() -> u32 { 2 } }",
        );
        let mut names = Vec::new();
        walk_fns(&file.items, &mut |f| names.push(f.name.clone()));
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn move_closure_keeps_params_and_body() {
        let exprs = body_exprs("fn f(n: u32) { spawn(move |i, x| helper(i + n, x)); }");
        let closure = exprs.iter().find_map(|e| match e {
            Expr::Closure { params, body, .. } => Some((params.clone(), body.clone())),
            _ => None,
        });
        match closure {
            Some((params, body)) => {
                assert_eq!(params, ["i", "x"]);
                assert!(matches!(body.as_ref(), Expr::Call { .. }), "{body:?}");
            }
            None => unreachable!("no closure in {exprs:?}"),
        }
    }

    #[test]
    fn trait_methods_with_and_without_bodies() {
        let file = parse_source(
            "pub trait C { fn decide(&self) -> f64; fn helper(&self) -> f64 { self.decide() } }",
        );
        let t = &file.items[0];
        assert_eq!(t.kind, ItemKind::Trait);
        assert_eq!(t.children.len(), 2);
        assert!(t.children[0].body.is_none());
        assert!(t.children[1].body.is_some());
    }

    #[test]
    fn opaque_recovery_keeps_going() {
        // Deliberately weird stream: parser must survive and still see g().
        let exprs = body_exprs("fn f() { @ # $ ; g(); }");
        assert!(exprs.iter().any(
            |e| matches!(e, Expr::Call { callee, .. } if matches!(callee.as_ref(), Expr::Path { segs, .. } if segs == &vec!["g".to_string()]))
        ));
    }

    #[test]
    fn deep_nesting_terminates() {
        let mut src = String::from("fn f() { ");
        for _ in 0..500 {
            src.push_str("(1 + ");
        }
        src.push('1');
        for _ in 0..500 {
            src.push(')');
        }
        src.push_str(" ; }");
        let _ = parse_source(&src); // must not overflow the stack
        let mut blocks = String::from("fn g() ");
        for _ in 0..300 {
            blocks.push('{');
        }
        for _ in 0..300 {
            blocks.push('}');
        }
        let _ = parse_source(&blocks);
    }

    #[test]
    fn unbalanced_input_terminates() {
        let _ = parse_source("fn f( { ) } ] [ } } } fn g() { h( }");
        let _ = parse_source("{{{{{{");
        let _ = parse_source("))))))");
        let _ = parse_source("fn");
        let _ = parse_source("let x = ");
        let _ = parse_source("match { => , => }");
    }
}
