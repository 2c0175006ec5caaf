//! The simplified syntax tree produced by [`crate::parser`].
//!
//! This is deliberately *not* a faithful Rust AST: it models exactly the
//! structure the S-rules need — item nesting, function signatures
//! and bodies, call/method-call/field/binary expressions, loops and the
//! blocks they own — and collapses everything else into
//! [`Expr::Opaque`]. Types are skipped; patterns are kept as the single
//! bound identifier when there is one.

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free, impl or trait method with a body).
    Fn,
    /// `struct` definition.
    Struct,
    /// `enum` definition.
    Enum,
    /// `trait` block (children are its methods).
    Trait,
    /// `impl` block (children are its methods).
    Impl,
    /// `mod name { … }` (children are its items).
    Mod,
    /// `use …;`
    Use,
    /// `const` / `static` item.
    Const,
    /// Anything else (`type`, `extern`, `macro_rules!`, …).
    Other,
}

/// One item: a function, type, module, impl block, …
#[derive(Debug, Clone)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Item name (`fn decide` → `decide`; impl blocks use the flattened
    /// self-type text; empty when anonymous).
    pub name: String,
    /// 1-based line of the introducing keyword.
    pub line: u32,
    /// Nested items (mod/impl/trait bodies).
    pub children: Vec<Item>,
    /// Function parameter names (simple `name: Type` parameters only);
    /// empty otherwise.
    pub params: Vec<String>,
    /// Function body (or const/static initializer wrapped in a block).
    pub body: Option<Block>,
    /// Whether the item carried a `#[cfg(test)]` / `#[test]` attribute;
    /// rules skip such items (and everything nested inside them).
    pub cfg_test: bool,
}

impl Item {
    /// A bare item of `kind` named `name` at `line`.
    pub fn new(kind: ItemKind, name: impl Into<String>, line: u32) -> Self {
        Item {
            kind,
            name: name.into(),
            line,
            children: Vec::new(),
            params: Vec::new(),
            body: None,
            cfg_test: false,
        }
    }
}

/// A `{ … }` block: a sequence of statements.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `let name: ty = init;` — `name` empty for destructuring patterns.
    Let {
        /// Bound identifier (empty for tuple/struct patterns).
        name: String,
        /// Initializer expression, if any.
        init: Option<Expr>,
        /// 1-based line of the `let`.
        line: u32,
    },
    /// An expression statement.
    Expr(Expr),
    /// A nested item (inner `fn`, `use`, …).
    Item(Item),
}

/// One (simplified) expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A path: `x`, `self.x` is *not* a path (see [`Expr::Field`]),
    /// `invariant::check_simplex` → `["invariant", "check_simplex"]`.
    Path {
        /// `::`-separated segments.
        segs: Vec<String>,
        /// 1-based line of the first segment.
        line: u32,
    },
    /// A literal (number, string, char, bool is a Path).
    Lit {
        /// 1-based line.
        line: u32,
    },
    /// `callee(args…)`.
    Call {
        /// The called expression (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line of the opening paren.
        line: u32,
    },
    /// `recv.method::<T>(args…)` (the turbofish is skipped).
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line of the method name.
        line: u32,
    },
    /// `recv.field` / `recv.0`.
    Field {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Field name (or tuple index text).
        name: String,
        /// 1-based line of the field name.
        line: u32,
    },
    /// `recv[index]`.
    Index {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `lhs op rhs` (including `+=`-style compound assignment and ranges).
    Binary {
        /// Operator text (`+`, `<=`, `+=`, `..`, …).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// 1-based line of the operator.
        line: u32,
    },
    /// `op expr` (`-x`, `!x`, `&x`, `*x`, `..x`).
    Unary {
        /// Operator text.
        op: String,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr as Type` (the type is skipped).
    Cast {
        /// The cast expression.
        expr: Box<Expr>,
    },
    /// `for pat in iter { body }`.
    For {
        /// Bound identifier(s) of the loop pattern (best effort).
        pat: Vec<String>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
        /// 1-based line of the `for`.
        line: u32,
    },
    /// `if cond { then } else { els }` (also `if let`; the pattern is
    /// dropped, the scrutinee becomes `cond`).
    If {
        /// Condition or `if let` scrutinee.
        cond: Box<Expr>,
        /// Then-block.
        then: Block,
        /// Else-block (an `else if` chain nests as an `If` expression
        /// statement inside this block).
        els: Option<Block>,
    },
    /// `while cond { body }` / `while let … { body }` / `loop { body }`
    /// (for `loop`, `cond` is `None`).
    While {
        /// Condition, if any.
        cond: Option<Box<Expr>>,
        /// Loop body.
        body: Block,
    },
    /// `match scrutinee { arms… }`; arm patterns are dropped, arm values
    /// are kept.
    Match {
        /// Matched expression.
        scrutinee: Box<Expr>,
        /// Arm value expressions.
        arms: Vec<Expr>,
    },
    /// A closure: `|params…| body` / `move |params…| body`.
    Closure {
        /// Bound parameter identifiers (best effort: idents in pattern
        /// position, including inside tuple/struct patterns).
        params: Vec<String>,
        /// Closure body.
        body: Box<Expr>,
        /// 1-based line of the opening `|`.
        line: u32,
    },
    /// A block used as an expression (incl. `unsafe`/`async` blocks).
    BlockExpr(Block),
    /// A tuple `(a, b)` or parenthesized expression list.
    Tuple(Vec<Expr>),
    /// An array `[a, b]` / `[x; n]`.
    Array(Vec<Expr>),
    /// `Path { field: expr, … }`.
    StructLit {
        /// Struct path segments.
        segs: Vec<String>,
        /// Field initializer expressions (incl. a `..base`).
        fields: Vec<Expr>,
        /// 1-based line of the path.
        line: u32,
    },
    /// `name!(args…)` — arguments parsed best effort.
    MacroCall {
        /// Macro path segments.
        segs: Vec<String>,
        /// Recognizable expressions among the macro tokens.
        args: Vec<Expr>,
        /// 1-based line of the macro name.
        line: u32,
    },
    /// `return expr?` / `break expr?` / `continue`.
    Jump {
        /// Carried value, if any.
        expr: Option<Box<Expr>>,
    },
    /// Anything the parser does not model.
    Opaque,
}

/// A parsed file: its top-level items.
#[derive(Debug, Clone, Default)]
pub struct File {
    /// Items in source order.
    pub items: Vec<Item>,
}

/// Calls `f` on `expr` and every expression nested inside it, including
/// those inside owned blocks (loop bodies, match arms, closures).
pub fn walk_exprs(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    match expr {
        Expr::Call { callee, args, .. } => {
            walk_exprs(callee, f);
            for a in args {
                walk_exprs(a, f);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_exprs(recv, f);
            for a in args {
                walk_exprs(a, f);
            }
        }
        Expr::Field { recv, .. } => walk_exprs(recv, f),
        Expr::Index { recv, index } => {
            walk_exprs(recv, f);
            walk_exprs(index, f);
        }
        Expr::Binary { lhs, rhs, .. } => {
            walk_exprs(lhs, f);
            walk_exprs(rhs, f);
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Closure { body: expr, .. } => {
            walk_exprs(expr, f)
        }
        Expr::For { iter, body, .. } => {
            walk_exprs(iter, f);
            walk_block(body, f);
        }
        Expr::If { cond, then, els } => {
            walk_exprs(cond, f);
            walk_block(then, f);
            if let Some(e) = els {
                walk_block(e, f);
            }
        }
        Expr::While { cond, body } => {
            if let Some(c) = cond {
                walk_exprs(c, f);
            }
            walk_block(body, f);
        }
        Expr::Match { scrutinee, arms } => {
            walk_exprs(scrutinee, f);
            for a in arms {
                walk_exprs(a, f);
            }
        }
        Expr::BlockExpr(b) => walk_block(b, f),
        Expr::Tuple(xs) | Expr::Array(xs) => {
            for x in xs {
                walk_exprs(x, f);
            }
        }
        Expr::StructLit { fields, .. } => {
            for x in fields {
                walk_exprs(x, f);
            }
        }
        Expr::MacroCall { args, .. } => {
            for x in args {
                walk_exprs(x, f);
            }
        }
        Expr::Jump { expr: Some(e) } => walk_exprs(e, f),
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Jump { expr: None } | Expr::Opaque => {}
    }
}

/// Calls `f` on every expression in `block` (recursively), including
/// `let` initializers and nested items' bodies.
pub fn walk_block(block: &Block, f: &mut impl FnMut(&Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    walk_exprs(e, f);
                }
            }
            Stmt::Expr(e) => walk_exprs(e, f),
            Stmt::Item(item) => walk_item_exprs(item, f),
        }
    }
}

/// Calls `f` on every expression inside `item` (function bodies,
/// nested modules/impls, const initializers).
pub fn walk_item_exprs(item: &Item, f: &mut impl FnMut(&Expr)) {
    if let Some(b) = &item.body {
        walk_block(b, f);
    }
    for child in &item.children {
        walk_item_exprs(child, f);
    }
}

/// Calls `f` on every `fn` item in `items`, recursing through modules,
/// impls and traits.
pub fn walk_fns<'a>(items: &'a [Item], f: &mut impl FnMut(&'a Item)) {
    for item in items {
        if item.kind == ItemKind::Fn {
            f(item);
        }
        walk_fns(&item.children, f);
        // Nested fns inside bodies.
        if let Some(b) = &item.body {
            walk_block_fns(b, f);
        }
    }
}

fn walk_block_fns<'a>(block: &'a Block, f: &mut impl FnMut(&'a Item)) {
    for stmt in &block.stmts {
        if let Stmt::Item(item) = stmt {
            walk_fns(std::slice::from_ref(item), f);
        }
    }
}
