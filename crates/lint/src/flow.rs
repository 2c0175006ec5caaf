//! Interprocedural dataflow over the whole workspace: closure-capture
//! extraction, a merged flow graph with per-function *effect facts*
//! (allocation, blocking, RNG construction, float accumulation, lock
//! acquisition), hot-region reachability, and the S5–S9 and S12 rules
//! built on top.
//!
//! | Rule | Enforces |
//! | ---- | -------- |
//! | `S5` | no shared mutable capture across `leime-par` shard-closure boundaries |
//! | `S6` | hot-path allocation ratchet — counts only go down vs. a pinned baseline |
//! | `S7` | RNGs in `par`/`core`/`serving` derive via `leime_par::stream_seed` |
//! | `S8` | no blocking calls (locks, channel recv, sleeps) inside shard worker bodies |
//! | `S9` | float accumulations on byte-identical-contract paths go through approved ordered reductions |
//! | `S12` | no lock acquisition cycles among `Mutex`/`RwLock` paths reachable from shard bodies |
//!
//! Like the [`crate::callgraph`], the graph is *name-keyed*: same-named
//! functions merge into one node, so reachability over-approximates.
//! For S6 that direction is safe (a too-big hot set only makes the
//! pinned baseline larger, never produces a spurious regression); for
//! S5/S8 the shard-body discovery is syntactic (the closure argument of
//! a known `leime-par` entry point), which keeps the root set exact.
//!
//! Captures are computed against the *enclosing function's* bindings:
//! an identifier free in the closure body only counts as a capture when
//! the enclosing `fn` actually binds it (parameter, `let`, or loop
//! pattern). Names the parser cannot bind (match-arm patterns are
//! dropped from the AST) therefore never produce false captures.

use crate::ast::{walk_block, walk_exprs, Block, Expr, File, Item, Stmt};
use crate::parser::parse_source;
use crate::{path_matches, Finding, SemaConfig};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

// ----- closure captures ------------------------------------------------

/// How a closure uses a captured variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CaptureMode {
    /// Read through a shared borrow.
    ByRef,
    /// Written to: assigned, `&mut`-borrowed, or receiver of a mutating
    /// method.
    ByRefMut,
    /// Moved into a `move` closure (and only read there).
    ByValue,
}

/// One captured variable of a closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capture {
    /// The captured identifier.
    pub name: String,
    /// How the closure uses it.
    pub mode: CaptureMode,
    /// 1-based line of the first use inside the closure body.
    pub line: u32,
}

/// Methods that mutate their receiver (a receiver capture becomes
/// [`CaptureMode::ByRefMut`]). Deliberately conservative: read-mostly
/// methods stay out so shared-read captures keep their `ByRef` mode.
const MUTATING_METHODS: &[&str] = &[
    "push",
    "push_str",
    "push_back",
    "push_front",
    "pop",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "clear",
    "extend",
    "extend_from_slice",
    "truncate",
    "retain",
    "drain",
    "append",
    "resize",
    "fill",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "split_off",
    "get_mut",
    "iter_mut",
    "values_mut",
    "take",
    "replace",
    "set",
];

/// Interior-mutability / synchronization methods: using one of these on
/// a *captured* variable inside a shard body is exactly the shared
/// mutable state S5 bans (`RefCell::borrow_mut`, `Mutex::lock`,
/// `Relaxed` atomics, channels).
const INTERIOR_MUT_METHODS: &[&str] = &[
    "lock",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "send",
    "recv",
];

/// Lock-acquisition methods (S12). `.lock()` covers `Mutex`;
/// `.read()` / `.write()` cover `RwLock` — matched only with zero
/// arguments so `io::Read` / `io::Write` calls stay out.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// The dotted path a lock acquisition hangs off: `self.state.lock()`
/// → `self.state`, `GLOBAL.read()` → `GLOBAL`. Lock identity for the
/// S12 order graph.
fn lock_path(e: &Expr) -> Option<String> {
    match e {
        Expr::Path { segs, .. } => Some(segs.join("::")),
        Expr::Field { recv, name, .. } => Some(format!("{}.{name}", lock_path(recv)?)),
        Expr::Index { recv, .. } => Some(format!("{}[..]", lock_path(recv)?)),
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => lock_path(expr),
        _ => None,
    }
}

/// Calls that block the calling thread (S8). Lock acquisition doubles
/// as interior mutability above; here the concern is stalling a shard.
/// `join` is deliberately absent: on a method position it is almost
/// always `slice::join`/`Path::join`, and shard workers never own a
/// `JoinHandle` (the pool does).
const BLOCKING_METHODS: &[&str] = &[
    "lock",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "wait_while",
    "park",
];

/// The base identifier a borrow/field/index/cast chain hangs off:
/// `report.rows[i]` → `report`, `&mut telemetry` → `telemetry`.
fn chain_root(e: &Expr) -> Option<&str> {
    match e {
        Expr::Path { segs, .. } if segs.len() == 1 => segs.first().map(String::as_str),
        Expr::Field { recv, .. } | Expr::Index { recv, .. } => chain_root(recv),
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => chain_root(expr),
        _ => None,
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

/// Every identifier the item's body binds: parameters, `let` names and
/// `for`-loop patterns at any depth, plus nested closure parameters.
/// `self` is always considered bound inside a method.
fn bound_names(item: &Item) -> BTreeSet<String> {
    let mut bound: BTreeSet<String> = item.params.iter().map(|(n, _)| n.clone()).collect();
    bound.insert("self".to_string());
    if let Some(body) = &item.body {
        walk_block(body, &mut |e| match e {
            Expr::For { pat, .. } => bound.extend(pat.iter().cloned()),
            Expr::Closure { params, .. } => bound.extend(params.iter().cloned()),
            _ => {}
        });
        collect_let_names(body, &mut bound);
    }
    bound
}

fn collect_let_names(block: &Block, out: &mut BTreeSet<String>) {
    for stmt in &block.stmts {
        if let Stmt::Let { name, .. } = stmt {
            if !name.is_empty() {
                out.insert(name.clone());
            }
        }
    }
    walk_block(block, &mut |e| {
        let blocks: Vec<&Block> = match e {
            Expr::For { body, .. } | Expr::While { body, .. } | Expr::BlockExpr(body) => {
                vec![body]
            }
            Expr::If { then, els, .. } => {
                let mut v = vec![then];
                if let Some(b) = els {
                    v.push(b);
                }
                v
            }
            _ => return,
        };
        for b in blocks {
            for stmt in &b.stmts {
                if let Stmt::Let { name, .. } = stmt {
                    if !name.is_empty() {
                        out.insert(name.clone());
                    }
                }
            }
        }
    });
}

/// Computes what a closure captures from its enclosing function.
///
/// `enclosing_bound` is the enclosing fn's binding set (see
/// [`bound_names`]); only names bound there can be captured. Names the
/// closure itself binds (its parameters, `let`s, loop patterns, nested
/// closure parameters) shadow the enclosing binding and are not
/// captures.
pub fn closure_captures(
    params: &[String],
    is_move: bool,
    body: &Expr,
    fallback_line: u32,
    enclosing_bound: &BTreeSet<String>,
) -> Vec<Capture> {
    // Names the closure body binds locally (flat over-approximation:
    // a binding anywhere in the body shadows everywhere — permissive,
    // so shadowed re-uses never surface as captures).
    let mut local: BTreeSet<String> = params.iter().cloned().collect();
    walk_exprs(body, &mut |e| match e {
        Expr::For { pat, .. } => local.extend(pat.iter().cloned()),
        Expr::Closure { params, .. } => local.extend(params.iter().cloned()),
        _ => {}
    });
    if let Expr::BlockExpr(b) = body {
        collect_let_names(b, &mut local);
    } else {
        // Non-block bodies can still own blocks (e.g. `|x| match …`).
        walk_exprs(body, &mut |e| {
            if let Expr::BlockExpr(b) = e {
                collect_let_names(b, &mut local);
            }
        });
    }

    let mut caps: BTreeMap<String, Capture> = BTreeMap::new();
    let mut use_of = |name: &str, mutating: bool, line: u32| {
        if local.contains(name) || !enclosing_bound.contains(name) || !is_var_like(name) {
            return;
        }
        let entry = caps.entry(name.to_string()).or_insert_with(|| Capture {
            name: name.to_string(),
            mode: if is_move {
                CaptureMode::ByValue
            } else {
                CaptureMode::ByRef
            },
            line,
        });
        if mutating {
            entry.mode = CaptureMode::ByRefMut;
        }
    };

    walk_exprs(body, &mut |e| match e {
        Expr::Path { segs, line } if segs.len() == 1 => {
            if let Some(name) = segs.first() {
                use_of(name, false, *line);
            }
        }
        Expr::Binary { op, lhs, line, .. }
            if matches!(
                op.as_str(),
                "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>="
            ) =>
        {
            if let Some(name) = chain_root(lhs) {
                use_of(name, true, *line);
            }
        }
        Expr::Unary { op, expr } if op == "&mut" => {
            if let Some(name) = chain_root(expr) {
                use_of(name, true, expr.line().unwrap_or(fallback_line));
            }
        }
        Expr::MethodCall {
            recv, method, line, ..
        } if MUTATING_METHODS.contains(&method.as_str()) => {
            if let Some(name) = chain_root(recv) {
                use_of(name, true, *line);
            }
        }
        _ => {}
    });
    caps.into_values().collect()
}

// ----- per-function effect facts ---------------------------------------

/// One RNG-construction site.
#[derive(Debug, Clone)]
pub struct RngCtor {
    /// 1-based line of the constructor call.
    pub line: u32,
    /// The constructor name (`seed_from_u64`, `from_entropy`, …).
    pub ctor: String,
    /// Whether the seed argument routes through `stream_seed`.
    pub derived: bool,
    /// Whether the seed argument is a bare literal.
    pub literal: bool,
}

/// Effect facts for one function *definition*.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Defining file (scan-relative path).
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Allocation sites: `(line, what)`.
    pub allocs: Vec<(u32, String)>,
    /// Blocking sites: `(line, what)`.
    pub blocking: Vec<(u32, String)>,
    /// RNG construction sites.
    pub rng: Vec<RngCtor>,
    /// Names this function calls (paths by last segment, methods by
    /// name) — the flow-graph edges.
    pub calls: BTreeSet<String>,
    /// Float-accumulation sites (S9): `(line, what)` for `fold`s with
    /// float seeds, float-typed `sum`/`product`, and loop-carried
    /// compound assignment onto float-typed names.
    pub float_accums: Vec<(u32, String)>,
    /// Lock-acquisition sites (S12): `(line, dotted lock path)` for
    /// zero-argument `.lock()` / `.read()` / `.write()` calls, in
    /// source order.
    pub locks: Vec<(u32, String)>,
}

/// RNG constructor names (S7 scope).
const RNG_CTORS: &[&str] = &[
    "seed_from_u64",
    "from_seed",
    "from_entropy",
    "from_rng",
    "thread_rng",
];

/// Container types whose `with_capacity` allocates.
const ALLOC_CONTAINERS: &[&str] = &["Vec", "String", "VecDeque", "BTreeMap", "BTreeSet", "Box"];

/// Always-allocating method calls.
const ALLOC_METHODS: &[&str] = &["clone", "to_string", "to_vec", "to_owned", "collect"];

/// Walks `e` collecting effect facts into `facts`, tracking loop depth
/// (allocation *inside a loop* is what churns; `vec!` and
/// `with_capacity` only count there).
fn collect_effects(e: &Expr, loop_depth: usize, facts: &mut FnFacts) {
    match e {
        Expr::Call { callee, args, line } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                if let Some(last) = segs.last() {
                    facts.calls.insert(last.clone());
                    // Box::new and container with_capacity allocate.
                    if last == "new" && segs.iter().any(|s| s == "Box") {
                        facts.allocs.push((*line, "Box::new".to_string()));
                    }
                    if last == "with_capacity"
                        && loop_depth > 0
                        && segs.iter().any(|s| ALLOC_CONTAINERS.contains(&s.as_str()))
                    {
                        facts
                            .allocs
                            .push((*line, "with_capacity in loop".to_string()));
                    }
                    if last == "sleep" {
                        facts.blocking.push((*line, "thread::sleep".to_string()));
                    }
                    if RNG_CTORS.contains(&last.as_str()) {
                        facts.rng.push(rng_ctor(last, args, *line));
                    }
                }
            } else {
                collect_effects(callee, loop_depth, facts);
            }
            for a in args {
                collect_effects(a, loop_depth, facts);
            }
        }
        Expr::MethodCall {
            recv,
            method,
            args,
            line,
            ..
        } => {
            facts.calls.insert(method.clone());
            if ALLOC_METHODS.contains(&method.as_str()) {
                facts.allocs.push((*line, format!(".{method}()")));
            }
            if BLOCKING_METHODS.contains(&method.as_str()) {
                facts.blocking.push((*line, format!(".{method}()")));
            }
            // Zero-argument acquisition only: `.read(&mut buf)` /
            // `.write(buf)` are I/O, not `RwLock`.
            if args.is_empty() && LOCK_METHODS.contains(&method.as_str()) {
                if let Some(lock) = lock_path(recv) {
                    facts.locks.push((*line, lock));
                }
            }
            if RNG_CTORS.contains(&method.as_str()) {
                facts.rng.push(rng_ctor(method, args, *line));
            }
            collect_effects(recv, loop_depth, facts);
            for a in args {
                collect_effects(a, loop_depth, facts);
            }
        }
        Expr::MacroCall { segs, args, line } => {
            match segs.last().map(String::as_str) {
                Some("vec") if loop_depth > 0 => {
                    facts.allocs.push((*line, "vec! in loop".to_string()))
                }
                Some("format") => facts.allocs.push((*line, "format!".to_string())),
                _ => {}
            }
            for a in args {
                collect_effects(a, loop_depth, facts);
            }
        }
        Expr::For { iter, body, .. } => {
            collect_effects(iter, loop_depth, facts);
            collect_block_effects(body, loop_depth + 1, facts);
        }
        Expr::While { cond, body } => {
            if let Some(c) = cond {
                collect_effects(c, loop_depth, facts);
            }
            collect_block_effects(body, loop_depth + 1, facts);
        }
        Expr::If { cond, then, els } => {
            collect_effects(cond, loop_depth, facts);
            collect_block_effects(then, loop_depth, facts);
            if let Some(b) = els {
                collect_block_effects(b, loop_depth, facts);
            }
        }
        Expr::Match { scrutinee, arms } => {
            collect_effects(scrutinee, loop_depth, facts);
            for a in arms {
                collect_effects(a, loop_depth, facts);
            }
        }
        Expr::BlockExpr(b) => collect_block_effects(b, loop_depth, facts),
        Expr::Closure { body, .. } => collect_effects(body, loop_depth, facts),
        Expr::Field { recv, .. } => collect_effects(recv, loop_depth, facts),
        Expr::Index { recv, index } => {
            collect_effects(recv, loop_depth, facts);
            collect_effects(index, loop_depth, facts);
        }
        Expr::Binary { lhs, rhs, .. } => {
            collect_effects(lhs, loop_depth, facts);
            collect_effects(rhs, loop_depth, facts);
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => {
            collect_effects(expr, loop_depth, facts)
        }
        Expr::Tuple(xs) | Expr::Array(xs) => {
            for x in xs {
                collect_effects(x, loop_depth, facts);
            }
        }
        Expr::StructLit { fields, .. } => {
            for x in fields {
                collect_effects(x, loop_depth, facts);
            }
        }
        Expr::Jump { expr: Some(e) } => collect_effects(e, loop_depth, facts),
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Jump { expr: None } | Expr::Opaque => {}
    }
}

fn collect_block_effects(block: &Block, loop_depth: usize, facts: &mut FnFacts) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    collect_effects(e, loop_depth, facts);
                }
            }
            Stmt::Expr(e) => collect_effects(e, loop_depth, facts),
            // Nested items are their own flow-graph nodes.
            Stmt::Item(_) => {}
        }
    }
}

fn rng_ctor(ctor: &str, args: &[Expr], line: u32) -> RngCtor {
    let mut derived = false;
    for a in args {
        walk_exprs(a, &mut |e| {
            if let Expr::Path { segs, .. } = e {
                if segs.iter().any(|s| s == "stream_seed") {
                    derived = true;
                }
            }
        });
    }
    let literal = args
        .first()
        .is_some_and(|a| matches!(strip_layers(a), Expr::Lit { .. }));
    RngCtor {
        line,
        ctor: ctor.to_string(),
        derived,
        literal,
    }
}

fn strip_layers(e: &Expr) -> &Expr {
    match e {
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => strip_layers(expr),
        _ => e,
    }
}

// ----- float-accumulation facts (S9) -----------------------------------

fn is_float_ty(ty: &str) -> bool {
    ty.contains("f32") || ty.contains("f64")
}

fn is_float_lit(e: &Expr) -> bool {
    matches!(strip_layers(e), Expr::Lit { float: true, .. })
}

/// Names the item binds with a float type: `f32`/`f64`-annotated
/// parameters and `let`s (at any block depth), plus `let`s initialized
/// from a float literal. The S9 loop-carried-accumulation check only
/// fires on these, so integer counters never surface.
fn float_bound_names(item: &Item) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = item
        .params
        .iter()
        .filter(|(_, ty)| is_float_ty(ty))
        .map(|(n, _)| n.clone())
        .collect();
    if let Some(body) = &item.body {
        collect_float_lets(body, &mut out);
        walk_block(body, &mut |e| {
            let blocks: Vec<&Block> = match e {
                Expr::For { body, .. } | Expr::While { body, .. } | Expr::BlockExpr(body) => {
                    vec![body]
                }
                Expr::If { then, els, .. } => {
                    let mut v = vec![then];
                    if let Some(b) = els {
                        v.push(b);
                    }
                    v
                }
                _ => return,
            };
            for b in blocks {
                collect_float_lets(b, &mut out);
            }
        });
    }
    out
}

fn collect_float_lets(block: &Block, out: &mut BTreeSet<String>) {
    for stmt in &block.stmts {
        if let Stmt::Let { name, ty, init, .. } = stmt {
            if name.is_empty() {
                continue;
            }
            let float_ty = ty.as_deref().is_some_and(is_float_ty);
            let float_init = init.as_ref().is_some_and(is_float_lit);
            if float_ty || float_init {
                out.insert(name.clone());
            }
        }
    }
}

/// Calls `f` on every expression with its enclosing loop depth.
fn walk_loop_depth(e: &Expr, depth: usize, f: &mut impl FnMut(&Expr, usize)) {
    f(e, depth);
    match e {
        Expr::For { iter, body, .. } => {
            walk_loop_depth(iter, depth, f);
            walk_block_loop_depth(body, depth + 1, f);
        }
        Expr::While { cond, body } => {
            if let Some(c) = cond {
                walk_loop_depth(c, depth, f);
            }
            walk_block_loop_depth(body, depth + 1, f);
        }
        Expr::If { cond, then, els } => {
            walk_loop_depth(cond, depth, f);
            walk_block_loop_depth(then, depth, f);
            if let Some(b) = els {
                walk_block_loop_depth(b, depth, f);
            }
        }
        Expr::Match { scrutinee, arms } => {
            walk_loop_depth(scrutinee, depth, f);
            for a in arms {
                walk_loop_depth(a, depth, f);
            }
        }
        Expr::Call { callee, args, .. } => {
            walk_loop_depth(callee, depth, f);
            for a in args {
                walk_loop_depth(a, depth, f);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_loop_depth(recv, depth, f);
            for a in args {
                walk_loop_depth(a, depth, f);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            walk_loop_depth(lhs, depth, f);
            walk_loop_depth(rhs, depth, f);
        }
        Expr::Field { recv, .. } => walk_loop_depth(recv, depth, f),
        Expr::Index { recv, index } => {
            walk_loop_depth(recv, depth, f);
            walk_loop_depth(index, depth, f);
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Closure { body: expr, .. } => {
            walk_loop_depth(expr, depth, f)
        }
        Expr::BlockExpr(b) => walk_block_loop_depth(b, depth, f),
        Expr::Tuple(xs) | Expr::Array(xs) => {
            for x in xs {
                walk_loop_depth(x, depth, f);
            }
        }
        Expr::StructLit { fields, .. } => {
            for x in fields {
                walk_loop_depth(x, depth, f);
            }
        }
        Expr::MacroCall { args, .. } => {
            for x in args {
                walk_loop_depth(x, depth, f);
            }
        }
        Expr::Jump { expr: Some(e) } => walk_loop_depth(e, depth, f),
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Jump { expr: None } | Expr::Opaque => {}
    }
}

fn walk_block_loop_depth(block: &Block, depth: usize, f: &mut impl FnMut(&Expr, usize)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    walk_loop_depth(e, depth, f);
                }
            }
            Stmt::Expr(e) => walk_loop_depth(e, depth, f),
            // Nested items are their own flow-graph nodes.
            Stmt::Item(_) => {}
        }
    }
}

/// Collects the item's float-accumulation sites into `facts`:
/// `.fold(seed, …)` with a float seed, `.sum::<f32|f64>()` /
/// `.product::<…>()`, and loop-carried `+=`/`-=`/`*=`/`/=` onto
/// float-bound names.
fn collect_float_accums(item: &Item, facts: &mut FnFacts) {
    let Some(body) = &item.body else { return };
    let floats = float_bound_names(item);
    let mut visit = |e: &Expr, depth: usize| match e {
        Expr::MethodCall {
            method,
            turbofish,
            args,
            line,
            ..
        } => {
            if method == "fold" {
                let float_seed = args.first().is_some_and(|a| {
                    is_float_lit(a) || chain_root(a).is_some_and(|r| floats.contains(r))
                });
                if float_seed {
                    facts
                        .float_accums
                        .push((*line, "`.fold(…)` seeded with a float".to_string()));
                }
            }
            if (method == "sum" || method == "product")
                && turbofish.as_deref().is_some_and(is_float_ty)
            {
                facts
                    .float_accums
                    .push((*line, format!("float `.{method}()` reduction")));
            }
        }
        Expr::Binary { op, lhs, line, .. }
            if depth > 0 && matches!(op.as_str(), "+=" | "-=" | "*=" | "/=") =>
        {
            if let Some(root) = chain_root(lhs) {
                if floats.contains(root) {
                    facts
                        .float_accums
                        .push((*line, format!("loop-carried `{root} {op} …`")));
                }
            }
        }
        _ => {}
    };
    walk_block_loop_depth(body, 0, &mut visit);
    facts.float_accums.sort();
    facts.float_accums.dedup();
}

// ----- shard-body discovery --------------------------------------------

/// A closure passed as the worker argument of a `leime-par` entry point.
#[derive(Debug, Clone)]
struct ShardBody {
    /// Defining file.
    path: String,
    /// Entry-point name (`par_map_shards` / `run_rounds`).
    entry: String,
    /// Name of the enclosing fn (an S9 byte-identical-contract root).
    encl_fn: String,
    /// What the closure captures from its enclosing fn.
    captures: Vec<Capture>,
    /// Interior-mutability uses of captured names inside the body:
    /// `(name, method, line)`.
    interior_mut: Vec<(String, String, u32)>,
    /// Blocking sites directly inside the body: `(line, what)`.
    blocking: Vec<(u32, String)>,
    /// Lock acquisitions directly inside the body (S12 graph roots).
    locks: Vec<(u32, String)>,
    /// Names the body calls — roots for the S8/S12 reachability walks.
    calls: BTreeSet<String>,
}

/// Finds the `let name = |…| …;` initializer for `name` in `item`'s
/// body, recursing through nested blocks (first match wins).
fn let_bound_closure<'a>(item: &'a Item, name: &str) -> Option<&'a Expr> {
    find_closure_let(item.body.as_ref()?, name)
}

fn find_closure_let<'a>(block: &'a Block, name: &str) -> Option<&'a Expr> {
    for stmt in &block.stmts {
        let e = match stmt {
            Stmt::Let {
                name: n,
                init: Some(init),
                ..
            } => {
                if n == name && matches!(init, Expr::Closure { .. }) {
                    return Some(init);
                }
                init
            }
            Stmt::Expr(e) => e,
            Stmt::Item(_) | Stmt::Let { init: None, .. } => continue,
        };
        if let Some(found) = find_closure_let_in_expr(e, name) {
            return Some(found);
        }
    }
    None
}

fn find_closure_let_in_expr<'a>(e: &'a Expr, name: &str) -> Option<&'a Expr> {
    match e {
        Expr::BlockExpr(b) | Expr::For { body: b, .. } | Expr::While { body: b, .. } => {
            find_closure_let(b, name)
        }
        Expr::If { then, els, .. } => find_closure_let(then, name)
            .or_else(|| els.as_ref().and_then(|b| find_closure_let(b, name))),
        _ => None,
    }
}

/// Extracts every shard body in `item` (one per `leime-par` entry-point
/// call whose worker argument resolves to a closure).
fn shard_bodies_of(path: &str, item: &Item, cfg: &SemaConfig, out: &mut Vec<ShardBody>) {
    let Some(body) = &item.body else { return };
    let enclosing = bound_names(item);
    let mut worker_args: Vec<(String, u32, Expr)> = Vec::new();
    walk_block(body, &mut |e| {
        let Expr::Call { callee, args, line } = e else {
            return;
        };
        let Expr::Path { segs, .. } = callee.as_ref() else {
            return;
        };
        let Some(last) = segs.last() else { return };
        for (entry, idx) in &cfg.par_entry_args {
            if last == entry {
                if let Some(arg) = args.get(*idx) {
                    worker_args.push((entry.clone(), *line, arg.clone()));
                }
            }
        }
    });
    for (entry, call_line, arg) in worker_args {
        let resolved: Option<(Vec<String>, bool, &Expr, u32)> = match &arg {
            Expr::Closure {
                params,
                is_move,
                body,
                line,
            } => Some((params.clone(), *is_move, body.as_ref(), *line)),
            Expr::Path { segs, .. } if segs.len() == 1 => segs
                .first()
                .and_then(|n| let_bound_closure(item, n))
                .and_then(|init| match init {
                    Expr::Closure {
                        params,
                        is_move,
                        body,
                        line,
                    } => Some((params.clone(), *is_move, body.as_ref(), *line)),
                    _ => None,
                }),
            _ => None,
        };
        let Some((params, is_move, cbody, line)) = resolved else {
            continue;
        };
        let captures = closure_captures(&params, is_move, cbody, call_line, &enclosing);
        let cap_names: BTreeSet<&str> = captures.iter().map(|c| c.name.as_str()).collect();
        let mut interior_mut = Vec::new();
        let mut facts = FnFacts {
            line,
            ..FnFacts::default()
        };
        collect_effects(cbody, 0, &mut facts);
        walk_exprs(cbody, &mut |e| {
            if let Expr::MethodCall {
                recv, method, line, ..
            } = e
            {
                if INTERIOR_MUT_METHODS.contains(&method.as_str()) {
                    if let Some(root) = chain_root(recv) {
                        if cap_names.contains(root) {
                            interior_mut.push((root.to_string(), method.clone(), *line));
                        }
                    }
                }
            }
        });
        out.push(ShardBody {
            path: path.to_string(),
            entry,
            encl_fn: item.name.clone(),
            captures,
            interior_mut,
            blocking: facts.blocking,
            locks: facts.locks,
            calls: facts.calls,
        });
    }
}

// ----- the workspace flow graph ----------------------------------------

/// The merged workspace flow graph plus the discovered shard bodies.
#[derive(Debug, Default)]
pub struct FlowAnalysis {
    /// fn name → one [`FnFacts`] per definition (same-named fns merge
    /// into one node for reachability, but keep separate facts so S6
    /// counts stay per-definition).
    defs: BTreeMap<String, Vec<FnFacts>>,
    /// Shard-worker closures found at `leime-par` entry-point calls.
    shard_bodies: Vec<ShardBody>,
}

impl FlowAnalysis {
    /// Builds the analysis over `(relative-path, source)` pairs spanning
    /// the whole scan (all crates together — flow edges cross crates).
    pub fn build(files: &[(String, String)], cfg: &SemaConfig) -> Self {
        let mut out = FlowAnalysis::default();
        for (path, src) in files {
            let file: File = parse_source(src);
            crate::rules::for_each_nontest_fn(&file.items, &mut |item| {
                if item.body.is_none() {
                    return;
                }
                let mut facts = FnFacts {
                    path: path.clone(),
                    line: item.line,
                    ..FnFacts::default()
                };
                if let Some(b) = &item.body {
                    collect_block_effects(b, 0, &mut facts);
                }
                collect_float_accums(item, &mut facts);
                out.defs.entry(item.name.clone()).or_default().push(facts);
                shard_bodies_of(path, item, cfg, &mut out.shard_bodies);
            });
        }
        out
    }

    /// Names transitively reachable from `roots` through call edges
    /// (restricted to names this graph defines; library method names
    /// fall off the walk).
    pub fn reachable(&self, roots: impl IntoIterator<Item = String>) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: VecDeque<String> = VecDeque::new();
        for r in roots {
            if self.defs.contains_key(&r) && seen.insert(r.clone()) {
                queue.push_back(r);
            }
        }
        while let Some(cur) = queue.pop_front() {
            let Some(defs) = self.defs.get(&cur) else {
                continue;
            };
            for def in defs {
                for callee in &def.calls {
                    if self.defs.contains_key(callee) && !seen.contains(callee) {
                        seen.insert(callee.clone());
                        queue.push_back(callee.clone());
                    }
                }
            }
        }
        seen
    }

    /// The hot set: functions transitively reachable from the
    /// configured hot roots plus every shard body's callees.
    fn hot_set(&self, cfg: &SemaConfig) -> BTreeSet<String> {
        let mut roots: Vec<String> = cfg.hot_root_fns.clone();
        for sb in &self.shard_bodies {
            roots.extend(sb.calls.iter().cloned());
        }
        self.reachable(roots)
    }

    /// S6 raw material: per-definition allocation counts over the hot
    /// set, keyed `"<path>::<fn>"`, restricted to `hot_path_markers`.
    pub fn hot_alloc_counts(&self, cfg: &SemaConfig) -> BTreeMap<String, HotAlloc> {
        let hot = self.hot_set(cfg);
        let mut out = BTreeMap::new();
        for (name, defs) in &self.defs {
            if !hot.contains(name) {
                continue;
            }
            for def in defs {
                if !path_matches(&def.path, &cfg.hot_path_markers) {
                    continue;
                }
                out.insert(
                    format!("{}::{}", def.path, name),
                    HotAlloc {
                        path: def.path.clone(),
                        line: def.line,
                        count: def.allocs.len(),
                    },
                );
            }
        }
        out
    }

    /// Runs S5, S7–S9 and S12 and returns their findings, sorted by
    /// path, line and rule. (The S6 ratchet is driven by [`crate::run`],
    /// which reads the pinned baseline.)
    pub fn findings(&self, cfg: &SemaConfig) -> Vec<Finding> {
        let mut out = Vec::new();
        if cfg.rule_on("S5") {
            self.scan_s5(cfg, &mut out);
        }
        if cfg.rule_on("S7") {
            self.scan_s7(cfg, &mut out);
        }
        if cfg.rule_on("S8") {
            self.scan_s8(&mut out);
        }
        if cfg.rule_on("S9") {
            self.scan_s9(cfg, &mut out);
        }
        if cfg.rule_on("S12") {
            self.scan_s12(&mut out);
        }
        out.sort_by(|a, b| {
            (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
        });
        out.dedup();
        out
    }

    // S5: shared mutable captures across the shard boundary.
    fn scan_s5(&self, cfg: &SemaConfig, out: &mut Vec<Finding>) {
        for sb in &self.shard_bodies {
            for cap in &sb.captures {
                if cap.mode == CaptureMode::ByRefMut {
                    out.push(Finding {
                        rule: "S5".to_string(),
                        path: sb.path.clone(),
                        line: cap.line,
                        message: format!(
                            "`{}` shard body mutably captures `{}` — shared mutation across \
                             the shard boundary breaks the byte-identical contract; route it \
                             through shard-owned state and the ordered reduction (DESIGN.md §11)",
                            sb.entry, cap.name
                        ),
                    });
                }
            }
            for (name, method, line) in &sb.interior_mut {
                if cfg
                    .s5_exempt_names
                    .iter()
                    .any(|m| name.contains(m.as_str()))
                {
                    continue;
                }
                out.push(Finding {
                    rule: "S5".to_string(),
                    path: sb.path.clone(),
                    line: *line,
                    message: format!(
                        "`{}` shard body mutates captured `{name}` through `.{method}()` — \
                         interior mutability across the shard boundary breaks the \
                         byte-identical contract (DESIGN.md §11)",
                        sb.entry
                    ),
                });
            }
        }
    }

    // S7: RNG-stream hygiene in the marked crates.
    fn scan_s7(&self, cfg: &SemaConfig, out: &mut Vec<Finding>) {
        for (name, defs) in &self.defs {
            for def in defs {
                if !path_matches(&def.path, &cfg.rng_path_markers) {
                    continue;
                }
                for rng in &def.rng {
                    if rng.derived {
                        continue;
                    }
                    let detail = if rng.literal {
                        "a literal seed"
                    } else if matches!(rng.ctor.as_str(), "from_entropy" | "thread_rng") {
                        "ambient entropy"
                    } else {
                        "an ad-hoc seed"
                    };
                    out.push(Finding {
                        rule: "S7".to_string(),
                        path: def.path.clone(),
                        line: rng.line,
                        message: format!(
                            "`fn {name}` constructs an RNG via `{}` from {detail} — derive \
                             every stream with `leime_par::stream_seed` so replay and \
                             sharding stay byte-identical",
                            rng.ctor
                        ),
                    });
                }
            }
        }
    }

    // S8: blocking calls inside (or reachable from) shard bodies.
    fn scan_s8(&self, out: &mut Vec<Finding>) {
        for sb in &self.shard_bodies {
            for (line, what) in &sb.blocking {
                out.push(Finding {
                    rule: "S8".to_string(),
                    path: sb.path.clone(),
                    line: *line,
                    message: format!(
                        "`{}` shard body blocks on `{what}` — shard workers must stay \
                         lock- and wait-free (the pool owns all synchronization)",
                        sb.entry
                    ),
                });
            }
            for callee in self.reachable(sb.calls.iter().cloned()) {
                let Some(defs) = self.defs.get(&callee) else {
                    continue;
                };
                for def in defs {
                    for (line, what) in &def.blocking {
                        out.push(Finding {
                            rule: "S8".to_string(),
                            path: def.path.clone(),
                            line: *line,
                            message: format!(
                                "`fn {callee}` blocks on `{what}` and is reachable from a \
                                 `{}` shard body — shard workers must stay lock- and \
                                 wait-free",
                                sb.entry
                            ),
                        });
                    }
                }
            }
        }
    }

    // S9: float accumulations on byte-identical-contract paths.
    fn scan_s9(&self, cfg: &SemaConfig, out: &mut Vec<Finding>) {
        // Contract roots: the hot roots and every shard body — plus,
        // transitively, everything they call ([`Self::hot_set`]). The
        // fns *enclosing* a shard body are roots too: their reduction
        // sites merge shard outputs (`concat_shards` inputs).
        let mut scope = self.hot_set(cfg);
        for sb in &self.shard_bodies {
            scope.insert(sb.encl_fn.clone());
        }
        for (name, defs) in &self.defs {
            if !scope.contains(name) || cfg.s9_approved_fns.iter().any(|a| a == name) {
                continue;
            }
            for def in defs {
                for (line, what) in &def.float_accums {
                    out.push(Finding {
                        rule: "S9".to_string(),
                        path: def.path.clone(),
                        line: *line,
                        message: format!(
                            "`fn {name}` has a {what} on a byte-identical-contract path — \
                             float reduction order must be pinned: route it through an \
                             ordered helper (`concat_shards`, `merge_btree_maps`) or an \
                             approved kernel (DESIGN.md §15)"
                        ),
                    });
                }
            }
        }
    }

    // S12: lock acquisition cycles reachable from shard bodies.
    fn scan_s12(&self, out: &mut Vec<Finding>) {
        // One lock-order graph over everything shard bodies reach:
        // direct body acquisitions plus those of every reachable fn.
        // Edges over-approximate: within one fn, earlier-in-source
        // acquisitions point at later ones; a fn holding any lock
        // points at every lock its defined callees transitively
        // acquire (guards are assumed held across calls).
        // (path, in-order lock acquisitions, callees) per fn in scope.
        type LockScope = (String, Vec<(u32, String)>, BTreeSet<String>);
        let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut site: BTreeMap<String, (String, u32)> = BTreeMap::new();
        let mut ordered: Vec<LockScope> = Vec::new();
        for sb in &self.shard_bodies {
            ordered.push((sb.path.clone(), sb.locks.clone(), sb.calls.clone()));
        }
        let reach: BTreeSet<String> = self.reachable(
            self.shard_bodies
                .iter()
                .flat_map(|sb| sb.calls.iter().cloned()),
        );
        for name in &reach {
            if let Some(defs) = self.defs.get(name) {
                for def in defs {
                    ordered.push((def.path.clone(), def.locks.clone(), def.calls.clone()));
                }
            }
        }
        // Locks transitively acquired by each defined fn in scope.
        let lock_closure = |root: &str| -> BTreeSet<String> {
            let mut acc = BTreeSet::new();
            for name in self.reachable([root.to_string()]) {
                if let Some(defs) = self.defs.get(&name) {
                    for def in defs {
                        acc.extend(def.locks.iter().map(|(_, l)| l.clone()));
                    }
                }
            }
            acc
        };
        for (path, locks, calls) in &ordered {
            for (line, lock) in locks {
                // Anchor each lock at its earliest acquisition site.
                let entry = site
                    .entry(lock.clone())
                    .or_insert_with(|| (path.clone(), *line));
                if (path.as_str(), *line) < (entry.0.as_str(), entry.1) {
                    *entry = (path.clone(), *line);
                }
            }
            for (i, (_, a)) in locks.iter().enumerate() {
                for (_, b) in locks.iter().skip(i + 1) {
                    if a != b {
                        edges.entry(a.clone()).or_default().insert(b.clone());
                    }
                }
                for callee in calls {
                    if !self.defs.contains_key(callee) {
                        continue;
                    }
                    for b in lock_closure(callee) {
                        if *a != b {
                            edges.entry(a.clone()).or_default().insert(b);
                        }
                    }
                }
            }
        }
        for cycle in find_cycles(&edges) {
            let Some((path, line)) = cycle.first().and_then(|l| site.get(l)) else {
                continue;
            };
            out.push(Finding {
                rule: "S12".to_string(),
                path: path.clone(),
                line: *line,
                message: format!(
                    "lock acquisition cycle reachable from a shard body: {} — \
                     concurrent shards can deadlock; impose one global lock order \
                     or drop a guard before the next acquisition",
                    cycle.join(" \u{2192} ")
                ),
            });
        }
    }
}

/// Elementary cycles of the lock-order graph, one representative per
/// cycle, each rotated so its lexicographically smallest lock comes
/// first (deterministic output) and closed with the starting lock
/// (`a → b → a`).
fn find_cycles(edges: &BTreeMap<String, BTreeSet<String>>) -> Vec<Vec<String>> {
    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in edges.keys() {
        // Bounded DFS from each node; paths are short (lock chains).
        let mut stack: Vec<(String, Vec<String>)> = vec![(start.clone(), vec![start.clone()])];
        while let Some((node, path)) = stack.pop() {
            let Some(nexts) = edges.get(&node) else {
                continue;
            };
            for next in nexts {
                if next == start {
                    let mut cycle = path.clone();
                    // Rotate the smallest lock to the front.
                    if let Some(min_idx) = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.as_str())
                        .map(|(i, _)| i)
                    {
                        cycle.rotate_left(min_idx);
                    }
                    let mut closed = cycle.clone();
                    closed.push(closed[0].clone());
                    cycles.insert(closed);
                } else if !path.contains(next) && path.len() < 16 {
                    let mut p = path.clone();
                    p.push(next.clone());
                    stack.push((next.clone(), p));
                }
            }
        }
    }
    cycles.into_iter().collect()
}

/// One S6 hot-allocation record (see
/// [`FlowAnalysis::hot_alloc_counts`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotAlloc {
    /// Defining file.
    pub path: String,
    /// 1-based line of the `fn`.
    pub line: u32,
    /// Number of allocation sites in the definition.
    pub count: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_workspace(files: &[(String, String)], cfg: &SemaConfig) -> Vec<Finding> {
        FlowAnalysis::build(files, cfg).findings(cfg)
    }

    fn cfg() -> SemaConfig {
        SemaConfig {
            hot_path_markers: vec!["src".to_string()],
            rng_path_markers: vec!["src".to_string()],
            hot_root_fns: vec!["hot_entry".to_string()],
            ..SemaConfig::default()
        }
    }

    fn analyze(src: &str) -> Vec<Finding> {
        analyze_workspace(
            &[("crates/x/src/lib.rs".to_string(), src.to_string())],
            &cfg(),
        )
    }

    fn rules_of(found: &[Finding]) -> Vec<&str> {
        found.iter().map(|f| f.rule.as_str()).collect()
    }

    fn captures(src: &str) -> Vec<Capture> {
        // `src` must contain exactly one fn whose body ends in a closure
        // expression statement.
        let file = parse_source(src);
        let mut result = Vec::new();
        crate::rules::for_each_nontest_fn(&file.items, &mut |item| {
            let bound = bound_names(item);
            if let Some(b) = &item.body {
                walk_block(b, &mut |e| {
                    if let Expr::Closure {
                        params,
                        is_move,
                        body,
                        line,
                    } = e
                    {
                        result = closure_captures(params, *is_move, body, *line, &bound);
                    }
                });
            }
        });
        result
    }

    #[test]
    fn capture_modes_ref_refmut_value() {
        let caps = captures(
            "fn f() { let a = 1; let mut b = 0; let v = vec![]; \
             let c = |x: u32| { b += a; v.push(x); }; c(1); }",
        );
        let modes: Vec<(&str, CaptureMode)> =
            caps.iter().map(|c| (c.name.as_str(), c.mode)).collect();
        assert_eq!(
            modes,
            vec![
                ("a", CaptureMode::ByRef),
                ("b", CaptureMode::ByRefMut),
                ("v", CaptureMode::ByRefMut)
            ]
        );
    }

    #[test]
    fn move_closure_captures_by_value() {
        let caps = captures("fn f() { let a = 1; let c = move || a + 1; c(); }");
        assert_eq!(caps.len(), 1);
        assert_eq!(caps[0].mode, CaptureMode::ByValue);
    }

    #[test]
    fn closure_params_and_locals_are_not_captures() {
        let caps =
            captures("fn f(items: Vec<u32>) { let c = |i, x| { let y = i + x; y }; c(0, 1); }");
        assert!(caps.is_empty(), "{caps:?}");
    }

    #[test]
    fn names_unbound_in_enclosing_fn_are_not_captures() {
        // `helper` is a free fn, `CONST` a const, `other` bound nowhere.
        let caps = captures("fn f() { let a = 1; let c = || helper(a, CONST, other); c(); }");
        assert_eq!(caps.len(), 1);
        assert_eq!(caps[0].name, "a");
    }

    #[test]
    fn field_chain_mutation_marks_the_root() {
        let caps =
            captures("fn f() { let mut report = R::new(); let c = || report.rows.push(1); c(); }");
        assert_eq!(caps.len(), 1);
        assert_eq!(caps[0].mode, CaptureMode::ByRefMut);
    }

    #[test]
    fn s5_flags_mutable_capture_in_shard_body() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { let mut total = 0; \
             let _ = par_map_shards(items, workers, |_i, x| { total += x; x + 1 }); }",
        );
        assert_eq!(rules_of(&found), vec!["S5"]);
        assert!(found[0].message.contains("total"), "{}", found[0].message);
    }

    #[test]
    fn s5_flags_interior_mutability_on_capture() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { let shared = Mutex::new(0); \
             let _ = par_map_shards(items, workers, |_i, x| { *shared.lock() += x; 0 }); }",
        );
        let rules = rules_of(&found);
        assert!(rules.contains(&"S5"), "{found:?}");
    }

    #[test]
    fn s5_exempts_telemetry_named_interior_state() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { let telemetry = Mutex::new(0); \
             let _ = par_map_shards(items, workers, |_i, x| { telemetry.lock(); 0 }); }",
        );
        // The lock itself still surfaces as S8 (blocking), but not S5.
        assert!(!rules_of(&found).contains(&"S5"), "{found:?}");
    }

    #[test]
    fn s5_clean_shard_body_stays_silent() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { let base = 10; \
             let _ = par_map_shards(items, workers, |_i, x| x + base); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn s5_resolves_let_bound_worker_closure() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { let mut acc = 0; \
             let work = |_i: usize, x: &u32| { acc += *x; 0 }; \
             let _ = par_map_shards(items, workers, work); }",
        );
        assert_eq!(rules_of(&found), vec!["S5"]);
    }

    #[test]
    fn s5_run_rounds_checks_work_not_apply() {
        // `apply` (arg 4) runs on the driver thread and may mutate; only
        // `work` (arg 3) is the shard body.
        let found = analyze(
            "fn run(shards: Vec<S>, slots: usize) { let mut report = R::new(); \
             let make_ctx = |round: usize| round; \
             let work = |_s: usize, _r: usize, ctx: &usize, st: &mut S| { st.step(*ctx) }; \
             let apply = |_r: usize, outs: Vec<u32>| { report.rows.extend(outs); Ok(()) }; \
             let _ = run_rounds(shards, slots, make_ctx, work, apply); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn s7_flags_literal_and_underived_seeds() {
        let found = analyze(
            "fn setup(seed: u64, i: u64) { \
             let a = StdRng::seed_from_u64(33); \
             let b = StdRng::seed_from_u64(seed.wrapping_add(i)); \
             let c = StdRng::seed_from_u64(leime_par::stream_seed(seed, i)); \
             let d = rand::thread_rng(); }",
        );
        assert_eq!(rules_of(&found), vec!["S7", "S7", "S7"]);
        assert!(found[0].message.contains("literal"), "{}", found[0].message);
        assert!(found[2].message.contains("entropy"), "{}", found[2].message);
    }

    #[test]
    fn s7_outside_marked_paths_is_ignored() {
        let found = analyze_workspace(
            &[(
                "crates/x/other/lib.rs".to_string(),
                "fn setup() { let a = StdRng::seed_from_u64(33); }".to_string(),
            )],
            &cfg(),
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn s8_flags_direct_and_transitive_blocking() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { \
             let _ = par_map_shards(items, workers, |_i, x| { helper(*x); thread::sleep(d); 0 }); } \
             fn helper(x: u32) -> u32 { let g = m.lock(); g + x }",
        );
        let rules = rules_of(&found);
        assert_eq!(rules, vec!["S8", "S8"], "{found:?}");
        let direct = found.iter().find(|f| f.message.contains("sleep"));
        let transitive = found.iter().find(|f| f.message.contains("helper"));
        assert!(direct.is_some() && transitive.is_some(), "{found:?}");
    }

    #[test]
    fn s8_driver_side_blocking_is_legal() {
        let found = analyze(
            "fn run(shards: Vec<S>, slots: usize) { \
             let make_ctx = |round: usize| { replay.lock(); round }; \
             let work = |_s: usize, _r: usize, c: &usize, st: &mut S| st.step(*c); \
             let apply = |_r: usize, outs: Vec<u32>| { sink.lock(); Ok(()) }; \
             let _ = run_rounds(shards, slots, make_ctx, work, apply); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn hot_alloc_counts_cover_roots_and_callees() {
        let files = vec![(
            "crates/x/src/lib.rs".to_string(),
            "fn hot_entry(n: usize) { let v: Vec<u32> = (0..n).collect(); helper(n); }\n\
             fn helper(n: usize) { for i in 0..n { let row = vec![i; 4]; drop(row); } \
             let s = format!(\"x\"); }\n\
             fn cold(n: usize) { let s = n.to_string(); }"
                .to_string(),
        )];
        let counts = FlowAnalysis::build(&files, &cfg()).hot_alloc_counts(&cfg());
        assert_eq!(
            counts["crates/x/src/lib.rs::hot_entry"].count, 1,
            "{counts:?}"
        );
        assert_eq!(counts["crates/x/src/lib.rs::helper"].count, 2, "{counts:?}");
        assert!(!counts.contains_key("crates/x/src/lib.rs::cold"));
    }

    #[test]
    fn vec_and_with_capacity_count_only_in_loops() {
        let files = vec![(
            "crates/x/src/lib.rs".to_string(),
            "fn hot_entry(n: usize) { let v = Vec::with_capacity(n); let w = vec![0; n]; \
             for _ in 0..n { let inner = Vec::with_capacity(4); drop(inner); } }"
                .to_string(),
        )];
        let counts = FlowAnalysis::build(&files, &cfg()).hot_alloc_counts(&cfg());
        assert_eq!(counts["crates/x/src/lib.rs::hot_entry"].count, 1);
    }

    #[test]
    fn test_items_are_skipped() {
        let found = analyze(
            "#[cfg(test)]\nmod tests { fn setup() { let a = StdRng::seed_from_u64(33); } }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn s9_flags_loop_carried_float_accumulation_in_hot_fns() {
        let found = analyze(
            "fn hot_entry(n: usize) -> f64 { let mut acc = 0.0; \
             for i in 0..n { acc += weight(i); } acc }\n\
             fn weight(i: usize) -> f64 { i as f64 }",
        );
        assert_eq!(rules_of(&found), vec!["S9"], "{found:?}");
        assert!(found[0].message.contains("acc +="), "{}", found[0].message);
    }

    #[test]
    fn s9_flags_float_sum_and_fold_reachable_from_hot_roots() {
        let found = analyze(
            "fn hot_entry(xs: &[f64]) -> f64 { reduce(xs) }\n\
             fn reduce(xs: &[f64]) -> f64 { \
             let s = xs.iter().sum::<f64>(); \
             xs.iter().fold(0.0, |a, b| a + b) + s }",
        );
        assert_eq!(rules_of(&found), vec!["S9", "S9"], "{found:?}");
    }

    #[test]
    fn s9_ignores_integer_accumulation_and_cold_fns() {
        let found = analyze(
            "fn hot_entry(n: usize) -> usize { let mut c = 0; \
             for i in 0..n { c += i; } c }\n\
             fn cold(xs: &[f64]) -> f64 { let mut a = 0.0; \
             for x in xs { a += *x; } a }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn s9_approved_fns_are_exempt() {
        let mut c = cfg();
        c.s9_approved_fns.push("hot_entry".to_string());
        let found = analyze_workspace(
            &[(
                "crates/x/src/lib.rs".to_string(),
                "fn hot_entry(n: usize) -> f64 { let mut acc = 0.0; \
                 for i in 0..n { acc += i as f64; } acc }"
                    .to_string(),
            )],
            &c,
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn s9_covers_shard_body_enclosing_fns() {
        let found = analyze(
            "fn launch(items: &[f64], workers: W) -> f64 { \
             let outs = par_map_shards(items, workers, |_i, x| x + 1.0); \
             let mut total = 0.0; for o in outs { total += o; } total }",
        );
        assert_eq!(rules_of(&found), vec!["S9"], "{found:?}");
    }

    #[test]
    fn s12_flags_lock_order_cycle_reachable_from_shard_body() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { \
             let _ = par_map_shards(items, workers, |_i, x| { fwd(*x); bwd(*x); x + 1 }); }\n\
             fn fwd(x: u32) { let g = a.read(); let h = b.write(); }\n\
             fn bwd(x: u32) { let g = b.read(); let h = a.write(); }",
        );
        let rules = rules_of(&found);
        assert!(rules.contains(&"S12"), "{found:?}");
        let s12 = found.iter().find(|f| f.rule == "S12");
        assert!(
            s12.is_some_and(|f| f.message.contains("a \u{2192} b \u{2192} a")),
            "{found:?}"
        );
    }

    #[test]
    fn s12_consistent_lock_order_is_clean() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { \
             let _ = par_map_shards(items, workers, |_i, x| { fwd(*x); also_fwd(*x); x }); }\n\
             fn fwd(x: u32) { let g = a.read(); let h = b.write(); }\n\
             fn also_fwd(x: u32) { let g = a.read(); let h = b.read(); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn s12_ignores_io_read_write_with_arguments() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { \
             let _ = par_map_shards(items, workers, |_i, x| { pump(*x); x }); }\n\
             fn pump(x: u32) { sock.read(&mut buf); sock2.write(&buf); \
             let g = a.read(); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }
}
