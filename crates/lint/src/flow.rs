//! Interprocedural dataflow over the whole workspace: closure-capture
//! extraction, a merged flow graph with per-function *effect facts*
//! (allocation, blocking), hot-region reachability, and the S5, S6 and
//! S8 rules built on top.
//!
//! | Rule | Enforces |
//! | ---- | -------- |
//! | `S5` | no interior mutability of a capture across `leime-par` shard-closure boundaries |
//! | `S6` | hot-path allocation ratchet — counts only go down vs. a pinned baseline |
//! | `S8` | no blocking calls (locks, channel recv, sleeps) inside or reachable from shard worker bodies |
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
    let mut bound: BTreeSet<String> = item.params.iter().cloned().collect();
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

/// The names a closure captures from its enclosing function.
///
/// `enclosing_bound` is the enclosing fn's binding set (see
/// `bound_names`); only names bound there can be captured. Names the
/// closure itself binds (its parameters, `let`s, loop patterns, nested
/// closure parameters) shadow the enclosing binding and are not
/// captures.
pub fn closure_captures(
    params: &[String],
    body: &Expr,
    enclosing_bound: &BTreeSet<String>,
) -> BTreeSet<String> {
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

    let mut caps = BTreeSet::new();
    walk_exprs(body, &mut |e| {
        if let Expr::Path { segs, .. } = e {
            if let [name] = segs.as_slice() {
                if !local.contains(name) && enclosing_bound.contains(name) && is_var_like(name) {
                    caps.insert(name.clone());
                }
            }
        }
    });
    caps
}

// ----- per-function effect facts ---------------------------------------

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
    /// Names this function calls (paths by last segment, methods by
    /// name) — the flow-graph edges.
    pub calls: BTreeSet<String>,
}

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

// ----- shard-body discovery --------------------------------------------

/// A closure passed as the worker argument of a `leime-par` entry point.
#[derive(Debug, Clone)]
struct ShardBody {
    /// Defining file.
    path: String,
    /// Entry-point name (`par_map_shards` / `run_rounds`).
    entry: String,
    /// Interior-mutability uses of captured names inside the body:
    /// `(name, method, line)`.
    interior_mut: Vec<(String, String, u32)>,
    /// Blocking sites directly inside the body: `(line, what)`.
    blocking: Vec<(u32, String)>,
    /// Names the body calls — roots for the S8 reachability walk.
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
    let mut worker_args: Vec<(String, Expr)> = Vec::new();
    walk_block(body, &mut |e| {
        let Expr::Call { callee, args, .. } = e else {
            return;
        };
        let Expr::Path { segs, .. } = callee.as_ref() else {
            return;
        };
        let Some(last) = segs.last() else { return };
        for (entry, idx) in &cfg.par_entry_args {
            if last == entry {
                if let Some(arg) = args.get(*idx) {
                    worker_args.push((entry.clone(), arg.clone()));
                }
            }
        }
    });
    for (entry, arg) in worker_args {
        let closure = match &arg {
            Expr::Path { segs, .. } if segs.len() == 1 => {
                segs.first().and_then(|n| let_bound_closure(item, n))
            }
            other => Some(other),
        };
        let Some(Expr::Closure {
            params,
            body: cbody,
            ..
        }) = closure
        else {
            continue;
        };
        let captures = closure_captures(params, cbody, &enclosing);
        let mut interior_mut = Vec::new();
        let mut facts = FnFacts::default();
        collect_effects(cbody, 0, &mut facts);
        walk_exprs(cbody, &mut |e| {
            if let Expr::MethodCall {
                recv, method, line, ..
            } = e
            {
                if INTERIOR_MUT_METHODS.contains(&method.as_str()) {
                    if let Some(root) = chain_root(recv) {
                        if captures.contains(root) {
                            interior_mut.push((root.to_string(), method.clone(), *line));
                        }
                    }
                }
            }
        });
        out.push(ShardBody {
            path: path.to_string(),
            entry,
            interior_mut,
            blocking: facts.blocking,
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

    /// Runs S5 and S8 and returns their findings, sorted by path, line
    /// and rule. (The S6 ratchet is driven by [`crate::run`],
    /// which reads the pinned baseline.)
    pub fn findings(&self, cfg: &SemaConfig) -> Vec<Finding> {
        let mut out = Vec::new();
        if cfg.rule_on("S5") {
            self.scan_s5(&mut out);
        }
        if cfg.rule_on("S8") {
            self.scan_s8(&mut out);
        }
        out.sort_by(|a, b| {
            (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
        });
        out.dedup();
        out
    }

    // S5: interior mutability of captures across the shard boundary.
    // A plain mutable capture needs no rule: the shard-body bounds are
    // `Fn + Sync`, so such a closure does not compile.
    fn scan_s5(&self, out: &mut Vec<Finding>) {
        for sb in &self.shard_bodies {
            for (name, method, line) in &sb.interior_mut {
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

    fn captures(src: &str) -> Vec<String> {
        // `src` must contain exactly one fn whose body ends in a closure
        // expression statement.
        let file = parse_source(src);
        let mut result = BTreeSet::new();
        crate::rules::for_each_nontest_fn(&file.items, &mut |item| {
            let bound = bound_names(item);
            if let Some(b) = &item.body {
                walk_block(b, &mut |e| {
                    if let Expr::Closure { params, body, .. } = e {
                        result = closure_captures(params, body, &bound);
                    }
                });
            }
        });
        result.into_iter().collect()
    }

    #[test]
    fn captures_are_the_enclosing_bindings_the_body_uses() {
        let caps = captures(
            "fn f() { let a = 1; let mut b = 0; let v = vec![]; \
             let c = |x: u32| { b += a; v.push(x); }; c(1); }",
        );
        assert_eq!(caps, ["a", "b", "v"]);
    }

    #[test]
    fn move_closure_captures_by_value() {
        let caps = captures("fn f() { let a = 1; let c = move || a + 1; c(); }");
        assert_eq!(caps, ["a"]);
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
        assert_eq!(caps, ["a"]);
    }

    #[test]
    fn field_chain_mutation_marks_the_root() {
        let caps =
            captures("fn f() { let mut report = R::new(); let c = || report.rows.push(1); c(); }");
        assert_eq!(caps, ["report"]);
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
    fn s5_flags_telemetry_named_interior_state_too() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { let telemetry = Cell::new(0); \
             let _ = par_map_shards(items, workers, |_i, x| { telemetry.swap(x); 0 }); }",
        );
        assert_eq!(rules_of(&found), vec!["S5"], "{found:?}");
        assert!(
            found[0].message.contains("`telemetry`"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn s5_ignores_interior_mutability_on_shard_owned_state() {
        // `cell` is the closure's own parameter, not a capture: each shard
        // owns what it mutates.
        let found = analyze(
            "fn run(items: &[Cell<u32>], workers: W) { \
             let _ = par_map_shards(items, workers, |_i, cell| { cell.swap(1); 0 }); }",
        );
        assert!(found.is_empty(), "{found:?}");
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
            "fn run(items: &[u32], workers: W) { let acc = AtomicU32::new(0); \
             let work = |_i: usize, x: &u32| { acc.fetch_add(*x, Relaxed); 0 }; \
             let _ = par_map_shards(items, workers, work); }",
        );
        assert_eq!(rules_of(&found), vec!["S5"]);
    }

    #[test]
    fn s5_run_rounds_checks_work_not_apply() {
        // `apply` (arg 4) runs on the driver thread and may mutate; only
        // `work` (arg 3) is the shard body.
        let found = analyze(
            "fn run(shards: Vec<S>, slots: usize) { let sink = RefCell::new(R::new()); \
             let make_ctx = |round: usize| round; \
             let work = |_s: usize, _r: usize, ctx: &usize, st: &mut S| { st.step(*ctx) }; \
             let apply = |_r: usize, outs: Vec<u32>| { sink.borrow_mut().extend(outs); Ok(()) }; \
             let _ = run_rounds(shards, slots, make_ctx, work, apply); }",
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
    fn s12_flags_lock_order_cycle_reachable_from_shard_body() {
        // The old S12 case, now S8's: two shard-reachable helpers take the
        // same two mutexes in opposite order, and S8 reports every
        // acquisition, so the cycle cannot land without a finding.
        let found = analyze(
            "fn run(items: &[u32], workers: W) { \
             let _ = par_map_shards(items, workers, |_i, x| { fwd(*x); bwd(*x); x + 1 }); }\n\
             fn fwd(x: u32) { let g = a.lock();\n let h = b.lock(); }\n\
             fn bwd(x: u32) { let g = b.lock();\n let h = a.lock(); }",
        );
        assert_eq!(rules_of(&found), vec!["S8"; 4], "{found:?}");
        for helper in ["`fn fwd`", "`fn bwd`"] {
            let hits = found.iter().filter(|f| f.message.contains(helper)).count();
            assert_eq!(hits, 2, "{helper}: {found:?}");
        }
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
            "#[cfg(test)]\nmod tests { fn run(items: &[u32], workers: W) { \
             let _ = par_map_shards(items, workers, |_i, x| { thread::sleep(d); 0 }); } }",
        );
        assert!(found.is_empty(), "{found:?}");
    }
}
