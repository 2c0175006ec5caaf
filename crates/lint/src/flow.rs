//! The merged flow graph over [`FileFacts`], hot-region reachability,
//! and the S5, S6 and S8 rules built on top (S1 reads the same graph
//! over one crate's files, see [`crate::rules`]).
//!
//! | Rule | Enforces |
//! | ---- | -------- |
//! | `S5` | no interior mutability of a capture across `leime-par` shard-closure boundaries |
//! | `S6` | hot-path allocation ratchet — counts only go down vs. a pinned baseline |
//! | `S8` | no blocking calls (locks, channel recv, sleeps) inside or reachable from shard worker bodies |
//!
//! The graph is *name-keyed*: same-named functions merge into one
//! node, so reachability over-approximates. For S6 that direction is
//! safe (a too-big hot set only makes the pinned baseline larger, never
//! produces a spurious regression); for S5/S8 the shard-body discovery
//! is syntactic (the closure argument of a known `leime-par` entry
//! point), which keeps the root set exact.
//!
//! Captures are computed against the *enclosing function's* bindings
//! (see [`crate::tree`]): an identifier free in the closure body only
//! counts as a capture when the enclosing `fn` binds it (parameter,
//! `let`, loop pattern or closure parameter). Match-arm patterns bind
//! nothing, so their names never produce false captures.

use crate::tree::{FileFacts, FnFacts, ShardBody};
use crate::{path_matches, Finding, SemaConfig};
use std::collections::{BTreeMap, BTreeSet};

/// The merged workspace flow graph plus the discovered shard bodies,
/// borrowed from the files' facts.
#[derive(Debug, Default)]
pub struct FlowAnalysis<'a> {
    /// fn name → `(path, facts)` per definition (same-named fns merge
    /// into one node for reachability, but keep separate facts so S6
    /// counts stay per-definition).
    defs: BTreeMap<&'a str, Vec<(&'a str, &'a FnFacts)>>,
    /// Shard-worker closures found at `leime-par` entry-point calls,
    /// with their defining file.
    shard_bodies: Vec<(&'a str, &'a ShardBody)>,
}

impl<'a> FlowAnalysis<'a> {
    /// Merges the facts of `files`: the whole scan for the flow rules
    /// (flow edges cross crates), or one crate's files for S1.
    pub fn build(files: impl IntoIterator<Item = &'a FileFacts>) -> Self {
        let mut out = FlowAnalysis::default();
        for file in files {
            for f in &file.fns {
                out.defs.entry(&f.name).or_default().push((&file.path, f));
            }
            out.shard_bodies
                .extend(file.shard_bodies.iter().map(|sb| (file.path.as_str(), sb)));
        }
        out
    }

    /// Names transitively reachable from `roots` through call edges
    /// (restricted to names this graph defines; library method names
    /// fall off the walk).
    pub fn reachable<'r>(&self, roots: impl IntoIterator<Item = &'r str>) -> BTreeSet<&'a str> {
        let mut seen = BTreeSet::new();
        let mut todo: Vec<&str> = roots.into_iter().collect();
        while let Some(name) = todo.pop() {
            let Some((&key, defs)) = self.defs.get_key_value(name) else {
                continue;
            };
            if seen.insert(key) {
                todo.extend(
                    defs.iter()
                        .flat_map(|(_, f)| f.calls.iter().map(String::as_str)),
                );
            }
        }
        seen
    }

    /// Whether `name` reaches a definition that calls `invariant::`
    /// directly (including being one itself) — S1's question.
    pub fn reaches_guard(&self, name: &str) -> bool {
        self.reachable([name])
            .iter()
            .any(|n| self.defs[n].iter().any(|(_, f)| f.direct_guard))
    }

    /// The hot set: functions transitively reachable from the
    /// configured hot roots plus every shard body's callees.
    fn hot_set(&self, cfg: &SemaConfig) -> BTreeSet<&'a str> {
        let body_calls = self.shard_bodies.iter().flat_map(|(_, sb)| &sb.calls);
        self.reachable(
            cfg.hot_root_fns
                .iter()
                .chain(body_calls)
                .map(String::as_str),
        )
    }

    /// S6 raw material: per-definition allocation counts over the hot
    /// set, keyed `"<path>::<fn>"`, restricted to `hot_path_markers`.
    /// Same-named definitions in one file (methods of different `impl`
    /// blocks) share a key, so the entry sums their counts and points at
    /// the first of them.
    pub fn hot_alloc_counts(&self, cfg: &SemaConfig) -> BTreeMap<String, HotAlloc> {
        let mut out = BTreeMap::<String, HotAlloc>::new();
        for name in self.hot_set(cfg) {
            for &(path, def) in &self.defs[name] {
                if path_matches(path, &cfg.hot_path_markers) {
                    let entry = out
                        .entry(format!("{path}::{name}"))
                        .or_insert_with(|| HotAlloc {
                            path: path.to_string(),
                            line: def.line,
                            count: 0,
                        });
                    entry.line = entry.line.min(def.line);
                    entry.count += def.allocs.len();
                }
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
        for &(path, sb) in &self.shard_bodies {
            for (name, method, line) in &sb.interior_mut {
                out.push(Finding {
                    rule: "S5".to_string(),
                    path: path.to_string(),
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
        for &(path, sb) in &self.shard_bodies {
            for (line, what) in &sb.blocking {
                out.push(Finding {
                    rule: "S8".to_string(),
                    path: path.to_string(),
                    line: *line,
                    message: format!(
                        "`{}` shard body blocks on `{what}` — shard workers must stay \
                         lock- and wait-free (the pool owns all synchronization)",
                        sb.entry
                    ),
                });
            }
            for callee in self.reachable(sb.calls.iter().map(String::as_str)) {
                for &(def_path, def) in &self.defs[callee] {
                    for (line, what) in &def.blocking {
                        out.push(Finding {
                            rule: "S8".to_string(),
                            path: def_path.to_string(),
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
    use crate::tree::Tree;

    fn cfg() -> SemaConfig {
        SemaConfig {
            hot_path_markers: vec!["src".to_string()],
            hot_root_fns: vec!["hot_entry".to_string()],
            ..SemaConfig::default()
        }
    }

    fn facts(src: &str) -> FileFacts {
        FileFacts::new("crates/x/src/lib.rs", src, &cfg())
    }

    fn analyze(src: &str) -> Vec<Finding> {
        FlowAnalysis::build([&facts(src)]).findings(&cfg())
    }

    fn rules_of(found: &[Finding]) -> Vec<&str> {
        found.iter().map(|f| f.rule.as_str()).collect()
    }

    /// The captures of the first closure in `src`'s first fn.
    fn captures(src: &str) -> Vec<String> {
        let tree = Tree::new(src);
        let enclosing = tree.fn_bindings(&tree.fns[0]);
        let first = tree.closures().next();
        let caps = first.map(|c| tree.captures(&c, &enclosing));
        caps.unwrap_or_default().into_iter().collect()
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
             let _ = run_rounds(items, |_i, x| { *shared.lock() += x; 0 }, drive); }",
        );
        let rules = rules_of(&found);
        assert!(rules.contains(&"S5"), "{found:?}");
    }

    #[test]
    fn s5_flags_telemetry_named_interior_state_too() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { let telemetry = Cell::new(0); \
             let _ = run_rounds(items, |_i, x| { telemetry.swap(x); 0 }, drive); }",
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
             let _ = run_rounds(items, |_i, cell| { cell.swap(1); 0 }, drive); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn s5_clean_shard_body_stays_silent() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { let base = 10; \
             let _ = run_rounds(items, |_i, x| x + base, drive); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn s5_resolves_let_bound_worker_closure() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { let acc = AtomicU32::new(0); \
             let work = |_i: usize, x: &u32| { acc.fetch_add(*x, Relaxed); 0 }; \
             let _ = run_rounds(items, work, drive); }",
        );
        assert_eq!(rules_of(&found), vec!["S5"]);
    }

    #[test]
    fn s5_run_rounds_checks_work_not_drive() {
        // `drive` (arg 2) runs on the driver thread and may mutate; only
        // `work` (arg 1) is the shard body.
        let found = analyze(
            "fn run(shards: Vec<S>, slots: usize) { let sink = RefCell::new(R::new()); \
             let work = |_s: usize, ctx: &usize, st: &mut S| { st.step(*ctx) }; \
             let drive = |rounds: &mut Rounds| { sink.borrow_mut().extend(rounds.run(slots)?); Ok(()) }; \
             let _ = run_rounds(shards, work, drive); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn s8_flags_direct_and_transitive_blocking() {
        let found = analyze(
            "fn run(items: &[u32], workers: W) { \
             let _ = run_rounds(items, |_i, x| { \
             helper(*x); thread::sleep(d); 0 }, drive); } \
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
             let _ = run_rounds(items, |_i, x| { fwd(*x); bwd(*x); x + 1 }, drive); }\n\
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
             let work = |_s: usize, c: &usize, st: &mut S| st.step(*c); \
             let drive = |rounds: &mut Rounds| { replay.lock(); rounds.run(slots)?; sink.lock(); Ok(()) }; \
             let _ = run_rounds(shards, work, drive); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn hot_alloc_counts_cover_roots_and_callees() {
        let counts = FlowAnalysis::build([&facts(
            "fn hot_entry(n: usize) { let v: Vec<u32> = (0..n).collect(); helper(n); }\n\
             fn helper(n: usize) { for i in 0..n { let row = vec![i; 4]; drop(row); } \
             let s = format!(\"x\"); }\n\
             fn cold(n: usize) { let s = n.to_string(); }",
        )])
        .hot_alloc_counts(&cfg());
        assert_eq!(
            counts["crates/x/src/lib.rs::hot_entry"].count, 1,
            "{counts:?}"
        );
        assert_eq!(counts["crates/x/src/lib.rs::helper"].count, 2, "{counts:?}");
        assert!(!counts.contains_key("crates/x/src/lib.rs::cold"));
    }

    #[test]
    fn same_named_definitions_in_one_file_sum() {
        let counts = FlowAnalysis::build([&facts(
            "fn hot_entry(n: usize) { let a = A::new(n); let b = B::new(n); }\n\
             impl A { fn new(n: usize) -> A { A(format!(\"{n}\")) } }\n\
             impl B { fn new(n: usize) -> B { B(n.to_string()) } }",
        )])
        .hot_alloc_counts(&cfg());
        let new = &counts["crates/x/src/lib.rs::new"];
        assert_eq!((new.count, new.line), (2, 2), "{counts:?}");
    }

    #[test]
    fn path_form_clones_count_like_method_calls() {
        let counts = FlowAnalysis::build([&facts(
            "fn hot_entry(v: &Vec<u32>, s: &String, a: &Arc<u32>) { let w = Vec::clone(v); \
             let t = String::clone(s); let r = Registry::clone(&reg); \
             let it: Vec<u32> = Iterator::collect(v.iter().copied()); \
             let b = Arc::clone(a); let c = std::rc::Rc::clone(&rc); }",
        )])
        .hot_alloc_counts(&cfg());
        assert_eq!(
            counts["crates/x/src/lib.rs::hot_entry"].count, 4,
            "{counts:?}"
        );
    }

    #[test]
    fn vec_and_with_capacity_count_only_in_loops() {
        let counts = FlowAnalysis::build([&facts(
            "fn hot_entry(n: usize) { let v = Vec::with_capacity(n); let w = vec![0; n]; \
             for _ in 0..n { let inner = Vec::with_capacity(4); drop(inner); } }",
        )])
        .hot_alloc_counts(&cfg());
        assert_eq!(counts["crates/x/src/lib.rs::hot_entry"].count, 1);
    }

    #[test]
    fn test_items_are_skipped() {
        let found = analyze(
            "#[cfg(test)]\nmod tests { fn run(items: &[u32], workers: W) { \
             let _ = run_rounds(items, |_i, x| { thread::sleep(d); 0 }, drive); } }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    /// S1's question over one crate whose files are `srcs`.
    fn reaches_guard(srcs: &[&str], name: &str) -> bool {
        let files: Vec<FileFacts> = srcs.iter().map(|src| facts(src)).collect();
        FlowAnalysis::build(&files).reaches_guard(name)
    }

    #[test]
    fn direct_guard_is_base_case() {
        let src = "pub fn decide(x: f64) -> f64 { invariant::check_unit_interval(\"x\", x) }";
        assert!(facts(src).fns[0].direct_guard);
        assert!(reaches_guard(&[src], "decide"));
    }

    #[test]
    fn guard_through_one_hop_and_two_hops() {
        let src = "pub fn decide(x: f64) -> f64 { clamp(x) }\n\
                   fn clamp(x: f64) -> f64 { checked(x) }\n\
                   fn checked(x: f64) -> f64 { invariant::check_unit_interval(\"x\", x) }";
        assert!(!facts(src).fns[0].direct_guard);
        assert!(reaches_guard(&[src], "decide"));
        assert!(reaches_guard(&[src], "clamp"));
    }

    #[test]
    fn unguarded_chain_does_not_reach() {
        let src =
            "pub fn decide(x: f64) -> f64 { helper(x) }\nfn helper(x: f64) -> f64 { x * 0.5 }";
        assert!(!reaches_guard(&[src], "decide"));
    }

    #[test]
    fn cycles_terminate() {
        assert!(!reaches_guard(&["fn a() { b() }\nfn b() { a() }"], "a"));
    }

    #[test]
    fn method_call_edges_count() {
        let src = "pub fn decide(s: &S) -> f64 { s.balance(0.5) }\n\
                   impl S { fn balance(&self, x: f64) -> f64 { invariant::check_simplex(&[x]) } }";
        assert!(reaches_guard(&[src], "decide"));
    }

    #[test]
    fn cross_file_edges_resolve() {
        let a = "pub fn decide(x: f64) -> f64 { solver::balance_solve(x) }";
        let b = "pub fn balance_solve(x: f64) -> f64 { invariant::check_unit_interval(\"x\", x) }";
        assert!(reaches_guard(&[a, b], "decide"));
    }

    #[test]
    fn leime_invariant_crate_path_counts() {
        let src = "pub fn decide(x: f64) -> f64 { leime_invariant::check(x) }";
        assert!(reaches_guard(&[src], "decide"));
    }

    #[test]
    fn guard_inside_macro_args_is_seen() {
        let src = "pub fn decide(x: f64) { record!(invariant::check(x)); }";
        assert!(reaches_guard(&[src], "decide"));
    }
}
