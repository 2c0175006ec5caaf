//! The merged flow graph over [`FileFacts`] and hot-region
//! reachability: the raw material of the S6 allocation ratchet, which
//! [`crate::run`] compares against a pinned baseline (S1 reads the same
//! graph over one crate's files, see [`crate::rules`]).
//!
//! The graph is *name-keyed*: same-named functions merge into one
//! node, so reachability over-approximates. For S6 that direction is
//! safe: a too-big hot set only makes the pinned baseline larger, never
//! produces a spurious regression. The hot set's roots are the
//! configured run entry points plus the calls of every shard body, the
//! closure argument of a known `leime-par` entry point.

use crate::tree::{FileFacts, FnFacts, ShardBody};
use crate::{path_matches, SemaConfig};
use std::collections::{BTreeMap, BTreeSet};

/// The merged workspace flow graph plus the discovered shard bodies,
/// borrowed from the files' facts.
#[derive(Debug, Default)]
pub struct FlowAnalysis<'a> {
    /// fn name → `(path, facts)` per definition (same-named fns merge
    /// into one node for reachability, but keep separate facts so S6
    /// counts stay per-definition).
    defs: BTreeMap<&'a str, Vec<(&'a str, &'a FnFacts)>>,
    /// Shard-worker closures found at `leime-par` entry-point calls.
    shard_bodies: Vec<&'a ShardBody>,
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
            out.shard_bodies.extend(&file.shard_bodies);
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
        let body_calls = self.shard_bodies.iter().flat_map(|sb| &sb.calls);
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
        let file = facts(
            "#[cfg(test)]\nmod tests { fn hot_entry(items: &[u32]) { let s = format!(\"x\"); \
             let _ = run_rounds(items, |_i, x| x.to_string(), drive); } }",
        );
        assert!(
            file.fns.is_empty() && file.shard_bodies.is_empty(),
            "{file:?}"
        );
        let counts = FlowAnalysis::build([&file]).hot_alloc_counts(&cfg());
        assert!(counts.is_empty(), "{counts:?}");
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
