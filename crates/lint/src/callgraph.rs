//! Intra-crate call graph for the S1 transitive-guard rule.
//!
//! Nodes are function *names* (an over-approximation: same-named
//! methods on different types merge into one node, which makes
//! reachability more permissive, never less — a deliberate bias, since
//! S1 false positives would train people to waive findings). Edges come
//! from the parsed AST: `path()` calls contribute their last segment,
//! method calls their method name.
//!
//! Direct `invariant::` detection is *token-level*, scanning each
//! function's body tokens for `invariant ::` / `leime_invariant ::`: a
//! function that calls a guard itself is S1's base case, and S1
//! additionally accepts delegation through locally-defined callees.

use crate::ast::{walk_block, walk_fns, Expr, File};
use crate::lexer::{lex, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Call graph over one crate's files.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// fn name → names it calls (paths by last segment, methods by name).
    calls: BTreeMap<String, BTreeSet<String>>,
    /// fn names whose body tokens contain a direct `invariant::` call.
    direct_guard: BTreeSet<String>,
}

impl CallGraph {
    /// Adds one parsed file (and its source text, for the token-level
    /// direct-guard scan) to the graph.
    pub fn add_file(&mut self, file: &File, src: &str) {
        walk_fns(&file.items, &mut |f| {
            let out = self.calls.entry(f.name.clone()).or_default();
            if let Some(body) = &f.body {
                walk_block(body, &mut |e| match e {
                    Expr::Call { callee, .. } => {
                        if let Expr::Path { segs, .. } = callee.as_ref() {
                            if let Some(last) = segs.last() {
                                out.insert(last.clone());
                            }
                        }
                    }
                    Expr::MethodCall { method, .. } => {
                        out.insert(method.clone());
                    }
                    _ => {}
                });
            }
        });
        scan_direct_guards(&lex(src).toks, &mut self.direct_guard);
    }

    /// Whether `name` calls `invariant::` directly.
    pub fn is_direct_guard(&self, name: &str) -> bool {
        self.direct_guard.contains(name)
    }

    /// Whether `name` reaches a direct `invariant::` caller through the
    /// call graph (including being one itself).
    pub fn reaches_guard(&self, name: &str) -> bool {
        if self.direct_guard.contains(name) {
            return true;
        }
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        seen.insert(name);
        queue.push_back(name);
        while let Some(cur) = queue.pop_front() {
            let Some(next) = self.calls.get(cur) else {
                continue;
            };
            for callee in next {
                if self.direct_guard.contains(callee) {
                    return true;
                }
                if seen.insert(callee) {
                    queue.push_back(callee);
                }
            }
        }
        false
    }

    /// Names of the functions this graph knows about.
    pub fn fn_names(&self) -> impl Iterator<Item = &str> {
        self.calls.keys().map(String::as_str)
    }
}

/// Token scan: for every `fn name … { body }`, records `name` when the
/// body contains `invariant ::` or `leime_invariant ::`. A nested fn's
/// guard also counts for its enclosing fn (an over-approximation; the
/// nested fn is itself a node too).
fn scan_direct_guards(toks: &[Tok], out: &mut BTreeSet<String>) {
    let is_punct = |t: &Tok, s: &str| t.kind == TokKind::Punct && t.text == s;
    let mut i = 0usize;
    while i < toks.len() {
        let is_fn = toks[i].kind == TokKind::Ident && toks[i].text == "fn";
        if !is_fn {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        // Find the body opener before a top-level `;` (trait decls have
        // no body).
        let mut j = i + 2;
        let mut body_start = None;
        while j < toks.len() {
            if is_punct(&toks[j], "{") {
                body_start = Some(j);
                break;
            }
            if is_punct(&toks[j], ";") {
                break;
            }
            j += 1;
        }
        let Some(start) = body_start else {
            i = j + 1;
            continue;
        };
        let mut depth = 0isize;
        let mut k = start;
        while k < toks.len() {
            if is_punct(&toks[k], "{") {
                depth += 1;
            } else if is_punct(&toks[k], "}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if toks[k].kind == TokKind::Ident
                && (toks[k].text == "invariant" || toks[k].text == "leime_invariant")
                && toks.get(k + 1).is_some_and(|t| is_punct(t, "::"))
            {
                out.insert(name_tok.text.clone());
            }
            k += 1;
        }
        // Continue from just inside the body so nested fns get scanned
        // as their own nodes too.
        i = start + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    fn graph_of(src: &str) -> CallGraph {
        let mut g = CallGraph::default();
        g.add_file(&parse_source(src), src);
        g
    }

    #[test]
    fn direct_guard_is_base_case() {
        let g =
            graph_of("pub fn decide(x: f64) -> f64 { invariant::check_unit_interval(\"x\", x) }");
        assert!(g.is_direct_guard("decide"));
        assert!(g.reaches_guard("decide"));
    }

    #[test]
    fn guard_through_one_hop_and_two_hops() {
        let g = graph_of(
            "pub fn decide(x: f64) -> f64 { clamp(x) }\n\
             fn clamp(x: f64) -> f64 { checked(x) }\n\
             fn checked(x: f64) -> f64 { invariant::check_unit_interval(\"x\", x) }",
        );
        assert!(!g.is_direct_guard("decide"));
        assert!(g.reaches_guard("decide"));
        assert!(g.reaches_guard("clamp"));
    }

    #[test]
    fn unguarded_chain_does_not_reach() {
        let g = graph_of(
            "pub fn decide(x: f64) -> f64 { helper(x) }\nfn helper(x: f64) -> f64 { x * 0.5 }",
        );
        assert!(!g.reaches_guard("decide"));
    }

    #[test]
    fn cycles_terminate() {
        let g = graph_of("fn a() { b() }\nfn b() { a() }");
        assert!(!g.reaches_guard("a"));
    }

    #[test]
    fn method_call_edges_count() {
        let g = graph_of(
            "pub fn decide(s: &S) -> f64 { s.balance(0.5) }\n\
             impl S { fn balance(&self, x: f64) -> f64 { invariant::check_simplex(&[x]) } }",
        );
        assert!(g.reaches_guard("decide"));
    }

    #[test]
    fn cross_file_edges_resolve() {
        let a = "pub fn decide(x: f64) -> f64 { solver::balance_solve(x) }";
        let b = "pub fn balance_solve(x: f64) -> f64 { invariant::check_unit_interval(\"x\", x) }";
        let mut g = CallGraph::default();
        g.add_file(&parse_source(a), a);
        g.add_file(&parse_source(b), b);
        assert!(g.reaches_guard("decide"));
    }

    #[test]
    fn leime_invariant_crate_path_counts() {
        let g = graph_of("pub fn decide(x: f64) -> f64 { leime_invariant::check(x) }");
        assert!(g.reaches_guard("decide"));
    }

    #[test]
    fn guard_inside_macro_args_is_seen() {
        // The token scan (not the AST) carries this case.
        let g = graph_of("pub fn decide(x: f64) { record!(invariant::check(x)); }");
        assert!(g.reaches_guard("decide"));
    }
}
