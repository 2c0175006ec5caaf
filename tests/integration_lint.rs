//! Tier-2 gates on the workspace's static analysis.
//!
//! The library sources must pass every leime-lint rule (S1 and S6) with
//! zero violations: the same scan `cargo run -p leime-lint --
//! --deny-all` performs in CI, run here so a plain `cargo test` catches
//! regressions too. The workspace's three `#[expect(clippy::…)]`
//! escapes are pinned by site, and no `#[allow]` may lift a concurrency
//! or wall-clock ban. Three dependency facts are checked here as well,
//! over `cargo metadata`: the crate layering, that every normal
//! dependency is named by the crate's non-test sources, and that
//! `leime`, `leime-fleet` and `leime-serving` take `rand` for tests
//! only, so their library code seeds RNGs through
//! `leime_par::stream_rng` alone. Panics, float equality, wall-clock
//! reads, hash containers, and locks, atomics, channels and blocking
//! calls outside leime-par's pool are clippy's job
//! (`[workspace.lints.clippy]`, `clippy.toml`), and `unsafe` is
//! forbidden by the compiler (`[workspace.lints.rust]`).

use leime_lint::layering::{self, Dep, Violation, LAYERS, STREAM_RNG_ONLY, TOOLING};
use leime_lint::lexer::{lex, TokKind};
use leime_lint::{run, ScanOptions, RULE_IDS, SCHEMA_VERSION};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Workspace root: two levels above the `leime` core crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(Path::parent) {
        Some(root) => root.to_path_buf(),
        None => unreachable!("crates/core always sits two levels below the root"),
    }
}

#[test]
fn workspace_library_sources_are_lint_clean() {
    let opts = ScanOptions::new(workspace_root());
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("workspace lint scan must succeed: {e}"),
    };
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — did the walk break?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "workspace must be lint-clean; report:\n{}",
        report.render_text()
    );
}

#[test]
fn semantic_rules_are_part_of_the_workspace_gate() {
    // The default scan runs every rule and reports the `leime-lint/5`
    // schema, so the clean result above is a *semantic* clean: every
    // guarded solver transitively reaches `invariant::`, and hot-path
    // allocation counts hold at the pinned baseline.
    let opts = ScanOptions::new(workspace_root());
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => unreachable!("workspace lint scan must succeed: {e}"),
    };
    assert_eq!(report.schema, SCHEMA_VERSION);
    assert_eq!(SCHEMA_VERSION, "leime-lint/5");
    assert_eq!(RULE_IDS, ["S1", "S6"]);
    assert_eq!(report.rule_set, RULE_IDS);
    for f in &report.violations {
        assert!(
            !f.rule.starts_with('S'),
            "semantic violation crept in at {}:{} [{}] {}",
            f.path,
            f.line,
            f.rule,
            f.message
        );
    }
}

/// The workspace's escapes, as `(file, fn)`: the file holding an
/// `#[expect(…)]` and the fn it sits on, or no fn for a module-level
/// `#![expect(…)]`. They are the sanctioned panic site every
/// `invariant::` guard routes through, leime-par's pool, the one home
/// of locks and atomics, and `WallClock::default`, the workspace's one
/// wall-clock read.
const EXPECT_LEDGER: [(&str, &str); 3] = [
    ("crates/invariant/src/lib.rs", "violation"),
    ("crates/par/src/pool.rs", ""),
    ("crates/telemetry/src/clock.rs", "default"),
];

/// The attributes of the `.rs` files under `dir` (vendored shims and
/// build output excluded) that escape a lint: every `#[expect(…)]` /
/// `#![expect(…)]` into `expects`, as its root-relative path and the
/// name of the first `fn` after it (empty for a module-level one or
/// when none follows), and every `allow` naming
/// `clippy::disallowed_types` or `clippy::disallowed_methods` into
/// `allows`, as `path:line`.
fn escape_sites(
    root: &Path,
    dir: &Path,
    expects: &mut Vec<(String, String)>,
    allows: &mut Vec<String>,
) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name != "shims" && name != "target" {
                escape_sites(root, &path, expects, allows);
            }
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let toks = lex(&std::fs::read_to_string(&path).unwrap_or_default());
        let is = |i: usize, s: &str| toks.get(i).is_some_and(|t| t.text == s);
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        for i in 0..toks.len() {
            let bang = usize::from(is(i + 1, "!"));
            if !(is(i, "#") && is(i + 1 + bang, "[")) {
                continue;
            }
            // The attribute's identifiers, up to its own `]`.
            let mut depth = 0i32;
            let attr: Vec<&str> = toks[i + 1 + bang..]
                .iter()
                .take_while(|t| {
                    match (t.kind, t.text.as_str()) {
                        (TokKind::Punct, "[") => depth += 1,
                        (TokKind::Punct, "]") => depth -= 1,
                        _ => {}
                    }
                    depth > 0
                })
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            if attr.first() == Some(&"expect") {
                let item = toks[i..]
                    .windows(2)
                    .find(|w| bang == 0 && w[0].text == "fn")
                    .map_or(String::new(), |w| w[1].text.clone());
                expects.push((rel.clone(), item));
            }
            let bans = ["disallowed_types", "disallowed_methods"];
            if attr.contains(&"allow") && attr.iter().any(|id| bans.contains(id)) {
                allows.push(format!("{rel}:{}", toks[i].line));
            }
        }
    }
}

#[test]
fn expect_escapes_are_the_three_ledgered_sites() {
    // Every leime-lint finding fails: there is no inline waiver. The only
    // escapes are `#[expect(clippy::…)]`s, pinned here both ways: a new
    // one fails, and so does one removed while it stays in the ledger.
    // An `#[allow]` of a clippy ban would be an escape outside the
    // ledger, so any fails.
    let root = workspace_root();
    let (mut sites, mut allows) = (Vec::new(), Vec::new());
    for dir in ["crates", "tests", "examples"] {
        escape_sites(&root, &root.join(dir), &mut sites, &mut allows);
    }
    assert!(
        allows.is_empty(),
        "an `#[allow]` lifts a clippy ban at {allows:?}: keep the state on one thread, or \
         move it into leime-par's pool"
    );
    sites.sort();
    let ledger: Vec<(String, String)> = EXPECT_LEDGER
        .iter()
        .map(|&(file, item)| (file.to_string(), item.to_string()))
        .collect();
    assert_eq!(
        sites, ledger,
        "the `#[expect]` escapes moved: fix the code, or justify the change and update the ledger"
    );
}

/// The workspace's own (`leime*`) packages, as `cargo metadata` lists
/// them.
fn leime_packages() -> Vec<serde_json::Value> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args([
            "metadata",
            "--offline",
            "--no-deps",
            "--format-version",
            "1",
        ])
        .current_dir(workspace_root())
        .output();
    let stdout = match output {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
        Ok(o) => unreachable!(
            "cargo metadata failed: {}",
            String::from_utf8_lossy(&o.stderr)
        ),
        Err(e) => unreachable!("cannot run cargo metadata: {e}"),
    };
    let meta: serde_json::Value = match serde_json::from_str(&stdout) {
        Ok(v) => v,
        Err(e) => unreachable!("cargo metadata must emit JSON: {e:?}"),
    };
    let packages = meta["packages"]
        .as_array()
        .map(Vec::as_slice)
        .unwrap_or_default();
    packages
        .iter()
        .filter(|pkg| layering::is_leime(pkg["name"].as_str().unwrap_or_default()))
        .cloned()
        .collect()
}

/// Runs the pure dependency check `check` on every package, rendering its
/// findings as `manifest:line: message`.
fn dependency_findings(
    packages: &[serde_json::Value],
    check: impl Fn(&str, &[Dep<'_>], &str) -> Vec<Violation>,
) -> Vec<String> {
    let mut out = Vec::new();
    for pkg in packages {
        let name = pkg["name"].as_str().unwrap_or_default();
        let deps: Vec<Dep<'_>> = pkg["dependencies"]
            .as_array()
            .map(|ds| {
                ds.iter()
                    .filter_map(|d| {
                        d["name"].as_str().map(|name| Dep {
                            name,
                            normal: d["kind"].is_null(),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        let manifest_path = pkg["manifest_path"].as_str().unwrap_or_default();
        let manifest = match std::fs::read_to_string(manifest_path) {
            Ok(text) => text,
            Err(e) => unreachable!("cannot read {manifest_path}: {e}"),
        };
        for v in check(name, &deps, &manifest) {
            out.push(format!("{manifest_path}:{}: {}", v.line, v.message));
        }
    }
    out
}

/// The packages' names, sorted.
fn names(packages: &[serde_json::Value]) -> Vec<String> {
    let mut names: Vec<String> = packages
        .iter()
        .map(|p| p["name"].as_str().unwrap_or_default().to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn crate_layering_flows_strictly_downward() {
    let packages = leime_packages();
    let violations = dependency_findings(&packages, layering::violations);

    // The tables name exactly the workspace's crates: a new crate must be
    // placed, and a deleted one leaves.
    let mut known: Vec<String> = LAYERS
        .iter()
        .flat_map(|layer| layer.iter())
        .chain(TOOLING)
        .map(|s| (*s).to_string())
        .collect();
    known.sort();
    assert_eq!(names(&packages), known, "LAYERS/TOOLING out of date");
    assert!(violations.is_empty(), "{violations:#?}");
}

/// Identifiers in the `.rs` files under `dir`, outside comments,
/// literals and any item under an attribute naming `test`
/// (`#[cfg(test)]`, `#[test]`).
fn non_test_idents(dir: &Path, out: &mut BTreeSet<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            non_test_idents(&path, out);
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap_or_default();
        let toks = lex(&src);
        let is = |i: usize, s: &str| toks.get(i).is_some_and(|t| t.text == s);
        // The index past the group opened at `i`, by delimiter depth.
        let group_end = |mut i: usize| {
            let mut depth = 0i32;
            while i < toks.len() {
                match toks[i].text.as_str() {
                    "(" | "[" | "{" if toks[i].kind == TokKind::Punct => depth += 1,
                    ")" | "]" | "}" if toks[i].kind == TokKind::Punct => depth -= 1,
                    _ => {}
                }
                i += 1;
                if depth == 0 {
                    break;
                }
            }
            i
        };
        let mut i = 0;
        while i < toks.len() {
            if is(i, "#") && is(i + 1, "[") {
                let end = group_end(i + 1);
                let test = toks[i + 2..end.min(toks.len())]
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && t.text == "test");
                if test {
                    // Skip the item: further attributes, then up to its
                    // `;` or past its `{ … }` body.
                    i = end;
                    while i < toks.len() && !is(i, ";") && !is(i, "{") {
                        i = if is(i, "(") || is(i, "[") {
                            group_end(i)
                        } else {
                            i + 1
                        };
                    }
                    i = if is(i, "{") { group_end(i) } else { i + 1 };
                    continue;
                }
            }
            if toks[i].kind == TokKind::Ident {
                out.insert(toks[i].text.clone());
            }
            i += 1;
        }
    }
}

#[test]
fn every_normal_dependency_is_named_in_src() {
    // A normal dependency only the crate's tests, benches or examples
    // name belongs in `[dev-dependencies]`; one nothing names goes.
    let packages = leime_packages();
    let mut idents: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for pkg in &packages {
        let name = pkg["name"].as_str().unwrap_or_default();
        let manifest = Path::new(pkg["manifest_path"].as_str().unwrap_or_default());
        let src = manifest.with_file_name("src");
        non_test_idents(&src, idents.entry(name.to_string()).or_default());
    }
    let violations = dependency_findings(&packages, |name, deps, manifest| {
        let named = &idents[name];
        layering::unused_violations(name, deps, manifest, |dep| named.contains(dep))
    });
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn stream_pinned_crates_take_rand_for_tests_only() {
    // Without a normal `rand` dependency these crates cannot name
    // `SeedableRng`, so a literal, ad-hoc or entropy seed in their
    // library code does not compile: `leime_par::stream_rng` is the only
    // constructor they can reach.
    let packages = leime_packages();
    let violations = dependency_findings(&packages, layering::rand_violations);
    let names = names(&packages);
    for krate in STREAM_RNG_ONLY {
        assert!(names.iter().any(|n| n == krate), "{krate} went missing");
    }
    assert!(violations.is_empty(), "{violations:#?}");
}
