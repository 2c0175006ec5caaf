//! The workspace crate layering, as a pure check over one package's
//! dependency list and manifest text. `tests/integration_lint.rs` feeds
//! it every workspace package from `cargo metadata`.
//!
//! The product crates layer strictly downward:
//!
//! | layer | crates |
//! | ----- | ------ |
//! | 0 | `leime-invariant`, `leime-telemetry` (leaf-like: no leime deps) |
//! | 1 | `leime-tensor`, `leime-simnet`, `leime-par` |
//! | 2 | `leime-dnn` |
//! | 3 | `leime-workload` |
//! | 4 | `leime-inference`, `leime-exitcfg`, `leime-chaos`, `leime-offload` |
//! | 5 | `leime` (core) |
//! | 6 | `leime-fleet` |
//! | 7 | `leime-serving` |
//! | 8 | `leime-bench` |
//!
//! Every normal dependency must point to a *strictly lower* layer, which
//! implies acyclicity, keeps `core` off `bench`, and keeps layer-0
//! crates leaf-like. Two extra constraints:
//!
//! * **tooling fence**: no product crate depends on `leime-lint`, and
//!   `leime-lint` depends on no product crate;
//! * **no direct shim paths**: the vendored shims under `crates/shims/`
//!   are wired only through the root `[workspace.dependencies]`; a
//!   `path = "…shims…"` in a crate manifest would bypass it.
//!
//! Dev- and build-dependencies may look upward (tests do), but not
//! point at the shims directly.
//!
//! [`rand_violations`] is the seeded-RNG fact over the same inputs: the
//! crates in [`STREAM_RNG_ONLY`] take `rand` as a dev-dependency only.
//! `leime-par` re-exports `StdRng` and `Rng` but not `SeedableRng`, so
//! their library code cannot seed a generator from a literal, an ad-hoc
//! value or ambient entropy: `leime_par::stream_rng` is the only way.
//!
//! [`unused_violations`] flags a normal dependency that the package's
//! non-test sources never name: a test-only edge belongs in
//! `[dev-dependencies]`, and an unnamed one only costs build time.

/// The product crates' layering, lowest first. Rank = index.
pub const LAYERS: &[&[&str]] = &[
    &["leime-invariant", "leime-telemetry"],
    &["leime-tensor", "leime-simnet", "leime-par"],
    &["leime-dnn"],
    &["leime-workload"],
    &[
        "leime-inference",
        "leime-exitcfg",
        "leime-chaos",
        "leime-offload",
    ],
    &["leime"],
    &["leime-fleet"],
    &["leime-serving"],
    &["leime-bench"],
];

/// Static-analysis tooling, fenced off from the product graph.
pub const TOOLING: &[&str] = &["leime-lint"];

/// Crates whose library code seeds RNGs only through
/// `leime_par::stream_rng`: `rand` may be their dev-dependency, never a
/// normal one.
pub const STREAM_RNG_ONLY: &[&str] = &["leime", "leime-fleet", "leime-serving"];

/// Rank of a crate in [`LAYERS`], if it has one.
pub fn rank_of(name: &str) -> Option<usize> {
    LAYERS.iter().position(|layer| layer.contains(&name))
}

/// Whether `name` is one of the workspace's own crates.
pub fn is_leime(name: &str) -> bool {
    name == "leime" || name.starts_with("leime-")
}

/// One dependency of a package, as `cargo metadata` lists it.
#[derive(Clone, Copy, Debug)]
pub struct Dep<'a> {
    pub name: &'a str,
    /// `[dependencies]` (`kind: null`); dev- and build-dependencies are
    /// exempt from the layering.
    pub normal: bool,
}

/// A layering violation at a 1-based manifest line (0 when the manifest
/// text does not name the dependency).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub line: u32,
    pub message: String,
}

/// Layering violations of `package`, given its dependencies and the
/// text of its `Cargo.toml`.
pub fn violations(package: &str, deps: &[Dep<'_>], manifest: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if !line.starts_with('#') && line.contains("path") && line.contains("shims") {
            out.push(Violation {
                line: line_number(idx),
                message: format!(
                    "`{package}` wires `{line}` straight to the vendored shims — \
                     use `[workspace.dependencies]`"
                ),
            });
        }
    }
    let tooling = |name: &str| TOOLING.contains(&name);
    for dep in deps.iter().filter(|d| d.normal && is_leime(d.name)) {
        let message = if tooling(package) != tooling(dep.name) {
            format!(
                "`{package}` depends on `{}` across the tooling fence",
                dep.name
            )
        } else {
            match (rank_of(package), rank_of(dep.name)) {
                (Some(cr), Some(dr)) if dr >= cr => format!(
                    "`{package}` (layer {cr}) depends on `{}` (layer {dr}) — \
                     the crate DAG flows strictly downward",
                    dep.name
                ),
                _ => continue,
            }
        };
        out.push(Violation {
            line: dep_line(manifest, dep.name),
            message,
        });
    }
    out.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
    out
}

/// A normal `rand` dependency of a [`STREAM_RNG_ONLY`] package, given its
/// dependencies and the text of its `Cargo.toml`.
pub fn rand_violations(package: &str, deps: &[Dep<'_>], manifest: &str) -> Vec<Violation> {
    if !STREAM_RNG_ONLY.contains(&package) {
        return Vec::new();
    }
    deps.iter()
        .filter(|d| d.normal && d.name == "rand")
        .map(|d| Violation {
            line: dep_line(manifest, d.name),
            message: format!(
                "`{package}` depends on `rand` — its library code must seed every RNG \
                 through `leime_par::stream_rng`; move `rand` to `[dev-dependencies]`"
            ),
        })
        .collect()
}

/// A normal dependency of `package` that its non-test sources never
/// name, given its dependencies, the text of its `Cargo.toml`, and
/// `named`, which says whether those sources use an identifier (the
/// dependency's name with `-` read as `_`).
pub fn unused_violations(
    package: &str,
    deps: &[Dep<'_>],
    manifest: &str,
    named: impl Fn(&str) -> bool,
) -> Vec<Violation> {
    deps.iter()
        .filter(|d| d.normal && !named(&d.name.replace('-', "_")))
        .map(|d| Violation {
            line: dep_line(manifest, d.name),
            message: format!(
                "`{package}` depends on `{}`, which no non-test source names — \
                 delete it or move it to `[dev-dependencies]`",
                d.name
            ),
        })
        .collect()
}

fn line_number(idx: usize) -> u32 {
    u32::try_from(idx + 1).unwrap_or(u32::MAX)
}

/// The manifest line declaring `dep`: a `dep = …` / `dep.workspace = …`
/// key in a dependency section, or a `[dependencies.dep]` header.
fn dep_line(manifest: &str, dep: &str) -> u32 {
    let mut in_deps = false;
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']');
            match header.rsplit_once('.') {
                Some((section, name)) if section.ends_with("dependencies") && name == dep => {
                    return line_number(idx);
                }
                _ => in_deps = header.ends_with("dependencies"),
            }
            continue;
        }
        let key_len = line
            .find(|c: char| !(c.is_alphanumeric() || c == '-' || c == '_'))
            .unwrap_or(line.len());
        if in_deps && &line[..key_len] == dep {
            return line_number(idx);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks a manifest `[package] name = "<name>"` + `body`, with the
    /// given normal and dev dependencies.
    fn check(name: &str, normal: &[&str], dev: &[&str], body: &str) -> Vec<Violation> {
        let text = format!("[package]\nname = \"{name}\"\n{body}");
        let deps: Vec<Dep<'_>> = normal
            .iter()
            .map(|&name| Dep { name, normal: true })
            .chain(dev.iter().map(|&name| Dep {
                name,
                normal: false,
            }))
            .collect();
        violations(name, &deps, &text)
    }

    #[test]
    fn clean_downward_edges_pass() {
        let out = check(
            "leime-offload",
            &["serde", "leime-dnn", "leime-invariant", "leime-telemetry"],
            &[],
            "[dependencies]\nserde.workspace = true\nleime-dnn.workspace = true\n\
             leime-invariant.workspace = true\nleime-telemetry.workspace = true",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn upward_edge_is_flagged_with_line() {
        let out = check(
            "leime-telemetry",
            &["serde", "leime"],
            &[],
            "[dependencies]\nserde.workspace = true\nleime.workspace = true",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 5);
        assert!(out[0].message.contains("strictly downward"));
    }

    #[test]
    fn same_layer_edge_is_flagged() {
        let out = check(
            "leime-exitcfg",
            &["leime-offload"],
            &[],
            "[dependencies]\nleime-offload.workspace = true",
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn dev_dependencies_may_look_upward() {
        let out = check(
            "leime-exitcfg",
            &["leime-dnn"],
            &["leime-workload"],
            "[dependencies]\nleime-dnn.workspace = true\n\
             [dev-dependencies]\nleime-workload.workspace = true",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn tooling_is_fenced_both_ways() {
        let product_on_tooling = check(
            "leime-simnet",
            &["leime-lint"],
            &[],
            "[dependencies]\nleime-lint.workspace = true",
        );
        assert_eq!(product_on_tooling.len(), 1);
        assert!(product_on_tooling[0].message.contains("tooling"));
        let tooling_on_product = check(
            "leime-lint",
            &["leime-telemetry"],
            &[],
            "[dependencies]\nleime-telemetry.workspace = true",
        );
        assert_eq!(tooling_on_product.len(), 1);
        let tooling_on_external = check(
            "leime-lint",
            &["serde_json"],
            &[],
            "[dependencies]\nserde_json.workspace = true",
        );
        assert!(tooling_on_external.is_empty(), "{tooling_on_external:?}");
    }

    #[test]
    fn direct_shim_path_is_flagged_even_for_dev_deps() {
        let out = check(
            "leime-dnn",
            &[],
            &["proptest"],
            "[dev-dependencies]\nproptest = { path = \"../shims/proptest\" }",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("shims"));
    }

    #[test]
    fn rand_is_a_dev_dependency_only_where_streams_are_pinned() {
        let rand = |normal| {
            [Dep {
                name: "rand",
                normal,
            }]
        };
        let text = "[dependencies]\nrand.workspace = true";
        let out = rand_violations("leime-serving", &rand(true), text);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
        assert!(rand_violations("leime-serving", &rand(false), text).is_empty());
        assert!(rand_violations("leime-workload", &rand(true), text).is_empty());
    }

    #[test]
    fn unused_normal_dependency_is_flagged_with_line() {
        let deps = [
            Dep {
                name: "leime-tensor",
                normal: true,
            },
            Dep {
                name: "serde",
                normal: true,
            },
            Dep {
                name: "rand",
                normal: false,
            },
        ];
        let text = "[dependencies]\nserde.workspace = true\nleime-tensor.workspace = true\n\
                    [dev-dependencies]\nrand.workspace = true";
        let out = unused_violations("leime", &deps, text, |name| name == "serde");
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 3);
        assert!(
            out[0].message.contains("`leime-tensor`"),
            "{}",
            out[0].message
        );
        let all = |name: &str| name == "serde" || name == "leime_tensor";
        assert!(unused_violations("leime", &deps, text, all).is_empty());
    }

    #[test]
    fn rank_table_matches_reality_spot_checks() {
        assert_eq!(rank_of("leime-invariant"), Some(0));
        assert_eq!(rank_of("leime"), Some(5));
        assert_eq!(rank_of("leime-fleet"), Some(6));
        assert_eq!(rank_of("leime-serving"), Some(7));
        assert_eq!(rank_of("leime-bench"), Some(8));
        assert_eq!(rank_of("not-a-crate"), None);
    }
}
