//! What produced a record: host, toolchain, build and inputs.
//!
//! Two records are comparable only when their manifests agree on every
//! field except the code identity (`git_rev`, `git_dirty`) — comparing
//! a parent commit with a change is the point, but a figure from
//! another CPU, toolchain, solver path, build flavour, workload or seed
//! says nothing about the code.

use serde_json::{json, Value};

/// Fields that identify the code under test rather than the conditions
/// it ran in; they may differ between comparable records.
const CODE_IDENTITY: [&str; 2] = ["git_rev", "git_dirty"];

/// Builds the manifest for a run of `workload` at `seed`. The rustc
/// version and git state come from the launcher's environment
/// (`PERFBENCH_RUSTC`, `PERFBENCH_GIT_REV`, `PERFBENCH_GIT_DIRTY`),
/// because a checkout that is not a git repository has neither.
pub fn collect(workload: &str, seed: u64) -> Value {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    json!({
        "available_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu_model": cpu_model(),
        "rustc": env("PERFBENCH_RUSTC"),
        "git_rev": env("PERFBENCH_GIT_REV"),
        "git_dirty": env("PERFBENCH_GIT_DIRTY"),
        "strict_invariants": leime_invariant::active(),
        "solver_simd": simd_path(),
        "workload": workload,
        "seed": seed,
    })
}

/// Whether records with these manifests may be compared: every field
/// outside [`CODE_IDENTITY`] must be present in both and equal.
pub fn comparable(a: &Value, b: &Value) -> bool {
    let (Value::Object(a), Value::Object(b)) = (a, b) else {
        return false;
    };
    let keys = |m: &serde_json::Map| {
        let mut k: Vec<String> = m
            .iter()
            .map(|(k, _)| k.clone())
            .filter(|k| !CODE_IDENTITY.contains(&k.as_str()))
            .collect();
        k.sort();
        k
    };
    let shared = keys(a);
    shared == keys(b) && shared.iter().all(|k| a.get(k) == b.get(k))
}

/// The lane width the batched golden-section solver dispatches to,
/// detected with the same runtime checks, in the same order, as the
/// solver's own dispatch.
pub fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(rev: &str, cpu: &str, seed: u64) -> Value {
        json!({
            "available_parallelism": 2,
            "cpu_model": cpu,
            "rustc": "rustc 1.95.0",
            "git_rev": rev,
            "git_dirty": "false",
            "strict_invariants": false,
            "solver_simd": "avx512",
            "workload": "slotted_poisson",
            "seed": seed,
        })
    }

    fn set(manifest: &mut Value, key: &str, value: Value) {
        manifest
            .as_object_mut()
            .expect("object")
            .insert(key.to_string(), value);
    }

    #[test]
    fn code_identity_may_differ() {
        let parent = manifest("abc1234", "Xeon", 7);
        let mut change = manifest("def5678", "Xeon", 7);
        set(&mut change, "git_dirty", json!("true"));
        assert!(comparable(&parent, &change));
        assert!(comparable(&parent, &parent));
    }

    #[test]
    fn host_inputs_and_build_must_match() {
        let base = manifest("abc", "Xeon", 7);
        assert!(!comparable(&base, &manifest("abc", "EPYC", 7)));
        assert!(!comparable(&base, &manifest("abc", "Xeon", 8)));
        let mut strict = base.clone();
        set(&mut strict, "strict_invariants", json!(true));
        assert!(!comparable(&base, &strict));
        let mut scalar = base.clone();
        set(&mut scalar, "solver_simd", json!("scalar"));
        assert!(!comparable(&base, &scalar));
    }

    #[test]
    fn missing_fields_and_non_objects_never_match() {
        let base = manifest("abc", "Xeon", 7);
        let mut partial = base.clone();
        partial.as_object_mut().expect("object").remove("rustc");
        assert!(!comparable(&base, &partial));
        assert!(!comparable(&base, &json!([])));
    }

    #[test]
    fn collected_manifest_names_every_field() {
        let m = collect("serving_flash", 3);
        for key in [
            "available_parallelism",
            "cpu_model",
            "rustc",
            "git_rev",
            "git_dirty",
            "strict_invariants",
            "solver_simd",
            "workload",
            "seed",
        ] {
            assert!(m.get(key).is_some(), "{key}");
        }
        assert!(comparable(&m, &collect("serving_flash", 3)));
    }
}
