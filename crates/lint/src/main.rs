//! CLI entry point: `leime-lint [options] [paths...]`.
//!
//! ```text
//! cargo run -p leime-lint -- --deny-all        # CI gate over the workspace
//! cargo run -p leime-lint -- --json            # machine-readable report
//! cargo run -p leime-lint -- crates/offload    # scan a subtree only
//! ```
//!
//! Exit codes: `0` clean (or report-only mode), `1` usage/I-O error,
//! `2` violations under `--deny-all`.

use leime_lint::{parse_rule_filter, run, ScanOptions};
use std::path::PathBuf;

const USAGE: &str = "usage: leime-lint [--root DIR] [--json] [--deny-all] \
[--rules S1,S6] [--baseline FILE] [--write-baseline] [paths...]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = real_main(&args);
    std::process::exit(code);
}

fn real_main(args: &[String]) -> i32 {
    let mut opts = ScanOptions::new(default_root());
    let mut json = false;
    let mut deny_all = false;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--deny-all" => deny_all = true,
            "--write-baseline" => opts.write_s6_baseline = true,
            "--root" | "--rules" | "--baseline" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("{} needs a value\n{USAGE}", args[i]);
                    return 1;
                };
                match args[i].as_str() {
                    "--root" => opts.root = PathBuf::from(value),
                    "--baseline" => opts.s6_baseline = Some(PathBuf::from(value)),
                    _ => {
                        if let Err(e) = parse_rule_filter(&mut opts.config, value) {
                            eprintln!("{e}");
                            return 1;
                        }
                    }
                }
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`\n{USAGE}");
                return 1;
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
        i += 1;
    }

    match run(&opts) {
        Ok(report) => {
            if json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render_text());
            }
            if deny_all && !report.is_clean() {
                2
            } else {
                0
            }
        }
        Err(e) => {
            eprintln!("leime-lint: {e}");
            1
        }
    }
}

/// Workspace root: the current directory when it contains `crates/`,
/// otherwise two levels up from this crate's manifest (the workspace
/// layout is `<root>/crates/lint`).
fn default_root() -> PathBuf {
    let cwd = PathBuf::from(".");
    if cwd.join("crates").is_dir() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}
