//! `leime` — command-line front end: deploy and simulate LEIME systems
//! from JSON scenario files.
//!
//! ```text
//! leime init                                  # print a template scenario
//! leime deploy --scenario s.json              # run the exit setting
//! leime run    --scenario s.json --slots 300  # slotted simulation
//! ```

use leime::{ExitStrategy, Scenario};
use std::process::ExitCode;

const USAGE: &str = "\
leime — Low Latency Edge Intelligence based on Multi-exit DNNs

USAGE:
    leime init
        Print a template scenario JSON to stdout.

    leime deploy --scenario <FILE> [--strategy <NAME>]
        Run the model-level exit setting and print the deployment.
        Strategies: leime (default), min_comp, min_tran, mean, ddnn,
        edgent, neurosurgeon.

    leime run --scenario <FILE> [--strategy <NAME>] [--slots <N>]
              [--seed <N>] [--json]
        Deploy and simulate the slotted model (default 300 slots).
";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Init,
    Deploy {
        scenario: String,
        strategy: ExitStrategy,
    },
    Run {
        scenario: String,
        strategy: ExitStrategy,
        slots: usize,
        seed: u64,
        json: bool,
    },
}

fn parse_strategy(name: &str) -> Result<ExitStrategy, String> {
    Ok(match name {
        "leime" => ExitStrategy::Leime,
        "min_comp" => ExitStrategy::MinComp,
        "min_tran" => ExitStrategy::MinTran,
        "mean" => ExitStrategy::Mean,
        "ddnn" => ExitStrategy::Ddnn,
        "edgent" => ExitStrategy::Edgent,
        "neurosurgeon" => ExitStrategy::Neurosurgeon,
        other => return Err(format!("unknown strategy '{other}'")),
    })
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = it.next().ok_or_else(|| "missing subcommand".to_string())?;
    match sub.as_str() {
        "init" => Ok(Command::Init),
        "deploy" | "run" => {
            let mut scenario = None;
            let mut strategy = ExitStrategy::Leime;
            let mut slots = 300usize;
            let mut seed = 42u64;
            let mut json = false;
            // `--slots`, `--seed` and `--json` shape a simulation, so
            // only `run` takes them.
            let run = sub == "run";
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} requires a value"))
                };
                match flag.as_str() {
                    "--scenario" => scenario = Some(value("--scenario")?),
                    "--strategy" => strategy = parse_strategy(&value("--strategy")?)?,
                    "--slots" if run => {
                        slots = value("--slots")?
                            .parse()
                            .map_err(|e| format!("--slots: {e}"))?
                    }
                    "--seed" if run => {
                        seed = value("--seed")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?
                    }
                    "--json" if run => json = true,
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            let scenario = scenario.ok_or_else(|| "--scenario is required".to_string())?;
            if run {
                Ok(Command::Run {
                    scenario,
                    strategy,
                    slots,
                    seed,
                    json,
                })
            } else {
                Ok(Command::Deploy { scenario, strategy })
            }
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn load_scenario(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Scenario::from_json(&text).map_err(|e| e.to_string())
}

fn cmd_init() -> Result<(), String> {
    let template = Scenario::raspberry_pi_cluster(leime::ModelKind::SqueezeNet, 2, 5.0);
    println!("{}", template.to_json().map_err(|e| e.to_string())?);
    Ok(())
}

fn cmd_deploy(path: &str, strategy: ExitStrategy) -> Result<(), String> {
    let scenario = load_scenario(path)?;
    let dep = scenario.deploy(strategy).map_err(|e| e.to_string())?;
    let (f, s, t) = dep.combo.to_one_based();
    println!("strategy:   {}", strategy.name());
    println!(
        "model:      {} ({} candidate exits)",
        scenario.model,
        scenario.chain().num_layers()
    );
    println!("exits:      {f}, {s}, {t}");
    println!(
        "block MFLOPs: [{:.1}, {:.1}, {:.1}]",
        dep.mu[0] / 1e6,
        dep.mu[1] / 1e6,
        dep.mu[2] / 1e6
    );
    println!(
        "data bytes:   [{:.0}, {:.0}, {:.0}]",
        dep.d[0], dep.d[1], dep.d[2]
    );
    println!(
        "exit rates:   [{:.3}, {:.3}, {:.3}]",
        dep.sigma[0], dep.sigma[1], dep.sigma[2]
    );
    if let Some(stats) = dep.search_stats {
        println!(
            "search:       {} evaluations in {} rounds",
            stats.total_evals(),
            stats.rounds
        );
    }
    Ok(())
}

fn cmd_run(
    path: &str,
    strategy: ExitStrategy,
    slots: usize,
    seed: u64,
    json: bool,
) -> Result<(), String> {
    let scenario = load_scenario(path)?;
    let dep = scenario.deploy(strategy).map_err(|e| e.to_string())?;
    let report = scenario
        .run_slotted(&dep, slots, seed)
        .map_err(|e| e.to_string())?;
    let tiers = report.tiers();
    if json {
        // Hand-rolled summary object: the full report is large.
        println!(
            "{}",
            serde_json::json!({
                "strategy": strategy.name(),
                "tasks": report.tasks(),
                "mean_tct_s": report.mean_tct_s(),
                "median_tct_s": report.median_tct_s(),
                "p95_tct_s": report.p95_tct_s(),
                "mean_offload_ratio": report.mean_offload_ratio(),
                "mean_queue_q": report.mean_queue_q(),
                "mean_queue_h": report.mean_queue_h(),
                "exits": { "first": tiers.first, "second": tiers.second, "third": tiers.third },
            })
        );
    } else {
        println!("strategy:           {}", strategy.name());
        println!("tasks completed:    {}", report.tasks());
        println!("mean TCT:           {:.2} ms", report.mean_tct_ms());
        println!("median TCT:         {:.2} ms", report.median_tct_s() * 1e3);
        println!("p95 TCT:            {:.2} ms", report.p95_tct_s() * 1e3);
        println!("mean offload ratio: {:.3}", report.mean_offload_ratio());
        println!(
            "exits (1st/2nd/3rd): {}/{}/{}",
            tiers.first, tiers.second, tiers.third
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd {
        Command::Init => cmd_init(),
        Command::Deploy { scenario, strategy } => cmd_deploy(&scenario, strategy),
        Command::Run {
            scenario,
            strategy,
            slots,
            seed,
            json,
        } => cmd_run(&scenario, strategy, slots, seed, json),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_init() {
        assert_eq!(parse_args(&args(&["init"])).unwrap(), Command::Init);
    }

    #[test]
    fn parses_deploy_with_strategy() {
        let c = parse_args(&args(&[
            "deploy",
            "--scenario",
            "s.json",
            "--strategy",
            "ddnn",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Deploy {
                scenario: "s.json".into(),
                strategy: ExitStrategy::Ddnn
            }
        );
    }

    #[test]
    fn parses_run_defaults() {
        let c = parse_args(&args(&["run", "--scenario", "s.json"])).unwrap();
        match c {
            Command::Run {
                slots,
                seed,
                json,
                strategy,
                ..
            } => {
                assert_eq!(slots, 300);
                assert_eq!(seed, 42);
                assert!(!json);
                assert_eq!(strategy, ExitStrategy::Leime);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_run_seed_json() {
        let c = parse_args(&args(&[
            "run",
            "--scenario",
            "s.json",
            "--slots",
            "120",
            "--seed",
            "7",
            "--json",
        ]))
        .unwrap();
        match c {
            Command::Run {
                slots, seed, json, ..
            } => {
                assert_eq!(slots, 120);
                assert_eq!(seed, 7);
                assert!(json);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(parse_args(&args(&["run"])).is_err()); // no scenario
        assert!(parse_args(&args(&["run", "--scenario"])).is_err()); // no value
        assert!(parse_args(&args(&[
            "deploy",
            "--scenario",
            "s.json",
            "--strategy",
            "bogus"
        ]))
        .is_err());
        assert!(parse_args(&args(&["run", "--scenario", "s.json", "--slots", "x"])).is_err());
        assert_eq!(
            parse_args(&args(&["run", "--scenario", "s.json", "--des", "120"])),
            Err("unknown flag '--des'".to_string())
        );
    }

    /// `deploy` refuses a run-only flag by name.
    fn deploy_rejects(flag: &[&str]) {
        let mut argv = vec!["deploy", "--scenario", "s.json"];
        argv.extend_from_slice(flag);
        let want = format!("unknown flag '{}'", flag[0]);
        assert_eq!(parse_args(&args(&argv)), Err(want));
    }

    #[test]
    fn deploy_rejects_slots() {
        deploy_rejects(&["--slots", "120"]);
    }

    #[test]
    fn deploy_rejects_seed() {
        deploy_rejects(&["--seed", "7"]);
    }

    #[test]
    fn deploy_rejects_json() {
        deploy_rejects(&["--json"]);
    }

    #[test]
    fn all_strategies_parse() {
        for name in [
            "leime",
            "min_comp",
            "min_tran",
            "mean",
            "ddnn",
            "edgent",
            "neurosurgeon",
        ] {
            assert!(parse_strategy(name).is_ok(), "{name}");
        }
    }
}
