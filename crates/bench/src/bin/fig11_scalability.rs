//! Fig. 11 / Test Case 5 — the effect of the number of connected devices
//! on average TCT (simulation, Inception v3 and ResNet-34 parameters,
//! homogeneous devices, fixed edge capability).
//!
//! Paper-reported: LEIME's TCT grows almost linearly with the device
//! count; it achieves the lowest TCT and supports the most devices, since
//! its exit settings also relieve edge load as the fleet grows.
//!
//! Runs route through the `leime-fleet` front-end with a single edge —
//! the same code path the `ext_fleet` scale sweep uses — so the two
//! benches cannot drift apart. A 1-edge fleet is byte-identical to the
//! bare `SlottedSystem` run (`integration_fleet`'s equivalence anchor),
//! and the `--json` telemetry export gains the edge dimension: metrics
//! land under `{model}.n{n}.{system}.edge0.*`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use std::num::NonZeroUsize;

use leime::{systems, ExitStrategy, ModelKind, Scenario, DEFAULT_EPOCH_LEN};
use leime_bench::{fmt_time, render_table};
use leime_fleet::{FleetConfig, FleetSystem};
use leime_telemetry::Registry;

const SLOTS: usize = 100;
const SEED: u64 = 11;

fn run_fleet_cell(
    base: &Scenario,
    strategy: ExitStrategy,
    registry: &Registry,
    prefix: &str,
) -> f64 {
    let deployment = base.deploy(strategy).unwrap();
    let mut fleet = FleetSystem::new(base.clone(), deployment, FleetConfig::single_edge()).unwrap();
    let report = fleet
        .run_with_registry(
            SLOTS,
            SEED,
            NonZeroUsize::MIN,
            DEFAULT_EPOCH_LEN,
            registry,
            prefix,
        )
        .unwrap();
    report.mean_tct_s()
}

fn run_model(model: ModelKind, registry: &Registry) {
    println!(
        "== Fig. 11: average TCT vs number of devices ({}) ==\n",
        model.name()
    );
    let specs = systems::all();
    let mut rows = Vec::new();
    for n in [1usize, 2, 5, 10, 20, 35, 50] {
        let mut base = Scenario::raspberry_pi_cluster(model, n, 2.0);
        let mut row = vec![n.to_string()];
        for spec in &specs {
            // Every (model, fleet size, system) run gets its own metric
            // prefix; the fleet front-end appends the edge dimension,
            // e.g. `inception_v3.n20.leime.edge0.tct_s`.
            base.controller = spec.controller;
            let prefix = format!("{}.n{n}.{}", model.name(), spec.name.to_lowercase());
            let mean_tct = run_fleet_cell(&base, spec.strategy, registry, &prefix);
            row.push(fmt_time(mean_tct));
        }
        rows.push(row);
    }
    let mut h = vec!["devices".to_string()];
    h.extend(specs.iter().map(|s| s.name.to_string()));
    println!("{}", render_table(&h, &rows));
    println!();
}

fn main() {
    let json_path = leime_bench::json_out_path();
    let registry = Registry::new();
    run_model(ModelKind::InceptionV3, &registry);
    run_model(ModelKind::ResNet34, &registry);
    println!(
        "Paper reference: LEIME grows ~linearly with the fleet size and \
         stays lowest; benchmarks saturate or explode earlier."
    );
    if let Some(path) = json_path {
        leime_bench::write_telemetry(&registry, &path);
    }
}
