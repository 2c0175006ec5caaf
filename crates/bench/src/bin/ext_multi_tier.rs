//! Extension experiment — multi-tier hierarchies: how much does a deeper
//! compute hierarchy buy? Places k exits with the DP of
//! `leime_exitcfg::multi_tier` for 2/3/4/5-tier hierarchies that all share
//! the same endpoints (the Pi device and the V100 cloud), inserting
//! intermediate tiers between them.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    reason = "an experiment driver, not library code: a broken setup aborts the run"
)]

use leime::ModelKind;
use leime_bench::{fmt_time, header, render_table};
use leime_dnn::{ExitSpec, ModelProfile};
use leime_exitcfg::{multi_tier_exits, tiers_from_env, EnvParams, TierEnv};
use leime_workload::ExitRateModel;

fn main() {
    println!("== Extension: exit placement over deeper hierarchies ==\n");
    let env = EnvParams::raspberry_pi();
    let base = tiers_from_env(env);
    let gateway = TierEnv {
        flops: 4e9,
        uplink_bandwidth_bps: 40e6,
        uplink_latency_s: 0.005,
    };
    let regional = TierEnv {
        flops: 400e9,
        uplink_bandwidth_bps: 1e9,
        uplink_latency_s: 0.02,
    };

    // A direct device->cloud deployment still crosses the WiFi hop: its
    // uplink is the WiFi bottleneck plus both hops' latency.
    let direct_cloud = TierEnv {
        flops: base[2].flops,
        uplink_bandwidth_bps: base[1]
            .uplink_bandwidth_bps
            .min(base[2].uplink_bandwidth_bps),
        uplink_latency_s: base[1].uplink_latency_s + base[2].uplink_latency_s,
    };
    let hierarchies: Vec<(&str, Vec<TierEnv>)> = vec![
        ("device+cloud", vec![base[0], direct_cloud]),
        ("device+edge+cloud (paper)", base.to_vec()),
        (
            "device+gw+edge+cloud",
            vec![base[0], gateway, base[1], base[2]],
        ),
        (
            "device+gw+edge+regional+cloud",
            vec![base[0], gateway, base[1], regional, base[2]],
        ),
    ];

    for model in ModelKind::ALL {
        println!("-- {} --", model.name());
        let chain = model.build(10);
        let profile = ModelProfile::from_chain(&chain, ExitSpec::default()).unwrap();
        let rates = ExitRateModel::cifar_like().rates_for_chain(&chain);
        let mut rows = Vec::new();
        for (name, tiers) in &hierarchies {
            let (exits, t) = multi_tier_exits(&profile, &rates, tiers).unwrap();
            let exits_1based: Vec<String> = exits.iter().map(|e| (e + 1).to_string()).collect();
            rows.push(vec![
                name.to_string(),
                tiers.len().to_string(),
                exits_1based.join(","),
                fmt_time(t),
            ]);
        }
        println!(
            "{}",
            render_table(
                &header(&["hierarchy", "tiers", "exits", "expected_TCT"]),
                &rows
            )
        );
        println!();
    }
    println!(
        "Reading: the paper's 3-tier setting is the special case k=3; extra \
         tiers trade more exit opportunities against more hops."
    );
}
