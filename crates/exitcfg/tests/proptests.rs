//! Property tests for the exit-setting layer: the Theorem-1 pruning lemma
//! itself, baseline well-formedness, and multi-tier DP optimality against
//! brute force.

use leime_dnn::{DnnChain, ExitCombo, ExitRates, ExitSpec, Layer, LayerKind, ModelProfile};
use leime_exitcfg::{
    ddnn_style, mean_division, min_computation, min_transmission, multi_tier_exits, CostModel,
    EnvParams, TierEnv,
};
use proptest::prelude::*;

/// Errors a helper hands back to its `#[test]` caller.
type TestResult<T> = Result<T, Box<dyn std::error::Error>>;

fn profile_from(specs: &[(f64, usize)]) -> TestResult<ModelProfile> {
    let layers: Vec<Layer> = specs
        .iter()
        .enumerate()
        .map(|(i, &(flops, elems))| Layer {
            name: format!("l{i}"),
            kind: LayerKind::Conv,
            flops,
            out_channels: elems.max(1),
            out_h: 1,
            out_w: 1,
        })
        .collect();
    let chain = DnnChain::new("prop", 3, 16, 16, 10, layers)?;
    Ok(ModelProfile::from_chain(&chain, ExitSpec::default())?)
}

fn monotone_rates(raw: &[f64], m: usize) -> TestResult<ExitRates> {
    let mut v: Vec<f64> = raw[..m].to_vec();
    v.sort_by(f64::total_cmp);
    v[m - 1] = 1.0;
    Ok(ExitRates::new(v)?)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1, verbatim: for monotone exit rates, whenever
    /// `T2(i1) <= T2(i2)` with `i1 < i2`, the full combo with First-exit
    /// `i1` beats the one with `i2` for *every* Second-exit j.
    #[test]
    fn theorem1_domination_lemma(
        specs in prop::collection::vec((1e6f64..1e10, 1usize..100_000), 5..16),
        raw in prop::collection::vec(0.0f64..1.0, 16),
        bw_exp in 5.5f64..8.0,
    ) {
        let profile = profile_from(&specs).unwrap();
        let m = profile.num_layers();
        let rates = monotone_rates(&raw, m).unwrap();
        let env = EnvParams::raspberry_pi().with_edge_link(10f64.powf(bw_exp), 0.02);
        let cost = CostModel::new(&profile, &rates, env).unwrap();
        for i1 in 0..m - 2 {
            for i2 in i1 + 1..m - 2 {
                let t2_1 = cost.two_exit(i1).unwrap();
                let t2_2 = cost.two_exit(i2).unwrap();
                if t2_1 <= t2_2 {
                    for j in i2 + 1..m - 1 {
                        let e1 = ExitCombo::new(i1, j, m - 1, m).unwrap();
                        let e2 = ExitCombo::new(i2, j, m - 1, m).unwrap();
                        prop_assert!(
                            cost.total(e1).unwrap() <= cost.total(e2).unwrap() + 1e-12,
                            "lemma violated at i1={i1}, i2={i2}, j={j}"
                        );
                    }
                }
            }
        }
    }

    /// Every baseline strategy produces a structurally valid combo whose
    /// cost is finite, on arbitrary profiles.
    #[test]
    fn baselines_always_valid(
        specs in prop::collection::vec((1e6f64..1e10, 1usize..100_000), 3..20),
        raw in prop::collection::vec(0.0f64..1.0, 20),
    ) {
        let profile = profile_from(&specs).unwrap();
        let m = profile.num_layers();
        let rates = monotone_rates(&raw, m).unwrap();
        let cost = CostModel::new(&profile, &rates, EnvParams::raspberry_pi()).unwrap();
        for combo in [
            min_computation(&profile).unwrap(),
            min_transmission(&profile).unwrap(),
            mean_division(&profile).unwrap(),
            ddnn_style(&profile, &rates).unwrap(),
        ] {
            prop_assert!(combo.first < combo.second && combo.second < m - 1);
            let t = cost.total(combo).unwrap();
            prop_assert!(t.is_finite() && t > 0.0);
        }
    }

    /// The 4-tier DP equals brute-force enumeration of all exit triples
    /// over small chains.
    #[test]
    fn four_tier_dp_equals_brute_force(
        specs in prop::collection::vec((1e6f64..1e10, 1usize..50_000), 5..11),
        raw in prop::collection::vec(0.0f64..1.0, 11),
        gw_exp in 9.0f64..10.5,
    ) {
        let profile = profile_from(&specs).unwrap();
        let m = profile.num_layers();
        let rates = monotone_rates(&raw, m).unwrap();
        let env = EnvParams::raspberry_pi();
        let tiers = [
            TierEnv { flops: env.device_flops, uplink_bandwidth_bps: f64::INFINITY, uplink_latency_s: 0.0 },
            TierEnv { flops: 10f64.powf(gw_exp), uplink_bandwidth_bps: 40e6, uplink_latency_s: 0.005 },
            TierEnv { flops: env.edge_flops, uplink_bandwidth_bps: env.edge_bandwidth_bps, uplink_latency_s: env.edge_latency_s },
            TierEnv { flops: env.cloud_flops, uplink_bandwidth_bps: env.cloud_bandwidth_bps, uplink_latency_s: env.cloud_latency_s },
        ];
        let (_, t_dp) = multi_tier_exits(&profile, &rates, &tiers).unwrap();

        // Brute force: all e0 < e1 < e2 < e3 = m-1.
        let sigma = rates.as_slice();
        let prefix = {
            let mut p = vec![0.0];
            let mut acc = 0.0;
            for l in &profile.layers {
                acc += l.layer_flops;
                p.push(acc);
            }
            p
        };
        let block = |lo: usize, hi: usize, f: f64| {
            (prefix[hi + 1] - prefix[lo] + profile.layers[hi].exit_flops) / f
        };
        let mut best = f64::INFINITY;
        for e0 in 0..m - 3 {
            for e1 in e0 + 1..m - 2 {
                for e2 in e1 + 1..m - 1 {
                    let e3 = m - 1;
                    let mut t = block(0, e0, tiers[0].flops);
                    let legs = [(e0, e1, 1usize), (e1, e2, 2), (e2, e3, 3)];
                    for &(prev, end, j) in &legs {
                        let transfer = profile.layers[prev].out_bytes * 8.0
                            / tiers[j].uplink_bandwidth_bps
                            + tiers[j].uplink_latency_s;
                        t += (1.0 - sigma[prev]) * (transfer + block(prev + 1, end, tiers[j].flops));
                    }
                    best = best.min(t);
                }
            }
        }
        prop_assert!((t_dp - best).abs() <= 1e-9 * best,
            "dp {t_dp} vs brute force {best}");
    }
}
