//! Property tests for the DNN chain layer: partition conservation,
//! profile consistency, and zoo invariants over input resolutions.

use leime_dnn::{
    zoo, DnnChain, DnnError, ExitCombo, ExitRates, ExitSpec, Layer, LayerKind, ModelProfile,
    MultiExitDnn,
};
use proptest::prelude::*;

/// Chains over generated layers; the tests unwrap them (three or more
/// layers always build).
fn arb_chain(max_layers: usize) -> impl Strategy<Value = Result<DnnChain, DnnError>> {
    prop::collection::vec((1e5f64..1e10, 1usize..512, 1usize..64), 3..max_layers).prop_map(
        |specs| {
            let layers: Vec<Layer> = specs
                .iter()
                .enumerate()
                .map(|(i, &(flops, c, hw))| Layer {
                    name: format!("l{i}"),
                    kind: LayerKind::Conv,
                    flops,
                    out_channels: c,
                    out_h: hw,
                    out_w: hw,
                })
                .collect();
            DnnChain::new("prop", 3, 32, 32, 10, layers)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Partition blocks always cover exactly the chain + the three exit
    /// classifiers, for every valid combo.
    #[test]
    fn partition_conserves_flops(chain in arb_chain(20), f_raw in 0usize..20, s_raw in 0usize..20) {
        let chain = chain.unwrap();
        let m = chain.num_layers();
        let first = f_raw % (m - 2);
        let second = first + 1 + s_raw % (m - 2 - first);
        let combo = ExitCombo::new(first, second, m - 1, m).unwrap();
        let me = MultiExitDnn::new(chain.clone(), ExitSpec::default());
        let p = me.partition(combo).unwrap();
        let exit_total = p.device.exit_classifier_flops
            + p.edge.exit_classifier_flops
            + p.cloud.exit_classifier_flops;
        let blocks: f64 = p.block_flops().iter().sum();
        prop_assert!(
            (blocks - (chain.total_flops() + exit_total)).abs() < 1e-6 * blocks,
            "partition leaks FLOPs"
        );
        // Boundary bytes are the chain's activations at the exits.
        prop_assert_eq!(
            p.device.boundary_bytes.to_bits(),
            chain.intermediate_bytes(first).unwrap().to_bits()
        );
        prop_assert_eq!(
            p.edge.boundary_bytes.to_bits(),
            chain.intermediate_bytes(second).unwrap().to_bits()
        );
    }

    /// Profiles agree with chains entry-by-entry.
    #[test]
    fn profile_is_faithful(chain in arb_chain(20)) {
        let chain = chain.unwrap();
        let profile = ModelProfile::from_chain(&chain, ExitSpec::default()).unwrap();
        prop_assert_eq!(profile.num_layers(), chain.num_layers());
        prop_assert!((profile.total_flops() - chain.total_flops()).abs() < 1e-9);
        for (i, lp) in profile.layers.iter().enumerate() {
            prop_assert_eq!(lp.layer_flops.to_bits(), chain.layer(i).unwrap().flops.to_bits());
            prop_assert_eq!(lp.out_bytes.to_bits(), chain.layer(i).unwrap().out_bytes().to_bits());
            prop_assert!(lp.exit_flops > 0.0);
        }
        // Prefix sums bracket every range query.
        let prefix = chain.flops_prefix();
        for lo in 0..chain.num_layers() {
            for hi in lo..=chain.num_layers() {
                let direct = chain.flops_range(lo, hi);
                // Relative tolerance: different summation orders differ
                // by a few ulps at 1e11-scale totals.
                let tol = 1e-9 * direct.abs().max(1.0);
                prop_assert!((direct - (prefix[hi] - prefix[lo])).abs() <= tol);
            }
        }
    }

    /// Exit rates constructed from sorted uniforms always validate and
    /// look up consistently.
    #[test]
    fn exit_rates_lookup(mut raw in prop::collection::vec(0.0f64..1.0, 2..30)) {
        raw.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = raw.len();
        raw[n - 1] = 1.0;
        let rates = ExitRates::new(raw.clone()).unwrap();
        for (i, &r) in raw.iter().enumerate() {
            prop_assert_eq!(rates.rate(i).unwrap().to_bits(), r.to_bits());
        }
        prop_assert!(rates.rate(n).is_err());
    }

    /// Zoo models scale sensibly with resolution: more pixels, more FLOPs
    /// and bigger (or equal) activations, same layer count.
    #[test]
    fn zoo_scales_with_resolution(res_step in 0usize..3) {
        let small = 75 + res_step * 16;
        let large = small * 2;
        type Builder = fn(usize, usize) -> DnnChain;
        let builders: [(Builder, usize); 4] = [
            (zoo::vgg16, 32),
            (zoo::resnet34, 32),
            (zoo::inception_v3, 75),
            (zoo::squeezenet_1_0, 64),
        ];
        for (build, min_ok) in builders {
            if small < min_ok {
                continue;
            }
            let a = build(small, 10);
            let b = build(large, 10);
            prop_assert_eq!(a.num_layers(), b.num_layers());
            prop_assert!(b.total_flops() > a.total_flops());
            prop_assert!(b.input_bytes() > a.input_bytes());
        }
    }
}
