use crate::{DnnChain, ExitSpec, MultiExitDnn, Result};
use serde::{Deserialize, Serialize};

/// Per-layer profile entry: the pair `(μ_{l_i}, d_{l_i})` plus the candidate
/// exit classifier cost `μ_{exit_i}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerProfile {
    /// FLOPs of chain layer `i`.
    pub layer_flops: f64,
    /// Activation bytes after layer `i`.
    pub out_bytes: f64,
    /// FLOPs of the candidate exit classifier after layer `i`.
    pub exit_flops: f64,
}

/// A serialisable model profile: everything the exit-setting and offloading
/// algorithms need to know about a DNN, decoupled from the architecture
/// definition.
///
/// This mirrors what Neurosurgeon-style systems obtain by profiling the
/// deployed model once per platform, except expressed in
/// platform-independent FLOPs/bytes (the paper's Table I quantities).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Model name.
    pub name: String,
    /// Raw input bytes `d_0`.
    pub input_bytes: f64,
    /// Number of classifier classes.
    pub num_classes: usize,
    /// One entry per chain layer / candidate exit.
    pub layers: Vec<LayerProfile>,
}

impl ModelProfile {
    /// Extracts a profile from a chain with the given exit spec.
    ///
    /// # Errors
    ///
    /// Propagates index errors (cannot occur for a well-formed chain).
    pub fn from_chain(chain: &DnnChain, spec: ExitSpec) -> Result<Self> {
        let me = MultiExitDnn::new(chain.clone(), spec);
        let mut layers = Vec::with_capacity(chain.num_layers());
        for (i, l) in chain.layers().iter().enumerate() {
            layers.push(LayerProfile {
                layer_flops: l.flops,
                out_bytes: l.out_bytes(),
                exit_flops: me.exit_classifier_flops(i)?,
            });
        }
        Ok(ModelProfile {
            name: chain.name().to_string(),
            input_bytes: chain.input_bytes(),
            num_classes: chain.num_classes(),
            layers,
        })
    }

    /// Number of layers / candidate exits `m`.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total chain FLOPs (no exits).
    pub fn total_flops(&self) -> f64 {
        self.layers.iter().map(|l| l.layer_flops).sum()
    }

    /// Sum of layer FLOPs over the half-open range `lo..hi` (clamped).
    pub fn flops_range(&self, lo: usize, hi: usize) -> f64 {
        let hi = hi.min(self.layers.len());
        if lo >= hi {
            return 0.0;
        }
        self.layers[lo..hi].iter().map(|l| l.layer_flops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, LayerKind};

    fn chain() -> DnnChain {
        let layers = (0..4)
            .map(|i| Layer {
                name: format!("l{i}"),
                kind: LayerKind::Conv,
                flops: 10.0f64.powi(i + 2),
                out_channels: 8 << i,
                out_h: 8 >> i.min(2),
                out_w: 8 >> i.min(2),
            })
            .collect();
        DnnChain::new("toy", 3, 16, 16, 10, layers).unwrap()
    }

    #[test]
    fn profile_matches_chain() {
        let c = chain();
        let p = ModelProfile::from_chain(&c, ExitSpec::default()).unwrap();
        assert_eq!(p.num_layers(), 4);
        assert_eq!(p.total_flops().to_bits(), c.total_flops().to_bits());
        assert_eq!(p.input_bytes.to_bits(), c.input_bytes().to_bits());
        for (i, lp) in p.layers.iter().enumerate() {
            assert_eq!(
                lp.layer_flops.to_bits(),
                c.layer(i).unwrap().flops.to_bits()
            );
            assert_eq!(
                lp.out_bytes.to_bits(),
                c.layer(i).unwrap().out_bytes().to_bits()
            );
            assert!(lp.exit_flops > 0.0);
        }
    }

    #[test]
    fn flops_range_clamps() {
        let p = ModelProfile::from_chain(&chain(), ExitSpec::default()).unwrap();
        assert_eq!(p.flops_range(0, 99).to_bits(), p.total_flops().to_bits());
        assert_eq!(p.flops_range(3, 2).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn profile_is_cloneable_and_comparable() {
        let p = ModelProfile::from_chain(&chain(), ExitSpec::default()).unwrap();
        let q = p.clone();
        assert_eq!(p, q);
        assert!(format!("{p:?}").contains("toy"));
    }
}
