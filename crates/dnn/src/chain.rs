use crate::{DnnError, Layer, Result, BYTES_PER_ELEM};
use serde::{Deserialize, Serialize};

/// A chain-structured DNN: the paper's `M = {l_1, …, l_m}` (§III-B2).
///
/// Layers are indexed `0..m` internally; the paper's `exit_i` (1-based,
/// "after layer i") corresponds to index `i-1` here. The input geometry is
/// recorded so `d_0` (raw input bytes) is available to the offloading model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnnChain {
    name: String,
    input_channels: usize,
    input_h: usize,
    input_w: usize,
    num_classes: usize,
    layers: Vec<Layer>,
}

impl DnnChain {
    /// Creates a chain from an ordered layer list.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::EmptyChain`] when `layers` is empty.
    pub fn new(
        name: impl Into<String>,
        input_channels: usize,
        input_h: usize,
        input_w: usize,
        num_classes: usize,
        layers: Vec<Layer>,
    ) -> Result<Self> {
        if layers.is_empty() {
            return Err(DnnError::EmptyChain);
        }
        Ok(DnnChain {
            name: name.into(),
            input_channels,
            input_h,
            input_w,
            num_classes,
            layers,
        })
    }

    /// Model name, e.g. `"vgg16"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of chain layers `m` (= number of candidate exit positions).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of classifier output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The ordered layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Layer at `index`, or `None` when out of range.
    pub fn layer(&self, index: usize) -> Option<&Layer> {
        self.layers.get(index)
    }

    /// Raw input size in bytes — the paper's `d_0`.
    pub fn input_bytes(&self) -> f64 {
        (self.input_channels * self.input_h * self.input_w) as f64 * BYTES_PER_ELEM
    }

    /// Input geometry `(channels, height, width)`.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        (self.input_channels, self.input_h, self.input_w)
    }

    /// Total FLOPs of the full chain (no exits).
    pub fn total_flops(&self) -> f64 {
        self.layers.iter().map(|l| l.flops).sum()
    }

    /// Sum of layer FLOPs over the half-open index range `lo..hi`.
    ///
    /// Out-of-range bounds are clamped; an empty or inverted range costs 0.
    pub fn flops_range(&self, lo: usize, hi: usize) -> f64 {
        let hi = hi.min(self.layers.len());
        if lo >= hi {
            return 0.0;
        }
        self.layers[lo..hi].iter().map(|l| l.flops).sum()
    }

    /// Intermediate activation bytes after layer `index` — the paper's
    /// `d_{l_i}`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::IndexOutOfRange`] when `index >= m`.
    pub fn intermediate_bytes(&self, index: usize) -> Result<f64> {
        self.layers
            .get(index)
            .map(Layer::out_bytes)
            .ok_or(DnnError::IndexOutOfRange {
                what: "layer",
                index,
                len: self.layers.len(),
            })
    }

    /// Prefix sums of layer FLOPs: entry `i` is the cost of layers `0..i`
    /// (so entry 0 is 0 and entry `m` is [`total_flops`](Self::total_flops)).
    pub fn flops_prefix(&self) -> Vec<f64> {
        let mut prefix = Vec::with_capacity(self.layers.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for l in &self.layers {
            acc += l.flops;
            prefix.push(acc);
        }
        prefix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerKind;

    fn layer(name: &str, flops: f64, c: usize, h: usize, w: usize) -> Layer {
        Layer {
            name: name.into(),
            kind: LayerKind::Conv,
            flops,
            out_channels: c,
            out_h: h,
            out_w: w,
        }
    }

    fn toy_chain() -> DnnChain {
        DnnChain::new(
            "toy",
            3,
            8,
            8,
            10,
            vec![
                layer("l1", 100.0, 16, 8, 8),
                layer("l2", 200.0, 32, 4, 4),
                layer("l3", 400.0, 64, 2, 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn rejects_empty_chain() {
        assert_eq!(
            DnnChain::new("e", 3, 8, 8, 10, vec![]).unwrap_err(),
            DnnError::EmptyChain
        );
    }

    #[test]
    fn totals_and_ranges() {
        let c = toy_chain();
        assert_eq!(c.total_flops().to_bits(), 700.0_f64.to_bits());
        assert_eq!(c.flops_range(0, 3).to_bits(), 700.0_f64.to_bits());
        assert_eq!(c.flops_range(1, 3).to_bits(), 600.0_f64.to_bits());
        assert_eq!(c.flops_range(1, 1).to_bits(), 0.0_f64.to_bits());
        assert_eq!(c.flops_range(2, 1).to_bits(), 0.0_f64.to_bits());
        assert_eq!(c.flops_range(0, 99).to_bits(), 700.0_f64.to_bits()); // clamped
    }

    #[test]
    fn prefix_sums() {
        let c = toy_chain();
        assert_eq!(c.flops_prefix(), vec![0.0, 100.0, 300.0, 700.0]);
    }

    #[test]
    fn input_bytes_d0() {
        let c = toy_chain();
        assert_eq!(
            c.input_bytes().to_bits(),
            f64::to_bits((3 * 8 * 8) as f64 * 4.0)
        );
    }

    #[test]
    fn intermediate_bytes_d_li() {
        let c = toy_chain();
        assert_eq!(
            c.intermediate_bytes(0).unwrap().to_bits(),
            f64::to_bits(1024.0 * 4.0)
        );
        assert_eq!(
            c.intermediate_bytes(1).unwrap().to_bits(),
            f64::to_bits(512.0 * 4.0)
        );
        assert!(c.intermediate_bytes(3).is_err());
    }
}
