use crate::BYTES_PER_ELEM;
use serde::{Deserialize, Serialize};

/// What kind of computation a chain layer performs.
///
/// The paper treats convolutional layers as the atomic chain elements
/// because they dominate FLOPs; residual blocks, inception modules and fire
/// modules are *composite* layers aggregating several convolutions into one
/// chain position (the same granularity the paper's exit indices use, e.g.
/// "exit-14" and "exit-16" for the 16-position Inception v3 chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// A single convolution (possibly followed by a folded pooling stage).
    Conv,
    /// A residual basic block (two 3×3 convolutions plus shortcut).
    ResidualBlock,
    /// An Inception module (parallel convolution branches, concatenated).
    InceptionModule,
    /// A SqueezeNet fire module (squeeze 1×1 + expand 1×1/3×3).
    FireModule,
    /// A fully connected layer.
    FullyConnected,
}

/// One position in a DNN chain: a (possibly composite) layer with its
/// aggregate FLOP cost and output activation geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Human-readable name, e.g. `"conv3_2"` or `"inception_c4"`.
    pub name: String,
    /// The structural kind of this layer.
    pub kind: LayerKind,
    /// Total floating point operations to execute this layer once
    /// (multiply-accumulate counted as 2 FLOPs).
    pub flops: f64,
    /// Output channels.
    pub out_channels: usize,
    /// Output spatial height.
    pub out_h: usize,
    /// Output spatial width.
    pub out_w: usize,
}

impl Layer {
    /// Number of output activation elements (`C·H·W`).
    pub fn out_elems(&self) -> usize {
        self.out_channels * self.out_h * self.out_w
    }

    /// Output activation size in bytes — the paper's `d_{l_i}`, the amount
    /// of intermediate data that must cross the network if the model is
    /// split after this layer.
    pub fn out_bytes(&self) -> f64 {
        self.out_elems() as f64 * BYTES_PER_ELEM
    }
}

/// FLOPs of one 2-D convolution producing a `(c_out, h_out, w_out)` output
/// from `c_in` input channels with a `kh × kw` kernel.
///
/// Counts multiply-accumulates as 2 FLOPs, the convention used by
/// Neurosurgeon-style profilers (and by common FLOP tables for these
/// architectures).
pub fn conv_flops(
    c_in: usize,
    c_out: usize,
    kh: usize,
    kw: usize,
    h_out: usize,
    w_out: usize,
) -> f64 {
    2.0 * (c_in * kh * kw) as f64 * (c_out * h_out * w_out) as f64
}

/// Output spatial extent of a convolution/pooling stage, saturating at zero
/// when the kernel does not fit.
pub(crate) fn spatial_out(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    let padded = input + 2 * padding;
    if padded < kernel || stride == 0 {
        return 0;
    }
    (padded - kernel) / stride + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_flops_known_case() {
        // 3x3 conv, 64 -> 64 channels, 32x32 output:
        // 2 * 64*3*3 * 64*32*32 = 2 * 576 * 65536 = 75,497,472.
        let f = conv_flops(64, 64, 3, 3, 32, 32);
        assert_eq!(f.to_bits(), 75_497_472.0_f64.to_bits());
    }

    #[test]
    fn out_bytes_is_4x_elems() {
        let l = Layer {
            name: "x".into(),
            kind: LayerKind::Conv,
            flops: 0.0,
            out_channels: 64,
            out_h: 16,
            out_w: 16,
        };
        assert_eq!(l.out_elems(), 16384);
        assert_eq!(l.out_bytes().to_bits(), 65536.0_f64.to_bits());
    }

    #[test]
    fn spatial_out_matches_formula() {
        assert_eq!(spatial_out(32, 3, 1, 1), 32); // same conv
        assert_eq!(spatial_out(32, 3, 2, 1), 16); // stride 2
        assert_eq!(spatial_out(32, 2, 2, 0), 16); // 2x2 pool
        assert_eq!(spatial_out(7, 7, 1, 0), 1); // global
        assert_eq!(spatial_out(3, 7, 1, 0), 0); // does not fit
        assert_eq!(spatial_out(8, 3, 0, 0), 0); // zero stride
    }
}
