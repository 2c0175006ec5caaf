//! Chain models of the paper's four evaluation networks.
//!
//! Each constructor builds a [`crate::DnnChain`] whose per-layer
//! FLOPs and activation sizes are computed from the genuine architecture
//! arithmetic (channel counts, kernel sizes, strides) at a configurable
//! input resolution. Composite stages (residual blocks, inception modules,
//! fire modules) occupy one chain position each, matching the exit-index
//! granularity the paper uses (e.g. Inception v3 has 16 positions, so the
//! paper's "exit-14/exit-16" are representable).
//!
//! Pooling layers are folded into the preceding chain position: they add
//! their (small) FLOP cost and shrink that position's output geometry,
//! which is exactly how they affect a split decision (less data to
//! transmit after the pool).

mod alexnet;
mod inception;
mod mobilenet;
mod resnet;
mod squeezenet;
mod vgg;

pub use alexnet::alexnet;
pub use inception::inception_v3;
pub use mobilenet::mobilenet_v1;
pub use resnet::resnet34;
pub use squeezenet::squeezenet_1_0;
pub use vgg::vgg16;

use crate::layer::spatial_out;
use crate::{conv_flops, DnnChain, DnnError, Layer, LayerKind};
use leime_invariant as invariant;

/// The four models at the paper's CIFAR-10 testbed resolutions.
///
/// VGG-16 and ResNet-34 run at native CIFAR 32×32; SqueezeNet-1.0 needs
/// ≥64 px for its aggressive stem (CIFAR images upscaled 2×, standard
/// practice); Inception v3 runs at its architectural minimum of 75 px
/// (upscaled CIFAR — any PyTorch CIFAR deployment of this network must
/// upscale, and 299 px would put every activation megabytes out of scale
/// with the testbed's 1–30 Mbps WiFi).
pub fn cifar_models(num_classes: usize) -> Vec<DnnChain> {
    vec![
        vgg16(32, num_classes),
        resnet34(32, num_classes),
        inception_v3(75, num_classes),
        squeezenet_1_0(64, num_classes),
    ]
}

/// Tracks the running activation geometry while assembling a chain.
pub(crate) struct Builder {
    c: usize,
    h: usize,
    w: usize,
    layers: Vec<Layer>,
}

impl Builder {
    pub(crate) fn new(c: usize, h: usize, w: usize) -> Self {
        Builder {
            c,
            h,
            w,
            layers: Vec::new(),
        }
    }

    pub(crate) fn channels(&self) -> usize {
        self.c
    }

    pub(crate) fn hw(&self) -> (usize, usize) {
        (self.h, self.w)
    }

    /// Pushes a single convolution as its own chain position.
    pub(crate) fn conv(&mut self, name: &str, c_out: usize, k: usize, stride: usize, pad: usize) {
        let h_out = spatial_out(self.h, k, stride, pad);
        let w_out = spatial_out(self.w, k, stride, pad);
        let flops = conv_flops(self.c, c_out, k, k, h_out, w_out);
        self.c = c_out;
        self.h = h_out;
        self.w = w_out;
        self.layers.push(Layer {
            name: name.to_string(),
            kind: LayerKind::Conv,
            flops,
            out_channels: c_out,
            out_h: h_out,
            out_w: w_out,
        });
    }

    /// Folds a pooling stage into the *previous* chain position: shrinks its
    /// output geometry and adds the pool's element-visit cost.
    ///
    /// # Panics
    ///
    /// Panics if called before any layer exists (a zoo programming error).
    pub(crate) fn fold_pool(&mut self, k: usize, stride: usize, pad: usize) {
        let h_out = spatial_out(self.h, k, stride, pad);
        let w_out = spatial_out(self.w, k, stride, pad);
        let Some(last) = self.layers.last_mut() else {
            invariant::violation("dnn.zoo.builder", "fold_pool requires a preceding layer");
        };
        last.flops += (self.c * self.h * self.w) as f64; // one visit per input element
        last.out_h = h_out;
        last.out_w = w_out;
        self.h = h_out;
        self.w = w_out;
    }

    /// Pushes a composite chain position whose FLOPs were accumulated by the
    /// caller and whose output geometry is given explicitly.
    pub(crate) fn composite(
        &mut self,
        name: &str,
        kind: LayerKind,
        flops: f64,
        c_out: usize,
        h_out: usize,
        w_out: usize,
    ) {
        self.c = c_out;
        self.h = h_out;
        self.w = w_out;
        self.layers.push(Layer {
            name: name.to_string(),
            kind,
            flops,
            out_channels: c_out,
            out_h: h_out,
            out_w: w_out,
        });
    }

    /// Adds FLOPs to the most recent chain position (for folding stems or
    /// auxiliary costs into a composite).
    pub(crate) fn add_flops_to_last(&mut self, flops: f64) {
        let Some(last) = self.layers.last_mut() else {
            invariant::violation(
                "dnn.zoo.builder",
                "add_flops_to_last requires a preceding layer",
            );
        };
        last.flops += flops;
    }

    pub(crate) fn into_layers(self) -> Vec<Layer> {
        self.layers
    }
}

/// Unwraps a zoo constructor's [`DnnChain::new`] result. Every zoo model
/// is assembled from fixed architecture constants, so validation can only
/// fail on a zoo programming error — routed through the sanctioned
/// invariant-violation site rather than a per-model `expect`.
pub(crate) fn chain_of(model: &str, built: Result<DnnChain, DnnError>) -> DnnChain {
    built.unwrap_or_else(|e| invariant::violation("dnn.zoo", &format!("{model}: {e}")))
}

/// Cost helper for branch arithmetic inside composite modules: FLOPs of a
/// `kh × kw` conv from `c_in` to `c_out` on an `h × w` input with the given
/// stride/padding; returns `(flops, h_out, w_out)`.
// Convolution geometry genuinely has this many independent parameters.
#[allow(clippy::too_many_arguments, reason = "conv geometry parameters")]
pub(crate) fn branch_conv(
    c_in: usize,
    c_out: usize,
    kh: usize,
    kw: usize,
    h: usize,
    w: usize,
    stride: usize,
    pad_h: usize,
    pad_w: usize,
) -> (f64, usize, usize) {
    let h_out = spatial_out(h, kh, stride, pad_h);
    let w_out = spatial_out(w, kw, stride, pad_w);
    (conv_flops(c_in, c_out, kh, kw, h_out, w_out), h_out, w_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_geometry() {
        let mut b = Builder::new(3, 32, 32);
        b.conv("c1", 64, 3, 1, 1);
        assert_eq!(b.channels(), 64);
        assert_eq!(b.hw(), (32, 32));
        b.fold_pool(2, 2, 0);
        assert_eq!(b.hw(), (16, 16));
        let layers = b.into_layers();
        assert_eq!(layers.len(), 1);
        assert_eq!(layers[0].out_h, 16);
    }

    #[test]
    fn branch_conv_asymmetric_kernels() {
        // 1x7 conv on 17x17 with pad (0,3) keeps spatial dims.
        let (f, h, w) = branch_conv(768, 128, 1, 7, 17, 17, 1, 0, 3);
        assert_eq!((h, w), (17, 17));
        assert_eq!(
            f.to_bits(),
            f64::to_bits(2.0 * (768 * 7) as f64 * (128 * 17 * 17) as f64)
        );
    }

    #[test]
    fn cifar_models_have_expected_layer_counts() {
        let models = cifar_models(10);
        let counts: Vec<(String, usize)> = models
            .iter()
            .map(|m| (m.name().to_string(), m.num_layers()))
            .collect();
        assert_eq!(
            counts,
            vec![
                ("vgg16".to_string(), 13),
                ("resnet34".to_string(), 16),
                ("inception_v3".to_string(), 16),
                ("squeezenet_1_0".to_string(), 10),
            ]
        );
    }

    #[test]
    fn all_models_have_positive_costs() {
        for m in cifar_models(10) {
            for l in m.layers() {
                assert!(l.flops > 0.0, "{}: layer {} has no cost", m.name(), l.name);
                assert!(
                    l.out_elems() > 0,
                    "{}: layer {} collapsed",
                    m.name(),
                    l.name
                );
            }
        }
    }
}
