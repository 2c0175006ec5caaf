use crate::{DnnError, Layer, Result};
use serde::{Deserialize, Serialize};

/// Structural parameters of the exit classifier attached at a candidate
/// exit: "a pooling layer, two fully connected layers, and a softmax layer"
/// (paper §III-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExitSpec {
    /// Width of the hidden FC layer between pooling output and class logits.
    pub hidden_dim: usize,
}

impl ExitSpec {
    /// Creates a spec with the given hidden width.
    pub fn new(hidden_dim: usize) -> Self {
        ExitSpec { hidden_dim }
    }
}

impl Default for ExitSpec {
    /// BranchyNet-style exits are deliberately small; 128 hidden units is a
    /// representative choice.
    fn default() -> Self {
        ExitSpec { hidden_dim: 128 }
    }
}

/// FLOPs of the exit classifier attached after `layer` — the paper's
/// `μ_{exit_i}`.
///
/// Global average pooling reduces the `(C, H, W)` feature map to `C` values
/// (`C·H·W` adds), then FC1 `C → hidden` and FC2 `hidden → K` (2 FLOPs per
/// MAC) and a softmax over `K` logits (≈5 FLOPs per class: max, sub, exp,
/// sum, div).
pub fn exit_flops(layer: &Layer, spec: ExitSpec, num_classes: usize) -> f64 {
    let pool = layer.out_elems() as f64;
    let fc1 = 2.0 * (layer.out_channels * spec.hidden_dim) as f64;
    let fc2 = 2.0 * (spec.hidden_dim * num_classes) as f64;
    let softmax = 5.0 * num_classes as f64;
    pool + fc1 + fc2 + softmax
}

/// Per-candidate-exit cumulative exit probabilities — the paper's
/// `{σ_exit_1, …, σ_exit_m}` with `σ_exit_m = 1`.
///
/// `σ_exit_i` is the probability that a task's confidence exceeds the
/// threshold *at or before* exit `i`, i.e. the fraction of tasks that have
/// left the network once exit `i` has run. Rates are therefore monotone
/// non-decreasing and end at 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExitRates(Vec<f64>);

impl ExitRates {
    /// Validates and wraps a cumulative exit-rate vector.
    ///
    /// # Errors
    ///
    /// * [`DnnError::InvalidExitRate`] if any rate is outside `[0, 1]`, the
    ///   sequence decreases, or the final rate is not 1.
    /// * [`DnnError::EmptyChain`] if the vector is empty.
    pub fn new(rates: Vec<f64>) -> Result<Self> {
        if rates.is_empty() {
            return Err(DnnError::EmptyChain);
        }
        let mut prev = 0.0f64;
        for (i, &r) in rates.iter().enumerate() {
            if !(0.0..=1.0).contains(&r) || !r.is_finite() {
                return Err(DnnError::InvalidExitRate {
                    reason: format!("rate[{i}] = {r} outside [0, 1]"),
                });
            }
            if r + 1e-12 < prev {
                return Err(DnnError::InvalidExitRate {
                    reason: format!("rate[{i}] = {r} decreases below {prev}"),
                });
            }
            prev = r;
        }
        // The emptiness check above makes `last()` infallible; `prev` holds
        // the final rate after the loop.
        let last = prev;
        if (last - 1.0).abs() > 1e-9 {
            return Err(DnnError::InvalidExitRate {
                reason: format!("final rate must be 1, got {last}"),
            });
        }
        Ok(ExitRates(rates))
    }

    /// Number of candidate exits covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector is empty (never true for validated rates).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Cumulative exit probability at exit `index`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::IndexOutOfRange`] when `index >= len`.
    pub fn rate(&self, index: usize) -> Result<f64> {
        self.0.get(index).copied().ok_or(DnnError::IndexOutOfRange {
            what: "exit",
            index,
            len: self.0.len(),
        })
    }

    /// The raw cumulative rates.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerKind;

    fn feature_layer() -> Layer {
        Layer {
            name: "f".into(),
            kind: LayerKind::Conv,
            flops: 0.0,
            out_channels: 64,
            out_h: 8,
            out_w: 8,
        }
    }

    #[test]
    fn exit_flops_components() {
        let spec = ExitSpec::new(128);
        let f = exit_flops(&feature_layer(), spec, 10);
        // pool 64*8*8 = 4096; fc1 2*64*128 = 16384; fc2 2*128*10 = 2560; softmax 50.
        assert_eq!(f.to_bits(), f64::to_bits(4096.0 + 16384.0 + 2560.0 + 50.0));
    }

    #[test]
    fn exit_flops_scale_with_channels() {
        let small = feature_layer();
        let mut big = feature_layer();
        big.out_channels = 512;
        let spec = ExitSpec::default();
        assert!(exit_flops(&big, spec, 10) > exit_flops(&small, spec, 10));
    }

    #[test]
    fn rates_validation() {
        assert!(ExitRates::new(vec![0.2, 0.6, 1.0]).is_ok());
        assert!(ExitRates::new(vec![]).is_err());
        assert!(ExitRates::new(vec![0.5, 0.4, 1.0]).is_err()); // decreasing
        assert!(ExitRates::new(vec![0.5, 0.9]).is_err()); // last != 1
        assert!(ExitRates::new(vec![-0.1, 1.0]).is_err());
        assert!(ExitRates::new(vec![0.0, 1.2]).is_err());
    }

    #[test]
    fn rate_lookup() {
        let r = ExitRates::new(vec![0.3, 0.7, 1.0]).unwrap();
        assert_eq!(r.rate(0).unwrap().to_bits(), 0.3_f64.to_bits());
        assert_eq!(r.rate(2).unwrap().to_bits(), 1.0_f64.to_bits());
        assert!(r.rate(3).is_err());
        assert_eq!(r.len(), 3);
    }
}
