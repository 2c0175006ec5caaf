use crate::{exit_flops, DnnChain, DnnError, ExitRates, ExitSpec, Result};
use serde::{Deserialize, Serialize};

/// A First/Second/Third exit selection — the paper's
/// `E = {e_1, e_2, e_3}` with `e_3 = exit_m`.
///
/// Indices are 0-based chain-layer indices ("exit after layer `i`"); the
/// paper's 1-based `exit_k` is index `k-1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExitCombo {
    /// First exit (device-side), after this layer index.
    pub first: usize,
    /// Second exit (edge-side), after this layer index.
    pub second: usize,
    /// Third exit (cloud-side); must be the last layer index `m-1`.
    pub third: usize,
}

impl ExitCombo {
    /// Creates and validates a combo against a chain of `m` layers.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidExitCombo`] unless
    /// `first < second < third == m-1`.
    pub fn new(first: usize, second: usize, third: usize, m: usize) -> Result<Self> {
        if m < 3 {
            return Err(DnnError::InvalidExitCombo {
                reason: format!("chain of {m} layers cannot host 3 exits"),
            });
        }
        if third != m - 1 {
            return Err(DnnError::InvalidExitCombo {
                reason: format!("third exit must be the final layer {} (got {third})", m - 1),
            });
        }
        if !(first < second && second < third) {
            return Err(DnnError::InvalidExitCombo {
                reason: format!("exits must be strictly increasing: {first}, {second}, {third}"),
            });
        }
        Ok(ExitCombo {
            first,
            second,
            third,
        })
    }

    /// The combo in the paper's 1-based exit numbering.
    pub fn to_one_based(self) -> (usize, usize, usize) {
        (self.first + 1, self.second + 1, self.third + 1)
    }
}

/// One of the three blocks a ME-DNN is partitioned into.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockProfile {
    /// Total FLOPs of the block's chain layers plus its exit classifier —
    /// the paper's `μ_k`.
    pub flops: f64,
    /// FLOPs of the exit classifier alone (`μ_{exit}` component).
    pub exit_classifier_flops: f64,
    /// Bytes leaving this block toward the next tier if the task did not
    /// exit (the paper's `d_1`, `d_2`; unused for the cloud block).
    pub boundary_bytes: f64,
}

/// A ME-DNN partitioned into device/edge/cloud blocks by an [`ExitCombo`].
///
/// Carries the paper's `[μ_1, μ_2, μ_3]` and `[d_0, d_1, d_2]` (Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// The generating exit selection.
    pub combo: ExitCombo,
    /// Device block: layers `0..=first` + First-exit classifier.
    pub device: BlockProfile,
    /// Edge block: layers `first+1..=second` + Second-exit classifier.
    pub edge: BlockProfile,
    /// Cloud block: layers `second+1..=third` + Third-exit classifier.
    pub cloud: BlockProfile,
    /// Raw input bytes `d_0`.
    pub input_bytes: f64,
}

impl Partition {
    /// `[μ_1, μ_2, μ_3]`.
    pub fn block_flops(&self) -> [f64; 3] {
        [self.device.flops, self.edge.flops, self.cloud.flops]
    }

    /// `[d_0, d_1, d_2]`.
    pub fn data_sizes(&self) -> [f64; 3] {
        [
            self.input_bytes,
            self.device.boundary_bytes,
            self.edge.boundary_bytes,
        ]
    }
}

/// A chain-structured DNN with candidate exits after every layer.
///
/// `MultiExitDnn` is the model-level object the exit-setting algorithm
/// searches over and the offloading model consumes (through
/// [`Partition`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiExitDnn {
    chain: DnnChain,
    spec: ExitSpec,
}

impl MultiExitDnn {
    /// Attaches candidate exits (one per layer) to a chain.
    pub fn new(chain: DnnChain, spec: ExitSpec) -> Self {
        MultiExitDnn { chain, spec }
    }

    /// The underlying chain.
    pub fn chain(&self) -> &DnnChain {
        &self.chain
    }

    /// The exit-classifier spec.
    pub fn spec(&self) -> ExitSpec {
        self.spec
    }

    /// Number of candidate exits (= number of chain layers `m`).
    pub fn num_exits(&self) -> usize {
        self.chain.num_layers()
    }

    /// FLOPs of the candidate exit classifier after layer `index` —
    /// `μ_{exit_i}`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::IndexOutOfRange`] when `index` is not a layer.
    pub fn exit_classifier_flops(&self, index: usize) -> Result<f64> {
        let layer = self.chain.layer(index).ok_or(DnnError::IndexOutOfRange {
            what: "exit",
            index,
            len: self.chain.num_layers(),
        })?;
        Ok(exit_flops(layer, self.spec, self.chain.num_classes()))
    }

    /// Partitions the ME-DNN into three blocks at `combo`.
    ///
    /// Block `k` aggregates its chain layers plus the exit classifier that
    /// terminates it; boundary byte counts are the activations crossing
    /// device→edge (`d_1`) and edge→cloud (`d_2`).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidExitCombo`] if `combo` does not satisfy
    /// `first < second < third == m-1`.
    pub fn partition(&self, combo: ExitCombo) -> Result<Partition> {
        // Re-validate against *this* chain (combos are cheap to forge).
        let combo = ExitCombo::new(combo.first, combo.second, combo.third, self.num_exits())?;
        let e1 = self.exit_classifier_flops(combo.first)?;
        let e2 = self.exit_classifier_flops(combo.second)?;
        let e3 = self.exit_classifier_flops(combo.third)?;
        let device = BlockProfile {
            flops: self.chain.flops_range(0, combo.first + 1) + e1,
            exit_classifier_flops: e1,
            boundary_bytes: self.chain.intermediate_bytes(combo.first)?,
        };
        let edge = BlockProfile {
            flops: self.chain.flops_range(combo.first + 1, combo.second + 1) + e2,
            exit_classifier_flops: e2,
            boundary_bytes: self.chain.intermediate_bytes(combo.second)?,
        };
        let cloud = BlockProfile {
            flops: self.chain.flops_range(combo.second + 1, combo.third + 1) + e3,
            exit_classifier_flops: e3,
            boundary_bytes: 0.0,
        };
        Ok(Partition {
            combo,
            device,
            edge,
            cloud,
            input_bytes: self.chain.input_bytes(),
        })
    }

    /// Per-block exit probabilities `[σ_1, σ_2, σ_3]` for a combo under
    /// cumulative candidate rates.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ExitRateMismatch`] if `rates` does not cover all
    /// candidates, or an index error if the combo is invalid.
    pub fn combo_rates(&self, combo: ExitCombo, rates: &ExitRates) -> Result<[f64; 3]> {
        if rates.len() != self.num_exits() {
            return Err(DnnError::ExitRateMismatch {
                expected: self.num_exits(),
                actual: rates.len(),
            });
        }
        Ok([
            rates.rate(combo.first)?,
            rates.rate(combo.second)?,
            rates.rate(combo.third)?,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, LayerKind};

    fn chain(m: usize) -> DnnChain {
        let layers = (0..m)
            .map(|i| Layer {
                name: format!("l{i}"),
                kind: LayerKind::Conv,
                flops: 100.0 * (i + 1) as f64,
                out_channels: 8,
                out_h: 4,
                out_w: 4,
            })
            .collect();
        DnnChain::new("toy", 3, 8, 8, 10, layers).unwrap()
    }

    #[test]
    fn combo_validation() {
        assert!(ExitCombo::new(0, 2, 4, 5).is_ok());
        assert!(ExitCombo::new(2, 2, 4, 5).is_err()); // not strictly increasing
        assert!(ExitCombo::new(0, 1, 3, 5).is_err()); // third not last
        assert!(ExitCombo::new(0, 1, 1, 2).is_err()); // chain too short
    }

    #[test]
    fn one_based_mapping() {
        let c = ExitCombo::new(0, 13, 15, 16).unwrap();
        assert_eq!(c.to_one_based(), (1, 14, 16)); // paper's Inception v3 setting
    }

    #[test]
    fn partition_flops_are_exhaustive() {
        let me = MultiExitDnn::new(chain(5), ExitSpec::default());
        let combo = ExitCombo::new(1, 3, 4, 5).unwrap();
        let p = me.partition(combo).unwrap();
        let layer_total = me.chain().total_flops();
        let exits: f64 = p.device.exit_classifier_flops
            + p.edge.exit_classifier_flops
            + p.cloud.exit_classifier_flops;
        let blocks: f64 = p.block_flops().iter().sum();
        assert!((blocks - (layer_total + exits)).abs() < 1e-9);
    }

    #[test]
    fn partition_boundaries() {
        let me = MultiExitDnn::new(chain(5), ExitSpec::default());
        let p = me.partition(ExitCombo::new(0, 2, 4, 5).unwrap()).unwrap();
        // All layers output 8*4*4 = 128 elems = 512 bytes.
        assert_eq!(p.device.boundary_bytes.to_bits(), 512.0_f64.to_bits());
        assert_eq!(p.edge.boundary_bytes.to_bits(), 512.0_f64.to_bits());
        assert_eq!(p.cloud.boundary_bytes.to_bits(), 0.0_f64.to_bits());
        assert_eq!(
            p.input_bytes.to_bits(),
            f64::to_bits((3 * 8 * 8 * 4) as f64)
        );
        assert_eq!(
            p.data_sizes().map(f64::to_bits),
            [768.0, 512.0, 512.0].map(f64::to_bits)
        );
    }

    #[test]
    fn partition_rejects_forged_combo() {
        let me = MultiExitDnn::new(chain(5), ExitSpec::default());
        // Forged combo claiming third=9 on a 5-layer chain.
        let bad = ExitCombo {
            first: 0,
            second: 1,
            third: 9,
        };
        assert!(me.partition(bad).is_err());
    }

    #[test]
    fn combo_rates_lookup() {
        let me = MultiExitDnn::new(chain(5), ExitSpec::default());
        let rates = ExitRates::new(vec![0.1, 0.3, 0.5, 0.8, 1.0]).unwrap();
        let combo = ExitCombo::new(0, 2, 4, 5).unwrap();
        assert_eq!(
            me.combo_rates(combo, &rates).unwrap().map(f64::to_bits),
            [0.1, 0.5, 1.0].map(f64::to_bits)
        );
        let short = ExitRates::new(vec![0.5, 1.0]).unwrap();
        assert!(me.combo_rates(combo, &short).is_err());
    }

    #[test]
    fn exit_classifier_flops_bounds() {
        let me = MultiExitDnn::new(chain(3), ExitSpec::default());
        assert!(me.exit_classifier_flops(2).is_ok());
        assert!(me.exit_classifier_flops(3).is_err());
    }
}
