//! Synthetic complexity-parameterised classification data.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One classification task input: a class label plus a *complexity* in
/// `[0, 1]`.
///
/// Complexity is the latent quantity that determines how deep into the
/// network a sample must travel before its features separate — the abstract
/// counterpart of "an easy CIFAR image exits at the first branch". The
/// classifier never sees it; it only shapes the features the
/// [`FeatureCascade`](crate::FeatureCascade) emits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Ground-truth class.
    pub class: usize,
    /// Latent difficulty in `[0, 1]`: 0 = trivially separable, 1 = needs
    /// the full network depth.
    pub complexity: f64,
}

/// Shape of the complexity distribution.
///
/// The paper synthesises datasets of different complexities to sweep the
/// First-exit rate (Fig. 3b); these distributions reproduce that knob.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ComplexityDist {
    /// `U[0, 1]` — a balanced mix.
    Uniform,
    /// `u^shape` with `shape > 1` — mass near 0 (mostly easy samples).
    EasySkewed {
        /// Skew exponent (> 1 = easier).
        shape: f64,
    },
    /// `1 - u^shape` with `shape > 1` — mass near 1 (mostly hard samples).
    HardSkewed {
        /// Skew exponent (> 1 = harder).
        shape: f64,
    },
    /// Every sample has the same complexity.
    Fixed {
        /// The constant complexity value.
        value: f64,
    },
}

impl ComplexityDist {
    /// Draws one complexity value.
    pub fn draw(&self, rng: &mut StdRng) -> f64 {
        match *self {
            ComplexityDist::Uniform => rng.gen_range(0.0..1.0),
            ComplexityDist::EasySkewed { shape } => rng.gen_range(0.0f64..1.0).powf(shape),
            ComplexityDist::HardSkewed { shape } => 1.0 - rng.gen_range(0.0f64..1.0).powf(shape),
            ComplexityDist::Fixed { value } => value.clamp(0.0, 1.0),
        }
    }
}

/// A synthetic dataset: `num_classes` balanced classes with complexities
/// drawn from a [`ComplexityDist`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticDataset {
    num_classes: usize,
    dist: ComplexityDist,
}

impl SyntheticDataset {
    /// Creates a dataset generator.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes < 2`.
    pub fn new(num_classes: usize, dist: ComplexityDist) -> Self {
        assert!(num_classes >= 2, "need at least 2 classes");
        SyntheticDataset { num_classes, dist }
    }

    /// A CIFAR-10-like default: 10 classes, mildly easy-skewed complexity
    /// (most natural images are easy; BranchyNet reports >65% of CIFAR-10
    /// exiting at the first branch).
    pub fn cifar_like() -> Self {
        SyntheticDataset::new(10, ComplexityDist::EasySkewed { shape: 2.0 })
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The complexity distribution.
    pub fn complexity_dist(&self) -> ComplexityDist {
        self.dist
    }

    /// Draws one sample with a uniformly random class.
    pub fn draw(&self, rng: &mut StdRng) -> Sample {
        Sample {
            class: rng.gen_range(0..self.num_classes),
            complexity: self.dist.draw(rng),
        }
    }

    /// Draws a batch of `n` samples.
    pub fn draw_batch(&self, n: usize, rng: &mut StdRng) -> Vec<Sample> {
        (0..n).map(|_| self.draw(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn complexity_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(0);
        for dist in [
            ComplexityDist::Uniform,
            ComplexityDist::EasySkewed { shape: 3.0 },
            ComplexityDist::HardSkewed { shape: 3.0 },
            ComplexityDist::Fixed { value: 0.4 },
        ] {
            for _ in 0..1000 {
                let c = dist.draw(&mut rng);
                assert!((0.0..=1.0).contains(&c), "{dist:?} drew {c}");
            }
        }
    }

    #[test]
    fn easy_skew_has_lower_mean_than_hard() {
        let mut rng = StdRng::seed_from_u64(1);
        let mean = |d: ComplexityDist, rng: &mut StdRng| {
            (0..5000).map(|_| d.draw(rng)).sum::<f64>() / 5000.0
        };
        let easy = mean(ComplexityDist::EasySkewed { shape: 2.0 }, &mut rng);
        let uni = mean(ComplexityDist::Uniform, &mut rng);
        let hard = mean(ComplexityDist::HardSkewed { shape: 2.0 }, &mut rng);
        assert!(easy < uni && uni < hard, "{easy} {uni} {hard}");
        // E[u^2] = 1/3 for the easy skew.
        assert!((easy - 1.0 / 3.0).abs() < 0.03);
    }

    #[test]
    fn fixed_complexity_is_constant() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = ComplexityDist::Fixed { value: 0.7 };
        for _ in 0..10 {
            assert_eq!(d.draw(&mut rng).to_bits(), 0.7_f64.to_bits());
        }
    }

    #[test]
    fn classes_are_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = SyntheticDataset::cifar_like();
        let batch = ds.draw_batch(10_000, &mut rng);
        let mut counts = vec![0usize; ds.num_classes()];
        for s in &batch {
            counts[s.class] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 classes")]
    fn rejects_single_class() {
        SyntheticDataset::new(1, ComplexityDist::Uniform);
    }
}
