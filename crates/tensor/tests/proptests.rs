//! Property tests for the tensor substrate: operator identities and
//! numerical invariants over random shapes and values.

use leime_tensor::nn::{cross_entropy, one_hot};
use leime_tensor::ops::{linear, relu, softmax_rows};
use leime_tensor::{Shape, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn randn(shape: Shape, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(shape, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Matmul distributes over addition: A(B + C) = AB + AC.
    #[test]
    fn matmul_distributes(n in 1usize..8, k in 1usize..8, m in 1usize..8, seed in 0u64..1000) {
        let a = randn(Shape::d2(n, k), seed);
        let b = randn(Shape::d2(k, m), seed + 1);
        let c = randn(Shape::d2(k, m), seed + 2);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Transposition reverses multiplication: (AB)^T = B^T A^T.
    #[test]
    fn matmul_transpose_identity(n in 1usize..8, k in 1usize..8, m in 1usize..8, seed in 0u64..1000) {
        let a = randn(Shape::d2(n, k), seed);
        let b = randn(Shape::d2(k, m), seed + 9);
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Softmax output is a distribution and is shift-invariant (on one
    /// row).
    #[test]
    fn softmax_invariants(k in 1usize..16, shift in -50.0f32..50.0, seed in 0u64..1000) {
        let logits = randn(Shape::d2(1, k), seed);
        let p1 = softmax_rows(&logits).unwrap();
        prop_assert!((p1.sum() - 1.0).abs() < 1e-4);
        prop_assert!(p1.data().iter().all(|&x| x >= 0.0));
        let shifted = logits.map(|x| x + shift);
        let p2 = softmax_rows(&shifted).unwrap();
        for (a, b) in p1.data().iter().zip(p2.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// ReLU is idempotent and monotone.
    #[test]
    fn relu_idempotent(n in 1usize..64, seed in 0u64..1000) {
        let x = randn(Shape::d1(n), seed);
        let once = relu(&x);
        let twice = relu(&once);
        prop_assert_eq!(once.data(), twice.data());
        prop_assert!(once.data().iter().all(|&v| v >= 0.0));
    }

    /// Cross-entropy of one-hot-perfect predictions is ~0 and of row-wise
    /// softmax is non-negative.
    #[test]
    fn cross_entropy_bounds(n in 1usize..16, k in 2usize..8, seed in 0u64..1000) {
        let logits = randn(Shape::d2(n, k), seed);
        let probs = softmax_rows(&logits).unwrap();
        let labels: Vec<usize> = (0..n).map(|i| i % k).collect();
        let ce = cross_entropy(&probs, &labels).unwrap();
        prop_assert!(ce >= 0.0);
        // Perfect one-hot.
        let perfect = one_hot(&labels, k).unwrap();
        let ce0 = cross_entropy(&perfect, &labels).unwrap();
        prop_assert!(ce0.abs() < 1e-5);
    }

    /// Linear layers compose: (x W1) W2 = x (W1 W2) when biases are 0.
    #[test]
    fn linear_composes(n in 1usize..6, a in 1usize..6, b in 1usize..6, c in 1usize..6, seed in 0u64..1000) {
        let x = randn(Shape::d2(n, a), seed);
        let w1 = randn(Shape::d2(a, b), seed + 1);
        let w2 = randn(Shape::d2(b, c), seed + 2);
        let zb = Tensor::zeros(Shape::d1(b));
        let zc = Tensor::zeros(Shape::d1(c));
        let stepwise = linear(&linear(&x, &w1, &zb).unwrap(), &w2, &zc).unwrap();
        let fused = linear(&x, &w1.matmul(&w2).unwrap(), &zc).unwrap();
        for (p, q) in stepwise.data().iter().zip(fused.data()) {
            prop_assert!((p - q).abs() < 1e-2, "{p} vs {q}");
        }
    }
}
