use crate::{Result, Shape, Tensor, TensorError};

/// Element-wise rectified linear unit.
pub fn relu(input: &Tensor) -> Tensor {
    input.map(|x| x.max(0.0))
}

/// Gradient mask of ReLU evaluated at the *pre-activation*: 1 where the
/// input was positive, 0 elsewhere. Used by the manual backprop in
/// [`crate::nn`].
pub fn relu_grad_mask(pre_activation: &Tensor) -> Tensor {
    pre_activation.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
}

/// Element-wise logistic sigmoid.
pub fn sigmoid(input: &Tensor) -> Tensor {
    input.map(|x| 1.0 / (1.0 + (-x).exp()))
}

/// Numerically stable row-wise softmax of a rank-2 `(N, K)` logit
/// matrix.
///
/// Shifts each row by its maximum before exponentiating, so large logits
/// cannot overflow. Each output row sums to 1 and every entry lies in
/// `(0, 1]`. The *maximum entry* of a row is the paper's "confidence"
/// used for the early-exit decision (§III-B2).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-2 inputs and
/// [`TensorError::InvalidParam`] for zero-width rows.
pub fn softmax_rows(logits: &Tensor) -> Result<Tensor> {
    if logits.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "softmax_rows",
            expected: 2,
            actual: logits.shape().rank(),
        });
    }
    let (n, k) = (logits.shape().dim(0), logits.shape().dim(1));
    if k == 0 {
        return Err(TensorError::InvalidParam {
            op: "softmax_rows",
            what: "zero-width rows".to_string(),
        });
    }
    let mut out = vec![0.0f32; n * k];
    for (row_out, row_in) in out.chunks_mut(k).zip(logits.data().chunks(k)) {
        let max = row_in.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for (o, &x) in row_out.iter_mut().zip(row_in) {
            *o = (x - max).exp();
            z += *o;
        }
        for o in row_out.iter_mut() {
            *o /= z;
        }
    }
    Tensor::from_vec(Shape::d2(n, k), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(Shape::d1(4), vec![-1., 0., 0.5, 2.]).unwrap();
        assert_eq!(relu(&t).data(), &[0., 0., 0.5, 2.]);
    }

    #[test]
    fn relu_grad_mask_matches() {
        let t = Tensor::from_vec(Shape::d1(4), vec![-1., 0., 0.5, 2.]).unwrap();
        assert_eq!(relu_grad_mask(&t).data(), &[0., 0., 1., 1.]);
    }

    #[test]
    fn sigmoid_at_zero_is_half() {
        let t = Tensor::zeros(Shape::d1(1));
        assert!((sigmoid(&t).data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_sums_to_one() {
        let t = Tensor::from_vec(Shape::d2(1, 3), vec![1., 2., 3.]).unwrap();
        let s = softmax_rows(&t).unwrap();
        assert!((s.sum() - 1.0).abs() < 1e-5);
        // Monotone in the logits.
        assert!(s.data()[2] > s.data()[1] && s.data()[1] > s.data()[0]);
    }

    #[test]
    fn softmax_handles_huge_logits() {
        let t = Tensor::from_vec(Shape::d2(1, 2), vec![1000., 1001.]).unwrap();
        let s = softmax_rows(&t).unwrap();
        assert!(s.data().iter().all(|x| x.is_finite()));
        assert!((s.sum() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_uniform_logits() {
        let t = Tensor::full(Shape::d2(1, 10), 3.0);
        let s = softmax_rows(&t).unwrap();
        for &p in s.data() {
            assert!((p - 0.1).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_rows_matches_row() {
        let m = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 3., 2., 1.]).unwrap();
        let s = softmax_rows(&m).unwrap();
        // Each row is the softmax of that row alone.
        for (i, row) in [[1., 2., 3.], [3., 2., 1.]].into_iter().enumerate() {
            let alone =
                softmax_rows(&Tensor::from_vec(Shape::d2(1, 3), row.to_vec()).unwrap()).unwrap();
            for j in 0..3 {
                assert!((s.data()[3 * i + j] - alone.data()[j]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn softmax_rejects_empty() {
        let t = Tensor::zeros(Shape::d2(1, 0));
        assert!(softmax_rows(&t).is_err());
        assert!(softmax_rows(&Tensor::zeros(Shape::d1(3))).is_err());
    }
}
