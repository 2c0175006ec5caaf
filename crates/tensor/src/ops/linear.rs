use crate::{Result, Tensor, TensorError};

/// Batched fully connected layer: `(N, D_in) · (D_in, D_out) + bias`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
/// when operands are not matrices or the inner dimension / bias length
/// disagree.
pub fn linear(input: &Tensor, weight: &Tensor, bias: &Tensor) -> Result<Tensor> {
    let mut out = input.matmul(weight)?;
    let d_out = out.shape().dim(1);
    if bias.len() != d_out {
        return Err(TensorError::ShapeMismatch {
            op: "linear",
            lhs: vec![d_out],
            rhs: bias.shape().dims().to_vec(),
        });
    }
    let b = bias.data();
    for row in out.data_mut().chunks_mut(d_out) {
        for (x, &bi) in row.iter_mut().zip(b) {
            *x += bi;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    #[test]
    fn linear_matches_manual() {
        let x = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]).unwrap();
        let w = Tensor::from_vec(Shape::d2(2, 3), vec![1., 0., 1., 0., 1., 1.]).unwrap();
        let b = Tensor::from_vec(Shape::d1(3), vec![10., 20., 30.]).unwrap();
        let y = linear(&x, &w, &b).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(y.data(), &[11., 22., 33., 13., 24., 37.]);
    }

    #[test]
    fn linear_rejects_bias_mismatch() {
        let x = Tensor::zeros(Shape::d2(1, 2));
        let w = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d1(4));
        assert!(linear(&x, &w, &b).is_err());
    }
}
