use crate::{Result, Tensor};

/// Stochastic gradient descent with classical momentum.
///
/// One `Sgd` instance tracks velocity buffers for a fixed set of parameter
/// tensors, identified by position. Learning rate and momentum are fixed at
/// construction.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimiser for `num_params` parameter tensors.
    pub fn new(num_params: usize, lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: vec![Tensor::zeros(crate::Shape::scalar()); num_params],
        }
    }

    /// Applies one update step to `params` given matching `grads`.
    ///
    /// Velocity buffers are lazily resized to each parameter's shape on the
    /// first step.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches between parameters and gradients.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the `num_params` given at
    /// construction (a programming error, not a data error).
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &[Tensor]) -> Result<()> {
        assert_eq!(
            params.len(),
            self.velocity.len(),
            "Sgd constructed for {} params, given {}",
            self.velocity.len(),
            params.len()
        );
        assert_eq!(params.len(), grads.len());
        for ((param, grad), vel) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            if vel.shape() != param.shape() {
                *vel = Tensor::zeros(param.shape().clone());
            }
            // v <- momentum * v - lr * grad
            vel.map_inplace(|v| v * self.momentum);
            vel.axpy(-self.lr, grad)?;
            param.axpy(1.0, vel)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    #[test]
    fn plain_sgd_descends_quadratic() {
        // Minimise f(w) = 0.5 * w^2; gradient = w.
        let mut w = Tensor::full(Shape::d1(1), 10.0);
        let mut opt = Sgd::new(1, 0.1, 0.0);
        for _ in 0..100 {
            let g = w.clone();
            opt.step(&mut [&mut w], &[g]).unwrap();
        }
        assert!(w.data()[0].abs() < 1e-3, "w = {}", w.data()[0]);
    }

    #[test]
    fn momentum_accelerates() {
        let run = |mom: f32| {
            let mut w = Tensor::full(Shape::d1(1), 10.0);
            let mut opt = Sgd::new(1, 0.01, mom);
            for _ in 0..50 {
                let g = w.clone();
                opt.step(&mut [&mut w], &[g]).unwrap();
            }
            w.data()[0].abs()
        };
        assert!(run(0.9) < run(0.0));
    }
}
