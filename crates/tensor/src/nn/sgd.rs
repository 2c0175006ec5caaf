use crate::{Result, Tensor};

/// Stochastic gradient descent with classical momentum.
///
/// One `Sgd` instance tracks velocity buffers for a fixed set of parameter
/// tensors, identified by position. Learning rate and momentum are fixed at
/// construction; weight decay is optional.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimiser for `num_params` parameter tensors.
    pub fn new(num_params: usize, lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay: 0.0,
            velocity: vec![Tensor::zeros(crate::Shape::scalar()); num_params],
        }
    }

    /// Sets an L2 weight-decay coefficient (default 0).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (e.g. for a decay schedule).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
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
            // v <- momentum * v - lr * (grad + wd * param)
            let mut effective = grad.clone();
            if self.weight_decay > 0.0 {
                effective.axpy(self.weight_decay, param)?;
            }
            vel.map_inplace(|v| v * self.momentum);
            vel.axpy(-self.lr, &effective)?;
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

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut w = Tensor::full(Shape::d1(1), 1.0);
        let mut opt = Sgd::new(1, 0.1, 0.0).with_weight_decay(1.0);
        // Zero task gradient: only decay acts.
        for _ in 0..10 {
            let g = Tensor::zeros(Shape::d1(1));
            opt.step(&mut [&mut w], &[g]).unwrap();
        }
        assert!(w.data()[0] < 1.0 && w.data()[0] > 0.0);
    }

    #[test]
    fn lr_is_adjustable() {
        let mut opt = Sgd::new(1, 0.1, 0.0);
        assert_eq!(opt.lr().to_bits(), 0.1_f32.to_bits());
        opt.set_lr(0.01);
        assert_eq!(opt.lr().to_bits(), 0.01_f32.to_bits());
    }
}
