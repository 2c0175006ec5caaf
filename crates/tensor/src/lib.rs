//! # leime-tensor
//!
//! A minimal, dependency-light f32 tensor library used by the LEIME
//! reproduction as the numerical substrate for *actually executing* the
//! exit-classifier networks (global pooling + two fully connected layers +
//! softmax, per the paper's §III-B2 task model) and for training them with
//! plain SGD + backprop during calibration.
//!
//! The library deliberately implements only what the reproduction needs:
//!
//! * dense row-major [`Tensor`]s with shape arithmetic ([`Shape`]),
//! * the forward ops an exit classifier's head needs ([`ops`]): fully
//!   connected layers, ReLU, sigmoid and softmax,
//! * weight initialisers ([`init`]): Xavier/Glorot and He, seeded,
//! * a tiny neural-network module system ([`nn`]) with manual backprop for
//!   MLP-shaped classifiers and an SGD optimiser,
//! * numerically careful reductions (max-shifted softmax, stable means).
//!
//! Everything is deterministic given an explicit [`rand::rngs::StdRng`] seed.
//!
//! ```
//! use leime_tensor::{Tensor, Shape};
//!
//! # fn main() -> Result<(), leime_tensor::TensorError> {
//! let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.])?;
//! let b = Tensor::from_vec(Shape::d2(3, 2), vec![1., 0., 0., 1., 1., 1.])?;
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert_eq!(c.data(), &[4., 5., 10., 11.]);
//! # Ok(())
//! # }
//! ```

mod error;
mod shape;
mod tensor;

pub mod init;
pub mod nn;
pub mod ops;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
