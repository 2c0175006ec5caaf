//! Forward operators for the LEIME exit classifiers.
//!
//! Layout convention: batches of flattened (already pooled) features are
//! rank-2 `(N, D)`, the only layout the exit classifiers' FC → ReLU →
//! FC → softmax head needs.

mod activation;
mod linear;

pub use activation::{relu, relu_grad_mask, sigmoid, softmax_rows};
pub use linear::linear;
