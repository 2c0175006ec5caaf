//! # leime-inference
//!
//! Exit-classifier training and confidence-threshold calibration for the
//! LEIME reproduction.
//!
//! The paper attaches a classifier (pool + 2×FC + softmax) at every
//! candidate exit, sets a confidence threshold per exit "to make the task
//! exit early efficiently while guaranteeing inference accuracy"
//! (§III-B2), and derives the per-exit exit rates `σ_exit_i` from those
//! thresholds. This crate does exactly that, for real:
//!
//! 1. [`train_exit_classifier`] trains one softmax classifier per candidate
//!    exit on features drawn from the
//!    [`FeatureCascade`](leime_workload::FeatureCascade) at that exit's
//!    depth (SGD + momentum on a genuine MLP, see `leime-tensor`),
//! 2. [`calibrate`] picks each exit's confidence threshold as the loosest
//!    one that keeps the accuracy of *exited* samples at the target, then
//!    measures cumulative exit rates and per-combo ME-DNN accuracy on a
//!    held-out set — the quantities behind the paper's Fig. 6 and the
//!    `σ` inputs of the exit-setting and offloading algorithms.

mod calibration;
mod train;

pub use calibration::{calibrate, CalibrationConfig, CalibrationResult, CalibrationSummary};
pub use train::{train_exit_classifier, TrainConfig};
