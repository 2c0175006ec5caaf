//! # leime-workload
//!
//! Workload generation for the LEIME reproduction: everything stochastic
//! that the paper's experiments feed into the system.
//!
//! * [`arrival`] — task arrival processes. The paper's queueing model draws
//!   a per-slot task count `M_i(t)`, i.i.d. over slots with mean `k_i`
//!   (§III-B1), and a two-state Markov-modulated process ([`Mmpp`]) adds
//!   bursts on top.
//! * [`dataset`] — a synthetic, complexity-parameterised classification
//!   dataset standing in for CIFAR-10: each sample has a class and a
//!   *complexity* in `[0, 1]` controlling how deep a network must look
//!   before the sample becomes separable.
//! * [`cascade`] — the depth-indexed feature extractor: a stand-in for a
//!   trained CNN trunk that produces, for any depth fraction, features
//!   whose separability grows with depth relative to sample complexity and
//!   degrades slightly past the "overthinking" onset (Kaya et al., ICML
//!   2019), which is the mechanism behind the paper's Fig. 6 observation
//!   that some exit combinations *improve* accuracy.
//! * [`exitmodel`] — parametric cumulative exit-rate curves `σ(depth)` used
//!   by the large-scale simulations (the paper itself synthesises datasets
//!   "reflected by the exit rate of First-exit", Fig. 3b).
//!
//! All randomness flows through caller-provided seeded [`rand::rngs::StdRng`]s.

pub mod arrival;
pub mod cascade;
pub mod dataset;
pub mod exitmodel;

pub use arrival::{poisson_draw, poisson_threshold, Binomial, Mmpp, SlotArrivals};
pub use cascade::{CascadeParams, FeatureCascade};
pub use dataset::{ComplexityDist, Sample, SyntheticDataset};
pub use exitmodel::ExitRateModel;
