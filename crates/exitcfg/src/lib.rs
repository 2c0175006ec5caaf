//! # leime-exitcfg
//!
//! Model-level exit setting — the first core contribution of the LEIME
//! paper (§III-C).
//!
//! Given a chain DNN profile, per-candidate exit rates, and an environment
//! description (device/edge/cloud FLOPS, link bandwidths and latencies),
//! the exit-setting problem `P0` picks a First/Second/Third exit triple
//! minimising the expected task completion time
//!
//! ```text
//! T(E) = t_d + (1 − σ_1)·t_e + (1 − σ_2)·t_c            (Eq. 4, σ_3 = 1)
//! ```
//!
//! where `t_d`, `t_e`, `t_c` are the per-tier costs of Eq. 1–3.
//!
//! * [`EnvParams`] — the environment description with presets matching the
//!   paper's testbed tiers,
//! * [`CostModel`] — evaluates Eq. 1–4 for any combo, plus the two-exit
//!   cost of Theorem 1,
//! * [`branch_and_bound`] — the paper's `O(m ln m)`-average search with
//!   Theorem-1 pruning, instrumented with evaluation counts (Theorem 2),
//! * [`exhaustive`] — the `O(m²)` reference used to verify optimality,
//! * baseline strategies — min-computation, min-transmission (Edgent-style),
//!   mean-division and DDNN-style strategies (Fig. 10a / §IV benchmarks).

mod baselines;
mod bb;
mod cost;
mod env;
mod exhaustive;

pub mod multi_tier;

pub use baselines::{ddnn_style, edgent_style, mean_division, min_computation, min_transmission};
pub use bb::{branch_and_bound, SearchStats};
pub use cost::CostModel;
pub use env::EnvParams;
pub use exhaustive::exhaustive;
pub use multi_tier::{multi_tier_exits, three_tier_exits, tiers_from_env, TierEnv};
