//! # leime-par
//!
//! Deterministic parallel execution for the LEIME workspace: a
//! `std::thread`-based layer that makes fleet-scale simulation faster
//! **without changing a single output byte** (DESIGN.md §11).
//!
//! The paper's §III-D solver is decentralized — each device solves its
//! per-slot problem (Eq. 20 balance, Eq. 27 shares) independently — so
//! per-slot device work is embarrassingly parallel. What is *not* free
//! is the repo's determinism contract: byte-identical chaos replay,
//! `BTreeMap` snapshots, seed-exact regression corpora. This crate
//! closes that gap with three rules:
//!
//! 1. **Static sharding** ([`shard::partition`]) — contiguous,
//!    deterministic index ranges; no work stealing.
//! 2. **Per-stream RNGs** ([`rng::stream_rng`]) — every logical
//!    stream (a device) derives its generator from
//!    `SplitMix64(master, stream_id)`, independent of worker count.
//! 3. **Ordered reduction** ([`pool::run_rounds`]) — the caller's
//!    thread drives the rounds, and each [`Rounds::run`] hands it the
//!    shard outputs in shard-index order, never completion order, so
//!    it folds them in a plain loop.
//!
//! Under these rules `run(workers = N)` is byte-identical to
//! `run(workers = 1)` for every `N`, a contract enforced by the tier-2
//! `integration_par` differential suite rather than by review.
//!
//! Failure is typed, not poisoned: a panic in one shard is caught at the
//! shard boundary and returned as [`ParError::ShardPanic`] once every
//! other shard has finished the round; the driver decides what to do
//! next, and all workers join when it returns or unwinds.

pub mod pool;
pub mod rng;
pub mod shard;

pub use pool::{run_rounds, Rounds};
pub use rand::rngs::StdRng;
pub use rand::Rng;
pub use rng::{split_mix64, stream_rng, stream_seed};
pub use shard::{epoch_ranges, partition};

/// A failure inside the parallel layer itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// The closure running shard `shard` panicked; `message` carries the
    /// rendered panic payload.
    ShardPanic {
        /// Index of the shard whose closure panicked.
        shard: usize,
        /// Rendered panic payload (best effort).
        message: String,
    },
    /// A worker thread disappeared without reporting a result — its
    /// round slot was still empty when the round closed. Should be
    /// unreachable under the pool's protocol; kept as a fail-closed
    /// guard.
    WorkerLost {
        /// Index of the shard whose worker vanished.
        shard: usize,
    },
    /// [`run_rounds`] was called from inside a shard body. A shard body
    /// runs between its round's barriers, so a pool of its own would
    /// stall every other shard; nothing was started.
    Nested,
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::ShardPanic { shard, message } => {
                write!(f, "shard {shard} panicked: {message}")
            }
            ParError::WorkerLost { shard } => {
                write!(f, "worker for shard {shard} vanished mid-round")
            }
            ParError::Nested => f.write_str("run_rounds called from inside a shard body"),
        }
    }
}

impl std::error::Error for ParError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let p = ParError::ShardPanic {
            shard: 3,
            message: "boom".into(),
        };
        assert_eq!(p.to_string(), "shard 3 panicked: boom");
        assert!(ParError::WorkerLost { shard: 1 }.to_string().contains("1"));
        assert!(ParError::Nested.to_string().contains("inside a shard body"));
    }
}
