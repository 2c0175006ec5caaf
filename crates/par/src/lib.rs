//! # leime-par
//!
//! Deterministic parallel execution for the LEIME workspace: a
//! `std::thread`-based layer that makes fleet-scale
//! simulation and sweep work faster **without changing a single output
//! byte** (DESIGN.md §11).
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
//!    stream (device, sweep cell) derives its generator from
//!    `SplitMix64(master, stream_id)`, independent of worker count.
//! 3. **Ordered reduction** ([`pool::par_map_shards`],
//!    [`pool::run_rounds`]) — shard outputs are folded on the caller's
//!    thread in shard-index order, never completion order.
//!
//! Under these rules `run(workers = N)` is byte-identical to
//! `run(workers = 1)` for every `N`, a contract enforced by the tier-2
//! `integration_par` differential suite rather than by review.
//!
//! Failure is typed, not poisoned: a panic in one shard is caught at the
//! shard boundary and returned as [`ParError::ShardPanic`]; all other
//! workers drain and join before the error is handed back.

pub mod pool;
pub mod rng;
pub mod shard;

pub use pool::{par_map_shards, run_rounds};
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
    /// A worker thread disappeared without reporting a result — its job
    /// or result channel closed mid-round. Should be unreachable under
    /// the pool's protocol; kept as a fail-closed guard.
    WorkerLost {
        /// Index of the shard whose worker vanished.
        shard: usize,
    },
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
        }
    }
}

impl std::error::Error for ParError {}

/// A failure from [`run_rounds`]: either the pool itself broke
/// ([`ParError`]) or the caller's `apply` reduction refused a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundsError<E> {
    /// The parallel layer failed (shard panic, lost worker).
    Par(ParError),
    /// The caller's per-round reduction returned an error.
    Apply(E),
}

impl<E: std::fmt::Display> std::fmt::Display for RoundsError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundsError::Par(e) => write!(f, "{e}"),
            RoundsError::Apply(e) => write!(f, "reduction failed: {e}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for RoundsError<E> {}

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
        let r: RoundsError<&str> = RoundsError::Apply("nope");
        assert!(r.to_string().contains("nope"));
    }
}
