//! Deterministic sub-stream seed derivation.
//!
//! The whole parallel layer keys its reproducibility off one rule: every
//! logical *stream* (a device in the slotted fleet) owns an RNG seeded
//! by [`stream_seed`]`(master, stream_id)` — a pure function of the
//! run's master seed and the stream's stable index, and of nothing else. Worker count and shard boundaries never enter the
//! derivation, so re-sharding the same streams across a different number
//! of workers replays byte-identical draws.
//!
//! The mixer is SplitMix64 (Steele, Lea & Flood — "Fast splittable
//! pseudorandom number generators", OOPSLA 2014), the same finalizer the
//! vendored `rand` shim uses for `seed_from_u64` expansion: two rounds
//! over the master/stream combination give well-separated streams even
//! for adjacent `(master, stream)` pairs.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The SplitMix64 additive constant (the 64-bit golden ratio).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Advances a SplitMix64 state and returns the next output.
///
/// Deterministic and allocation-free; the canonical constants from the
/// reference implementation.
pub fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of independent stream `stream_id` from `master`.
///
/// `stream_seed(master, i)` is the only sanctioned way to fan one run
/// seed out to per-device / per-shard generators: it depends on the
/// stream index alone (not on how streams are packed into shards), which
/// is what makes parallel runs byte-identical to sequential ones.
pub fn stream_seed(master: u64, stream_id: u64) -> u64 {
    // Offset the stream by one so stream 0 does not collapse onto the
    // bare master state, then run two full mixing rounds.
    let mut state = master ^ stream_id.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA);
    let first = split_mix64(&mut state);
    first ^ split_mix64(&mut state)
}

/// The generator of stream `stream_id` under `master`:
/// `StdRng::seed_from_u64(stream_seed(master, stream_id))`.
///
/// This is the workspace's one seeded-RNG constructor. `leime`,
/// `leime-serving` and `leime-fleet` depend on `rand` only for tests, and
/// this crate re-exports [`StdRng`] and [`Rng`](crate::Rng) but not `SeedableRng`, so
/// their library code cannot seed a generator any other way.
pub fn stream_rng(master: u64, stream_id: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(master, stream_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn split_mix64_matches_reference_vector() {
        // Reference outputs for seed 0 (Vigna's splitmix64.c).
        let mut state = 0u64;
        assert_eq!(split_mix64(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(split_mix64(&mut state), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(split_mix64(&mut state), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn stream_rng_is_seed_from_u64_of_stream_seed() {
        use rand::Rng;
        let mut a = stream_rng(42, 7);
        let mut b = StdRng::seed_from_u64(stream_seed(42, 7));
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn stream_seed_is_pure() {
        assert_eq!(stream_seed(42, 7), stream_seed(42, 7));
        assert_eq!(stream_seed(0, 0), stream_seed(0, 0));
    }

    #[test]
    fn nearby_streams_do_not_collide() {
        let mut seen = BTreeSet::new();
        for master in [0u64, 1, 42, u64::MAX] {
            for stream in 0u64..256 {
                seen.insert(stream_seed(master, stream));
            }
        }
        assert_eq!(seen.len(), 4 * 256, "stream seeds collided");
    }

    #[test]
    fn stream_zero_differs_from_master_passthrough() {
        for master in [0u64, 1, 0xDEAD_BEEF] {
            assert_ne!(stream_seed(master, 0), master);
        }
    }
}
