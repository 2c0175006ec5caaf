//! Static sharding: one deterministic partition of `0..n` per run.
//!
//! Shards are contiguous, ordered, non-empty index ranges whose sizes
//! differ by at most one. The partition is a pure function of
//! `(n_items, workers)` — no work stealing, no dynamic balancing — so a
//! run's shard layout is reproducible and results can be reduced in
//! shard-index order (which, for contiguous shards, *is* item order).

use std::ops::Range;

/// Splits `0..n_items` into at most `workers` contiguous, non-empty
/// ranges covering every index exactly once, in ascending order.
///
/// Returns fewer than `workers` ranges when there are fewer items than
/// workers (never an empty range), and an empty vector for zero items.
/// `workers == 0` is treated as 1 rather than panicking — callers pass
/// user-facing knobs straight through.
pub fn partition(n_items: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.max(1).min(n_items);
    if n_items == 0 {
        return Vec::new();
    }
    let base = n_items / workers;
    let extra = n_items % workers;
    let mut shards = Vec::with_capacity(workers);
    let mut start = 0usize;
    for k in 0..workers {
        // The first `extra` shards absorb one leftover item each.
        let len = base + usize::from(k < extra);
        shards.push(start..start + len);
        start += len;
    }
    shards
}

/// Splits `0..total` into consecutive epochs of `len` items (the last
/// epoch may be shorter), in ascending order.
///
/// This is the slot→round schedule for epoch-batched `run_rounds`
/// drivers: each round processes one epoch of slots, so barrier
/// frequency drops by a factor of `len` while slot order (and thus every
/// per-device RNG draw order) is unchanged. `len == 0` is treated as 1
/// rather than panicking — callers pass user-facing knobs straight
/// through. An empty vector is returned for zero items.
pub fn epoch_ranges(total: usize, len: usize) -> Vec<Range<usize>> {
    let len = len.max(1);
    let mut epochs = Vec::with_capacity(total.div_ceil(len));
    let mut start = 0usize;
    while start < total {
        let end = (start + len).min(total);
        epochs.push(start..end);
        start = end;
    }
    epochs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_covers(n: usize, workers: usize) {
        let shards = partition(n, workers);
        // Non-empty, contiguous, ordered, complete.
        let mut next = 0usize;
        for r in &shards {
            assert!(!r.is_empty(), "empty shard in partition({n}, {workers})");
            assert_eq!(r.start, next, "gap/overlap in partition({n}, {workers})");
            next = r.end;
        }
        assert_eq!(next, n, "partition({n}, {workers}) does not cover 0..{n}");
        // Balanced: sizes differ by at most one.
        if let (Some(max), Some(min)) = (
            shards.iter().map(Range::len).max(),
            shards.iter().map(Range::len).min(),
        ) {
            assert!(max - min <= 1, "unbalanced partition({n}, {workers})");
        }
    }

    #[test]
    fn uneven_partitions_lose_nothing() {
        for n in 0..40 {
            for workers in 0..10 {
                assert_covers(n, workers);
            }
        }
    }

    #[test]
    fn more_workers_than_items_caps_at_items() {
        assert_eq!(partition(3, 8).len(), 3);
        assert_eq!(partition(1, 8), vec![0..1]);
    }

    #[test]
    fn zero_items_is_empty() {
        assert!(partition(0, 4).is_empty());
        assert!(partition(0, 0).is_empty());
    }

    #[test]
    fn zero_workers_behaves_like_one() {
        assert_eq!(partition(5, 0), partition(5, 1));
        assert_eq!(partition(5, 1), vec![0..5]);
    }

    #[test]
    fn epoch_ranges_cover_in_order() {
        assert_eq!(epoch_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(epoch_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(epoch_ranges(3, 16), vec![0..3]);
        assert_eq!(epoch_ranges(5, 1).len(), 5);
        assert!(epoch_ranges(0, 4).is_empty());
        // A zero epoch length degrades to 1 instead of looping forever.
        assert_eq!(epoch_ranges(3, 0), epoch_ranges(3, 1));
    }

    proptest! {
        #[test]
        fn epoch_ranges_are_total(total in 0usize..500, len in 0usize..40) {
            let epochs = epoch_ranges(total, len);
            let mut next = 0usize;
            for e in &epochs {
                prop_assert!(!e.is_empty());
                prop_assert_eq!(e.start, next);
                prop_assert!(e.len() <= len.max(1));
                next = e.end;
            }
            prop_assert_eq!(next, total);
            // Every epoch but the last is full-length.
            for e in epochs.iter().rev().skip(1) {
                prop_assert_eq!(e.len(), len.max(1));
            }
        }
    }

    proptest! {
        #[test]
        fn partition_is_total_and_balanced(n in 0usize..500, workers in 0usize..20) {
            assert_covers(n, workers);
        }

    }
}
