//! Crate-internal locking helper.

use std::sync::{Mutex, MutexGuard};

/// Locks `m`, recovering the guard if a previous holder panicked.
///
/// Telemetry state is append-only name tables, histogram buckets, points
/// and span records — a panic mid-`push` cannot leave them torn in a way
/// later readers would misinterpret, so poisoning must not take the whole
/// metrics pipeline down with the thread that panicked.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // lint:allow(S8): driver-drained telemetry mutex — shard workers record into shard-owned sinks replayed on the driver thread (DESIGN.md §11); the name-merged flow graph reaches this only through driver-side registry methods
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
