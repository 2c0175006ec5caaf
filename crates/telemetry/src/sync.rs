//! Crate-internal locking helper.

use std::sync::{Mutex, MutexGuard};

/// Locks `m`, recovering the guard if a previous holder panicked.
///
/// Telemetry state is metric tables and span records that each write
/// leaves whole — a panic mid-write cannot leave them torn in a way
/// later readers would misinterpret, so poisoning must not take the whole
/// metrics pipeline down with the thread that panicked.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
