//! S5 fixture: names bound by a destructuring `let` — a tuple pattern
//! and a struct pattern — are captures like any simple `let` name, so a
//! shard body locking one is flagged; the struct's own field name is
//! no binding, and the shard's own pattern names stay shard-owned.

pub fn tuple_capture(items: &[u32], workers: usize) -> u32 {
    let (shared, base) = (Mutex::new(0u32), 1);
    let _ = run_rounds(items, |_i, x| {
        *shared.lock() += x + base;
        0
    }, drive);
    0
}

pub fn struct_capture(items: &[u32], workers: usize, sinks: Sinks) -> u32 {
    let Sinks { total: sink, .. } = sinks;
    let _ = run_rounds(items, |_i, x| {
        *sink.lock() += x;
        0
    }, drive);
    0
}

pub fn shard_owned(items: &[Pair], workers: usize) -> u32 {
    let _ = run_rounds(items, |_i, pair| {
        let (cell, _) = pair.split();
        cell.swap(1);
        0
    }, drive);
    0
}
