//! Cross-file flow fixture: the shard body bumps a captured atomic
//! counter and calls a helper defined in `worker.rs`, whose blocking
//! receive must surface transitively.

pub fn run_shards(items: &[u32], workers: usize) -> u32 {
    let hits = AtomicU32::new(0);
    let _ = run_rounds(items, |_i, x| {
        hits.fetch_add(1, Ordering::Relaxed);
        shard_step(*x)
    }, drive);
    hits.into_inner()
}
