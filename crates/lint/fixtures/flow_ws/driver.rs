//! Cross-file flow fixture: the shard body calls a helper defined in
//! `worker.rs`, so the helper is hot and its allocation counts against
//! the pinned zero (`baseline.json`). The driver fn that hands out the
//! shard body allocates too, but nothing hot reaches it.

pub fn run_shards(items: &[u32], workers: usize) -> Vec<u32> {
    let outs = run_rounds(items, |_i, x| shard_step(*x), drive);
    outs.to_vec()
}
