//! S5 fixture: the `run_rounds` worker closure mutates a captured
//! `Mutex` — legal Rust, since `&Mutex` is `Sync` — while the
//! capture-free shard body below stays legal. A plain `total += x` on a
//! capture needs no rule: the `Fn + Sync` bound rejects it.

pub fn bad_shared(items: &[u32], workers: usize) -> u32 {
    let shared = Mutex::new(0u32);
    let _ = run_rounds(items, |_i, x| {
        *shared.lock() += x;
        0
    }, drive);
    0
}

pub fn good_sum(items: &[u32], workers: usize) -> u32 {
    let base = 1;
    let outs = run_rounds(items, |_i, x| x + base, drive);
    outs.len() as u32
}
