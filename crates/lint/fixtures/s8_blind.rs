//! S8 blind-spot fixture: each blocking call sits where a
//! recursive-descent front end never looked — a `let … else` block and
//! a match guard — in a helper the shard body reaches.

pub fn drive_blind(items: &[u32], workers: usize) {
    let _ = par_map_shards(items, workers, |_i, x| first_or_wait(*x) + guarded(*x));
}

fn first_or_wait(x: u32) -> u32 {
    let Some(y) = x.checked_sub(1) else {
        return *gate.lock();
    };
    y
}

fn guarded(x: u32) -> u32 {
    match x {
        0 if *gate.lock() > 0 => 1,
        _ => x,
    }
}
