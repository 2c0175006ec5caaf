//! S6 blind-spot fixture: the hot root reaches its allocating helper
//! only through the length of a `vec![x; n]`, so the helper's
//! allocation must count against the pinned zero.

pub fn run(n: usize) -> Vec<u32> {
    vec![0; row_len(n)]
}

fn row_len(n: usize) -> usize {
    format!("{n}").len()
}
