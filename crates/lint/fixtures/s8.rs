//! S8 fixture: the shard body sleeps directly and calls a helper that
//! blocks on a channel receive; the wait-free body stays legal.

pub fn bad(items: &[u32], workers: usize, pause: Duration) {
    let _ = run_rounds(items, |_i, x| {
        std::thread::sleep(pause);
        slow_helper(*x)
    }, drive);
}

fn slow_helper(x: u32) -> u32 {
    let extra = inbox.recv();
    x + extra
}

pub fn good(items: &[u32], workers: usize) -> usize {
    let outs = run_rounds(items, |_i, x| x + 1, drive);
    outs.len()
}
