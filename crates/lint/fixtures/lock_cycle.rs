//! Lock-order fixture: two shard-reachable helpers take the same two
//! mutexes in opposite order. S8 flags all four acquisitions, so the
//! cycle cannot land without a finding.

pub fn drive(items: &[u32], workers: W) {
    let _ = run_rounds(items, |_i, x| {
        fwd(*x);
        bwd(*x);
        *x
    }, drive);
}

fn fwd(x: u32) {
    let a = reg.lock();
    let b = stats.lock();
}

fn bwd(x: u32) {
    let b = stats.lock();
    let a = reg.lock();
}
