//! Seeded waiver-hygiene cases over S1 (a guarded fn that never reaches
//! a guard) and S8 (a shard body that sleeps): a valid waiver, a
//! justification-free waiver (W1), an unknown rule (W2), and a stale
//! waiver (W3).

// lint:allow(S1): fixture exercises the waiver path
pub fn decide(x: f64) -> f64 {
    x * 0.5
}

pub fn seeded(items: &[u32], workers: usize, pause: Duration) {
    let _ = run_rounds(items, |_i, x| {
        // lint:allow(S8)
        std::thread::sleep(pause);
        *x
    }, drive);
}

// lint:allow(L1): moved to clippy, so no longer a rule
pub fn unknown_rule() {}

// lint:allow(S5): suppresses nothing
pub fn stale() {}
