//! Seeded L5 violation: a guarded solver fn that never calls a guard.

pub fn balance_solve(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

pub fn exact_solve(x: f64) -> f64 {
    invariant::check_unit_interval("fixture", x)
}
