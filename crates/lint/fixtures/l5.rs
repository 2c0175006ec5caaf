//! Seeded unguarded solver: `balance_solve` never calls a guard, while
//! `exact_solve` calls one directly. S1 flags only the former.

pub fn balance_solve(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

pub fn exact_solve(x: f64) -> f64 {
    invariant::check_unit_interval("fixture", x)
}
