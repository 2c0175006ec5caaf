//! S1 fixture: `decide` funnels through a helper chain that never
//! reaches an `invariant::` guard, and `balance_solve` never calls one
//! at all; `admit` delegates to a guard and is clean.

pub fn decide(x: f64) -> f64 {
    helper(x)
}

fn helper(x: f64) -> f64 {
    x * 0.5
}

pub fn admit(x: f64) -> f64 {
    checked(x)
}

fn checked(x: f64) -> f64 {
    invariant::check_unit_interval("x", x)
}

pub fn balance_solve(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}
