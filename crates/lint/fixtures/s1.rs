//! S1 fixture: `decide` reaches no `invariant::` guard through its helper
//! chain, and `balance_solve` calls none at all; `admit` delegates to a
//! guard and `exact_solve` calls one directly, so both are clean.

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

pub fn exact_solve(x: f64) -> f64 {
    invariant::check_unit_interval("fixture", x)
}
