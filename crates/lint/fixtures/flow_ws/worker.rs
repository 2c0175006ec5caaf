//! Worker-side helper for the cross-file flow fixture.

pub fn shard_step(x: u32) -> u32 {
    let label = format!("{x}");
    x + label.len() as u32
}
