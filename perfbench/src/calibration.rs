//! A fixed reference computation that gauges how fast the host runs at
//! the moment, so timings can be stated at a reference host speed.
//!
//! On a shared virtual machine, co-tenants slow every process by up to a
//! third, in phases that come and go within seconds, mostly through the
//! shared core and caches rather than as steal time. Timing this kernel
//! right before and right after a workload run measures the slowdown the
//! run saw. The kernel never changes, so its time moves only with the
//! host: a pseudo-random walk over a 256 KiB table of f64 that reads,
//! branches on and rewrites each entry it visits. Of the kernels tried
//! (that walk over 256 KiB and over 4 MiB, a dependent ALU chain, hash-map
//! inserts with small allocations), it tracked the workloads best: scaled
//! by it, the spread of 20-second medians fell from 14% to 2–4% of their
//! median on the serving and fleet workloads.

use std::hint::black_box;

use leime_telemetry::{Clock, WallClock};

/// Entries of the kernel's table: 256 KiB of f64.
const TABLE: usize = 1 << 15;
/// Kernel steps per timing, about 4 ms on the tuning host.
const STEPS: usize = 1 << 18;
/// The kernel's time on the tuning host (a 2-vCPU Intel Xeon virtual
/// machine) in its quieter stretches: the tenth percentile of 2,200
/// timings. A timing scaled by `REFERENCE_S / gauge` reads as it would
/// have on that host then.
pub const REFERENCE_S: f64 = 3.5e-3;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The kernel's table, kept between timings so its pages stay warm.
pub struct Gauge {
    table: Vec<f64>,
}

impl Gauge {
    /// A gauge with its table filled.
    pub fn new() -> Gauge {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let table = (0..TABLE)
            .map(|_| (xorshift(&mut state) >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        Gauge { table }
    }

    /// Wall time of one pass of the kernel, in seconds.
    pub fn time(&mut self) -> f64 {
        let clock = WallClock::new();
        black_box(kernel(black_box(&mut self.table)));
        clock.now()
    }
}

fn kernel(table: &mut [f64]) -> f64 {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut acc = 0.0_f64;
    for _ in 0..STEPS {
        let i = (xorshift(&mut state) as usize) & (TABLE - 1);
        let x = table[i];
        acc = if x > 0.5 {
            acc.mul_add(0.999, x)
        } else {
            (acc + x * x) * 0.998
        };
        table[i] = (x + acc * 1e-9).fract();
    }
    acc
}
