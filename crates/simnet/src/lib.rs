//! # leime-simnet
//!
//! Virtual-time primitives shared by the LEIME simulators (the slotted
//! model, fleets and serving in the `leime`, `leime-fleet` and
//! `leime-serving` crates):
//!
//! * [`SimTime`] — virtual time (seconds, totally ordered `f64` newtype),
//! * [`TimeTrace`] — piecewise-constant time-varying parameters (bandwidth,
//!   arrival-rate traces).
//!
//! ```
//! use leime_simnet::{SimTime, TimeTrace};
//!
//! let bandwidth = TimeTrace::from_points(vec![
//!     (SimTime::ZERO, 1.0),
//!     (SimTime::from_secs(30.0), 0.25),
//! ])
//! .unwrap();
//! let tct: Vec<f64> = (0..60)
//!     .map(|slot| 0.05 / bandwidth.value_at(SimTime::from_secs(f64::from(slot))))
//!     .collect();
//! assert_eq!(tct[29], 0.05);
//! assert_eq!(tct[30], 0.2);
//! ```

mod time;
mod trace;

pub use time::SimTime;
pub use trace::TimeTrace;
