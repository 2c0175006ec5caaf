//! # leime-simnet
//!
//! Virtual-time primitives and online statistics shared by the LEIME
//! simulators (the slotted model, fleets and serving in the `leime`,
//! `leime-fleet` and `leime-serving` crates):
//!
//! * [`SimTime`] — virtual time (seconds, totally ordered `f64` newtype),
//! * [`TimeTrace`] — piecewise-constant time-varying parameters (bandwidth,
//!   arrival-rate traces),
//! * [`stats`] — Welford online moments, percentile sketches, and
//!   time-series recording for experiment output.
//!
//! ```
//! use leime_simnet::stats::Percentiles;
//! use leime_simnet::{SimTime, TimeTrace};
//!
//! let bandwidth = TimeTrace::from_points(vec![
//!     (SimTime::ZERO, 1.0),
//!     (SimTime::from_secs(30.0), 0.25),
//! ])
//! .unwrap();
//! let mut tct = Percentiles::new();
//! for slot in 0..60 {
//!     let scale = bandwidth.value_at(SimTime::from_secs(f64::from(slot)));
//!     tct.push(0.05 / scale);
//! }
//! assert_eq!(tct.len(), 60);
//! assert!(tct.quantile(0.99).unwrap() > tct.quantile(0.01).unwrap());
//! ```

mod time;
mod trace;

pub mod stats;

pub use time::SimTime;
pub use trace::TimeTrace;
