//! Discrete-event simulation substrate for the `speedbal` workspace.
//!
//! This crate provides the three low-level building blocks every other
//! simulation crate is built on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//!   implemented as `u64` newtypes with checked, saturating arithmetic.
//! * [`EventQueue`] — a generic, deterministic pending-event set with strict
//!   FIFO tie-breaking for events scheduled at the same instant.
//! * [`SimRng`] — a seedable, fully deterministic pseudo-random number
//!   generator (xoshiro256++) with the handful of distributions the
//!   scheduling models need (uniform, Gaussian noise, exponential).
//!
//! Determinism is the core design constraint: two runs with the same seed
//! must produce bit-identical schedules, so every source of randomness is
//! funneled through [`SimRng`] and every same-time event race is broken by
//! insertion order.

// Hot-path crate: performance-relevant clippy lints are hard errors.
#![deny(clippy::perf)]
#![warn(missing_docs)]

pub mod events;
pub mod ordering;
pub mod rng;
pub mod time;

pub use events::{EventQueue, ScheduledEvent, SlotId};
pub use ordering::OrderingPolicy;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
