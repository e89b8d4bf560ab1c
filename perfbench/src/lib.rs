//! The speedbal benchmark: five workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a span-traced run. See README.md.

pub mod artifacts;
pub mod bench;
pub mod host;
pub mod replay;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod timed;
