//! Machine model for the `speedbal` simulator.
//!
//! This crate replaces the paper's physical testbeds (Table 1: the Intel
//! Tigerton UMA and AMD Barcelona NUMA quad-socket quad-cores, plus the
//! Nehalem SMT system) with an explicit model of everything the schedulers
//! actually react to:
//!
//! * the **core inventory** — per-core relative clock speed (asymmetric
//!   systems, Turbo Boost) and SMT sibling relationships;
//! * the **scheduling-domain hierarchy** — SMT, shared-cache, socket, NUMA
//!   node, system — mirroring what Linux builds from the hardware and what
//!   the user-level balancer reads from `/sys`;
//! * the **migration cost model** — cache-refill latency when a task crosses
//!   a cache boundary (microseconds to ~2 ms depending on footprint, the
//!   range the paper quotes from Li et al.), plus the persistent slowdown of
//!   running with remote NUMA memory;
//! * the **frequency model** ([`freq`]) — per-core time-varying clock
//!   ratios (constant, piecewise-step DVFS, open-loop thermal throttle)
//!   pre-generated into deterministic schedules, so heterogeneous and
//!   thermally limited machines can be simulated reproducibly.

#![warn(missing_docs)]

pub mod cost;
pub mod freq;
pub mod presets;
pub mod topology;

pub use cost::CostModel;
pub use freq::{FreqError, FreqSchedule, FreqTraceSpec};
pub use presets::{asymmetric, barcelona, big_little, nehalem, tigerton, uniform};
pub use topology::{
    CoreId, CoreInfo, Domain, DomainChain, DomainLevel, NodeId, Topology, TopologySpec,
};
