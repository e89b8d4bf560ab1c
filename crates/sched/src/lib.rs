//! Per-core fair scheduling and the simulated multicore system.
//!
//! This crate models the layer the paper's balancers sit on top of: Linux
//! 2.6.28's two-level scheduling. The **first level** — per-core run queues
//! managed by a CFS-like fair scheduler ("scheduling in time") — lives here.
//! The **second level** — load balancing across cores ("scheduling in
//! space") — is pluggable through the [`Balancer`] trait, implemented by
//! `speedbal-core` (speed balancing) and `speedbal-balancers` (Linux
//! queue-length balancing, DWRR, FreeBSD-ULE, static pinning).
//!
//! Applications are [`Program`] state machines that alternate computation
//! with synchronization [`Directive`]s (spin / yield / block on a condition,
//! timed sleep, exit). The barrier implementations the paper studies —
//! polling, `sched_yield` loops, `sleep`, and Intel OpenMP's
//! spin-then-sleep (`KMP_BLOCKTIME`) — are built from these directives in
//! `speedbal-apps`.
//!
//! The whole machine is advanced by a deterministic discrete-event loop in
//! [`System`]; identical seeds produce identical schedules.

// Hot-path crate: performance-relevant clippy lints are hard errors.
#![deny(clippy::perf)]

pub mod balancer;
pub mod cond;
pub mod config;
pub mod program;
pub mod rq;
pub mod system;
pub mod task;

pub use balancer::{Balancer, NullBalancer};
pub use cond::CondId;
pub use config::SchedConfig;
pub use program::{Directive, FnProgram, Program, ProgramCtx, ScriptProgram};
pub use system::{GroupId, MigrationRecord, SpawnSpec, System};
pub use task::{TaskId, TaskState};

// Re-exported so balancers and apps can name trace types without adding a
// direct `speedbal-trace` dependency.
pub use speedbal_trace as trace;
pub use speedbal_trace::{
    ActivationOutcome, MigrationReason, RequestDropReason, TraceBuffer, TraceConfig, TraceEvent,
};
