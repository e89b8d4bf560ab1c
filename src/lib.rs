//! # speedbal — *Load Balancing on Speed*, reproduced in Rust
//!
//! A full reproduction of Hofmeyr, Iancu & Blagojević, *Load Balancing on
//! Speed* (PPoPP 2010): user-level **speed balancing** for SPMD parallel
//! applications, together with everything needed to evaluate it — a
//! deterministic multicore scheduling simulator, the baseline balancers
//! the paper compares against (Linux queue-length balancing, DWRR,
//! FreeBSD-ULE, static pinning), NPB-like workload models, the analytic
//! model of Section 4, and a *real* Linux user-level `speedbalancer`
//! binary built on `/proc` + `sched_setaffinity`.
//!
//! ## The idea in one paragraph
//!
//! OS load balancers equalize run-queue *lengths*. SPMD applications are
//! gated by their slowest thread at every barrier, so when N threads land
//! on M < N cores, the `N mod M` cores with one extra thread drag the
//! whole application down to `1/(⌊N/M⌋+1)` of full speed — and Linux will
//! never fix a one-task imbalance. Speed balancing instead equalizes each
//! thread's measured **speed** (`t_exec / t_real`): every balance interval,
//! a faster-than-average core pulls one thread from a slower-than-threshold
//! core, so every thread gets an equal share of time on fast and slow
//! cores, lifting the application toward `½(1/T + 1/(T+1))` of full speed.
//!
//! ## Quickstart
//!
//! ```
//! use speedbal::prelude::*;
//!
//! // The paper's running example: 3 threads on 2 cores (EP-style: one
//! // long computation, barrier at the end). Lemma 1: speed balancing
//! // pays off when the inter-barrier computation S exceeds ~2B/(T+1).
//! let app = ep_modified(SimDuration::from_secs(1),  // S: one 1 s phase
//!                       SimDuration::from_secs(1),  // per-thread work
//!                       3)
//!     .spmd(3, WaitMode::Yield, 1.0);
//! let pinned = run_scenario(
//!     &Scenario::new(Machine::Uniform(2), 0, Policy::Pinned, app.clone()).repeats(3));
//! let speed = run_scenario(
//!     &Scenario::new(Machine::Uniform(2), 0, Policy::Speed, app).repeats(3));
//! // Static balancing runs the app at 1/2 speed; speed balancing ~2/3.
//! assert!(speed.completion.mean() < 0.85 * pinned.completion.mean());
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | simulated time, event queue, deterministic RNG |
//! | [`machine`] | topologies (Tigerton/Barcelona/Nehalem), domains, migration costs |
//! | [`sched`] | per-core CFS-like scheduler, task/program model, the [`sched::Balancer`] trait |
//! | [`core`] | **the paper's contribution**: the speed balancer |
//! | [`balancers`] | Linux LOAD, DWRR, FreeBSD-ULE, PINNED, composition |
//! | [`apps`] | SPMD threads, barrier wait policies, cpu-hog, make-j |
//! | [`workloads`] | the NPB profile catalogue of Table 2 |
//! | [`analytic`] | Lemma 1, profitability thresholds, asymptotic speeds |
//! | [`metrics`] | repeat statistics, variation, text tables |
//! | [`harness`] | scenario runner + regenerators for every figure/table |
//! | [`check`] | invariant/differential/conformance correctness subsystem |
//! | [`native`] | the real Linux `speedbalancer` (procfs + affinity) |

pub use speedbal_analytic as analytic;
pub use speedbal_apps as apps;
pub use speedbal_balancers as balancers;
pub use speedbal_check as check;
pub use speedbal_core as core;
pub use speedbal_harness as harness;
pub use speedbal_machine as machine;
pub use speedbal_metrics as metrics;
pub use speedbal_native as native;
pub use speedbal_sched as sched;
pub use speedbal_sim as sim;
pub use speedbal_trace as trace;
pub use speedbal_workloads as workloads;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use speedbal_analytic::{
        balancing_steps, is_profitable, min_profitable_granularity, paper_asymptotic_speed,
        paper_speedup, queue_length_speed, repeated_migration_speed,
    };
    pub use speedbal_apps::{Barrier, BatchJob, CpuHog, SpmdApp, SpmdConfig, WaitMode};
    pub use speedbal_balancers::{CompositeBalancer, Dwrr, LinuxLoadBalancer, Pinned, UleBalancer};
    pub use speedbal_core::{SpeedBalancer, SpeedBalancerConfig, SpeedStats};
    pub use speedbal_harness::experiments::{self, Profile};
    pub use speedbal_harness::{
        run_repeat, run_scenario, run_scenario_with_traces, Competitor, Machine, Policy, Scenario,
    };
    pub use speedbal_machine::{
        barcelona, nehalem, tigerton, uniform, CoreId, CostModel, Topology,
    };
    pub use speedbal_metrics::{RepeatStats, Series, TextTable};
    pub use speedbal_sched::{
        Balancer, Directive, GroupId, NullBalancer, Program, ProgramCtx, SchedConfig, SpawnSpec,
        System, TaskId, TaskState,
    };
    pub use speedbal_sim::{SimDuration, SimRng, SimTime};
    pub use speedbal_trace::{export_chrome, render_summary, TraceBuffer, TraceConfig, TraceEvent};
    pub use speedbal_workloads::{ep, ep_modified, npb, npb_suite, NpbSpec};
}
