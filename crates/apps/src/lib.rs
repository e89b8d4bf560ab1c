//! Application models: SPMD programs with barrier synchronization, and the
//! competing workloads of the paper's shared-system experiments.
//!
//! "The vast majority of existing implementations of parallel scientific
//! applications use the SPMD programming model: there are phases of
//! computation followed by barrier synchronization" (§3). The interaction
//! between an application and OS load balancing "is largely accomplished
//! through the implementation of synchronization operations", so the
//! barrier wait policy is a first-class parameter here:
//!
//! * [`WaitMode::Spin`] — polling (UPC/OpenMP with infinite block time);
//! * [`WaitMode::Yield`] — `sched_yield` loop (default UPC and MPI): the
//!   thread stays on the run queue and counts as load;
//! * [`WaitMode::Block`] — `sleep`/futex: the thread leaves the run queue,
//!   which is what lets the Linux balancer see the imbalance;
//! * [`WaitMode::SpinThenBlock`] — Intel OpenMP's `KMP_BLOCKTIME`
//!   (200 ms by default).
//!
//! Competing workloads: [`CpuHog`] (the compute-intensive pinned
//! antagonist of Figure 5) and [`BatchJob`] (the `make -j`-like mix of
//! CPU bursts and short I/O sleeps of Figure 6).
//!
//! Beyond SPMD, [`server`] models open-loop request serving — a
//! worker-pool of threads pulling Poisson/bursty request streams from a
//! shared queue, with per-request service-time distributions, optional
//! fan-out, bounded queues and load shedding — the workload family
//! behind the `serve` artifact's tail-latency experiments.

pub mod barrier;
pub mod competitors;
pub mod lock;
pub mod server;
pub mod spmd;

pub use barrier::{Barrier, WaitMode};
pub use competitors::{BatchJob, CpuHog};
pub use lock::{Lock, LockWorker};
pub use server::{
    generate_requests, ArrivalProcess, RequestSchedule, ServerApp, ServerConfig, ServerMetrics,
    ServerWorker, ServiceDist,
};
pub use spmd::{SpmdApp, SpmdConfig, SpmdThread};
