//! **Speed balancing** — the paper's contribution (Hofmeyr, Iancu,
//! Blagojević, *Load Balancing on Speed*, PPoPP 2010).
//!
//! Instead of equalizing run-queue lengths, speed balancing equalizes the
//! time each thread of a parallel application spends on "fast" and "slow"
//! cores, where a thread's **speed** is `t_exec / t_real` over a balance
//! interval — exactly the share of CPU it received, an application- and
//! OS-independent metric that transparently absorbs priorities, competing
//! load, sleeping co-runners and asymmetric clocks.
//!
//! The algorithm (paper §5.1) is fully distributed: one balancer per core,
//! no global synchronization, at most **one** thread pulled per activation,
//! randomized intervals to break cycles, a post-migration block of at least
//! two intervals so speeds are never stale, a pull threshold `T_s = 0.9`
//! guarding against measurement noise, least-migrated victim selection to
//! avoid hot-potato tasks, and (on NUMA machines) migrations confined to a
//! node.
//!
//! Two deployment forms are provided, mirroring the paper's user-level
//! `speedbalancer` program:
//!
//! * [`SpeedBalancer`] — a [`speedbal_sched::Balancer`] managing *every*
//!   group in the simulated system (a dedicated machine);
//! * [`SpeedBalancer::managing`] — restricted to chosen task groups, for
//!   composition with a kernel balancer over the unrelated tasks (see
//!   `speedbal-balancers`' `CompositeBalancer`), as in the paper's shared
//!   workload experiments.

// Hot-path crate: performance-relevant clippy lints are hard errors.
#![deny(clippy::perf)]

pub mod config;
pub mod decide;
pub mod speed;
pub mod stats;

pub use config::{SpeedBalancerConfig, SpeedMetric};
pub use decide::{Block, CoreView, Decision};
pub use speed::SpeedBalancer;
pub use stats::SpeedStats;
