//! The real user-level speed balancer for Linux — the deployable form of
//! the paper's `speedbalancer` program (§5.2).
//!
//! `speedbalancer` "is currently implemented as a stand-alone
//! multi-threaded program that runs in user space": it takes a target
//! process, discovers its threads through `/proc`, pins them round-robin
//! across the requested cores with `sched_setaffinity`, and then runs one
//! balancer thread per core. Each balancer periodically measures its
//! threads' speeds (`t_exec / t_real` from `/proc/<pid>/task/<tid>/stat`,
//! utime+stime), publishes the local core speed, and pulls one thread from
//! a core slower than `T_s ×` the global average — re-pinning it, so the
//! kernel's own balancer never interferes.
//!
//! # Fault model
//!
//! All OS access goes through the [`ProcSource`] trait ([`RealProc`] in
//! production, [`MockProc`] with scripted fault injection in tests), and
//! every fallible call returns a typed [`ProcError`]. The balancing loop
//! tolerates thread churn, torn stat reads, and `EPERM` affinity failures
//! by retrying transients with bounded backoff and quarantining sick
//! threads (`DESIGN.md` §5c). Its balancing rules are the decision step
//! it shares with the simulator, [`speedbal_core::decide`] (§5h).
//!
//! Differences from the 2009 implementation, documented in DESIGN.md: we
//! read per-thread CPU time from `/proc/<pid>/task/<tid>/stat` instead of
//! the taskstats netlink socket (same utime+stime counters, no extra
//! privileges), and the scheduling-domain layout comes from
//! `/sys/devices/system/cpu` and `/sys/devices/system/node`.

#![warn(missing_docs)]

pub mod affinity;
pub mod balancer;
pub mod error;
pub mod mock;
pub mod proc;
pub mod source;
pub mod topo;

pub use affinity::{get_affinity, pin_to_cpu, set_affinity};
pub use balancer::{NativeConfig, NativeSpeedBalancer, NativeStats};
pub use error::ProcError;
pub use mock::{Fault, GlobalFault, MockProc, MockProcBuilder};
pub use proc::{list_tids, read_thread_cpu_time, ThreadTimes};
pub use source::{ProcSource, RealProc};
pub use topo::{online_cpus, NativeTopology};
