//! Speed balancer tunables (paper §5).

use serde::{Deserialize, Serialize};
use speedbal_sim::SimDuration;

/// How a thread's "speed" is measured (§5: "Using the execution time based
/// definition of speed is a more elegant measure than run queue length in
/// that it captures different task priorities and transient task behavior
/// without requiring any special cases").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpeedMetric {
    /// `t_exec / t_real` over the balance interval — the paper's metric.
    ExecTime,
    /// The strawman the paper rejects: the inverse of the core's run-queue
    /// length at sampling time. Blind to sleeping/transient co-runners and
    /// to priorities; the `queue-length-metric` row of the `ablations`
    /// artifact.
    InverseQueueLength,
}

/// Configuration of the speed balancer.
///
/// Defaults are the paper's settings: 100 ms balance interval (the value
/// used "for all of our experiments", matching the scheduler quantum so
/// thread-speed readings are never stale), pull threshold `T_s = 0.9`,
/// a post-migration block of two intervals, and NUMA migrations blocked.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedBalancerConfig {
    /// Balance interval `B`: how long each per-core balancer sleeps between
    /// activations. §6.1 sweeps this (20 ms is best for cache-light EP;
    /// 100 ms works best across the full workload).
    pub interval: SimDuration,
    /// A random increase of up to one balance interval is added at each
    /// wake-up, varying the elapsed time between checks "from one core to
    /// the next" to break migration cycles. Setting this false makes the
    /// balancers fire in lockstep (the `no-jitter` row of the `ablations`
    /// artifact, and `speedbal-check`'s lockstep Lemma 1 cells).
    pub randomize_interval: bool,
    /// Pull threshold `T_s`: only pull from a core whose speed satisfies
    /// `s_k / s_global < T_s`. Ensures noise does not cause spurious
    /// migrations when queues are actually balanced.
    pub speed_threshold: f64,
    /// Cores involved in a migration are blocked from further migrations
    /// for this many intervals (must be ≥ 2 so both cores' threads have run
    /// a full interval and speeds are not stale).
    pub post_migration_block: u32,
    /// Relative standard deviation of multiplicative noise applied to each
    /// thread-speed reading, modelling the "certain amount of noise in the
    /// measurements" of the taskstats interface.
    pub measurement_noise: f64,
    /// Block migrations that cross NUMA node boundaries (the paper's
    /// setting for Barcelona: "we allowed migrations across cache domains
    /// and blocked NUMA migrations").
    pub block_numa_migrations: bool,
    /// Startup delay before the balancer first pins and measures (models
    /// polling `/proc` for thread identifiers).
    pub startup_delay: SimDuration,
    /// §5: "different scheduling domains can have different migration
    /// intervals. For example, speedbalancer can enable migrations to
    /// happen twice as often between cores that share a cache as compared
    /// to those that do not." A multiplier of 2 considers cross-cache
    /// candidates only on every second activation; 1 = uniform.
    pub cross_cache_interval_mult: u32,
    /// The speed measure (§5's exec-time definition by default; the
    /// inverse-queue-length strawman for the `ablations` artifact).
    pub metric: SpeedMetric,
    /// §5 extension for heterogeneous machines: weight each thread's
    /// measured speed "with the relative core speed", so a full CPU share
    /// of a slow-clocked core reads as less progress than the same share
    /// of a fast core. Off by default (the paper's 2009 implementation did
    /// not weight — it notes this as the easy extension).
    pub weight_core_speed: bool,
}

impl Default for SpeedBalancerConfig {
    fn default() -> Self {
        SpeedBalancerConfig {
            interval: SimDuration::from_millis(100),
            randomize_interval: true,
            speed_threshold: 0.9,
            post_migration_block: 2,
            measurement_noise: 0.01,
            block_numa_migrations: true,
            startup_delay: SimDuration::ZERO,
            cross_cache_interval_mult: 1,
            metric: SpeedMetric::ExecTime,
            weight_core_speed: false,
        }
    }
}

impl SpeedBalancerConfig {
    /// A configuration with a different balance interval (Figure 2 sweep).
    pub fn with_interval(interval: SimDuration) -> Self {
        SpeedBalancerConfig {
            interval,
            ..Default::default()
        }
    }

    /// Deterministic, noise-free configuration for analytic validation.
    pub fn exact() -> Self {
        SpeedBalancerConfig {
            measurement_noise: 0.0,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SpeedBalancerConfig::default();
        assert_eq!(c.interval, SimDuration::from_millis(100));
        assert!((c.speed_threshold - 0.9).abs() < 1e-12);
        assert!(c.post_migration_block >= 2);
        assert!(c.block_numa_migrations);
        assert!(c.randomize_interval);
    }

    #[test]
    fn builders() {
        let c = SpeedBalancerConfig::with_interval(SimDuration::from_millis(20));
        assert_eq!(c.interval, SimDuration::from_millis(20));
        assert_eq!(SpeedBalancerConfig::exact().measurement_noise, 0.0);
    }
}
