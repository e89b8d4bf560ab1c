//! FreeBSD 7.2 ULE-style balancing (the paper's **FreeBSD** comparison).
//!
//! ULE keeps per-core queues and uses push/pull migration; the component
//! that matters for parallel applications is the **push migration
//! mechanism that runs twice a second and moves threads from the highest
//! loaded queue to the lightest loaded queue**. In the default
//! configuration it will not migrate when a static balance is unattainable
//! (a one-thread imbalance); the paper tried
//! `kern.sched.steal_thresh=1` / `kern.sched.affinity=0` "without being
//! able to observe the benefits" — performance stayed very close to the
//! statically pinned case. Both configurations are modelled here.

use serde::{Deserialize, Serialize};
use speedbal_machine::CoreId;
use speedbal_sched::balancer::keys;
use speedbal_sched::{Balancer, MigrationReason, System, TaskId, TaskState};
use speedbal_sim::SimDuration;

/// ULE tunables (`kern.sched.*`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UleConfig {
    /// Push-migration period ("runs twice a second").
    pub push_interval: SimDuration,
    /// Minimum queue-length difference that triggers a push. The FreeBSD
    /// default refuses one-thread imbalances (threshold 2); setting 1
    /// models the paper's attempted `steal_thresh=1` tuning.
    pub steal_threshold: usize,
}

impl Default for UleConfig {
    fn default() -> Self {
        UleConfig {
            push_interval: SimDuration::from_millis(500),
            steal_threshold: 2,
        }
    }
}

/// The ULE-style push/pull balancer.
pub struct UleBalancer {
    cfg: UleConfig,
    next_place: usize,
    migrations: u64,
}

impl UleBalancer {
    pub fn new() -> Self {
        Self::with_config(UleConfig::default())
    }

    pub fn with_config(cfg: UleConfig) -> Self {
        UleBalancer {
            cfg,
            next_place: 0,
            migrations: 0,
        }
    }

    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    fn movable(&self, sys: &System, from: CoreId, to: CoreId) -> Option<TaskId> {
        sys.tasks_on_core_iter(from)
            .filter(|t| sys.task_state(*t) == TaskState::Runnable)
            .filter(|t| sys.task_pinned(*t).is_none())
            .find(|t| sys.task_may_run_on(*t, to))
    }

    /// The twice-a-second sweep: one push from the longest to the shortest
    /// queue per activation, if the difference meets the threshold.
    fn push_migrate(&mut self, sys: &mut System) {
        let lens: Vec<(CoreId, usize)> = sys
            .topology()
            .core_ids()
            .map(|c| (c, sys.queue_len(c)))
            .collect();
        let Some(&(hi, hi_len)) = lens
            .iter()
            .max_by_key(|(c, l)| (*l, std::cmp::Reverse(c.0)))
        else {
            return;
        };
        let Some(&(lo, lo_len)) = lens.iter().min_by_key(|(c, l)| (*l, c.0)) else {
            return;
        };
        if hi == lo || hi_len - lo_len < self.cfg.steal_threshold {
            return;
        }
        if let Some(t) = self.movable(sys, hi, lo) {
            if sys.migrate_task_with_reason(t, lo, MigrationReason::UlePush) {
                self.migrations += 1;
            }
        }
    }
}

impl Default for UleBalancer {
    fn default() -> Self {
        Self::new()
    }
}

impl Balancer for UleBalancer {
    fn name(&self) -> &'static str {
        "FreeBSD"
    }

    fn on_start(&mut self, sys: &mut System) {
        sys.set_balancer_timer(keys::ULE, sys.now() + self.cfg.push_interval);
    }

    /// ULE places new threads on the least-loaded queue.
    fn place_task(&mut self, sys: &mut System, task: TaskId) -> CoreId {
        let mut best: Option<(usize, CoreId)> = None;
        for c in sys.topology().core_ids() {
            if !sys.task_may_run_on(task, c) {
                continue;
            }
            let l = sys.queue_len(c);
            if best.is_none_or(|(bl, _)| l < bl) {
                best = Some((l, c));
            }
        }
        match best {
            Some((_, c)) => c,
            None => {
                let n = sys.n_cores();
                let c = CoreId(self.next_place % n);
                self.next_place += 1;
                c
            }
        }
    }

    fn on_timer(&mut self, sys: &mut System, key: u64) {
        if keys::tag(key) != keys::ULE {
            return;
        }
        self.push_migrate(sys);
        let next = sys.now() + self.cfg.push_interval;
        sys.set_balancer_timer(key, next);
    }

    fn on_core_idle(&mut self, sys: &mut System, core: CoreId) {
        let Some((busiest, len)) = sys
            .topology()
            .core_ids()
            .filter(|c| *c != core)
            .map(|c| (c, sys.queue_len(c)))
            .max_by_key(|(c, l)| (*l, std::cmp::Reverse(c.0)))
        else {
            return;
        };
        if len < 2 {
            return;
        }
        if let Some(t) = self.movable(sys, busiest, core) {
            if sys.migrate_task_with_reason(t, core, MigrationReason::UleSteal) {
                self.migrations += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedbal_machine::{uniform, CostModel};
    use speedbal_sched::{Directive, SchedConfig, ScriptProgram, SpawnSpec};
    use speedbal_sim::SimTime;

    fn compute(d: SimDuration) -> Box<dyn speedbal_sched::Program> {
        Box::new(ScriptProgram::new(vec![Directive::Compute(d)]))
    }

    fn build(cfg: UleConfig, n: usize, seed: u64) -> System {
        System::new(
            uniform(n),
            SchedConfig::default(),
            CostModel::free(),
            Box::new(UleBalancer::with_config(cfg)),
            seed,
        )
    }

    #[test]
    fn default_config_behaves_statically_on_one_task_imbalance() {
        // 3-on-2: ULE's default threshold refuses the 2-vs-1 push, so as
        // long as all three threads are runnable the split never changes —
        // the paper's "very similar to the pinned (statically balanced)
        // case".
        let mut sys = build(UleConfig::default(), 2, 1);
        let g = sys.new_group();
        for i in 0..3 {
            sys.spawn(SpawnSpec::new(
                compute(SimDuration::from_secs(2)),
                format!("t{i}"),
                g,
            ));
        }
        sys.run_until(SimTime::from_millis(500));
        let mut lens: Vec<usize> = (0..2).map(|c| sys.queue_len(CoreId(c))).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![1, 2]);
        let migrations = sys.total_migrations();
        sys.run_until(SimTime::from_millis(1900));
        assert_eq!(
            sys.total_migrations(),
            migrations,
            "default ULE must not touch a one-thread imbalance"
        );
    }

    #[test]
    fn steal_thresh_one_enables_thrash_migration() {
        // With steal_thresh=1, pushes do happen on a 2-vs-1 split; each
        // push just mirrors the imbalance, but the extra thread now rotates
        // (slowly, at 2 Hz) — measurably better than static but far from
        // speed balancing.
        let cfg = UleConfig {
            steal_threshold: 1,
            ..UleConfig::default()
        };
        let mut sys = build(cfg, 2, 2);
        let g = sys.new_group();
        for i in 0..3 {
            sys.spawn(SpawnSpec::new(
                compute(SimDuration::from_secs(2)),
                format!("t{i}"),
                g,
            ));
        }
        let done = sys.run_until_group_done(g, SimTime::from_secs(60)).unwrap();
        assert!(
            done < SimTime::from_millis(4000),
            "rotation should beat pure static, got {done}"
        );
        assert!(sys.total_migrations() > 0);
    }

    #[test]
    fn spreads_batch_load() {
        let mut sys = build(UleConfig::default(), 4, 3);
        let g = sys.new_group();
        for i in 0..8 {
            sys.spawn(SpawnSpec::new(
                compute(SimDuration::from_millis(500)),
                format!("t{i}"),
                g,
            ));
        }
        let done = sys.run_until_group_done(g, SimTime::from_secs(60)).unwrap();
        assert!(
            done <= SimTime::from_millis(1300),
            "ULE should spread batch load, got {done}"
        );
    }

    #[test]
    fn least_loaded_placement() {
        let mut sys = build(UleConfig::default(), 2, 4);
        let g = sys.new_group();
        let a = sys.spawn(SpawnSpec::new(compute(SimDuration::from_secs(1)), "a", g));
        let b = sys.spawn(SpawnSpec::new(compute(SimDuration::from_secs(1)), "b", g));
        assert_ne!(sys.task_core(a), sys.task_core(b));
    }
}
