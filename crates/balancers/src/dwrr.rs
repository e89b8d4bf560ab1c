//! Distributed Weighted Round-Robin (Li et al.; the paper's **DWRR**
//! comparison point).
//!
//! DWRR provides *system-wide fair CPU allocation* from inside the kernel:
//! scheduling proceeds in **rounds**; each task may consume one *round
//! slice* (100 ms in the 2.6.22 implementation the paper ran) per round,
//! after which it moves to the core's **expired** list. When a core's
//! active queue drains, it first tries **round balancing** — stealing
//! still-eligible threads from other cores whose round is not ahead — and
//! only then advances its own round number (kept within one of every other
//! core, enforcing global fairness) and recycles its expired tasks.
//!
//! The properties the paper highlights all emerge from this design:
//! repeated migration of the surplus thread gives a 3-thread/2-core
//! application ~66% speed (better than Linux's 50%, worse than speed
//! balancing's 75%); the migration rate is high because stealing moves
//! whole batches; there is no NUMA awareness; and fairness is *global*
//! (all tasks in the system) rather than per-application.

use serde::{Deserialize, Serialize};
use speedbal_machine::CoreId;
use speedbal_sched::balancer::keys;
use speedbal_sched::{Balancer, MigrationReason, System, TaskId, TaskState};
use speedbal_sim::SimDuration;

/// DWRR tunables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DwrrConfig {
    /// CPU time a task may use per round (100 ms in Linux 2.6.22 DWRR,
    /// 30 ms in the 2.6.24 port).
    pub round_slice: SimDuration,
    /// Safety timer forcing round maintenance even when no core event
    /// triggers it (e.g. everything expired simultaneously).
    pub maintenance_interval: SimDuration,
}

impl Default for DwrrConfig {
    fn default() -> Self {
        DwrrConfig {
            round_slice: SimDuration::from_millis(100),
            maintenance_interval: SimDuration::from_millis(20),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TaskRound {
    /// CPU consumed in the current round.
    used: SimDuration,
    /// The round this task is waiting to run in (if expired, the core
    /// round + 1 at expiry).
    round: u64,
    /// Cumulative CPU time at the last accounting pass.
    exec_snap: SimDuration,
}

/// The DWRR balancer.
pub struct Dwrr {
    cfg: DwrrConfig,
    /// Per-core round numbers.
    round: Vec<u64>,
    /// Per-task accounting.
    tasks: Vec<TaskRound>,
    next_place: usize,
    migrations: u64,
    rounds_advanced: u64,
    /// Reusable task list for the hooks that migrate, suspend or resume
    /// while walking a core's tasks, so no hook allocates once warm.
    scratch: Vec<TaskId>,
}

impl Dwrr {
    pub fn new() -> Self {
        Self::with_config(DwrrConfig::default())
    }

    pub fn with_config(cfg: DwrrConfig) -> Self {
        Dwrr {
            cfg,
            round: Vec::new(),
            tasks: Vec::new(),
            next_place: 0,
            migrations: 0,
            rounds_advanced: 0,
            scratch: Vec::new(),
        }
    }

    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    pub fn rounds_advanced(&self) -> u64 {
        self.rounds_advanced
    }

    fn task_mut(&mut self, t: TaskId) -> &mut TaskRound {
        if self.tasks.len() <= t.0 {
            self.tasks.resize_with(t.0 + 1, TaskRound::default);
        }
        &mut self.tasks[t.0]
    }

    /// Expired (suspended) tasks parked on `core` that are eligible to run
    /// in round ≤ `round`. Reads the per-core member list (non-exited, in
    /// `TaskId` order) instead of scanning every task.
    fn eligible_expired_on<'a>(
        &'a self,
        sys: &'a System,
        core: CoreId,
        round: u64,
    ) -> impl Iterator<Item = TaskId> + 'a {
        sys.tasks_assigned_to(core)
            .iter()
            .copied()
            .filter(move |t| {
                sys.task_suspended(*t) && self.tasks.get(t.0).map_or(0, |r| r.round) <= round
            })
    }

    /// Round balancing for an empty `core`: steal runnable or
    /// round-eligible expired threads from the most loaded other core.
    /// Returns true if anything was brought in.
    fn round_balance(&mut self, sys: &mut System, core: CoreId) -> bool {
        let my_round = self.round[core.0];
        // Donor load counts everything DWRR-managed on the core: running +
        // queued (unpinned) + round-eligible expired threads. Only the
        // non-running part is stealable (the kernel cannot move the task
        // that is on the CPU).
        let mut best: Option<(usize, usize, CoreId)> = None; // (load, stealable, core)
        for c in sys.topology().core_ids() {
            if c == core {
                continue;
            }
            let expired = self.eligible_expired_on(sys, c, my_round).count();
            // With nothing queued and nothing expired, nothing is stealable:
            // `c` cannot be the donor, so skip its run-queue walk.
            if expired == 0 && sys.queue_len(c) <= usize::from(sys.current_task(c).is_some()) {
                continue;
            }
            let (mut unpinned, mut queued) = (0, 0);
            for t in sys.tasks_on_core_iter(c) {
                if sys.task_pinned(t).is_none() {
                    unpinned += 1;
                    if sys.task_state(t) == TaskState::Runnable {
                        queued += 1;
                    }
                }
            }
            let load = unpinned + expired;
            let stealable = queued + expired;
            if stealable > 0 && best.is_none_or(|(bl, _, _)| load > bl) {
                best = Some((load, stealable, c));
            }
        }
        let Some((donor_load, stealable, donor)) = best else {
            return false;
        };
        // The donor keeps at least one thread: stealing a busy core's only
        // thread would merely relocate it. Steal up to half the surplus
        // otherwise — DWRR "might migrate a large number of threads".
        if donor_load < 2 {
            return false;
        }
        let to_steal = (donor_load / 2).max(1).min(donor_load - 1).min(stealable);
        let mut stolen = 0usize;
        let mut list = std::mem::take(&mut self.scratch);
        // Expired-but-eligible threads first (they are the round laggards).
        list.extend(self.eligible_expired_on(sys, donor, my_round));
        for &t in &list {
            if stolen >= to_steal {
                break;
            }
            if sys.migrate_task_with_reason(t, core, MigrationReason::DwrrRound { round: my_round })
            {
                sys.resume_task(t);
                self.task_mut(t).used = SimDuration::ZERO;
                self.migrations += 1;
                stolen += 1;
            }
        }
        list.clear();
        list.extend(sys.tasks_on_core_iter(donor).filter(|t| {
            sys.task_state(*t) == TaskState::Runnable && sys.task_pinned(*t).is_none()
        }));
        for &t in &list {
            if stolen >= to_steal {
                break;
            }
            if sys.migrate_task_with_reason(t, core, MigrationReason::DwrrRound { round: my_round })
            {
                self.migrations += 1;
                stolen += 1;
            }
        }
        list.clear();
        self.scratch = list;
        stolen > 0
    }

    /// A core finished its round (queue drained and nothing to steal):
    /// advance its round number and recycle its expired tasks.
    fn advance_round(&mut self, sys: &mut System, core: CoreId) {
        // Global fairness: a core may not run ahead by more than one round.
        let min_round = self.round.iter().copied().min().unwrap_or(0);
        if self.round[core.0] > min_round {
            return; // wait for the laggards
        }
        self.round[core.0] += 1;
        self.rounds_advanced += 1;
        let mut eligible = std::mem::take(&mut self.scratch);
        eligible.extend(self.eligible_expired_on(sys, core, self.round[core.0]));
        for &t in &eligible {
            self.task_mut(t).used = SimDuration::ZERO;
            sys.resume_task(t);
        }
        eligible.clear();
        self.scratch = eligible;
    }

    /// Round-slice accounting for every task on `core`, driven by CPU-time
    /// deltas (the kernel does this from the timer tick, so even a task
    /// running alone — which the per-core scheduler never deschedules —
    /// expires when its slice is consumed).
    fn account_core(&mut self, sys: &mut System, core: CoreId) {
        let cur_round = self.round[core.0];
        let slice = self.cfg.round_slice;
        let mut on_core = std::mem::take(&mut self.scratch);
        on_core.extend(
            sys.tasks_on_core_iter(core)
                .filter(|t| sys.task_pinned(*t).is_none() && sys.task_exited_at(*t).is_none()),
        );
        for &t in &on_core {
            let exec = sys.task_exec_total(t);
            let acct = self.task_mut(t);
            let delta = exec.saturating_sub(acct.exec_snap);
            acct.exec_snap = exec;
            acct.used += delta;
            if acct.used >= slice {
                acct.used = SimDuration::ZERO;
                acct.round = cur_round + 1;
                sys.suspend_task(t);
            }
        }
        on_core.clear();
        self.scratch = on_core;
    }

    fn maintain(&mut self, sys: &mut System, core: CoreId) {
        self.account_core(sys, core);
        if sys.queue_len(core) > 0 {
            return;
        }
        if !self.round_balance(sys, core) {
            self.advance_round(sys, core);
        }
    }
}

impl Default for Dwrr {
    fn default() -> Self {
        Self::new()
    }
}

impl Balancer for Dwrr {
    fn name(&self) -> &'static str {
        "DWRR"
    }

    fn on_start(&mut self, sys: &mut System) {
        self.round = vec![0; sys.n_cores()];
        for c in 0..sys.n_cores() {
            sys.set_balancer_timer(
                keys::DWRR | c as u64,
                sys.now() + self.cfg.maintenance_interval,
            );
        }
    }

    /// Round-robin start-up placement (DWRR inherits the underlying
    /// scheduler's placement; round-robin is the neutral choice and matches
    /// how the paper launched 16-thread jobs).
    fn place_task(&mut self, sys: &mut System, task: TaskId) -> CoreId {
        let n = sys.n_cores();
        for off in 0..n {
            let c = CoreId((self.next_place + off) % n);
            if sys.task_may_run_on(task, c) {
                self.next_place = (c.0 + 1) % n;
                self.task_mut(task).round = self.round.get(c.0).copied().unwrap_or(0);
                return c;
            }
        }
        CoreId(0)
    }

    fn on_timer(&mut self, sys: &mut System, key: u64) {
        if keys::tag(key) != keys::DWRR {
            return;
        }
        let core = CoreId(keys::index(key));
        if core.0 >= sys.n_cores() {
            return;
        }
        self.maintain(sys, core);
        let next = sys.now() + self.cfg.maintenance_interval;
        sys.set_balancer_timer(key, next);
    }

    fn on_core_idle(&mut self, sys: &mut System, core: CoreId) {
        if sys.queue_len(core) > 0 {
            return;
        }
        if !self.round_balance(sys, core) {
            self.advance_round(sys, core);
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

    fn build(n: usize, seed: u64) -> (System, ()) {
        let sys = System::new(
            uniform(n),
            SchedConfig::default(),
            CostModel::free(),
            Box::new(Dwrr::new()),
            seed,
        );
        (sys, ())
    }

    #[test]
    fn three_on_two_runs_at_two_thirds() {
        // DWRR's repeated migration gives each of 3 threads ~2/3 of a core:
        // 2 s of work per thread => ~3 s makespan (vs 4 s static).
        let (mut sys, _) = build(2, 1);
        let g = sys.new_group();
        for i in 0..3 {
            sys.spawn(SpawnSpec::new(
                compute(SimDuration::from_secs(2)),
                format!("t{i}"),
                g,
            ));
        }
        let done = sys
            .run_until_group_done(g, SimTime::from_secs(60))
            .expect("finish");
        let secs = done.as_secs_f64();
        assert!(
            (2.9..=3.5).contains(&secs),
            "DWRR should land near the fair 3.0 s, got {secs}"
        );
    }

    #[test]
    fn fairness_equalizes_cpu_time() {
        let (mut sys, _) = build(2, 2);
        let g = sys.new_group();
        let mut ts = Vec::new();
        for i in 0..3 {
            ts.push(sys.spawn(SpawnSpec::new(
                compute(SimDuration::from_secs(2)),
                format!("t{i}"),
                g,
            )));
        }
        // Mid-run, CPU shares must be near-equal (global fairness).
        sys.run_until(SimTime::from_millis(1500));
        let execs: Vec<f64> = ts
            .iter()
            .map(|t| sys.task_exec_total(*t).as_secs_f64())
            .collect();
        let min = execs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = execs.iter().cloned().fold(0.0, f64::max);
        assert!(
            max - min <= 0.35,
            "round slices bound the CPU-time spread: {execs:?}"
        );
    }

    #[test]
    fn migrates_heavily() {
        // The paper: "it appears that in order to enforce fairness the
        // algorithm might migrate a large number of threads".
        let bal = Dwrr::new();
        let mut sys = System::new(
            uniform(2),
            SchedConfig::default(),
            CostModel::free(),
            Box::new(bal),
            3,
        );
        let g = sys.new_group();
        for i in 0..3 {
            sys.spawn(SpawnSpec::new(
                compute(SimDuration::from_secs(2)),
                format!("t{i}"),
                g,
            ));
        }
        sys.run_until_group_done(g, SimTime::from_secs(60)).unwrap();
        assert!(
            sys.total_migrations() >= 10,
            "expected many migrations, got {}",
            sys.total_migrations()
        );
    }

    #[test]
    fn balanced_case_still_completes_perfectly() {
        let (mut sys, _) = build(4, 4);
        let g = sys.new_group();
        for i in 0..4 {
            sys.spawn(SpawnSpec::new(
                compute(SimDuration::from_secs(1)),
                format!("t{i}"),
                g,
            ));
        }
        let done = sys.run_until_group_done(g, SimTime::from_secs(60)).unwrap();
        assert!(
            done <= SimTime::from_millis(1050),
            "one thread per core is already fair, got {done}"
        );
    }

    #[test]
    fn pinned_tasks_are_exempt() {
        let (mut sys, _) = build(2, 5);
        let g = sys.new_group();
        let p =
            sys.spawn(SpawnSpec::new(compute(SimDuration::from_secs(1)), "p", g).pin(CoreId(0)));
        for i in 0..2 {
            sys.spawn(SpawnSpec::new(
                compute(SimDuration::from_secs(1)),
                format!("t{i}"),
                g,
            ));
        }
        sys.run_until_group_done(g, SimTime::from_secs(60)).unwrap();
        assert_eq!(sys.task_migrations(p), 0);
        assert_eq!(sys.task_core(p), CoreId(0));
    }
}
