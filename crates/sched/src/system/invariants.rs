//! The cfg-gated invariant checker: cross-checks the system's incremental
//! mirrors against fresh reference scans at well-defined points.
//!
//! PR 3 replaced reference-style code on the event-loop hot path with
//! incremental mirrors (per-core member lists, the dense `current_mi`
//! vector, the slot-armed event queue) — exactly the class of optimization
//! that silently drifts from the semantics it mirrors. This module re-derives
//! each mirrored quantity the slow way and diffs it against the fast path:
//!
//! * **Conservation** — Σ task exec time == Σ core busy time, to the
//!   nanosecond, in-flight stretches included.
//! * **Mirror consistency** — `members` and `current_mi` vs an O(n) scan of
//!   the task table, and each core's busy flag vs its occupancy (up while
//!   it runs a task; down when idle between steps).
//! * **Run-queue / affinity coherence** — every queued task is Runnable and
//!   unsuspended with its stored vruntime key; every Running task is its
//!   core's `current`; every non-exited task sits on a core its pin/mask
//!   allows.
//! * **Event-queue structure** — each armed slot owns exactly one live
//!   entry, dead-entry accounting is exact, no live event predates the clock
//!   (see [`speedbal_sim::EventQueue::validate`]).
//! * **Vruntime monotonicity** — each queue's `min_vruntime` floor never
//!   regresses between checks (the fig6 incident class). Note queued
//!   vruntimes may legitimately sit *below* the floor (sleeper credit), so
//!   only the floor itself is constrained.
//! * **Lag bound** — no Runnable task goes without CPU for more than
//!   [`System::lag_bound`]: its queue's weighted scheduling period times a
//!   fixed slack ("no task starves by more than a slice", weight-aware).
//!   Found by the schedule-space fuzzer's design review: a lost dispatch
//!   or a task skipped by a corrupted queue key passes every structural
//!   mirror check above while the victim silently starves.
//!
//! Checks run at three hook points — post-step, post-migration and
//! post-balance-tick — and cost a single branch when disabled. Enable them
//! programmatically with [`System::enable_invariant_checks`], for a whole
//! process with the `SPEEDBAL_CHECK=1` environment variable, or at compile
//! time with the `strict-invariants` cargo feature.

use super::*;
use std::sync::OnceLock;

/// Stateful side of the checker: quantities that must evolve monotonically
/// *between* checks, plus bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct CheckState {
    /// Last observed `min_vruntime` floor per core.
    floors: Vec<u64>,
    /// Per-task progress watermark for the lag-bound check: the task's
    /// exec total when it last made progress (or was not Runnable), and
    /// when that was observed.
    waiting: Vec<(u64, SimTime)>,
    /// Number of hook invocations so far.
    checks_run: u64,
}

/// Slack multiplier on the weighted scheduling period before the lag
/// bound trips. Absorbs everything that legitimately delays a turn
/// without hiding real starvation: DVFS-throttled cores stretch a slice
/// by the inverse speed (up to ~4x on the throttle ratchet), balancer
/// `post_migration_block` holds a queue briefly, and a freshly migrated
/// task may wait out one full period on its new queue.
const LAG_SLACK: u64 = 8;

/// True iff `SPEEDBAL_CHECK` is set to anything but `0` (cached: the env
/// cannot meaningfully change mid-process, and `System::new` is on some
/// benchmark paths).
pub(crate) fn env_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("SPEEDBAL_CHECK").is_some_and(|v| v != "0"))
}

impl System {
    /// Turns on invariant checking for this system: every post-step,
    /// post-migration and post-balance-tick hook re-verifies the invariants
    /// above and panics with the full violation list on the first breach.
    /// Idempotent.
    pub fn enable_invariant_checks(&mut self) {
        if self.check.is_none() {
            self.check = Some(Box::new(CheckState {
                floors: vec![0; self.cores.len()],
                waiting: Vec::new(),
                checks_run: 0,
            }));
        }
    }

    /// The starvation bound the checker holds each Runnable task to:
    /// `LAG_SLACK` (8) weighted scheduling periods of its current queue.
    /// With equal weights one period is `max(sched_latency,
    /// nr_running × min_granularity)` — the window within which CFS's
    /// round-robin gives everyone a slice — and a low-weight (niced)
    /// task is allowed proportionally longer (`⌈ΣW/w⌉` periods),
    /// mirroring weighted fair queueing.
    pub fn lag_bound(&self, t: TaskId) -> SimDuration {
        let c = self.tasks.core[t.0].0;
        let core = &self.cores[c];
        let nr = core.queue.len() + usize::from(core.current.is_some());
        let period = self
            .cfg
            .sched_latency
            .max(self.cfg.min_granularity * nr as u64);
        let queue_weight: u64 = core
            .queue
            .iter(&self.tasks.rq)
            .chain(core.current)
            .map(|id| u64::from(self.tasks.weight[id.0]))
            .sum();
        let own = u64::from(self.tasks.weight[t.0]).max(1);
        let ratio = queue_weight.div_ceil(own).max(1);
        period * (ratio * LAG_SLACK)
    }

    /// True iff invariant checking is on.
    pub fn invariant_checks_enabled(&self) -> bool {
        self.check.is_some()
    }

    /// Number of invariant-check hook invocations so far (0 when disabled).
    /// Lets harnesses assert the checks actually ran.
    pub fn invariant_checks_run(&self) -> u64 {
        self.check.as_ref().map_or(0, |s| s.checks_run)
    }

    /// Runs every *stateless* invariant check and returns the violations
    /// found (empty = consistent). Safe to call at any time, enabled or not;
    /// O(tasks + events). A clean pass performs no heap allocation — every
    /// mirror is verified by per-entry validity plus a count match instead
    /// of materializing reference copies — so `SPEEDBAL_CHECK=1` runs stay
    /// representative of the unchecked hot path. Violations allocate their
    /// diagnostics, but by then the run is dead anyway.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let now = self.now();

        // Conservation: every nanosecond a task has executed was spent on
        // exactly one core, and `account_and_settle` adds the same stretch
        // to both sides — so the totals must match exactly, in-flight
        // stretches included.
        let task_ns: u64 = (0..self.tasks.len())
            .map(|i| self.tasks.exec_total_at(i, now).as_nanos())
            .sum();
        let core_ns: u64 = (0..self.cores.len())
            .map(|c| self.core_busy_at(c, now).as_nanos())
            .sum();
        if task_ns != core_ns {
            violations.push(format!(
                "conservation: Σ task exec {task_ns} ns != Σ core busy {core_ns} ns \
                 (drift {})",
                task_ns.abs_diff(core_ns)
            ));
        }

        // Mirror: per-core member lists vs the task table, without
        // materializing reference lists. Each list must be strictly
        // ascending and hold only non-exited tasks whose `core` field names
        // this core; a task can therefore appear in at most one list (its
        // own core's), so a total-count match with the table pins the lists
        // to exactly the non-exited task set.
        let live_tasks = (0..self.tasks.len())
            .filter(|&i| self.tasks.state[i] != TaskState::Exited)
            .count();
        let mut member_total = 0usize;
        for (c, list) in self.members.iter().enumerate() {
            member_total += list.len();
            for w in list.windows(2) {
                if w[0] >= w[1] {
                    violations.push(format!(
                        "mirror: members[{c}] not strictly ascending at {} >= {}",
                        w[0], w[1]
                    ));
                    break;
                }
            }
            for &t in list {
                if self.tasks.state[t.0] == TaskState::Exited || self.tasks.core[t.0].0 != c {
                    violations.push(format!(
                        "mirror: members[{c}] holds {t} (state {:?}, core field {:?})",
                        self.tasks.state[t.0], self.tasks.core[t.0]
                    ));
                    break;
                }
            }
        }
        if member_total != live_tasks {
            violations.push(format!(
                "mirror: members lists hold {member_total} tasks but the task \
                 table has {live_tasks} non-exited"
            ));
        }

        let mut queued_total = 0usize;
        for (c, core) in self.cores.iter().enumerate() {
            // A running core's busy flag is up: the yield handoff leaves
            // it alone on the strength of this. (An idle core's flag comes
            // down when its dispatch cycle ends; `invariant_tick` checks
            // that direction between steps.)
            if let (Some(t), false) = (core.current, core.busy_flag) {
                violations.push(format!(
                    "mirror: busy_flag of core {c} is down but it runs {t}"
                ));
            }
            // `current` / `current_mi` coherence.
            match core.current {
                Some(t) => {
                    if self.tasks.state[t.0] != TaskState::Running {
                        violations.push(format!(
                            "coherence: current of core {c} is {t} in state {:?}",
                            self.tasks.state[t.0]
                        ));
                    }
                    if self.tasks.core[t.0].0 != c {
                        violations.push(format!(
                            "coherence: current of core {c} is {t} whose core field is {:?}",
                            self.tasks.core[t.0]
                        ));
                    }
                    if self.tasks.suspended[t.0] {
                        violations.push(format!("coherence: current {t} of core {c} is suspended"));
                    }
                    if self.current_mi[c].to_bits() != self.tasks.mem_intensity[t.0].to_bits() {
                        violations.push(format!(
                            "mirror: current_mi[{c}] = {} but {t} has mem_intensity {}",
                            self.current_mi[c], self.tasks.mem_intensity[t.0]
                        ));
                    }
                }
                None => {
                    if self.current_mi[c] != 0.0 {
                        violations.push(format!(
                            "mirror: current_mi[{c}] = {} on an idle core",
                            self.current_mi[c]
                        ));
                    }
                }
            }
            // Run-queue contents and order vs the task table, without
            // materializing either side: `RunQueue::validate` walks the
            // intrusive list once (link symmetry, strict `(vruntime, task)`
            // order, cached edges, length), then every entry is
            // cross-checked against the table — Runnable, unsuspended,
            // assigned here, queue key equal to the stored vruntime. A task
            // can only be linked once, so the total-count match below pins
            // the queues to exactly the Runnable+unsuspended task set.
            if let Err(e) = core.queue.validate(&self.tasks.rq) {
                violations.push(format!("queue[{c}]: {e}"));
            }
            queued_total += core.queue.len();
            for (v, t) in core.queue.entries(&self.tasks.rq) {
                if self.tasks.state[t.0] != TaskState::Runnable
                    || self.tasks.suspended[t.0]
                    || self.tasks.core[t.0].0 != c
                    || self.tasks.vruntime[t.0] != v
                {
                    violations.push(format!(
                        "queue[{c}]: entry ({v}, {t}) does not match the task \
                         table (state {:?}, suspended {}, core {:?}, vruntime {})",
                        self.tasks.state[t.0],
                        self.tasks.suspended[t.0],
                        self.tasks.core[t.0],
                        self.tasks.vruntime[t.0]
                    ));
                    break;
                }
            }
        }
        let runnable_unsuspended = (0..self.tasks.len())
            .filter(|&i| self.tasks.state[i] == TaskState::Runnable && !self.tasks.suspended[i])
            .count();
        if queued_total != runnable_unsuspended {
            violations.push(format!(
                "queue: run queues hold {queued_total} tasks but the task table \
                 has {runnable_unsuspended} Runnable and unsuspended"
            ));
        }

        for i in 0..self.tasks.len() {
            let (id, core) = (TaskId(i), self.tasks.core[i]);
            // Every Running task is its core's current.
            if self.tasks.state[i] == TaskState::Running && self.cores[core.0].current != Some(id) {
                violations.push(format!(
                    "coherence: {id} is Running but core {core:?} runs {:?}",
                    self.cores[core.0].current
                ));
            }
            // Affinity: a task never sits on a core its pin/mask disallows.
            if self.tasks.state[i] != TaskState::Exited && !self.tasks.may_run_on(i, core) {
                violations.push(format!(
                    "affinity: {id} assigned to {core:?}, which its mask (pin {:?}) disallows",
                    self.tasks.cold[i].pinned
                ));
            }
        }

        // Event-queue structure: slot/dead-count/clock consistency,
        // including "each armed core slot owns exactly one live event".
        for msg in self.events.validate() {
            violations.push(format!("events: {msg}"));
        }

        violations
    }

    /// One invariant-checker hook invocation: stateless checks plus the
    /// stateful floor-monotonicity check. Panics with the violation list on
    /// any breach. Caller has already verified `self.check.is_some()`.
    pub(crate) fn invariant_tick(&mut self, point: &str) {
        let mut violations = self.check_invariants();
        let now = self.now();
        let mut state = self.check.take().expect("invariant_tick without state");
        // Between steps every dispatch cycle has ended, so the busy flag
        // equals occupancy. Inside a cycle an emptied core keeps its flag
        // up until the cycle ends (newidle balancing migrates, and runs
        // the post-migration hook, in between), so that no same-instant
        // deschedule and redispatch notifies its SMT siblings.
        if matches!(point, "post-step" | "post-balance-tick") {
            for (c, core) in self.cores.iter().enumerate() {
                if core.busy_flag && core.current.is_none() {
                    violations.push(format!(
                        "mirror: busy_flag of core {c} is up but it runs nothing"
                    ));
                }
            }
        }
        state.floors.resize(self.cores.len(), 0);
        for (c, core) in self.cores.iter().enumerate() {
            let floor = core.queue.min_vruntime();
            if floor < state.floors[c] {
                violations.push(format!(
                    "vruntime: min_vruntime floor of core {c} regressed {} -> {floor}",
                    state.floors[c]
                ));
            }
            state.floors[c] = floor;
        }
        // Lag bound: a task continuously Runnable since `since` whose exec
        // total has not moved must get CPU within its weighted period.
        // Any progress, state change, or suspension resets the watermark.
        for i in 0..self.tasks.len() {
            let exec = self.tasks.exec_total_at(i, now).as_nanos();
            if i >= state.waiting.len() {
                state.waiting.push((exec, now));
                continue;
            }
            let starvable = self.tasks.state[i] == TaskState::Runnable && !self.tasks.suspended[i];
            if !starvable || state.waiting[i].0 != exec {
                state.waiting[i] = (exec, now);
                continue;
            }
            let waited = now.saturating_since(state.waiting[i].1);
            let bound = self.lag_bound(TaskId(i));
            if waited > bound {
                violations.push(format!(
                    "lag: {} Runnable on core {:?} without CPU for {waited} \
                     (weighted bound {bound})",
                    TaskId(i),
                    self.tasks.core[i]
                ));
            }
        }
        state.checks_run += 1;
        self.check = Some(state);
        if !violations.is_empty() {
            panic!(
                "invariant violation at {point} (t = {}):\n  {}",
                self.now(),
                violations.join("\n  ")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::NullBalancer;
    use crate::config::SchedConfig;
    use crate::program::{Directive, ScriptProgram};
    use crate::system::SpawnSpec;
    use speedbal_machine::{uniform, CostModel};

    fn compute(ms: u64) -> Box<dyn crate::program::Program> {
        Box::new(ScriptProgram::new(vec![Directive::Compute(
            SimDuration::from_millis(ms),
        )]))
    }

    fn checked_system(n_cores: usize) -> System {
        let mut sys = System::new(
            uniform(n_cores),
            SchedConfig::default(),
            CostModel::free(),
            Box::new(NullBalancer::new()),
            42,
        );
        sys.enable_invariant_checks();
        sys
    }

    #[test]
    fn clean_run_passes_every_hook() {
        let mut sys = checked_system(2);
        let g = sys.new_group();
        for i in 0..5 {
            sys.spawn(SpawnSpec::new(compute(10), format!("t{i}"), g));
        }
        // Exercise post-migration too.
        sys.migrate_task(TaskId(0), CoreId(1));
        sys.run_to_quiescence();
        assert!(sys.invariant_checks_enabled());
        assert!(
            sys.invariant_checks_run() > 10,
            "hooks must actually fire: {}",
            sys.invariant_checks_run()
        );
        assert!(sys.check_invariants().is_empty());
    }

    #[test]
    fn detects_member_list_desync() {
        let mut sys = checked_system(2);
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute(10), "a", g));
        sys.spawn(SpawnSpec::new(compute(10), "b", g));
        // Corrupt the incremental mirror the way a missed move_member would.
        let t = sys.members[0].pop().unwrap();
        sys.members[1].push(t);
        sys.members[1].sort_unstable();
        let v = sys.check_invariants();
        assert!(
            v.iter().any(|m| m.contains("mirror: members")),
            "member desync not caught: {v:?}"
        );
    }

    #[test]
    fn detects_conservation_drift() {
        let mut sys = checked_system(1);
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute(10), "a", g));
        sys.run_to_quiescence();
        sys.tasks.exec_total[0] += SimDuration::from_nanos(1);
        let v = sys.check_invariants();
        assert!(
            v.iter().any(|m| m.contains("conservation")),
            "1 ns drift not caught: {v:?}"
        );
    }

    #[test]
    fn detects_stale_current_mi() {
        let mut sys = checked_system(1);
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute(10), "a", g).mem(0.7));
        // The zero-delay dispatch event fires on the next step.
        sys.step();
        assert!(sys.cores[0].current.is_some());
        sys.current_mi[0] = 0.0;
        let v = sys.check_invariants();
        assert!(
            v.iter().any(|m| m.contains("current_mi")),
            "stale current_mi not caught: {v:?}"
        );
    }

    #[test]
    fn detects_stale_busy_flag() {
        let mut sys = checked_system(2);
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute(10), "a", g));
        sys.step();
        assert!(sys.cores[0].current.is_some() && sys.cores[0].busy_flag);
        assert!(!sys.cores[1].busy_flag);
        assert!(sys.check_invariants().is_empty());
        // A busy core whose flag is down is caught at any time.
        sys.cores[0].busy_flag = false;
        let v = sys.check_invariants();
        assert!(
            v.iter().any(|m| m.contains("busy_flag of core 0 is down")),
            "stale busy flag not caught: {v:?}"
        );
        sys.cores[0].busy_flag = true;
        // An idle core whose flag is up passes mid-cycle hooks, where an
        // emptied core legitimately keeps its flag, but not a step's end.
        sys.cores[1].busy_flag = true;
        assert!(sys.check_invariants().is_empty());
        sys.invariant_tick("post-migration");
        let msg = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.invariant_tick("post-step");
        }))
        .unwrap_err();
        let msg = msg.downcast_ref::<String>().unwrap();
        assert!(msg.contains("busy_flag of core 1 is up"), "got: {msg}");
    }

    #[test]
    fn detects_queue_key_mismatch() {
        let mut sys = checked_system(1);
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute(10), "a", g));
        sys.spawn(SpawnSpec::new(compute(10), "b", g));
        // Task 1 is queued behind the running task 0; bump its task-table
        // vruntime without touching its queue key.
        assert_eq!(sys.tasks.state[1], TaskState::Runnable);
        sys.tasks.vruntime[1] += 17;
        let v = sys.check_invariants();
        assert!(
            v.iter().any(|m| m.contains("queue[0]")),
            "queue key mismatch not caught: {v:?}"
        );
    }

    #[test]
    fn detects_affinity_breach() {
        let mut sys = checked_system(2);
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute(10), "a", g).pin(CoreId(1)));
        // Repin behind the system's back, leaving the task on core 1.
        sys.tasks.cold[0].pinned = Some(CoreId(0));
        let v = sys.check_invariants();
        assert!(
            v.iter().any(|m| m.contains("affinity")),
            "affinity breach not caught: {v:?}"
        );
    }

    #[test]
    #[should_panic(expected = "invariant violation at post-step")]
    fn hook_panics_on_violation() {
        let mut sys = checked_system(1);
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute(10), "a", g));
        sys.tasks.exec_total[0] += SimDuration::from_nanos(1);
        sys.run_to_quiescence();
    }

    #[test]
    fn starved_runnable_task_trips_the_lag_bound() {
        let mut sys = checked_system(1);
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute(2000), "a", g));
        sys.spawn(SpawnSpec::new(compute(2000), "b", g));
        // Starve "b" in a way every *structural* mirror is blind to: push
        // its queue key and its stored vruntime — consistently — into the
        // far future, as a bug that mis-scales a weight or mangles a key
        // would. The queue/table mirror check stays green; only the lag
        // bound can see the task never getting CPU.
        let key = sys.tasks.vruntime[1];
        assert!(sys.cores[0]
            .queue
            .dequeue(&mut sys.tasks.rq, key, TaskId(1)));
        let far = 1 << 40;
        sys.tasks.vruntime[1] = far;
        sys.cores[0]
            .queue
            .enqueue(&mut sys.tasks.rq, far, TaskId(1));
        assert!(
            sys.check_invariants().is_empty(),
            "the starved state must pass every structural check"
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.run_until(SimTime::from_millis(3000));
        }))
        .expect_err("starvation must trip the lag bound");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("lag:"), "got: {msg}");
    }

    #[test]
    fn lag_bound_is_weight_aware() {
        let mut sys = checked_system(1);
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute(100), "fat", g));
        sys.spawn(SpawnSpec::new(compute(100), "nice", g).weight(128));
        let fat = sys.lag_bound(TaskId(0));
        let nice = sys.lag_bound(TaskId(1));
        // queue weight 1152: fat's share ratio is ceil(1152/1024) = 2,
        // nice's is ceil(1152/128) = 9 — the light task gets ~4.5x the
        // wait budget of the heavy one.
        assert!(
            nice >= fat * 4,
            "a weight-128 task must be allowed a weight-inverse wait \
             budget: {nice} vs {fat}"
        );
    }

    #[test]
    fn floor_regression_is_flagged() {
        let mut sys = checked_system(1);
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute(500), "a", g));
        sys.spawn(SpawnSpec::new(compute(500), "b", g));
        sys.run_until(SimTime::from_millis(400));
        assert!(
            sys.cores[0].queue.min_vruntime() > 0,
            "floor must have advanced for the regression to be observable"
        );
        let state = sys.check.as_ref().unwrap();
        assert!(state.floors[0] > 0);
        // Force the queue's floor back below the recorded high-water mark.
        let msg = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.cores[0].queue = crate::rq::RunQueue::new();
            sys.invariant_tick("post-step");
        }))
        .unwrap_err();
        let msg = msg.downcast_ref::<String>().unwrap();
        assert!(msg.contains("min_vruntime floor"), "got: {msg}");
    }
}
