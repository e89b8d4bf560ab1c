//! Task state: everything the scheduler and the balancers know about one
//! thread.
//!
//! Storage is a struct-of-arrays `TaskTable`: the fields the dispatch /
//! deschedule path touches on every event (state, core, vruntime, weight,
//! activity, accounting timestamps) live in dense parallel vectors, while
//! rarely-touched identity and bookkeeping fields (name, affinity, program,
//! counters) sit in a per-task `TaskCold` record. One simulation step
//! touches a handful of hot arrays instead of striding across ~250-byte
//! task structs, which keeps the working set of the event loop inside a few
//! cache lines. `Task` survives as the spawn-time record that
//! `TaskTable::push` scatters into the arrays.

use crate::cond::CondId;
use crate::program::Program;
use serde::{Deserialize, Serialize};
use speedbal_machine::{CoreId, NodeId};
use speedbal_sim::{SimDuration, SimTime};
use std::fmt;

/// Handle to a task (thread). Linux "does not differentiate between threads
/// and processes: these are all tasks" — neither do we.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Coarse lifecycle state, as a balancer would see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskState {
    /// On a run queue, not currently executing.
    Runnable,
    /// Currently executing on its core.
    Running,
    /// Off the run queue (sleeping / blocked on a condition).
    Blocked,
    /// Finished.
    Exited,
}

/// What the task is currently spending its scheduled time on. Internal to
/// the scheduler; balancers see only [`TaskState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Activity {
    /// Newly spawned; `Program::next` has not run yet.
    Fresh,
    /// Computing; `remaining` is nominal-speed time left.
    Compute { remaining: SimDuration },
    /// Busy-wait on a condition.
    Spin { cond: CondId },
    /// `sched_yield` loop on a condition.
    YieldLoop { cond: CondId },
    /// Spin with a timeout, then block (Intel OpenMP `KMP_BLOCKTIME`).
    SpinThenBlock {
        cond: CondId,
        remaining_spin: SimDuration,
    },
    /// Blocked on a condition (off the run queue).
    Blocked { cond: CondId },
    /// Timed sleep until the given instant (off the run queue).
    Sleeping { until: SimTime, gen: u64 },
    /// Done.
    Exited,
}

/// Spawn-time record for one simulated thread. [`TaskTable::push`] splits
/// it into the hot arrays and the cold per-task record; it never lives in
/// this form afterwards.
pub(crate) struct Task {
    pub id: TaskId,
    pub name: String,
    pub group: crate::system::GroupId,
    pub state: TaskState,
    pub activity: Activity,
    /// Core whose run queue the task belongs to (meaningful unless Exited).
    pub core: CoreId,
    /// If set, the task may only run on this core (a `sched_setaffinity`
    /// single-CPU mask: what both PINNED mode and the user-level speed
    /// balancer install). The kernel-level balancers must not move it.
    pub pinned: Option<CoreId>,
    /// Set of cores the task may use when not hard-pinned (a `taskset`-style
    /// mask). `None` = all cores.
    pub allowed: Option<Vec<CoreId>>,
    /// CFS virtual runtime, nanoseconds scaled by weight.
    pub vruntime: u64,
    /// CFS load weight (1024 = nice 0).
    pub weight: u32,
    /// Total CPU time consumed (utime+stime equivalent).
    pub exec_total: SimDuration,
    /// When the task was last put on a CPU (valid while Running).
    pub last_dispatched: SimTime,
    /// When the task last came off a CPU.
    pub last_ran_at: SimTime,
    /// Number of cross-core migrations so far (speed balancing picks the
    /// least-migrated candidate to avoid "hot-potato" tasks).
    pub migrations: u64,
    /// Number of times the task has been woken from sleep.
    pub wakeups: u64,
    /// NUMA node holding the task's memory (first-touch).
    pub home_node: Option<NodeId>,
    /// Resident set size, for the migration cost model.
    pub rss_bytes: u64,
    /// Fraction of this task's execution that is memory-bandwidth bound
    /// (0.0 = pure compute, 1.0 = streaming). Drives the bandwidth
    /// contention model on machines that enable it.
    pub mem_intensity: f64,
    /// Outstanding cache-refill stall to burn before useful work continues.
    pub pending_stall: SimDuration,
    /// Suspended by a balancer (DWRR's expired queue): kept off the run
    /// queue even while logically runnable, until resumed.
    pub suspended: bool,
    /// The thread body; taken out temporarily while `next()` runs.
    pub program: Option<Box<dyn Program>>,
    pub exited_at: Option<SimTime>,
    /// Generation counter for timed sleeps, to invalidate stale wake events.
    pub sleep_gen: u64,
}

/// Per-task fields off the event-loop hot path: identity, affinity,
/// counters bumped only on migrate/wake/exit, and the program body.
pub(crate) struct TaskCold {
    pub name: String,
    pub group: crate::system::GroupId,
    pub pinned: Option<CoreId>,
    pub allowed: Option<Vec<CoreId>>,
    pub migrations: u64,
    pub wakeups: u64,
    pub home_node: Option<NodeId>,
    pub rss_bytes: u64,
    pub program: Option<Box<dyn Program>>,
    pub exited_at: Option<SimTime>,
}

/// Struct-of-arrays task storage (see the module docs). Index `i` across
/// every array is `TaskId(i)`; the arrays always have identical length.
#[derive(Default)]
pub(crate) struct TaskTable {
    pub state: Vec<TaskState>,
    pub core: Vec<CoreId>,
    pub vruntime: Vec<u64>,
    pub weight: Vec<u32>,
    pub activity: Vec<Activity>,
    pub exec_total: Vec<SimDuration>,
    pub last_dispatched: Vec<SimTime>,
    pub last_ran_at: Vec<SimTime>,
    pub pending_stall: Vec<SimDuration>,
    pub suspended: Vec<bool>,
    pub mem_intensity: Vec<f64>,
    pub sleep_gen: Vec<u64>,
    /// Intrusive run-queue links (prev/next/key per task) threaded through
    /// by every per-core [`crate::rq::RunQueue`].
    pub rq: crate::rq::RqLinks,
    pub cold: Vec<TaskCold>,
}

impl TaskTable {
    pub fn new() -> TaskTable {
        TaskTable::default()
    }

    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Appends a spawned task, scattering the record into the arrays. The
    /// record's `id` must be the next index.
    pub fn push(&mut self, t: Task) {
        debug_assert_eq!(t.id.0, self.len(), "task ids are dense spawn order");
        self.state.push(t.state);
        self.core.push(t.core);
        self.vruntime.push(t.vruntime);
        self.weight.push(t.weight);
        self.activity.push(t.activity);
        self.exec_total.push(t.exec_total);
        self.last_dispatched.push(t.last_dispatched);
        self.last_ran_at.push(t.last_ran_at);
        self.pending_stall.push(t.pending_stall);
        self.suspended.push(t.suspended);
        self.mem_intensity.push(t.mem_intensity);
        self.sleep_gen.push(t.sleep_gen);
        self.rq.push_slot();
        self.cold.push(TaskCold {
            name: t.name,
            group: t.group,
            pinned: t.pinned,
            allowed: t.allowed,
            migrations: t.migrations,
            wakeups: t.wakeups,
            home_node: t.home_node,
            rss_bytes: t.rss_bytes,
            program: t.program,
            exited_at: t.exited_at,
        });
    }

    /// True if the task occupies a run-queue slot (running or runnable) —
    /// i.e. it counts toward Linux's notion of load.
    pub fn on_queue(&self, i: usize) -> bool {
        matches!(self.state[i], TaskState::Runnable | TaskState::Running)
    }

    /// True if the task may be placed on `core` given its affinity mask.
    pub fn may_run_on(&self, i: usize, core: CoreId) -> bool {
        let cold = &self.cold[i];
        if let Some(p) = cold.pinned {
            return p == core;
        }
        match &cold.allowed {
            Some(mask) => mask.contains(&core),
            None => true,
        }
    }

    /// CPU time consumed as of `now`, including the in-flight stretch if the
    /// task is currently on a CPU. This is what `/proc/<tid>/stat` would
    /// report.
    pub fn exec_total_at(&self, i: usize, now: SimTime) -> SimDuration {
        if self.state[i] == TaskState::Running {
            self.exec_total[i] + now.saturating_since(self.last_dispatched[i])
        } else {
            self.exec_total[i]
        }
    }

    /// True while any task has not exited (keeps the trace sampler armed).
    pub fn any_live(&self) -> bool {
        self.state.iter().any(|&s| s != TaskState::Exited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_table() -> TaskTable {
        let mut table = TaskTable::new();
        table.push(Task {
            id: TaskId(0),
            name: "x".into(),
            group: crate::system::GroupId(0),
            state: TaskState::Runnable,
            activity: Activity::Fresh,
            core: CoreId(0),
            pinned: None,
            allowed: None,
            vruntime: 0,
            weight: 1024,
            exec_total: SimDuration::ZERO,
            last_dispatched: SimTime::ZERO,
            last_ran_at: SimTime::ZERO,
            migrations: 0,
            wakeups: 0,
            home_node: None,
            rss_bytes: 0,
            mem_intensity: 0.0,
            pending_stall: SimDuration::ZERO,
            suspended: false,
            program: None,
            exited_at: None,
            sleep_gen: 0,
        });
        table
    }

    #[test]
    fn on_queue_classification() {
        let mut t = mk_table();
        assert!(t.on_queue(0));
        t.state[0] = TaskState::Running;
        assert!(t.on_queue(0));
        t.state[0] = TaskState::Blocked;
        assert!(!t.on_queue(0));
        t.state[0] = TaskState::Exited;
        assert!(!t.on_queue(0));
    }

    #[test]
    fn pinning_overrides_mask() {
        let mut t = mk_table();
        assert!(t.may_run_on(0, CoreId(5)));
        t.cold[0].allowed = Some(vec![CoreId(0), CoreId(1)]);
        assert!(t.may_run_on(0, CoreId(1)));
        assert!(!t.may_run_on(0, CoreId(5)));
        t.cold[0].pinned = Some(CoreId(7));
        assert!(t.may_run_on(0, CoreId(7)));
        assert!(!t.may_run_on(0, CoreId(0)));
    }

    #[test]
    fn exec_total_includes_running_stretch() {
        let mut t = mk_table();
        t.exec_total[0] = SimDuration::from_millis(10);
        t.state[0] = TaskState::Running;
        t.last_dispatched[0] = SimTime::from_millis(100);
        assert_eq!(
            t.exec_total_at(0, SimTime::from_millis(107)),
            SimDuration::from_millis(17)
        );
        t.state[0] = TaskState::Runnable;
        assert_eq!(
            t.exec_total_at(0, SimTime::from_millis(107)),
            SimDuration::from_millis(10)
        );
    }
}
