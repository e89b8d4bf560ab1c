//! `TimedBalancer`: counts calls and host nanoseconds per balancer hook
//! from outside the balancer, so the benchmark can split balancer time
//! by layer without any change to the balancers themselves.

use speedbal_machine::CoreId;
use speedbal_sched::{Balancer, System, TaskId};
use speedbal_sim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Calls into one hook and the host time they took.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct HookCounter {
    pub calls: u64,
    pub ns: u64,
}

impl HookCounter {
    fn add(&mut self, other: HookCounter) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Per-hook counters of one wrapped balancer.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct HookStats {
    pub start: HookCounter,
    /// `place_task` and `pin_on_place`.
    pub place: HookCounter,
    pub wake: HookCounter,
    pub timer: HookCounter,
    pub idle: HookCounter,
    pub desched: HookCounter,
    pub exit: HookCounter,
}

impl HookStats {
    /// All hooks together.
    pub fn total(&self) -> HookCounter {
        let mut t = HookCounter::default();
        for c in [
            self.start,
            self.place,
            self.wake,
            self.timer,
            self.idle,
            self.desched,
            self.exit,
        ] {
            t.add(c);
        }
        t
    }

    /// Adds `other` hook by hook.
    pub fn merge(&mut self, other: &HookStats) {
        self.start.add(other.start);
        self.place.add(other.place);
        self.wake.add(other.wake);
        self.timer.add(other.timer);
        self.idle.add(other.idle);
        self.desched.add(other.desched);
        self.exit.add(other.exit);
    }
}

/// Shared handle to a wrapper's counters, readable after the balancer
/// has moved into the system.
pub type HookHandle = Rc<RefCell<HookStats>>;

/// Forwards every [`Balancer`] method to `inner`, timing each call.
pub struct TimedBalancer<B: Balancer> {
    inner: B,
    stats: HookHandle,
}

impl<B: Balancer> TimedBalancer<B> {
    pub fn new(inner: B, stats: HookHandle) -> Self {
        TimedBalancer { inner, stats }
    }
}

fn timed<R>(
    stats: &HookHandle,
    pick: fn(&mut HookStats) -> &mut HookCounter,
    f: impl FnOnce() -> R,
) -> R {
    let t = Instant::now();
    let r = f();
    let ns = t.elapsed().as_nanos() as u64;
    let mut s = stats.borrow_mut();
    let c = pick(&mut s);
    c.calls += 1;
    c.ns += ns;
    r
}

impl<B: Balancer> Balancer for TimedBalancer<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(&mut self, sys: &mut System) {
        timed(&self.stats, |s| &mut s.start, || self.inner.on_start(sys))
    }

    fn place_task(&mut self, sys: &mut System, task: TaskId) -> CoreId {
        timed(
            &self.stats,
            |s| &mut s.place,
            || self.inner.place_task(sys, task),
        )
    }

    fn pin_on_place(&mut self, sys: &mut System, task: TaskId) -> bool {
        timed(
            &self.stats,
            |s| &mut s.place,
            || self.inner.pin_on_place(sys, task),
        )
    }

    fn select_wake_core(&mut self, sys: &mut System, task: TaskId) -> CoreId {
        timed(
            &self.stats,
            |s| &mut s.wake,
            || self.inner.select_wake_core(sys, task),
        )
    }

    fn on_timer(&mut self, sys: &mut System, key: u64) {
        timed(
            &self.stats,
            |s| &mut s.timer,
            || self.inner.on_timer(sys, key),
        )
    }

    fn on_core_idle(&mut self, sys: &mut System, core: CoreId) {
        timed(
            &self.stats,
            |s| &mut s.idle,
            || self.inner.on_core_idle(sys, core),
        )
    }

    fn wants_desched_events(&self) -> bool {
        self.inner.wants_desched_events()
    }

    fn on_task_descheduled(
        &mut self,
        sys: &mut System,
        task: TaskId,
        core: CoreId,
        ran: SimDuration,
    ) {
        timed(
            &self.stats,
            |s| &mut s.desched,
            || self.inner.on_task_descheduled(sys, task, core, ran),
        )
    }

    fn on_task_exit(&mut self, sys: &mut System, task: TaskId) {
        timed(
            &self.stats,
            |s| &mut s.exit,
            || self.inner.on_task_exit(sys, task),
        )
    }
}
