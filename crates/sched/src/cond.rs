//! One-shot conditions: the synchronization primitive programs wait on.
//!
//! A condition starts unset and is set exactly once (e.g. "everyone has
//! arrived at barrier episode 17"). Barriers and locks in `speedbal-apps`
//! allocate a fresh condition per episode. Waiters register so the system
//! can wake blocked tasks and release spinners the instant a condition is
//! set.

use crate::task::TaskId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Handle to a one-shot condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CondId(pub usize);

#[derive(Debug, Default)]
struct Cond {
    set: bool,
    waiters: Vec<TaskId>,
}

/// Table of all conditions in a [`crate::System`].
///
/// A condition that is set and has no waiters left is done with: every
/// later read of it sees it set. Such conditions at the front of the
/// table form a retired prefix, which is dropped once it is at least half
/// the table, so a run of barrier episodes keeps the table the size of
/// its live conditions. Ids are never reused, and every id below `base`
/// reads as set, so a task still holding a released episode's id sees it
/// set.
#[derive(Debug, Default)]
pub struct CondTable {
    /// Id of `conds[0]`; every id below it is retired.
    base: usize,
    /// Conditions from id `base` on.
    conds: Vec<Cond>,
    /// Length of the retired prefix of `conds`.
    retired: usize,
    /// Conditions set since the system last drained wakeups, oldest first.
    pending: VecDeque<CondId>,
    /// Emptied waiter buffers of drained conditions, handed to new ones:
    /// a barrier episode reuses the last one's buffer instead of growing
    /// its own, and a drained condition keeps no capacity.
    spare: Vec<Vec<TaskId>>,
}

impl CondTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh, unset condition.
    pub fn alloc(&mut self) -> CondId {
        let id = CondId(self.base + self.conds.len());
        let waiters = self.spare.pop().unwrap_or_default();
        self.conds.push(Cond {
            set: false,
            waiters,
        });
        id
    }

    /// True iff the condition has been set.
    pub fn is_set(&self, id: CondId) -> bool {
        match id.0.checked_sub(self.base) {
            Some(i) => self.conds[i].set,
            None => true,
        }
    }

    /// Sets the condition. Idempotent. The system drains the resulting
    /// wakeups after the current program step.
    pub fn set(&mut self, id: CondId) {
        let Some(i) = id.0.checked_sub(self.base) else {
            return;
        };
        let c = &mut self.conds[i];
        if !c.set {
            c.set = true;
            self.pending.push_back(id);
        }
    }

    /// Registers `task` as waiting on `id` (for wakeup on set). Must not be
    /// called on an already-set condition.
    pub fn add_waiter(&mut self, id: CondId, task: TaskId) {
        debug_assert!(!self.is_set(id), "waiting on an already-set cond");
        self.conds[id.0 - self.base].waiters.push(task);
    }

    /// Pops the oldest set-but-undrained condition, if any.
    pub fn pop_pending(&mut self) -> Option<CondId> {
        self.pending.pop_front()
    }

    /// Moves the condition's registered waiters into `out` (clearing them),
    /// appending after whatever `out` already holds. Lets the caller reuse
    /// one buffer across drains instead of allocating per condition. Then
    /// extends the retired prefix, and drops it once it is at least half
    /// the table; the table's capacity stays, so this never allocates.
    pub fn take_waiters_into(&mut self, id: CondId, out: &mut Vec<TaskId>) {
        let Some(i) = id.0.checked_sub(self.base) else {
            return;
        };
        let waiters = &mut self.conds[i].waiters;
        out.append(waiters);
        if waiters.capacity() > 0 {
            self.spare.push(std::mem::take(waiters));
        }
        while self
            .conds
            .get(self.retired)
            .is_some_and(|c| c.set && c.waiters.is_empty())
        {
            self.retired += 1;
        }
        if 2 * self.retired >= self.conds.len() {
            self.conds.drain(..self.retired);
            self.base += self.retired;
            self.retired = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_starts_unset() {
        let mut t = CondTable::new();
        let c = t.alloc();
        assert!(!t.is_set(c));
    }

    #[test]
    fn set_is_idempotent() {
        let mut t = CondTable::new();
        let c = t.alloc();
        t.set(c);
        t.set(c);
        assert!(t.is_set(c));
        assert_eq!(t.pop_pending(), Some(c));
        assert_eq!(t.pop_pending(), None);
    }

    #[test]
    fn waiters_delivered_once() {
        let mut t = CondTable::new();
        let c = t.alloc();
        t.add_waiter(c, TaskId(1));
        t.add_waiter(c, TaskId(2));
        t.set(c);
        assert_eq!(t.pop_pending(), Some(c));
        let mut waiters = Vec::new();
        t.take_waiters_into(c, &mut waiters);
        assert_eq!(waiters, vec![TaskId(1), TaskId(2)]);
        // Waiters were consumed.
        waiters.clear();
        t.take_waiters_into(c, &mut waiters);
        assert!(waiters.is_empty());
        assert_eq!(t.pop_pending(), None);
    }

    #[test]
    fn take_waiters_appends_to_existing_buffer() {
        let mut t = CondTable::new();
        let c = t.alloc();
        t.add_waiter(c, TaskId(2));
        let mut waiters = vec![TaskId(1)];
        t.take_waiters_into(c, &mut waiters);
        assert_eq!(waiters, vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn drained_waiter_buffers_are_reused() {
        let mut t = CondTable::new();
        let c = t.alloc();
        for i in 0..5 {
            t.add_waiter(c, TaskId(i));
        }
        t.set(c);
        let mut out = Vec::new();
        t.take_waiters_into(c, &mut out);
        assert!(t.conds.is_empty(), "drained: retired, no buffer kept");
        let d = t.alloc();
        let cond = &t.conds[d.0 - t.base];
        assert!(cond.waiters.is_empty());
        assert!(cond.waiters.capacity() >= 5, "the next condition reuses it");
    }

    fn drain(t: &mut CondTable, out: &mut Vec<TaskId>) {
        while let Some(c) = t.pop_pending() {
            t.take_waiters_into(c, out);
        }
    }

    #[test]
    fn drained_conditions_retire_and_read_as_set() {
        let mut t = CondTable::new();
        let mut out = Vec::new();
        let mut ids = Vec::new();
        for episode in 0..10_000 {
            let c = t.alloc();
            t.add_waiter(c, TaskId(episode % 7));
            t.set(c);
            drain(&mut t, &mut out);
            assert_eq!(out, [TaskId(episode % 7)]);
            out.clear();
            ids.push(c);
            assert!(t.conds.is_empty(), "episode {episode}: drained but kept");
        }
        assert!(t.conds.capacity() < 16, "the table never grew");
        assert!(
            ids.iter().all(|&c| t.is_set(c)),
            "a retired id reads as set"
        );
        // An unset condition holds the prefix back until it is drained.
        let held = t.alloc();
        t.add_waiter(held, TaskId(0));
        for _ in 0..100 {
            let c = t.alloc();
            t.set(c);
            drain(&mut t, &mut out);
        }
        assert_eq!(t.conds.len(), 101);
        t.set(held);
        drain(&mut t, &mut out);
        assert_eq!(out, [TaskId(0)]);
        assert!(t.conds.is_empty() && t.is_set(held));
        // Setting a retired id is a no-op, and ids are never reused.
        t.set(held);
        assert_eq!(t.pop_pending(), None);
        assert_eq!(t.alloc(), CondId(10_101));
    }

    #[test]
    fn multiple_conditions_drain_in_set_order() {
        let mut t = CondTable::new();
        let a = t.alloc();
        let b = t.alloc();
        t.set(b);
        t.set(a);
        assert_eq!(t.pop_pending(), Some(b));
        assert_eq!(t.pop_pending(), Some(a));
        assert_eq!(t.pop_pending(), None);
    }
}
