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
#[derive(Debug, Default)]
pub struct CondTable {
    conds: Vec<Cond>,
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
        let id = CondId(self.conds.len());
        let waiters = self.spare.pop().unwrap_or_default();
        self.conds.push(Cond {
            set: false,
            waiters,
        });
        id
    }

    /// True iff the condition has been set.
    pub fn is_set(&self, id: CondId) -> bool {
        self.conds[id.0].set
    }

    /// Sets the condition. Idempotent. The system drains the resulting
    /// wakeups after the current program step.
    pub fn set(&mut self, id: CondId) {
        let c = &mut self.conds[id.0];
        if !c.set {
            c.set = true;
            self.pending.push_back(id);
        }
    }

    /// Registers `task` as waiting on `id` (for wakeup on set). Must not be
    /// called on an already-set condition.
    pub fn add_waiter(&mut self, id: CondId, task: TaskId) {
        debug_assert!(!self.conds[id.0].set, "waiting on an already-set cond");
        self.conds[id.0].waiters.push(task);
    }

    /// Removes a waiter registration (e.g. spin timeout fired first).
    pub fn remove_waiter(&mut self, id: CondId, task: TaskId) {
        self.conds[id.0].waiters.retain(|t| *t != task);
    }

    /// Pops the oldest set-but-undrained condition, if any.
    pub fn pop_pending(&mut self) -> Option<CondId> {
        self.pending.pop_front()
    }

    /// Moves the condition's registered waiters into `out` (clearing them),
    /// appending after whatever `out` already holds. Lets the caller reuse
    /// one buffer across drains instead of allocating per condition.
    pub fn take_waiters_into(&mut self, id: CondId, out: &mut Vec<TaskId>) {
        let waiters = &mut self.conds[id.0].waiters;
        out.append(waiters);
        if waiters.capacity() > 0 {
            self.spare.push(std::mem::take(waiters));
        }
    }

    /// Number of allocated conditions (diagnostics).
    pub fn len(&self) -> usize {
        self.conds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.conds.is_empty()
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
        assert_eq!(t.len(), 1);
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
    fn remove_waiter_unregisters() {
        let mut t = CondTable::new();
        let c = t.alloc();
        t.add_waiter(c, TaskId(1));
        t.add_waiter(c, TaskId(2));
        t.remove_waiter(c, TaskId(1));
        t.set(c);
        let mut waiters = Vec::new();
        t.take_waiters_into(c, &mut waiters);
        assert_eq!(waiters, vec![TaskId(2)]);
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
        assert_eq!(
            t.conds[c.0].waiters.capacity(),
            0,
            "drained: no buffer kept"
        );
        let d = t.alloc();
        assert!(t.conds[d.0].waiters.is_empty());
        assert!(
            t.conds[d.0].waiters.capacity() >= 5,
            "the next condition reuses it"
        );
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
