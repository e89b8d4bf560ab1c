//! A CFS-like per-core run queue: tasks ordered by virtual runtime.

use crate::task::TaskId;

/// Sentinel "no task" index for the intrusive links.
const NIL: u32 = u32::MAX;

/// Intrusive run-queue links, stored struct-of-arrays alongside the task
/// table's hot arrays: one `prev`/`next`/`key` slot per task, indexed by
/// `TaskId`. A task sits on at most one run queue at a time (its core's),
/// so a single set of links serves every per-core queue.
///
/// `key` snapshots the vruntime the task was enqueued with; the queue is
/// ordered by `(key, TaskId)`. The snapshot is deliberately separate from
/// `TaskTable::vruntime` so the invariant checker can still catch the two
/// drifting apart.
#[derive(Debug, Default)]
pub struct RqLinks {
    prev: Vec<u32>,
    next: Vec<u32>,
    key: Vec<u64>,
    on: Vec<bool>,
}

impl RqLinks {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one link slot (called as tasks spawn, keeping the arrays in
    /// lockstep with the task table).
    pub fn push_slot(&mut self) {
        self.prev.push(NIL);
        self.next.push(NIL);
        self.key.push(0);
        self.on.push(false);
    }

    fn ensure(&mut self, id: usize) {
        while self.prev.len() <= id {
            self.push_slot();
        }
    }
}

/// Run queue holding *runnable, not currently running* tasks ordered by
/// `(vruntime, TaskId)`. The currently running task is tracked separately by
/// the core, as in Linux.
///
/// Linux uses a red-black tree; per-core queues here hold a handful of
/// entries (threads-per-core, not threads-per-machine), so the backing
/// store is an intrusive doubly-linked list threaded through the shared
/// [`RqLinks`] arrays, with the leftmost (minimum) task cached in `head`
/// and the right edge in `tail`. Enqueue walks from the tail — desched and
/// yield re-queues land at or near the right edge — and remove/requeue/pop
/// are O(1) pointer splices: no tuple shifting, no per-enqueue memmove,
/// and no node allocations ever.
#[derive(Debug)]
pub struct RunQueue {
    /// Leftmost (minimum `(key, task)`) queued task, `NIL` when empty.
    head: u32,
    /// Rightmost (maximum `(key, task)`) queued task, `NIL` when empty.
    tail: u32,
    len: u32,
    /// Monotonic floor for vruntime normalization across queues.
    min_vruntime: u64,
}

impl Default for RunQueue {
    fn default() -> Self {
        RunQueue {
            head: NIL,
            tail: NIL,
            len: 0,
            min_vruntime: 0,
        }
    }
}

impl RunQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued (runnable, not running) tasks.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a task keyed by its vruntime.
    pub fn enqueue(&mut self, links: &mut RqLinks, vruntime: u64, task: TaskId) {
        links.ensure(task.0);
        debug_assert!(!links.on[task.0], "task {task} double-enqueued");
        links.key[task.0] = vruntime;
        links.on[task.0] = true;
        let t = task.0 as u32;
        // Scan from the right edge for the last entry ordered <= the new
        // key; the new task is spliced in after it.
        let mut after = self.tail;
        while after != NIL {
            let a = after as usize;
            if (links.key[a], a) < (vruntime, task.0) {
                break;
            }
            after = links.prev[a];
        }
        if after == NIL {
            // New leftmost.
            links.prev[task.0] = NIL;
            links.next[task.0] = self.head;
            if self.head == NIL {
                self.tail = t;
            } else {
                links.prev[self.head as usize] = t;
            }
            self.head = t;
        } else {
            let a = after as usize;
            let next = links.next[a];
            links.prev[task.0] = after;
            links.next[task.0] = next;
            links.next[a] = t;
            if next == NIL {
                self.tail = t;
            } else {
                links.prev[next as usize] = t;
            }
        }
        self.len += 1;
    }

    /// Unlinks `task`, which the caller has verified is queued here.
    fn unlink(&mut self, links: &mut RqLinks, task: usize) {
        let prev = links.prev[task];
        let next = links.next[task];
        if prev == NIL {
            self.head = next;
        } else {
            links.next[prev as usize] = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            links.prev[next as usize] = prev;
        }
        links.prev[task] = NIL;
        links.next[task] = NIL;
        links.on[task] = false;
        self.len -= 1;
    }

    /// Removes a specific task (its stored key must match).
    pub fn dequeue(&mut self, links: &mut RqLinks, vruntime: u64, task: TaskId) -> bool {
        if task.0 >= links.on.len() || !links.on[task.0] || links.key[task.0] != vruntime {
            return false;
        }
        self.unlink(links, task.0);
        true
    }

    /// Pops the leftmost (minimum-vruntime) task.
    pub fn pop_min(&mut self, links: &mut RqLinks) -> Option<(u64, TaskId)> {
        if self.head == NIL {
            return None;
        }
        let h = self.head as usize;
        let key = links.key[h];
        self.unlink(links, h);
        Some((key, TaskId(h)))
    }

    /// Parks `task` at the right edge with `key` and pops the leftmost
    /// task, in one splice: `enqueue` then `pop_min` without the tail walk
    /// or a second unlink. The queue must be non-empty, `task` not queued,
    /// and `(key, task)` ordered after every queued entry, as
    /// `sched_yield` parks a yielder; the length is unchanged.
    #[inline]
    pub fn rotate(&mut self, links: &mut RqLinks, key: u64, task: TaskId) -> (u64, TaskId) {
        links.ensure(task.0);
        let (h, tail, t) = (self.head as usize, self.tail, task.0 as u32);
        debug_assert!(self.head != NIL, "rotating an empty queue");
        debug_assert!(!links.on[task.0], "task {task} double-enqueued");
        debug_assert!(
            (links.key[tail as usize], tail as usize) < (key, task.0),
            "rotated task must order after every queued entry"
        );
        let popped = (links.key[h], TaskId(h));
        // Link the new tail (after the head itself in a one-entry queue).
        links.key[task.0] = key;
        links.on[task.0] = true;
        links.prev[task.0] = tail;
        links.next[task.0] = NIL;
        links.next[tail as usize] = t;
        self.tail = t;
        // Unlink the head; the new tail guarantees it has a successor.
        let next = links.next[h];
        self.head = next;
        links.prev[next as usize] = NIL;
        links.prev[h] = NIL;
        links.next[h] = NIL;
        links.on[h] = false;
        popped
    }

    /// Peeks at the leftmost task without removing it.
    pub fn peek_min(&self, links: &RqLinks) -> Option<(u64, TaskId)> {
        if self.head == NIL {
            return None;
        }
        let h = self.head as usize;
        Some((links.key[h], TaskId(h)))
    }

    /// Largest vruntime present (used by `sched_yield`, which parks the
    /// yielder at the right edge of the tree).
    pub fn max_vruntime(&self, links: &RqLinks) -> Option<u64> {
        if self.tail == NIL {
            return None;
        }
        Some(links.key[self.tail as usize])
    }

    /// Queue-wide minimum vruntime floor. Monotonically non-decreasing.
    pub fn min_vruntime(&self) -> u64 {
        self.min_vruntime
    }

    /// Raises the floor to `v` if larger (called as the leftmost task
    /// advances).
    pub fn advance_min_vruntime(&mut self, v: u64) {
        if v > self.min_vruntime {
            self.min_vruntime = v;
        }
    }

    /// Iterates over queued tasks in vruntime order.
    pub fn iter<'a>(&self, links: &'a RqLinks) -> impl Iterator<Item = TaskId> + 'a {
        self.entries(links).map(|(_, t)| t)
    }

    /// Iterates over queued `(vruntime, task)` keys in ascending order
    /// (the queue's pop order). Used by the invariant checker to walk the
    /// queue against a fresh scan of the task table.
    pub fn entries<'a>(&self, links: &'a RqLinks) -> Entries<'a> {
        Entries {
            links,
            cur: self.head,
        }
    }

    /// True iff the given task is queued with the given key.
    pub fn contains(&self, links: &RqLinks, vruntime: u64, task: TaskId) -> bool {
        task.0 < links.on.len() && links.on[task.0] && links.key[task.0] == vruntime
    }

    /// Allocation-free structural check, in the spirit of
    /// `EventQueue::validate`: walks the list once verifying the link
    /// symmetry, strict `(key, task)` ordering, the cached `head`/`tail`
    /// edges, membership flags, and the length counter. Returns the first
    /// violation found.
    pub fn validate(&self, links: &RqLinks) -> Result<(), &'static str> {
        if self.head == NIL || self.tail == NIL || self.len == 0 {
            if self.head != NIL || self.tail != NIL || self.len != 0 {
                return Err("empty-queue markers disagree (head/tail/len)");
            }
            return Ok(());
        }
        if links.prev[self.head as usize] != NIL {
            return Err("head has a predecessor");
        }
        if links.next[self.tail as usize] != NIL {
            return Err("tail has a successor");
        }
        let mut seen: u32 = 0;
        let mut cur = self.head;
        let mut last_key: Option<(u64, usize)> = None;
        while cur != NIL {
            let c = cur as usize;
            if c >= links.on.len() {
                return Err("link index out of range");
            }
            if !links.on[c] {
                return Err("linked task not marked on-queue");
            }
            seen += 1;
            if seen > self.len {
                return Err("list longer than len (cycle?)");
            }
            if let Some(prev_key) = last_key {
                if prev_key >= (links.key[c], c) {
                    return Err("entries out of (vruntime, task) order");
                }
                if links.prev[c] == NIL || links.prev[c] as usize != prev_key.1 {
                    return Err("prev link does not mirror next link");
                }
            }
            last_key = Some((links.key[c], c));
            if links.next[c] == NIL && cur != self.tail {
                return Err("list ends before cached tail");
            }
            cur = links.next[c];
        }
        if seen != self.len {
            return Err("len disagrees with list walk");
        }
        Ok(())
    }
}

/// Ascending `(vruntime, task)` iterator over one queue's intrusive list.
pub struct Entries<'a> {
    links: &'a RqLinks,
    cur: u32,
}

impl Iterator for Entries<'_> {
    type Item = (u64, TaskId);

    fn next(&mut self) -> Option<(u64, TaskId)> {
        if self.cur == NIL {
            return None;
        }
        let c = self.cur as usize;
        self.cur = self.links.next[c];
        Some((self.links.key[c], TaskId(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_vruntime_order() {
        let mut links = RqLinks::new();
        let mut q = RunQueue::new();
        q.enqueue(&mut links, 30, TaskId(3));
        q.enqueue(&mut links, 10, TaskId(1));
        q.enqueue(&mut links, 20, TaskId(2));
        assert_eq!(q.pop_min(&mut links), Some((10, TaskId(1))));
        assert_eq!(q.pop_min(&mut links), Some((20, TaskId(2))));
        assert_eq!(q.pop_min(&mut links), Some((30, TaskId(3))));
        assert_eq!(q.pop_min(&mut links), None);
    }

    #[test]
    fn ties_broken_by_task_id() {
        let mut links = RqLinks::new();
        let mut q = RunQueue::new();
        q.enqueue(&mut links, 5, TaskId(9));
        q.enqueue(&mut links, 5, TaskId(2));
        assert_eq!(q.pop_min(&mut links), Some((5, TaskId(2))));
        assert_eq!(q.pop_min(&mut links), Some((5, TaskId(9))));
    }

    #[test]
    fn dequeue_specific() {
        let mut links = RqLinks::new();
        let mut q = RunQueue::new();
        q.enqueue(&mut links, 1, TaskId(1));
        q.enqueue(&mut links, 2, TaskId(2));
        assert!(q.dequeue(&mut links, 2, TaskId(2)));
        assert!(!q.dequeue(&mut links, 2, TaskId(2)));
        assert!(
            !q.dequeue(&mut links, 7, TaskId(1)),
            "wrong key must not remove"
        );
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn min_vruntime_is_monotonic() {
        let mut q = RunQueue::new();
        q.advance_min_vruntime(10);
        q.advance_min_vruntime(5);
        assert_eq!(q.min_vruntime(), 10);
        q.advance_min_vruntime(12);
        assert_eq!(q.min_vruntime(), 12);
    }

    #[test]
    fn max_vruntime_tracks_right_edge() {
        let mut links = RqLinks::new();
        let mut q = RunQueue::new();
        assert_eq!(q.max_vruntime(&links), None);
        q.enqueue(&mut links, 10, TaskId(1));
        q.enqueue(&mut links, 40, TaskId(2));
        assert_eq!(q.max_vruntime(&links), Some(40));
    }

    #[test]
    fn iter_in_order() {
        let mut links = RqLinks::new();
        let mut q = RunQueue::new();
        q.enqueue(&mut links, 3, TaskId(3));
        q.enqueue(&mut links, 1, TaskId(1));
        let order: Vec<TaskId> = q.iter(&links).collect();
        assert_eq!(order, vec![TaskId(1), TaskId(3)]);
    }

    #[test]
    fn contains_requires_exact_key() {
        let mut links = RqLinks::new();
        let mut q = RunQueue::new();
        q.enqueue(&mut links, 7, TaskId(4));
        assert!(q.contains(&links, 7, TaskId(4)));
        assert!(!q.contains(&links, 8, TaskId(4)));
        assert!(!q.contains(&links, 7, TaskId(5)));
    }

    #[test]
    fn rotate_parks_at_the_tail_and_pops_the_head() {
        let mut links = RqLinks::new();
        let mut q = RunQueue::new();
        // A one-entry queue swaps its only entry for the parked task.
        q.enqueue(&mut links, 5, TaskId(1));
        assert_eq!(q.rotate(&mut links, 6, TaskId(0)), (5, TaskId(1)));
        assert_eq!(q.iter(&links).collect::<Vec<_>>(), vec![TaskId(0)]);
        assert_eq!(q.validate(&links), Ok(()));
        assert!(!q.contains(&links, 5, TaskId(1)));
        // A longer queue keeps its middle and gains a new tail.
        q.enqueue(&mut links, 3, TaskId(2));
        q.enqueue(&mut links, 6, TaskId(3));
        assert_eq!(q.rotate(&mut links, 7, TaskId(1)), (3, TaskId(2)));
        let order: Vec<TaskId> = q.iter(&links).collect();
        assert_eq!(order, vec![TaskId(0), TaskId(3), TaskId(1)]);
        assert_eq!(q.max_vruntime(&links), Some(7));
        assert_eq!(q.len(), 3);
        assert_eq!(q.validate(&links), Ok(()));
    }

    #[test]
    fn validate_accepts_live_queue_and_catches_bad_len() {
        let mut links = RqLinks::new();
        let mut q = RunQueue::new();
        assert_eq!(q.validate(&links), Ok(()));
        q.enqueue(&mut links, 4, TaskId(0));
        q.enqueue(&mut links, 2, TaskId(1));
        q.enqueue(&mut links, 9, TaskId(2));
        assert_eq!(q.validate(&links), Ok(()));
        q.len += 1;
        assert!(q.validate(&links).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// One step of an arbitrary interleaving driven against both the
    /// intrusive list and a `BTreeSet` reference model.
    #[derive(Debug, Clone)]
    enum Op {
        /// Enqueue task `id` at `vruntime` (skipped if already queued).
        Enqueue { id: usize, vruntime: u64 },
        /// Dequeue the queued task at index `pick % len`.
        Dequeue { pick: usize },
        /// Pop the minimum, then advance the floor to its vruntime — the
        /// `account_and_settle` pattern.
        PopMinAndAdvance,
        /// Re-queue the minimum at the right edge (`max_vruntime + 1`), as
        /// `sched_yield` parks the yielder.
        Yield,
        /// The yield handoff: the running task (the head the last pop or
        /// handoff took) parks at `max_vruntime + 1` and the head pops to
        /// run in its place, in one `rotate`.
        Handoff,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..24, 0u64..10_000).prop_map(|(id, vruntime)| Op::Enqueue { id, vruntime }),
            (0usize..1_000_000).prop_map(|pick| Op::Dequeue { pick }),
            Just(Op::PopMinAndAdvance),
            Just(Op::Yield),
            Just(Op::Handoff),
        ]
    }

    proptest! {
        /// The intrusive-list queue behaves exactly like an ordered-set
        /// model, passes its structural `validate`, and the `min_vruntime`
        /// floor never decreases, under arbitrary
        /// enqueue/dequeue/pop/yield/handoff interleavings.
        #[test]
        fn matches_btree_model_and_floor_is_monotone(
            ops in proptest::collection::vec(op_strategy(), 1..400)
        ) {
            let mut links = RqLinks::new();
            let mut q = RunQueue::new();
            let mut model: BTreeSet<(u64, TaskId)> = BTreeSet::new();
            let mut last_floor = q.min_vruntime();
            // The task the last pop or handoff put on the CPU: off the
            // queue, so never enqueued until it is replaced.
            let mut running: Option<TaskId> = None;
            for op in ops {
                match op {
                    Op::Enqueue { id, vruntime } => {
                        let t = TaskId(id);
                        if running != Some(t) && !model.iter().any(|(_, m)| *m == t) {
                            q.enqueue(&mut links, vruntime, t);
                            model.insert((vruntime, t));
                        }
                    }
                    Op::Dequeue { pick } => {
                        if !model.is_empty() {
                            let key = *model.iter().nth(pick % model.len()).unwrap();
                            prop_assert!(q.dequeue(&mut links, key.0, key.1));
                            model.remove(&key);
                            prop_assert!(!q.contains(&links, key.0, key.1));
                        }
                    }
                    Op::PopMinAndAdvance => {
                        let expect = model.iter().next().copied();
                        if let Some(key) = expect {
                            model.remove(&key);
                        }
                        let got = q.pop_min(&mut links);
                        prop_assert_eq!(got, expect);
                        if let Some((v, t)) = got {
                            q.advance_min_vruntime(v);
                            running = Some(t);
                        }
                    }
                    Op::Yield => {
                        if let Some((v, t)) = q.peek_min(&links) {
                            let edge = q.max_vruntime(&links).unwrap().saturating_add(1);
                            prop_assert!(q.dequeue(&mut links, v, t));
                            model.remove(&(v, t));
                            q.enqueue(&mut links, edge, t);
                            model.insert((edge, t));
                            // The yielder really parks at the right edge:
                            // nothing is ordered after it.
                            prop_assert_eq!(q.iter(&links).last(), Some(t));
                            prop_assert_eq!(q.max_vruntime(&links), Some(edge));
                        }
                    }
                    Op::Handoff => {
                        if let (Some(r), Some(edge)) = (running, q.max_vruntime(&links)) {
                            let edge = edge + 1;
                            let head = *model.iter().next().unwrap();
                            let len = q.len();
                            prop_assert_eq!(q.rotate(&mut links, edge, r), head);
                            model.remove(&head);
                            model.insert((edge, r));
                            running = Some(head.1);
                            prop_assert!(!q.contains(&links, head.0, head.1));
                            prop_assert_eq!(q.iter(&links).last(), Some(r));
                            prop_assert_eq!(q.len(), len);
                        }
                    }
                }
                // Full-queue equivalence with the ordered-set model.
                let ours: Vec<TaskId> = q.iter(&links).collect();
                let theirs: Vec<TaskId> = model.iter().map(|(_, t)| *t).collect();
                prop_assert_eq!(ours, theirs);
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.peek_min(&links), model.iter().next().copied());
                prop_assert_eq!(
                    q.max_vruntime(&links),
                    model.iter().next_back().map(|(v, _)| *v)
                );
                // Structural soundness of the intrusive links.
                prop_assert_eq!(q.validate(&links), Ok(()));
                // Monotone floor.
                prop_assert!(q.min_vruntime() >= last_floor, "floor regressed");
                last_floor = q.min_vruntime();
            }
        }
    }
}
