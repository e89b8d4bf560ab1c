//! Deterministic pending-event set: a binary heap beside a tournament tree.
//!
//! The queue orders events by `(time, sequence)`. The sequence number is
//! assigned at insertion, so two events scheduled for the same instant pop
//! in insertion order — the property that makes whole-system replays
//! bit-identical.
//!
//! # Structure
//!
//! Every pending event has a `(time << 64) | seq` key, so one `u128`
//! compare orders two events by `(time, seq)`. Keys are unique: each
//! insertion draws a fresh sequence number. Events live in two
//! containers:
//!
//! * **The heap**: a binary min-heap of plain events, those scheduled
//!   without a slot (timers, wake-ups, samples). Its capacity ratchets to
//!   the peak number of pending plain events, so steady state never
//!   touches the allocator (proved by `crates/sched/tests/alloc_free.rs`).
//! * **The slot lane** (below).
//!
//! A pop serves whichever of the heap top and the lane minimum has the
//! lesser key, so every event pops in exact `(time, seq)` order whichever
//! container held it — see `DESIGN.md` for the argument.
//!
//! # Slots and the armed-entry fast lane
//!
//! A recurring discrete-event pattern is "at most one pending event per
//! entity" (e.g. one armed boundary event per simulated core).
//! [`EventQueue::alloc_slot`] gives an entity a *slot*:
//! [`EventQueue::schedule_in_slot`] replaces the slot's previously armed
//! entry; [`EventQueue::cancel_slot`] disarms without a replacement.
//!
//! Because slot-armed events dominate a scheduler's event traffic (one
//! boundary event per core, re-armed on nearly every dispatch), each
//! slot's entry bypasses the heap: it is a leaf of the **fast lane**, a
//! tournament tree whose leaves hold the entries' keys (`u128::MAX` when
//! disarmed) and whose inner nodes hold the lesser child's key and slot,
//! so node 1 is the exact lane minimum. Arming and cancelling replay one
//! leaf-to-root path; a serve leaves its path to the next tree operation,
//! so at most one path is stale, and only until then.
//!
//! Sequence numbers are consumed by every insertion, slot-armed or not, so
//! a slot-armed schedule produces the exact pop order of the equivalent
//! post-and-invalidate schedule: replays stay bit-identical across the two
//! idioms (proved continuously by the differential fuzz in
//! `speedbal-check`).

use crate::ordering::OrderingPolicy;
use crate::rng::SimRng;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt::Debug;

/// An event plus its scheduled time, as returned by [`EventQueue::pop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant the event was scheduled for; the clock reads it once
    /// the event pops.
    pub time: SimTime,
    /// The payload handed to [`EventQueue::schedule`] or
    /// [`EventQueue::schedule_in_slot`].
    pub event: E,
}

/// Handle to an at-most-one-pending-event slot (see [`EventQueue::alloc_slot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId(u32);

/// Marker for events not owned by any slot.
const NO_SLOT: u32 = u32::MAX;

/// The `(time << 64) | seq` key of an event.
#[inline]
fn key(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

/// The time half of a key.
#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// A pending plain event. Ordered by key, reversed, so the standard
/// max-heap serves the least key first.
#[derive(Debug)]
struct Plain<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for Plain<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Plain<E> {}

impl<E> PartialOrd for Plain<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Plain<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A lane-tree node. A leaf holds its slot's armed key or [`VACANT`]; an
/// inner node holds the lesser of its two children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entrant {
    key: u128,
    slot: u32,
}

/// The key of a disarmed leaf, and of an empty heap; it sorts after every
/// pending key.
const VACANT: u128 = u128::MAX;
const VACANT_LEAF: Entrant = Entrant {
    key: VACANT,
    slot: 0,
};

/// The lesser of node `i`'s two children, picked by index arithmetic, not
/// a branch; a tie, which only vacant leaves can make, goes left.
#[inline]
fn winner(tree: &[Entrant], i: usize) -> Entrant {
    let pair = &tree[2 * i..2 * i + 2];
    pair[usize::from(pair[1].key < pair[0].key)]
}

/// Engine state for a non-FIFO [`OrderingPolicy`]. `None` on the queue
/// means FIFO: the entire reordering machinery stays off the hot path.
#[derive(Debug)]
enum ReorderState {
    Lifo,
    Shuffle(SimRng),
    Exhaustive {
        /// Batches wider than `k` are served FIFO (arity 1), keeping
        /// the choice tree finite.
        k: u32,
        /// Branch choices to replay, consumed left to right; running
        /// off the end falls back to choice 0 (FIFO-first descent).
        prefix: Vec<u32>,
        /// Next prefix position to consume.
        cursor: usize,
        /// `(choice, arity)` actually taken at each branch point.
        log: Vec<(u32, u32)>,
    },
}

/// One same-instant event pulled out of the queue for reordered
/// service. `slot` is the owning slot (or [`NO_SLOT`]); `event` is
/// `None` once the entry is served — or killed by a same-instant
/// cancel/re-arm of its slot, exactly as clearing its lane cell would
/// have killed it under FIFO had the cancel popped first.
#[derive(Debug)]
struct StashEntry<E> {
    slot: u32,
    event: Option<E>,
}

/// A min-queue of future events ordered by time, FIFO within a single
/// instant.
///
/// The queue enforces monotonicity: popping advances an internal clock and
/// scheduling an event before that clock is a logic error that panics in all
/// builds (a simulator that time-travels produces silently wrong results,
/// which is far worse than a crash).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending plain events, least key on top.
    heap: BinaryHeap<Plain<E>>,
    /// Armed lane entries (stashed entries excluded).
    armed: usize,
    /// Fast lane: a tournament tree over the slots. Node 1 is the root,
    /// slot `s`'s leaf is node `tree.len() / 2 + s`, and node 0 is unused.
    /// The leaf row is a power of two wide, padded with vacant leaves.
    tree: Vec<Entrant>,
    /// The slot whose leaf a serve vacated without replaying its path
    /// ([`NO_SLOT`] when none). That path still holds the served key,
    /// which was the lane minimum; the next tree operation replays it.
    stale: u32,
    /// Fast lane: payload of each slot's armed entry.
    lane_event: Vec<Option<E>>,
    /// Same-instant ordering engine; `None` = the FIFO default.
    reorder: Option<ReorderState>,
    /// The instant currently being served out of order: every pending
    /// event at `stash_time`, pulled via the FIFO path (so pull order
    /// is seq order). Only ever non-empty under a non-FIFO policy.
    stash: Vec<StashEntry<E>>,
    /// Live (not yet served or killed) stash entries.
    stash_live: usize,
    /// The instant the stash holds.
    stash_time: SimTime,
    /// Slot of the most recently FIFO-popped event ([`NO_SLOT`] for
    /// plain events): how the reordered pull remembers which slot each
    /// stashed entry belongs to.
    served_slot: u32,
    next_seq: u64,
    now: SimTime,
    cancellations: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            armed: 0,
            tree: vec![VACANT_LEAF; 2],
            stale: NO_SLOT,
            lane_event: Vec::new(),
            reorder: None,
            stash: Vec::new(),
            stash_live: 0,
            stash_time: SimTime::ZERO,
            served_slot: NO_SLOT,
            next_seq: 0,
            now: SimTime::ZERO,
            cancellations: 0,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events (a stashed same-instant event awaiting
    /// reordered service is still pending).
    pub fn len(&self) -> usize {
        self.heap.len() + self.armed + self.stash_live
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot entries cancelled (superseded or disarmed) so far.
    pub fn cancellations(&self) -> u64 {
        self.cancellations
    }

    /// Allocates a slot: a handle under which at most one event is pending
    /// at a time.
    pub fn alloc_slot(&mut self) -> SlotId {
        let id = self.lane_event.len();
        assert!(id < NO_SLOT as usize, "slot namespace exhausted");
        self.lane_event.push(None);
        if id == self.tree.len() / 2 {
            // Doubling the leaf row keeps set-up O(slots) in total.
            self.rebuild_tree(2 * id);
        }
        SlotId(id as u32)
    }

    /// True iff the slot currently has a pending event.
    pub fn slot_armed(&self, slot: SlotId) -> bool {
        self.tree[self.leaf(slot.0 as usize)].key != VACANT
    }

    /// Slot `s`'s leaf in the lane tree.
    #[inline]
    fn leaf(&self, s: usize) -> usize {
        self.tree.len() / 2 + s
    }

    /// Rebuilds the lane tree over `leaves` leaves (a power of two, at least
    /// the slot count), keeping every leaf's key; no path is left stale.
    fn rebuild_tree(&mut self, leaves: usize) {
        let mut tree = vec![VACANT_LEAF; 2 * leaves];
        for (s, leaf) in tree[leaves..].iter_mut().enumerate() {
            leaf.slot = s as u32;
            leaf.key = self.tree.get(self.leaf(s)).map_or(VACANT, |old| old.key);
        }
        for i in (1..leaves).rev() {
            tree[i] = winner(&tree, i);
        }
        self.tree = tree;
        self.stale = NO_SLOT;
    }

    /// Replays slot `s`'s leaf-to-root path, first the stale path if it
    /// is another slot's. Every level is replayed: an early exit costs a
    /// branch per level, which lost to a lane scan at 16 slots or fewer.
    #[inline]
    fn replay(&mut self, s: usize) {
        let stale = std::mem::replace(&mut self.stale, NO_SLOT);
        if stale != NO_SLOT && stale as usize != s {
            self.replay_path(stale as usize);
        }
        self.replay_path(s);
    }

    /// Carries the path's winner up in registers: per level it loads only
    /// the sibling and stores the parent, so no level waits on the store
    /// below it. The select must stay `select_unpredictable` on a condition
    /// built with `|` and `&`: written with `if` or `||` it compiles to a
    /// branch on the keys, which mispredicts on lockstep lanes (×1.20 on a
    /// 128-lane lockstep run). Ties go left, as in [`winner`].
    #[inline]
    fn replay_path(&mut self, s: usize) {
        let mut i = self.leaf(s);
        let mut best = self.tree[i];
        while i > 1 {
            let sibling = self.tree[i ^ 1];
            let is_right = i & 1 == 1;
            let sibling_wins = (sibling.key < best.key) | (is_right & (sibling.key == best.key));
            best = std::hint::select_unpredictable(sibling_wins, sibling, best);
            i /= 2;
            self.tree[i] = best;
        }
    }

    /// Selects the same-instant [`OrderingPolicy`]. Must be called while
    /// no instant is mid-service (in practice: before the run starts).
    /// [`OrderingPolicy::Fifo`] disengages the reordering machinery
    /// entirely — the queue is bit-identical to one that never had a
    /// policy set.
    pub fn set_ordering(&mut self, policy: OrderingPolicy) {
        assert!(
            self.stash_live == 0,
            "ordering policy changed while an instant is mid-service"
        );
        self.stash.clear();
        self.reorder = match policy {
            OrderingPolicy::Fifo => None,
            OrderingPolicy::Lifo => Some(ReorderState::Lifo),
            OrderingPolicy::SeededShuffle(seed) => Some(ReorderState::Shuffle(SimRng::new(seed))),
            OrderingPolicy::Exhaustive { k, prefix } => Some(ReorderState::Exhaustive {
                k: k.max(1),
                prefix,
                cursor: 0,
                log: Vec::new(),
            }),
        };
    }

    /// The `(choice, arity)` decision log of an
    /// [`OrderingPolicy::Exhaustive`] run: one entry per same-instant
    /// branch point (batches of one, and batches wider than `k`, are
    /// served FIFO and not logged). Empty under every other policy.
    pub fn ordering_log(&self) -> &[(u32, u32)] {
        match &self.reorder {
            Some(ReorderState::Exhaustive { log, .. }) => log,
            _ => &[],
        }
    }

    /// Panics if `at` is before the clock, then issues the next sequence
    /// number and returns the event's key.
    fn next_key(&mut self, at: SimTime, event: &E) -> u128
    where
        E: Debug,
    {
        assert!(
            at >= self.now,
            "scheduled an event in the past: {at} < now {} (event {event:?})",
            self.now,
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        key(at, seq)
    }

    /// Schedules `event` at absolute time `at`. Panics if `at` is in the
    /// past.
    pub fn schedule(&mut self, at: SimTime, event: E)
    where
        E: Debug,
    {
        let key = self.next_key(at, &event);
        self.heap.push(Plain { key, event });
    }

    /// Schedules `event` at `at` under `slot`, cancelling the slot's
    /// previously armed event (if any). Panics if `at` is in the past.
    pub fn schedule_in_slot(&mut self, slot: SlotId, at: SimTime, event: E)
    where
        E: Debug,
    {
        let key = self.next_key(at, &event);
        let s = slot.0 as usize;
        self.stash_kill(s);
        if !self.disarm(s) {
            self.armed += 1;
        }
        let leaf = self.leaf(s);
        self.tree[leaf].key = key;
        self.lane_event[s] = Some(event);
        self.replay(s);
    }

    /// Cancels the slot's armed event, if any.
    pub fn cancel_slot(&mut self, slot: SlotId) {
        let s = slot.0 as usize;
        self.stash_kill(s);
        if self.disarm(s) {
            self.armed -= 1;
            self.replay(s);
        }
    }

    /// Vacates slot `s`'s leaf, returning whether it was armed (a
    /// cancellation). The caller replays the leaf's path.
    fn disarm(&mut self, s: usize) -> bool {
        let leaf = self.leaf(s);
        if self.tree[leaf].key == VACANT {
            return false;
        }
        self.tree[leaf].key = VACANT;
        self.lane_event[s] = None;
        self.cancellations += 1;
        true
    }

    /// Kills the stash's live entry for slot `s`, if any. A handler that
    /// cancels or re-arms a slot mid-instant must prevent the slot's
    /// not-yet-served same-instant event from firing — under FIFO
    /// clearing the lane cell does this; under reordering the entry has
    /// already been pulled into the stash, so it is killed in place. This
    /// matches the legal serialization in which the cancelling handler
    /// runs before the cancelled event. No-op (one load and branch) under
    /// FIFO, where the stash is always empty.
    #[inline]
    fn stash_kill(&mut self, s: usize) {
        if self.stash_live == 0 {
            return;
        }
        // A slot has at most one pending event, so at most one live
        // stash entry can belong to it.
        for entry in &mut self.stash {
            if entry.slot == s as u32 && entry.event.is_some() {
                entry.event = None;
                self.stash_live -= 1;
                self.cancellations += 1;
                return;
            }
        }
    }

    /// The lane minimum: node 1 of the lane tree, once the path a serve
    /// left stale is replayed. Its key is [`VACANT`] when no slot is
    /// armed.
    #[inline]
    fn lane_min(&mut self) -> Entrant {
        if self.stale != NO_SLOT {
            self.replay(self.stale as usize);
        }
        self.tree[1]
    }

    /// The least plain event's key, or [`VACANT`] when the heap is empty.
    #[inline]
    fn heap_min(&self) -> u128 {
        self.heap.peek().map_or(VACANT, |p| p.key)
    }

    /// Serves slot `s`'s lane entry, the lane minimum, and advances the
    /// clock. The next tree operation replays the vacated leaf's path; in
    /// the common step that is the same slot's re-arm, one replay for two.
    fn serve_lane(&mut self, s: usize) -> ScheduledEvent<E> {
        debug_assert!(self.stale == NO_SLOT, "served past a stale lane path");
        let leaf = self.leaf(s);
        let time = key_time(self.tree[leaf].key);
        let event = self.lane_event[s]
            .take()
            .expect("armed lane slot without an event");
        self.tree[leaf].key = VACANT;
        self.stale = s as u32;
        self.armed -= 1;
        self.served_slot = s as u32;
        debug_assert!(time >= self.now, "queue order violated");
        self.now = time;
        ScheduledEvent { time, event }
    }

    /// Time of the earliest pending event, if any. An instant
    /// mid-reordered-service reports its own time until its last
    /// stashed event is served.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.stash_live > 0 {
            return Some(self.stash_time);
        }
        self.peek_time_queue()
    }

    /// [`EventQueue::peek_time`] over the queue containers only,
    /// ignoring the reorder stash (whose entries are counterfactually
    /// already popped).
    fn peek_time_queue(&mut self) -> Option<SimTime> {
        let key = self.lane_min().key.min(self.heap_min());
        (key != VACANT).then(|| key_time(key))
    }

    /// Pops the earliest event and advances the clock to its time:
    /// [`EventQueue::pop_until`] with no deadline.
    #[inline]
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_until(SimTime::MAX)
    }

    /// Pops the earliest event if it is due at or before `deadline` and
    /// advances the clock to its time; otherwise returns `None` and
    /// leaves the queue as it was. One pass decides both, so a deadline
    /// loop needs no [`EventQueue::peek_time`] per step. Under a non-FIFO
    /// [`OrderingPolicy`] the event served is the policy's pick among
    /// every event at the earliest instant; the clock still advances
    /// identically (reordering permutes within instants, never across
    /// them).
    #[inline]
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        if self.reorder.is_some() {
            return self.pop_reordered(deadline);
        }
        self.pop_fifo(deadline)
    }

    /// The committed `(time, seq)` FIFO pop: the lesser of the lane
    /// minimum and the heap top, if due by `deadline`. This *is*
    /// [`EventQueue::pop_until`] when no reordering policy is set, and the
    /// pull primitive of [`EventQueue::pop_reordered`] when one is.
    #[inline]
    fn pop_fifo(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        // The greatest key due by `deadline`: the vacant key itself at
        // `SimTime::MAX`, which an empty heap and lane never get past.
        let last = key(deadline, u64::MAX);
        let lane = self.lane_min();
        if lane.key < self.heap_min() {
            return (lane.key <= last).then(|| self.serve_lane(lane.slot as usize));
        }
        let top = self.heap.peek_mut().filter(|top| top.key <= last)?;
        let Plain { key, event } = PeekMut::pop(top);
        let time = key_time(key);
        self.served_slot = NO_SLOT;
        debug_assert!(time >= self.now, "queue order violated");
        self.now = time;
        Some(ScheduledEvent { time, event })
    }

    /// Policy-directed pop: pulls every event of the earliest pending
    /// instant into the stash via the FIFO path (so pull order is seq
    /// order), then serves the policy's pick among the live stash
    /// entries. The merge step re-runs on every pop of the open instant,
    /// so same-instant late-comers scheduled by handlers of
    /// already-served events join the candidate set — a legal pick,
    /// since their causes have fired, exactly as FIFO would serve them
    /// after the events already pending at that instant.
    fn pop_reordered(&mut self, deadline: SimTime) -> Option<ScheduledEvent<E>> {
        if self.stash_live == 0 {
            self.stash.clear();
            self.stash_time = self.peek_time_queue()?;
        }
        if self.stash_time > deadline {
            return None;
        }
        // Nothing pending is earlier than the open instant, so the events
        // due by its time are exactly the ones at it.
        while let Some(e) = self.pop_fifo(self.stash_time) {
            debug_assert_eq!(e.time, self.stash_time);
            self.stash.push(StashEntry {
                slot: self.served_slot,
                event: Some(e.event),
            });
            self.stash_live += 1;
        }
        let n = self.stash_live;
        debug_assert!(n > 0, "stash_live out of sync with the stash");
        let pick = match self
            .reorder
            .as_mut()
            .expect("reordered pop without a policy")
        {
            ReorderState::Lifo => n - 1,
            ReorderState::Shuffle(rng) => {
                // Singleton batches draw nothing: the rng stream
                // advances only at real choice points.
                if n == 1 {
                    0
                } else {
                    rng.next_below(n as u64) as usize
                }
            }
            ReorderState::Exhaustive {
                k,
                prefix,
                cursor,
                log,
            } => {
                // Only real branch points consume the prefix and are
                // logged; singleton batches and batches wider than `k`
                // serve FIFO without growing the tree.
                if n == 1 || n as u32 > *k {
                    0
                } else {
                    let arity = n as u32;
                    let choice = prefix.get(*cursor).copied().unwrap_or(0).min(arity - 1);
                    log.push((choice, arity));
                    *cursor += 1;
                    choice as usize
                }
            }
        };
        // `pick` indexes the still-live stash entries in pull (seq)
        // order.
        let mut live_idx = 0;
        for entry in &mut self.stash {
            if entry.event.is_some() {
                if live_idx == pick {
                    let event = entry.event.take().expect("liveness checked above");
                    self.stash_live -= 1;
                    return Some(ScheduledEvent {
                        time: self.stash_time,
                        event,
                    });
                }
                live_idx += 1;
            }
        }
        unreachable!("stash_live counted more live entries than stored")
    }

    /// Discards every pending event (used when tearing a simulation down
    /// early).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.armed = 0;
        self.tree.fill(VACANT_LEAF);
        self.rebuild_tree(self.tree.len() / 2);
        self.lane_event.iter_mut().for_each(|e| *e = None);
        self.stash.clear();
        self.stash_live = 0;
    }

    /// Exhaustively checks the queue's internal invariants, returning every
    /// violation found (empty = consistent). O(entries + slots); meant for
    /// the invariant-checking harness, not the hot path.
    ///
    /// Checked: every lane leaf names its slot and mirrors its lane cell,
    /// armed (key set, event present) or vacant (neither), never before
    /// the clock; the armed-entry counter matches the armed leaves; every
    /// inner node of the lane tree holds the lesser of its children,
    /// except on the one path a serve left stale; no heap entry lies
    /// before the clock; the reorder stash is consistent with its counter
    /// and the lane.
    pub fn validate(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let mut armed = 0usize;
        // The fast lane: its leaves, padding included.
        let leaves = self.tree.len() / 2;
        for (s, leaf) in self.tree[leaves..].iter().enumerate() {
            if leaf.slot != s as u32 {
                violations.push(format!("leaf of slot {s} names slot {}", leaf.slot));
            }
            let has_event = self.lane_event.get(s).is_some_and(Option::is_some);
            if leaf.key == VACANT {
                if has_event {
                    violations.push(format!("slot {s}'s vacant lane cell holds an event"));
                }
                continue;
            }
            armed += 1;
            let t = key_time(leaf.key);
            if !has_event {
                violations.push(format!("slot {s} armed at {t} but its lane cell is empty"));
            }
            if t < self.now {
                violations.push(format!(
                    "lane entry of slot {s} at {t} is before the clock {}",
                    self.now
                ));
            }
        }
        if armed != self.armed {
            violations.push(format!(
                "armed-entry counter {} != {armed} armed lane leaves",
                self.armed
            ));
        }
        // The lane tree's inner nodes. Those on the stale path still hold
        // the served key, the lane minimum when served: below both
        // children.
        let stale_leaf = (self.stale != NO_SLOT).then(|| self.leaf(self.stale as usize));
        for i in 1..leaves {
            let (node, least) = (self.tree[i], winner(&self.tree, i));
            let on_stale = stale_leaf.is_some_and(|l| l >> (l.ilog2() - i.ilog2()) == i);
            if node != least && !(on_stale && node.slot == self.stale && node.key < least.key) {
                violations.push(format!(
                    "lane tree node {i} holds {node:?}, not the lesser of its children {least:?}"
                ));
            }
        }
        // The heap.
        for p in &self.heap {
            let t = key_time(p.key);
            if t < self.now {
                violations.push(format!(
                    "heap entry (seq {}) at {t} is before the clock {}",
                    p.key as u64, self.now
                ));
            }
        }
        // The reorder stash: the live counter matches, the stash is
        // empty under FIFO, and no armed slot also has a live stashed
        // event (re-arming kills the stashed entry first).
        let stash_live = self.stash.iter().filter(|e| e.event.is_some()).count();
        if stash_live != self.stash_live {
            violations.push(format!(
                "stash-live counter {} != {} live stash entries",
                self.stash_live, stash_live
            ));
        }
        if self.reorder.is_none() && self.stash_live != 0 {
            violations.push("live stash entries under the FIFO policy".into());
        }
        for e in &self.stash {
            if e.event.is_some() && e.slot != NO_SLOT && self.slot_armed(SlotId(e.slot)) {
                violations.push(format!(
                    "slot {} armed while its same-instant event awaits reordered service",
                    e.slot
                ));
            }
        }
        violations
    }

    /// Advances the clock to `t` without processing events. Panics if an
    /// event earlier than `t` is still pending (that event must be
    /// popped first). Used to settle the clock at a run deadline when the
    /// next event lies beyond it.
    pub fn advance_to(&mut self, t: SimTime) {
        if let Some(p) = self.peek_time() {
            assert!(p >= t, "advance_to({t}) would skip a pending event at {p}");
        }
        if t > self.now {
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn lockstep_instant_is_served_in_seq_order_from_the_lane_tree() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(3);
        let slots: Vec<SlotId> = (0..64).map(|_| q.alloc_slot()).collect();
        // Arm in a scrambled slot order; seq order is arming order.
        for i in 0..64usize {
            let s = slots[(i * 37) % 64];
            q.schedule_in_slot(s, t, i);
        }
        // Supersede one mid-instant arm to a later time and cancel
        // another outright: both must vanish from the instant. The
        // slots are the ones arms i=1 and i=2 landed in above.
        q.schedule_in_slot(slots[37], SimTime::from_micros(9), 100);
        q.cancel_slot(slots[(2 * 37) % 64]);
        let mut order = Vec::new();
        while q.peek_time() == Some(t) {
            order.push(q.pop().unwrap().event);
            let violations = q.validate();
            assert!(violations.is_empty(), "invariants violated: {violations:?}");
        }
        let expect: Vec<usize> = (0..64).filter(|&i| i != 1 && i != 2).collect();
        assert_eq!(order, expect);
        assert_eq!(q.pop().unwrap().event, 100);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(1));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        q.schedule(SimTime::from_millis(9), ());
    }

    #[test]
    fn past_panic_names_the_event() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule_in_slot(s, SimTime::from_millis(1), "boundary");
        q.cancel_slot(s);
        q.schedule(SimTime::from_millis(10), "later");
        q.pop(); // clock at 10 ms
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.schedule(SimTime::from_millis(9), "timewarp");
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("\"timewarp\""), "event repr in panic: {msg}");
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.pop();
        q.schedule(q.now(), 2); // immediate follow-up event
        assert_eq!(q.pop().unwrap().event, 2);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn pop_until_serves_only_what_is_due() {
        let mut q = EventQueue::new();
        let slot = q.alloc_slot();
        let ms = SimTime::from_millis;
        q.schedule(ms(10), "heap@10");
        q.schedule_in_slot(slot, ms(20), "lane@20");
        q.schedule(ms(30), "heap@30");
        assert_eq!(q.pop_until(ms(9)), None);
        assert_eq!(
            (q.now(), q.len()),
            (SimTime::ZERO, 3),
            "a refusal changes nothing"
        );
        assert_eq!(q.pop_until(ms(10)).unwrap().event, "heap@10");
        // The lane entry is the earliest; a deadline before it refuses it.
        assert_eq!(q.pop_until(SimTime::from_nanos(19_999_999)), None);
        assert!(q.slot_armed(slot));
        assert_eq!(q.pop_until(ms(25)).unwrap().event, "lane@20");
        assert_eq!(q.pop_until(ms(25)), None);
        assert_eq!(q.now(), ms(20));
        assert!(q.validate().is_empty(), "{:?}", q.validate());
        assert_eq!(q.pop_until(SimTime::MAX).unwrap().event, "heap@30");
        assert_eq!(q.pop_until(SimTime::MAX), None);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        for i in 0..5u32 {
            q.schedule(SimTime::from_nanos(i as u64), i);
        }
        assert_eq!(q.len(), 5);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), "first");
        let e = q.pop().unwrap();
        assert_eq!(e.event, "first");
        q.schedule(e.time + SimDuration::from_millis(1), "second");
        assert_eq!(q.pop().unwrap().event, "second");
    }

    #[test]
    fn slot_rearm_supersedes_previous_event() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule_in_slot(s, SimTime::from_millis(5), "old");
        q.schedule_in_slot(s, SimTime::from_millis(2), "new");
        assert_eq!(q.len(), 1, "superseded entry is gone");
        assert_eq!(q.cancellations(), 1);
        assert_eq!(q.pop().unwrap().event, "new");
        assert_eq!(q.pop(), None, "the superseded entry never fires");
        assert!(!q.slot_armed(s));
    }

    #[test]
    fn cancel_slot_kills_pending_event() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule(SimTime::from_millis(1), "live");
        q.schedule_in_slot(s, SimTime::from_millis(2), "doomed");
        assert!(q.slot_armed(s));
        q.cancel_slot(s);
        assert!(!q.slot_armed(s));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["live"]);
        q.cancel_slot(s); // idempotent
        assert_eq!(q.cancellations(), 1);
    }

    #[test]
    fn slot_disarms_when_its_event_fires() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule_in_slot(s, SimTime::from_millis(1), "bang");
        assert_eq!(q.pop().unwrap().event, "bang");
        assert!(!q.slot_armed(s));
        // Cancelling after the fire is a no-op, not a phantom cancel.
        q.cancel_slot(s);
        assert_eq!(q.cancellations(), 0);
        assert!(q.validate().is_empty(), "{:?}", q.validate());
    }

    #[test]
    fn same_instant_fifo_survives_cancellations() {
        // Schedule interleaved plain events and slot events at one
        // instant, cancel every slot entry, and check the survivors still
        // pop in insertion order.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(3);
        let mut doomed = Vec::new();
        let mut expect = Vec::new();
        for i in 0..96u32 {
            if i % 2 == 0 {
                let s = q.alloc_slot();
                q.schedule_in_slot(s, t, i);
                doomed.push(s);
            } else {
                q.schedule(t, i);
                expect.push(i);
            }
        }
        for s in doomed {
            q.cancel_slot(s);
        }
        assert_eq!(q.cancellations(), 48);
        assert_eq!(q.len(), expect.len());
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(
            order, expect,
            "FIFO within the instant, cancelled entries gone"
        );
    }

    #[test]
    fn validate_accepts_consistent_queue() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule(SimTime::from_millis(1), "plain");
        q.schedule_in_slot(s, SimTime::from_millis(5), "old");
        q.schedule_in_slot(s, SimTime::from_millis(2), "new"); // supersedes "old"
        assert!(q.validate().is_empty(), "{:?}", q.validate());
        q.pop();
        q.pop();
        assert!(q.validate().is_empty(), "{:?}", q.validate());
    }

    #[test]
    fn validate_flags_corrupted_entry_counter_and_phantom_arm() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule_in_slot(s, SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        // Corrupt the armed-entry counter.
        q.armed = 0;
        let v = q.validate();
        assert!(
            v.iter().any(|m| m.contains("armed-entry counter")),
            "armed-entry counter violation not reported: {v:?}"
        );
        q.armed = 1;
        // Arm the lane cell without an event behind it.
        q.lane_event[0] = None;
        let v = q.validate();
        assert!(
            v.iter().any(|m| m.contains("lane cell is empty")),
            "phantom-arm violation not reported: {v:?}"
        );
    }

    #[test]
    fn validate_flags_corrupted_lane_tree_node() {
        let mut q = EventQueue::new();
        let slots: Vec<SlotId> = (0..5).map(|_| q.alloc_slot()).collect();
        for (i, &s) in slots.iter().enumerate() {
            q.schedule_in_slot(s, SimTime::from_micros(10 - i as u64), i);
        }
        // Serve the minimum: its path stays stale, which is legal.
        assert_eq!(q.pop().unwrap().event, 4);
        assert!(q.validate().is_empty(), "{:?}", q.validate());
        // Node 2 holds the least of slots 0..4 (slot 3); make it claim
        // slot 0's later entry.
        let good = q.tree[2];
        q.tree[2] = q.tree[q.leaf(0)];
        let v = q.validate();
        assert!(
            v.iter()
                .any(|m| m.contains("not the lesser of its children")),
            "corrupted inner node not reported: {v:?}"
        );
        q.tree[2] = good;
        // Node 3 lies on the served slot 4's stale path.
        q.tree[3] = q.tree[q.leaf(0)];
        let v = q.validate();
        assert!(
            v.iter().any(|m| m.contains("node 3 holds")),
            "corrupted stale-path node not reported: {v:?}"
        );
    }

    #[test]
    fn validate_flags_heap_entry_before_the_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        assert!(q.validate().is_empty(), "{:?}", q.validate());
        // Slip in an entry behind the clock at 10 ms.
        q.heap.push(Plain {
            key: key(SimTime::from_millis(4), 99),
            event: (),
        });
        let v = q.validate();
        assert!(
            v.iter()
                .any(|m| m.contains("heap entry (seq 99)") && m.contains("before the clock")),
            "heap entry before the clock not reported: {v:?}"
        );
    }

    #[test]
    fn peek_time_skips_cancelled_entries() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule_in_slot(s, SimTime::from_millis(1), "cancelled");
        q.schedule(SimTime::from_millis(4), "live");
        q.cancel_slot(s);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(4)));
        // advance_to must likewise ignore the cancelled entry.
        q.advance_to(SimTime::from_millis(3));
        assert_eq!(q.now(), SimTime::from_millis(3));
    }

    // ------------------------------------------------------------------
    // Pop order where plain and lane entries meet: times spread over many
    // orders of magnitude, far-future events, schedules below a peeked
    // time or after a lane win, and same-instant appends and cancels.

    #[test]
    fn pops_in_order_across_powers_of_64() {
        // Times straddling every power of 64 up to 2^48 ns.
        let mut times = Vec::new();
        for k in 1..=8u32 {
            let edge = 1u64 << (6 * k);
            times.extend_from_slice(&[edge - 1, edge, edge + 1]);
        }
        let mut q = EventQueue::new();
        // Insert in reverse so insertion order gives nothing away.
        for (i, &t) in times.iter().rev().enumerate() {
            q.schedule(SimTime::from_nanos(t), (t, i));
        }
        let mut last = 0u64;
        let mut popped = 0;
        while let Some(e) = q.pop() {
            assert!(e.event.0 >= last, "out of order at {:?}", e.event);
            assert_eq!(e.time.as_nanos(), e.event.0);
            last = e.event.0;
            popped += 1;
        }
        assert_eq!(popped, times.len());
    }

    #[test]
    fn far_future_events_round_trip() {
        // A year-away event pops in order, FIFO at its instant.
        let mut q = EventQueue::new();
        let year = SimTime::from_secs(365 * 24 * 3600);
        q.schedule(year, "far-a");
        q.schedule(SimTime::from_millis(1), "near");
        q.schedule(year, "far-b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().event, "near");
        assert_eq!(q.peek_time(), Some(year));
        assert_eq!(q.pop().unwrap().event, "far-a");
        assert_eq!(q.pop().unwrap().event, "far-b");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_slot_cancellation_never_fires() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        let far = SimTime::from_secs(30 * 24 * 3600);
        q.schedule_in_slot(s, far, "doomed");
        q.schedule(far, "survivor");
        q.cancel_slot(s);
        assert_eq!(q.pop().unwrap().event, "survivor");
        assert_eq!(q.pop(), None);
        assert!(q.validate().is_empty(), "{:?}", q.validate());
    }

    #[test]
    fn schedule_below_a_peeked_time_pops_first() {
        // A peek consumes nothing: events scheduled afterwards between
        // the clock and the peeked time still pop first.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
        q.schedule(SimTime::from_millis(3), "mid");
        q.schedule(SimTime::from_micros(1), "soon");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["soon", "mid", "late"]);
    }

    #[test]
    fn schedules_after_a_lane_win_pop_in_order() {
        // A lane entry beats a pending plain event; plain events and a
        // re-arm then land between the new clock and that event.
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule(SimTime::from_nanos(100), "a");
        q.schedule(SimTime::from_nanos(190), "b");
        assert_eq!(q.pop().unwrap().event, "a");
        q.schedule_in_slot(s, SimTime::from_nanos(150), "lane");
        assert_eq!(q.pop().unwrap().event, "lane");
        assert_eq!(q.now(), SimTime::from_nanos(150));
        // Plain events at two distinct instants before b, one at the
        // clock itself, one at b's instant, and a slot re-arm.
        for (t, e) in [(170, "c"), (160, "d"), (150, "e"), (190, "f"), (160, "g")] {
            q.schedule(SimTime::from_nanos(t), e);
            assert!(q.validate().is_empty(), "{:?}", q.validate());
        }
        q.schedule_in_slot(s, SimTime::from_nanos(165), "rearm");
        assert!(q.validate().is_empty(), "{:?}", q.validate());
        let mut order = Vec::new();
        while let Some(e) = q.pop() {
            order.push((e.time.as_nanos(), e.event));
            assert!(q.validate().is_empty(), "{:?}", q.validate());
        }
        assert_eq!(
            order,
            vec![
                (150, "e"),
                (160, "d"),
                (160, "g"),
                (165, "rearm"),
                (170, "c"),
                (190, "b"),
                (190, "f"),
            ]
        );
    }

    #[test]
    fn same_instant_appends_pop_in_insertion_order() {
        // Pop one event of an instant, then schedule more at that same
        // instant: they follow the rest of the instant in insertion order.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(77);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop().unwrap().event, 0);
        q.schedule(t, 2);
        q.schedule(t, 3);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancellation_inside_a_served_instant_is_skipped() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        let t = SimTime::from_micros(5);
        q.schedule(t, "a");
        q.schedule_in_slot(s, t, "doomed");
        q.schedule(t, "b");
        assert_eq!(q.pop().unwrap().event, "a"); // the instant is being served
        q.cancel_slot(s);
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop(), None);
    }

    // ------------------------------------------------------------------
    // Same-instant ordering policies (see `crate::ordering`).

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(SimTime, E)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.event))
            .collect()
    }

    #[test]
    fn explicit_fifo_policy_is_the_default_behavior() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Fifo);
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn lifo_reverses_each_instant_but_never_crosses_instants() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Lifo);
        let t1 = SimTime::from_millis(1);
        let t2 = SimTime::from_millis(2);
        for i in 0..4 {
            q.schedule(t1, i);
            q.schedule(t2, 10 + i);
        }
        let order = drain(&mut q);
        assert_eq!(
            order,
            vec![
                (t1, 3),
                (t1, 2),
                (t1, 1),
                (t1, 0),
                (t2, 13),
                (t2, 12),
                (t2, 11),
                (t2, 10),
            ]
        );
    }

    #[test]
    fn shuffle_is_a_seeded_per_instant_permutation() {
        let run = |seed: u64| {
            let mut q = EventQueue::new();
            q.set_ordering(OrderingPolicy::SeededShuffle(seed));
            let t = SimTime::from_micros(9);
            for i in 0..32 {
                q.schedule(t, i);
            }
            q.schedule(SimTime::from_micros(10), 99);
            drain(&mut q)
        };
        let a = run(1);
        assert_eq!(a, run(1), "same seed replays bit-identically");
        let mut events: Vec<i32> = a[..32].iter().map(|&(_, e)| e).collect();
        assert_eq!(a[32].1, 99, "later instants never mix in");
        events.sort_unstable();
        assert_eq!(events, (0..32).collect::<Vec<_>>(), "a permutation");
        assert_ne!(a, run(2), "different seeds explore different orders");
    }

    #[test]
    fn reordered_peek_len_and_validate_mid_instant() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Lifo);
        let t = SimTime::from_millis(3);
        for i in 0..3 {
            q.schedule(t, i);
        }
        q.schedule(SimTime::from_millis(7), 9);
        assert_eq!(q.pop().unwrap().event, 2);
        // Two stashed events remain at t; they are still pending.
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(t));
        assert!(q.validate().is_empty(), "{:?}", q.validate());
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.pop().unwrap().event, 9);
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn reordered_pop_until_holds_back_later_instants() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Lifo);
        let (t, later) = (SimTime::from_millis(3), SimTime::from_millis(7));
        for i in 0..3 {
            q.schedule(t, i);
        }
        q.schedule(later, 9);
        assert_eq!(q.pop_until(SimTime::from_millis(2)), None);
        assert_eq!(q.pop_until(t).unwrap().event, 2);
        // The open instant is served to its end; the next one waits.
        assert_eq!(q.pop_until(t).unwrap().event, 1);
        assert_eq!(q.pop_until(t).unwrap().event, 0);
        assert_eq!(q.pop_until(SimTime::from_millis(6)), None);
        assert_eq!(q.len(), 1);
        assert!(q.validate().is_empty(), "{:?}", q.validate());
        assert_eq!(q.pop_until(later).unwrap().event, 9);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_mid_instant_kills_the_stashed_entry() {
        // Under FIFO the cancel would come too late ("doomed" pops
        // before the canceller could run), but under LIFO the cancel
        // handler runs first — the stashed entry must die exactly as a
        // queue-resident one would.
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Lifo);
        let s = q.alloc_slot();
        let t = SimTime::from_micros(5);
        q.schedule_in_slot(s, t, "doomed");
        q.schedule(t, "canceller");
        assert_eq!(q.pop().unwrap().event, "canceller");
        q.cancel_slot(s);
        assert!(!q.slot_armed(s));
        assert_eq!(q.cancellations(), 1);
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert!(q.validate().is_empty(), "{:?}", q.validate());
    }

    #[test]
    fn rearm_mid_instant_supersedes_the_stashed_entry() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Lifo);
        let s = q.alloc_slot();
        let t = SimTime::from_micros(5);
        q.schedule_in_slot(s, t, "old");
        q.schedule(t, "rearmer");
        assert_eq!(q.pop().unwrap().event, "rearmer");
        q.schedule_in_slot(s, SimTime::from_micros(8), "new");
        assert!(q.validate().is_empty(), "{:?}", q.validate());
        let order = drain(&mut q);
        assert_eq!(order, vec![(SimTime::from_micros(8), "new")]);
    }

    #[test]
    fn same_instant_latecomers_join_the_open_instant() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Lifo);
        let t = SimTime::from_micros(77);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop().unwrap().event, 1);
        // A handler of event 1 schedules two more at the same instant:
        // they are candidates of the still-open instant.
        q.schedule(t, 2);
        q.schedule(t, 3);
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn exhaustive_replays_prefixes_and_logs_branch_points() {
        let run = |prefix: Vec<u32>| {
            let mut q = EventQueue::new();
            q.set_ordering(OrderingPolicy::Exhaustive { k: 3, prefix });
            let t = SimTime::from_millis(1);
            for i in 0..3 {
                q.schedule(t, i);
            }
            q.schedule(SimTime::from_millis(2), 9); // singleton: not logged
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
            (order, q.ordering_log().to_vec())
        };
        let (order, log) = run(vec![]);
        assert_eq!(order, vec![0, 1, 2, 9], "empty prefix descends FIFO-first");
        assert_eq!(log, vec![(0, 3), (0, 2)]);
        let (order, log) = run(vec![2, 1]);
        assert_eq!(order, vec![2, 1, 0, 9]);
        assert_eq!(log, vec![(2, 3), (1, 2)]);
        // A prefix choice past the arity clamps instead of panicking.
        let (order, _) = run(vec![9, 9]);
        assert_eq!(order, vec![2, 1, 0, 9]);
    }

    #[test]
    fn exhaustive_enumeration_visits_every_permutation_once() {
        let run = |prefix: Vec<u32>| {
            let mut q = EventQueue::new();
            q.set_ordering(OrderingPolicy::Exhaustive { k: 4, prefix });
            let t = SimTime::from_millis(1);
            for i in 0..3 {
                q.schedule(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
            (order, q.ordering_log().to_vec())
        };
        let mut schedules = Vec::new();
        let mut prefix = Some(Vec::new());
        while let Some(p) = prefix {
            let (order, log) = run(p);
            schedules.push(order);
            prefix = crate::ordering::next_prefix(&log);
        }
        schedules.sort();
        let expect = vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        assert_eq!(schedules, expect, "3! distinct schedules, each once");
    }

    #[test]
    fn exhaustive_batches_wider_than_k_fall_back_to_fifo() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Exhaustive {
            k: 2,
            prefix: vec![],
        });
        let t = SimTime::from_millis(1);
        for i in 0..5 {
            q.schedule(t, i);
        }
        // 5 > k: FIFO until the live batch shrinks to k.
        assert_eq!(q.pop().unwrap().event, 0);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
        assert!(q.ordering_log().is_empty());
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.ordering_log(), &[(0, 2)]);
        assert_eq!(q.pop().unwrap().event, 4);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reordering_respects_advance_to_and_clear() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Lifo);
        let t = SimTime::from_millis(4);
        q.schedule(t, 0);
        q.schedule(t, 1);
        q.advance_to(SimTime::from_millis(2));
        assert_eq!(q.pop().unwrap().event, 1);
        // The open instant still holds a pending event: advancing past
        // it must panic, same as FIFO would.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.advance_to(SimTime::from_millis(9));
        }));
        assert!(err.is_err(), "advance_to skipped a stashed event");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert!(q.validate().is_empty(), "{:?}", q.validate());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever the insertion order, pops come out sorted by time, and
        /// same-time events preserve insertion order (stable).
        #[test]
        fn pops_sorted_and_stable(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), (*t, i));
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some(e) = q.pop() {
                let (t, i) = e.event;
                prop_assert_eq!(SimTime::from_nanos(t), e.time);
                if let Some((lt, li)) = last {
                    prop_assert!(e.time >= lt);
                    if e.time == lt {
                        prop_assert!(i > li, "FIFO within an instant");
                    }
                }
                last = Some((e.time, i));
            }
        }

        /// Explicitly setting the FIFO ordering policy is a bit-exact
        /// no-op: for any same-instant collision pattern the policy'd
        /// queue pops the identical `(time, event)` sequence as an
        /// untouched queue — the pre-ordering-machinery contract.
        #[test]
        fn explicit_fifo_policy_replays_identically(
            times in proptest::collection::vec(0u64..50, 1..150)
        ) {
            let mut plain = EventQueue::new();
            let mut fifo = EventQueue::new();
            fifo.set_ordering(OrderingPolicy::Fifo);
            for (i, t) in times.iter().enumerate() {
                plain.schedule(SimTime::from_nanos(*t), i);
                fifo.schedule(SimTime::from_nanos(*t), i);
            }
            loop {
                let a = plain.pop().map(|e| (e.time, e.event));
                let b = fifo.pop().map(|e| (e.time, e.event));
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// A seeded shuffle never invents, drops, or time-travels an
        /// event: the drain stays sorted by time and every instant's
        /// batch is a permutation of the FIFO batch at that instant.
        #[test]
        fn shuffle_permutes_within_instants_only(
            times in proptest::collection::vec(0u64..40, 1..150),
            seed in 0u64..u64::MAX,
        ) {
            let mut shuf = EventQueue::new();
            shuf.set_ordering(OrderingPolicy::SeededShuffle(seed));
            for (i, t) in times.iter().enumerate() {
                shuf.schedule(SimTime::from_nanos(*t), i);
            }
            // Reference batches straight from the input.
            let mut expected: std::collections::BTreeMap<u64, Vec<usize>> =
                std::collections::BTreeMap::new();
            for (i, t) in times.iter().enumerate() {
                expected.entry(*t).or_default().push(i);
            }
            let mut got: std::collections::BTreeMap<u64, Vec<usize>> =
                std::collections::BTreeMap::new();
            let mut last = SimTime::ZERO;
            while let Some(e) = shuf.pop() {
                prop_assert!(e.time >= last, "shuffle time-travelled");
                last = e.time;
                got.entry(e.time.as_nanos()).or_default().push(e.event);
            }
            for batch in got.values_mut() {
                batch.sort_unstable();
            }
            prop_assert_eq!(got, expected);
        }

        /// The clock equals the time of the last popped event and never
        /// regresses across interleaved schedule/pop sequences.
        #[test]
        fn clock_monotone_under_interleaving(
            ops in proptest::collection::vec((0u64..1000, any::<bool>()), 1..200)
        ) {
            let mut q = EventQueue::new();
            let mut max_seen = SimTime::ZERO;
            for (t, do_pop) in ops {
                let at = q.now() + crate::time::SimDuration::from_nanos(t);
                q.schedule(at, ());
                if do_pop {
                    let e = q.pop().unwrap();
                    prop_assert!(e.time >= max_seen);
                    max_seen = e.time;
                    prop_assert_eq!(q.now(), e.time);
                }
            }
        }

        /// Slot-armed scheduling pops the same live-event sequence as the
        /// post-and-invalidate idiom it replaces: a reference queue posts
        /// every event plainly, remembers each slot's latest sequence
        /// number, and filters stale pops by hand. The optimised queue must
        /// produce exactly the reference's surviving pop order.
        #[test]
        fn slot_arming_matches_heap_posting(
            ops in proptest::collection::vec((0u8..4, 0u8..4, 0u64..50), 1..300)
        ) {
            const N_SLOTS: usize = 4;
            let mut slotted = EventQueue::new();
            let mut posted = EventQueue::new();
            let slots: Vec<SlotId> = (0..N_SLOTS).map(|_| slotted.alloc_slot()).collect();
            // The reference's staleness guard: latest armed seq per slot.
            let mut armed: [Option<u64>; N_SLOTS] = [None; N_SLOTS];
            let mut ref_seq = 0u64;
            // Live events in the reference queue, tracked independently so
            // an all-dead pop is skipped in both queues (popping through a
            // dead tail would advance only the reference's clock).
            let mut ref_live = 0usize;
            let mut fired = Vec::new();
            let mut ref_fired = Vec::new();
            for (op, slot, dt) in ops {
                let at = slotted.now() + crate::time::SimDuration::from_nanos(dt);
                let s = slot as usize;
                match op {
                    0 => {
                        // Plain one-shot event (a wakeup).
                        slotted.schedule(at, (255u8, ref_seq));
                        posted.schedule(at, (255u8, ref_seq));
                        ref_seq += 1;
                        ref_live += 1;
                    }
                    1 => {
                        // (Re-)arm the slot's boundary event.
                        slotted.schedule_in_slot(slots[s], at, (slot, ref_seq));
                        posted.schedule(at, (slot, ref_seq));
                        if armed[s].is_none() {
                            ref_live += 1;
                        }
                        armed[s] = Some(ref_seq);
                        ref_seq += 1;
                    }
                    2 => {
                        // Cancel the slot.
                        slotted.cancel_slot(slots[s]);
                        if armed[s].take().is_some() {
                            ref_live -= 1;
                        }
                    }
                    _ => {
                        if ref_live == 0 {
                            prop_assert!(slotted.pop().is_none());
                            continue;
                        }
                        // Pop one live event from each queue.
                        let e = slotted.pop().unwrap();
                        fired.push((e.time, e.event));
                        loop {
                            let e = posted.pop().unwrap();
                            let (tag, seq) = e.event;
                            let live = tag == 255 || armed[tag as usize] == Some(seq);
                            if live {
                                if tag != 255 {
                                    armed[tag as usize] = None;
                                }
                                ref_live -= 1;
                                ref_fired.push((e.time, e.event));
                                break;
                            }
                        }
                        prop_assert_eq!(&fired, &ref_fired);
                    }
                }
            }
            // Drain both queues completely and compare the tails.
            while let Some(e) = slotted.pop() {
                fired.push((e.time, e.event));
            }
            while let Some(e) = posted.pop() {
                let (tag, seq) = e.event;
                if tag == 255 || armed[tag as usize] == Some(seq) {
                    if tag != 255 {
                        armed[tag as usize] = None;
                    }
                    ref_fired.push((e.time, e.event));
                }
            }
            prop_assert_eq!(fired, ref_fired);
        }

        /// A seeded shuffle serves exactly the same per-instant multiset
        /// of events as FIFO — reordering permutes within instants,
        /// never across them — and the clock stays monotone.
        #[test]
        fn shuffle_preserves_per_instant_multisets(
            times in proptest::collection::vec(0u64..60, 1..150),
            seed in 0u64..u64::MAX
        ) {
            let mut fifo = EventQueue::new();
            let mut shuf = EventQueue::new();
            shuf.set_ordering(OrderingPolicy::SeededShuffle(seed));
            for (i, t) in times.iter().enumerate() {
                fifo.schedule(SimTime::from_nanos(*t), i);
                shuf.schedule(SimTime::from_nanos(*t), i);
            }
            let mut a: Vec<(SimTime, usize)> = Vec::new();
            while let Some(e) = fifo.pop() {
                a.push((e.time, e.event));
            }
            let mut b: Vec<(SimTime, usize)> = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some(e) = shuf.pop() {
                prop_assert!(e.time >= last, "clock regressed");
                last = e.time;
                b.push((e.time, e.event));
            }
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }

        /// Slot arming and cancelling under a shuffle keep the queue's
        /// internal invariants intact and the clock monotone — the
        /// reordered analogue of `slot_arming_matches_heap_posting`.
        #[test]
        fn slot_ops_under_shuffle_stay_consistent(
            ops in proptest::collection::vec((0u8..4, 0u8..4, 0u64..50), 1..250),
            seed in 0u64..u64::MAX
        ) {
            const N_SLOTS: usize = 4;
            let mut q = EventQueue::new();
            q.set_ordering(OrderingPolicy::SeededShuffle(seed));
            let slots: Vec<SlotId> = (0..N_SLOTS).map(|_| q.alloc_slot()).collect();
            let mut max_seen = SimTime::ZERO;
            for (op, slot, dt) in ops {
                let at = q.now() + crate::time::SimDuration::from_nanos(dt);
                match op {
                    0 => q.schedule(at, 0u8),
                    1 => q.schedule_in_slot(slots[slot as usize], at, 1u8),
                    2 => q.cancel_slot(slots[slot as usize]),
                    _ => {
                        if let Some(e) = q.pop() {
                            prop_assert!(e.time >= max_seen, "clock regressed");
                            max_seen = e.time;
                        }
                    }
                }
                let v = q.validate();
                prop_assert!(v.is_empty(), "violations: {:?}", v);
            }
            while let Some(e) = q.pop() {
                prop_assert!(e.time >= max_seen, "clock regressed");
                max_seen = e.time;
            }
            prop_assert!(q.is_empty());
        }
    }
}
