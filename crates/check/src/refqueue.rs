//! A naive reference event queue, plus the differential fuzzer that pits
//! it against the production [`EventQueue`].
//!
//! [`PostedQueue`] re-implements the event queue's observable contract —
//! earliest-first, FIFO within an instant, at-most-one-armed-entry slots —
//! with none of its machinery: no heap, no armed-slot fast lane and its
//! tournament tree. Entries live in a plain `Vec`; `pop` linearly scans
//! for the minimum `(time, seq)` and removes it eagerly. Slow and
//! obviously correct, which is the point: any divergence between the two
//! implementations over the same operation sequence is a bug in the fast
//! one (or, once, in the contract's wording).

use speedbal_sim::{EventQueue, SimDuration, SimRng, SimTime, SlotId};

/// One pending entry of the reference queue.
#[derive(Debug, Clone)]
struct RefEntry<E> {
    time: SimTime,
    seq: u64,
    /// Owning slot, if any.
    slot: Option<usize>,
    event: E,
}

/// The reference implementation: eager removal, linear-scan pop.
#[derive(Debug, Default)]
pub struct PostedQueue<E> {
    entries: Vec<RefEntry<E>>,
    /// `armed[s]` is the sequence number of slot `s`'s pending entry.
    armed: Vec<Option<u64>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> PostedQueue<E> {
    pub fn new() -> Self {
        PostedQueue {
            entries: Vec::new(),
            armed: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Live entries pending.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn alloc_slot(&mut self) -> usize {
        self.armed.push(None);
        self.armed.len() - 1
    }

    pub fn slot_armed(&self, slot: usize) -> bool {
        self.armed[slot].is_some()
    }

    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "scheduling into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(RefEntry {
            time: at,
            seq,
            slot: None,
            event,
        });
    }

    /// Replaces whatever the slot had armed with a new entry.
    pub fn schedule_in_slot(&mut self, slot: usize, at: SimTime, event: E) {
        assert!(at >= self.now, "scheduling into the past");
        self.cancel_slot(slot);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.armed[slot] = Some(seq);
        self.entries.push(RefEntry {
            time: at,
            seq,
            slot: Some(slot),
            event,
        });
    }

    pub fn cancel_slot(&mut self, slot: usize) {
        if let Some(seq) = self.armed[slot].take() {
            // Eager removal — the whole implementation difference.
            self.entries.retain(|e| e.seq != seq);
        }
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.entries.iter().map(|e| e.time).min()
    }

    /// Removes and returns the earliest entry (FIFO within an instant).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.time, e.seq))
            .map(|(i, _)| i)?;
        let e = self.entries.remove(idx);
        self.now = e.time;
        if let Some(s) = e.slot {
            debug_assert_eq!(self.armed[s], Some(e.seq));
            self.armed[s] = None;
        }
        Some((e.time, e.event))
    }
}

/// How one differential case went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCaseStats {
    pub ops: usize,
    pub pops: usize,
    pub schedules: usize,
    pub cancellations: usize,
    /// Slots allocated by the end of the case.
    pub slots: usize,
}

/// Time-delta distribution for a differential case. The production queue
/// is a binary heap of plain events beside a tournament tree over the
/// armed slots, and a pop serves the lesser of the two minima; each
/// biased profile aims the fuzzer at one way the two can interleave.
/// The names recall the timing wheel the heap replaced, whose edges the
/// profiles were first written for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaProfile {
    /// Uniform 0..2 ms deltas — the original general-purpose mix.
    Uniform,
    /// Deltas one below, on and one above each power of 64 ns up to 2^48
    /// ns, so pending entries span many orders of magnitude and pairs
    /// of them differ by a single nanosecond.
    WheelBoundary,
    /// Mostly near-term traffic with a tail of deltas beyond 2^48 ns
    /// (about 3.26 simulated days), which stay pending under the
    /// near-term churn until the clock catches up.
    FarFuture,
    /// Tiny deltas with the op mix skewed hard toward slot supersede and
    /// cancel.
    CancelHeavy,
    /// Mostly deltas that land between the clock and the last peeked
    /// time, so a schedule after a peek must still pop before the event
    /// the peek reported.
    BelowPeek,
    /// Every schedule lands on a shared 2 µs grid at most two points
    /// ahead, so dozens of armed slots tie on time and only seq orders
    /// them, as in a barrier release. Slots are allocated fast enough
    /// that their count passes 64 and 128 with entries armed, which
    /// rebuilds the lane tree under load.
    Lockstep,
}

impl DeltaProfile {
    /// One schedule delta from the clock `now`; `gap` is the distance
    /// from the clock to the last peeked time (zero when nothing was
    /// pending).
    fn delta(self, rng: &mut SimRng, now: SimTime, gap: SimDuration) -> SimDuration {
        match self {
            DeltaProfile::Uniform => SimDuration::from_micros(rng.next_below(2_000)),
            DeltaProfile::WheelBoundary => {
                // Land one tick before, on, and one tick after 64^k ns
                // for k up to 8 (2^48 ns).
                let k = 1 + rng.next_below(8);
                let base = 1u64 << (6 * k);
                SimDuration::from_nanos(base - 1 + rng.next_below(3))
            }
            DeltaProfile::FarFuture => {
                if rng.next_below(8) == 0 {
                    SimDuration::from_nanos((1u64 << 48) + rng.next_below(1 << 20))
                } else {
                    SimDuration::from_micros(rng.next_below(500))
                }
            }
            DeltaProfile::CancelHeavy => SimDuration::from_micros(rng.next_below(50)),
            DeltaProfile::BelowPeek => {
                let gap = gap.as_nanos();
                if gap > 0 && rng.next_below(4) != 0 {
                    SimDuration::from_nanos(rng.next_below(gap))
                } else {
                    SimDuration::from_micros(rng.next_below(200))
                }
            }
            DeltaProfile::Lockstep => {
                const GRID: u64 = 2_000;
                let now = now.as_nanos();
                SimDuration::from_nanos((now.div_ceil(GRID) + rng.next_below(3)) * GRID - now)
            }
        }
    }

    /// Inclusive upper bounds of the alloc / plain-schedule / slot-schedule
    /// / cancel bands in the 0..100 op draw (the rest are pops).
    fn op_bands(self) -> (u64, u64, u64, u64) {
        match self {
            DeltaProfile::CancelHeavy => (2, 10, 55, 85),
            DeltaProfile::Lockstep => (11, 16, 71, 75),
            _ => (4, 29, 64, 74),
        }
    }
}

/// Drives the production [`EventQueue`] and the reference [`PostedQueue`]
/// through the same seeded operation sequence, comparing every observable
/// after every operation: pop results, live lengths, slot armed-ness, the
/// cancellation count. Peek times are compared after a seeded half of the
/// operations only: a peek replays the lane tree's path that a pop left
/// stale, so peeking after every pop would repair a replay fault before
/// the next arm or cancel could expose it. Ends by draining both queues
/// and validating the production queue's internal bookkeeping. Returns
/// the case's op mix, or a description of the first divergence.
///
/// Uses the general-purpose [`DeltaProfile::Uniform`] mix; see
/// [`differential_queue_case_with`] for the biased variants.
pub fn differential_queue_case(seed: u64, n_ops: usize) -> Result<QueueCaseStats, String> {
    differential_queue_case_with(seed, n_ops, DeltaProfile::Uniform)
}

/// [`differential_queue_case`] with an explicit time-delta profile.
pub fn differential_queue_case_with(
    seed: u64,
    n_ops: usize,
    profile: DeltaProfile,
) -> Result<QueueCaseStats, String> {
    // The peek coin and the pop-deadline coin draw from streams of their
    // own, so neither takes draws from the op stream.
    let mut peek_coin = SimRng::new(seed ^ 0x5045_454B); // "PEEK"
    let mut bound_coin = SimRng::new(seed ^ 0x0042_4F55_4E44); // "BOUND"
    let mut rng = SimRng::new(seed ^ 0x5245_4651); // "REFQ"
    let mut fast: EventQueue<u64> = EventQueue::new();
    let mut slow: PostedQueue<u64> = PostedQueue::new();
    let mut fast_slots: Vec<SlotId> = Vec::new();
    let mut slow_slots: Vec<usize> = Vec::new();
    let mut payload = 0u64;
    // Armed entries the reference saw superseded or cancelled.
    let mut cancelled = 0u64;
    let mut last_peek: Option<SimTime> = None;
    let mut stats = QueueCaseStats {
        ops: n_ops,
        ..Default::default()
    };

    // With a coin, a pop is unbounded or bounded by the reference's next
    // event time (due) or the instant before it (not due).
    let check_pops = |fast: &mut EventQueue<u64>,
                      slow: &mut PostedQueue<u64>,
                      bound_coin: Option<&mut SimRng>,
                      op: usize|
     -> Result<(), String> {
        let next = slow.peek_time().unwrap_or(SimTime::MAX);
        let deadline = match bound_coin.map(|coin| coin.next_below(3)) {
            None | Some(0) => SimTime::MAX,
            Some(1) => next,
            Some(_) => SimTime::from_nanos(next.as_nanos().saturating_sub(1)),
        };
        let f = fast.pop_until(deadline).map(|e| (e.time, e.event));
        let s = if next <= deadline { slow.pop() } else { None };
        if f != s {
            return Err(format!(
                "op {op}: pop until {deadline:?} diverged — production {f:?} vs reference {s:?}"
            ));
        }
        Ok(())
    };

    let (alloc_hi, plain_hi, slot_hi, cancel_hi) = profile.op_bands();
    for op in 0..n_ops {
        let gap = last_peek.map_or(SimDuration::ZERO, |p| p.saturating_since(slow.now()));
        let delta = profile.delta(&mut rng, slow.now(), gap);
        let at = slow.now() + delta;
        let draw = rng.next_below(100);
        // Grow the slot population early, rarely later.
        if draw <= alloc_hi {
            fast_slots.push(fast.alloc_slot());
            slow_slots.push(slow.alloc_slot());
        } else if draw <= plain_hi {
            payload += 1;
            fast.schedule(at, payload);
            slow.schedule(at, payload);
            stats.schedules += 1;
        } else if draw <= slot_hi && !fast_slots.is_empty() {
            let k = rng.next_below(fast_slots.len() as u64) as usize;
            payload += 1;
            cancelled += u64::from(slow.slot_armed(slow_slots[k]));
            fast.schedule_in_slot(fast_slots[k], at, payload);
            slow.schedule_in_slot(slow_slots[k], at, payload);
            stats.schedules += 1;
        } else if draw <= cancel_hi && !fast_slots.is_empty() {
            let k = rng.next_below(fast_slots.len() as u64) as usize;
            cancelled += u64::from(slow.slot_armed(slow_slots[k]));
            fast.cancel_slot(fast_slots[k]);
            slow.cancel_slot(slow_slots[k]);
            stats.cancellations += 1;
        } else {
            check_pops(&mut fast, &mut slow, Some(&mut bound_coin), op)?;
            stats.pops += 1;
        }
        if fast.len() != slow.len() {
            return Err(format!(
                "op {op}: live length diverged — production {} vs reference {}",
                fast.len(),
                slow.len()
            ));
        }
        if peek_coin.next_below(2) == 0 {
            let peek = fast.peek_time();
            if peek != slow.peek_time() {
                return Err(format!(
                    "op {op}: peek diverged — production {peek:?} vs reference {:?}",
                    slow.peek_time()
                ));
            }
            last_peek = peek;
        }
        if fast.cancellations() != cancelled {
            return Err(format!(
                "op {op}: cancellation count diverged — production {} vs reference {cancelled}",
                fast.cancellations()
            ));
        }
        for (k, (&fs, &ss)) in fast_slots.iter().zip(&slow_slots).enumerate() {
            if fast.slot_armed(fs) != slow.slot_armed(ss) {
                return Err(format!(
                    "op {op}: slot {k} armed-ness diverged — production {} vs reference {}",
                    fast.slot_armed(fs),
                    slow.slot_armed(ss)
                ));
            }
        }
    }

    // Drain both to the end: the full pop stream must match.
    while !fast.is_empty() || !slow.is_empty() {
        check_pops(&mut fast, &mut slow, None, n_ops)?;
        stats.pops += 1;
    }
    stats.slots = fast_slots.len();
    let violations = fast.validate();
    if !violations.is_empty() {
        return Err(format!(
            "production queue failed self-validation after drain: {}",
            violations.join("; ")
        ));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_queue_orders_fifo_within_instant() {
        let mut q = PostedQueue::new();
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        q.schedule(t, 1u64);
        q.schedule(t, 2u64);
        q.schedule(SimTime::ZERO + SimDuration::from_millis(1), 3u64);
        assert_eq!(
            q.pop(),
            Some((SimTime::ZERO + SimDuration::from_millis(1), 3))
        );
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reference_queue_slot_supersedes_and_cancels() {
        let mut q = PostedQueue::new();
        let s = q.alloc_slot();
        q.schedule_in_slot(s, SimTime::ZERO + SimDuration::from_millis(10), 1u64);
        q.schedule_in_slot(s, SimTime::ZERO + SimDuration::from_millis(2), 2u64);
        assert!(q.slot_armed(s));
        assert_eq!(q.len(), 1, "superseded entry must be gone");
        assert_eq!(
            q.pop(),
            Some((SimTime::ZERO + SimDuration::from_millis(2), 2))
        );
        assert!(!q.slot_armed(s));
        q.schedule_in_slot(s, SimTime::ZERO + SimDuration::from_millis(9), 3u64);
        q.cancel_slot(s);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn differential_cases_pass_across_seeds() {
        for seed in 0..8 {
            let stats =
                differential_queue_case(seed, 1_500).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(stats.pops > 0 && stats.schedules > 0 && stats.cancellations > 0);
        }
    }

    #[test]
    fn wheel_boundary_bias_pops_identical_streams() {
        for seed in 0..6 {
            let stats = differential_queue_case_with(seed, 2_000, DeltaProfile::WheelBoundary)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(stats.pops > 0 && stats.schedules > 0);
        }
    }

    #[test]
    fn far_future_bias_crosses_the_wheel_horizon() {
        for seed in 0..6 {
            let stats = differential_queue_case_with(seed, 2_000, DeltaProfile::FarFuture)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(stats.pops > 0 && stats.schedules > 0);
        }
    }

    #[test]
    fn cancel_heavy_bias_pops_identical_streams() {
        for seed in 0..6 {
            let stats = differential_queue_case_with(seed, 3_000, DeltaProfile::CancelHeavy)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(stats.cancellations > 0);
        }
    }

    #[test]
    fn below_peek_bias_pops_identical_streams() {
        for seed in 0..6 {
            let stats = differential_queue_case_with(seed, 2_000, DeltaProfile::BelowPeek)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(stats.pops > 0 && stats.schedules > 0);
        }
    }

    #[test]
    fn lockstep_bias_pops_identical_streams() {
        for seed in 0..6 {
            let stats = differential_queue_case_with(seed, 1_500, DeltaProfile::Lockstep)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(stats.pops > 0 && stats.schedules > 0);
            assert!(stats.slots > 128, "the lane tree grew past 128 leaves");
        }
    }

    /// The pop-stream property straight up: the production queue and a
    /// plain `BinaryHeap` of `(time, seq)` pairs fed the same schedule
    /// stream pop identical sequences, across deltas from 1 ns to past
    /// 2^48 ns.
    #[test]
    fn wheel_and_heap_builds_pop_identical_time_seq_streams() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed ^ 0x5748_4C42); // "WHLB"
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut heap: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = SimTime::ZERO;
            for _ in 0..2_000 {
                if rng.next_below(3) < 2 {
                    // Span widths from 1 ns up past 2^48 ns.
                    let bits = rng.next_below(50) as u32;
                    let at = now + SimDuration::from_nanos(rng.next_below(1u64 << bits) + 1);
                    queue.schedule(at, seq);
                    heap.push(Reverse((at, seq)));
                    seq += 1;
                } else if let Some(e) = queue.pop() {
                    let Reverse(expect) = heap.pop().expect("heap drained first");
                    assert_eq!((e.time, e.event), expect, "seed {seed}");
                    now = e.time;
                }
            }
            while let Some(e) = queue.pop() {
                let Reverse(expect) = heap.pop().expect("heap drained first");
                assert_eq!((e.time, e.event), expect, "seed {seed}");
            }
            assert!(heap.pop().is_none(), "queue drained first");
            assert!(queue.validate().is_empty());
        }
    }
}
