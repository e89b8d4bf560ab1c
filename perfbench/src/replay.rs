//! Seeded operation streams replayed against the event queue and the run
//! queue alone, through their public operations only. Each stream is
//! shaped like one workload's traffic; operations of one kind are issued
//! in blocks and each block is timed as a whole, so the clock reads cost
//! a few percent of a block rather than most of one operation.

use speedbal_sched::rq::{RqLinks, RunQueue};
use speedbal_sched::TaskId;
use speedbal_sim::{EventQueue, SimRng, SimTime, SlotId};
use std::hint::black_box;
use std::time::Instant;

/// Shape of an event-queue stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueShape {
    /// Armed-slot lanes (one per simulated core).
    pub lanes: usize,
    /// All lanes fire at the same instants (balancers without interval
    /// randomization), instead of at independent random times.
    pub lockstep: bool,
    /// Plain (non-slot) events scheduled per round: timed wakes and
    /// request arrivals.
    pub arrivals: usize,
}

/// Shape of a run-queue stream: per-core queues and the tasks spread
/// over them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RqShape {
    pub queues: usize,
    pub tasks: usize,
}

/// Nanoseconds per operation of each kind, plus the stream's batching.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueCosts {
    pub arm_ns: f64,
    pub cancel_ns: f64,
    pub schedule_ns: f64,
    pub pop_ns: f64,
    /// Events popped per distinct pop instant (exact for a given seed).
    pub pops_per_instant: f64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RqCosts {
    pub enqueue_ns: f64,
    pub dequeue_ns: f64,
    pub pop_min_ns: f64,
}

#[derive(Default)]
struct Acc {
    ns: u64,
    ops: u64,
}

impl Acc {
    fn add(&mut self, t: Instant, ops: usize) {
        self.ns += t.elapsed().as_nanos() as u64;
        self.ops += ops as u64;
    }

    fn per_op(&self) -> f64 {
        self.ns as f64 / self.ops.max(1) as f64
    }
}

/// Lane event payload; plain events use `PLAIN`.
const PLAIN: u32 = u32::MAX;

/// Replays `rounds` rounds of `shape` traffic seeded by `seed`. A round
/// pops one lane-round of events, re-arms the lanes it popped, cancels
/// and re-arms a quarter of the lanes, and schedules the round's plain
/// arrivals.
pub fn event_queue(shape: QueueShape, rounds: usize, seed: u64) -> QueueCosts {
    let mut rng = SimRng::new(seed);
    let mut q: EventQueue<u32> = EventQueue::new();
    let slots: Vec<SlotId> = (0..shape.lanes).map(|_| q.alloc_slot()).collect();
    // Lockstep lanes fire together on a 20 ms grid; spread lanes draw
    // their next time from the same range independently.
    const PERIOD_NS: u64 = 20_000_000;
    let next_lane_time = |rng: &mut SimRng, now: u64| -> SimTime {
        SimTime::from_nanos(if shape.lockstep {
            (now / PERIOD_NS + 1) * PERIOD_NS
        } else {
            now + rng.range_inclusive(1_000, 2 * PERIOD_NS)
        })
    };
    for (i, &s) in slots.iter().enumerate() {
        let at = next_lane_time(&mut rng, 0);
        q.schedule_in_slot(s, at, i as u32);
    }
    let (mut arm, mut cancel, mut schedule, mut pop) = (
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
    );
    let (mut pops, mut instants, mut last_time) = (0u64, 0u64, None);
    let per_round = shape.lanes + shape.arrivals;
    let mut popped: Vec<(u32, SimTime)> = Vec::with_capacity(per_round);
    let mut targets: Vec<(SlotId, SimTime, u32)> = Vec::with_capacity(shape.lanes);
    let mut plain: Vec<SimTime> = Vec::with_capacity(shape.arrivals);
    let mut victims: Vec<usize> = Vec::with_capacity(shape.lanes);
    for _ in 0..rounds {
        popped.clear();
        let t = Instant::now();
        for _ in 0..per_round {
            match q.pop() {
                Some(ev) => popped.push((ev.event, ev.time)),
                None => break,
            }
        }
        pop.add(t, popped.len());
        for &(_, time) in &popped {
            pops += 1;
            if last_time != Some(time) {
                instants += 1;
                last_time = Some(time);
            }
        }
        let now = last_time.map_or(0, SimTime::as_nanos);

        targets.clear();
        for &(lane, _) in popped.iter().filter(|(l, _)| *l != PLAIN) {
            targets.push((slots[lane as usize], next_lane_time(&mut rng, now), lane));
        }
        let t = Instant::now();
        for &(s, at, lane) in &targets {
            q.schedule_in_slot(s, at, lane);
        }
        arm.add(t, targets.len());

        victims.clear();
        for _ in 0..shape.lanes.div_ceil(4) {
            victims.push(rng.next_below(shape.lanes as u64) as usize);
        }
        let t = Instant::now();
        for &lane in &victims {
            q.cancel_slot(slots[lane]);
        }
        cancel.add(t, victims.len());
        targets.clear();
        for &lane in &victims {
            targets.push((slots[lane], next_lane_time(&mut rng, now), lane as u32));
        }
        let t = Instant::now();
        for &(s, at, lane) in &targets {
            q.schedule_in_slot(s, at, lane);
        }
        arm.add(t, targets.len());

        plain.clear();
        for _ in 0..shape.arrivals {
            plain.push(SimTime::from_nanos(
                now + rng.range_inclusive(1_000, 2 * PERIOD_NS),
            ));
        }
        let t = Instant::now();
        for &at in &plain {
            q.schedule(at, PLAIN);
        }
        schedule.add(t, plain.len());
    }
    black_box(q);
    QueueCosts {
        arm_ns: arm.per_op(),
        cancel_ns: cancel.per_op(),
        schedule_ns: schedule.per_op(),
        pop_ns: pop.per_op(),
        pops_per_instant: pops as f64 / instants.max(1) as f64,
    }
}

/// Replays `rounds` rounds of run-queue traffic: every queue pops its
/// leftmost task (a dispatch), the popped tasks are re-enqueued further
/// right, some onto another queue (a deschedule or a migration), and a
/// few queued tasks are dequeued and put back (a wakeup re-placement).
pub fn run_queue(shape: RqShape, rounds: usize, seed: u64) -> RqCosts {
    let mut rng = SimRng::new(seed);
    let mut links = RqLinks::new();
    let mut queues: Vec<RunQueue> = (0..shape.queues).map(|_| RunQueue::new()).collect();
    // (queue, key) of every task; between blocks every task is queued.
    let mut home: Vec<(usize, u64)> = (0..shape.tasks)
        .map(|t| {
            let qi = t % shape.queues;
            let key = rng.next_below(1_000_000);
            queues[qi].enqueue(&mut links, key, TaskId(t));
            (qi, key)
        })
        .collect();
    let (mut enq, mut deq, mut pop) = (Acc::default(), Acc::default(), Acc::default());
    let mut popped: Vec<(usize, u64, TaskId)> = Vec::with_capacity(shape.queues);
    let mut puts: Vec<(usize, u64, TaskId)> = Vec::with_capacity(shape.queues);
    let mut pulls: Vec<(usize, u64, TaskId)> = Vec::with_capacity(shape.queues);
    for _ in 0..rounds {
        popped.clear();
        let t = Instant::now();
        for (qi, q) in queues.iter_mut().enumerate() {
            if let Some((key, task)) = q.pop_min(&mut links) {
                popped.push((qi, key, task));
            }
        }
        pop.add(t, popped.len());

        puts.clear();
        for &(qi, key, task) in &popped {
            let to = if rng.chance(0.1) {
                rng.next_below(shape.queues as u64) as usize
            } else {
                qi
            };
            let key = key + rng.range_inclusive(100_000, 4_000_000);
            puts.push((to, key, task));
            home[task.0] = (to, key);
        }
        let t = Instant::now();
        for &(qi, key, task) in &puts {
            queues[qi].enqueue(&mut links, key, task);
        }
        enq.add(t, puts.len());

        pulls.clear();
        for _ in 0..shape.queues.div_ceil(4) {
            let task = rng.next_below(shape.tasks as u64) as usize;
            if !pulls.iter().any(|p| p.2 .0 == task) {
                let (qi, key) = home[task];
                pulls.push((qi, key, TaskId(task)));
            }
        }
        let t = Instant::now();
        for &(qi, key, task) in &pulls {
            let removed = queues[qi].dequeue(&mut links, key, task);
            debug_assert!(removed, "replayed task must be queued where recorded");
        }
        deq.add(t, pulls.len());
        let t = Instant::now();
        for &(qi, key, task) in &pulls {
            queues[qi].enqueue(&mut links, key, task);
        }
        enq.add(t, pulls.len());
    }
    black_box((queues, links));
    RqCosts {
        enqueue_ns: enq.per_op(),
        dequeue_ns: deq.per_op(),
        pop_min_ns: pop.per_op(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_lanes_pop_together() {
        let spread = QueueShape {
            lanes: 16,
            lockstep: false,
            arrivals: 0,
        };
        let lockstep = QueueShape {
            lanes: 64,
            lockstep: true,
            arrivals: 0,
        };
        assert!(event_queue(spread, 200, 1).pops_per_instant < 1.5);
        assert!(event_queue(lockstep, 200, 1).pops_per_instant > 8.0);
    }

    #[test]
    fn replays_repeat_exactly_per_seed() {
        let shape = QueueShape {
            lanes: 8,
            lockstep: false,
            arrivals: 8,
        };
        let a = event_queue(shape, 300, 7).pops_per_instant;
        assert_eq!(a, event_queue(shape, 300, 7).pops_per_instant);
        let rq = run_queue(
            RqShape {
                queues: 4,
                tasks: 9,
            },
            300,
            7,
        );
        assert!(rq.pop_min_ns > 0.0 && rq.enqueue_ns > 0.0 && rq.dequeue_ns > 0.0);
    }
}
