//! The speed-balancing decision step (paper §5.1 steps 1–4, the victim
//! choice and the post-migration block), shared by both balancers: the
//! simulator's [`crate::SpeedBalancer`] and the native `speedbalancer` in
//! `speedbal-native`.
//!
//! Nothing here reads a `System`, `/proc` or a lock, and every clock value
//! is in nanoseconds, so either clock can feed it. A caller measures its
//! threads with [`thread_speed`], publishes [`core_speed`], averages the
//! published speeds with [`global_speed`], answers [`decide`]'s per-core
//! questions through a [`CoreView`], and carries out the [`Decision`].
//! Each rule therefore exists once, and a fix here fixes both backends.

use speedbal_sched::ActivationOutcome;

/// One core's post-migration block ("at least 2 balance intervals").
/// Balancer threads sleep `interval + U(0, interval)`, so nominal time
/// alone would let a core act again after one jittered activation: the
/// block lifts only once **both** its span has passed **and** the core's
/// own balancer thread has completed its activations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Block {
    /// Clock time (ns) of the core's last migration involvement.
    since: Option<u64>,
    /// Own activations still to complete before the block can lift.
    activations_left: u32,
}

impl Block {
    /// Counts one activation of the core's own balancer thread, at its
    /// top, before the block is read.
    pub fn tick(&mut self) {
        self.activations_left = self.activations_left.saturating_sub(1);
    }

    /// Whether the core is still blocked at `now`, for a block of `span`.
    pub fn active(&self, now: u64, span: u64) -> bool {
        self.activations_left > 0 || self.since.is_some_and(|t| now.saturating_sub(t) < span)
    }

    /// Starts a block at `now` that lasts `n` of the core's own activations.
    pub fn claim(&mut self, now: u64, n: u32) {
        *self = Block {
            since: Some(now),
            activations_left: n,
        };
    }
}

/// One thread's speed over a measurement window (§5.1 step 1): CPU time
/// over wall time, capped at `max`. `None` while the window is empty or
/// shorter than `min_wall`: the caller keeps the old snapshot and waits.
pub fn thread_speed(exec_ns: u64, wall_ns: u64, min_wall: u64, max: f64) -> Option<f64> {
    (wall_ns > 0 && wall_ns >= min_wall).then(|| (exec_ns as f64 / wall_ns as f64).min(max))
}

/// The speed a core publishes (§5.1 step 2), from its `threads` managed
/// threads and the `speeds` measured this activation: `idle` for an empty
/// core (it offers a full slot), `previous` for a loaded core with nothing
/// measured (e.g. right after a migration), else the mean.
pub fn core_speed(threads: usize, speeds: &[f64], previous: f64, idle: f64) -> f64 {
    if threads == 0 {
        idle
    } else if speeds.is_empty() {
        previous
    } else {
        speeds.iter().sum::<f64>() / speeds.len() as f64
    }
}

/// The global core speed (§5.1 step 3): the mean of the finite published
/// speeds, in the order given. `None` when no core has published.
pub fn global_speed(published: impl IntoIterator<Item = f64>) -> Option<f64> {
    let finite = published.into_iter().filter(|s| s.is_finite());
    let (sum, n) = finite.fold((0.0, 0usize), |(sum, n), s| (sum + s, n + 1));
    (n > 0).then(|| sum / n as f64)
}

/// What [`decide`] asks its caller about the managed cores. A slot is a
/// position in the caller's list of managed cores.
pub trait CoreView {
    /// A thread's id; the smaller id wins a tie in migration counts.
    type Thread: Copy + Ord;
    /// The speed the core at `slot` published (NaN: no data yet).
    fn speed(&self, slot: usize) -> f64;
    /// Whether the topology forbids pulling from `slot` to the local core.
    fn rejects(&mut self, slot: usize) -> bool;
    /// Whether the core at `slot` is inside its post-migration block.
    fn blocked(&self, slot: usize) -> bool;
    /// The managed threads on `slot`, each with its migration count.
    fn threads(&self, slot: usize) -> impl Iterator<Item = (u64, Self::Thread)>;
}

/// What one activation decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision<T> {
    /// The local core is no faster than the average, or there is no
    /// usable average: only a faster-than-average core pulls.
    BelowAverage,
    /// The local core is blocked, or blocks alone kept every slow enough
    /// core from being a victim.
    Blocked,
    /// No other core is slow enough, allowed and loaded.
    NoCandidate,
    /// Pull `thread` from the core at `slot`, which published
    /// `remote_speed`.
    Pull {
        slot: usize,
        thread: T,
        remote_speed: f64,
    },
}

impl<T> Decision<T> {
    /// The trace outcome of carrying the decision out.
    pub fn outcome(&self) -> ActivationOutcome {
        match self {
            Decision::BelowAverage => ActivationOutcome::BelowAverage,
            Decision::Blocked => ActivationOutcome::Blocked,
            Decision::NoCandidate => ActivationOutcome::NoCandidate,
            Decision::Pull { .. } => ActivationOutcome::Pulled,
        }
    }
}

/// One activation on slot `local` of `slots` (§5.1 step 4 and the victim
/// choice), given the speed it just published and the global average.
///
/// Only a core faster than the average pulls, from the slowest core below
/// `threshold` × the average. The scan runs in ring order from just past
/// `local`: equally loaded cores publish equal speeds, and a fixed
/// low-index-first scan would hand every tie to one core and starve the
/// last slow queue. A candidate is skipped, in this order, when its speed
/// is not finite or not below the threshold, the topology rejects it, it
/// is blocked, or it has no managed thread. The pulled thread is the
/// victim's least-migrated one, so none becomes a "hot potato".
pub fn decide<V: CoreView>(
    view: &mut V,
    local: usize,
    slots: usize,
    s_local: f64,
    s_global: f64,
    threshold: f64,
) -> Decision<V::Thread> {
    if !s_global.is_finite() || s_global <= 0.0 || s_local.is_nan() || s_local <= s_global {
        return Decision::BelowAverage;
    }
    if view.blocked(local) {
        return Decision::Blocked;
    }
    let mut best: Option<(f64, usize)> = None;
    let mut saw_blocked = false;
    for off in 1..slots {
        let k = (local + off) % slots;
        let s_k = view.speed(k);
        if !s_k.is_finite() || s_k / s_global >= threshold || view.rejects(k) {
            continue;
        }
        if view.blocked(k) {
            saw_blocked = true;
            continue;
        }
        if view.threads(k).next().is_some() && best.is_none_or(|(bs, _)| s_k < bs) {
            best = Some((s_k, k));
        }
    }
    match best {
        Some((remote_speed, slot)) => {
            let (_, thread) = view.threads(slot).min().expect("the victim has a thread");
            Decision::Pull {
                slot,
                thread,
                remote_speed,
            }
        }
        None if saw_blocked => Decision::Blocked,
        None => Decision::NoCandidate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted machine: per slot a speed, a topology verdict, a block
    /// and `(migrations, id)` threads.
    struct Script {
        speed: Vec<f64>,
        rejected: Vec<bool>,
        blocked: Vec<bool>,
        threads: Vec<Vec<(u64, u32)>>,
    }

    impl Script {
        /// `speeds.len()` cores, none rejected or blocked, each carrying
        /// one never-migrated thread whose id is its slot.
        fn new(speeds: &[f64]) -> Script {
            let n = speeds.len();
            Script {
                speed: speeds.to_vec(),
                rejected: vec![false; n],
                blocked: vec![false; n],
                threads: (0..n as u32).map(|i| vec![(0, i)]).collect(),
            }
        }

        fn decide(&mut self, local: usize, s_global: f64) -> Decision<u32> {
            let (n, s_local) = (self.speed.len(), self.speed[local]);
            decide(self, local, n, s_local, s_global, 0.9)
        }
    }

    impl CoreView for Script {
        type Thread = u32;
        fn speed(&self, slot: usize) -> f64 {
            self.speed[slot]
        }
        fn rejects(&mut self, slot: usize) -> bool {
            self.rejected[slot]
        }
        fn blocked(&self, slot: usize) -> bool {
            self.blocked[slot]
        }
        fn threads(&self, slot: usize) -> impl Iterator<Item = (u64, u32)> {
            self.threads[slot].iter().copied()
        }
    }

    fn pull(slot: usize, thread: u32, remote_speed: f64) -> Decision<u32> {
        Decision::Pull {
            slot,
            thread,
            remote_speed,
        }
    }

    #[test]
    fn below_average_covers_slow_cores_and_unusable_averages() {
        let mut m = Script::new(&[0.5, 1.0]);
        assert_eq!(m.decide(0, 0.75), Decision::BelowAverage);
        // Equal to the average is not faster than it.
        assert_eq!(m.decide(1, 1.0), Decision::BelowAverage);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(m.decide(1, bad), Decision::BelowAverage, "{bad}");
        }
        // A core with no data never pulls.
        m.speed[1] = f64::NAN;
        assert_eq!(m.decide(1, 0.75), Decision::BelowAverage);
    }

    #[test]
    fn a_blocked_puller_reports_blocked() {
        let mut m = Script::new(&[0.5, 1.0]);
        m.blocked[1] = true;
        assert_eq!(m.decide(1, 0.75), Decision::Blocked);
        assert_eq!(
            Decision::<u32>::Blocked.outcome(),
            ActivationOutcome::Blocked
        );
    }

    #[test]
    fn pulls_the_least_migrated_thread_ties_by_id() {
        let mut m = Script::new(&[0.5, 1.0]);
        m.threads[0] = vec![(3, 7), (1, 9), (1, 8), (2, 1)];
        let d = m.decide(1, 0.75);
        assert_eq!(d, pull(0, 8, 0.5));
        assert_eq!(d.outcome(), ActivationOutcome::Pulled);
    }

    #[test]
    fn ties_resolve_toward_the_first_core_past_the_puller() {
        // Slots 0, 2 and 3 tie at 0.5: slot 1 takes slot 2, slot 3 wraps
        // around to slot 0.
        let mut m = Script::new(&[0.5, 1.0, 0.5, 0.5]);
        assert_eq!(m.decide(1, 0.625), pull(2, 2, 0.5));
        m.speed[3] = 1.0;
        assert_eq!(m.decide(3, 0.75), pull(0, 0, 0.5));
    }

    #[test]
    fn a_strictly_slower_later_candidate_wins() {
        let mut m = Script::new(&[1.0, 0.5, 0.4, 0.5]);
        assert_eq!(m.decide(0, 0.6), pull(2, 2, 0.4));
    }

    #[test]
    fn a_core_exactly_at_the_threshold_is_no_victim() {
        // 0.9 / 1.0 == T_s: not below it.
        let mut m = Script::new(&[1.2, 0.9]);
        assert_eq!(m.decide(0, 1.0), Decision::NoCandidate);
        assert_eq!(
            Decision::<u32>::NoCandidate.outcome(),
            ActivationOutcome::NoCandidate
        );
        m.speed[1] = 0.899;
        assert_eq!(m.decide(0, 1.0), pull(1, 1, 0.899));
    }

    #[test]
    fn skips_unknown_rejected_and_threadless_cores() {
        let mut m = Script::new(&[1.0, f64::NAN, 0.3, 0.2, 0.4]);
        m.rejected[2] = true;
        m.threads[3].clear();
        assert_eq!(m.decide(0, 0.5), pull(4, 4, 0.4));
        m.speed[4] = f64::INFINITY;
        assert_eq!(m.decide(0, 0.5), Decision::NoCandidate);
    }

    #[test]
    fn only_blocked_candidates_report_blocked() {
        let mut m = Script::new(&[1.0, 0.4, 0.3, 0.95]);
        m.blocked[1] = true;
        m.blocked[2] = true;
        assert_eq!(m.decide(0, 0.6), Decision::Blocked);
        // A blocked core that is not slow enough does not count.
        let mut m = Script::new(&[1.0, 0.95]);
        m.blocked[1] = true;
        assert_eq!(m.decide(0, 0.975), Decision::NoCandidate);
        // An unblocked victim beats the blocked ones.
        let mut m = Script::new(&[1.0, 0.4, 0.5]);
        m.blocked[1] = true;
        assert_eq!(m.decide(0, 0.6), pull(2, 2, 0.5));
    }

    #[test]
    fn migration_block_spans_jittered_activations() {
        // The block must last until BOTH the nominal 2-interval span has
        // passed AND the core's own thread has completed 2 activations:
        // jitter can stretch the activation gap to 2 intervals, so either
        // test alone under-enforces. Interval 100 ms, block 2.
        let ms = 1_000_000;
        let span = 200 * ms;
        let mut own = Block::default();
        assert!(!own.active(0, span));
        own.claim(0, 2);
        // Past the span, but only one jittered activation done.
        assert!(own.active(201 * ms, span));
        own.tick();
        assert!(
            own.active(201 * ms, span),
            "one jittered activation must not lift a 2-activation block"
        );
        own.tick();
        assert!(!own.active(201 * ms, span));
        // Activations done, span not yet passed: still blocked, then clear.
        let mut done = Block::default();
        done.claim(0, 0);
        assert!(done.active(150 * ms, span));
        assert!(!done.active(201 * ms, span));
    }

    #[test]
    fn thread_speed_waits_for_a_full_window_and_caps() {
        assert_eq!(thread_speed(5, 10, 0, f64::INFINITY), Some(0.5));
        assert_eq!(thread_speed(0, 0, 0, f64::INFINITY), None);
        assert_eq!(thread_speed(4, 4, 5, f64::INFINITY), None);
        assert_eq!(thread_speed(20, 10, 5, 1.5), Some(1.5));
    }

    #[test]
    fn core_speed_has_three_cases() {
        // No managed thread: the idle value.
        assert_eq!(core_speed(0, &[], 0.3, 1.0), 1.0);
        assert_eq!(core_speed(0, &[], f64::NAN, 2.5), 2.5);
        // Threads, none measured: the previous value, even "no data".
        assert_eq!(core_speed(2, &[], 0.3, 1.0), 0.3);
        assert!(core_speed(2, &[], f64::NAN, 1.0).is_nan());
        // Otherwise the mean of the measured speeds.
        assert_eq!(core_speed(3, &[0.5, 0.25], 0.3, 1.0), 0.375);
    }

    #[test]
    fn global_speed_averages_finite_values_only() {
        assert_eq!(global_speed([0.5, f64::NAN, 1.0]), Some(0.75));
        assert_eq!(global_speed([f64::NAN, f64::INFINITY]), None);
        assert_eq!(global_speed([]), None);
    }
}
