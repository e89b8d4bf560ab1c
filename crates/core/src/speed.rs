//! The distributed speed-balancing algorithm (paper §5.1–5.2): the
//! simulator's side of the shared decision step in [`crate::decide`].

use crate::config::{SpeedBalancerConfig, SpeedMetric};
use crate::decide::{self, Block, CoreView, Decision};
use crate::stats::{SpeedStats, SpeedStatsHandle};
use speedbal_machine::{CoreId, DomainLevel};
use speedbal_sched::balancer::keys;
use speedbal_sched::{
    ActivationOutcome, Balancer, GroupId, MigrationReason, System, TaskId, TraceEvent,
};
use speedbal_sim::{SimDuration, SimRng, SimTime};

/// Last observed `(cpu_time, wall_time)` pair for one thread; speed over a
/// window is the quotient of the deltas.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    exec: SimDuration,
    time: SimTime,
}

/// Per-core balancer-thread state.
#[derive(Debug, Clone)]
struct PerCore {
    /// Published core speed `s_j`, read by the other balancers when they
    /// compute the global average. Starts at 1.0 (an idle core offers
    /// full speed).
    published: f64,
    /// The post-migration block.
    block: Block,
    /// Activations so far, for the per-domain interval tiers.
    activations: u64,
}

/// The user-level speed balancer as a pluggable [`Balancer`].
///
/// One logical balancer thread per managed core wakes every
/// `interval + U(0, interval)`, measures local thread speeds, publishes the
/// local core speed, and — if the local core is faster than the global
/// average — pulls **one** thread (the least-migrated) from a core whose
/// speed is below `T_s ×` the global average.
///
/// Threads are hard-pinned at all times (round-robin at startup, re-pinned
/// on every pull), exactly like the real `speedbalancer`'s use of
/// `sched_setaffinity`: the kernel's own load balancer can never interfere
/// with managed threads.
pub struct SpeedBalancer {
    cfg: SpeedBalancerConfig,
    /// Groups this balancer manages; `None` = every group in the system.
    managed: Option<Vec<GroupId>>,
    /// Cores the balancer runs on, by slot; empty = every core (resolved
    /// at start).
    cores: Vec<CoreId>,
    /// Per-slot state, aligned with `cores`.
    per_core: Vec<PerCore>,
    /// Slot of each core id, `None` for unmanaged cores.
    slot_of: Vec<Option<usize>>,
    snapshots: Vec<Option<Snapshot>>,
    rng: SimRng,
    next_rr: usize,
    stats: SpeedStatsHandle,
    /// Scratch: the managed tasks of the core being measured, and their
    /// measured speeds (reused, so activations do not allocate).
    tasks: Vec<TaskId>,
    speeds: Vec<f64>,
}

fn is_managed(managed: &Option<Vec<GroupId>>, sys: &System, t: TaskId) -> bool {
    managed
        .as_ref()
        .is_none_or(|gs| gs.contains(&sys.task_group(t)))
}

/// Managed, non-exited tasks whose run queue is `core`, in `TaskId` order
/// (the system's incrementally maintained per-core member list).
fn managed_on<'a>(
    managed: &'a Option<Vec<GroupId>>,
    sys: &'a System,
    core: CoreId,
) -> impl Iterator<Item = TaskId> + 'a {
    sys.tasks_assigned_to(core)
        .iter()
        .copied()
        .filter(move |&t| is_managed(managed, sys, t))
}

fn snapshot_mut(snapshots: &mut Vec<Option<Snapshot>>, t: TaskId) -> &mut Option<Snapshot> {
    if snapshots.len() <= t.0 {
        snapshots.resize(t.0 + 1, None);
    }
    &mut snapshots[t.0]
}

/// The simulator's answers to the decision step's per-core questions.
struct SimView<'a> {
    sys: &'a System,
    bal: &'a SpeedBalancer,
    local: CoreId,
    now: u64,
    span: u64,
    allow_cross_cache: bool,
    numa_blocked: u64,
}

impl CoreView for SimView<'_> {
    type Thread = TaskId;

    fn speed(&self, slot: usize) -> f64 {
        self.bal.per_core[slot].published
    }

    fn rejects(&mut self, slot: usize) -> bool {
        let (k, topo) = (self.bal.cores[slot], self.sys.topology());
        if self.bal.cfg.block_numa_migrations && topo.crosses_numa(k, self.local) {
            self.numa_blocked += 1;
            return true;
        }
        !self.allow_cross_cache && topo.common_level(k, self.local) > DomainLevel::Cache
    }

    fn blocked(&self, slot: usize) -> bool {
        self.bal.per_core[slot].block.active(self.now, self.span)
    }

    fn threads(&self, slot: usize) -> impl Iterator<Item = (u64, TaskId)> {
        let sys = self.sys;
        managed_on(&self.bal.managed, sys, self.bal.cores[slot])
            .map(|t| (sys.task_migrations(t), t))
    }
}

impl SpeedBalancer {
    /// A balancer with the paper's default configuration, managing every
    /// task in the system across all cores.
    pub fn new(seed: u64) -> Self {
        Self::with_config(SpeedBalancerConfig::default(), seed)
    }

    /// A balancer managing every task, with an explicit configuration.
    pub fn with_config(cfg: SpeedBalancerConfig, seed: u64) -> Self {
        SpeedBalancer {
            cfg,
            managed: None,
            cores: Vec::new(),
            per_core: Vec::new(),
            slot_of: Vec::new(),
            snapshots: Vec::new(),
            rng: SimRng::new(seed ^ 0x53504545_44424c52), // "SPEEDBLR"
            next_rr: 0,
            stats: SpeedStats::new_handle(),
            tasks: Vec::new(),
            speeds: Vec::new(),
        }
    }

    /// Restricts the balancer to the given application groups and cores —
    /// the paper's deployment: "apply speed balancing to a particular
    /// parallel application without preventing Linux from load balancing
    /// any other unrelated tasks". Compose with a kernel balancer via
    /// `speedbal-balancers`' `CompositeBalancer`.
    pub fn managing(mut self, groups: Vec<GroupId>, cores: Vec<CoreId>) -> Self {
        self.managed = Some(groups);
        self.cores = cores;
        self
    }

    /// Live statistics handle; clone before moving the balancer into the
    /// system.
    pub fn stats_handle(&self) -> SpeedStatsHandle {
        self.stats.clone()
    }

    /// Measures the speed of each managed thread on the core at `slot`
    /// over the window since its last snapshot, with multiplicative
    /// measurement noise, and returns the core speed to publish
    /// ([`decide::core_speed`]; the idle value is the core's weight).
    fn measure_core(&mut self, sys: &mut System, slot: usize) -> f64 {
        let core = self.cores[slot];
        if self.cfg.metric == SpeedMetric::InverseQueueLength {
            return self.measure_core_by_queue(sys, core);
        }
        let now = sys.now();
        let noise = self.cfg.measurement_noise;
        // Heterogeneous extension (§5): scale CPU share by the core's
        // effective capacity — static speed times the current frequency
        // ratio — so "progress" is compared, not just CPU time.
        let core_weight = if self.cfg.weight_core_speed {
            sys.core_capacity(core)
        } else {
            1.0
        };
        let mut tasks = std::mem::take(&mut self.tasks);
        tasks.clear();
        tasks.extend(managed_on(&self.managed, sys, core));
        self.speeds.clear();
        for &t in &tasks {
            let exec = sys.task_exec_total(t);
            let snap = snapshot_mut(&mut self.snapshots, t);
            if let Some(s) = *snap {
                let delta = exec.saturating_sub(s.exec).as_nanos();
                let window = now.saturating_since(s.time).as_nanos();
                // A zero window keeps waiting.
                let Some(speed) = decide::thread_speed(delta, window, 0, f64::INFINITY) else {
                    continue;
                };
                let mut speed = speed * core_weight;
                *snap = Some(Snapshot { exec, time: now });
                if noise > 0.0 {
                    speed *= self.rng.gauss(1.0, noise).max(0.0);
                }
                // What the balancer measured is what the trace shows.
                sys.trace_event(
                    core,
                    TraceEvent::SpeedSample {
                        task: Some(t.0),
                        speed,
                    },
                );
                self.speeds.push(speed);
            } else {
                *snap = Some(Snapshot { exec, time: now });
            }
        }
        let previous = self.per_core[slot].published;
        let speed = decide::core_speed(tasks.len(), &self.speeds, previous, core_weight);
        self.tasks = tasks;
        speed
    }

    /// The inverse-queue-length strawman (§5): core speed = 1 / nr_running
    /// at the sampling instant. Instantaneous, priority-blind, and fooled
    /// by sleeping co-runners — kept for the ablation comparison.
    fn measure_core_by_queue(&mut self, sys: &mut System, core: CoreId) -> f64 {
        let len = sys.queue_len(core);
        let mut speed = if len == 0 { 1.0 } else { 1.0 / len as f64 };
        if self.cfg.weight_core_speed {
            speed *= sys.core_capacity(core);
        }
        if self.cfg.measurement_noise > 0.0 {
            speed *= self.rng.gauss(1.0, self.cfg.measurement_noise).max(0.0);
        }
        speed
    }

    /// One activation of the balancer thread on the core at `slot` (paper
    /// §5.1 steps 1–4 plus the pull). Returns `(s_local, s_global,
    /// outcome)` for the trace.
    fn balance(&mut self, sys: &mut System, slot: usize) -> (f64, f64, ActivationOutcome) {
        let now = sys.now();
        let local = self.cores[slot];
        self.stats.borrow_mut().activations += 1;
        let me = &mut self.per_core[slot];
        me.activations += 1;
        me.block.tick();
        // Per-domain interval tiers (§5): cross-cache pulls only on every
        // `cross_cache_interval_mult`-th activation, so within-cache
        // migrations happen proportionally more often.
        let mult = u64::from(self.cfg.cross_cache_interval_mult);
        let allow_cross_cache = mult <= 1 || me.activations.is_multiple_of(mult);

        // Steps 1–2: thread speeds and local core speed.
        let s_local = self.measure_core(sys, slot);
        self.per_core[slot].published = s_local;
        // Step 3: global core speed, in ascending core order.
        let published = self
            .slot_of
            .iter()
            .flatten()
            .map(|&k| self.per_core[k].published);
        let s_global = decide::global_speed(published).unwrap_or(f64::NAN);
        // Step 4 and the victim choice.
        let mut view = SimView {
            sys: &*sys,
            bal: self,
            local,
            now: now.as_nanos(),
            span: self.cfg.interval.as_nanos() * u64::from(self.cfg.post_migration_block),
            allow_cross_cache,
            numa_blocked: 0,
        };
        let decision = decide::decide(
            &mut view,
            slot,
            self.cores.len(),
            s_local,
            s_global,
            self.cfg.speed_threshold,
        );
        let mut st = self.stats.borrow_mut();
        st.numa_blocked += view.numa_blocked;
        st.balance_attempts += u64::from(decision != Decision::BelowAverage);
        match decision {
            Decision::BelowAverage => {}
            Decision::Blocked => st.blocked_recent += 1,
            Decision::NoCandidate => st.no_candidate += 1,
            Decision::Pull { .. } => st.migrations += 1,
        }
        let Decision::Pull {
            slot: victim_slot,
            thread,
            remote_speed,
        } = decision
        else {
            return (s_local, s_global, decision.outcome());
        };
        let victim_core = self.cores[victim_slot];
        if sys.topology().common_level(victim_core, local) <= DomainLevel::Cache {
            st.migrations_within_cache += 1;
        } else {
            st.migrations_cross_cache += 1;
        }
        drop(st);

        // sched_setaffinity: immediate migration, re-pinned to the local
        // core so the kernel balancer can never undo the move.
        sys.pin_task_with_reason(
            thread,
            Some(local),
            MigrationReason::SpeedPull {
                local_speed: s_local,
                remote_speed,
                global_speed: s_global,
            },
        );
        for k in [slot, victim_slot] {
            self.per_core[k]
                .block
                .claim(now.as_nanos(), self.cfg.post_migration_block);
        }
        // Post-migration, both cores' thread sets changed: restart their
        // measurement windows so the next activation sees a full interval
        // of fresh data.
        for c in [local, victim_core] {
            for t in managed_on(&self.managed, sys, c) {
                let exec = sys.task_exec_total(t);
                *snapshot_mut(&mut self.snapshots, t) = Some(Snapshot { exec, time: now });
            }
        }
        (s_local, s_global, ActivationOutcome::Pulled)
    }

    /// Arms the next activation; returns the jitter drawn (zero when the
    /// interval is not randomized) so it can be attributed in the trace.
    fn arm_timer(&mut self, sys: &mut System, core: CoreId) -> SimDuration {
        let mut jitter = SimDuration::ZERO;
        if self.cfg.randomize_interval {
            jitter = self.rng.jitter(self.cfg.interval);
        }
        let at = sys.now() + self.cfg.interval + jitter;
        sys.set_balancer_timer(keys::SPEED | core.0 as u64, at);
        jitter
    }
}

impl Balancer for SpeedBalancer {
    fn name(&self) -> &'static str {
        "SPEED"
    }

    fn on_start(&mut self, sys: &mut System) {
        if self.cores.is_empty() {
            self.cores = sys.topology().core_ids().collect();
        }
        let idle = PerCore {
            published: 1.0,
            block: Block::default(),
            activations: 0,
        };
        self.per_core = vec![idle; self.cores.len()];
        self.slot_of = vec![None; sys.n_cores()];
        for (slot, c) in self.cores.iter().enumerate() {
            self.slot_of[c.0] = Some(slot);
        }
        // Stagger the first activations like independent threads starting.
        for slot in 0..self.cores.len() {
            let c = self.cores[slot];
            let mut delay = self.cfg.startup_delay + self.cfg.interval;
            if self.cfg.randomize_interval {
                delay += self.rng.jitter(self.cfg.interval);
            }
            let at = sys.now() + delay;
            sys.set_balancer_timer(keys::SPEED | c.0 as u64, at);
        }
    }

    /// Round-robin initial distribution over the managed cores, hard-pinned
    /// (see [`Balancer::pin_on_place`]).
    fn place_task(&mut self, sys: &mut System, task: TaskId) -> CoreId {
        let n = self.cores.len();
        for off in 0..n {
            let c = self.cores[(self.next_rr + off) % n];
            if sys.task_may_run_on(task, c) {
                self.next_rr = (self.next_rr + off + 1) % n;
                // Start the measurement window at spawn.
                let exec = sys.task_exec_total(task);
                let now = sys.now();
                *snapshot_mut(&mut self.snapshots, task) = Some(Snapshot { exec, time: now });
                return c;
            }
        }
        sys.first_allowed_core(task)
    }

    fn pin_on_place(&mut self, sys: &mut System, task: TaskId) -> bool {
        is_managed(&self.managed, sys, task)
    }

    fn on_timer(&mut self, sys: &mut System, key: u64) {
        if keys::tag(key) != keys::SPEED {
            return;
        }
        let core = CoreId(keys::index(key));
        if let Some(&Some(slot)) = self.slot_of.get(core.0) {
            let (local, global, outcome) = self.balance(sys, slot);
            let jitter = self.arm_timer(sys, core);
            sys.trace_event(
                core,
                TraceEvent::BalancerActivation {
                    policy: "SPEED",
                    local,
                    global,
                    outcome,
                    jitter,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedbal_machine::{uniform, CostModel};
    use speedbal_sched::{Directive, SchedConfig, ScriptProgram, SpawnSpec};

    fn spmd_compute(total: SimDuration) -> Box<dyn speedbal_sched::Program> {
        Box::new(ScriptProgram::new(vec![Directive::Compute(total)]))
    }

    fn build(n_cores: usize, seed: u64) -> (System, SpeedStatsHandle) {
        let bal = SpeedBalancer::with_config(SpeedBalancerConfig::exact(), seed);
        let stats = bal.stats_handle();
        let sys = System::new(
            uniform(n_cores),
            SchedConfig::default(),
            CostModel::free(),
            Box::new(bal),
            seed,
        );
        (sys, stats)
    }

    #[test]
    fn round_robin_pinned_placement() {
        let (mut sys, _) = build(4, 1);
        let g = sys.new_group();
        for i in 0..8 {
            let t = sys.spawn(SpawnSpec::new(
                spmd_compute(SimDuration::from_millis(1)),
                format!("t{i}"),
                g,
            ));
            assert_eq!(sys.task_core(t), CoreId(i % 4));
            assert_eq!(sys.task_pinned(t), Some(CoreId(i % 4)));
        }
    }

    #[test]
    fn three_on_two_beats_static_balance() {
        // The paper's running example. Static: 2 s of work per thread, two
        // threads share core 0 => 4 s makespan (speed 0.5). Speed
        // balancing approaches the ideal 0.75 speed => ~2.67 s.
        let (mut sys, stats) = build(2, 7);
        let g = sys.new_group();
        for i in 0..3 {
            sys.spawn(SpawnSpec::new(
                spmd_compute(SimDuration::from_secs(2)),
                format!("t{i}"),
                g,
            ));
        }
        let done = sys
            .run_until_group_done(g, SimTime::from_secs(60))
            .expect("must finish");
        let secs = done.as_secs_f64();
        assert!(
            secs < 3.4,
            "speed balancing should beat the static 4.0 s, got {secs}"
        );
        assert!(secs >= 2.6, "cannot beat the 8/3 s fair bound, got {secs}");
        assert!(stats.borrow().migrations > 0, "must have migrated");
    }

    #[test]
    fn balanced_load_triggers_no_migrations() {
        // 2 threads on 2 cores: perfectly balanced; the threshold must
        // suppress every pull.
        let (mut sys, stats) = build(2, 3);
        let g = sys.new_group();
        for i in 0..2 {
            sys.spawn(SpawnSpec::new(
                spmd_compute(SimDuration::from_secs(1)),
                format!("t{i}"),
                g,
            ));
        }
        sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
        assert_eq!(
            stats.borrow().migrations,
            0,
            "balanced queues must not migrate"
        );
    }

    #[test]
    fn noise_alone_does_not_cause_migrations() {
        // Same balanced setup but with measurement noise enabled: T_s=0.9
        // absorbs it.
        let cfg = SpeedBalancerConfig {
            measurement_noise: 0.03,
            ..Default::default()
        };
        let bal = SpeedBalancer::with_config(cfg, 11);
        let stats = bal.stats_handle();
        let mut sys = System::new(
            uniform(4),
            SchedConfig::default(),
            CostModel::free(),
            Box::new(bal),
            11,
        );
        let g = sys.new_group();
        for i in 0..4 {
            sys.spawn(SpawnSpec::new(
                spmd_compute(SimDuration::from_secs(2)),
                format!("t{i}"),
                g,
            ));
        }
        sys.run_until_group_done(g, SimTime::from_secs(30)).unwrap();
        assert_eq!(stats.borrow().migrations, 0);
    }

    #[test]
    fn at_most_one_migration_per_activation() {
        let (mut sys, stats) = build(4, 13);
        let g = sys.new_group();
        for i in 0..9 {
            sys.spawn(SpawnSpec::new(
                spmd_compute(SimDuration::from_secs(1)),
                format!("t{i}"),
                g,
            ));
        }
        sys.run_until_group_done(g, SimTime::from_secs(60)).unwrap();
        let s = stats.borrow();
        assert!(s.migrations > 0);
        assert!(
            s.migrations <= s.activations,
            "one pull per activation max: {} > {}",
            s.migrations,
            s.activations
        );
    }

    #[test]
    fn numa_blocking_confines_migrations() {
        use speedbal_machine::barcelona;
        let bal = SpeedBalancer::with_config(SpeedBalancerConfig::exact(), 17);
        let stats = bal.stats_handle();
        let mut sys = System::new(
            barcelona(),
            SchedConfig::default(),
            CostModel::default(),
            Box::new(bal),
            17,
        );
        let g = sys.new_group();
        // 17 threads on 16 cores: one slow core somewhere; with NUMA
        // blocking, only same-node cores may pull from it.
        let mut tasks = Vec::new();
        for i in 0..17 {
            tasks.push(sys.spawn(SpawnSpec::new(
                spmd_compute(SimDuration::from_secs(1)),
                format!("t{i}"),
                g,
            )));
        }
        let homes: Vec<_> = tasks
            .iter()
            .map(|t| sys.topology().node_of(sys.task_core(*t)))
            .collect();
        sys.run_until_group_done(g, SimTime::from_secs(60)).unwrap();
        // No task ever ended up outside its home node.
        for (t, home) in tasks.iter().zip(homes) {
            assert_eq!(
                sys.topology().node_of(sys.task_core(*t)),
                home,
                "task {t:?} crossed a NUMA boundary"
            );
        }
        let _ = stats.borrow();
    }

    #[test]
    fn managed_filter_ignores_other_groups() {
        let bal = SpeedBalancer::with_config(SpeedBalancerConfig::exact(), 19)
            .managing(vec![GroupId(0)], vec![CoreId(0), CoreId(1)]);
        let stats = bal.stats_handle();
        let mut sys = System::new(
            uniform(2),
            SchedConfig::default(),
            CostModel::free(),
            Box::new(bal),
            19,
        );
        let managed = sys.new_group();
        let other = sys.new_group();
        assert_eq!(managed, GroupId(0));
        // An unmanaged hog pinned to core 0.
        sys.spawn(
            SpawnSpec::new(spmd_compute(SimDuration::from_secs(4)), "hog", other).pin(CoreId(0)),
        );
        // Two managed threads: the one sharing with the hog is slow.
        for i in 0..2 {
            sys.spawn(SpawnSpec::new(
                spmd_compute(SimDuration::from_secs(1)),
                format!("t{i}"),
                managed,
            ));
        }
        sys.run_until_group_done(managed, SimTime::from_secs(60))
            .unwrap();
        // The balancer moved only managed threads; the hog stayed pinned.
        assert!(stats.borrow().migrations > 0);
        assert_eq!(sys.task_core(speedbal_sched::TaskId(0)), CoreId(0));
    }

    #[test]
    fn exec_time_metric_handles_priorities_queue_length_does_not() {
        // §5: the exec-time definition "captures different task priorities
        // ... without requiring any special cases", whereas inverse queue
        // length "requires weighting threads by priorities". A *nice*d
        // (low-weight) co-runner barely slows its core — queue length
        // reads 2 and misclassifies the core as half speed, causing
        // unnecessary migrations; exec time reads the real ~0.9 share and
        // stays put.
        use crate::config::SpeedMetric;
        use speedbal_apps::CpuHog;

        let run = |metric: SpeedMetric| -> (f64, u64) {
            let cfg = SpeedBalancerConfig {
                metric,
                measurement_noise: 0.0,
                ..Default::default()
            };
            let bal = SpeedBalancer::with_config(cfg, 7)
                .managing(vec![GroupId(0)], (0..3).map(CoreId).collect());
            let stats = bal.stats_handle();
            let mut sys = System::new(
                uniform(3),
                SchedConfig::default(),
                CostModel::free(),
                Box::new(bal),
                7,
            );
            let managed = sys.new_group();
            let other = sys.new_group();
            // Low-priority hog (weight 128 vs the default 1024): its
            // co-runner still gets ~89% of core 0.
            sys.spawn(
                speedbal_sched::SpawnSpec::new(Box::new(CpuHog::forever()), "hog", other)
                    .pin(CoreId(0))
                    .weight(128),
            );
            for i in 0..3 {
                sys.spawn(speedbal_sched::SpawnSpec::new(
                    spmd_compute(SimDuration::from_secs(2)),
                    format!("t{i}"),
                    managed,
                ));
            }
            let done = sys
                .run_until_group_done(managed, SimTime::from_secs(60))
                .unwrap()
                .as_secs_f64();
            let migrations = stats.borrow().migrations;
            (done, migrations)
        };
        let (exec_t, exec_m) = run(SpeedMetric::ExecTime);
        let (queue_t, queue_m) = run(SpeedMetric::InverseQueueLength);
        // Exec-time reads a ~0.9 share (slice-granularity jitter may let a
        // few windows dip below the threshold); queue-length reads a flat
        // 0.5 and churns far more.
        assert!(
            queue_m > 2 * exec_m && queue_m > 0,
            "queue-length ({queue_m} migrations) must churn far more than exec-time ({exec_m})"
        );
        assert!(
            exec_t <= queue_t * 1.03,
            "exec-time metric ({exec_t}) must not lose to queue-length ({queue_t})"
        );
    }

    #[test]
    fn cross_cache_interval_tiers() {
        use speedbal_machine::tigerton;
        // Tigerton restricted to 4 cores = two L2 pairs. With an
        // effectively infinite multiplier, cross-cache pulls never become
        // eligible: every migration stays within a cache pair.
        let cfg = SpeedBalancerConfig {
            cross_cache_interval_mult: u32::MAX,
            measurement_noise: 0.0,
            ..Default::default()
        };
        let bal = SpeedBalancer::with_config(cfg, 23);
        let stats = bal.stats_handle();
        let mut sys = System::new(
            tigerton().restrict(4),
            speedbal_sched::SchedConfig::default(),
            CostModel::free(),
            Box::new(bal),
            23,
        );
        let g = sys.new_group();
        for i in 0..9 {
            sys.spawn(speedbal_sched::SpawnSpec::new(
                spmd_compute(SimDuration::from_secs(2)),
                format!("t{i}"),
                g,
            ));
        }
        sys.run_until_group_done(g, SimTime::from_secs(120))
            .unwrap();
        let s = stats.borrow();
        assert_eq!(
            s.migrations_cross_cache, 0,
            "cross-cache pulls must be gated out"
        );
        // And the default (mult = 1) does use cross-cache pulls.
        let bal = SpeedBalancer::with_config(SpeedBalancerConfig::exact(), 23);
        let stats = bal.stats_handle();
        let mut sys = System::new(
            tigerton().restrict(4),
            speedbal_sched::SchedConfig::default(),
            CostModel::free(),
            Box::new(bal),
            23,
        );
        let g = sys.new_group();
        for i in 0..9 {
            sys.spawn(speedbal_sched::SpawnSpec::new(
                spmd_compute(SimDuration::from_secs(2)),
                format!("t{i}"),
                g,
            ));
        }
        sys.run_until_group_done(g, SimTime::from_secs(120))
            .unwrap();
        assert!(
            stats.borrow().migrations_cross_cache > 0,
            "uniform intervals should cross cache groups"
        );
    }

    #[test]
    fn zero_window_holds_previous_published_speed() {
        // After a migration resets both cores' snapshots, an activation can
        // see every window at zero width. Publishing the idle 1.0 there
        // would inflate the global average; the measurement must hold the
        // previously published value instead.
        let bal = SpeedBalancer::with_config(SpeedBalancerConfig::exact(), 29);
        let mut bal = bal;
        let mut sys = System::new(
            uniform(2),
            SchedConfig::default(),
            CostModel::free(),
            Box::new(speedbal_sched::NullBalancer::new()),
            29,
        );
        let g = sys.new_group();
        let tasks: Vec<TaskId> = (0..2)
            .map(|i| {
                sys.spawn(
                    SpawnSpec::new(spmd_compute(SimDuration::from_secs(10)), format!("t{i}"), g)
                        .pin(CoreId(0)),
                )
            })
            .collect();
        bal.on_start(&mut sys);
        sys.run_until(SimTime::from_millis(100));
        bal.balance(&mut sys, 0);
        sys.run_until(SimTime::from_millis(200));
        bal.balance(&mut sys, 0);
        let published = bal.per_core[0].published;
        // Two tasks sharing the core: each gets ~half the window.
        assert!(
            (published - 0.5).abs() < 0.05,
            "expected ~0.5, got {published}"
        );
        // Reset every snapshot to a zero-width window at `now`, as the
        // post-migration path does, and measure again: the loaded core must
        // hold its published speed, not jump to the idle 1.0.
        let now = sys.now();
        for &t in &tasks {
            let exec = sys.task_exec_total(t);
            *snapshot_mut(&mut bal.snapshots, t) = Some(Snapshot { exec, time: now });
        }
        let held = bal.measure_core(&mut sys, 0);
        assert!(
            (held - published).abs() < 1e-12,
            "zero-width windows must hold the published {published}, got {held}"
        );
    }

    #[test]
    fn tie_break_does_not_starve_high_cores() {
        // 7 threads on 4 cores, noise-free: every 2-task core publishes
        // *exactly* 0.5, so victim-core selection comes down to the
        // tie-break. The old fixed low-index-first scan resolved every tie
        // toward core 0, so the tasks round-robined onto the last slow
        // core never saw a fast queue (interval jitter cannot break an
        // exact tie). The ring-order scan must rotate every task through
        // a fast (1-task) queue.
        let (mut sys, stats) = build(4, 5);
        let g = sys.new_group();
        let tasks: Vec<speedbal_sched::TaskId> = (0..7)
            .map(|i| {
                sys.spawn(SpawnSpec::new(
                    spmd_compute(SimDuration::from_secs(3600)),
                    format!("t{i}"),
                    g,
                ))
            })
            .collect();
        let mut fast_seen = [false; 7];
        for sample in 0..=160u64 {
            sys.run_until(SimTime::ZERO + SimDuration::from_millis(25) * sample);
            let mut counts = [0u32; 4];
            for &t in &tasks {
                counts[sys.task_core(t).0] += 1;
            }
            for (i, &t) in tasks.iter().enumerate() {
                if counts[sys.task_core(t).0] == 1 {
                    fast_seen[i] = true;
                }
            }
        }
        assert!(stats.borrow().migrations > 0);
        assert!(
            fast_seen.iter().all(|&f| f),
            "tasks starved off fast queues: {fast_seen:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let (mut sys, stats) = build(4, seed);
            let g = sys.new_group();
            for i in 0..7 {
                sys.spawn(SpawnSpec::new(
                    spmd_compute(SimDuration::from_secs(1)),
                    format!("t{i}"),
                    g,
                ));
            }
            let done = sys.run_until_group_done(g, SimTime::from_secs(60)).unwrap();
            let migrations = stats.borrow().migrations;
            (done, migrations)
        };
        assert_eq!(run(5), run(5));
    }
}
