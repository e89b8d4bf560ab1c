//! Behavioral tests of the simulated multicore system: timing fidelity,
//! fair sharing, synchronization directives, migration and determinism.

use speedbal_machine::{asymmetric, barcelona, nehalem, uniform, CoreId, CostModel};
use speedbal_sched::{
    Directive, NullBalancer, Program, ProgramCtx, SchedConfig, ScriptProgram, SpawnSpec, System,
    TaskState,
};
use speedbal_sim::{SimDuration, SimTime};

fn ms(x: u64) -> SimDuration {
    SimDuration::from_millis(x)
}

fn mk_system(n_cores: usize) -> System {
    System::new(
        uniform(n_cores),
        SchedConfig::default(),
        CostModel::free(),
        Box::new(NullBalancer::new()),
        42,
    )
}

fn compute_task(amount: SimDuration) -> Box<dyn Program> {
    Box::new(ScriptProgram::new(vec![Directive::Compute(amount)]))
}

#[test]
fn single_task_runs_to_completion_in_exact_time() {
    let mut sys = mk_system(1);
    let g = sys.new_group();
    let t = sys.spawn(SpawnSpec::new(compute_task(ms(10)), "solo", g));
    let done = sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
    assert_eq!(done, SimTime::from_millis(10));
    assert_eq!(sys.task_state(t), TaskState::Exited);
    assert_eq!(sys.task_exec_total(t), ms(10));
}

#[test]
fn two_tasks_share_one_core_fairly() {
    let mut sys = mk_system(1);
    let g = sys.new_group();
    let a = sys.spawn(SpawnSpec::new(compute_task(ms(30)), "a", g));
    let b = sys.spawn(SpawnSpec::new(compute_task(ms(30)), "b", g));
    let done = sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
    // Total CPU demand 60 ms on one core.
    assert_eq!(done, SimTime::from_millis(60));
    // Each got its own 30 ms of CPU.
    assert_eq!(sys.task_exec_total(a), ms(30));
    assert_eq!(sys.task_exec_total(b), ms(30));
    // Both finish near the end (fair interleaving, not FIFO): the first
    // finisher cannot finish before ~half the makespan plus a slice.
    let ea = sys.task_exited_at(a).unwrap();
    let eb = sys.task_exited_at(b).unwrap();
    let first = ea.min(eb);
    assert!(
        first >= SimTime::from_millis(54),
        "fair sharing should keep both running till near the end, got {first}"
    );
}

#[test]
fn three_tasks_two_cores_static_split() {
    // The paper's running example: 3 threads, 2 cores, no balancing.
    // Round-robin placement puts 2 on core 0, 1 on core 1.
    let mut sys = mk_system(2);
    let g = sys.new_group();
    for i in 0..3 {
        sys.spawn(SpawnSpec::new(compute_task(ms(40)), format!("t{i}"), g));
    }
    let done = sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
    // Core 0 has two 40 ms tasks plus... placement: t0->c0, t1->c1, t2->c0.
    // Slow core does 80 ms of work; the app runs at the slow core's pace.
    assert_eq!(done, SimTime::from_millis(80));
}

#[test]
fn faster_core_computes_proportionally_faster() {
    let topo = asymmetric(1, 1, 2.0); // core 0 at 2.0x, core 1 at 1.0x
    let mut sys = System::new(
        topo,
        SchedConfig::default(),
        CostModel::free(),
        Box::new(NullBalancer::new()),
        1,
    );
    let g = sys.new_group();
    let fast = sys.spawn(SpawnSpec::new(compute_task(ms(20)), "fast", g).pin(CoreId(0)));
    let slow = sys.spawn(SpawnSpec::new(compute_task(ms(20)), "slow", g).pin(CoreId(1)));
    sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
    assert_eq!(sys.task_exited_at(fast).unwrap(), SimTime::from_millis(10));
    assert_eq!(sys.task_exited_at(slow).unwrap(), SimTime::from_millis(20));
}

#[test]
fn sleep_for_rounds_up_to_timer_granularity() {
    let mut sys = mk_system(1);
    let g = sys.new_group();
    let t = sys.spawn(SpawnSpec::new(
        Box::new(ScriptProgram::new(vec![
            Directive::SleepFor(SimDuration::from_micros(1)), // usleep(1)
            Directive::Compute(ms(1)),
        ])),
        "sleeper",
        g,
    ));
    let done = sys.run_until_group_done(g, SimTime::from_secs(1)).unwrap();
    // usleep(1) wakes after a timer tick (1 ms), then 1 ms of compute.
    assert_eq!(done, SimTime::from_millis(2));
    assert_eq!(sys.task_exec_total(t), ms(1), "sleep is not CPU time");
    assert_eq!(sys.task_wakeups(t), 1);
}

/// Producer computes then sets a condition; consumer blocks on it.
struct Producer {
    work: SimDuration,
    cond: speedbal_sched::CondId,
    step: usize,
}

impl Program for Producer {
    fn next(&mut self, ctx: &mut ProgramCtx<'_>) -> Directive {
        self.step += 1;
        match self.step {
            1 => Directive::Compute(self.work),
            2 => {
                ctx.set_cond(self.cond);
                Directive::Exit
            }
            _ => Directive::Exit,
        }
    }
}

fn waiter(cond: speedbal_sched::CondId, style: &str) -> Box<dyn Program> {
    let d = match style {
        "spin" => Directive::SpinUntil(cond),
        "yield" => Directive::YieldUntil(cond),
        "block" => Directive::BlockUntil(cond),
        _ => panic!(),
    };
    Box::new(ScriptProgram::new(vec![d, Directive::Compute(ms(1))]))
}

#[test]
fn blocked_waiter_wakes_when_condition_set() {
    let mut sys = mk_system(2);
    let g = sys.new_group();
    let cond = sys.alloc_cond();
    sys.spawn(SpawnSpec::new(
        Box::new(Producer {
            work: ms(10),
            cond,
            step: 0,
        }),
        "producer",
        g,
    ));
    let w = sys.spawn(SpawnSpec::new(waiter(cond, "block"), "waiter", g));
    let done = sys.run_until_group_done(g, SimTime::from_secs(1)).unwrap();
    assert_eq!(done, SimTime::from_millis(11));
    // The blocked waiter consumed only its own 1 ms of compute.
    assert_eq!(sys.task_exec_total(w), ms(1));
}

#[test]
fn spinning_waiter_burns_cpu_while_waiting() {
    let mut sys = mk_system(2);
    let g = sys.new_group();
    let cond = sys.alloc_cond();
    sys.spawn(SpawnSpec::new(
        Box::new(Producer {
            work: ms(10),
            cond,
            step: 0,
        }),
        "producer",
        g,
    ));
    let w = sys.spawn(SpawnSpec::new(waiter(cond, "spin"), "spinner", g));
    let done = sys.run_until_group_done(g, SimTime::from_secs(1)).unwrap();
    assert_eq!(done, SimTime::from_millis(11));
    // Spinner burned the full 10 ms wait plus its 1 ms compute: that is
    // exactly what /proc would report, and what speed balancing measures.
    assert_eq!(sys.task_exec_total(w), ms(11));
}

#[test]
fn yield_waiter_cedes_cpu_to_corunner() {
    // Producer and yield-waiter SHARE one core. The yielding waiter must
    // give nearly all CPU to the producer (unlike a spinner).
    let mut sys = mk_system(1);
    let g = sys.new_group();
    let cond = sys.alloc_cond();
    let p = sys.spawn(SpawnSpec::new(
        Box::new(Producer {
            work: ms(10),
            cond,
            step: 0,
        }),
        "producer",
        g,
    ));
    let w = sys.spawn(SpawnSpec::new(waiter(cond, "yield"), "yielder", g));
    let done = sys.run_until_group_done(g, SimTime::from_secs(1)).unwrap();
    // Makespan ≈ 10 ms producer + 1 ms waiter + yield overhead.
    assert!(
        done <= SimTime::from_millis(12),
        "yielding should not serialize with the producer, got {done}"
    );
    let yielded_cpu = sys.task_exec_total(w);
    assert!(
        yielded_cpu <= ms(2),
        "yield loop should burn little CPU, burned {yielded_cpu}"
    );
    assert_eq!(sys.task_exec_total(p), ms(10));
}

#[test]
fn yield_waiter_stays_on_run_queue() {
    // The paper's key observation: a yielding thread still counts as load.
    let mut sys = mk_system(2);
    let g = sys.new_group();
    let cond = sys.alloc_cond();
    sys.spawn(SpawnSpec::new(waiter(cond, "yield"), "yielder", g).pin(CoreId(0)));
    sys.run_until(SimTime::from_millis(5));
    assert_eq!(sys.queue_len(CoreId(0)), 1, "yielder counts toward load");
    // A blocked waiter does NOT count.
    let cond2 = sys.alloc_cond();
    sys.spawn(SpawnSpec::new(waiter(cond2, "block"), "blocker", g).pin(CoreId(1)));
    sys.run_until(SimTime::from_millis(10));
    assert_eq!(sys.queue_len(CoreId(1)), 0, "blocked waiter is off-queue");
}

#[test]
fn spin_then_block_times_out_and_sleeps() {
    // Intel OpenMP KMP_BLOCKTIME behaviour: spin 5 ms, then sleep.
    let mut sys = mk_system(2);
    let g = sys.new_group();
    let cond = sys.alloc_cond();
    let w = sys.spawn(SpawnSpec::new(
        Box::new(ScriptProgram::new(vec![
            Directive::SpinThenBlock { cond, spin: ms(5) },
            Directive::Compute(ms(1)),
        ])),
        "kmp",
        g,
    ));
    sys.spawn(SpawnSpec::new(
        Box::new(Producer {
            work: ms(20),
            cond,
            step: 0,
        }),
        "producer",
        g,
    ));
    let done = sys.run_until_group_done(g, SimTime::from_secs(1)).unwrap();
    assert_eq!(done, SimTime::from_millis(21));
    // Burned exactly the 5 ms spin window plus its compute.
    assert_eq!(sys.task_exec_total(w), ms(6));
}

#[test]
fn spin_then_block_released_during_spin_window() {
    let mut sys = mk_system(2);
    let g = sys.new_group();
    let cond = sys.alloc_cond();
    let w = sys.spawn(SpawnSpec::new(
        Box::new(ScriptProgram::new(vec![
            Directive::SpinThenBlock { cond, spin: ms(50) },
            Directive::Compute(ms(1)),
        ])),
        "kmp",
        g,
    ));
    sys.spawn(SpawnSpec::new(
        Box::new(Producer {
            work: ms(10),
            cond,
            step: 0,
        }),
        "producer",
        g,
    ));
    let done = sys.run_until_group_done(g, SimTime::from_secs(1)).unwrap();
    assert_eq!(done, SimTime::from_millis(11));
    assert_eq!(sys.task_exec_total(w), ms(11));
}

#[test]
fn migration_moves_running_task_immediately() {
    let mut sys = mk_system(2);
    let g = sys.new_group();
    let t = sys.spawn(SpawnSpec::new(compute_task(ms(20)), "mover", g));
    assert_eq!(sys.task_core(t), CoreId(0));
    sys.run_until(SimTime::from_millis(5));
    assert!(sys.migrate_task(t, CoreId(1)));
    assert_eq!(sys.task_core(t), CoreId(1));
    assert_eq!(sys.task_migrations(t), 1);
    assert_eq!(sys.total_migrations(), 1);
    let done = sys.run_until_group_done(g, SimTime::from_secs(1)).unwrap();
    // Free cost model: no time lost to the move.
    assert_eq!(done, SimTime::from_millis(20));
}

#[test]
fn migration_cost_stalls_the_task() {
    // Tigerton: cores 0 and 2 are in different L2 cache groups, so the
    // migration refills the full footprint (capped at the 4 MB L2).
    let topo = speedbal_machine::tigerton();
    let cost = CostModel {
        refill_bytes_per_sec: 1.0e9,
        min_migration_cost: SimDuration::from_micros(3),
        max_migration_cost: ms(2),
        numa_remote_factor: 1.0,
        smt_migration_cost: SimDuration::from_micros(1),
    };
    let mut sys = System::new(
        topo,
        SchedConfig::default(),
        cost,
        Box::new(NullBalancer::new()),
        7,
    );
    let g = sys.new_group();
    // 1 MB footprint at 1 GB/s = ~1.05 ms refill, above the 2 ms cap? No:
    // 2^20 / 1e9 s = 1.048576 ms.
    let t = sys.spawn(
        SpawnSpec::new(compute_task(ms(20)), "heavy", g)
            .rss(1 << 20)
            .pin(CoreId(0)),
    );
    sys.run_until(SimTime::from_millis(5));
    sys.pin_task(t, Some(CoreId(2)));
    let done = sys.run_until_group_done(g, SimTime::from_secs(1)).unwrap();
    // stall = 2^20 bytes / 1e9 B/s = 1_048_576 ns.
    let stall_ns = ((1u64 << 20) as f64 / 1.0e9 * 1e9).round() as u64;
    assert_eq!(
        done,
        SimTime::from_millis(20) + SimDuration::from_nanos(stall_ns),
        "one cross-cache refill stall"
    );
}

#[test]
fn migrate_rejects_bad_targets() {
    let mut sys = mk_system(2);
    let g = sys.new_group();
    let t = sys.spawn(SpawnSpec::new(compute_task(ms(1)), "x", g));
    assert!(!sys.migrate_task(t, sys.task_core(t)), "same core");
    sys.run_until_group_done(g, SimTime::from_secs(1)).unwrap();
    assert!(!sys.migrate_task(t, CoreId(1)), "exited task");
}

#[test]
fn numa_remote_memory_slows_compute() {
    let topo = barcelona();
    let cost = CostModel {
        numa_remote_factor: 2.0,
        ..CostModel::free()
    };
    let mut sys = System::new(
        topo,
        SchedConfig::default(),
        cost,
        Box::new(NullBalancer::new()),
        3,
    );
    let g = sys.new_group();
    // Starts on core 0 (node 0): home memory is node 0.
    let t = sys.spawn(SpawnSpec::new(compute_task(ms(20)), "remote", g).pin(CoreId(0)));
    sys.run_until(SimTime::from_millis(10)); // half done locally
    sys.pin_task(t, Some(CoreId(4))); // node 1: remote memory from here on
    let done = sys.run_until_group_done(g, SimTime::from_secs(1)).unwrap();
    // Remaining 10 ms of work at half rate = 20 ms more.
    assert_eq!(done, SimTime::from_millis(30));
}

#[test]
fn smt_sibling_contention_slows_both() {
    let topo = nehalem(); // smt_busy_factor = 0.6
    let mut sys = System::new(
        topo,
        SchedConfig::default(),
        CostModel::free(),
        Box::new(NullBalancer::new()),
        5,
    );
    let g = sys.new_group();
    // Cores 0 and 1 are SMT siblings on nehalem.
    let a = sys.spawn(SpawnSpec::new(compute_task(ms(6)), "a", g).pin(CoreId(0)));
    let b = sys.spawn(SpawnSpec::new(compute_task(ms(6)), "b", g).pin(CoreId(1)));
    let done = sys.run_until_group_done(g, SimTime::from_secs(1)).unwrap();
    // Both run at 0.6x while together: 6 ms of work takes 10 ms.
    assert_eq!(sys.task_exited_at(a).unwrap(), SimTime::from_millis(10));
    assert_eq!(sys.task_exited_at(b).unwrap(), SimTime::from_millis(10));
    assert_eq!(done, SimTime::from_millis(10));

    // Alone, the same work takes 6 ms.
    let g2 = sys.new_group();
    let c = sys.spawn(SpawnSpec::new(compute_task(ms(6)), "c", g2).pin(CoreId(2)));
    let d2 = sys.run_until_group_done(g2, SimTime::from_secs(1)).unwrap();
    assert_eq!(d2, sys.task_exited_at(c).unwrap(),);
    let solo = sys.task_exited_at(c).unwrap() - SimTime::from_millis(10);
    assert_eq!(solo, SimDuration::from_millis(6));
}

#[test]
fn determinism_same_seed_same_history() {
    let run = |seed: u64| -> (SimTime, u64, Vec<SimDuration>) {
        let mut sys = mk_system(4);
        let g = sys.new_group();
        let mut tasks = Vec::new();
        for i in 0..9 {
            tasks.push(sys.spawn(SpawnSpec::new(
                Box::new(ScriptProgram::new(vec![
                    Directive::Compute(ms(7)),
                    Directive::SleepFor(ms(2)),
                    Directive::Compute(ms(5)),
                ])),
                format!("t{i}"),
                g,
            )));
        }
        let done = sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
        let _ = seed;
        let execs = tasks.iter().map(|t| sys.task_exec_total(*t)).collect();
        (done, sys.events_processed(), execs)
    };
    let a = run(9);
    let b = run(9);
    assert_eq!(a, b);
}

#[test]
fn balancer_timer_fires() {
    use speedbal_sched::Balancer;
    struct TimerBal {
        fired: std::rc::Rc<std::cell::Cell<u32>>,
    }
    impl Balancer for TimerBal {
        fn name(&self) -> &'static str {
            "timer-test"
        }
        fn on_start(&mut self, sys: &mut System) {
            sys.set_balancer_timer(77, SimTime::from_millis(3));
        }
        fn place_task(&mut self, _sys: &mut System, _t: speedbal_sched::TaskId) -> CoreId {
            CoreId(0)
        }
        fn on_timer(&mut self, sys: &mut System, key: u64) {
            assert_eq!(key, 77);
            self.fired.set(self.fired.get() + 1);
            if self.fired.get() < 3 {
                let next = sys.now() + ms(3);
                sys.set_balancer_timer(77, next);
            }
        }
    }
    let fired = std::rc::Rc::new(std::cell::Cell::new(0));
    let mut sys = System::new(
        uniform(1),
        SchedConfig::default(),
        CostModel::free(),
        Box::new(TimerBal {
            fired: fired.clone(),
        }),
        0,
    );
    let g = sys.new_group();
    sys.spawn(SpawnSpec::new(compute_task(ms(20)), "bg", g));
    sys.run_to_quiescence();
    assert_eq!(fired.get(), 3);
}

#[test]
fn group_accounting_tracks_completion() {
    let mut sys = mk_system(2);
    let g1 = sys.new_group();
    let g2 = sys.new_group();
    sys.spawn(SpawnSpec::new(compute_task(ms(5)), "g1t", g1).pin(CoreId(0)));
    sys.spawn(SpawnSpec::new(compute_task(ms(9)), "g2t", g2).pin(CoreId(1)));
    assert_eq!(sys.group_finished_at(g1), None);
    sys.run_to_quiescence();
    assert_eq!(sys.group_finished_at(g1), Some(SimTime::from_millis(5)));
    assert_eq!(sys.group_finished_at(g2), Some(SimTime::from_millis(9)));
    assert_eq!(sys.group_tasks(g1).len(), 1);
    assert!(sys.group_live_tasks(g1).is_empty());
}

#[test]
fn exec_total_visible_mid_flight() {
    let mut sys = mk_system(1);
    let g = sys.new_group();
    let t = sys.spawn(SpawnSpec::new(compute_task(ms(100)), "long", g));
    sys.run_until(SimTime::from_millis(40));
    let exec = sys.task_exec_total(t);
    assert!(
        exec >= ms(39) && exec <= ms(41),
        "mid-flight exec should track wall time on a dedicated core, got {exec}"
    );
}

#[test]
fn cache_hot_reflects_recent_execution() {
    let mut sys = mk_system(2);
    let g = sys.new_group();
    let t = sys.spawn(SpawnSpec::new(
        Box::new(ScriptProgram::new(vec![
            Directive::Compute(ms(2)),
            Directive::SleepFor(ms(50)),
            Directive::Compute(ms(1)),
        ])),
        "hotcold",
        g,
    ));
    sys.run_until(SimTime::from_millis(3));
    // Just slept after running: still within the 5 ms cache-hot window.
    assert!(sys.is_cache_hot(t));
    sys.run_until(SimTime::from_millis(30));
    assert!(!sys.is_cache_hot(t), "cold after 28 ms asleep");
}

#[test]
fn pinned_spawns_land_on_their_core_and_round_robin_otherwise() {
    let mut sys = mk_system(4);
    let g = sys.new_group();
    let p = sys.spawn(SpawnSpec::new(compute_task(ms(1)), "p", g).pin(CoreId(2)));
    assert_eq!(sys.task_core(p), CoreId(2));
    let cores: Vec<CoreId> = (0..4)
        .map(|i| {
            let t = sys.spawn(SpawnSpec::new(compute_task(ms(1)), format!("r{i}"), g));
            sys.task_core(t)
        })
        .collect();
    assert_eq!(cores, vec![CoreId(0), CoreId(1), CoreId(2), CoreId(3)]);
}

#[test]
fn allowed_mask_restricts_placement() {
    let mut sys = mk_system(4);
    let g = sys.new_group();
    for i in 0..6 {
        let t = sys.spawn(
            SpawnSpec::new(compute_task(ms(1)), format!("m{i}"), g)
                .allow(vec![CoreId(1), CoreId(3)]),
        );
        let c = sys.task_core(t);
        assert!(c == CoreId(1) || c == CoreId(3), "mask violated: {c}");
    }
}

mod bandwidth {
    use super::*;
    use speedbal_machine::topology::{Topology, TopologySpec};

    fn bw_machine(cores: usize, streams: f64) -> Topology {
        Topology::build(&TopologySpec {
            name: "bw".into(),
            sockets: 1,
            cores_per_socket: cores,
            cores_per_cache_group: cores,
            bw_streams: streams,
            ..Default::default()
        })
    }

    fn mem_task(amount: SimDuration, mi: f64) -> SpawnSpec {
        SpawnSpec::new(
            Box::new(ScriptProgram::new(vec![Directive::Compute(amount)])),
            "mem",
            speedbal_sched::GroupId(0),
        )
        .mem(mi)
    }

    #[test]
    fn single_stream_unaffected() {
        // One memory-bound task within the capacity: full speed.
        let mut sys = System::new(
            bw_machine(2, 1.0),
            SchedConfig::default(),
            CostModel::free(),
            Box::new(NullBalancer::new()),
            1,
        );
        let g = sys.new_group();
        sys.spawn(mem_task(ms(20), 1.0));
        let _ = g;
        let done = sys
            .run_until_group_done(speedbal_sched::GroupId(0), SimTime::from_secs(10))
            .unwrap();
        assert_eq!(done, SimTime::from_millis(20));
    }

    #[test]
    fn saturated_bus_halves_two_streamers() {
        // Two fully memory-bound tasks on two cores with 1 stream of
        // bandwidth: each runs at half rate.
        let mut sys = System::new(
            bw_machine(2, 1.0),
            SchedConfig::default(),
            CostModel::free(),
            Box::new(NullBalancer::new()),
            2,
        );
        let _g = sys.new_group();
        for _ in 0..2 {
            sys.spawn(mem_task(ms(20), 1.0));
        }
        let done = sys
            .run_until_group_done(speedbal_sched::GroupId(0), SimTime::from_secs(10))
            .unwrap();
        // Rates are sampled at dispatch and resampled every 5 ms, so the
        // first stretch of the first-dispatched task runs uncontended —
        // hence the small shortfall from the exact 40 ms.
        assert!(
            done >= SimTime::from_millis(36) && done <= SimTime::from_millis(42),
            "two streams on one-stream bus should roughly halve, got {done}"
        );
    }

    #[test]
    fn compute_bound_tasks_ignore_contention() {
        let mut sys = System::new(
            bw_machine(2, 1.0),
            SchedConfig::default(),
            CostModel::free(),
            Box::new(NullBalancer::new()),
            3,
        );
        let _g = sys.new_group();
        sys.spawn(mem_task(ms(20), 1.0));
        let cpu = sys.spawn(mem_task(ms(20), 0.0));
        sys.run_until_group_done(speedbal_sched::GroupId(0), SimTime::from_secs(10))
            .unwrap();
        // The compute-bound task finished in exactly 20 ms.
        assert_eq!(sys.task_exited_at(cpu).unwrap(), SimTime::from_millis(20));
    }

    #[test]
    fn partial_intensity_scales_partially() {
        // mi = 0.5 with demand 1.0 over capacity... two tasks at mi=0.5:
        // demand = 1.0 <= 1.0 stream: no slowdown at all.
        let mut sys = System::new(
            bw_machine(2, 1.0),
            SchedConfig::default(),
            CostModel::free(),
            Box::new(NullBalancer::new()),
            4,
        );
        let _g = sys.new_group();
        for _ in 0..2 {
            sys.spawn(mem_task(ms(20), 0.5));
        }
        let done = sys
            .run_until_group_done(speedbal_sched::GroupId(0), SimTime::from_secs(10))
            .unwrap();
        assert_eq!(done, SimTime::from_millis(20));
    }

    #[test]
    fn numa_machine_has_independent_domains() {
        // Two NUMA nodes, 1 stream each: a streamer per node keeps full
        // speed; two on one node halve.
        let topo = Topology::build(&TopologySpec {
            name: "bw-numa".into(),
            sockets: 2,
            cores_per_socket: 2,
            cores_per_cache_group: 2,
            numa: true,
            bw_streams: 1.0,
            ..Default::default()
        });
        let mut sys = System::new(
            topo,
            SchedConfig::default(),
            CostModel::free(),
            Box::new(NullBalancer::new()),
            5,
        );
        let _g = sys.new_group();
        // One per node (cores 0 and 2).
        let a = sys.spawn(mem_task(ms(20), 1.0).pin(CoreId(0)));
        let b = sys.spawn(mem_task(ms(20), 1.0).pin(CoreId(2)));
        let done = sys
            .run_until_group_done(speedbal_sched::GroupId(0), SimTime::from_secs(10))
            .unwrap();
        assert_eq!(done, SimTime::from_millis(20), "separate controllers");
        let _ = (a, b);
    }
}

mod suspend_resume {
    use super::*;

    #[test]
    fn suspended_task_stops_running_and_resumes() {
        let mut sys = mk_system(1);
        let g = sys.new_group();
        let t = sys.spawn(SpawnSpec::new(compute_task(ms(20)), "s", g));
        sys.run_until(SimTime::from_millis(5));
        sys.suspend_task(t);
        assert!(sys.task_suspended(t));
        assert_eq!(sys.queue_len(CoreId(0)), 0, "off the queue while parked");
        // Time passes; the task makes no progress.
        sys.run_until(SimTime::from_millis(30));
        let exec_at_30 = sys.task_exec_total(t);
        assert!(exec_at_30 <= ms(6), "no progress while suspended");
        sys.resume_task(t);
        assert!(!sys.task_suspended(t));
        let done = sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
        // 5 ms before suspension + 25 ms parked + 15 ms to finish.
        assert_eq!(done, SimTime::from_millis(45));
    }

    #[test]
    fn suspend_is_idempotent_and_exit_safe() {
        let mut sys = mk_system(1);
        let g = sys.new_group();
        let t = sys.spawn(SpawnSpec::new(compute_task(ms(5)), "s", g));
        sys.suspend_task(t);
        sys.suspend_task(t); // no-op
        sys.resume_task(t);
        sys.resume_task(t); // no-op
        sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
        sys.suspend_task(t); // exited: no-op
        assert!(!sys.task_suspended(t) || sys.task_exited_at(t).is_some());
    }

    #[test]
    fn suspended_sleeper_stays_parked_after_wake() {
        let mut sys = mk_system(1);
        let g = sys.new_group();
        let t = sys.spawn(SpawnSpec::new(
            Box::new(ScriptProgram::new(vec![
                Directive::SleepFor(ms(10)),
                Directive::Compute(ms(5)),
            ])),
            "s",
            g,
        ));
        sys.run_until(SimTime::from_millis(2)); // now asleep
        assert_eq!(sys.task_state(t), TaskState::Blocked);
        sys.suspend_task(t); // latent while blocked
        sys.run_until(SimTime::from_millis(20)); // wake fired at 10 ms
        assert_eq!(
            sys.queue_len(CoreId(0)),
            0,
            "woken-but-suspended task must stay parked"
        );
        sys.resume_task(t);
        let done = sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
        assert_eq!(done, SimTime::from_millis(25));
    }

    #[test]
    fn migrating_a_suspended_task_keeps_it_parked() {
        let mut sys = mk_system(2);
        let g = sys.new_group();
        let t = sys.spawn(SpawnSpec::new(compute_task(ms(20)), "s", g));
        sys.run_until(SimTime::from_millis(2));
        sys.suspend_task(t);
        assert!(sys.migrate_task(t, CoreId(1)));
        assert_eq!(sys.task_core(t), CoreId(1));
        assert!(sys.task_suspended(t));
        assert_eq!(sys.queue_len(CoreId(1)), 0);
        sys.resume_task(t);
        let done = sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
        assert!(done >= SimTime::from_millis(20));
    }
}

mod migration_log {
    use super::*;

    #[test]
    fn log_records_exact_moves() {
        let mut sys = mk_system(3);
        sys.enable_tracing();
        let g = sys.new_group();
        let t = sys.spawn(SpawnSpec::new(compute_task(ms(30)), "m", g));
        sys.run_until(SimTime::from_millis(5));
        sys.migrate_task(t, CoreId(1));
        sys.run_until(SimTime::from_millis(10));
        sys.migrate_task(t, CoreId(2));
        let log = sys.migration_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].task, t);
        assert_eq!((log[0].from, log[0].to), (CoreId(0), CoreId(1)));
        assert_eq!(log[0].time, SimTime::from_millis(5));
        assert_eq!((log[1].from, log[1].to), (CoreId(1), CoreId(2)));
        assert_eq!(log[1].time, SimTime::from_millis(10));
    }

    #[test]
    fn disabled_log_is_empty() {
        let mut sys = mk_system(2);
        let g = sys.new_group();
        let t = sys.spawn(SpawnSpec::new(compute_task(ms(5)), "m", g));
        sys.migrate_task(t, CoreId(1));
        assert!(sys.migration_log().is_empty());
    }
}

/// Regression: ripping a running task off the CPU (migration/suspension)
/// must invalidate its armed boundary event. A stale live event would
/// interrupt the next dispatch after ~1 ns; combined with a contended
/// compute rate below 0.5 (1 ns of CPU rounds to zero progress) the system
/// degenerated into a nanosecond-granularity event storm.
#[test]
fn forced_deschedule_invalidates_armed_boundary() {
    use speedbal_machine::topology::{Topology, TopologySpec};
    // One-stream bus + two fully memory-bound tasks => rate 0.5 when both
    // run: exactly the regime that exposed the storm.
    let topo = Topology::build(&TopologySpec {
        name: "regress".into(),
        sockets: 1,
        cores_per_socket: 2,
        cores_per_cache_group: 2,
        bw_streams: 1.0,
        ..Default::default()
    });
    let mut sys = System::new(
        topo,
        SchedConfig::default(),
        CostModel::free(),
        Box::new(NullBalancer::new()),
        9,
    );
    let g = sys.new_group();
    let a = sys.spawn(
        SpawnSpec::new(compute_task(ms(50)), "a", g)
            .mem(1.0)
            .pin(CoreId(0)),
    );
    let b = sys.spawn(
        SpawnSpec::new(compute_task(ms(50)), "b", g)
            .mem(1.0)
            .pin(CoreId(1)),
    );
    let _ = b;
    // Interrupt the running task every simulated millisecond for a while.
    for i in 1..=40u64 {
        sys.run_until(SimTime::from_millis(i));
        let to = CoreId((i % 2) as usize);
        sys.pin_task(a, Some(to));
    }
    let done = sys
        .run_until_group_done(g, SimTime::from_secs(10))
        .expect("must finish");
    // 2x 50 ms of work at half rate (plus sampling slack).
    assert!(
        done <= SimTime::from_millis(130),
        "contended run should finish near 100 ms, got {done}"
    );
    assert!(
        sys.events_processed() < 200_000,
        "event storm regression: {} events",
        sys.events_processed()
    );
}

mod freq {
    use super::*;
    use speedbal_machine::{FreqSchedule, FreqTraceSpec};

    fn schedule(specs: &[FreqTraceSpec]) -> FreqSchedule {
        FreqSchedule::generate(specs, SimTime::from_secs(100), 7).unwrap()
    }

    #[test]
    fn step_mid_run_integrates_piecewise_exactly() {
        // Ratio 1.0 for the first 10 ms, then 0.5: a 20 ms computation
        // does 10 ms of work at full speed, then the remaining 10 ms at
        // half speed takes 20 ms of wall clock — exit at exactly 30 ms.
        let mut sys = mk_system(1);
        sys.set_freq_schedule(schedule(&[FreqTraceSpec::Steps(vec![(
            SimTime::from_millis(10),
            0.5,
        )])]));
        let g = sys.new_group();
        let t = sys.spawn(SpawnSpec::new(compute_task(ms(20)), "t", g));
        let done = sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
        assert_eq!(done, SimTime::from_millis(30));
        // Wall-clock CPU occupancy is the full 30 ms.
        assert_eq!(sys.task_exec_total(t), ms(30));
    }

    #[test]
    fn step_at_time_zero_applies_from_dispatch() {
        let mut sys = mk_system(1);
        sys.set_freq_schedule(schedule(&[FreqTraceSpec::Steps(vec![(
            SimTime::ZERO,
            0.5,
        )])]));
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute_task(ms(20)), "t", g));
        let done = sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
        assert_eq!(done, SimTime::from_millis(40));
    }

    #[test]
    fn short_trace_holds_last_ratio_for_rest_of_run() {
        // One step down to 0.5 at 5 ms and nothing after: the ratio holds
        // for the whole remaining computation.
        let mut sys = mk_system(1);
        sys.set_freq_schedule(schedule(&[FreqTraceSpec::Steps(vec![(
            SimTime::from_millis(5),
            0.5,
        )])]));
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute_task(ms(25)), "t", g));
        let done = sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
        // 5 ms at 1.0 (5 ms of work) + 20 ms of work at 0.5 (40 ms wall).
        assert_eq!(done, SimTime::from_millis(45));
    }

    #[test]
    fn constant_ratio_matches_static_speed() {
        // Constant(2.0) via the frequency layer must behave exactly like
        // a topology whose core speed is 2.0.
        let mut sys = mk_system(1);
        sys.set_freq_schedule(schedule(&[FreqTraceSpec::Constant(2.0)]));
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute_task(ms(20)), "t", g));
        let done = sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
        assert_eq!(done, SimTime::from_millis(10));
    }

    #[test]
    fn identity_schedule_changes_nothing() {
        let run = |install: bool| -> (SimTime, u64) {
            let mut sys = mk_system(2);
            if install {
                // An identity schedule (empty trace on every core) is
                // discarded: zero extra events, bit-identical history.
                sys.set_freq_schedule(schedule(&[
                    FreqTraceSpec::Steps(vec![]),
                    FreqTraceSpec::Constant(1.0),
                ]));
            }
            let g = sys.new_group();
            for i in 0..5 {
                sys.spawn(SpawnSpec::new(compute_task(ms(13)), format!("t{i}"), g));
            }
            let done = sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
            (done, sys.events_processed())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn effective_capacity_tracks_steps() {
        let mut sys = mk_system(1);
        assert_eq!(sys.core_capacity(CoreId(0)), 1.0);
        sys.set_freq_schedule(schedule(&[FreqTraceSpec::Steps(vec![(
            SimTime::from_millis(10),
            0.25,
        )])]));
        assert_eq!(sys.core_capacity(CoreId(0)), 1.0);
        let g = sys.new_group();
        sys.spawn(SpawnSpec::new(compute_task(ms(100)), "t", g));
        sys.run_until(SimTime::from_millis(12));
        assert_eq!(sys.core_capacity(CoreId(0)), 0.25);
        assert_eq!(sys.freq_ratio(CoreId(0)), 0.25);
    }

    #[test]
    fn throttle_run_is_deterministic() {
        let run = || -> (SimTime, u64) {
            let mut sys = mk_system(2);
            sys.set_freq_schedule(
                FreqSchedule::generate(
                    &vec![
                        FreqTraceSpec::Throttle {
                            boost: 1.2,
                            floor: 0.6,
                            step: 0.2,
                            ratchet: ms(20),
                            dwell: ms(40),
                        };
                        2
                    ],
                    SimTime::from_secs(100),
                    99,
                )
                .unwrap(),
            );
            let g = sys.new_group();
            for i in 0..4 {
                sys.spawn(SpawnSpec::new(compute_task(ms(50)), format!("t{i}"), g));
            }
            let done = sys.run_until_group_done(g, SimTime::from_secs(10)).unwrap();
            (done, sys.events_processed())
        };
        let a = run();
        assert_eq!(a, run());
        // Throttling below 1.0 on average must cost wall-clock time
        // relative to the unthrottled 100 ms two-core makespan.
        assert!(
            a.0 > SimTime::from_millis(100),
            "throttle must slow the run"
        );
    }
}
