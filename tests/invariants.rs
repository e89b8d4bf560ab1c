//! Property-based invariants of the simulator and the balancers: whatever
//! the workload or policy, conservation laws and algorithmic guarantees
//! must hold.

use proptest::prelude::*;
use speedbal::prelude::*;

/// A small random SPMD scenario.
#[derive(Debug, Clone)]
struct SmallScenario {
    cores: usize,
    threads: usize,
    phases: u64,
    work_us: u64,
    wait: WaitMode,
    policy: Policy,
    seed: u64,
}

fn wait_strategy() -> impl Strategy<Value = WaitMode> {
    prop_oneof![
        Just(WaitMode::Spin),
        Just(WaitMode::Yield),
        Just(WaitMode::Block),
        Just(WaitMode::SpinThenBlock(SimDuration::from_millis(5))),
    ]
}

fn policy_strategy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Pinned),
        Just(Policy::Load),
        Just(Policy::Speed),
        Just(Policy::Dwrr),
        Just(Policy::Ule),
    ]
}

fn scenario_strategy() -> impl Strategy<Value = SmallScenario> {
    (
        2usize..=6,
        1usize..=10,
        1u64..=8,
        500u64..=20_000,
        wait_strategy(),
        policy_strategy(),
        0u64..=u64::MAX,
    )
        .prop_map(
            |(cores, threads, phases, work_us, wait, policy, seed)| SmallScenario {
                cores,
                threads,
                phases,
                work_us,
                wait,
                policy,
                seed,
            },
        )
}

fn run_small(s: &SmallScenario) -> (speedbal::harness::ScenarioResult, f64) {
    let app = SpmdConfig {
        threads: s.threads,
        phases: s.phases,
        work_per_phase: SimDuration::from_micros(s.work_us),
        imbalance: 0.0,
        wait: s.wait,
        rss_per_thread: 1 << 20,
        mem_intensity: 0.0,
    };
    let total_work_secs =
        SimDuration::from_micros(s.work_us * s.phases * s.threads as u64).as_secs_f64();
    let res = run_scenario(
        &Scenario::new(Machine::Uniform(s.cores), 0, s.policy.clone(), app)
            .repeats(1)
            .seed(s.seed),
    );
    (res, total_work_secs)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48, ..ProptestConfig::default()
    })]

    /// Completion time is bounded below by perfect parallelism (work
    /// conservation) and above by fully serial execution plus blocking
    /// overheads — no policy can create or destroy work.
    #[test]
    fn completion_is_work_bounded(s in scenario_strategy()) {
        let (res, total_work) = run_small(&s);
        prop_assert_eq!(res.timeouts, 0, "scenario must finish");
        let t = res.completion.values[0];
        let lower = total_work / s.cores.min(s.threads) as f64;
        prop_assert!(
            t >= lower * 0.999,
            "completion {t} below the work-conservation bound {lower} ({s:?})"
        );
        // Upper bound: serial execution plus one sleep-tick per phase per
        // thread plus migration stalls — generous 3x + 50 ms slack.
        let upper = total_work * 3.0 + 0.05 + 0.002 * (s.phases * s.threads as u64) as f64;
        prop_assert!(
            t <= upper,
            "completion {t} above the sanity bound {upper} ({s:?})"
        );
    }

    /// Identical scenarios (including seed) replay identically, whatever
    /// the policy.
    #[test]
    fn replay_determinism(s in scenario_strategy()) {
        let (a, _) = run_small(&s);
        let (b, _) = run_small(&s);
        prop_assert_eq!(a.completion.values, b.completion.values);
        prop_assert_eq!(a.migrations.values, b.migrations.values);
    }

    /// PINNED never migrates anything.
    #[test]
    fn pinned_never_migrates(mut s in scenario_strategy()) {
        s.policy = Policy::Pinned;
        let (res, _) = run_small(&s);
        prop_assert_eq!(res.migrations.values[0], 0.0);
    }

    /// One thread per core (or fewer) with spin barriers is perfectly
    /// parallel under every policy — balanced runs must not be disturbed.
    #[test]
    fn balanced_runs_stay_optimal(
        cores in 2usize..=6,
        phases in 1u64..=6,
        work_us in 1_000u64..=20_000,
        policy in policy_strategy(),
        seed in 0u64..=u64::MAX,
    ) {
        let s = SmallScenario {
            cores,
            threads: cores,
            phases,
            work_us,
            wait: WaitMode::Spin,
            policy,
            seed,
        };
        let (res, total_work) = run_small(&s);
        let ideal = total_work / cores as f64;
        let t = res.completion.values[0];
        // The +30 ms slack covers LOAD's start-up behaviour: simultaneous
        // spawns see stale idleness data (paper footnote 1) and may pile
        // onto one core until the first balancing ticks spread them.
        prop_assert!(
            t <= ideal * 1.15 + 0.030,
            "balanced run {t} strayed from ideal {ideal} ({s:?})"
        );
    }

    /// Front-end to the `speedbal-check` differential harness: replaying
    /// any small scenario with tracing on, with the runtime invariant
    /// checker on, and (for SPEED) with the reference whole-table balancer
    /// scan must be bit-identical to the plain run — the observational
    /// paths may never perturb the simulation.
    #[test]
    fn observational_paths_replay_bit_identically(s in scenario_strategy()) {
        let app = SpmdConfig {
            threads: s.threads,
            phases: s.phases.min(3),
            work_per_phase: SimDuration::from_micros(s.work_us),
            imbalance: 0.0,
            wait: s.wait,
            rss_per_thread: 1 << 20,
            mem_intensity: 0.0,
        };
        let sc = Scenario::new(Machine::Uniform(s.cores), 0, s.policy.clone(), app)
            .repeats(1)
            .seed(s.seed);
        let failures = speedbal::check::diff_repeat(&sc, 0);
        prop_assert!(failures.is_empty(), "differential failures: {failures:?}");
    }
}

/// The proptest regression that `balanced_runs_stay_optimal` once minimized
/// to (still replayed from `invariants.proptest-regressions`, and promoted
/// here so the case is documented and survives regression-file pruning):
/// 2 spin-waiting threads on 2 cores, a single 1177 µs phase, under LOAD.
/// Both threads spawn at t=0 and LOAD's placement saw stale idleness data
/// (paper footnote 1), piling both onto core 0; with one sub-interval phase
/// there is no balancing tick left to spread them, so the run came in at
/// ~2× ideal — beyond the bound before it gained the +30 ms start-up slack.
#[test]
fn load_startup_pileup_stays_within_slack() {
    let s = SmallScenario {
        cores: 2,
        threads: 2,
        phases: 1,
        work_us: 1177,
        wait: WaitMode::Spin,
        policy: Policy::Load,
        seed: 1499061424425350044,
    };
    let (res, total_work) = run_small(&s);
    assert_eq!(res.timeouts, 0);
    let ideal = total_work / 2.0;
    let t = res.completion.values[0];
    assert!(
        t <= ideal * 1.15 + 0.030,
        "LOAD start-up pile-up regressed past the slack: {t} vs ideal {ideal}"
    );
}

/// The runtime invariant checker must actually run when enabled (the CI
/// check job and `SPEEDBAL_CHECK=1` rely on it being live, not a no-op).
#[test]
fn invariant_checker_is_live() {
    let app = ep().spmd(3, WaitMode::Yield, 0.05);
    let sc = Scenario::new(Machine::Uniform(2), 0, Policy::Speed, app)
        .repeats(1)
        .checked(true);
    let (out, sys) = speedbal::harness::run_repeat_detailed(&sc, 0, false);
    assert!(!out.timed_out);
    assert!(sys.invariant_checks_enabled());
    assert!(
        sys.invariant_checks_run() > 0,
        "checked scenario must exercise the invariant checker"
    );
}

/// The speed balancer's own invariants, on a deterministic stress case.
#[test]
fn speed_balancer_algorithmic_guarantees() {
    use speedbal::core::SpeedBalancer;
    use speedbal::machine::CostModel;

    for seed in 0..8u64 {
        let bal = SpeedBalancer::with_config(SpeedBalancerConfig::default(), seed);
        let stats = bal.stats_handle();
        let mut sys = System::new(
            uniform(4),
            SchedConfig::default(),
            CostModel::default(),
            Box::new(bal),
            seed,
        );
        let g = sys.new_group();
        let spec = ep_modified(
            SimDuration::from_millis(30),
            SimDuration::from_millis(600),
            9,
        );
        let tasks = SpmdApp::spawn(&mut sys, g, &spec.spmd(9, WaitMode::Yield, 1.0), None);
        sys.run_until_group_done(g, SimTime::from_secs(60))
            .expect("finish");
        let s = stats.borrow();
        // At most one pull per activation, by construction.
        assert!(s.migrations <= s.activations);
        // No hot-potato tasks: least-migrated-victim selection keeps the
        // spread of per-task migration counts tight.
        let mut migs: Vec<u64> = tasks.iter().map(|t| sys.task_migrations(*t)).collect();
        migs.sort_unstable();
        let max = *migs.last().unwrap();
        let min = migs[0];
        assert!(
            max - min <= 4,
            "migration counts should stay tight (seed {seed}): {migs:?}"
        );
        // Tasks remain hard-pinned at all times under speed balancing.
        for t in &tasks {
            assert!(sys.task_pinned(*t).is_some());
        }
    }
}

/// Post-migration block: the same core is never the source or destination
/// of two speed-balancer migrations within two balance intervals — checked
/// directly against the system's migration log.
#[test]
fn post_migration_block_is_respected() {
    use speedbal::core::SpeedBalancer;
    use speedbal::machine::CostModel;

    // Force an imbalanced, churn-prone workload.
    let cfg = SpeedBalancerConfig::exact();
    let interval = cfg.interval;
    let block = interval * u64::from(cfg.post_migration_block);
    let bal = SpeedBalancer::with_config(cfg, 3);
    let stats = bal.stats_handle();
    let mut sys = System::new(
        uniform(3),
        SchedConfig::default(),
        CostModel::free(),
        Box::new(bal),
        3,
    );
    sys.enable_tracing();
    let g = sys.new_group();
    let spec = ep_modified(SimDuration::from_secs(5), SimDuration::from_secs(5), 7);
    SpmdApp::spawn(&mut sys, g, &spec.spmd(7, WaitMode::Yield, 0.2), None);
    sys.run_until_group_done(g, SimTime::from_secs(120))
        .unwrap();
    assert!(
        stats.borrow().migrations > 0,
        "churn-prone case must migrate"
    );
    // Every pair of migrations sharing an endpoint core must be separated
    // by at least the post-migration block.
    let log = sys.migration_log();
    for (i, a) in log.iter().enumerate() {
        for b in &log[i + 1..] {
            let share_core = a.from == b.from || a.from == b.to || a.to == b.from || a.to == b.to;
            if share_core {
                let gap = b.time.saturating_since(a.time);
                assert!(
                    gap >= block,
                    "migrations {a:?} and {b:?} share a core only {gap} apart (< {block})"
                );
            }
        }
    }
}
