//! The simulation workloads: their frozen run lists, one run stepped and
//! timed from outside the simulator, and the per-run fingerprint.

use crate::stats::Fnv;
use crate::timed::{HookHandle, TimedBalancer};
use speedbal_apps::{ServerApp, ServerConfig, SpmdApp, SpmdConfig, WaitMode};
use speedbal_balancers::{CompositeBalancer, Dwrr, LinuxLoadBalancer};
use speedbal_core::{SpeedBalancer, SpeedBalancerConfig};
use speedbal_harness::experiments::suite_core_counts;
use speedbal_harness::scenario::{Machine, Policy, Scenario};
use speedbal_machine::{CoreId, CostModel};
use speedbal_sched::trace::{export_chrome_to, render_summary};
use speedbal_sched::{Balancer, GroupId, SchedConfig, System};
use speedbal_sim::{SimDuration, SimTime};
use speedbal_workloads::{cg_b, web};
use std::io;
use std::time::Instant;

/// Simulated-time budget of one run; a run that has not finished by then
/// counts as failed.
const DEADLINE: SimDuration = SimDuration::from_secs(600);

/// Run-length scale of `spmd-barrier`.
const SPMD_SCALE: f64 = 0.07;
/// Run-length scale of `spmd-traced` (export and summary dominate, so the
/// runs are shorter): 60-90 simulated ms, three or more activations of
/// every core's balancer at `FAST_INTERVAL`, with migrations in every run.
const TRACED_SCALE: f64 = 0.008;
/// SPEED balance interval of `wide-lockstep` and `spmd-traced`, not
/// randomized, so short runs still activate the balancer.
const FAST_INTERVAL: SimDuration = SimDuration::from_millis(20);
/// Runs in one cycle of every simulation workload's run list. The runs of
/// a cycle differ in length, so the median and the 90th percentile each
/// fall inside one kind of run rather than in the host's noise.
pub const CYCLE: usize = 9;
/// Threads of `wide-lockstep`, on a uniform 128-core machine, and its
/// run lengths as multiples of `WIDE_SCALE`.
const WIDE_THREADS: usize = 192;
const WIDE_CORES: usize = 128;
const WIDE_SCALE: f64 = 0.13;
const WIDE_LENGTHS: [f64; CYCLE] = [0.5, 0.625, 0.75, 0.875, 1.0, 1.125, 1.25, 1.375, 1.5];
/// `serve-openloop`: workers, cores, generation window, and the offered
/// loads it cycles through (each under SPEED, LOAD and DWRR).
const SERVE_WORKERS: usize = 16;
const SERVE_CORES: usize = 8;
const SERVE_WINDOW_MS: u64 = 5_000;
const SERVE_RHOS: [f64; 3] = [0.5, 0.7, 0.9];

/// The four workloads that step the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    SpmdBarrier,
    WideLockstep,
    ServeOpenloop,
    SpmdTraced,
}

#[derive(Debug, Clone)]
pub enum AppKind {
    Spmd(SpmdConfig),
    Server(ServerConfig),
}

/// Everything one run needs; a pure function of (workload, index, seed).
/// Machine and policy use the harness's descriptions, so a run converts
/// to a harness scenario one to one.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub seed: u64,
    pub machine: Machine,
    /// The first `cores` cores of the machine; 0 = all of them.
    pub cores: usize,
    /// `SpeedWith`, `Load` or `Dwrr`.
    pub policy: Policy,
    pub app: AppKind,
    pub traced: bool,
}

impl SimWorkload {
    /// Run `index` of the workload's fixed run list under `seed`. The
    /// scheduler seed of run `i` is `seed + i`, the harness's repeat rule.
    pub fn run_spec(self, index: u64, seed: u64) -> RunSpec {
        let seed = seed.wrapping_add(index);
        let fast = || SpeedBalancerConfig {
            interval: FAST_INTERVAL,
            randomize_interval: false,
            ..Default::default()
        };
        let spmd = |scale: f64, speed: SpeedBalancerConfig, traced: bool| RunSpec {
            seed,
            machine: Machine::Tigerton,
            cores: suite_core_counts()[index as usize % CYCLE],
            policy: Policy::SpeedWith(speed),
            app: AppKind::Spmd(cg_b().spmd(16, WaitMode::Yield, scale)),
            traced,
        };
        match self {
            SimWorkload::SpmdBarrier => spmd(SPMD_SCALE, SpeedBalancerConfig::default(), false),
            SimWorkload::SpmdTraced => spmd(TRACED_SCALE, fast(), true),
            SimWorkload::WideLockstep => RunSpec {
                seed,
                machine: Machine::Uniform(WIDE_CORES),
                cores: 0,
                policy: Policy::SpeedWith(fast()),
                app: AppKind::Spmd(cg_b().spmd(
                    WIDE_THREADS,
                    WaitMode::Yield,
                    WIDE_SCALE * WIDE_LENGTHS[index as usize % CYCLE],
                )),
                traced: false,
            },
            SimWorkload::ServeOpenloop => RunSpec {
                seed,
                machine: Machine::Uniform(SERVE_CORES),
                cores: 0,
                policy: [
                    Policy::SpeedWith(SpeedBalancerConfig::default()),
                    Policy::Load,
                    Policy::Dwrr,
                ][index as usize % 3]
                    .clone(),
                app: AppKind::Server(web(
                    SERVE_WORKERS,
                    SERVE_CORES,
                    SERVE_RHOS[index as usize / 3 % 3],
                    SimDuration::from_millis(SERVE_WINDOW_MS),
                )),
                traced: false,
            },
        }
    }
}

impl RunSpec {
    /// The same run as a one-repeat harness scenario, whose outcome must
    /// equal the benchmark's own stepping of it.
    pub fn scenario(&self) -> Scenario {
        let (machine, policy) = (self.machine.clone(), self.policy.clone());
        let s = match &self.app {
            AppKind::Spmd(app) => Scenario::new(machine, self.cores, policy, app.clone()),
            AppKind::Server(cfg) => Scenario::server_only(machine, self.cores, policy, cfg.clone()),
        };
        s.seed(self.seed).repeats(1)
    }
}

/// Counters for the two wrapped balancer layers: `core` is the speed
/// balancer, `base` the kernel-side policy (Linux or DWRR).
#[derive(Clone, Default)]
pub struct Hooks {
    pub core: HookHandle,
    pub base: HookHandle,
}

fn wrap<B: Balancer + 'static>(b: B, hook: Option<&HookHandle>) -> Box<dyn Balancer> {
    match hook {
        Some(h) => Box::new(TimedBalancer::new(b, h.clone())),
        None => Box::new(b),
    }
}

/// Server-side results of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerOut {
    pub generated: u64,
    pub completed: u64,
    pub dropped: u64,
    pub p99_ns: u64,
}

/// Trace-side results of a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceOut {
    pub records: u64,
    /// `Migrate` and `BalancerActivation` records.
    pub migrate_records: u64,
    pub activation_records: u64,
    pub bytes: u64,
    pub take_ns: u64,
    pub export_ns: u64,
    pub summary_ns: u64,
}

/// What one run produced and how long each phase took on the host.
#[derive(Debug, Clone, Default)]
pub struct RunOut {
    /// Topology, balancer, `System::new`, app spawn (request generation
    /// included).
    pub setup_ns: u64,
    pub system_new_ns: u64,
    pub spawn_ns: u64,
    /// The benchmark's `System::step` loop.
    pub step_ns: u64,
    /// Result collection: server quantiles, trace take/export/summary.
    pub post_ns: u64,
    pub steps: u64,
    /// Completion time (the deadline when timed out).
    pub sim_ns: u64,
    pub migrations: u64,
    pub core_switches: u64,
    pub timed_out: bool,
    /// Speed balancer activations and pulls (0 without SPEED).
    pub activations: u64,
    pub speed_migrations: u64,
    pub server: Option<ServerOut>,
    pub trace: Option<TraceOut>,
}

impl RunOut {
    pub fn total_ns(&self) -> u64 {
        self.setup_ns + self.step_ns + self.post_ns
    }

    /// The scheduling outcome, which tracing and hook timing must not
    /// change. Steps are left out: tracing arms sampler events.
    pub fn outcome(&self) -> u64 {
        let s = self.server.unwrap_or_default();
        Fnv::default()
            .word(self.sim_ns)
            .word(self.migrations)
            .word(s.completed)
            .word(s.dropped)
            .word(s.p99_ns)
            .finish()
    }

    /// Per-run fingerprint: (steps, completion ns, migrations, server
    /// completed / dropped / p99).
    pub fn fingerprint(&self) -> u64 {
        Fnv::default()
            .word(self.steps)
            .word(self.outcome())
            .finish()
    }
}

/// An `io::Write` that only counts bytes: export cost without disk I/O.
struct CountingSink(u64);

impl io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Builds, steps and post-processes one run. With `hooks`, every balancer
/// is wrapped in a [`TimedBalancer`]; the schedule is unchanged.
pub fn run(spec: &RunSpec, hooks: Option<&Hooks>) -> RunOut {
    let app_group = GroupId(0);
    let t0 = Instant::now();
    let full = spec.machine.topology();
    let topo = if spec.cores == 0 {
        full
    } else {
        full.restrict(spec.cores)
    };
    let mut speed_stats = None;
    let balancer: Box<dyn Balancer> = match &spec.policy {
        Policy::SpeedWith(cfg) => {
            let cores: Vec<CoreId> = topo.core_ids().collect();
            let speed =
                SpeedBalancer::with_config(cfg.clone(), spec.seed).managing(vec![app_group], cores);
            speed_stats = Some(speed.stats_handle());
            Box::new(CompositeBalancer::new(
                vec![app_group],
                wrap(speed, hooks.map(|h| &h.core)),
                wrap(LinuxLoadBalancer::new(), hooks.map(|h| &h.base)),
            ))
        }
        Policy::Load => wrap(LinuxLoadBalancer::new(), hooks.map(|h| &h.base)),
        Policy::Dwrr => wrap(Dwrr::new(), hooks.map(|h| &h.base)),
        other => unreachable!("no workload runs {other:?}"),
    };
    let t_new = Instant::now();
    let mut sys = System::new(
        topo,
        SchedConfig::default(),
        CostModel::default(),
        balancer,
        spec.seed,
    );
    let system_new_ns = ns_since(t_new);
    if spec.traced {
        sys.enable_tracing();
    }
    let group = sys.new_group();
    assert_eq!(group, app_group, "the app group is the first group");
    let t_spawn = Instant::now();
    let server_app = match &spec.app {
        AppKind::Spmd(cfg) => {
            SpmdApp::spawn(&mut sys, group, cfg, None);
            None
        }
        AppKind::Server(cfg) => Some(ServerApp::spawn(&mut sys, group, cfg, spec.seed).0),
    };
    let spawn_ns = ns_since(t_spawn);
    let setup_ns = ns_since(t0);

    let deadline = SimTime::ZERO + DEADLINE;
    let t_step = Instant::now();
    let mut steps: u64 = 0;
    while sys.group_finished_at(group).is_none() {
        if sys.now() > deadline || !sys.step() {
            break;
        }
        steps += 1;
    }
    let step_ns = ns_since(t_step);

    let t_post = Instant::now();
    let finished = sys.group_finished_at(group);
    let server = server_app.map(|app| {
        let m = app.metrics();
        let p = [m.latency.p50(), m.latency.p99(), m.latency.p999()];
        ServerOut {
            generated: m.generated,
            completed: m.completed,
            dropped: m.dropped(),
            p99_ns: std::hint::black_box(p)[1],
        }
    });
    let trace = spec.traced.then(|| {
        let t = Instant::now();
        let buf = sys.take_trace().expect("tracing was enabled for this run");
        let take_ns = ns_since(t);
        let t = Instant::now();
        let mut sink = CountingSink(0);
        export_chrome_to(&buf, &mut sink).expect("a counting sink cannot fail");
        let export_ns = ns_since(t);
        let t = Instant::now();
        std::hint::black_box(render_summary(&buf));
        TraceOut {
            records: buf.len() as u64,
            migrate_records: buf.counters().migrations,
            activation_records: buf.counters().balancer_activations,
            bytes: sink.0,
            take_ns,
            export_ns,
            summary_ns: ns_since(t),
        }
    });
    let (activations, speed_migrations) = speed_stats
        .map(|s| {
            let s = s.borrow();
            (s.activations, s.migrations)
        })
        .unwrap_or((0, 0));
    let core_switches = (0..sys.n_cores())
        .map(|c| sys.core_switches(CoreId(c)))
        .sum();
    let post_ns = ns_since(t_post);
    RunOut {
        setup_ns,
        system_new_ns,
        spawn_ns,
        step_ns,
        post_ns,
        steps,
        sim_ns: finished.map_or(DEADLINE.as_nanos(), |t| t.as_nanos()),
        migrations: sys.total_migrations(),
        core_switches,
        timed_out: finished.is_none(),
        activations,
        speed_migrations,
        server,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [SimWorkload; 4] = [
        SimWorkload::SpmdBarrier,
        SimWorkload::WideLockstep,
        SimWorkload::ServeOpenloop,
        SimWorkload::SpmdTraced,
    ];

    /// Run `index` of `w` shrunk to a few simulated milliseconds.
    fn tiny(w: SimWorkload, index: u64, seed: u64) -> RunSpec {
        let mut spec = w.run_spec(index, seed);
        spec.app = match spec.app {
            AppKind::Spmd(cfg) => AppKind::Spmd(cg_b().spmd(cfg.threads, WaitMode::Yield, 0.004)),
            AppKind::Server(cfg) => AppKind::Server(ServerConfig {
                window: SimDuration::from_millis(100),
                ..cfg
            }),
        };
        spec
    }

    fn fingerprints(w: SimWorkload, seed: u64) -> Vec<u64> {
        (0..3)
            .map(|i| {
                let out = run(&tiny(w, i, seed), None);
                assert!(!out.timed_out && out.steps > 0, "{w:?} run {i} failed");
                out.fingerprint()
            })
            .collect()
    }

    #[test]
    fn a_cycle_covers_every_suite_core_count() {
        assert_eq!(suite_core_counts().len(), CYCLE);
    }

    #[test]
    fn same_seed_same_fingerprint_other_seed_other_fingerprint() {
        for w in ALL {
            let a = fingerprints(w, 11);
            assert_eq!(a, fingerprints(w, 11), "{w:?} is not deterministic");
            assert_ne!(a, fingerprints(w, 12), "{w:?} ignores its seed");
        }
    }

    #[test]
    fn timing_the_hooks_leaves_every_run_unchanged() {
        for w in ALL {
            for i in 0..3 {
                let spec = tiny(w, i, 5);
                let hooks = Hooks::default();
                let plain = run(&spec, None);
                let timed = run(&spec, Some(&hooks));
                assert_eq!(plain.fingerprint(), timed.fingerprint(), "{w:?} run {i}");
                assert!(
                    hooks.base.borrow().total().calls > 0,
                    "{w:?}: base hooks ran"
                );
                if matches!(spec.policy, Policy::SpeedWith(_)) {
                    assert!(
                        hooks.core.borrow().place.calls > 0,
                        "{w:?}: SPEED placed the threads"
                    );
                }
            }
        }
    }

    /// At its frozen size every `spmd-traced` run activates SPEED and
    /// migrates, so its trace holds the largest records.
    #[test]
    fn every_traced_run_records_activations_and_migrations() {
        for i in 0..CYCLE as u64 {
            let out = run(&SimWorkload::SpmdTraced.run_spec(i, 7), None);
            let t = out.trace.expect("spmd-traced runs are traced");
            assert!(t.activation_records > 0, "run {i}: no BalancerActivation");
            assert!(t.migrate_records > 0, "run {i}: no Migrate");
        }
    }

    #[test]
    fn scenario_reaches_the_same_outcome_as_the_benchmark() {
        for w in ALL {
            let spec = tiny(w, 1, 3);
            let own = run(&spec, None);
            let res = speedbal_harness::scenario::run_scenario(&spec.scenario());
            let secs = SimTime::from_nanos(own.sim_ns).as_secs_f64();
            assert_eq!(res.completion.values, vec![secs], "{w:?}");
            assert_eq!(res.migrations.values, vec![own.migrations as f64], "{w:?}");
        }
    }
}
