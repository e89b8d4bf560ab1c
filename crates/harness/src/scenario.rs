//! One experiment cell: machine × policy × application × competitors,
//! repeated with distinct seeds.

use serde::{Deserialize, Serialize};
use speedbal_apps::{
    BatchJob, CpuHog, ServerApp, ServerConfig, ServerMetrics, SpmdApp, SpmdConfig,
};
use speedbal_balancers::{
    CompositeBalancer, Dwrr, LinuxLoadBalancer, Pinned, UleBalancer, UleConfig,
};
use speedbal_core::{SpeedBalancer, SpeedBalancerConfig};
use speedbal_machine::{
    asymmetric, barcelona, nehalem, tigerton, uniform, CoreId, CostModel, FreqSchedule, Topology,
};
use speedbal_metrics::RepeatStats;
use speedbal_sched::{Balancer, GroupId, SchedConfig, SpawnSpec, System};
use speedbal_sim::{OrderingPolicy, SimDuration, SimTime};
use speedbal_trace::{export_chrome_to, TraceBuffer, TraceConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Which machine model to run on (Table 1 presets plus generics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Machine {
    Tigerton,
    Barcelona,
    Nehalem,
    Uniform(usize),
    Asymmetric {
        fast: usize,
        slow: usize,
        factor: f64,
    },
    /// Static big.LITTLE preset: 4 P-cores (1.0) + 8 E-cores (0.55),
    /// constant frequency (`speedbal_workloads::big_little_4p8e`).
    BigLittle4p8e,
    /// 8 equal cores, two following a deterministic turbo square wave
    /// (`speedbal_workloads::turbo_2p`).
    Turbo2p,
    /// 8 equal cores under the open-loop thermal-throttle ratchet
    /// (`speedbal_workloads::throttling`).
    Throttle,
}

impl Machine {
    pub fn topology(&self) -> Topology {
        match self {
            Machine::Tigerton => tigerton(),
            Machine::Barcelona => barcelona(),
            Machine::Nehalem => nehalem(),
            Machine::Uniform(n) => uniform(*n),
            Machine::Asymmetric { fast, slow, factor } => asymmetric(*fast, *slow, *factor),
            Machine::BigLittle4p8e => speedbal_workloads::big_little_4p8e().topology,
            Machine::Turbo2p => speedbal_workloads::turbo_2p().topology,
            Machine::Throttle => speedbal_workloads::throttling().topology,
        }
    }

    /// Per-core frequency-trace specs for the asymmetric presets; `None`
    /// for the constant-frequency Table 1 machines. Specs always cover the
    /// *full* machine: the harness materializes them once per repeat with
    /// a policy-independent seed and then restricts to the `taskset`'d
    /// cores, so a core's trace never depends on how many cores are used.
    pub fn freq_specs(&self) -> Option<Vec<speedbal_machine::FreqTraceSpec>> {
        match self {
            Machine::BigLittle4p8e => Some(speedbal_workloads::big_little_4p8e().freq),
            Machine::Turbo2p => Some(speedbal_workloads::turbo_2p().freq),
            Machine::Throttle => Some(speedbal_workloads::throttling().freq),
            _ => None,
        }
    }

    pub fn label(&self) -> String {
        match self {
            Machine::Tigerton => "tigerton".into(),
            Machine::Barcelona => "barcelona".into(),
            Machine::Nehalem => "nehalem".into(),
            Machine::Uniform(n) => format!("uniform{n}"),
            Machine::Asymmetric { fast, slow, factor } => {
                format!("asym{fast}x{factor}+{slow}")
            }
            Machine::BigLittle4p8e => "4p8e".into(),
            Machine::Turbo2p => "turbo2p".into(),
            Machine::Throttle => "throttle".into(),
        }
    }
}

/// Balancing policy under test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Static round-robin placement, no migrations (paper: PINNED).
    Pinned,
    /// Linux queue-length load balancing (paper: LOAD).
    Load,
    /// Speed balancing for the application + Linux for everything else
    /// (paper: SPEED), with the default configuration.
    Speed,
    /// Speed balancing with an explicit configuration (interval sweeps,
    /// NUMA-blocking ablations, ...).
    SpeedWith(SpeedBalancerConfig),
    /// Distributed Weighted Round-Robin (paper: DWRR).
    Dwrr,
    /// FreeBSD-ULE push migration, default configuration (paper: FreeBSD).
    Ule,
    /// ULE with `steal_thresh=1` (the tuning the paper attempted).
    UleTuned,
}

impl Policy {
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Pinned => "PINNED",
            Policy::Load => "LOAD",
            Policy::Speed | Policy::SpeedWith(_) => "SPEED",
            Policy::Dwrr => "DWRR",
            Policy::Ule => "FreeBSD",
            Policy::UleTuned => "FreeBSD-tuned",
        }
    }
}

/// Competing workloads sharing the machine (§6.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Competitor {
    /// A compute-intensive task using no memory, pinned to a core
    /// (Figure 5 pins it to core 0).
    CpuHog { core: usize },
    /// `make -j tasks`: that many parallel jobs, each a chain of
    /// compile-sized CPU bursts and short I/O sleeps (Figure 6).
    MakeJ { tasks: u32, jobs_per_task: u32 },
}

/// A fully specified experiment cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    pub machine: Machine,
    /// Run the workload on the first `cores` CPUs (`taskset`-style);
    /// 0 = the whole machine.
    pub cores: usize,
    pub policy: Policy,
    pub app: SpmdConfig,
    /// Optional open-loop server workload (see `speedbal_apps::server`).
    /// With `app.threads == 0` the server *is* the application: its
    /// workers join the primary group (the one SPEED manages) and the
    /// cell completes when the last admitted request has been served.
    /// With SPMD threads present this is a mixed-tenancy cell: the SPMD
    /// app stays primary (its completion time is the reported number)
    /// and the server runs alongside in its own group, drained to
    /// completion afterwards so its latency metrics cover every request.
    pub server: Option<ServerConfig>,
    pub competitors: Vec<Competitor>,
    pub cost: CostModel,
    pub repeats: usize,
    pub seed: u64,
    /// Per-repeat simulated-time budget.
    pub deadline: SimDuration,
    /// Record a structured event trace for every repeat (see
    /// `speedbal-trace`). Tracing never changes scheduling decisions, only
    /// run time and memory.
    pub trace: bool,
    /// Fraction of high-volume trace records (context switches, speed
    /// samples) retained in the trace ring; `1.0` keeps everything. The
    /// sampling decision is deterministic per repeat seed, and dropped
    /// records stay covered by the trace aggregates, so multi-GB sweeps
    /// can be thinned without losing the summary or determinism.
    pub trace_sample: f64,
    /// Run every repeat with the scheduler's runtime invariant checker
    /// enabled (see `System::enable_invariant_checks`). Like tracing this
    /// is strictly observational — a violation panics, a clean run is
    /// bit-identical to an unchecked one — but it costs O(tasks) per event,
    /// so it defaults to off.
    pub check: bool,
    /// Same-instant event ordering for every repeat (see
    /// `speedbal_sim::ordering`). The default [`OrderingPolicy::Fifo`] is
    /// the committed bit-identical baseline; non-FIFO policies are the
    /// schedule-space fuzzer's lever and never feed committed results.
    pub ordering: OrderingPolicy,
}

impl Scenario {
    /// A dedicated-machine scenario with default cost model, 10 repeats.
    pub fn new(machine: Machine, cores: usize, policy: Policy, app: SpmdConfig) -> Scenario {
        Scenario {
            machine,
            cores,
            policy,
            app,
            server: None,
            competitors: Vec::new(),
            cost: CostModel::default(),
            repeats: 10,
            seed: 0xB0A710AD,
            deadline: SimDuration::from_secs(600),
            trace: false,
            trace_sample: 1.0,
            check: false,
            ordering: OrderingPolicy::Fifo,
        }
    }

    /// A pure server cell: no SPMD threads, the server workers are the
    /// primary (policy-managed) group and completion means "last admitted
    /// request served".
    pub fn server_only(
        machine: Machine,
        cores: usize,
        policy: Policy,
        server: ServerConfig,
    ) -> Scenario {
        Scenario::new(
            machine,
            cores,
            policy,
            SpmdConfig::new(0, 0, SimDuration::ZERO),
        )
        .server(server)
    }

    /// Attaches an open-loop server workload (see [`Scenario::server`]).
    pub fn server(mut self, cfg: ServerConfig) -> Scenario {
        self.server = Some(cfg);
        self
    }

    pub fn competitors(mut self, c: Vec<Competitor>) -> Scenario {
        self.competitors = c;
        self
    }

    pub fn repeats(mut self, r: usize) -> Scenario {
        self.repeats = r;
        self
    }

    pub fn seed(mut self, s: u64) -> Scenario {
        self.seed = s;
        self
    }

    pub fn cost(mut self, c: CostModel) -> Scenario {
        self.cost = c;
        self
    }

    pub fn traced(mut self, on: bool) -> Scenario {
        self.trace = on;
        self
    }

    /// Sets the trace sampling rate (see [`Scenario::trace_sample`]).
    /// Clamped to `(0, 1]`-ish sanity by the CLI; the harness accepts any
    /// rate in `[0, 1]`.
    pub fn trace_sampled(mut self, rate: f64) -> Scenario {
        self.trace_sample = rate.clamp(0.0, 1.0);
        self
    }

    pub fn checked(mut self, on: bool) -> Scenario {
        self.check = on;
        self
    }

    /// Overrides the same-instant event ordering (see
    /// [`Scenario::ordering`]; default FIFO).
    pub fn ordered(mut self, policy: OrderingPolicy) -> Scenario {
        self.ordering = policy;
        self
    }

    /// Overrides the simulated-time deadline (default 600 s). Also bounds
    /// the horizon over which frequency schedules are materialized.
    pub fn deadline(mut self, d: SimDuration) -> Scenario {
        self.deadline = d;
        self
    }

    /// A short file-system-friendly label: machine, cores, policy.
    pub fn label(&self) -> String {
        let cores = if self.cores == 0 {
            "allcores".to_string()
        } else {
            format!("c{}", self.cores)
        };
        format!("{}-{}-{}", self.machine.label(), cores, self.policy.label())
    }
}

/// Aggregated results of a scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Application completion times, seconds, one per repeat.
    pub completion: RepeatStats,
    /// Total migrations per repeat.
    pub migrations: RepeatStats,
    /// Repeats that hit the deadline without finishing.
    pub timeouts: usize,
    /// Tail-latency statistics, present when the scenario carried a
    /// server workload. Each field holds one value per repeat.
    pub server: Option<ServerStats>,
}

impl ScenarioResult {
    /// Speedup of `serial` seconds of work against the mean completion.
    pub fn speedup(&self, serial: f64) -> f64 {
        self.completion.speedup(serial)
    }
}

/// Per-repeat server latency statistics, aggregated across repeats the
/// same way `completion`/`migrations` are. Percentiles are computed per
/// repeat from that repeat's log-scaled latency histogram (deterministic
/// to the bit, ≤ ~3% relative bucket error — see `speedbal-metrics`),
/// then summarized over repeats.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Median end-to-end request latency, milliseconds.
    pub p50_ms: RepeatStats,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: RepeatStats,
    /// 99.9th-percentile request latency, milliseconds.
    pub p999_ms: RepeatStats,
    /// Mean queueing delay (arrival → dispatch), milliseconds.
    pub queue_mean_ms: RepeatStats,
    /// Mean wall-clock service time per subtask, milliseconds.
    pub service_mean_ms: RepeatStats,
    /// Requests fully completed within the run.
    pub completed: RepeatStats,
    /// Requests dropped (queue-full + shed-timeout).
    pub dropped: RepeatStats,
}

impl ServerStats {
    fn push(&mut self, m: &ServerMetrics) {
        self.p50_ms.push(m.latency.p50() as f64 / 1e6);
        self.p99_ms.push(m.latency.p99() as f64 / 1e6);
        self.p999_ms.push(m.latency.p999() as f64 / 1e6);
        self.queue_mean_ms.push(m.queue_delay.mean_ns() / 1e6);
        self.service_mean_ms.push(m.service_wall.mean_ns() / 1e6);
        self.completed.push(m.completed as f64);
        self.dropped.push(m.dropped() as f64);
    }
}

fn build_balancer(
    policy: &Policy,
    topo: &Topology,
    app_group: GroupId,
    seed: u64,
) -> Box<dyn Balancer> {
    match policy {
        Policy::Pinned => Box::new(Pinned::new()),
        Policy::Load => Box::new(LinuxLoadBalancer::new()),
        Policy::Speed => build_speed(SpeedBalancerConfig::default(), topo, app_group, seed),
        Policy::SpeedWith(cfg) => build_speed(cfg.clone(), topo, app_group, seed),
        Policy::Dwrr => Box::new(Dwrr::new()),
        Policy::Ule => Box::new(UleBalancer::new()),
        Policy::UleTuned => Box::new(UleBalancer::with_config(UleConfig {
            steal_threshold: 1,
            ..UleConfig::default()
        })),
    }
}

fn build_speed(
    cfg: SpeedBalancerConfig,
    topo: &Topology,
    app_group: GroupId,
    seed: u64,
) -> Box<dyn Balancer> {
    let cores: Vec<CoreId> = topo.core_ids().collect();
    let speed = SpeedBalancer::with_config(cfg, seed).managing(vec![app_group], cores);
    Box::new(CompositeBalancer::new(
        vec![app_group],
        Box::new(speed),
        Box::new(LinuxLoadBalancer::new()),
    ))
}

/// What one repeat produced.
#[derive(Debug)]
pub struct RepeatOutcome {
    /// Application completion time, seconds (the deadline if it timed out).
    pub completion_secs: f64,
    /// Total migrations observed over the repeat.
    pub migrations: f64,
    /// Did the repeat hit the deadline without finishing?
    pub timed_out: bool,
    /// Server latency metrics, when the scenario carried a server workload.
    pub server: Option<ServerMetrics>,
    /// The event trace, when tracing was requested.
    pub trace: Option<TraceBuffer>,
}

/// Runs one repeat of a scenario. Deterministic: repeat `r` uses seed
/// `scenario.seed + r` regardless of which repeats run around it, and
/// tracing is strictly observational, so the outcome is identical with
/// `traced` on or off.
pub fn run_repeat(s: &Scenario, r: usize, traced: bool) -> RepeatOutcome {
    run_repeat_detailed(s, r, traced).0
}

/// Salt mixed into the repeat seed for frequency-schedule generation so
/// the trace RNG stream is decoupled from the scheduler/balancer streams.
const FREQ_SALT: u64 = 0x4652_4551; // "FREQ"

/// Like [`run_repeat`], but also hands back the finished [`System`] so
/// callers (the differential harness in `speedbal-check`, post-mortem
/// tools) can inspect per-task execution totals, per-core busy time and
/// the migration log after the run. The trace buffer has already been
/// detached into the outcome.
pub fn run_repeat_detailed(s: &Scenario, r: usize, traced: bool) -> (RepeatOutcome, System) {
    let seed = s.seed.wrapping_add(r as u64);
    let topo = {
        let full = s.machine.topology();
        if s.cores == 0 || s.cores >= full.n_cores() {
            full
        } else {
            full.restrict(s.cores)
        }
    };
    let app_group = GroupId(0);
    let balancer = build_balancer(&s.policy, &topo, app_group, seed);
    let mut sys = System::new(topo, SchedConfig::default(), s.cost.clone(), balancer, seed);
    if let Some(specs) = s.machine.freq_specs() {
        // Materialize the per-core frequency traces over the whole run.
        // The generation seed is derived from (scenario seed, repeat) only
        // — never the policy — so every policy compared at this cell sees
        // the identical frequency schedule. Generated for the full machine
        // first, then restricted, so core j's trace is independent of the
        // `cores` taskset.
        let schedule = FreqSchedule::generate(&specs, SimTime::ZERO + s.deadline, seed ^ FREQ_SALT)
            .expect("hetero preset frequency specs are valid");
        sys.set_freq_schedule(schedule.restrict(sys.n_cores()));
    }
    if traced {
        sys.enable_tracing_with(TraceConfig {
            sample_rate: s.trace_sample,
            sample_seed: seed,
            ordering_tag: (!s.ordering.is_fifo()).then(|| s.ordering.to_string()),
            ..TraceConfig::default()
        });
    }
    if s.check {
        sys.enable_invariant_checks();
    }
    if !s.ordering.is_fifo() {
        sys.set_ordering_policy(s.ordering.clone());
    }
    let g = sys.new_group();
    debug_assert_eq!(g, app_group);
    let comp_group = sys.new_group();
    // Competitors start first (they are "already running" when the
    // parallel job launches).
    for c in &s.competitors {
        match c {
            Competitor::CpuHog { core } => {
                sys.spawn(
                    SpawnSpec::new(Box::new(CpuHog::forever()), "cpu-hog", comp_group)
                        .pin(CoreId(*core)),
                );
            }
            Competitor::MakeJ {
                tasks,
                jobs_per_task,
            } => {
                for i in 0..*tasks {
                    sys.spawn(SpawnSpec::new(
                        Box::new(BatchJob::make_like(*jobs_per_task)),
                        format!("make{i}"),
                        comp_group,
                    ));
                }
            }
        }
    }
    // The server joins the primary group when it *is* the application
    // (no SPMD threads); in mixed tenancy it gets its own group so it can
    // be drained to completion independently of never-exiting competitors.
    let server_app = s.server.as_ref().map(|cfg| {
        let group = if s.app.threads == 0 {
            app_group
        } else {
            sys.new_group()
        };
        let (app, _) = ServerApp::spawn(&mut sys, group, cfg, seed);
        (app, group)
    });
    if s.app.threads > 0 {
        SpmdApp::spawn(&mut sys, app_group, &s.app, None);
    }
    let deadline = SimTime::ZERO + s.deadline;
    let (completion_secs, mut timed_out) = match sys.run_until_group_done(app_group, deadline) {
        Some(done) => (done.as_secs_f64(), false),
        None => (s.deadline.as_secs_f64(), true),
    };
    // Drain a mixed-tenancy server so its latency metrics cover every
    // generated request (no-op when the server was the primary group).
    if let Some((_, srv_group)) = &server_app {
        if *srv_group != app_group && sys.run_until_group_done(*srv_group, deadline).is_none() {
            timed_out = true;
        }
    }
    let outcome = RepeatOutcome {
        completion_secs,
        migrations: sys.total_migrations() as f64,
        timed_out,
        server: server_app.map(|(app, _)| app.metrics()),
        trace: sys.take_trace(),
    };
    (outcome, sys)
}

/// Runs every repeat of a scenario, spread across worker threads.
/// Deterministic and bit-identical to a serial loop: repeat `r` always
/// uses seed `scenario.seed + r` in a fresh `System`, and results are
/// assembled in repeat order.
pub fn run_scenario(s: &Scenario) -> ScenarioResult {
    let (result, traces) = run_scenario_with_traces(s);
    if trace_output_base().is_some() {
        write_trace_files_with_seq(s, &traces, next_trace_seq());
    }
    result
}

/// Like [`run_scenario`], also returning each repeat's trace (empty
/// options unless the scenario — or the module-level trace output — asks
/// for tracing).
pub fn run_scenario_with_traces(s: &Scenario) -> (ScenarioResult, Vec<Option<TraceBuffer>>) {
    let traced = s.trace || trace_output_base().is_some();
    let outcomes = run_repeats(s, traced);
    assemble_outcomes(s, outcomes)
}

/// Folds per-repeat outcomes (in repeat order) into a [`ScenarioResult`].
/// Shared by the cell-level path above and the sweep planner, whose
/// misses may run one job per repeat, so both assemble bit-identical
/// numbers.
pub(crate) fn assemble_outcomes(
    s: &Scenario,
    outcomes: Vec<RepeatOutcome>,
) -> (ScenarioResult, Vec<Option<TraceBuffer>>) {
    let mut completion = RepeatStats::default();
    let mut migrations = RepeatStats::default();
    let mut timeouts = 0usize;
    let mut server = s.server.as_ref().map(|_| ServerStats::default());
    let mut traces = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        completion.push(o.completion_secs);
        migrations.push(o.migrations);
        timeouts += o.timed_out as usize;
        if let (Some(stats), Some(m)) = (server.as_mut(), o.server.as_ref()) {
            stats.push(m);
        }
        traces.push(o.trace);
    }
    (
        ScenarioResult {
            completion,
            migrations,
            timeouts,
            server,
        },
        traces,
    )
}

/// Runs a scenario's repeats in parallel: one
/// [`run_pool`](crate::sweep::run_pool) job per repeat, so repeats run on
/// up to `--jobs` threads, inline inside a sweep worker, and come back in
/// repeat order.
pub(crate) fn run_repeats(s: &Scenario, traced: bool) -> Vec<RepeatOutcome> {
    crate::sweep::run_pool(&vec![1; s.repeats], |r| run_repeat(s, r, traced))
}

// ---------------------------------------------------------------------
// Trace file output
//
// Figure/table generators call `run_scenario` many times with no channel
// for side outputs, so the "dump every trace" switch lives here: the CLI
// sets a base path once and every subsequent scenario writes one Chrome
// trace JSON file per repeat next to it.

static TRACE_OUT: Mutex<Option<PathBuf>> = Mutex::new(None);
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Directs every subsequent [`run_scenario`] call to dump per-repeat
/// Chrome trace files derived from `base` (`None` turns it back off).
/// Files are named `<stem>.s<seq>-<machine>-<cores>-<policy>.r<N>.json`.
pub fn set_trace_output(base: Option<PathBuf>) {
    *TRACE_OUT.lock().unwrap() = base;
    TRACE_SEQ.store(0, Ordering::Relaxed);
}

pub(crate) fn trace_output_base() -> Option<PathBuf> {
    TRACE_OUT.lock().unwrap().clone()
}

/// Claims the next scenario sequence number for trace file naming. The
/// sweep executor claims numbers at submission time so file names stay
/// identical to a serial run regardless of completion order.
pub(crate) fn next_trace_seq() -> u64 {
    TRACE_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// The per-repeat trace file path for `base`, scenario sequence number
/// `seq` and repeat `r`.
pub fn trace_file_path(base: &Path, label: &str, seq: u64, r: usize) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    base.with_file_name(format!("{stem}.s{seq:03}-{label}.r{r}.json"))
}

pub(crate) fn write_trace_files_with_seq(s: &Scenario, traces: &[Option<TraceBuffer>], seq: u64) {
    let Some(base) = trace_output_base() else {
        return;
    };
    for (r, buf) in traces.iter().enumerate() {
        let Some(buf) = buf else { continue };
        let path = trace_file_path(&base, &s.label(), seq, r);
        // Stream the document straight to disk — large traces never
        // materialize as one in-memory string.
        let written = std::fs::File::create(&path).and_then(|f| export_chrome_to(buf, f));
        if let Err(e) = written {
            eprintln!("warning: could not write trace {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedbal_apps::WaitMode;
    use speedbal_workloads::ep;

    fn quick(policy: Policy, cores: usize, threads: usize) -> ScenarioResult {
        let app = ep().spmd(threads, WaitMode::Yield, 0.05);
        run_scenario(
            &Scenario::new(Machine::Tigerton, cores, policy, app)
                .repeats(3)
                .cost(CostModel::default()),
        )
    }

    #[test]
    fn all_policies_complete() {
        for policy in [
            Policy::Pinned,
            Policy::Load,
            Policy::Speed,
            Policy::Dwrr,
            Policy::Ule,
            Policy::UleTuned,
        ] {
            let r = quick(policy.clone(), 4, 16);
            assert_eq!(r.timeouts, 0, "{policy:?} timed out");
            assert_eq!(r.completion.len(), 3);
            assert!(r.completion.mean() > 0.0);
        }
    }

    #[test]
    fn speed_beats_pinned_on_odd_split() {
        // 16 threads on 5 cores: N mod M = 1, classic speed-balancing win.
        let pinned = quick(Policy::Pinned, 5, 16);
        let speed = quick(Policy::Speed, 5, 16);
        assert!(
            speed.completion.mean() < pinned.completion.mean() * 0.95,
            "SPEED {} should beat PINNED {}",
            speed.completion.mean(),
            pinned.completion.mean()
        );
    }

    #[test]
    fn deterministic_across_calls() {
        let a = quick(Policy::Load, 6, 16);
        let b = quick(Policy::Load, 6, 16);
        assert_eq!(a.completion.values, b.completion.values);
        assert_eq!(a.migrations.values, b.migrations.values);
    }

    #[test]
    fn hetero_machines_run_and_are_deterministic() {
        for machine in [Machine::BigLittle4p8e, Machine::Turbo2p, Machine::Throttle] {
            let app = ep().spmd(12, WaitMode::Yield, 0.05);
            let s = Scenario::new(machine.clone(), 0, Policy::Speed, app).repeats(2);
            let a = run_scenario(&s);
            let b = run_scenario(&s);
            assert_eq!(a.timeouts, 0, "{machine:?}");
            assert_eq!(a.completion.values, b.completion.values, "{machine:?}");
            assert_eq!(a.migrations.values, b.migrations.values, "{machine:?}");
        }
    }

    #[test]
    fn freq_schedule_is_policy_independent() {
        // The DVFS trace is generated from (seed, repeat) only, so two
        // different policies on the same cell must observe the identical
        // schedule (the runs end at different times, so compare the
        // installed schedules, not the final cached ratios).
        let app = ep().spmd(10, WaitMode::Yield, 0.05);
        let mk = |p: Policy| {
            Scenario::new(Machine::Throttle, 0, p, app.clone())
                .repeats(1)
                .deadline(SimDuration::from_secs(30))
        };
        let (_, speed_sys) = run_repeat_detailed(&mk(Policy::Speed), 0, false);
        let (_, load_sys) = run_repeat_detailed(&mk(Policy::Load), 0, false);
        let a = speed_sys
            .freq_schedule()
            .expect("throttle installs a schedule");
        let b = load_sys
            .freq_schedule()
            .expect("throttle installs a schedule");
        assert_eq!(a, b, "schedule must not depend on the policy");
    }

    #[test]
    fn taskset_restricts_hetero_machine() {
        // `cores = 6` on the 12-core big.LITTLE preset keeps the 4 P-cores
        // plus the first 2 E-cores, mirroring the topology restriction.
        let app = ep().spmd(8, WaitMode::Yield, 0.05);
        let s = Scenario::new(Machine::BigLittle4p8e, 6, Policy::Speed, app).repeats(1);
        let (outcome, sys) = run_repeat_detailed(&s, 0, false);
        assert!(!outcome.timed_out);
        assert_eq!(sys.n_cores(), 6);
    }

    #[test]
    fn repeats_differ_under_load() {
        // LOAD's random start-up placement yields run-to-run variation.
        let app = ep().spmd(16, WaitMode::Yield, 0.05);
        let r = run_scenario(&Scenario::new(Machine::Tigerton, 6, Policy::Load, app).repeats(8));
        assert!(
            r.completion.variation_pct() > 0.0,
            "expected some LOAD variation, got {:?}",
            r.completion.values
        );
    }

    #[test]
    fn parallel_repeats_match_serial() {
        // run_scenario spreads repeats across threads; a hand-rolled serial
        // loop over run_repeat must produce bit-identical numbers.
        let app = ep().spmd(16, WaitMode::Yield, 0.05);
        let s = Scenario::new(Machine::Tigerton, 6, Policy::Load, app).repeats(6);
        let par = run_scenario(&s);
        let serial: Vec<RepeatOutcome> = (0..s.repeats).map(|r| run_repeat(&s, r, false)).collect();
        let serial_completion: Vec<f64> = serial.iter().map(|o| o.completion_secs).collect();
        let serial_migrations: Vec<f64> = serial.iter().map(|o| o.migrations).collect();
        assert_eq!(par.completion.values, serial_completion);
        assert_eq!(par.migrations.values, serial_migrations);
    }

    #[test]
    fn traced_scenario_returns_buffers_and_same_numbers() {
        let app = ep().spmd(3, WaitMode::Block, 0.05);
        let plain = Scenario::new(Machine::Uniform(2), 0, Policy::Speed, app).repeats(2);
        let traced = plain.clone().traced(true);
        let (pr, pt) = run_scenario_with_traces(&plain);
        let (tr, tt) = run_scenario_with_traces(&traced);
        assert!(pt.iter().all(|t| t.is_none()));
        assert_eq!(tt.len(), 2);
        for t in &tt {
            let buf = t.as_ref().expect("traced repeat yields a buffer");
            assert!(!buf.is_empty());
            assert!(buf.counters().dispatches > 0);
        }
        // Tracing is observational: the numbers must not move.
        assert_eq!(pr.completion.values, tr.completion.values);
        assert_eq!(pr.migrations.values, tr.migrations.values);
    }

    #[test]
    fn trace_sampling_thins_records_but_not_numbers() {
        let app = ep().spmd(3, WaitMode::Block, 0.05);
        let full = Scenario::new(Machine::Uniform(2), 0, Policy::Speed, app)
            .repeats(2)
            .traced(true);
        let thin = full.clone().trace_sampled(0.1);
        let (fr, ft) = run_scenario_with_traces(&full);
        let (tr, tt) = run_scenario_with_traces(&thin);
        // Sampling is observational: the simulation numbers must not move.
        assert_eq!(fr.completion.values, tr.completion.values);
        assert_eq!(fr.migrations.values, tr.migrations.values);
        for (f, t) in ft.iter().zip(&tt) {
            let (f, t) = (f.as_ref().unwrap(), t.as_ref().unwrap());
            assert!(t.sampled_out() > 0, "10% sampling must withhold records");
            assert!(t.len() < f.len());
            // Aggregates cover sampled-out records exactly.
            assert_eq!(f.counters(), t.counters());
        }
    }

    #[test]
    fn checked_scenario_is_observational_and_actually_checks() {
        let app = ep().spmd(5, WaitMode::Block, 0.05);
        let plain = Scenario::new(Machine::Uniform(2), 0, Policy::Speed, app).repeats(2);
        let checked = plain.clone().checked(true);
        let a = run_scenario(&plain);
        let b = run_scenario(&checked);
        // The checker must never perturb scheduling decisions.
        assert_eq!(a.completion.values, b.completion.values);
        assert_eq!(a.migrations.values, b.migrations.values);
        // ... and it must really have run.
        let (_, sys) = run_repeat_detailed(&checked, 0, false);
        assert!(sys.invariant_checks_enabled());
        assert!(sys.invariant_checks_run() > 0);
    }

    #[test]
    fn detailed_repeat_exposes_final_system_state() {
        let app = ep().spmd(4, WaitMode::Yield, 0.05);
        let s = Scenario::new(Machine::Uniform(2), 0, Policy::Pinned, app).repeats(1);
        let (outcome, sys) = run_repeat_detailed(&s, 0, false);
        assert!(!outcome.timed_out);
        let exec: f64 = sys
            .all_tasks()
            .map(|t| sys.task_exec_total(t).as_secs_f64())
            .sum();
        assert!(exec > 0.0, "finished system must retain exec accounting");
        assert_eq!(sys.total_migrations() as f64, outcome.migrations);
    }

    #[test]
    fn trace_file_names_are_distinct_per_repeat() {
        let base = std::path::Path::new("/tmp/out.json");
        let a = trace_file_path(base, "uniform2-call-SPEED", 0, 0);
        let b = trace_file_path(base, "uniform2-call-SPEED", 0, 1);
        let c = trace_file_path(base, "uniform2-call-SPEED", 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a.to_str().unwrap().ends_with(".json"));
    }

    #[test]
    fn server_only_scenario_reports_latency_stats() {
        let cfg = speedbal_workloads::web(8, 4, 0.6, SimDuration::from_millis(300));
        let s = Scenario::server_only(Machine::Uniform(4), 0, Policy::Speed, cfg).repeats(2);
        let r = run_scenario(&s);
        assert_eq!(r.timeouts, 0);
        assert!(r.completion.mean() > 0.0);
        let st = r.server.expect("server scenario must yield latency stats");
        assert_eq!(st.p50_ms.len(), 2);
        assert!(st.p50_ms.mean() > 0.0);
        assert!(st.p99_ms.mean() >= st.p50_ms.mean());
        assert!(st.p999_ms.mean() >= st.p99_ms.mean());
        assert!(st.completed.mean() > 0.0);
        assert_eq!(st.dropped.mean(), 0.0, "unbounded queue never drops");
    }

    #[test]
    fn mixed_tenancy_keeps_spmd_primary_and_drains_server() {
        let app = ep().spmd(4, WaitMode::Yield, 0.05);
        let cfg = speedbal_workloads::web(4, 4, 0.4, SimDuration::from_millis(200));
        let alone = Scenario::new(Machine::Uniform(4), 0, Policy::Speed, app).repeats(2);
        let shared = alone.clone().server(cfg.clone());
        let a = run_scenario(&alone);
        let b = run_scenario(&shared);
        assert_eq!(b.timeouts, 0);
        let st = b.server.expect("mixed cell must yield server stats");
        // The server is drained past SPMD completion: every generated
        // request of repeat r is eventually served (unbounded queue).
        for (r, completed) in st.completed.values.iter().enumerate() {
            let expected =
                speedbal_apps::generate_requests(&cfg, shared.seed.wrapping_add(r as u64));
            assert_eq!(*completed as usize, expected.len());
        }
        // ... and it contends with the SPMD app, which stays the number
        // that `completion` reports.
        assert!(a.server.is_none());
        assert!(b.completion.mean() >= a.completion.mean());
    }

    #[test]
    fn server_scenarios_are_deterministic() {
        let cfg = speedbal_workloads::web_bursty(6, 4, 0.7, SimDuration::from_millis(200));
        let s = Scenario::server_only(Machine::Uniform(4), 0, Policy::Load, cfg).repeats(2);
        let a = run_scenario(&s);
        let b = run_scenario(&s);
        let (sa, sb) = (a.server.unwrap(), b.server.unwrap());
        assert_eq!(sa.p99_ms.values, sb.p99_ms.values);
        assert_eq!(sa.queue_mean_ms.values, sb.queue_mean_ms.values);
        assert_eq!(sa.completed.values, sb.completed.values);
        assert_eq!(a.completion.values, b.completion.values);
    }

    #[test]
    fn competitors_slow_the_app() {
        let app = ep().spmd(4, WaitMode::Yield, 0.05);
        let alone = run_scenario(
            &Scenario::new(Machine::Uniform(4), 0, Policy::Pinned, app.clone()).repeats(2),
        );
        let shared = run_scenario(
            &Scenario::new(Machine::Uniform(4), 0, Policy::Pinned, app)
                .competitors(vec![Competitor::CpuHog { core: 0 }])
                .repeats(2),
        );
        assert!(
            shared.completion.mean() > alone.completion.mean() * 1.5,
            "hog on core 0 must hurt: {} vs {}",
            shared.completion.mean(),
            alone.completion.mean()
        );
    }
}
