//! The workloads, what each measures, and the metrics they report.
//!
//! An untraced invocation (`trace = false`) measures the end-to-end
//! metrics. A traced invocation measures the per-layer metrics: it wraps
//! every balancer in a `TimedBalancer`, records spans around the
//! benchmark's calls into each layer, replays queue traffic against the
//! queues alone, and probes the sweep executor and the trace exporter.

use crate::artifacts::{self, stats_since, PrivateCache};
use crate::host::{self, HostSpeed};
use crate::replay::{self, QueueShape, RqShape};
use crate::sim::{self, Hooks, RunOut, SimWorkload, CYCLE};
use crate::spans::{Span, Spans};
use crate::stats::{median, p90, Fnv};
use crate::timed::HookStats;
use speedbal_harness::scenario::ScenarioResult;
use speedbal_harness::sweep::{run_scenarios, scenario_cache_key, sweep_stats, SweepStats};
use speedbal_sim::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// The seed the committed fingerprints were taken at.
pub const DEFAULT_SEED: u64 = 0xB0A710AD;
/// Length of one measured phase unless `--seconds` says otherwise.
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Runs measured at least, so a p90 has ten samples beyond it.
pub const MIN_RUNS: usize = crate::stats::P90_MIN_SAMPLES;
/// Hard stop for a measured phase, all rounds included, well inside the
/// three-minute limit on one invocation.
const MAX_PHASE_SECS: f64 = 100.0;
/// Runs 0..WINDOW of a simulation workload, one whole cycle, so every
/// kind of run is in it: fingerprinted at the default seed, and the base
/// of every exact per-layer count.
pub const WINDOW: u64 = CYCLE as u64;
/// Set-up trials of the `artifacts` workload.
const SETUP_TRIALS: usize = 5;
/// Executions of every simulation run; each sample is the fastest.
const ROUNDS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sim(SimWorkload),
    Artifacts,
}

pub const WORKLOADS: [(&str, Workload); 5] = [
    ("spmd-barrier", Workload::Sim(SimWorkload::SpmdBarrier)),
    ("wide-lockstep", Workload::Sim(SimWorkload::WideLockstep)),
    ("serve-openloop", Workload::Sim(SimWorkload::ServeOpenloop)),
    ("spmd-traced", Workload::Sim(SimWorkload::SpmdTraced)),
    ("artifacts", Workload::Artifacts),
];

/// Default-seed fingerprints of each simulation workload's window
/// (FNV-1a over the per-run fingerprints of runs 0..WINDOW). A change
/// that alters any simulated outcome fails every invocation.
pub const GOLDEN: [(SimWorkload, u64); 4] = [
    (SimWorkload::SpmdBarrier, 0x697e_4244_aa61_7481),
    (SimWorkload::WideLockstep, 0x2ff1_5e80_ebf9_e679),
    (SimWorkload::ServeOpenloop, 0x7957_3b88_a282_4e10),
    (SimWorkload::SpmdTraced, 0x621f_391e_01f4_b82b),
];

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: (name, unit).
pub const PER_LAYER: [(&str, &str); 49] = [
    ("host.calib_ms", "ms"),
    ("bench.span_overhead", "ratio"),
    ("sched.steps", "count"),
    ("sched.migrations", "count"),
    ("sched.core_switches", "count"),
    ("sched.step_share", "ratio"),
    ("sched.ns_per_step", "ns"),
    ("sched.self_ns_per_step", "ns"),
    ("sched.system_new_us", "us"),
    ("sched.rq_enqueue_ns", "ns"),
    ("sched.rq_dequeue_ns", "ns"),
    ("sched.rq_pop_min_ns", "ns"),
    ("sim.arm_ns", "ns"),
    ("sim.cancel_ns", "ns"),
    ("sim.schedule_ns", "ns"),
    ("sim.pop_ns", "ns"),
    ("sim.pops_per_instant", "count"),
    ("core.activations", "count"),
    ("core.hook_ns", "ns"),
    ("core.share", "ratio"),
    ("core.migrations_per_activation", "ratio"),
    ("balancers.timer_calls", "count"),
    ("balancers.idle_calls", "count"),
    ("balancers.wake_calls", "count"),
    ("balancers.desched_calls", "count"),
    ("balancers.hook_ns", "ns"),
    ("balancers.share", "ratio"),
    ("apps.spawn_ms", "ms"),
    ("apps.spawn_share", "ratio"),
    ("apps.requests", "count"),
    ("apps.completed", "count"),
    ("apps.dropped", "count"),
    ("metrics.post_us", "us"),
    ("trace.records", "count"),
    ("trace.records_per_step", "ratio"),
    ("trace.bytes_per_record", "B"),
    ("trace.record_ns_per_step", "ns"),
    ("trace.export_ns_per_record", "ns"),
    ("trace.summary_us", "us"),
    ("trace.take_us", "us"),
    ("trace.share", "ratio"),
    ("harness.cells", "count"),
    ("harness.cache_hits", "count"),
    ("harness.cache_misses", "count"),
    ("harness.cache_bytes", "B"),
    ("harness.cold_s", "s"),
    ("harness.warm_pass_ms", "ms"),
    ("harness.cache_key_us", "us"),
    ("bench.spans", "count"),
];

/// Settings of one invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for the private result cache.
    pub work_dir: PathBuf,
}

/// The outcome of one invocation.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why the outputs are not correct; empty when they are.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Samples behind the run-time percentiles.
    pub samples: usize,
    pub spans: Spans,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The metrics of `list`, in its order. Panics if one was never
    /// measured: that is a bug in this benchmark, not in the program.
    pub fn ordered(
        &self,
        list: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        list.iter()
            .map(|&(name, unit)| {
                let v = self
                    .metrics
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"))
                    .1;
                (name, v, unit)
            })
            .collect()
    }
}

fn queue_shape(w: SimWorkload) -> QueueShape {
    match w {
        SimWorkload::SpmdBarrier | SimWorkload::SpmdTraced => QueueShape {
            lanes: 16,
            lockstep: false,
            arrivals: 2,
        },
        SimWorkload::WideLockstep => QueueShape {
            lanes: 128,
            lockstep: true,
            arrivals: 8,
        },
        SimWorkload::ServeOpenloop => QueueShape {
            lanes: 8,
            lockstep: false,
            arrivals: 16,
        },
    }
}

fn rq_shape(w: SimWorkload) -> RqShape {
    match w {
        SimWorkload::SpmdBarrier | SimWorkload::SpmdTraced => RqShape {
            queues: 9,
            tasks: 16,
        },
        SimWorkload::WideLockstep => RqShape {
            queues: 128,
            tasks: 192,
        },
        SimWorkload::ServeOpenloop => RqShape {
            queues: 8,
            tasks: 16,
        },
    }
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// One run with panics caught and the run's own invariants checked.
fn try_run(spec: &sim::RunSpec, hooks: Option<&Hooks>) -> Result<RunOut, String> {
    let out = catch_unwind(AssertUnwindSafe(|| sim::run(spec, hooks))).map_err(panic_text)?;
    if out.timed_out {
        return Err("timed out at the simulated deadline".into());
    }
    if out.steps == 0 {
        return Err("no events were processed".into());
    }
    if let Some(s) = out.server {
        if s.completed + s.dropped != s.generated {
            return Err(format!(
                "{} requests generated but {} completed and {} dropped",
                s.generated, s.completed, s.dropped
            ));
        }
    }
    Ok(out)
}

/// Fingerprint of runs 0..WINDOW at `seed`, or why a run failed.
pub fn window_fingerprint(w: SimWorkload, seed: u64) -> Result<u64, String> {
    let mut h = Fnv::default();
    for i in 0..WINDOW {
        let out = try_run(&w.run_spec(i, seed), None).map_err(|e| format!("run {i}: {e}"))?;
        h = h.word(out.fingerprint());
    }
    Ok(h.finish())
}

fn golden_check(w: SimWorkload, r: &mut Report) {
    let want = GOLDEN
        .iter()
        .find(|(g, _)| *g == w)
        .expect("every simulation workload has a fingerprint")
        .1;
    r.attempted += WINDOW;
    match window_fingerprint(w, DEFAULT_SEED) {
        Ok(got) if got == want => {}
        Ok(got) => r.fail(format!(
            "default-seed fingerprint {got:#018x} differs from the committed {want:#018x}"
        )),
        Err(e) => r.fail(format!("default-seed window: {e}")),
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs whole cycles of `w` from run 0 until `seconds` have passed and at
/// least `min_runs` ran, calling `each(index, spec)` per run.
fn phase(
    w: SimWorkload,
    seed: u64,
    cycle_len: u64,
    seconds: f64,
    min_runs: u64,
    mut each: impl FnMut(u64, &sim::RunSpec),
) {
    let start = Instant::now();
    let mut i = 0;
    loop {
        for _ in 0..cycle_len {
            each(i, &w.run_spec(i, seed));
            i += 1;
        }
        let t = secs(start);
        if (t >= seconds && i >= min_runs) || t >= MAX_PHASE_SECS {
            return;
        }
    }
}

fn push_percentiles(r: &mut Report, run_ms: &[f64]) {
    r.samples = run_ms.len();
    r.set("run_ms_p50", median(run_ms));
    let p = match p90(run_ms) {
        Ok(v) => v,
        Err(e) => {
            r.problems.push(e);
            median(run_ms)
        }
    };
    r.set("run_ms_p90", p);
}

fn push_rss(r: &mut Report, peak_mb: Option<f64>) {
    match peak_mb {
        Some(mb) => r.set("peak_rss_mb", mb),
        None => {
            r.problems.push("VmHWM is not readable".into());
            r.set("peak_rss_mb", 0.0);
        }
    }
}

/// Runs one workload and reports its metrics.
pub fn run_workload(w: Workload, o: &Opts) -> Result<Report, String> {
    let mut r = Report::default();
    let mut speed = HostSpeed::new();
    match w {
        Workload::Sim(w) => {
            golden_check(w, &mut r);
            // Peak RSS after the default-seed window, a whole cycle: every
            // kind of run, on the same inputs on every invocation, where
            // later runs' seeds and count vary.
            let peak_mb = host::peak_rss_mb();
            if o.trace {
                sim_layers(w, o, &mut r);
            } else {
                sim_end_to_end(w, o, &mut speed, &mut r);
                push_rss(&mut r, peak_mb);
            }
        }
        Workload::Artifacts => artifacts_workload(o, &mut speed, &mut r)?,
    }
    r.set("host.calib_ms", speed.calib_ms());
    Ok(r)
}

/// One execution of a run: host times scaled to the reference host
/// speed, and its fingerprint.
#[derive(Clone, Copy)]
struct Exec {
    run_ms: f64,
    setup_s: f64,
    fingerprint: u64,
}

fn execute(spec: &sim::RunSpec, speed: &mut HostSpeed) -> Result<Exec, String> {
    let out = try_run(spec, None)?;
    let scale = speed.scale();
    Ok(Exec {
        run_ms: out.total_ns() as f64 / 1e6 * scale,
        setup_s: out.setup_ns as f64 / 1e9 * scale,
        fingerprint: out.fingerprint(),
    })
}

/// Every run is executed in each of [`ROUNDS`] rounds: the first round
/// runs whole cycles for a share of `--seconds`, the later rounds repeat
/// the same runs. A run is deterministic, so its cost is fixed and
/// neighbours on a shared host only add to it; their contention comes in
/// stretches of seconds, so it rarely reaches every round. Each run's
/// sample is its fastest execution, and every execution must reproduce
/// the first one's fingerprint.
fn sim_end_to_end(w: SimWorkload, o: &Opts, speed: &mut HostSpeed, r: &mut Report) {
    let start = Instant::now();
    let mut best: Vec<Option<Exec>> = Vec::new();
    let round = o.seconds / ROUNDS as f64;
    phase(
        w,
        o.seed,
        CYCLE as u64,
        round,
        MIN_RUNS as u64,
        |i, spec| {
            r.attempted += 1;
            best.push(
                execute(spec, speed)
                    .map_err(|e| r.fail(format!("run {i}: {e}")))
                    .ok(),
            );
        },
    );
    'rounds: for _ in 1..ROUNDS {
        for (i, slot) in best.iter_mut().enumerate() {
            if secs(start) >= MAX_PHASE_SECS {
                break 'rounds;
            }
            r.attempted += 1;
            match (execute(&w.run_spec(i as u64, o.seed), speed), slot.as_mut()) {
                (Ok(e), Some(b)) => {
                    if e.fingerprint != b.fingerprint {
                        r.fail(format!("run {i} replayed differently under the same seed"));
                    }
                    b.run_ms = b.run_ms.min(e.run_ms);
                    b.setup_s = b.setup_s.min(e.setup_s);
                }
                (Ok(_), None) => {}
                (Err(e), _) => r.fail(format!("run {i}: {e}")),
            }
        }
    }
    let picked: Vec<Exec> = best.into_iter().flatten().collect();
    let run_ms: Vec<f64> = picked.iter().map(|e| e.run_ms).collect();
    let setup_s: Vec<f64> = picked.iter().map(|e| e.setup_s).collect();
    if run_ms.is_empty() {
        r.problems.push("no run succeeded".into());
        return push_placeholders(r);
    }
    push_percentiles(r, &run_ms);
    r.set(
        "runs_per_s",
        1e3 * run_ms.len() as f64 / run_ms.iter().sum::<f64>(),
    );
    r.set("setup_s", median(&setup_s));
}

/// Zeros for every end-to-end metric, so a failed invocation still
/// prints its result line.
fn push_placeholders(r: &mut Report) {
    for (name, _) in END_TO_END {
        r.set(name, 0.0);
    }
}

/// Untraced (`plain`) and hook-timed (`hooked`) outcomes of the same
/// runs, with the hook counters of each hooked run.
#[derive(Default)]
struct LayerRuns {
    plain: Vec<RunOut>,
    hooked: Vec<(RunOut, HookStats, HookStats)>,
}

fn hooked_runs(
    w: SimWorkload,
    seed: u64,
    cycle_len: u64,
    seconds: f64,
    min_runs: u64,
    r: &mut Report,
) -> LayerRuns {
    let mut lr = LayerRuns::default();
    phase(w, seed, cycle_len, seconds, min_runs, |i, spec| {
        r.attempted += 2;
        let plain = match try_run(spec, None) {
            Ok(out) => out,
            Err(e) => return r.fail(format!("run {i}: {e}")),
        };
        let hooks = Hooks::default();
        let start = Instant::now();
        let hooked = match try_run(spec, Some(&hooks)) {
            Ok(out) => out,
            Err(e) => return r.fail(format!("hook-timed run {i}: {e}")),
        };
        if hooked.fingerprint() != plain.fingerprint() {
            r.fail(format!(
                "run {i}: timing the balancer hooks changed the run"
            ));
        }
        let core = hooks.core.borrow().clone();
        let base = hooks.base.borrow().clone();
        push_run_spans(&mut r.spans, i, start, &hooked, &core, &base);
        lr.plain.push(plain);
        lr.hooked.push((hooked, core, base));
    });
    lr
}

fn push_run_spans(
    spans: &mut Spans,
    run: u64,
    start: Instant,
    out: &RunOut,
    core: &HookStats,
    base: &HookStats,
) {
    let ns = std::time::Duration::from_nanos;
    let (c, b) = (core.total(), base.total());
    spans.push(Span {
        name: "run".into(),
        run,
        parent: None,
        start,
        dur_ns: out.total_ns(),
        args: vec![("steps", out.steps as f64)],
    });
    spans.push(Span {
        name: "setup".into(),
        run,
        parent: Some("run"),
        start,
        dur_ns: out.setup_ns,
        args: vec![
            ("system_new_ns", out.system_new_ns as f64),
            ("spawn_ns", out.spawn_ns as f64),
        ],
    });
    spans.push(Span {
        name: "step".into(),
        run,
        parent: Some("run"),
        start: start + ns(out.setup_ns),
        dur_ns: out.step_ns,
        args: vec![
            ("core_hook_calls", c.calls as f64),
            ("core_hook_ns", c.ns as f64),
            ("balancer_hook_calls", b.calls as f64),
            ("balancer_hook_ns", b.ns as f64),
            ("self_ns", out.step_ns.saturating_sub(c.ns + b.ns) as f64),
        ],
    });
    spans.push(Span {
        name: "post".into(),
        run,
        parent: Some("run"),
        start: start + ns(out.setup_ns + out.step_ns),
        dur_ns: out.post_ns,
        args: vec![],
    });
}

/// Runs 0..WINDOW untraced and with the trace recorder on, exported and
/// summarized: the trace layer's costs on this workload's own runs.
fn trace_window(w: SimWorkload, seed: u64, r: &mut Report) {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for i in 0..WINDOW {
        let mut spec = w.run_spec(i, seed);
        r.attempted += 2;
        spec.traced = false;
        let u = try_run(&spec, None);
        spec.traced = true;
        let t = try_run(&spec, None);
        match (u, t) {
            (Ok(u), Ok(t)) => {
                if u.outcome() != t.outcome() {
                    r.fail(format!("run {i}: tracing changed the schedule"));
                }
                untraced.push(u);
                traced.push(t);
            }
            (Err(e), _) | (_, Err(e)) => r.fail(format!("trace window run {i}: {e}")),
        }
    }
    if traced.is_empty() {
        r.problems.push("no trace window run succeeded".into());
        return;
    }
    let per_step = |runs: &[RunOut]| {
        runs.iter().map(|o| o.step_ns).sum::<u64>() as f64
            / runs.iter().map(|o| o.steps).sum::<u64>().max(1) as f64
    };
    let tr: Vec<sim::TraceOut> = traced.iter().filter_map(|o| o.trace).collect();
    let records: u64 = tr.iter().map(|t| t.records).sum();
    let steps: u64 = traced.iter().map(|o| o.steps).sum();
    r.set("trace.records", records as f64);
    r.set(
        "trace.records_per_step",
        records as f64 / steps.max(1) as f64,
    );
    r.set(
        "trace.bytes_per_record",
        tr.iter().map(|t| t.bytes).sum::<u64>() as f64 / records.max(1) as f64,
    );
    r.set(
        "trace.record_ns_per_step",
        per_step(&traced) - per_step(&untraced),
    );
    r.set(
        "trace.export_ns_per_record",
        tr.iter().map(|t| t.export_ns).sum::<u64>() as f64 / records.max(1) as f64,
    );
    let us = |f: fn(&sim::TraceOut) -> u64| {
        median(&tr.iter().map(|t| f(t) as f64 / 1e3).collect::<Vec<_>>())
    };
    r.set("trace.summary_us", us(|t| t.summary_ns));
    r.set("trace.take_us", us(|t| t.take_ns));
    // What tracing adds to a run (recording, take, export and summary),
    // as a share of the traced run's time.
    let total = |runs: &[RunOut]| runs.iter().map(RunOut::total_ns).sum::<u64>() as f64;
    r.set(
        "trace.share",
        (total(&traced) - total(&untraced)) / total(&traced).max(1.0),
    );
}

/// Per-layer metrics of the stepping layers from hook-timed runs.
fn layer_metrics(lr: &LayerRuns, r: &mut Report) {
    if lr.plain.is_empty() || lr.hooked.is_empty() {
        r.problems.push("no hook-timed run succeeded".into());
        return;
    }
    let total_ms = |o: &RunOut| o.total_ns() as f64 / 1e6;
    let plain_ms: Vec<f64> = lr.plain.iter().map(total_ms).collect();
    let hooked_ms: Vec<f64> = lr.hooked.iter().map(|h| total_ms(&h.0)).collect();
    r.set(
        "bench.span_overhead",
        median(&hooked_ms) / median(&plain_ms),
    );

    let window: Vec<&(RunOut, HookStats, HookStats)> =
        lr.hooked.iter().take(WINDOW as usize).collect();
    let wsum = |f: fn(&RunOut) -> u64| window.iter().map(|h| f(&h.0)).sum::<u64>() as f64;
    r.set("sched.steps", wsum(|o| o.steps));
    r.set("sched.migrations", wsum(|o| o.migrations));
    r.set("sched.core_switches", wsum(|o| o.core_switches));
    r.set("core.activations", wsum(|o| o.activations));
    r.set(
        "core.migrations_per_activation",
        wsum(|o| o.speed_migrations) / wsum(|o| o.activations).max(1.0),
    );
    let mut wbase = HookStats::default();
    for h in &window {
        wbase.merge(&h.2);
    }
    r.set("balancers.timer_calls", wbase.timer.calls as f64);
    r.set("balancers.idle_calls", wbase.idle.calls as f64);
    r.set("balancers.wake_calls", wbase.wake.calls as f64);
    r.set("balancers.desched_calls", wbase.desched.calls as f64);
    let server = |f: fn(&sim::ServerOut) -> u64| {
        window
            .iter()
            .filter_map(|h| h.0.server.as_ref().map(f))
            .sum::<u64>() as f64
    };
    r.set("apps.requests", server(|s| s.generated));
    r.set("apps.completed", server(|s| s.completed));
    r.set("apps.dropped", server(|s| s.dropped));

    let plain_sum = |f: fn(&RunOut) -> u64| lr.plain.iter().map(f).sum::<u64>() as f64;
    let plain_ns = plain_sum(RunOut::total_ns).max(1.0);
    r.set("sched.step_share", plain_sum(|o| o.step_ns) / plain_ns);
    r.set("apps.spawn_share", plain_sum(|o| o.spawn_ns) / plain_ns);
    r.set(
        "sched.ns_per_step",
        plain_sum(|o| o.step_ns) / plain_sum(|o| o.steps).max(1.0),
    );
    let (mut core, mut base) = (HookStats::default(), HookStats::default());
    let (mut steps, mut step_ns) = (0u64, 0u64);
    for (o, c, b) in &lr.hooked {
        core.merge(c);
        base.merge(b);
        steps += o.steps;
        step_ns += o.step_ns;
    }
    let (c, b) = (core.total(), base.total());
    r.set(
        "sched.self_ns_per_step",
        step_ns.saturating_sub(c.ns + b.ns) as f64 / steps.max(1) as f64,
    );
    r.set("core.hook_ns", c.ns as f64 / c.calls.max(1) as f64);
    r.set("core.share", c.ns as f64 / step_ns.max(1) as f64);
    r.set("balancers.hook_ns", b.ns as f64 / b.calls.max(1) as f64);
    r.set("balancers.share", b.ns as f64 / step_ns.max(1) as f64);
    let med = |f: fn(&RunOut) -> f64| median(&lr.plain.iter().map(f).collect::<Vec<_>>());
    r.set("sched.system_new_us", med(|o| o.system_new_ns as f64 / 1e3));
    r.set("apps.spawn_ms", med(|o| o.spawn_ns as f64 / 1e6));
    r.set(
        "metrics.post_us",
        med(|o| {
            let t = o
                .trace
                .map_or(0, |t| t.take_ns + t.export_ns + t.summary_ns);
            o.post_ns.saturating_sub(t) as f64 / 1e3
        }),
    );
}

/// Event-queue and run-queue replays shaped like `w`, seeded by `seed`.
fn replays(w: SimWorkload, seed: u64, r: &mut Report) {
    let qs = queue_shape(w);
    let q = replay::event_queue(qs, 1_000_000 / (qs.lanes + qs.arrivals), seed);
    r.set("sim.arm_ns", q.arm_ns);
    r.set("sim.cancel_ns", q.cancel_ns);
    r.set("sim.schedule_ns", q.schedule_ns);
    r.set("sim.pop_ns", q.pop_ns);
    r.set("sim.pops_per_instant", q.pops_per_instant);
    let rs = rq_shape(w);
    let rq = replay::run_queue(rs, 500_000 / rs.queues, seed);
    r.set("sched.rq_enqueue_ns", rq.enqueue_ns);
    r.set("sched.rq_dequeue_ns", rq.dequeue_ns);
    r.set("sched.rq_pop_min_ns", rq.pop_min_ns);
}

/// Mean microseconds of `scenario_cache_key` over the scenarios of runs
/// 0..200 of `w`.
fn cache_key_us(w: SimWorkload, seed: u64, r: &mut Report) {
    let scenarios: Vec<_> = (0..200).map(|i| w.run_spec(i, seed).scenario()).collect();
    let t = Instant::now();
    for s in &scenarios {
        std::hint::black_box(scenario_cache_key(s));
    }
    r.set(
        "harness.cache_key_us",
        t.elapsed().as_nanos() as f64 / 1e3 / scenarios.len() as f64,
    );
}

/// Executor and cache numbers of one cold and one warm pass.
fn push_harness(r: &mut Report, cold: SweepStats, cold_s: f64, bytes: u64, warm_ms: &[f64]) {
    r.set("harness.cells", cold.cells as f64);
    r.set("harness.cache_hits", cold.cache_hits as f64);
    r.set("harness.cache_misses", cold.cache_misses as f64);
    r.set("harness.cache_bytes", bytes as f64);
    r.set("harness.cold_s", cold_s);
    r.set("harness.warm_pass_ms", median(warm_ms));
}

/// Runs 0..WINDOW as harness scenarios through the sweep executor, cold
/// then warm, and checks the harness reaches the benchmark's outcomes.
fn harness_probe(w: SimWorkload, o: &Opts, own: &[RunOut], r: &mut Report) {
    let cache = match PrivateCache::new(o.work_dir.clone()) {
        Ok(c) => c,
        Err(e) => return r.fail(format!("cache directory {}: {e}", o.work_dir.display())),
    };
    let scenarios = || {
        (0..WINDOW)
            .map(|i| w.run_spec(i, o.seed).scenario())
            .collect::<Vec<_>>()
    };
    r.attempted += 2;
    let before = sweep_stats();
    let t = Instant::now();
    let cold = run_scenarios(scenarios());
    let cold_s = secs(t);
    let cold_stats = stats_since(before);
    let bytes = cache.bytes();
    let mut warm_ms = Vec::new();
    for _ in 0..5 {
        let before = sweep_stats();
        let t = Instant::now();
        let warm = run_scenarios(scenarios());
        warm_ms.push(secs(t) * 1e3);
        let st = stats_since(before);
        if st.cache_hits != st.cells || !same_results(&cold, &warm) {
            r.fail("a warm harness pass differs from the cold pass".into());
        }
    }
    for (i, (res, mine)) in cold.iter().zip(own).enumerate() {
        let completion = SimTime::from_nanos(mine.sim_ns).as_secs_f64();
        let mut same = res.completion.values == [completion]
            && res.migrations.values == [mine.migrations as f64]
            && res.timeouts == 0;
        if let (Some(st), Some(s)) = (&res.server, &mine.server) {
            same &= st.p99_ms.values == [s.p99_ns as f64 / 1e6]
                && st.completed.values == [s.completed as f64];
        }
        if !same {
            r.fail(format!("run {i}: the harness reached a different outcome"));
        }
    }
    push_harness(r, cold_stats, cold_s, bytes, &warm_ms);
}

fn same_results(a: &[ScenarioResult], b: &[ScenarioResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.completion == y.completion && x.migrations == y.migrations && x.timeouts == y.timeouts
        })
}

fn sim_layers(w: SimWorkload, o: &Opts, r: &mut Report) {
    let lr = hooked_runs(w, o.seed, CYCLE as u64, o.seconds, 2 * CYCLE as u64, r);
    layer_metrics(&lr, r);
    trace_window(w, o.seed, r);
    let own: Vec<RunOut> = lr.plain.iter().take(WINDOW as usize).cloned().collect();
    harness_probe(w, o, &own, r);
    cache_key_us(w, o.seed, r);
    replays(w, o.seed, r);
    r.set("bench.spans", r.spans.len() as f64);
}

/// The workload whose window `artifacts` runs for its stepping-layer
/// metrics: the artifacts' cells are runs of the same kind.
const ARTIFACTS_PROBE: SimWorkload = SimWorkload::SpmdBarrier;

/// Records a span per experiment of a pass.
fn push_part_spans(spans: &mut Spans, parts: &[artifacts::Part], parent: &'static str, run: u64) {
    for p in parts {
        spans.push(Span {
            name: format!("{parent}:{}", p.name),
            run,
            parent: Some(parent),
            start: p.start,
            dur_ns: (p.secs * 1e9) as u64,
            args: vec![],
        });
    }
}

/// The `artifacts` samples, each the fastest of its executions.
struct ArtifactSamples {
    /// Host-speed-scaled seconds of each experiment, cold.
    cold_s: Vec<f64>,
    /// Warm pass `k`, in ms.
    warm_ms: Vec<f64>,
    /// Set-up trial `k`, in s.
    setup_s: Vec<f64>,
    /// Every warm pass in order, unscaled, for the span overhead.
    warm_raw_ms: Vec<f64>,
}

/// A cold pass into cache A, then a second cold pass into an empty
/// cache B, one experiment at a time; after each of its experiments a
/// slot against cache A runs the set-up trials and the warm passes once
/// more. Contention on a shared host comes in stretches of seconds, so
/// the slots spread each warm pass's executions over the whole cold
/// pass, and each sample is the fastest execution, as for a simulation
/// run. Slots go on until `--seconds` have passed.
fn artifacts_workload(o: &Opts, speed: &mut HostSpeed, r: &mut Report) -> Result<(), String> {
    let reference = std::fs::read_to_string(artifacts::REFERENCE)
        .map_err(|e| format!("{}: {e}", artifacts::REFERENCE))?;
    let cache_dir = |name: &str| {
        let dir = o.work_dir.join(name);
        PrivateCache::new(dir.clone())
            .map_err(|e| format!("cache directory {}: {e}", dir.display()))
    };
    let start = Instant::now();
    let cache_a = cache_dir("a")?;
    r.attempted += 1;
    let cold = artifacts::pass(Some(speed));
    let cold_tables: Vec<String> = cold.tables().cloned().collect();
    let missing = artifacts::missing_from(&reference, &cold_tables);
    if !missing.is_empty() {
        r.fail(format!(
            "{} of {} tables are not verbatim in results_quick.txt",
            missing.len(),
            cold_tables.len()
        ));
    }
    let bytes = cache_a.bytes();
    if o.trace {
        push_part_spans(&mut r.spans, &cold.parts, "cold", 0);
    }

    let mut s = ArtifactSamples {
        cold_s: cold.parts.iter().map(|p| p.secs * p.scale).collect(),
        warm_ms: vec![f64::INFINITY; MIN_RUNS],
        setup_s: vec![f64::INFINITY; SETUP_TRIALS],
        warm_raw_ms: Vec::new(),
    };
    let slot = |r: &mut Report, speed: &mut HostSpeed, s: &mut ArtifactSamples| {
        cache_a.activate();
        for k in 0..SETUP_TRIALS {
            let t = Instant::now();
            let tables = artifacts::setup_tables();
            s.setup_s[k] = s.setup_s[k].min(secs(t) * speed.scale());
            r.attempted += 1;
            if !artifacts::missing_from(&reference, &tables).is_empty() {
                r.fail("fig1/tab1 are not verbatim in results_quick.txt".into());
            }
        }
        for k in 0..MIN_RUNS {
            r.attempted += 1;
            let n = s.warm_raw_ms.len();
            let t = Instant::now();
            let pass = artifacts::pass(None);
            // Every second traced pass records its spans inside its time.
            if o.trace && n % 2 == 1 {
                push_part_spans(&mut r.spans, &pass.parts, "warm", n as u64);
            }
            let ms = secs(t) * 1e3;
            s.warm_ms[k] = s.warm_ms[k].min(ms * speed.scale());
            if !pass.tables().eq(cold_tables.iter()) || pass.stats.cache_hits != pass.stats.cells {
                r.fail(format!("warm pass {k} differs from the cold pass"));
            }
            s.warm_raw_ms.push(ms);
        }
    };

    let cache_b = cache_dir("b")?;
    for (k, &(name, render)) in artifacts::EXPERIMENTS.iter().enumerate() {
        cache_b.activate();
        r.attempted += 1;
        let again = artifacts::part(name, render, Some(speed));
        if again.tables != cold.parts[k].tables {
            r.fail(format!(
                "{name} rendered differently in the second cold pass"
            ));
        }
        s.cold_s[k] = s.cold_s[k].min(again.secs * again.scale);
        slot(r, speed, &mut s);
    }
    while secs(start) < o.seconds.min(MAX_PHASE_SECS) {
        slot(r, speed, &mut s);
    }

    if o.trace {
        let every_other = |odd: usize| -> Vec<f64> {
            s.warm_raw_ms.iter().skip(odd).step_by(2).copied().collect()
        };
        let (plain, spanned) = (every_other(0), every_other(1));
        r.set("bench.span_overhead", median(&spanned) / median(&plain));
        push_harness(r, cold.stats, cold.secs, bytes, &plain);
        let w = ARTIFACTS_PROBE;
        let mut probe = Report::default();
        let lr = hooked_runs(w, o.seed, WINDOW, 0.0, WINDOW, &mut probe);
        layer_metrics(&lr, &mut probe);
        trace_window(w, o.seed, &mut probe);
        r.attempted += probe.attempted;
        r.failed += probe.failed;
        r.problems.extend(probe.problems);
        // The probe's span overhead is that of spmd-barrier runs, not of
        // this workload's passes.
        r.metrics.extend(
            probe
                .metrics
                .into_iter()
                .filter(|(n, _)| *n != "bench.span_overhead"),
        );
        r.spans.extend(probe.spans);
        cache_key_us(w, o.seed, r);
        replays(w, o.seed, r);
        r.set("bench.spans", r.spans.len() as f64);
    } else {
        push_percentiles(r, &s.warm_ms);
        let cold_s: f64 = s.cold_s.iter().sum();
        r.set("runs_per_s", cold.stats.cells as f64 / cold_s);
        r.set("setup_s", median(&s.setup_s));
        push_rss(r, host::peak_rss_mb());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric and workload the benchmark reports is declared in
    /// `BENCHMARK.json` with the same unit, and nothing else is.
    #[test]
    fn benchmark_json_declares_what_the_benchmark_reports() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
        let unit_of = |name: &str| -> Option<String> {
            let at = doc.find(&format!("\"name\": \"{name}\""))?;
            let rest = &doc[at..];
            let u = rest.find("\"unit\": \"")? + "\"unit\": \"".len();
            Some(rest[u..u + rest[u..].find('"')?].to_string())
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert_eq!(unit_of(name).as_deref(), Some(*unit), "metric {name}");
        }
        for (name, _) in WORKLOADS {
            assert!(
                doc.contains(&format!("\"name\": \"{name}\"")),
                "workload {name}"
            );
        }
        let declared = doc.matches("\"name\": ").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }
}
