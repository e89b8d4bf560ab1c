//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each function reproduces one artifact (same axes, same series) on the
//! simulated machines. Absolute numbers are not expected to match a 2009
//! testbed; the *shape* — who wins, by what factor, where the crossovers
//! fall — is the reproduction target (see EXPERIMENTS.md for the recorded
//! comparison).

use crate::scenario::{Competitor, Machine, Policy, Scenario, ServerStats};
use crate::sweep::run_scenarios;
use serde::{Deserialize, Serialize};
use speedbal_analytic::{balancing_steps, min_profitable_granularity};
use speedbal_apps::WaitMode;
use speedbal_core::{SpeedBalancerConfig, SpeedMetric};
use speedbal_metrics::table::fmt_f;
use speedbal_metrics::{RepeatStats, Series, TextTable};
use speedbal_sim::SimDuration;
use speedbal_workloads::{ep, ep_modified, ft_b, npb_suite};

/// Effort preset for the experiment sweeps.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Profile {
    /// Run-length scale relative to the paper's seconds-long runs.
    pub scale: f64,
    /// Repeats per cell ("each experiment has been repeated ten times or
    /// more").
    pub repeats: usize,
}

impl Profile {
    /// The CLI's default preset: short runs, three repeats.
    pub fn quick() -> Profile {
        Profile {
            scale: 0.05,
            repeats: 3,
        }
    }

    /// The paper's methodology: full-length runs, ten repeats.
    pub fn full() -> Profile {
        Profile {
            scale: 0.5,
            repeats: 10,
        }
    }
}

/// A regenerated figure: named series over a common x-axis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    pub id: String,
    pub title: String,
    pub x_label: String,
    pub y_label: String,
    pub series: Vec<Series>,
    pub notes: Vec<String>,
}

impl Figure {
    /// Renders the figure as an aligned text table, one row per x-value.
    pub fn render(&self) -> String {
        let mut header: Vec<&str> = vec![self.x_label.as_str()];
        for s in &self.series {
            header.push(&s.label);
        }
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let mut t = TextTable::new(&header);
        for x in xs {
            let mut row = vec![fmt_f(x)];
            for s in &self.series {
                let v = s
                    .points
                    .iter()
                    .find(|p| p.x == x)
                    .map(|p| p.stats.mean())
                    .unwrap_or(f64::NAN);
                row.push(fmt_f(v));
            }
            t.row(row);
        }
        let mut out = format!("== {}: {} ==\n", self.id, self.title);
        out.push_str(&format!("   x: {} | y: {}\n", self.x_label, self.y_label));
        out.push_str(&t.render());
        for n in &self.notes {
            out.push_str(&format!("\nnote: {n}"));
        }
        out
    }
}

fn stats_of(values: Vec<f64>) -> RepeatStats {
    RepeatStats { values }
}

// ---------------------------------------------------------------------
// Figure 1 — analytic profitability threshold
// ---------------------------------------------------------------------

/// Figure 1: minimum inter-barrier granularity `S` (units of the balance
/// interval, B = 1) for speed balancing to beat queue-length balancing.
pub fn fig1() -> TextTable {
    let mut t = TextTable::new(&[
        "cores",
        "threads",
        "T",
        "slow_cores",
        "steps(Lemma1)",
        "min_S(B=1)",
    ]);
    for m in (10..=100).step_by(10) {
        for n in [m + 1, m + m / 2, 2 * m - 1, 2 * m + 1, 3 * m + 1, 4 * m - 1] {
            t.row(vec![
                m.to_string(),
                n.to_string(),
                (n / m).to_string(),
                (n % m).to_string(),
                balancing_steps(n, m).to_string(),
                fmt_f(min_profitable_granularity(n, m, 1.0)),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// Figure 2 / §6.1 — balancing vs synchronization granularity
// ---------------------------------------------------------------------

/// Figure 2: three threads on two cores, fixed total computation, barriers
/// at increasing granularity; series = speed-balancer intervals plus LOAD.
/// y = slowdown versus perfectly fair execution (1.5× the per-thread
/// work on 2 cores).
pub fn fig2(profile: Profile) -> Figure {
    let per_thread = SimDuration::from_secs(27).mul_f64(profile.scale);
    let fair_secs = per_thread.as_secs_f64() * 3.0 / 2.0;
    let granularities_us: Vec<u64> = vec![100, 500, 1_000, 5_000, 10_000, 50_000, 100_000];
    let intervals_ms = [20u64, 50, 100, 200];
    // Build the full grid up front so the sweep executor can run the cells
    // in parallel; results come back in submission order.
    let mut scenarios = Vec::new();
    for b in intervals_ms {
        for &g in &granularities_us {
            let spec = ep_modified(SimDuration::from_micros(g), per_thread, 3);
            let app = spec.spmd(3, WaitMode::Yield, 1.0);
            let mut cfg = SpeedBalancerConfig::with_interval(SimDuration::from_millis(b));
            cfg.measurement_noise = 0.01;
            scenarios.push(
                Scenario::new(Machine::Uniform(2), 0, Policy::SpeedWith(cfg), app)
                    .repeats(profile.repeats),
            );
        }
    }
    // LOAD baseline: static 2/1 split => slowdown ≈ 4/3.
    for &g in &granularities_us {
        let spec = ep_modified(SimDuration::from_micros(g), per_thread, 3);
        let app = spec.spmd(3, WaitMode::Yield, 1.0);
        scenarios.push(
            Scenario::new(Machine::Uniform(2), 0, Policy::Load, app).repeats(profile.repeats),
        );
    }
    let mut results = run_scenarios(scenarios).into_iter();
    let slowdowns = |res: crate::scenario::ScenarioResult| {
        stats_of(
            res.completion
                .values
                .iter()
                .map(|c| c / fair_secs)
                .collect(),
        )
    };
    let mut series: Vec<Series> = Vec::new();
    for b in intervals_ms {
        let mut s = Series::new(format!("SPEED-B{b}ms"));
        for &g in &granularities_us {
            s.push(g as f64, slowdowns(results.next().unwrap()));
        }
        series.push(s);
    }
    let mut load = Series::new("LOAD");
    for &g in &granularities_us {
        load.push(g as f64, slowdowns(results.next().unwrap()));
    }
    series.push(load);
    Figure {
        id: "fig2".into(),
        title: "3 threads on 2 cores, barrier granularity sweep".into(),
        x_label: "inter-barrier-us".into(),
        y_label: "slowdown vs fair (1.0 = perfect)".into(),
        series,
        notes: vec![
            "Paper: more frequent balancing helps the cache-light EP; 20 ms is best".into(),
            "LOAD stays at ~4/3 (static 2/1 split = 2x per phase / 1.5x fair)".into(),
        ],
    }
}

// ---------------------------------------------------------------------
// Table 1 — machine inventory
// ---------------------------------------------------------------------

/// Table 1: the modelled test systems.
pub fn tab1() -> TextTable {
    let mut t = TextTable::new(&[
        "system",
        "cores",
        "sockets",
        "numa_nodes",
        "smt",
        "shared_cache",
    ]);
    for m in [Machine::Tigerton, Machine::Barcelona, Machine::Nehalem] {
        let topo = m.topology();
        let smt = topo.smt_siblings(speedbal_machine::CoreId(0)).len() + 1;
        t.row(vec![
            m.label(),
            topo.n_cores().to_string(),
            topo.n_sockets().to_string(),
            topo.n_nodes().to_string(),
            format!("{smt}x"),
            format!("{}MB", topo.cache_bytes() >> 20),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Figure 3 — EP speedup, 16 threads on 1..16 cores
// ---------------------------------------------------------------------

/// The policy line-up of Figure 3.
fn fig3_policies() -> Vec<(&'static str, Policy, WaitMode)> {
    vec![
        ("SPEED-YIELD", Policy::Speed, WaitMode::Yield),
        ("SPEED-SLEEP", Policy::Speed, WaitMode::Block),
        ("LOAD-YIELD", Policy::Load, WaitMode::Yield),
        ("LOAD-SLEEP", Policy::Load, WaitMode::Block),
        ("PINNED", Policy::Pinned, WaitMode::Yield),
        ("DWRR", Policy::Dwrr, WaitMode::Yield),
        ("FreeBSD", Policy::Ule, WaitMode::Yield),
    ]
}

/// Figure 3: EP class C compiled with 16 threads, run on 1..16 cores of
/// `machine`; speedup (serial time / measured) per policy, plus the
/// one-thread-per-core ideal.
pub fn fig3(machine: Machine, profile: Profile) -> Figure {
    let spec = ep();
    let serial = spec.serial_time(profile.scale).as_secs_f64();
    let core_counts: Vec<usize> = (1..=16).collect();

    let mut scenarios = Vec::new();
    for &n in &core_counts {
        let app = spec.spmd(n, WaitMode::Spin, profile.scale);
        scenarios
            .push(Scenario::new(machine.clone(), n, Policy::Pinned, app).repeats(profile.repeats));
    }
    for (_, policy, wait) in fig3_policies() {
        for &n in &core_counts {
            let app = spec.spmd(16, wait, profile.scale);
            scenarios.push(
                Scenario::new(machine.clone(), n, policy.clone(), app).repeats(profile.repeats),
            );
        }
    }
    let mut results = run_scenarios(scenarios).into_iter();
    let speedups = |res: crate::scenario::ScenarioResult| {
        stats_of(res.completion.values.iter().map(|c| serial / c).collect())
    };

    let mut series = Vec::new();
    let mut one_per_core = Series::new("One-per-core");
    for &n in &core_counts {
        one_per_core.push(n as f64, speedups(results.next().unwrap()));
    }
    series.push(one_per_core);
    for (label, _, _) in fig3_policies() {
        let mut s = Series::new(label);
        for &n in &core_counts {
            s.push(n as f64, speedups(results.next().unwrap()));
        }
        series.push(s);
    }
    Figure {
        id: format!("fig3-{}", machine.label()),
        title: "EP class C speedup, 16 threads on N cores".into(),
        x_label: "cores".into(),
        y_label: "speedup vs serial".into(),
        series,
        notes: vec![
            "PINNED optimal only where 16 mod N == 0 (2,4,8,16)".into(),
            "SPEED near-optimal at all core counts with low variation".into(),
        ],
    }
}

// ---------------------------------------------------------------------
// Table 2 — benchmark characteristics + measured 16-core speedups
// ---------------------------------------------------------------------

/// Table 2: the NPB profile catalogue and the simulator's 16-core
/// speedups on both machines (under SPEED, yield barriers).
pub fn tab2(profile: Profile) -> TextTable {
    let mut t = TextTable::new(&[
        "BM",
        "RSS/core(GB)",
        "inter-barrier(ms)",
        "speedup@16 tigerton",
        "speedup@16 barcelona",
    ]);
    let mut scenarios = Vec::new();
    for spec in npb_suite() {
        for machine in [Machine::Tigerton, Machine::Barcelona] {
            let app = spec.spmd(16, WaitMode::Yield, profile.scale);
            scenarios.push(Scenario::new(machine, 16, Policy::Speed, app).repeats(profile.repeats));
        }
    }
    let mut results = run_scenarios(scenarios).into_iter();
    for spec in npb_suite() {
        let serial = spec.serial_time(profile.scale).as_secs_f64();
        let tigerton = results.next().unwrap().speedup(serial);
        let barcelona = results.next().unwrap().speedup(serial);
        t.row(vec![
            spec.name.to_string(),
            fmt_f(spec.rss_per_thread_bytes as f64 / (1u64 << 30) as f64),
            fmt_f(spec.inter_barrier.as_millis_f64()),
            fmt_f(tigerton),
            fmt_f(barcelona),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Table 3 / Figure 4 — SPEED vs PINNED and LOAD over the UPC suite
// ---------------------------------------------------------------------

/// Raw measurements behind Table 3 and Figure 4: per benchmark × core
/// count, the repeat stats for SPEED, LOAD and PINNED.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteCell {
    pub benchmark: String,
    pub cores: usize,
    pub speed: RepeatStats,
    pub load: RepeatStats,
    pub pinned: RepeatStats,
}

/// Core counts used for the suite sweeps: emphasizes the non-divisible
/// counts where balancing matters, keeping a few divisible ones.
pub fn suite_core_counts() -> Vec<usize> {
    vec![5, 6, 7, 9, 10, 11, 12, 13, 15]
}

/// Runs the combined UPC-style workload (yield barriers) under SPEED, LOAD
/// and PINNED for every benchmark × core count.
pub fn suite_sweep(machine: Machine, profile: Profile) -> Vec<SuiteCell> {
    let mut scenarios = Vec::new();
    for spec in npb_suite() {
        for &cores in &suite_core_counts() {
            for policy in [Policy::Speed, Policy::Load, Policy::Pinned] {
                let app = spec.spmd(16, WaitMode::Yield, profile.scale);
                scenarios.push(
                    Scenario::new(machine.clone(), cores, policy, app).repeats(profile.repeats),
                );
            }
        }
    }
    let mut results = run_scenarios(scenarios).into_iter();
    let mut cells = Vec::new();
    for spec in npb_suite() {
        for &cores in &suite_core_counts() {
            cells.push(SuiteCell {
                benchmark: spec.name.to_string(),
                cores,
                speed: results.next().unwrap().completion,
                load: results.next().unwrap().completion,
                pinned: results.next().unwrap().completion,
            });
        }
    }
    cells
}

/// Table 3: percentage improvements of SPEED over PINNED and LOAD
/// (average and worst case) and run-to-run variation, aggregated per
/// benchmark and overall.
pub fn tab3(cells: &[SuiteCell]) -> TextTable {
    let mut t = TextTable::new(&[
        "BM",
        "vs PINNED avg%",
        "vs LOAD avg%",
        "vs LOAD worst%",
        "SPEED var%",
        "LOAD var%",
    ]);
    let mut names: Vec<String> = cells.iter().map(|c| c.benchmark.clone()).collect();
    names.dedup();
    let agg = |filter: &dyn Fn(&&SuiteCell) -> bool| -> Vec<f64> {
        let sel: Vec<&SuiteCell> = cells.iter().filter(filter).collect();
        let mean = |f: &dyn Fn(&SuiteCell) -> f64| {
            sel.iter().map(|c| f(c)).sum::<f64>() / sel.len().max(1) as f64
        };
        vec![
            mean(&|c| c.speed.improvement_over_pct(&c.pinned)),
            mean(&|c| c.speed.improvement_over_pct(&c.load)),
            mean(&|c| c.speed.worst_case_improvement_pct(&c.load)),
            mean(&|c| c.speed.variation_pct()),
            mean(&|c| c.load.variation_pct()),
        ]
    };
    for name in &names {
        let vals = agg(&|c| &c.benchmark == name);
        let mut row = vec![name.clone()];
        row.extend(vals.into_iter().map(fmt_f));
        t.row(row);
    }
    let mut row = vec!["all".to_string()];
    row.extend(agg(&|_| true).into_iter().map(fmt_f));
    t.row(row);
    t
}

/// Figure 4: per-benchmark average and worst-case LOAD/SPEED time ratios
/// and the two variations, across core counts.
pub fn fig4(cells: &[SuiteCell]) -> Figure {
    let mut names: Vec<String> = cells.iter().map(|c| c.benchmark.clone()).collect();
    names.dedup();
    let mut series = Vec::new();
    for (label, f) in [
        (
            "LB_AVG/SB_AVG",
            Box::new(|c: &SuiteCell| c.load.mean() / c.speed.mean())
                as Box<dyn Fn(&SuiteCell) -> f64>,
        ),
        (
            "LB_WORST/SB_WORST",
            Box::new(|c: &SuiteCell| c.load.max() / c.speed.max()),
        ),
        (
            "SB_VARIATION%",
            Box::new(|c: &SuiteCell| c.speed.variation_pct()),
        ),
        (
            "LB_VARIATION%",
            Box::new(|c: &SuiteCell| c.load.variation_pct()),
        ),
    ] {
        let mut s = Series::new(label);
        for (i, name) in names.iter().enumerate() {
            let vals: Vec<f64> = cells
                .iter()
                .filter(|c| &c.benchmark == name)
                .map(&f)
                .collect();
            s.push(i as f64, stats_of(vals));
        }
        series.push(s);
    }
    Figure {
        id: "fig4".into(),
        title: format!("SPEED vs LOAD per benchmark (x = {:?})", names),
        x_label: "benchmark#".into(),
        y_label: "ratio / variation%".into(),
        series,
        notes: vec![format!("benchmark order: {names:?}")],
    }
}

// ---------------------------------------------------------------------
// Figure 5 — sharing with a cpu-hog
// ---------------------------------------------------------------------

/// Figure 5: EP sharing the machine with a compute hog pinned to core 0.
pub fn fig5(profile: Profile) -> Figure {
    let spec = ep();
    let serial = spec.serial_time(profile.scale).as_secs_f64();
    let core_counts: Vec<usize> = (2..=16).collect();
    let policies = [
        ("PINNED-16", Policy::Pinned),
        ("LOAD", Policy::Load),
        ("SPEED", Policy::Speed),
    ];

    // One thread per core, pinned (the hog always takes half of core 0),
    // then each 16-thread policy; every cell shares the pinned hog.
    let mut scenarios = Vec::new();
    for &n in &core_counts {
        let app = spec.spmd(n, WaitMode::Spin, profile.scale);
        scenarios.push(
            Scenario::new(Machine::Tigerton, n, Policy::Pinned, app)
                .competitors(vec![Competitor::CpuHog { core: 0 }])
                .repeats(profile.repeats),
        );
    }
    for (_, policy) in &policies {
        for &n in &core_counts {
            let app = spec.spmd(16, WaitMode::Yield, profile.scale);
            scenarios.push(
                Scenario::new(Machine::Tigerton, n, policy.clone(), app)
                    .competitors(vec![Competitor::CpuHog { core: 0 }])
                    .repeats(profile.repeats),
            );
        }
    }
    let mut results = run_scenarios(scenarios).into_iter();
    let speedups = |res: crate::scenario::ScenarioResult| {
        stats_of(res.completion.values.iter().map(|c| serial / c).collect())
    };

    let mut series = Vec::new();
    let mut opc = Series::new("One-per-core");
    for &n in &core_counts {
        opc.push(n as f64, speedups(results.next().unwrap()));
    }
    series.push(opc);
    for (label, _) in &policies {
        let mut s = Series::new(*label);
        for &n in &core_counts {
            s.push(n as f64, speedups(results.next().unwrap()));
        }
        series.push(s);
    }
    Figure {
        id: "fig5".into(),
        title: "EP + cpu-hog pinned to core 0 (17 tasks: no static balance)".into(),
        x_label: "cores".into(),
        y_label: "speedup vs serial".into(),
        series,
        notes: vec![
            "One-per-core runs at ~50% (hog halves core 0, barriers gate everyone)".into(),
            "SPEED degrades gracefully; total task count 17 is prime".into(),
        ],
    }
}

// ---------------------------------------------------------------------
// Figure 6 — sharing with make -j
// ---------------------------------------------------------------------

/// Figure 6: NPB benchmarks sharing 16 cores with a make -j-like batch
/// workload; relative performance of SPEED over LOAD per benchmark.
pub fn fig6(profile: Profile) -> TextTable {
    let mut t = TextTable::new(&["BM", "SPEED(s)", "LOAD(s)", "LOAD/SPEED"]);
    let mut scenarios = Vec::new();
    for spec in npb_suite() {
        for policy in [Policy::Speed, Policy::Load] {
            let app = spec.spmd(16, WaitMode::Yield, profile.scale);
            scenarios.push(
                Scenario::new(Machine::Tigerton, 16, policy, app)
                    .competitors(vec![Competitor::MakeJ {
                        tasks: 8,
                        jobs_per_task: 40,
                    }])
                    .repeats(profile.repeats),
            );
        }
    }
    let mut results = run_scenarios(scenarios).into_iter();
    for spec in npb_suite() {
        let speed = results.next().unwrap().completion;
        let load = results.next().unwrap().completion;
        t.row(vec![
            spec.name.to_string(),
            fmt_f(speed.mean()),
            fmt_f(load.mean()),
            fmt_f(load.mean() / speed.mean()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// §6.2 — barrier implementation interaction
// ---------------------------------------------------------------------

/// §6.2: the barrier-implementation × balancer matrix (the paper's
/// LB_DEF / LB_INF / SB_DEF / SB_INF comparison), oversubscribed: 16
/// threads on 12 cores of Tigerton, cg.B (4 ms barriers).
pub fn barriers(profile: Profile) -> TextTable {
    let spec = speedbal_workloads::npb("cg.B").unwrap();
    let mut t = TextTable::new(&["barrier", "LOAD(s)", "SPEED(s)", "LOAD/SPEED"]);
    let waits = [
        ("DEF (spin 200ms then sleep)", WaitMode::kmp_default()),
        ("INF (poll)", WaitMode::Spin),
        ("YIELD (sched_yield)", WaitMode::Yield),
        ("SLEEP (block)", WaitMode::Block),
    ];
    let mut scenarios = Vec::new();
    for (_, wait) in waits {
        for policy in [Policy::Load, Policy::Speed] {
            let app = spec.spmd(16, wait, profile.scale);
            scenarios
                .push(Scenario::new(Machine::Tigerton, 12, policy, app).repeats(profile.repeats));
        }
    }
    let mut results = run_scenarios(scenarios).into_iter();
    for (label, _) in waits {
        let load = results.next().unwrap().completion;
        let speed = results.next().unwrap().completion;
        t.row(vec![
            label.to_string(),
            fmt_f(load.mean()),
            fmt_f(speed.mean()),
            fmt_f(load.mean() / speed.mean()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// §6.4 — NUMA
// ---------------------------------------------------------------------

/// §6.4: Barcelona NUMA behaviour — LOAD vs SPEED (NUMA migrations
/// blocked, the default) vs SPEED with cross-node migrations allowed,
/// on the memory-heavy ft.B, oversubscribed on 13 cores.
pub fn numa(profile: Profile) -> TextTable {
    let spec = speedbal_workloads::npb("ft.B").unwrap();
    let mut t = TextTable::new(&["policy", "mean(s)", "var%", "migrations"]);
    let cfg_free = SpeedBalancerConfig {
        block_numa_migrations: false,
        ..Default::default()
    };
    let policies = [
        ("PINNED", Policy::Pinned),
        ("LOAD", Policy::Load),
        ("SPEED (NUMA blocked)", Policy::Speed),
        ("SPEED (NUMA allowed)", Policy::SpeedWith(cfg_free.clone())),
    ];
    let scenarios = policies
        .iter()
        .map(|(_, policy)| {
            let app = spec.spmd(16, WaitMode::Yield, profile.scale);
            Scenario::new(Machine::Barcelona, 13, policy.clone(), app).repeats(profile.repeats)
        })
        .collect();
    for ((label, _), res) in policies.iter().zip(run_scenarios(scenarios)) {
        t.row(vec![
            label.to_string(),
            fmt_f(res.completion.mean()),
            fmt_f(res.completion.variation_pct()),
            fmt_f(res.migrations.mean()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// serve — open-loop server traffic: tail latency under each policy
// ---------------------------------------------------------------------

/// The policy line-up of the `serve` artifact.
fn serve_policies() -> Vec<(&'static str, Policy)> {
    vec![
        ("SPEED", Policy::Speed),
        ("LOAD", Policy::Load),
        ("FreeBSD", Policy::Ule),
        ("DWRR", Policy::Dwrr),
    ]
}

/// Cores used by the serve experiments (all of Tigerton).
const SERVE_CORES: usize = 16;
/// Worker-pool size: 1.5× oversubscribed, so balancing decisions matter.
const SERVE_WORKERS: usize = 24;

/// The request-generation window: 2 simulated seconds at full scale.
fn serve_window(profile: Profile) -> SimDuration {
    SimDuration::from_secs(2).mul_f64(profile.scale)
}

/// One rendered row of a serve table: latency percentiles, mean queueing
/// delay and the drop rate for a policy's [`ServerStats`].
fn serve_row(first: String, policy: &str, st: &ServerStats) -> Vec<String> {
    let total = st.completed.mean() + st.dropped.mean();
    let drop_pct = if total > 0.0 {
        100.0 * st.dropped.mean() / total
    } else {
        0.0
    };
    vec![
        first,
        policy.to_string(),
        fmt_f(st.p50_ms.mean()),
        fmt_f(st.p99_ms.mean()),
        fmt_f(st.p999_ms.mean()),
        fmt_f(st.queue_mean_ms.mean()),
        fmt_f(drop_pct),
    ]
}

/// serve/1 — offered-load sweep: the web profile (Poisson arrivals,
/// lognormal service) at increasing offered load `ρ`, 24 workers on all
/// 16 Tigerton cores, per policy. Every policy serves the *identical*
/// pre-generated request schedule, so differences are pure scheduling.
pub fn serve_offered_load(profile: Profile) -> TextTable {
    let window = serve_window(profile);
    let rhos = [0.5, 0.7, 0.85, 0.95];
    let mut scenarios = Vec::new();
    for &rho in &rhos {
        for (_, policy) in serve_policies() {
            let cfg = speedbal_workloads::web(SERVE_WORKERS, SERVE_CORES, rho, window);
            scenarios.push(
                Scenario::server_only(Machine::Tigerton, SERVE_CORES, policy, cfg)
                    .repeats(profile.repeats),
            );
        }
    }
    let mut results = run_scenarios(scenarios).into_iter();
    let mut t = TextTable::new(&[
        "rho",
        "policy",
        "p50(ms)",
        "p99(ms)",
        "p999(ms)",
        "qwait(ms)",
        "drop%",
    ]);
    for &rho in &rhos {
        for (label, _) in serve_policies() {
            let st = results.next().unwrap().server.expect("server cell");
            t.row(serve_row(fmt_f(rho), label, &st));
        }
    }
    t
}

/// serve/2 — arrival/service shapes at a fixed load: Poisson vs bursty
/// (MMPP) vs a capacity-bounded bursty variant (exercising queue-full
/// drops) vs scatter-gather fan-out (request completes at the max of
/// K = 4 subtasks) vs the diurnal replay preset.
pub fn serve_shapes(profile: Profile) -> TextTable {
    let window = serve_window(profile);
    let shapes: Vec<(&str, speedbal_apps::ServerConfig)> = vec![
        (
            "poisson",
            speedbal_workloads::web(SERVE_WORKERS, SERVE_CORES, 0.85, window),
        ),
        (
            "bursty",
            speedbal_workloads::web_bursty(SERVE_WORKERS, SERVE_CORES, 0.85, window),
        ),
        (
            "bursty-cap256",
            speedbal_workloads::web_bursty(SERVE_WORKERS, SERVE_CORES, 0.85, window)
                .queue_capacity(256),
        ),
        (
            "rpc-K4",
            speedbal_workloads::rpc_fanout(SERVE_WORKERS, SERVE_CORES, 0.85, 4, window),
        ),
        (
            "diurnal",
            speedbal_workloads::diurnal(SERVE_WORKERS, SERVE_CORES, 0.95, window),
        ),
    ];
    let mut scenarios = Vec::new();
    for (_, cfg) in &shapes {
        for (_, policy) in serve_policies() {
            scenarios.push(
                Scenario::server_only(Machine::Tigerton, SERVE_CORES, policy, cfg.clone())
                    .repeats(profile.repeats),
            );
        }
    }
    let mut results = run_scenarios(scenarios).into_iter();
    let mut t = TextTable::new(&[
        "arrivals",
        "policy",
        "p50(ms)",
        "p99(ms)",
        "p999(ms)",
        "qwait(ms)",
        "drop%",
    ]);
    for (name, _) in &shapes {
        for (label, _) in serve_policies() {
            let st = results.next().unwrap().server.expect("server cell");
            t.row(serve_row(name.to_string(), label, &st));
        }
    }
    t
}

/// serve/3 — mixed tenancy: EP (16 yield-barrier threads) sharing all of
/// Tigerton with a moderate web server (8 workers, ρ = 0.4). The SPMD
/// completion time stays the headline number; the server's tail shows
/// what the same policy does to latency-sensitive co-tenants.
pub fn serve_mixed(profile: Profile) -> TextTable {
    let window = serve_window(profile);
    let spec = ep();
    let serial = spec.serial_time(profile.scale).as_secs_f64();
    let mut scenarios = Vec::new();
    for (_, policy) in serve_policies() {
        let app = spec.spmd(16, WaitMode::Yield, profile.scale);
        let srv = speedbal_workloads::web(8, SERVE_CORES, 0.4, window);
        scenarios.push(
            Scenario::new(Machine::Tigerton, 0, policy, app)
                .server(srv)
                .repeats(profile.repeats),
        );
    }
    let mut t = TextTable::new(&[
        "policy",
        "spmd(s)",
        "speedup",
        "p50(ms)",
        "p99(ms)",
        "qwait(ms)",
    ]);
    for ((label, _), res) in serve_policies().iter().zip(run_scenarios(scenarios)) {
        let st = res
            .server
            .as_ref()
            .expect("mixed cell carries server stats");
        t.row(vec![
            label.to_string(),
            fmt_f(res.completion.mean()),
            fmt_f(res.speedup(serial)),
            fmt_f(st.p50_ms.mean()),
            fmt_f(st.p99_ms.mean()),
            fmt_f(st.queue_mean_ms.mean()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// hetero — asymmetric machines: big.LITTLE, turbo pair, thermal throttle
// ---------------------------------------------------------------------

/// The policy line-up of the `hetero` artifact: the serve line-up plus
/// SPEED-W — the §5 heterogeneity extension, weighting each thread's
/// measured speed by its core's current capacity (static speed × DVFS
/// ratio), so a full share of a slow core reads as less progress.
fn hetero_policies() -> Vec<(&'static str, Policy)> {
    vec![
        ("SPEED", Policy::Speed),
        (
            "SPEED-W",
            Policy::SpeedWith(SpeedBalancerConfig {
                weight_core_speed: true,
                ..Default::default()
            }),
        ),
        ("LOAD", Policy::Load),
        ("FreeBSD", Policy::Ule),
        ("DWRR", Policy::Dwrr),
    ]
}

/// The asymmetric machines the artifact sweeps (see
/// `speedbal_workloads::hetero` for the regimes each one stresses).
fn hetero_machines() -> Vec<Machine> {
    vec![Machine::BigLittle4p8e, Machine::Turbo2p, Machine::Throttle]
}

/// Nominal total capacity of a machine: the sum of static per-core
/// speeds. For the DVFS presets this ignores the frequency traces (the
/// turbo wave and throttle ratchet average out near 1.0), so the derived
/// efficiency is approximate there and exact for the static big.LITTLE.
fn nominal_capacity(machine: &Machine) -> f64 {
    let topo = machine.topology();
    (0..topo.n_cores())
        .map(|c| topo.speed_of(speedbal_machine::CoreId(c)))
        .sum()
}

/// hetero/1 — barrier SPMD on asymmetric machines: EP (yield barriers)
/// with 1.5× oversubscription, machine × policy. `eff%` is the
/// capacity-normalized parallel efficiency — `serial / (Σspeed × time)` —
/// which makes results comparable across machines with different core
/// mixes; `var%` is the paper's run-to-run variation measure.
pub fn hetero_spmd(profile: Profile) -> TextTable {
    let spec = ep();
    let serial = spec.serial_time(profile.scale).as_secs_f64();
    let mut scenarios = Vec::new();
    for machine in hetero_machines() {
        let threads = machine.topology().n_cores() * 3 / 2;
        for (_, policy) in hetero_policies() {
            let app = spec.spmd(threads, WaitMode::Yield, profile.scale);
            scenarios.push(Scenario::new(machine.clone(), 0, policy, app).repeats(profile.repeats));
        }
    }
    let mut results = run_scenarios(scenarios).into_iter();
    let mut t = TextTable::new(&["machine", "policy", "time(s)", "eff%", "var%", "migr"]);
    for machine in hetero_machines() {
        let capacity = nominal_capacity(&machine);
        for (label, _) in hetero_policies() {
            let res = results.next().unwrap();
            t.row(vec![
                machine.label(),
                label.to_string(),
                fmt_f(res.completion.mean()),
                fmt_f(res.completion.capacity_efficiency_pct(serial, capacity)),
                fmt_f(res.completion.variation_pct()),
                fmt_f(res.migrations.mean()),
            ]);
        }
    }
    t
}

/// hetero/2 — open-loop web serving on asymmetric machines: Poisson
/// arrivals, lognormal service, 1.5× worker oversubscription at ρ = 0.7
/// of each machine's *core count* (so the slower mixes run effectively
/// hotter — deliberate: misplacement on slow cores is exactly what the
/// tail should expose). Every policy serves the identical pre-generated
/// request schedule and frequency trace.
pub fn hetero_serve(profile: Profile) -> TextTable {
    let window = serve_window(profile);
    let mut scenarios = Vec::new();
    for machine in hetero_machines() {
        let cores = machine.topology().n_cores();
        let workers = cores * 3 / 2;
        for (_, policy) in hetero_policies() {
            let cfg = speedbal_workloads::web(workers, cores, 0.7, window);
            scenarios.push(
                Scenario::server_only(machine.clone(), 0, policy, cfg).repeats(profile.repeats),
            );
        }
    }
    let mut results = run_scenarios(scenarios).into_iter();
    let mut t = TextTable::new(&[
        "machine",
        "policy",
        "p50(ms)",
        "p99(ms)",
        "p999(ms)",
        "qwait(ms)",
        "drop%",
    ]);
    for machine in hetero_machines() {
        for (label, _) in hetero_policies() {
            let st = results.next().unwrap().server.expect("server cell");
            t.row(serve_row(machine.label(), label, &st));
        }
    }
    t
}

// ---------------------------------------------------------------------
// ablations — the §5 design choices, in simulated time
// ---------------------------------------------------------------------

/// One edit of a speed-balancer configuration.
type ConfigEdit = fn(&mut SpeedBalancerConfig);

/// The §5 design choices the `ablations` artifact varies: each variant is
/// one edit of a cell's base configuration (`default` is the base).
const ABLATIONS: [(&str, ConfigEdit); 10] = [
    ("default", |_| {}),
    ("no-jitter", |c| c.randomize_interval = false),
    ("threshold-0.99", |c| c.speed_threshold = 0.99),
    ("threshold-0.6", |c| c.speed_threshold = 0.6),
    ("no-post-block", |c| c.post_migration_block = 0),
    ("post-block-6", |c| c.post_migration_block = 6),
    ("cache-tiered-2x", |c| c.cross_cache_interval_mult = 2),
    ("weighted-speed", |c| c.weight_core_speed = true),
    ("queue-length-metric", |c| {
        c.metric = SpeedMetric::InverseQueueLength
    }),
    ("numa-allowed", |c| c.block_numa_migrations = false),
];

/// The `ablations` variants applied to `base`, in artifact order.
pub fn ablation_variants(base: &SpeedBalancerConfig) -> Vec<(&'static str, SpeedBalancerConfig)> {
    ABLATIONS
        .iter()
        .map(|(name, edit)| {
            let mut cfg = base.clone();
            edit(&mut cfg);
            (*name, cfg)
        })
        .collect()
}

/// ablations — the speed balancer's §5 design choices in the
/// application's own (simulated) time. Each cell is one where some knob
/// should matter: the oversubscribed EP cell (jitter, threshold, block),
/// ft.B on Barcelona (NUMA blocking, cache tiers), the EP cell under ten
/// times the default measurement noise (threshold, block), and EP on a
/// big.LITTLE machine (weighting). Each table has a PINNED reference row
/// and one row per variant: mean completion, its run-to-run variation,
/// migrations, and the change in mean completion against `default`.
pub fn ablations(profile: Profile) -> Vec<(&'static str, TextTable)> {
    let pinned = |machine, cores, app| {
        Scenario::new(machine, cores, Policy::Pinned, app).repeats(profile.repeats)
    };
    let ep_app = |threads| ep().spmd(threads, WaitMode::Yield, profile.scale);
    let noisy = SpeedBalancerConfig {
        measurement_noise: 0.1,
        ..Default::default()
    };
    let cells = [
        (
            "EP x16, yield barriers, 5 Tigerton cores",
            pinned(Machine::Tigerton, 5, ep_app(16)),
            SpeedBalancerConfig::default(),
        ),
        (
            "ft.B x16, yield barriers, 13 Barcelona cores",
            pinned(
                Machine::Barcelona,
                13,
                ft_b().spmd(16, WaitMode::Yield, profile.scale),
            ),
            SpeedBalancerConfig::default(),
        ),
        (
            "EP x16, yield barriers, 5 Tigerton cores, measurement noise 0.1",
            pinned(Machine::Tigerton, 5, ep_app(16)),
            noisy,
        ),
        (
            "EP x18, yield barriers, 4p8e big.LITTLE",
            pinned(Machine::BigLittle4p8e, 0, ep_app(18)),
            SpeedBalancerConfig::default(),
        ),
    ];
    let mut scenarios = Vec::new();
    for (_, pinned, base) in &cells {
        scenarios.push(pinned.clone());
        for (_, cfg) in ablation_variants(base) {
            scenarios.push(Scenario {
                policy: Policy::SpeedWith(cfg),
                ..pinned.clone()
            });
        }
    }
    let mut results = run_scenarios(scenarios).into_iter();
    let mut tables = Vec::new();
    for (heading, _, _) in cells {
        let rows: Vec<_> = std::iter::once("PINNED")
            .chain(ABLATIONS.iter().map(|(name, _)| *name))
            .zip(results.by_ref())
            .collect();
        // Row 0 is PINNED, row 1 the `default` variant.
        let default_mean = rows[1].1.completion.mean();
        let mut t = TextTable::new(&["variant", "time(s)", "var%", "migr", "vs default%"]);
        for (name, res) in rows {
            let mean = res.completion.mean();
            t.row(vec![
                name.to_string(),
                format!("{mean:.3}"),
                fmt_f(res.completion.variation_pct()),
                fmt_f(res.migrations.mean()),
                format!("{:+.1}", 100.0 * (mean / default_mean - 1.0)),
            ]);
        }
        tables.push((heading, t));
    }
    tables
}

// ---------------------------------------------------------------------
// Named trace scenarios
// ---------------------------------------------------------------------

/// The named scenarios `speedbal-cli trace <name>` accepts.
pub const TRACE_SCENARIOS: &[(&str, &str)] = &[
    (
        "ep-3x2",
        "EP, 3 threads on 2 uniform cores (Figure 2's cell)",
    ),
    (
        "ep-16x8",
        "EP, 16 threads on 8 Tigerton cores, yield barriers",
    ),
    (
        "ep-hog",
        "EP, 16 threads sharing Tigerton with a pinned cpu-hog",
    ),
    (
        "cg-barrier",
        "cg.B, 16 threads / 12 cores, blocking barriers",
    ),
    (
        "web-serve",
        "web server, 24 workers at rho 0.85 on 16 Tigerton cores",
    ),
];

/// Builds a named trace scenario with the given policy. The repeat count
/// comes from the profile; callers usually override it to 1.
pub fn trace_scenario(name: &str, policy: Policy, profile: Profile) -> Result<Scenario, String> {
    let p = profile;
    let s = match name {
        "ep-3x2" => {
            let app = ep().spmd(3, WaitMode::Block, p.scale);
            Scenario::new(Machine::Uniform(2), 0, policy, app)
        }
        "ep-16x8" => {
            let app = ep().spmd(16, WaitMode::Yield, p.scale);
            Scenario::new(Machine::Tigerton, 8, policy, app)
        }
        "ep-hog" => {
            let app = ep().spmd(16, WaitMode::Yield, p.scale);
            Scenario::new(Machine::Tigerton, 0, policy, app)
                .competitors(vec![Competitor::CpuHog { core: 0 }])
        }
        "cg-barrier" => {
            let spec = speedbal_workloads::npb("cg.B")
                .ok_or_else(|| "cg.B missing from the NPB catalogue".to_string())?;
            let app = spec.spmd(16, WaitMode::Block, p.scale);
            Scenario::new(Machine::Tigerton, 12, policy, app)
        }
        "web-serve" => {
            let cfg =
                speedbal_workloads::web(SERVE_WORKERS, SERVE_CORES, 0.85, serve_window(profile));
            Scenario::server_only(Machine::Tigerton, SERVE_CORES, policy, cfg)
        }
        other => {
            let known: Vec<&str> = TRACE_SCENARIOS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown trace scenario {other}; known: {}",
                known.join(", ")
            ));
        }
    };
    Ok(s.repeats(p.repeats).traced(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_scenario;

    fn tiny() -> Profile {
        Profile {
            scale: 0.02,
            repeats: 2,
        }
    }

    #[test]
    fn figure_render_fills_missing_points() {
        use speedbal_metrics::Series;
        let mut a = Series::new("A");
        a.push(1.0, stats_of(vec![2.0]));
        a.push(2.0, stats_of(vec![3.0]));
        let mut b = Series::new("B");
        b.push(2.0, stats_of(vec![5.0]));
        let f = Figure {
            id: "t".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![a, b],
            notes: vec!["hello".into()],
        };
        let out = f.render();
        // x = 1 has no B value: rendered as "-".
        let row1 = out.lines().find(|l| l.starts_with("1.00")).unwrap();
        assert!(row1.contains('-'), "missing point must render as -: {row1}");
        assert!(out.contains("note: hello"));
    }

    #[test]
    fn fig1_has_rows() {
        let t = fig1();
        assert!(t.n_rows() >= 60);
    }

    #[test]
    fn tab1_lists_three_machines() {
        assert_eq!(tab1().n_rows(), 3);
    }

    #[test]
    fn fig2_runs_and_orders_sanely() {
        let _g = crate::sweep::tests::global_guard();
        let f = fig2(Profile {
            scale: 0.01,
            repeats: 2,
        });
        assert_eq!(f.series.len(), 5);
        // At coarse granularity every SPEED series beats the LOAD slowdown.
        let load_last = f.series.last().unwrap().points.last().unwrap().stats.mean();
        for s in &f.series[..4] {
            let v = s.points.last().unwrap().stats.mean();
            assert!(
                v < load_last,
                "{} ({v}) should beat LOAD ({load_last}) at coarse grain",
                s.label
            );
        }
    }

    #[test]
    fn fig3_quick_shape() {
        let _g = crate::sweep::tests::global_guard();
        let f = fig3(Machine::Tigerton, tiny());
        assert_eq!(f.series.len(), 8);
        // One-per-core scales perfectly (within a few percent).
        let opc = &f.series[0];
        let at16 = opc.points.iter().find(|p| p.x == 16.0).unwrap();
        assert!(
            at16.stats.mean() > 14.5,
            "one-per-core must be near 16, got {}",
            at16.stats.mean()
        );
        let render = f.render();
        assert!(render.contains("SPEED-YIELD"));
    }

    #[test]
    fn fig5_fig6_barriers_numa_smoke() {
        let _g = crate::sweep::tests::global_guard();
        // Tiny-profile smoke coverage of the remaining regenerators: they
        // must produce complete artifacts with sane values.
        let p = Profile {
            scale: 0.01,
            repeats: 1,
        };
        let f5 = fig5(p);
        assert_eq!(f5.series.len(), 4);
        for s in &f5.series {
            assert_eq!(s.points.len(), 15, "{}: cores 2..=16", s.label);
            for pt in &s.points {
                assert!(pt.stats.mean() > 0.0);
            }
        }
        assert_eq!(fig6(p).n_rows(), 5);
        assert_eq!(barriers(p).n_rows(), 4);
        assert_eq!(numa(p).n_rows(), 4);
    }

    #[test]
    fn serve_tables_have_expected_shape() {
        let _g = crate::sweep::tests::global_guard();
        let p = Profile {
            scale: 0.02,
            repeats: 1,
        };
        let sweep = serve_offered_load(p);
        assert_eq!(sweep.n_rows(), 4 * 4, "4 rhos x 4 policies");
        let shapes = serve_shapes(p);
        assert_eq!(shapes.n_rows(), 5 * 4, "5 shapes x 4 policies");
        let mixed = serve_mixed(p);
        assert_eq!(mixed.n_rows(), 4);
        // Every latency cell renders a positive number.
        let rendered = sweep.render();
        assert!(rendered.contains("SPEED") && rendered.contains("DWRR"));
    }

    #[test]
    fn suite_cells_and_tables() {
        // One benchmark, one core count, to keep the test fast.
        let profile = tiny();
        let spec = &npb_suite()[4]; // sp.A, smallest phases
        let app = spec.spmd(16, WaitMode::Yield, profile.scale);
        let mk = |policy| {
            run_scenario(
                &Scenario::new(Machine::Tigerton, 5, policy, app.clone()).repeats(profile.repeats),
            )
            .completion
        };
        let cells = vec![SuiteCell {
            benchmark: spec.name.to_string(),
            cores: 5,
            speed: mk(Policy::Speed),
            load: mk(Policy::Load),
            pinned: mk(Policy::Pinned),
        }];
        let t3 = tab3(&cells);
        assert_eq!(t3.n_rows(), 2); // benchmark + "all"
        let f4 = fig4(&cells);
        assert_eq!(f4.series.len(), 4);
    }
}
