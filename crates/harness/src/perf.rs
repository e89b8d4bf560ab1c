//! Wall-clock benchmark of the simulator's event loop, plus the
//! committed-baseline check backing the CI perf-smoke job.
//!
//! [`run_bench`] times a fixed grid of cells spanning the simulator's
//! behaviourally distinct regimes — small and large thread counts, traced
//! and untraced runs, SPEED / LOAD / DWRR policies, and SPMD /
//! open-loop-server / heterogeneous-machine applications — so a hot-path
//! regression that only bites one regime (say, the DWRR desched path or
//! trace emission) still moves a gated number. Cell 0 is the repo's
//! canonical stress case: cg.B run as a 64-thread SPMD app with yielding
//! barriers on the 16-core Tigerton model under the SPEED policy.
//!
//! Every cell runs at [`BENCH_SCALE`], best of [`BENCH_REPEATS`] passes
//! over the whole matrix; within a pass a cell shorter than
//! [`CELL_SPAN`] runs back to back until the span is filled. The
//! simulation is fully deterministic — every run executes the identical
//! schedule — so the only variance between runs is the host machine, and
//! the report keeps the *best* (minimum) ns/step, the standard way to
//! estimate the noise floor of a deterministic workload. For the same
//! reason a cell's step count is a fixed number, which the check compares
//! exactly. Cell 0 and its traced twin also run in alternating pairs at
//! the end of each pass, so the ns/step tracing adds, which the check
//! gates, comes from runs interleaved in one process.
//!
//! Results serialize to the hand-rolled JSON in `BENCH_sim.json` (schema
//! `speedbal-bench-v6`, documented in EXPERIMENTS.md); `check_against`
//! compares a fresh run to the committed file per cell with a configurable
//! tolerance and names the offending cell, so CI catches
//! order-of-magnitude regressions without flaking on noisy runners.

use speedbal_apps::{ServerApp, SpmdApp, WaitMode};
use speedbal_balancers::{CompositeBalancer, Dwrr, LinuxLoadBalancer};
use speedbal_core::SpeedBalancer;
use speedbal_machine::{tigerton, uniform, CoreId, CostModel, Topology};
use speedbal_sched::{Balancer, GroupId, SchedConfig, System};
use speedbal_sim::{SimDuration, SimTime};
use speedbal_workloads::{big_little_4p8e, cg_b, ep, web};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The benchmark seed — same as the experiment harness default, so bench
/// numbers correspond to the schedules the tables are generated from.
pub const BENCH_SEED: u64 = 0xB0A710AD;

/// Workload scale of every matrix cell (1.0 = the paper-scale run). One
/// size, the one CI checks, so the committed step counts are the ones a
/// fresh run must replay; ns/step does not depend on the scale.
pub const BENCH_SCALE: f64 = 0.25;

/// Timed passes over the matrix; the report keeps each cell's fastest.
pub const BENCH_REPEATS: usize = 3;

/// Wall-clock span each pass gives a matrix cell. A cell whose run is
/// shorter (the ep, web and ep-x12 cells, 1,499–6,186 steps, well under a
/// millisecond) runs back to back until the span is filled, so its best
/// run is a property of the code rather than of one run's luck; every
/// cg.B cell outlasts the span and runs once per pass.
pub const CELL_SPAN: Duration = Duration::from_millis(10);

/// Extra untraced/traced pairs of cell 0 and its traced twin (cell 1)
/// at the end of each pass, run alternately, so the two cells' best runs
/// come from runs interleaved over the whole bench rather than from one
/// stretch of the host.
pub const TRACE_PAIRS_PER_PASS: usize = 4;

/// Ceiling on the ns/step tracing adds to cell 0: the traced twin's best
/// ns/step minus cell 0's. Recording folds each record into the sink's
/// aggregates and encodes it into the compact ring at once; that adds
/// ~22 ns to a cg.B step on a 2.1 GHz Xeon (see EXPERIMENTS.md "Tracing overhead" and "Yield
/// handoff" for where the time goes). A bound on what tracing adds, not
/// on the traced/untraced ratio, holds still when the untraced step gets
/// cheaper. It equals what the ratio gate it replaced allowed at its last
/// capture (0.68 × 48.9 ns), so a quadratic sink, an allocation storm or
/// ~15 ns more per switch record fails CI.
pub const TRACE_ADDED_LIMIT_NS: f64 = 33.0;

/// Throughput of the sweep executor over a deterministic scenario grid:
/// cold passes (every cell simulated, results persisted) and a warm pass
/// (every cell answered from the content-addressed cache).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepBenchReport {
    /// Cells in the grid (identical for the cold and warm pass).
    pub cells: u64,
    /// Wall-clock seconds of the fastest cold pass.
    pub wall_secs: f64,
    /// Cold-pass throughput (`cells / wall_secs`).
    pub cells_per_sec: f64,
    /// Cache hits observed by the warm pass (must equal `cells`).
    pub cache_hits: u64,
    /// Worker budget the executor ran with.
    pub jobs: usize,
}

/// One benchmark run: the `BENCH_sim.json` document, fresh or parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// One measured cell per benchmark-matrix entry, in order.
    pub matrix: Vec<MatrixCell>,
    pub sweep: SweepBenchReport,
}

// ----------------------------------------------------------------------
// The benchmark matrix
// ----------------------------------------------------------------------

#[derive(Clone, Copy)]
enum CellMachine {
    /// 16-core Table 1 flagship.
    Tigerton,
    /// 4 P-cores + 8 E-cores at 0.55× — the asymmetric-speed dispatch path.
    BigLittle4p8e,
    /// Small uniform box for the server cells.
    Uniform4,
}

#[derive(Clone, Copy)]
enum CellPolicy {
    /// Speed balancing over Linux (the paper's SPEED arrangement).
    Speed,
    /// Plain Linux queue-length balancing.
    Load,
    /// DWRR — the one stock policy that consumes per-deschedule events,
    /// so it exercises the notification path the others skip.
    Dwrr,
}

#[derive(Clone, Copy)]
enum CellApp {
    /// Barrier-every-4ms SPMD job with yielding waits (event-rate stress).
    CgB { threads: usize },
    /// One long phase per thread, barrier only at the end.
    Ep { threads: usize },
    /// Open-loop Poisson web serving at ρ=0.6 (timed wakes + blocking).
    WebServe,
}

/// One cell of the benchmark matrix.
struct CellSpec {
    name: &'static str,
    traced: bool,
    machine: CellMachine,
    policy: CellPolicy,
    app: CellApp,
}

/// The fixed grid: every regime the simulator treats differently on its
/// hot path gets at least one cell. Cell 0 is the event-rate stress case.
const MATRIX: &[CellSpec] = &[
    CellSpec {
        name: "cg.B-x64/tigerton/SPEED",
        traced: false,
        machine: CellMachine::Tigerton,
        policy: CellPolicy::Speed,
        app: CellApp::CgB { threads: 64 },
    },
    CellSpec {
        name: "cg.B-x64/tigerton/SPEED+trace",
        traced: true,
        machine: CellMachine::Tigerton,
        policy: CellPolicy::Speed,
        app: CellApp::CgB { threads: 64 },
    },
    CellSpec {
        name: "cg.B-x64/tigerton/LOAD",
        traced: false,
        machine: CellMachine::Tigerton,
        policy: CellPolicy::Load,
        app: CellApp::CgB { threads: 64 },
    },
    CellSpec {
        name: "cg.B-x64/tigerton/DWRR",
        traced: false,
        machine: CellMachine::Tigerton,
        policy: CellPolicy::Dwrr,
        app: CellApp::CgB { threads: 64 },
    },
    CellSpec {
        name: "ep-x8/tigerton/SPEED",
        traced: false,
        machine: CellMachine::Tigerton,
        policy: CellPolicy::Speed,
        app: CellApp::Ep { threads: 8 },
    },
    CellSpec {
        name: "ep-x8/tigerton/LOAD",
        traced: false,
        machine: CellMachine::Tigerton,
        policy: CellPolicy::Load,
        app: CellApp::Ep { threads: 8 },
    },
    CellSpec {
        name: "web-x8/uniform4/SPEED",
        traced: false,
        machine: CellMachine::Uniform4,
        policy: CellPolicy::Speed,
        app: CellApp::WebServe,
    },
    CellSpec {
        name: "web-x8/uniform4/LOAD",
        traced: false,
        machine: CellMachine::Uniform4,
        policy: CellPolicy::Load,
        app: CellApp::WebServe,
    },
    CellSpec {
        name: "cg.B-x24/4p8e/SPEED",
        traced: false,
        machine: CellMachine::BigLittle4p8e,
        policy: CellPolicy::Speed,
        app: CellApp::CgB { threads: 24 },
    },
    CellSpec {
        name: "ep-x12/4p8e/LOAD",
        traced: false,
        machine: CellMachine::BigLittle4p8e,
        policy: CellPolicy::Load,
        app: CellApp::Ep { threads: 12 },
    },
];

/// Measured result of one matrix cell (best run).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    pub name: String,
    pub traced: bool,
    pub scale: f64,
    pub repeats: usize,
    /// Timed runs over all passes (more than `repeats` for a cell shorter
    /// than [`CELL_SPAN`] and for the two cells of the tracing pairs).
    pub runs: usize,
    /// Deterministic step count (repeat-invariant per cell and scale).
    pub steps: u64,
    pub sim_secs: f64,
    pub ns_per_step: f64,
}

fn cell_balancer(policy: CellPolicy, topo: &Topology, group: GroupId) -> Box<dyn Balancer> {
    match policy {
        CellPolicy::Speed => {
            let cores: Vec<CoreId> = topo.core_ids().collect();
            let speed = SpeedBalancer::with_config(Default::default(), BENCH_SEED)
                .managing(vec![group], cores);
            Box::new(CompositeBalancer::new(
                vec![group],
                Box::new(speed),
                Box::new(LinuxLoadBalancer::new()),
            ))
        }
        CellPolicy::Load => Box::new(LinuxLoadBalancer::new()),
        CellPolicy::Dwrr => Box::new(Dwrr::new()),
    }
}

fn build_cell(spec: &CellSpec, scale: f64) -> (System, GroupId) {
    let topo = match spec.machine {
        CellMachine::Tigerton => tigerton(),
        CellMachine::BigLittle4p8e => big_little_4p8e().topology,
        CellMachine::Uniform4 => uniform(4),
    };
    let group = GroupId(0);
    let bal = cell_balancer(spec.policy, &topo, group);
    let mut sys = System::new(
        topo,
        SchedConfig::default(),
        CostModel::default(),
        bal,
        BENCH_SEED,
    );
    if spec.traced {
        sys.enable_tracing();
    }
    let g = sys.new_group();
    debug_assert_eq!(g, group);
    match spec.app {
        CellApp::CgB { threads } => {
            let app = cg_b().spmd(threads, WaitMode::Yield, scale);
            SpmdApp::spawn(&mut sys, group, &app, None);
        }
        CellApp::Ep { threads } => {
            let app = ep().spmd(threads, WaitMode::Yield, scale);
            SpmdApp::spawn(&mut sys, group, &app, None);
        }
        CellApp::WebServe => {
            // Scale shrinks the offered-load window, not the request mix.
            let window = SimDuration::from_millis(((2000.0 * scale) as u64).max(1));
            let cfg = web(8, 4, 0.6, window);
            ServerApp::spawn(&mut sys, group, &cfg, BENCH_SEED);
        }
    }
    (sys, group)
}

/// (steps, sim_secs, wall_ns) of one timed cell run.
fn run_cell_once(spec: &CellSpec, scale: f64) -> (u64, f64, u128) {
    let (mut sys, group) = build_cell(spec, scale);
    let start = Instant::now();
    sys.run_until_group_done(group, SimTime::ZERO + SimDuration::from_secs(600));
    let wall_ns = start.elapsed().as_nanos();
    (sys.events_processed(), sys.now().as_secs_f64(), wall_ns)
}

/// One cell's best run so far: (steps, sim_secs, wall_ns, runs).
type Best = (u64, f64, u128, usize);

/// Runs `spec` once and folds the run into `best`: it must replay
/// `best`'s step count, and the fastest is kept. Returns its wall_ns.
fn time_run(spec: &CellSpec, scale: f64, best: &mut Option<Best>) -> u128 {
    let (steps, sim_secs, wall_ns) = run_cell_once(spec, scale);
    let b = best.get_or_insert((steps, sim_secs, wall_ns, 0));
    assert_eq!(b.0, steps, "nondeterministic matrix cell {}", spec.name);
    b.2 = b.2.min(wall_ns);
    b.3 += 1;
    wall_ns
}

/// Times every matrix cell at `scale`, best of [`BENCH_REPEATS`] passes,
/// and reports one [`MatrixCell`] per grid entry. Within a pass a cell
/// runs back to back until [`CELL_SPAN`] has passed (at least once), and
/// [`TRACE_PAIRS_PER_PASS`] alternating pairs of cells 0 and 1 end the
/// pass. The repeats are passes over the whole matrix, not back-to-back
/// runs of one cell, so a stretch of host contention costs one pass of a
/// few cells rather than every repeat of one. `progress` receives one
/// line per cell per pass and one for the pairs.
fn run_matrix(scale: f64, mut progress: impl FnMut(&str)) -> Vec<MatrixCell> {
    let (plain, traced) = (&MATRIX[0], &MATRIX[1]);
    debug_assert_eq!(
        traced.name.strip_suffix("+trace"),
        Some(plain.name),
        "cell 1 must be cell 0 traced"
    );
    let mut best: Vec<Option<Best>> = vec![None; MATRIX.len()];
    let ns = |wall_ns: u128, b: &Option<Best>| wall_ns as f64 / b.map_or(1, |b| b.0.max(1)) as f64;
    for pass in 1..=BENCH_REPEATS {
        for (spec, best) in MATRIX.iter().zip(&mut best) {
            let (start, before) = (Instant::now(), best.map_or(0, |b| b.3));
            let mut fastest = time_run(spec, scale, best);
            while start.elapsed() < CELL_SPAN {
                fastest = fastest.min(time_run(spec, scale, best));
            }
            let (steps, _, _, runs) = best.expect("timed at least once");
            progress(&format!(
                "pass {pass}/{BENCH_REPEATS} {:<30} {:>9} steps  {:>7.1} ns/step  ({} runs)",
                spec.name,
                steps,
                ns(fastest, best),
                runs - before
            ));
        }
        let mut fastest = [u128::MAX; 2];
        for pair in 0..TRACE_PAIRS_PER_PASS {
            for k in [pair % 2, 1 - pair % 2] {
                let wall_ns = time_run(&MATRIX[k], scale, &mut best[k]);
                fastest[k] = fastest[k].min(wall_ns);
            }
        }
        let (u, t) = (ns(fastest[0], &best[0]), ns(fastest[1], &best[1]));
        progress(&format!(
            "pass {pass}/{BENCH_REPEATS} {TRACE_PAIRS_PER_PASS} pairs of {} and +trace: \
             {u:.1} -> {t:.1} ns/step, tracing adds {:.1}",
            plain.name,
            t - u
        ));
    }
    MATRIX
        .iter()
        .zip(best)
        .map(|(spec, best)| {
            let (steps, sim_secs, wall_ns, runs) = best.expect("at least one pass");
            MatrixCell {
                name: spec.name.to_string(),
                traced: spec.traced,
                scale,
                repeats: BENCH_REPEATS,
                runs,
                steps,
                sim_secs,
                ns_per_step: wall_ns as f64 / steps.max(1) as f64,
            }
        })
        .collect()
}

/// Runs the benchmark: every matrix cell at [`BENCH_SCALE`], best of
/// [`BENCH_REPEATS`] passes, then the sweep executor's cold and warm
/// pass. `progress` receives one line per matrix cell per pass and one
/// for each pass's tracing pairs.
pub fn run_bench(progress: impl FnMut(&str)) -> BenchReport {
    BenchReport {
        matrix: run_matrix(BENCH_SCALE, progress),
        // A fifth of the matrix scale: the grid multiplies the work by 12
        // cells × 2 repeats.
        sweep: run_sweep_bench(BENCH_SCALE / 5.0),
    }
}

/// The deterministic scenario grid behind the sweep throughput bench:
/// three policies × four thread counts of EP on a 4-core uniform machine,
/// two repeats each — 12 cells with a spread of costs, so the LPT
/// scheduler and the cache both get exercised.
fn sweep_bench_scenarios(scale: f64) -> Vec<crate::scenario::Scenario> {
    use crate::scenario::{Machine, Policy, Scenario};
    let mut v = Vec::new();
    for policy in [Policy::Speed, Policy::Load, Policy::Pinned] {
        for threads in [3usize, 5, 6, 8] {
            let app = speedbal_workloads::ep().spmd(threads, WaitMode::Yield, scale);
            v.push(Scenario::new(Machine::Uniform(4), 0, policy.clone(), app).repeats(2));
        }
    }
    v
}

/// Benchmarks the sweep executor over a fixed 12-cell scenario grid at
/// `scale`: cold passes (every cell simulated and persisted to a private
/// cache directory), best of [`BENCH_REPEATS`], then a warm pass (every
/// cell answered from the cache). Reports cold-pass throughput and
/// warm-pass hit count; warm results are asserted bit-identical to cold
/// ones.
fn run_sweep_bench(scale: f64) -> SweepBenchReport {
    use crate::sweep;
    // A private cache directory guarantees genuinely cold passes and a
    // fully-warm one, without touching the user's cache.
    let dir = std::env::temp_dir().join(format!("speedbal-sweep-bench-{}", std::process::id()));
    let prev_enabled = sweep::cache_enabled();
    sweep::set_cache_dir(Some(dir.clone()));
    sweep::set_cache_enabled(true);

    // A cold pass takes ~20 ms, short enough for one to read half the
    // throughput of the next on a quiet host, hence the best of several.
    let mut cold = Vec::new();
    let mut cold_secs = f64::INFINITY;
    for _ in 0..BENCH_REPEATS {
        let _ = std::fs::remove_dir_all(&dir);
        let before = sweep::sweep_stats().wall_secs;
        cold = sweep::run_scenarios(sweep_bench_scenarios(scale));
        cold_secs = cold_secs.min(sweep::sweep_stats().wall_secs - before);
    }
    let mid = sweep::sweep_stats();
    let warm = sweep::run_scenarios(sweep_bench_scenarios(scale));
    let warm_hits = sweep::sweep_stats().cache_hits - mid.cache_hits;

    sweep::set_cache_enabled(prev_enabled);
    sweep::set_cache_dir(None);
    let _ = std::fs::remove_dir_all(&dir);

    for (c, w) in cold.iter().zip(&warm) {
        let bits = |s: &crate::scenario::ScenarioResult| {
            s.completion
                .values
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(c), bits(w), "cache replay must be bit-identical");
    }

    let cells = cold.len() as u64;
    SweepBenchReport {
        cells,
        wall_secs: cold_secs,
        cells_per_sec: cells as f64 / cold_secs,
        cache_hits: warm_hits,
        jobs: sweep::effective_jobs(),
    }
}

// ----------------------------------------------------------------------
// JSON (hand-rolled: the workspace vendors no JSON crate)
// ----------------------------------------------------------------------

fn fmt_f64(v: f64) -> String {
    // Stable, round-trippable formatting: integers stay integral-looking.
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

impl BenchReport {
    /// Serializes the report as the `BENCH_sim.json` document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"speedbal-bench-v6\",");
        let _ = writeln!(s, "  \"matrix\": [");
        for (i, c) in self.matrix.iter().enumerate() {
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"name\": \"{}\",", c.name);
            let _ = writeln!(s, "      \"traced\": {},", c.traced);
            let _ = writeln!(s, "      \"scale\": {},", fmt_f64(c.scale));
            let _ = writeln!(s, "      \"repeats\": {},", c.repeats);
            let _ = writeln!(s, "      \"runs\": {},", c.runs);
            let _ = writeln!(s, "      \"steps\": {},", c.steps);
            let _ = writeln!(s, "      \"sim_secs\": {},", fmt_f64(c.sim_secs));
            let _ = writeln!(s, "      \"ns_per_step\": {}", fmt_f64(c.ns_per_step));
            let sep = if i + 1 < self.matrix.len() { "," } else { "" };
            let _ = writeln!(s, "    }}{sep}");
        }
        let _ = writeln!(s, "  ],");
        let sw = &self.sweep;
        let _ = writeln!(s, "  \"sweep\": {{");
        let _ = writeln!(s, "    \"cells\": {},", sw.cells);
        let _ = writeln!(s, "    \"wall_secs\": {},", fmt_f64(sw.wall_secs));
        let _ = writeln!(s, "    \"cells_per_sec\": {},", fmt_f64(sw.cells_per_sec));
        let _ = writeln!(s, "    \"cache_hits\": {},", sw.cache_hits);
        let _ = writeln!(s, "    \"jobs\": {}", sw.jobs);
        let _ = writeln!(s, "  }}");
        s.push_str("}\n");
        s
    }
}

/// Parses the document [`BenchReport::to_json`] writes (flat objects of
/// strings and numbers, nested one level). Both `matrix` and `sweep` are
/// required.
pub fn parse_bench_doc(text: &str) -> Result<BenchReport, String> {
    let root = json::parse(text)?;
    let obj = root.as_obj().ok_or("top level is not an object")?;
    let num = |o: &[(String, json::Value)], k: &str| -> Result<f64, String> {
        json::get(o, k)
            .and_then(|v| v.as_num())
            .ok_or_else(|| format!("missing numeric \"{k}\""))
    };
    let Some(json::Value::Arr(cells)) = json::get(obj, "matrix") else {
        return Err("missing \"matrix\" array".into());
    };
    let mut matrix = Vec::new();
    for v in cells {
        let c = v.as_obj().ok_or("matrix cell is not an object")?;
        matrix.push(MatrixCell {
            name: json::get(c, "name")
                .and_then(|v| v.as_str())
                .ok_or("matrix cell missing \"name\"")?
                .to_string(),
            traced: json::get(c, "traced")
                .and_then(|v| v.as_bool())
                .ok_or("matrix cell missing \"traced\"")?,
            scale: num(c, "scale")?,
            repeats: num(c, "repeats")? as usize,
            runs: num(c, "runs")? as usize,
            steps: num(c, "steps")? as u64,
            sim_secs: num(c, "sim_secs")?,
            ns_per_step: num(c, "ns_per_step")?,
        });
    }
    let sw = json::get(obj, "sweep")
        .and_then(|v| v.as_obj())
        .ok_or("missing \"sweep\" object")?;
    let sweep = SweepBenchReport {
        cells: num(sw, "cells")? as u64,
        wall_secs: num(sw, "wall_secs")?,
        cells_per_sec: num(sw, "cells_per_sec")?,
        cache_hits: num(sw, "cache_hits")? as u64,
        jobs: num(sw, "jobs")? as usize,
    };
    Ok(BenchReport { matrix, sweep })
}

/// Compares a fresh run against the committed document. Every committed
/// matrix cell must be in the fresh run at the same scale with exactly
/// its committed step count, and within `tolerance` × its committed
/// ns/step; what tracing adds to a step must stay under
/// [`TRACE_ADDED_LIMIT_NS`]; the warm sweep pass must hit every cell,
/// and sweep throughput must stay within `tolerance` of the committed
/// value. Failures name the cell.
pub fn check_against(
    fresh: &BenchReport,
    committed: &BenchReport,
    tolerance: f64,
) -> Result<String, String> {
    for cell in &committed.matrix {
        let Some(f) = fresh.matrix.iter().find(|f| f.name == cell.name) else {
            return Err(format!(
                "matrix cell \"{}\" missing from the fresh run",
                cell.name
            ));
        };
        if f.scale != cell.scale || f.steps != cell.steps {
            return Err(format!(
                "matrix cell \"{}\": step count diverged from committed \
                 baseline: {} steps at scale {} != {} steps at scale {} \
                 (the bench must replay the identical schedule)",
                cell.name, f.steps, f.scale, cell.steps, cell.scale
            ));
        }
        let cell_limit = cell.ns_per_step * tolerance;
        if f.ns_per_step > cell_limit {
            return Err(format!(
                "matrix cell \"{}\": perf regression: {:.1} ns/step > \
                 {:.1} allowed (committed {:.1} × tolerance {tolerance})",
                cell.name, f.ns_per_step, cell_limit, cell.ns_per_step
            ));
        }
    }
    // Tracing overhead gate: every traced cell in the fresh run is paired
    // with its untraced twin (same name minus the "+trace" suffix), and
    // the ns/step tracing adds must stay under TRACE_ADDED_LIMIT_NS. The
    // two ran interleaved in one process, so the difference holds still
    // when the host's speed drifts between passes or the untraced step
    // gets cheaper.
    for f in &fresh.matrix {
        if !f.traced {
            continue;
        }
        let base = f.name.strip_suffix("+trace").unwrap_or(&f.name);
        let Some(plain) = fresh.matrix.iter().find(|p| !p.traced && p.name == base) else {
            continue;
        };
        let added = f.ns_per_step - plain.ns_per_step;
        if added > TRACE_ADDED_LIMIT_NS {
            return Err(format!(
                "tracing overhead regression: \"{}\" runs {:.1} ns/step vs \
                 {:.1} untraced: tracing adds {added:.1} > \
                 {TRACE_ADDED_LIMIT_NS:.1} allowed",
                f.name, f.ns_per_step, plain.ns_per_step
            ));
        }
    }
    let (fresh_sw, committed_sw) = (&fresh.sweep, &committed.sweep);
    if fresh_sw.cache_hits != fresh_sw.cells {
        return Err(format!(
            "sweep cache broken: warm pass hit {} of {} cells",
            fresh_sw.cache_hits, fresh_sw.cells
        ));
    }
    let floor = committed_sw.cells_per_sec / tolerance;
    if fresh_sw.cells_per_sec < floor {
        return Err(format!(
            "sweep throughput regression: {:.1} cells/sec < {:.1} allowed \
             (committed {:.1} ÷ tolerance {tolerance})",
            fresh_sw.cells_per_sec, floor, committed_sw.cells_per_sec
        ));
    }
    Ok(format!(
        "ok: {} matrix cells at their committed step counts and within \
         {tolerance}x of committed ns/step; sweep {:.1} cells/sec, warm \
         pass hit all {} cells",
        committed.matrix.len(),
        fresh_sw.cells_per_sec,
        fresh_sw.cells
    ))
}

/// Minimal recursive-descent JSON reader for the bench document (the
/// workspace vendors no JSON crate); it reads nothing else.
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Num(f64),
        Str(String),
        Bool(bool),
        Null,
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(m) => Some(m),
                _ => None,
            }
        }

        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.ws();
            self.b
                .get(self.i)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_string())
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek()? == c {
                self.i += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected '{}' at byte {}, found '{}'",
                    c as char, self.i, self.b[self.i] as char
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Value::Str(self.string()?)),
                b't' => self.literal("true", Value::Bool(true)),
                b'f' => self.literal("false", Value::Bool(false)),
                b'n' => self.literal("null", Value::Null),
                _ => self.number(),
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.eat(b'{')?;
            let mut m = Vec::new();
            if self.peek()? == b'}' {
                self.i += 1;
                return Ok(Value::Obj(m));
            }
            loop {
                let k = self.string()?;
                self.eat(b':')?;
                m.push((k, self.value()?));
                match self.peek()? {
                    b',' => self.i += 1,
                    b'}' => {
                        self.i += 1;
                        return Ok(Value::Obj(m));
                    }
                    c => return Err(format!("expected ',' or '}}', found '{}'", c as char)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.eat(b'[')?;
            let mut a = Vec::new();
            if self.peek()? == b']' {
                self.i += 1;
                return Ok(Value::Arr(a));
            }
            loop {
                a.push(self.value()?);
                match self.peek()? {
                    b',' => self.i += 1,
                    b']' => {
                        self.i += 1;
                        return Ok(Value::Arr(a));
                    }
                    c => return Err(format!("expected ',' or ']', found '{}'", c as char)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut s = String::new();
            loop {
                let c = *self
                    .b
                    .get(self.i)
                    .ok_or_else(|| "unterminated string".to_string())?;
                self.i += 1;
                match c {
                    b'"' => return Ok(s),
                    b'\\' => {
                        let e = *self
                            .b
                            .get(self.i)
                            .ok_or_else(|| "unterminated escape".to_string())?;
                        self.i += 1;
                        s.push(match e {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            other => return Err(format!("unsupported escape \\{}", other as char)),
                        });
                    }
                    other => s.push(other as char),
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            self.ws();
            let start = self.i;
            while self.i < self.b.len()
                && matches!(
                    self.b[self.i],
                    b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                )
            {
                self.i += 1;
            }
            std::str::from_utf8(&self.b[start..self.i])
                .ok()
                .and_then(|t| t.parse().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, ns: f64) -> MatrixCell {
        MatrixCell {
            name: name.to_string(),
            traced: false,
            scale: BENCH_SCALE,
            repeats: BENCH_REPEATS,
            runs: BENCH_REPEATS,
            steps: 100_000,
            sim_secs: 1.0,
            ns_per_step: ns,
        }
    }

    fn report() -> BenchReport {
        BenchReport {
            matrix: vec![
                cell("cg.B-x64/tigerton/SPEED", 90.0),
                cell("ep-x8/tigerton/LOAD", 40.0),
            ],
            sweep: SweepBenchReport {
                cells: 12,
                wall_secs: 0.5,
                cells_per_sec: 24.0,
                cache_hits: 12,
                jobs: 4,
            },
        }
    }

    #[test]
    fn json_roundtrips_every_field() {
        let mut r = report();
        r.matrix[1].traced = true;
        r.matrix[1].sim_secs = 5.814538792;
        r.matrix[1].ns_per_step = 89.33678990950516;
        r.matrix[1].runs = 137;
        let text = r.to_json();
        assert!(text.contains("speedbal-bench-v6"));
        assert_eq!(parse_bench_doc(&text).unwrap(), r);
    }

    #[test]
    fn matrix_gate_fails_with_named_cell() {
        let fresh = report();
        let doc = parse_bench_doc(&fresh.to_json()).unwrap();
        assert!(check_against(&fresh, &doc, 2.0).is_ok());

        // Within tolerance: fine.
        let mut noisy = fresh.clone();
        noisy.matrix[1].ns_per_step = 40.0 * 1.9;
        assert!(check_against(&noisy, &doc, 2.0).is_ok());

        // One cell regresses beyond tolerance: the error names it.
        let mut slow = fresh.clone();
        slow.matrix[1].ns_per_step = 40.0 * 2.5;
        let err = check_against(&slow, &doc, 2.0).unwrap_err();
        assert!(err.contains("ep-x8/tigerton/LOAD"), "{err}");

        // A cell's deterministic step count diverging is a correctness
        // failure, not noise.
        let mut diverged = fresh.clone();
        diverged.matrix[0].steps += 1;
        let err = check_against(&diverged, &doc, 2.0).unwrap_err();
        assert!(err.contains("cg.B-x64/tigerton/SPEED"), "{err}");
        assert!(err.contains("diverged"), "{err}");

        // So is a committed cell captured at another scale: the bench runs
        // one size, and its step counts are compared exactly.
        let mut rescaled = doc.clone();
        rescaled.matrix[1].scale = 1.0;
        let err = check_against(&fresh, &rescaled, 2.0).unwrap_err();
        assert!(err.contains("ep-x8/tigerton/LOAD"), "{err}");
        assert!(err.contains("diverged"), "{err}");

        // A committed cell missing from the fresh run is flagged by name.
        let mut missing = fresh.clone();
        missing.matrix.remove(1);
        let err = check_against(&missing, &doc, 2.0).unwrap_err();
        assert!(err.contains("ep-x8/tigerton/LOAD"), "{err}");
        assert!(err.contains("missing"), "{err}");
    }

    /// The real grid runs deterministically end to end (tiny scale): two
    /// passes produce identical step counts for every cell.
    #[test]
    fn matrix_cells_run_deterministically() {
        let a = run_matrix(0.02, |_| {});
        let b = run_matrix(0.02, |_| {});
        assert!(a.len() >= 9, "matrix must span at least 9 cells");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.steps, y.steps, "cell {} not deterministic", x.name);
            assert!(x.steps > 100, "cell {} does no real work", x.name);
            assert!(
                x.runs >= BENCH_REPEATS,
                "cell {} ran {} times",
                x.name,
                x.runs
            );
        }
        // A cell far shorter than the span runs back to back in each pass,
        // and the tracing pairs add runs to cells 0 and 1.
        let ep = a.iter().find(|c| c.name == "ep-x8/tigerton/LOAD").unwrap();
        assert!(ep.runs > BENCH_REPEATS, "ep-x8 ran {} times", ep.runs);
        for cell in &a[..2] {
            let min = BENCH_REPEATS * (1 + TRACE_PAIRS_PER_PASS);
            assert!(cell.runs >= min, "{} ran {} times", cell.name, cell.runs);
        }
    }

    /// The committed `BENCH_sim.json` is a capture of this matrix at the
    /// bench's scale, so `bench --check` compares every step count; the
    /// cells under a million steps replay theirs here.
    #[test]
    fn committed_bench_document_is_this_matrix_and_its_steps_replay() {
        let doc = parse_bench_doc(include_str!("../../../BENCH_sim.json")).unwrap();
        let names: Vec<&str> = doc.matrix.iter().map(|c| c.name.as_str()).collect();
        let specs: Vec<&str> = MATRIX.iter().map(|s| s.name).collect();
        assert_eq!(names, specs, "committed cells are not the matrix");
        for (cell, spec) in doc.matrix.iter().zip(MATRIX) {
            assert_eq!(
                cell.scale, BENCH_SCALE,
                "{} committed at another scale",
                spec.name
            );
            assert_eq!(cell.traced, spec.traced, "{}", spec.name);
            if cell.steps < 1_000_000 {
                let (steps, _, _) = run_cell_once(spec, BENCH_SCALE);
                assert_eq!(steps, cell.steps, "{} replays another schedule", spec.name);
            }
        }
    }

    #[test]
    fn trace_overhead_gates_what_tracing_adds() {
        let mut fresh = report();
        fresh.matrix = vec![
            cell("cg.B-x64/tigerton/SPEED", 90.0),
            cell("cg.B-x64/tigerton/SPEED+trace", 110.0),
        ];
        fresh.matrix[1].traced = true;
        let doc = parse_bench_doc(&fresh.to_json()).unwrap();
        assert!(check_against(&fresh, &doc, 2.0).is_ok());

        // Up to the ceiling: fine, whatever the untraced step costs, so a
        // cheaper untraced step with tracing as it was still passes.
        let mut cheaper = fresh.clone();
        cheaper.matrix[0].ns_per_step = 50.0;
        cheaper.matrix[1].ns_per_step = 50.0 + TRACE_ADDED_LIMIT_NS;
        assert!(check_against(&cheaper, &doc, 3.0).is_ok());

        // A few ns/step more fails by cell name, even though the traced
        // cell is within the cross-run tolerance of its committed figure.
        let mut slow = fresh.clone();
        slow.matrix[1].ns_per_step = 90.0 + TRACE_ADDED_LIMIT_NS + 2.0;
        let err = check_against(&slow, &doc, 3.0).unwrap_err();
        assert!(err.contains("tracing overhead"), "{err}");
        assert!(err.contains("SPEED+trace"), "{err}");

        // The committed capture's own figure sets no ceiling: one that
        // reads high does not loosen the gate.
        let mut hot = fresh.clone();
        hot.matrix[1].ns_per_step = 90.0 + 2.0 * TRACE_ADDED_LIMIT_NS;
        let hot_doc = parse_bench_doc(&hot.to_json()).unwrap();
        assert!(check_against(&slow, &hot_doc, 3.0).is_err());

        // A traced cell with no untraced twin in the run is not gated.
        let mut orphan = fresh.clone();
        orphan.matrix.remove(0);
        orphan.matrix[0].ns_per_step = 1e6;
        let orphan_doc = parse_bench_doc(&orphan.to_json()).unwrap();
        assert!(check_against(&orphan, &orphan_doc, 2.0).is_ok());
    }

    #[test]
    fn sweep_section_gates() {
        let fresh = report();
        let doc = parse_bench_doc(&fresh.to_json()).unwrap();

        // Within tolerance: fine.
        assert!(check_against(&fresh, &doc, 2.0).is_ok());

        // Throughput collapse beyond tolerance: gated.
        let mut slow = fresh.clone();
        slow.sweep.cells_per_sec = 24.0 / 2.5;
        let err = check_against(&slow, &doc, 2.0).unwrap_err();
        assert!(err.contains("sweep throughput"), "{err}");

        // A warm pass that misses the cache is a correctness failure.
        let mut cold = fresh.clone();
        cold.sweep.cache_hits = 3;
        let err = check_against(&cold, &doc, 2.0).unwrap_err();
        assert!(err.contains("cache broken"), "{err}");
    }

    #[test]
    fn sweep_bench_runs_cold_then_fully_warm() {
        let _g = crate::sweep::tests::global_guard();
        let sw = run_sweep_bench(0.01);
        assert_eq!(sw.cells, 12);
        assert_eq!(
            sw.cache_hits, sw.cells,
            "second pass must be answered entirely from the cache"
        );
        assert!(sw.wall_secs > 0.0 && sw.cells_per_sec > 0.0);
        assert!(sw.jobs >= 1);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_bench_doc("").is_err());
        assert!(parse_bench_doc("{\"matrix\": }").is_err());
        assert!(parse_bench_doc("{} trailing").is_err());
        // Both sections are required.
        let text = report().to_json();
        let matrix_at = text.find("  \"matrix\"").unwrap();
        let sweep_at = text.find("  \"sweep\"").unwrap();
        let no_matrix = format!("{}{}", &text[..matrix_at], &text[sweep_at..]);
        let err = parse_bench_doc(&no_matrix).unwrap_err();
        assert!(err.contains("matrix"), "{err}");
        let no_sweep = format!("{}  ]\n}}\n", &text[..text.find("  ],").unwrap()]);
        let err = parse_bench_doc(&no_sweep).unwrap_err();
        assert!(err.contains("sweep"), "{err}");
    }
}
