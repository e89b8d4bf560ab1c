//! Deterministic parallel sweep executor with content-addressed result
//! caching.
//!
//! Every figure, table and check the harness produces is a *sweep*:
//! hundreds of independent (scenario, seed) cells whose results are
//! assembled into one artifact. This module runs such sweeps on a scoped
//! worker pool while keeping the one property the rest of the repo leans
//! on — **bit-identical output regardless of parallelism**:
//!
//! * Jobs are submitted as a flat, ordered list; results commit into
//!   per-job slots and are returned in submission order, so rendered
//!   artifacts never depend on completion order.
//! * Each cell is already deterministic in isolation (repeat `r` of a
//!   scenario always seeds `scenario.seed + r` into a fresh `System`), so
//!   running cells concurrently cannot change any number.
//! * Workers pull jobs longest-expected-first (cost hint ≈ `n_threads ×
//!   steps`), the classic LPT heuristic, so one huge trailing cell does
//!   not serialize the tail of the sweep. Scheduling order affects wall
//!   clock only, never results.
//!
//! On top sits a **content-addressed result cache**: a cell whose inputs
//! hash to a key already present under `target/sweep-cache/` is not run;
//! its file is read with one `read` call and decoded in one pass, bit for
//! bit (floats are stored as raw bit patterns). The decoder accepts
//! exactly the document the writer produces for that key: any other file
//! (truncated, altered, another key or schema) is a miss, so the cell is
//! re-simulated and its file overwritten, never a panic or a wrong value.
//! Keys hash an explicit binary encoding of every `Scenario` field, one
//! 64-bit word per value, from a state seeded with
//! [`SWEEP_SCHEMA_VERSION`]; the encoding destructures every config type
//! exhaustively, so a new field does not compile until the key covers it,
//! and it never reads `Debug` text. Bump the version whenever simulator
//! semantics change so stale cells can never resurface; changing the
//! encoding renames every file, so an older cache misses once.
//! The cache is **off by default in library use** (tests must re-run the
//! simulator, not replay yesterday's build) and enabled explicitly by
//! `speedbal-cli` (bypass with `--no-cache`).
//!
//! [`run_scenarios`] is one planner over both: it keys every scenario and
//! answers each hit on the calling thread, sends only the misses to the
//! pool, stores them, and trims the cache to its size cap once after
//! every sweep that stored something. A fully warm sweep therefore starts
//! no worker and never scans the cache directory.
//!
//! The worker count comes from `--jobs N` / `SPEEDBAL_JOBS` / available
//! parallelism, in that precedence. The per-scenario repeat pool in
//! [`crate::scenario`] is the same pool: inside a sweep worker it runs
//! inline, so nested parallelism cannot oversubscribe the machine.

use crate::scenario::{
    assemble_outcomes, next_trace_seq, run_repeat, run_repeats, trace_output_base,
    write_trace_files_with_seq, Competitor, Machine, Policy, Scenario, ScenarioResult, ServerStats,
};
use speedbal_apps::{ArrivalProcess, ServerConfig, ServiceDist, SpmdConfig, WaitMode};
use speedbal_core::{SpeedBalancerConfig, SpeedMetric};
use speedbal_machine::CostModel;
use speedbal_metrics::RepeatStats;
use speedbal_sim::{OrderingPolicy, SimDuration};
use std::cell::Cell;
use std::io::Read as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Cache schema version. Bump whenever a change alters simulation results
/// without altering the `Scenario` type (event ordering, balancer
/// semantics, metric definitions): every cached cell is invalidated at
/// once, because the version participates in each content hash.
///
/// v2: `Scenario` grew the optional server workload and `ScenarioResult`
/// the server latency block, changing both the key material and the
/// cached document shape.
///
/// v3: heterogeneous machines — `Machine` gained asymmetric/DVFS presets
/// and runs now install a per-core frequency schedule, changing cell
/// semantics for any machine with frequency traces.
pub const SWEEP_SCHEMA_VERSION: u64 = 3;

// ---------------------------------------------------------------------
// Global knobs: worker budget, cache switch, cumulative stats
// ---------------------------------------------------------------------

/// `--jobs` override; 0 = unset (fall back to `SPEEDBAL_JOBS`, then
/// available parallelism).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static CACHE_ENABLED: AtomicBool = AtomicBool::new(false);
static CACHE_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

static STAT_CELLS: AtomicU64 = AtomicU64::new(0);
static STAT_HITS: AtomicU64 = AtomicU64::new(0);
static STAT_MISSES: AtomicU64 = AtomicU64::new(0);
static STAT_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static STAT_WALL_NANOS: AtomicU64 = AtomicU64::new(0);

/// `set_cache_cap_bytes` override; 0 = unset (fall back to
/// `SPEEDBAL_CACHE_CAP_BYTES`, then [`DEFAULT_CACHE_CAP_BYTES`]).
static CACHE_CAP_OVERRIDE: AtomicU64 = AtomicU64::new(0);

/// Default size cap for `target/sweep-cache/`: 256 MiB. Full-profile
/// sweeps write a few KiB per cell, so this is years of headroom for
/// normal use while still bounding a cache that is never cleaned by hand.
pub const DEFAULT_CACHE_CAP_BYTES: u64 = 256 << 20;

thread_local! {
    static IN_SWEEP_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Sets (or with `None` clears) the global worker budget — the `--jobs N`
/// knob. Takes precedence over the `SPEEDBAL_JOBS` environment variable.
pub fn set_jobs(jobs: Option<usize>) {
    JOBS_OVERRIDE.store(jobs.unwrap_or(0), Ordering::Relaxed);
}

/// The effective worker budget: `set_jobs` override, else `SPEEDBAL_JOBS`,
/// else the machine's available parallelism. Always at least 1.
pub fn effective_jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Some(n) = std::env::var("SPEEDBAL_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// True while the current thread is a sweep worker executing a job.
pub fn in_sweep_worker() -> bool {
    IN_SWEEP_WORKER.with(|f| f.get())
}

/// Turns the result cache on or off (off by default; `speedbal-cli`
/// enables it for figure/table artifacts unless `--no-cache` is passed).
pub fn set_cache_enabled(on: bool) {
    CACHE_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether [`run_scenarios`] may read/write `target/sweep-cache/`.
pub fn cache_enabled() -> bool {
    CACHE_ENABLED.load(Ordering::Relaxed)
}

/// Overrides the cache directory (`None` restores the default
/// `target/sweep-cache`). Tests point this at a temp directory.
pub fn set_cache_dir(dir: Option<PathBuf>) {
    *CACHE_DIR.lock().unwrap() = dir;
}

/// Sets (or with `None` clears) the cache size cap in bytes. Takes
/// precedence over `SPEEDBAL_CACHE_CAP_BYTES`; the default is
/// [`DEFAULT_CACHE_CAP_BYTES`]. A cap of `Some(0)` evicts everything.
pub fn set_cache_cap_bytes(cap: Option<u64>) {
    // 0 is a meaningful cap, so the sentinel for "unset" is u64::MAX - 1
    // shifted: store cap+1, 0 = unset.
    CACHE_CAP_OVERRIDE.store(cap.map_or(0, |c| c.saturating_add(1)), Ordering::Relaxed);
}

/// The effective cache size cap (see [`set_cache_cap_bytes`]).
pub fn cache_cap_bytes() -> u64 {
    let explicit = CACHE_CAP_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit - 1;
    }
    if let Some(cap) = std::env::var("SPEEDBAL_CACHE_CAP_BYTES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        return cap;
    }
    DEFAULT_CACHE_CAP_BYTES
}

/// The directory cached results persist to.
pub fn cache_dir() -> PathBuf {
    CACHE_DIR
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/sweep-cache"))
}

/// Cumulative executor statistics (since process start or the last
/// [`reset_sweep_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepStats {
    /// Scenarios submitted to [`run_scenarios`] plus jobs submitted to
    /// [`run_sweep`].
    pub cells: u64,
    /// Scenarios answered from disk without running.
    pub cache_hits: u64,
    /// Cacheable scenarios that had to run (result persisted afterwards).
    pub cache_misses: u64,
    /// Cache files deleted (oldest first) to honour the size cap.
    pub evictions: u64,
    /// Wall-clock seconds spent inside `run_scenarios` and `run_sweep`
    /// calls, planning included.
    pub wall_secs: f64,
}

impl SweepStats {
    /// Executor throughput; 0 when no time was measured.
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.cells as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// The cumulative statistics across every sweep run so far.
pub fn sweep_stats() -> SweepStats {
    SweepStats {
        cells: STAT_CELLS.load(Ordering::Relaxed),
        cache_hits: STAT_HITS.load(Ordering::Relaxed),
        cache_misses: STAT_MISSES.load(Ordering::Relaxed),
        evictions: STAT_EVICTIONS.load(Ordering::Relaxed),
        wall_secs: STAT_WALL_NANOS.load(Ordering::Relaxed) as f64 / 1e9,
    }
}

/// Zeroes the cumulative statistics.
pub fn reset_sweep_stats() {
    STAT_CELLS.store(0, Ordering::Relaxed);
    STAT_HITS.store(0, Ordering::Relaxed);
    STAT_MISSES.store(0, Ordering::Relaxed);
    STAT_EVICTIONS.store(0, Ordering::Relaxed);
    STAT_WALL_NANOS.store(0, Ordering::Relaxed);
}

/// Adds one executor call's cells and wall time to the cumulative stats.
fn record_call(cells: usize, start: Instant) {
    STAT_CELLS.fetch_add(cells as u64, Ordering::Relaxed);
    STAT_WALL_NANOS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Jobs and the executor
// ---------------------------------------------------------------------

type JobFn<T> = Box<dyn FnOnce() -> T + Send>;

/// One unit of [`run_sweep`] work: a cost hint plus a closure producing
/// the cell result.
pub struct SweepJob<T> {
    cost: u64,
    run: JobFn<T>,
}

impl<T: Send + 'static> SweepJob<T> {
    /// A job. `cost` is a relative expected-duration hint (larger =
    /// scheduled earlier); it affects wall clock only.
    pub fn new(cost: u64, f: impl FnOnce() -> T + Send + 'static) -> SweepJob<T> {
        SweepJob {
            cost,
            run: Box::new(f),
        }
    }
}

/// Runs every job on up to [`effective_jobs`] scoped workers,
/// longest-expected-first, and returns the results in submission order.
/// A plain pool: it never reads or writes the cache.
pub fn run_sweep<T: Send>(jobs: Vec<SweepJob<T>>) -> Vec<T> {
    let start = Instant::now();
    let costs: Vec<u64> = jobs.iter().map(|j| j.cost).collect();
    let runs: Vec<Mutex<Option<JobFn<T>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j.run))).collect();
    let results = run_pool(&costs, |i| {
        let run = runs[i].lock().unwrap().take();
        run.expect("each job taken exactly once")()
    });
    record_call(results.len(), start);
    results
}

/// Runs `job(i)` for every `i < costs.len()` on up to [`effective_jobs`]
/// scoped workers, pulling the largest `costs[i]` first (ties in index
/// order; only wall clock depends on this), and returns the results in
/// index order. Inside a sweep worker it runs inline: the outer pool
/// already owns the machine's parallelism, and a nested pool would
/// oversubscribe every core.
pub(crate) fn run_pool<T: Send>(costs: &[u64], job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let n = costs.len();
    let workers = if in_sweep_worker() {
        1
    } else {
        effective_jobs().min(n)
    };
    if workers <= 1 {
        return (0..n).map(job).collect();
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_SWEEP_WORKER.with(|f| f.set(true));
                while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let v = job(i);
                    *slots[i].lock().unwrap() = Some(v);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap()
                .expect("every sweep slot filled by a worker")
        })
        .collect()
}

/// Shrinks the cache directory to [`cache_cap_bytes`] by deleting the
/// oldest entries first (modification time, ties broken by file name so
/// the order is deterministic), returning how many files were removed.
/// Best-effort like the rest of the cache: I/O errors skip the file.
pub fn evict_cache_to_cap() -> u64 {
    let cap = cache_cap_bytes();
    let Ok(entries) = std::fs::read_dir(cache_dir()) else {
        return 0;
    };
    let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
        .filter_map(|e| {
            let e = e.ok()?;
            let path = e.path();
            if path.extension().and_then(|x| x.to_str()) != Some("json") {
                return None;
            }
            let meta = e.metadata().ok()?;
            let mtime = meta.modified().ok()?;
            Some((mtime, path, meta.len()))
        })
        .collect();
    let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
    if total <= cap {
        return 0;
    }
    files.sort();
    let mut evicted = 0;
    for (_, path, len) in files {
        if total <= cap {
            break;
        }
        if std::fs::remove_file(&path).is_ok() {
            total -= len;
            evicted += 1;
        }
    }
    STAT_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    evicted
}

// ---------------------------------------------------------------------
// Scenario sweeps
// ---------------------------------------------------------------------

/// The expected-cost hint for a scenario cell: total tasks × simulation
/// steps (barrier phases) × repeats. Relative ordering is all that
/// matters — LPT scheduling only needs "big cells first".
pub fn scenario_cost(s: &Scenario) -> u64 {
    let competitor_tasks: u64 = s
        .competitors
        .iter()
        .map(|c| match c {
            Competitor::CpuHog { .. } => 1,
            Competitor::MakeJ { tasks, .. } => u64::from(*tasks),
        })
        .sum();
    // Server cells scale with total subtask count rather than barrier
    // phases; both contributions are rough relative hints only.
    let server_steps: u64 = s
        .server
        .as_ref()
        .map(|c| c.expected_requests().saturating_mul(c.fanout as u64))
        .unwrap_or(0);
    (s.app.threads as u64 + competitor_tasks)
        .saturating_mul(s.app.phases.max(1))
        .saturating_add(server_steps)
        .saturating_mul(s.repeats as u64)
        .max(1)
}

/// A submitted scenario the cache did not answer.
struct Miss {
    /// Its position in the submitted batch.
    slot: usize,
    scenario: Scenario,
    /// Where its result is stored; `None` with the cache off or traced.
    key: Option<CacheKey>,
    /// The trace sequence number a traced cell claimed at submission.
    trace_seq: Option<u64>,
}

/// Runs a batch of scenarios, returning one [`ScenarioResult`] per
/// scenario in submission order — byte-identical to calling
/// [`run_scenario`](crate::scenario::run_scenario) in a serial loop.
///
/// The planner keys every scenario and answers each cache hit here, on
/// the calling thread; only the misses go to the pool. They go as whole
/// cells, or — when fewer misses than workers remain, e.g. one
/// full-scale scenario at 5 repeats on an 8-way box — one job per
/// repeat, so a narrow sweep still fills the pool. Repeat `r` always runs
/// seed `scenario.seed + r` in a fresh `System` and outcomes are folded
/// in repeat order, so the numbers are the same either way. Assembled
/// misses are stored and the cache is trimmed to its cap once, only if
/// something was stored. Traced cells (and every cell under
/// `--trace-out`) are never cached and always run whole: their trace
/// files are a side effect the cache cannot replay.
pub fn run_scenarios(scenarios: Vec<Scenario>) -> Vec<ScenarioResult> {
    let start = Instant::now();
    let n = scenarios.len();
    let caching = cache_enabled();
    let trace_all = trace_output_base().is_some();
    let mut results: Vec<Option<ScenarioResult>> = Vec::with_capacity(n);
    let mut misses: Vec<Miss> = Vec::new();
    for (slot, scenario) in scenarios.into_iter().enumerate() {
        let traced = scenario.trace || trace_all;
        // Claimed now so trace file names match a serial run.
        let trace_seq = traced.then(next_trace_seq);
        let key = (caching && !traced).then(|| scenario_cache_key(&scenario));
        if let Some(key) = key {
            if let Some(v) = cache_load(key) {
                STAT_HITS.fetch_add(1, Ordering::Relaxed);
                results.push(Some(v));
                continue;
            }
            STAT_MISSES.fetch_add(1, Ordering::Relaxed);
        }
        results.push(None);
        misses.push(Miss {
            slot,
            scenario,
            key,
            trace_seq,
        });
    }

    // Pool units: (miss, None) runs the whole cell, (miss, Some(r)) one
    // repeat of it.
    let split = misses.len() < effective_jobs();
    let mut units: Vec<(usize, Option<usize>)> = Vec::new();
    let mut costs: Vec<u64> = Vec::new();
    for (m, miss) in misses.iter().enumerate() {
        let cost = scenario_cost(&miss.scenario);
        let repeats = miss.scenario.repeats;
        if split && miss.trace_seq.is_none() {
            units.extend((0..repeats).map(|r| (m, Some(r))));
            costs.extend(std::iter::repeat_n((cost / repeats as u64).max(1), repeats));
        } else {
            units.push((m, None));
            costs.push(cost);
        }
    }
    let outs = run_pool(&costs, |u| {
        let miss = &misses[units[u].0];
        match units[u].1 {
            Some(r) => vec![run_repeat(&miss.scenario, r, false)],
            None => {
                let mut outcomes = run_repeats(&miss.scenario, miss.trace_seq.is_some());
                if let Some(seq) = miss.trace_seq {
                    let traces: Vec<_> = outcomes.iter_mut().map(|o| o.trace.take()).collect();
                    write_trace_files_with_seq(&miss.scenario, &traces, seq);
                }
                outcomes
            }
        }
    });

    // Units are in miss order and each miss's in repeat order, so every
    // miss takes the next `repeats` outcomes.
    let mut outs = outs.into_iter().flatten();
    let mut stored = false;
    for miss in misses {
        let outcomes = outs.by_ref().take(miss.scenario.repeats).collect();
        let (res, _) = assemble_outcomes(&miss.scenario, outcomes);
        if let Some(key) = miss.key {
            cache_store(key, &res);
            stored = true;
        }
        results[miss.slot] = Some(res);
    }
    // The sweep's own working set is never evicted mid-run.
    if stored {
        evict_cache_to_cap();
    }
    record_call(n, start);
    results
        .into_iter()
        .map(|r| r.expect("every scenario answered or run"))
        .collect()
}

// ---------------------------------------------------------------------
// Content-addressed cache
// ---------------------------------------------------------------------

/// A content hash identifying one cached cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u64);

impl CacheKey {
    /// The key's canonical 16-hex-digit form (file stem and embedded
    /// `"key"` field of the cache document).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Content hash of a scenario cell: every `Scenario` field (machine,
/// cores, policy + full balancer config, app config, server, competitors,
/// cost model, repeats, seed, deadline, trace/check flags, ordering) as
/// 64-bit words (see `KeyWords`), folded into a state that starts from
/// [`SWEEP_SCHEMA_VERSION`].
pub fn scenario_cache_key(s: &Scenario) -> CacheKey {
    let mut h = KeyHasher(SWEEP_SCHEMA_VERSION);
    s.key_words(&mut h);
    CacheKey(h.0)
}

/// The key state: each word is folded in with one 64×64→128 multiply of
/// the state and the word, each first XORed with a wyhash secret, keeping
/// `hi ^ lo` as wyhash's `mum` does. The word is a factor of its own, not
/// XORed into the state: from the schema-3 state, `Uniform(4)` (tags 3
/// then 4) and `Throttle` (tag 7) would otherwise fold to one key.
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        let m = u128::from(self.0 ^ 0xa076_1d64_78bd_642f) * u128::from(w ^ 0xe703_7ed1_a0b4_28db);
        self.0 = (m >> 64) as u64 ^ m as u64;
    }
}

/// A value's cache-key encoding, one or more 64-bit words: an integer
/// widened, a `SimDuration` its nanoseconds, an `f64` its bits, a `bool`
/// 0 or 1, an enum its variant tag then its fields, a `Vec` its length
/// then its items, an `Option` a tag then its value. Each config type's
/// impl destructures it with no `..` and matches with no wildcard arm,
/// so a new field or variant stops the build until the key covers it;
/// a field left out would serve stale results. The key never reads
/// `Debug`, so a cosmetic `Debug` change keeps every key.
trait KeyWords {
    fn key_words(&self, h: &mut KeyHasher);
}

/// Feeds each value's key words in turn.
macro_rules! words {
    ($h:expr, $($v:expr),+ $(,)?) => {{
        $(KeyWords::key_words($v, $h);)+
    }};
}

/// Implements [`KeyWords`] for each struct: its fields' words in the
/// order named. The pattern names every field, with no `..`.
macro_rules! struct_words {
    ($($t:ident { $($f:ident),+ $(,)? })+) => {$(
        impl KeyWords for $t {
            fn key_words(&self, h: &mut KeyHasher) {
                let $t { $($f),+ } = self;
                words!(h, $($f),+);
            }
        }
    )+};
}

/// Implements [`KeyWords`] for scalars, one word each.
macro_rules! scalar_words {
    ($($t:ty => $word:expr),+ $(,)?) => {$(
        impl KeyWords for $t {
            fn key_words(&self, h: &mut KeyHasher) {
                h.word($word(*self));
            }
        }
    )+};
}

scalar_words! {
    u64 => u64::from,
    u32 => u64::from,
    usize => |v| v as u64,
    f64 => f64::to_bits,
    bool => u64::from,
    SimDuration => SimDuration::as_nanos,
}

impl<T: KeyWords> KeyWords for Vec<T> {
    fn key_words(&self, h: &mut KeyHasher) {
        h.word(self.len() as u64);
        for item in self {
            item.key_words(h);
        }
    }
}

impl<T: KeyWords> KeyWords for Option<T> {
    fn key_words(&self, h: &mut KeyHasher) {
        match self {
            None => h.word(0),
            Some(v) => words!(h, &1u64, v),
        }
    }
}

struct_words! {
    Scenario {
        machine, cores, policy, app, server, competitors, cost, repeats, seed, deadline, trace,
        trace_sample, check, ordering,
    }
    SpeedBalancerConfig {
        interval, randomize_interval, speed_threshold, post_migration_block, measurement_noise,
        block_numa_migrations, startup_delay, cross_cache_interval_mult, metric, weight_core_speed,
    }
    SpmdConfig {
        threads, phases, work_per_phase, imbalance, wait, rss_per_thread, mem_intensity,
    }
    ServerConfig {
        workers, arrival, service, fanout, queue_capacity, shed_after, window, rss_per_worker,
        mem_intensity,
    }
    CostModel {
        refill_bytes_per_sec, min_migration_cost, max_migration_cost, numa_remote_factor,
        smt_migration_cost,
    }
}

impl KeyWords for Machine {
    fn key_words(&self, h: &mut KeyHasher) {
        match self {
            Machine::Tigerton => h.word(0),
            Machine::Barcelona => h.word(1),
            Machine::Nehalem => h.word(2),
            Machine::Uniform(n) => words!(h, &3u64, n),
            Machine::Asymmetric { fast, slow, factor } => words!(h, &4u64, fast, slow, factor),
            Machine::BigLittle4p8e => h.word(5),
            Machine::Turbo2p => h.word(6),
            Machine::Throttle => h.word(7),
        }
    }
}

impl KeyWords for Policy {
    fn key_words(&self, h: &mut KeyHasher) {
        match self {
            Policy::Pinned => h.word(0),
            Policy::Load => h.word(1),
            Policy::Speed => h.word(2),
            Policy::SpeedWith(cfg) => words!(h, &3u64, cfg),
            Policy::Dwrr => h.word(4),
            Policy::Ule => h.word(5),
            Policy::UleTuned => h.word(6),
        }
    }
}

impl KeyWords for SpeedMetric {
    fn key_words(&self, h: &mut KeyHasher) {
        match self {
            SpeedMetric::ExecTime => h.word(0),
            SpeedMetric::InverseQueueLength => h.word(1),
        }
    }
}

impl KeyWords for WaitMode {
    fn key_words(&self, h: &mut KeyHasher) {
        match self {
            WaitMode::Spin => h.word(0),
            WaitMode::Yield => h.word(1),
            WaitMode::Block => h.word(2),
            WaitMode::SpinThenBlock(spin) => words!(h, &3u64, spin),
        }
    }
}

impl KeyWords for ArrivalProcess {
    fn key_words(&self, h: &mut KeyHasher) {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => words!(h, &0u64, rate_per_sec),
            ArrivalProcess::Mmpp {
                calm_rate,
                burst_rate,
                mean_calm,
                mean_burst,
            } => words!(h, &1u64, calm_rate, burst_rate, mean_calm, mean_burst),
            ArrivalProcess::Replay {
                rates_per_sec,
                step,
            } => words!(h, &2u64, rates_per_sec, step),
        }
    }
}

impl KeyWords for ServiceDist {
    fn key_words(&self, h: &mut KeyHasher) {
        match self {
            ServiceDist::Exponential { mean } => words!(h, &0u64, mean),
            ServiceDist::LogNormal { median, sigma } => words!(h, &1u64, median, sigma),
            ServiceDist::Bimodal {
                fast,
                slow,
                slow_prob,
            } => words!(h, &2u64, fast, slow, slow_prob),
        }
    }
}

impl KeyWords for Competitor {
    fn key_words(&self, h: &mut KeyHasher) {
        match self {
            Competitor::CpuHog { core } => words!(h, &0u64, core),
            Competitor::MakeJ {
                tasks,
                jobs_per_task,
            } => words!(h, &1u64, tasks, jobs_per_task),
        }
    }
}

impl KeyWords for OrderingPolicy {
    fn key_words(&self, h: &mut KeyHasher) {
        match self {
            OrderingPolicy::Fifo => h.word(0),
            OrderingPolicy::Lifo => h.word(1),
            OrderingPolicy::SeededShuffle(seed) => words!(h, &2u64, seed),
            OrderingPolicy::Exhaustive { k, prefix } => words!(h, &3u64, k, prefix),
        }
    }
}

fn cache_path(key: CacheKey) -> PathBuf {
    cache_dir().join(format!("{}.json", key.hex()))
}

/// The stack buffer [`cache_load`] reads into: quick-profile documents
/// take 318–1,113 bytes, and zeroing 16 KiB per hit cost 3% of a warm pass.
const READ_BUF_BYTES: usize = 4 << 10;

/// Reads `key`'s document with one `read` call, finishing with
/// `read_to_end` only when it fills the buffer, and decodes it. A short
/// read can only be a miss: no proper prefix of a document decodes, since
/// its only `\n}\n` is its end.
fn cache_load(key: CacheKey) -> Option<ScenarioResult> {
    let mut file = std::fs::File::open(cache_path(key)).ok()?;
    let mut buf = [0; READ_BUF_BYTES];
    let len = file.read(&mut buf).ok()?;
    if len < buf.len() {
        return decode_cache_doc(&buf[..len], key);
    }
    let mut doc = buf.to_vec();
    file.read_to_end(&mut doc).ok()?;
    decode_cache_doc(&doc, key)
}

static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

fn cache_store(key: CacheKey, value: &ScenarioResult) {
    let dir = cache_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return; // cache is best-effort; never fail the sweep over it
    }
    let doc = cache_doc(key, value);
    // Unique temp name + rename: concurrent workers (or processes) racing
    // on the same key each land a complete document, never a torn one.
    let tmp = dir.join(format!(
        "{}.tmp.{}.{}",
        key.hex(),
        std::process::id(),
        STORE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if std::fs::write(&tmp, doc).is_ok() && std::fs::rename(&tmp, cache_path(key)).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// The cache document for `key`: the schema version, the key and the
/// `"result"` node.
fn cache_doc(key: CacheKey, value: &ScenarioResult) -> String {
    format!(
        "{{\n  \"schema\": {SWEEP_SCHEMA_VERSION},\n  \"key\": \"{}\",\n  \"result\": {}\n}}\n",
        key.hex(),
        value.to_cache_json()
    )
}

fn f64_bits_array(values: &[f64]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|v| format!("\"{:016x}\"", v.to_bits()))
        .collect();
    format!("[{}]", items.join(","))
}

type ServerFieldGet = fn(&ServerStats) -> &RepeatStats;
type ServerFieldGetMut = fn(&mut ServerStats) -> &mut RepeatStats;

/// The `(json key, accessor)` table for the per-repeat [`ServerStats`]
/// arrays: one place to keep the serializer and parser aligned.
const SERVER_FIELDS: [(&str, ServerFieldGet, ServerFieldGetMut); 7] = [
    ("p50_ms_bits", |s| &s.p50_ms, |s| &mut s.p50_ms),
    ("p99_ms_bits", |s| &s.p99_ms, |s| &mut s.p99_ms),
    ("p999_ms_bits", |s| &s.p999_ms, |s| &mut s.p999_ms),
    (
        "queue_mean_ms_bits",
        |s| &s.queue_mean_ms,
        |s| &mut s.queue_mean_ms,
    ),
    (
        "service_mean_ms_bits",
        |s| &s.service_mean_ms,
        |s| &mut s.service_mean_ms,
    ),
    ("completed_bits", |s| &s.completed, |s| &mut s.completed),
    ("dropped_bits", |s| &s.dropped, |s| &mut s.dropped),
];

fn server_stats_to_json(s: &ServerStats) -> String {
    let fields: Vec<String> = SERVER_FIELDS
        .iter()
        .map(|(key, get, _)| format!("\"{key}\":{}", f64_bits_array(&get(s).values)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The `"result"` node of a cache document. Floats are stored as hex bit
/// patterns so they round-trip exactly.
impl ScenarioResult {
    fn to_cache_json(&self) -> String {
        let server = match &self.server {
            Some(s) => server_stats_to_json(s),
            None => "null".into(),
        };
        format!(
            "{{\"completion_bits\":{},\"migration_bits\":{},\"timeouts\":{},\"server\":{server}}}",
            f64_bits_array(&self.completion.values),
            f64_bits_array(&self.migrations.values),
            self.timeouts
        )
    }
}

/// Decodes the cache document for `key` in one pass, parsing each bit
/// pattern straight into an `f64`. It accepts exactly what `cache_doc`
/// writes for `key` under this [`SWEEP_SCHEMA_VERSION`]: anything else (a
/// truncated or altered file, another key or schema, a trailing byte) is
/// `None`, a miss.
fn decode_cache_doc(doc: &[u8], key: CacheKey) -> Option<ScenarioResult> {
    let mut r = DocReader(doc);
    r.lit("{\n  \"schema\": ")?;
    if r.decimal()? != SWEEP_SCHEMA_VERSION {
        return None;
    }
    r.lit(",\n  \"key\": \"")?;
    if r.hex_u64()? != key.0 {
        return None;
    }
    r.lit("\",\n  \"result\": ")?;
    let result = r.result()?;
    r.lit("\n}\n")?;
    r.0.is_empty().then_some(result)
}

/// The flag [`HEX_DIGIT`] holds for a byte outside `[0-9a-f]`.
const NOT_HEX: u8 = 0x10;

/// Each byte's lower-case hex digit value, or [`NOT_HEX`].
const HEX_DIGIT: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The unread bytes of a cache document. Each reader mirrors one writer
/// above and consumes exactly its output, or returns `None`.
struct DocReader<'a>(&'a [u8]);

impl DocReader<'_> {
    /// Consumes `text`, which must come next.
    fn lit(&mut self, text: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(text.as_bytes())?;
        Some(())
    }

    /// A `{:016x}` value: exactly 16 lowercase hex digits, decoded by table
    /// lookup with no branch per digit; a bad digit's flag bit is tested
    /// once per value.
    fn hex_u64(&mut self) -> Option<u64> {
        let (digits, rest) = self.0.split_first_chunk::<16>()?;
        let (mut v, mut flags) = (0, 0);
        for &d in digits {
            let nibble = HEX_DIGIT[usize::from(d)];
            flags |= nibble;
            v = v << 4 | u64::from(nibble & 0xf);
        }
        if flags & NOT_HEX != 0 {
            return None;
        }
        self.0 = rest;
        Some(v)
    }

    /// A `{}`-formatted integer: decimal digits, no leading zero.
    fn decimal(&mut self) -> Option<u64> {
        let len = self.0.iter().take_while(|b| b.is_ascii_digit()).count();
        let (digits, rest) = self.0.split_at(len);
        if len > 1 && digits[0] == b'0' {
            return None;
        }
        let v = std::str::from_utf8(digits).ok()?.parse().ok()?;
        self.0 = rest;
        Some(v)
    }

    /// An `f64_bits_array`.
    fn bits_array(&mut self) -> Option<Vec<f64>> {
        self.lit("[")?;
        let mut values = Vec::new();
        while self.lit("]").is_none() {
            if !values.is_empty() {
                self.lit(",")?;
            }
            self.lit("\"")?;
            values.push(f64::from_bits(self.hex_u64()?));
            self.lit("\"")?;
        }
        Some(values)
    }

    /// A `server_stats_to_json` object.
    fn server_stats(&mut self) -> Option<ServerStats> {
        let mut out = ServerStats::default();
        let mut open = "{\"";
        for (key, _, get_mut) in &SERVER_FIELDS {
            self.lit(open)?;
            self.lit(key)?;
            self.lit("\":")?;
            get_mut(&mut out).values = self.bits_array()?;
            open = ",\"";
        }
        self.lit("}")?;
        Some(out)
    }

    /// A `to_cache_json` object.
    fn result(&mut self) -> Option<ScenarioResult> {
        self.lit("{\"completion_bits\":")?;
        let completion = self.bits_array()?;
        self.lit(",\"migration_bits\":")?;
        let migrations = self.bits_array()?;
        self.lit(",\"timeouts\":")?;
        let timeouts = usize::try_from(self.decimal()?).ok()?;
        self.lit(",\"server\":")?;
        let server = match self.lit("null") {
            Some(()) => None,
            None => Some(self.server_stats()?),
        };
        self.lit("}")?;
        Some(ScenarioResult {
            completion: RepeatStats { values: completion },
            migrations: RepeatStats { values: migrations },
            timeouts,
            server,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Serializes tests that mutate the module's global knobs (jobs
    /// budget, cache switch/dir, cumulative stats) or run sweeps, whose
    /// cells would otherwise land in another test's cache and counters.
    pub(crate) fn global_guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn temp_cache_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("speedbal-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn results_commit_in_submission_order_despite_cost_scheduling() {
        let _g = global_guard();
        set_jobs(Some(4));
        // Costs deliberately inverted vs. submission order.
        let jobs: Vec<SweepJob<usize>> = (0..32)
            .map(|i| SweepJob::new(32 - i as u64, move || i))
            .collect();
        let out = run_sweep(jobs);
        assert_eq!(out, (0..32).collect::<Vec<_>>());
        set_jobs(None);
    }

    #[test]
    fn serial_and_parallel_sweeps_agree() {
        let _g = global_guard();
        let mk = || {
            (0..10)
                .map(|i| SweepJob::new(1 + i as u64, move || i * i))
                .collect::<Vec<SweepJob<usize>>>()
        };
        set_jobs(Some(1));
        let serial = run_sweep(mk());
        set_jobs(Some(3));
        let parallel = run_sweep(mk());
        set_jobs(None);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_pool_in_a_sweep_job_stays_on_the_worker_thread() {
        let _g = global_guard();
        assert!(!in_sweep_worker(), "caller thread is not a worker");
        set_jobs(Some(4));
        let here = || std::thread::current().id();
        let jobs: Vec<SweepJob<bool>> = (0..4)
            .map(|_| {
                SweepJob::new(1, move || {
                    let worker = here();
                    in_sweep_worker() && run_pool(&[1; 3], |_| here()).iter().all(|&t| t == worker)
                })
            })
            .collect();
        assert!(
            run_sweep(jobs).into_iter().all(|inline| inline),
            "a pool inside a sweep job runs on that job's worker"
        );
        // Outside a worker the jobs fan out over the pool's threads.
        let caller = here();
        assert!(
            run_pool(&[1; 3], |_| here()).iter().all(|&t| t != caller),
            "the caller ran a job itself"
        );
        set_jobs(None);
    }

    #[test]
    fn effective_jobs_prefers_override() {
        let _g = global_guard();
        set_jobs(Some(7));
        assert_eq!(effective_jobs(), 7);
        set_jobs(None);
        assert!(effective_jobs() >= 1);
    }

    /// Decodes a lone `"result"` node, as `to_cache_json` writes it.
    fn decode_result(text: &str) -> Option<ScenarioResult> {
        let mut r = DocReader(text.as_bytes());
        let res = r.result()?;
        r.0.is_empty().then_some(res)
    }

    #[test]
    fn scenario_result_cache_json_roundtrips_bit_for_bit() {
        // Values chosen to break decimal round-tripping if bits weren't
        // stored raw.
        let res = ScenarioResult {
            completion: RepeatStats {
                values: vec![0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 27.25],
            },
            migrations: RepeatStats {
                values: vec![0.0, 1e300],
            },
            timeouts: 3,
            server: None,
        };
        let text = res.to_cache_json();
        let back = decode_result(&text).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.completion.values), bits(&res.completion.values));
        assert_eq!(bits(&back.migrations.values), bits(&res.migrations.values));
        assert_eq!(back.timeouts, 3);
        assert!(back.server.is_none());
    }

    #[test]
    fn server_stats_cache_json_roundtrips_bit_for_bit() {
        let mut server = ServerStats::default();
        server.p50_ms.values = vec![0.1 + 0.2, 1.0 / 3.0];
        server.p99_ms.values = vec![2.5, 3.75];
        server.p999_ms.values = vec![9.0, f64::MIN_POSITIVE];
        server.queue_mean_ms.values = vec![0.25, 0.5];
        server.service_mean_ms.values = vec![1.0, 1.0];
        server.completed.values = vec![100.0, 101.0];
        server.dropped.values = vec![0.0, 3.0];
        let res = ScenarioResult {
            completion: RepeatStats { values: vec![1.0] },
            migrations: RepeatStats { values: vec![2.0] },
            timeouts: 0,
            server: Some(server.clone()),
        };
        let back = decode_result(&res.to_cache_json()).unwrap();
        let got = back.server.expect("server block survives the roundtrip");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (key, get, _) in &SERVER_FIELDS {
            assert_eq!(
                bits(&get(&got).values),
                bits(&get(&server).values),
                "field {key}"
            );
        }
    }

    #[test]
    fn cache_evicts_oldest_files_to_cap() {
        let _g = global_guard();
        let dir = temp_cache_dir("evict");
        set_cache_dir(Some(dir.clone()));
        // Four ~100-byte files with strictly increasing mtimes.
        let body = "x".repeat(100);
        for i in 0..4 {
            let path = dir.join(format!("{i:016x}.json"));
            std::fs::write(&path, &body).unwrap();
            let t = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000 + i);
            let f = std::fs::File::open(&path).unwrap();
            f.set_modified(t).unwrap();
        }
        // Non-json files are never touched.
        std::fs::write(dir.join("README"), "not a cache entry").unwrap();

        set_cache_cap_bytes(Some(250));
        assert_eq!(evict_cache_to_cap(), 2, "two oldest must go");
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(
            left,
            vec![
                format!("{:016x}.json", 2),
                format!("{:016x}.json", 3),
                "README".to_string()
            ]
        );
        // Under the cap: nothing more to do.
        assert_eq!(evict_cache_to_cap(), 0);
        // Cap of zero clears the cache but leaves foreign files alone.
        set_cache_cap_bytes(Some(0));
        assert_eq!(evict_cache_to_cap(), 2);
        set_cache_cap_bytes(None);
        set_cache_dir(None);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cache_store_load_respects_schema_and_key() {
        let _g = global_guard();
        let dir = temp_cache_dir("unit");
        set_cache_dir(Some(dir.clone()));
        set_cache_enabled(true);
        let key = CacheKey(0xDEAD_BEEF_0000_0001);
        let res = ScenarioResult {
            completion: RepeatStats { values: vec![1.5] },
            migrations: RepeatStats { values: vec![2.0] },
            timeouts: 0,
            server: None,
        };
        cache_store(key, &res);
        let loaded: ScenarioResult = cache_load(key).expect("fresh store must load");
        assert_eq!(loaded.completion.values, vec![1.5]);

        // A different key never matches this file.
        assert!(cache_load(CacheKey(key.0 ^ 1)).is_none());

        // A stale schema version invalidates the entry.
        let path = cache_path(key);
        let stale = std::fs::read_to_string(&path).unwrap().replace(
            &format!("\"schema\": {SWEEP_SCHEMA_VERSION}"),
            "\"schema\": 999999",
        );
        std::fs::write(&path, stale).unwrap();
        assert!(cache_load(key).is_none());

        set_cache_enabled(false);
        set_cache_dir(None);
        let _ = std::fs::remove_dir_all(dir);
    }

    const SPMD_KEY: CacheKey = CacheKey(0x0123_4567_89ab_cdef);

    /// An SPMD cell's document exactly as the schema-3 writer stores it.
    /// Its completion bits are −0.0, a NaN with a payload, the least
    /// subnormal, +∞, −∞ and 0.1 + 0.2.
    const SPMD_DOC: &str = concat!(
        "{\n  \"schema\": 3,\n  \"key\": \"0123456789abcdef\",\n  \"result\": {",
        "\"completion_bits\":[\"8000000000000000\",\"7ff80000deadbeef\",\"0000000000000001\",",
        "\"7ff0000000000000\",\"fff0000000000000\",\"3fd3333333333334\"],",
        "\"migration_bits\":[\"0000000000000000\",\"3ff0000000000000\",\"4000000000000000\",",
        "\"4008000000000000\",\"7e37e43c8800759c\",\"4014000000000000\"],",
        "\"timeouts\":12,\"server\":null}\n}\n",
    );

    const SERVER_KEY: CacheKey = CacheKey(0xfedc_ba98_7654_3210);

    /// A server cell's document exactly as the schema-3 writer stores it;
    /// its values are those of [`pinned_server_stats`].
    const SERVER_DOC: &str = concat!(
        "{\n  \"schema\": 3,\n  \"key\": \"fedcba9876543210\",\n  \"result\": {",
        "\"completion_bits\":[\"3ff8000000000000\",\"4002000000000000\"],",
        "\"migration_bits\":[\"4010000000000000\",\"401c000000000000\"],",
        "\"timeouts\":0,\"server\":{",
        "\"p50_ms_bits\":[\"3fd3333333333334\",\"3fd5555555555555\"],",
        "\"p99_ms_bits\":[\"4004000000000000\",\"400e000000000000\"],",
        "\"p999_ms_bits\":[\"4022000000000000\",\"0010000000000000\"],",
        "\"queue_mean_ms_bits\":[\"3fd0000000000000\",\"3fe0000000000000\"],",
        "\"service_mean_ms_bits\":[\"3ff0000000000000\",\"3ff0000000000000\"],",
        "\"completed_bits\":[\"4059000000000000\",\"4059400000000000\"],",
        "\"dropped_bits\":[\"0000000000000000\",\"4008000000000000\"]}}\n}\n",
    );

    fn pinned_server_stats() -> ServerStats {
        let mut server = ServerStats::default();
        server.p50_ms.values = vec![0.1 + 0.2, 1.0 / 3.0];
        server.p99_ms.values = vec![2.5, 3.75];
        server.p999_ms.values = vec![9.0, f64::MIN_POSITIVE];
        server.queue_mean_ms.values = vec![0.25, 0.5];
        server.service_mean_ms.values = vec![1.0, 1.0];
        server.completed.values = vec![100.0, 101.0];
        server.dropped.values = vec![0.0, 3.0];
        server
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn pinned_documents_decode_bit_for_bit_and_reencode_byte_for_byte() {
        let _g = global_guard();
        let spmd = decode_cache_doc(SPMD_DOC.as_bytes(), SPMD_KEY).expect("SPMD document decodes");
        assert_eq!(
            bits(&spmd.completion.values),
            [
                0x8000_0000_0000_0000,
                0x7ff8_0000_dead_beef,
                0x0000_0000_0000_0001,
                f64::INFINITY.to_bits(),
                f64::NEG_INFINITY.to_bits(),
                (0.1f64 + 0.2).to_bits(),
            ]
        );
        assert_eq!(
            bits(&spmd.migrations.values),
            bits(&[0.0, 1.0, 2.0, 3.0, 1e300, 5.0])
        );
        assert_eq!(spmd.timeouts, 12);
        assert!(spmd.server.is_none());

        let served =
            decode_cache_doc(SERVER_DOC.as_bytes(), SERVER_KEY).expect("server document decodes");
        assert_eq!(bits(&served.completion.values), bits(&[1.5, 2.25]));
        assert_eq!(bits(&served.migrations.values), bits(&[4.0, 7.0]));
        assert_eq!(served.timeouts, 0);
        let (got, want) = (served.server.as_ref().unwrap(), pinned_server_stats());
        for (key, get, _) in &SERVER_FIELDS {
            assert_eq!(bits(&get(got).values), bits(&get(&want).values), "{key}");
        }

        // The writer stores each decoded result as the same bytes.
        let dir = temp_cache_dir("pinned");
        set_cache_dir(Some(dir.clone()));
        for (key, doc, res) in [
            (SPMD_KEY, SPMD_DOC, &spmd),
            (SERVER_KEY, SERVER_DOC, &served),
        ] {
            cache_store(key, res);
            assert_eq!(std::fs::read_to_string(cache_path(key)).unwrap(), doc);
        }
        set_cache_dir(None);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Decodes `doc`, checking that a hit is exactly the document the writer
    /// produces for the decoded result: anything looser could return a
    /// value the file does not hold.
    fn decode_checked(doc: &[u8], key: CacheKey) -> Option<ScenarioResult> {
        let res = decode_cache_doc(doc, key)?;
        assert_eq!(cache_doc(key, &res).as_bytes(), doc, "a hit re-encodes");
        Some(res)
    }

    #[test]
    fn every_truncation_of_a_document_is_a_miss() {
        for (key, doc) in [(SPMD_KEY, SPMD_DOC), (SERVER_KEY, SERVER_DOC)] {
            let doc = doc.as_bytes();
            assert!(decode_checked(doc, key).is_some());
            for len in 0..doc.len() {
                assert!(decode_cache_doc(&doc[..len], key).is_none(), "{len} bytes");
            }
        }
    }

    #[test]
    fn mutated_and_random_bytes_never_panic_or_misdecode() {
        let mut rng = speedbal_sim::SimRng::new(0x5eed);
        let mut byte = || rng.next_below(256) as u8;
        let mut altered_hits = 0;
        for (key, doc) in [(SPMD_KEY, SPMD_DOC), (SERVER_KEY, SERVER_DOC)] {
            let doc = doc.as_bytes();
            // At every position: eight seeded byte replacements, the
            // byte deleted, and a seeded byte inserted before it.
            for i in 0..doc.len() {
                let mut mutants: Vec<Vec<u8>> = (0..8)
                    .map(|_| {
                        let mut m = doc.to_vec();
                        m[i] = byte();
                        m
                    })
                    .collect();
                mutants.push([&doc[..i], &doc[i + 1..]].concat());
                mutants.push([&doc[..i], &[byte()], &doc[i..]].concat());
                for m in mutants {
                    if decode_checked(&m, key).is_some() && m != doc {
                        altered_hits += 1;
                    }
                }
            }
            // A valid prefix with a random tail, and random bytes alone.
            for round in 0..2_000 {
                let mut m = doc[..round % (doc.len() + 1)].to_vec();
                let tail = usize::from(byte() % 64);
                m.extend((0..tail).map(|_| byte()));
                decode_checked(&m, key);
                let junk: Vec<u8> = (0..usize::from(byte()) * 2).map(|_| byte()).collect();
                decode_checked(&junk, key);
            }
        }
        // A hex or decimal digit swapped for another is another valid
        // document, so the re-encoding check above did run.
        assert!(altered_hits > 0);
    }

    #[test]
    fn malformed_fields_are_misses() {
        assert!(decode_cache_doc(SPMD_DOC.as_bytes(), CacheKey(SPMD_KEY.0 ^ 1)).is_none());
        let spmd_edits = [
            // Another schema, or the same number written another way.
            ("\"schema\": 3,", "\"schema\": 4,"),
            ("\"schema\": 3,", "\"schema\": 03,"),
            ("\"schema\": 3,", "\"schema\": 3.0,"),
            // Another key inside the file.
            ("0123456789abcdef", "0123456789abcdee"),
            // A non-hex digit, upper case, a sign, a short pattern.
            ("7ff80000deadbeef", "7ff80000deadbeeg"),
            ("7ff80000deadbeef", "7FF80000DEADBEEF"),
            ("7ff80000deadbeef", "+ff80000deadbeef"),
            ("7ff80000deadbeef", "7ff80000deadbee"),
            // Negative, fractional, exponent, zero-padded or overflowing
            // timeouts.
            ("\"timeouts\":12", "\"timeouts\":-12"),
            ("\"timeouts\":12", "\"timeouts\":12.5"),
            ("\"timeouts\":12", "\"timeouts\":1.2e1"),
            ("\"timeouts\":12", "\"timeouts\":012"),
            ("\"timeouts\":12", "\"timeouts\":184467440737095516160"),
            // Whitespace the writer never emits, a missing field.
            ("\"timeouts\":12", "\"timeouts\": 12"),
            (",\"server\":null", ""),
        ];
        let server_edits = [
            ("\"p99_ms_bits\"", "\"p98_ms_bits\""),
            ("\"p99_ms_bits\"", "\"\""),
            (
                ",\"dropped_bits\":[\"0000000000000000\",\"4008000000000000\"]",
                "",
            ),
            ("\"server\":{", "\"server\":{}"),
        ];
        let cases = spmd_edits
            .iter()
            .map(|e| (SPMD_KEY, SPMD_DOC, e))
            .chain(server_edits.iter().map(|e| (SERVER_KEY, SERVER_DOC, e)));
        for (key, doc, (from, to)) in cases {
            let bad = doc.replacen(from, to, 1);
            assert_ne!(bad, doc);
            assert!(
                decode_cache_doc(bad.as_bytes(), key).is_none(),
                "{from} -> {to}"
            );
        }
        for tail in [" ", "\n", "x", "}", "\0"] {
            let long = format!("{SPMD_DOC}{tail}");
            assert!(
                decode_cache_doc(long.as_bytes(), SPMD_KEY).is_none(),
                "{tail:?}"
            );
        }
    }

    /// The decoder `hex_u64` replaced: one branch per digit.
    fn match_hex_u64(digits: &[u8; 16]) -> Option<u64> {
        let mut v = 0;
        for &d in digits {
            let nibble = match d {
                b'0'..=b'9' => d - b'0',
                b'a'..=b'f' => d - b'a' + 10,
                _ => return None,
            };
            v = v << 4 | u64::from(nibble);
        }
        Some(v)
    }

    #[test]
    fn hex_decoder_matches_the_match_decoder_on_every_byte() {
        let base = *b"0123456789abcdef";
        let mut accepted = 0;
        for pos in 0..16 {
            for byte in 0..=255u8 {
                let mut digits = base;
                digits[pos] = byte;
                let doc = [&digits[..], b"tail"].concat();
                let mut r = DocReader(&doc);
                let got = r.hex_u64();
                assert_eq!(got, match_hex_u64(&digits), "{byte:#04x} at {pos}");
                assert_eq!(
                    got.is_some(),
                    byte.is_ascii_hexdigit() && !byte.is_ascii_uppercase()
                );
                // A hit consumes exactly the 16 digits; a miss consumes nothing.
                let rest: &[u8] = if got.is_some() { b"tail" } else { &doc };
                assert_eq!(r.0, rest);
                accepted += usize::from(got.is_some());
            }
        }
        assert_eq!(accepted, 16 * 16);
    }

    /// A result with `n` completion values and the given timeouts count.
    fn sized_result(n: usize, timeouts: usize) -> ScenarioResult {
        ScenarioResult {
            completion: RepeatStats {
                values: (0..n).map(|i| i as f64 / 7.0).collect(),
            },
            migrations: RepeatStats { values: vec![3.0] },
            timeouts,
            server: None,
        }
    }

    #[test]
    fn documents_beyond_the_read_buffer_are_hits_bit_for_bit() {
        let _g = global_guard();
        let dir = temp_cache_dir("large");
        set_cache_dir(Some(dir.clone()));
        let key = CacheKey(0x1a23_e000_0000_0001);
        // Documents one byte short of, exactly at and one byte past the
        // buffer: a timeouts count of d digits adds d - 1 bytes, so some
        // count lands each length.
        let mut cases = Vec::new();
        for target in READ_BUF_BYTES - 1..=READ_BUF_BYTES + 1 {
            let n = (0..)
                .find(|&n| cache_doc(key, &sized_result(n + 1, 0)).len() > target)
                .unwrap();
            let short = target - cache_doc(key, &sized_result(n, 0)).len();
            let timeouts = if short == 0 {
                0
            } else {
                10usize.pow(short as u32)
            };
            cases.push(sized_result(n, timeouts));
        }
        // A server cell of 2,000 repeats: every array past the buffer.
        let mut server = ServerStats::default();
        for (_, _, get_mut) in &SERVER_FIELDS {
            get_mut(&mut server).values = (0..2_000).map(|i| f64::from(i) * 0.25).collect();
        }
        cases.push(ScenarioResult {
            server: Some(server),
            ..sized_result(2_000, 12)
        });
        let lens: Vec<usize> = cases.iter().map(|r| cache_doc(key, r).len()).collect();
        assert_eq!(
            lens[..3],
            [READ_BUF_BYTES - 1, READ_BUF_BYTES, READ_BUF_BYTES + 1]
        );
        assert!(lens[3] > 16 * READ_BUF_BYTES);
        for res in &cases {
            cache_store(key, res);
            let back = cache_load(key).expect("a stored document is a hit");
            assert_eq!(cache_doc(key, &back), cache_doc(key, res));
            assert_eq!(bits(&back.completion.values), bits(&res.completion.values));
        }
        set_cache_dir(None);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_corrupted_cache_file_is_re_simulated_and_rewritten() {
        use crate::scenario::{Machine, Policy, Scenario};
        use speedbal_apps::WaitMode;
        use speedbal_workloads::ep;
        let _g = global_guard();
        let dir = temp_cache_dir("corrupt");
        set_cache_dir(Some(dir.clone()));
        set_cache_enabled(true);
        set_jobs(Some(1));
        let mk = || {
            vec![Scenario::new(
                Machine::Uniform(2),
                0,
                Policy::Speed,
                ep().spmd(3, WaitMode::Yield, 0.05),
            )
            .repeats(2)]
        };
        let cold = run_scenarios(mk());
        let path = cache_path(scenario_cache_key(&mk()[0]));
        let stored = std::fs::read(&path).unwrap();
        std::fs::write(&path, &stored[..stored.len() / 2]).unwrap();
        let before = sweep_stats();
        let again = run_scenarios(mk());
        let st = stats_since(before);
        set_jobs(None);
        set_cache_enabled(false);
        set_cache_dir(None);
        assert_eq!((st.cache_hits, st.cache_misses), (0, 1));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            stored,
            "the miss rewrites the file"
        );
        assert_eq!(
            bits(&again[0].completion.values),
            bits(&cold[0].completion.values)
        );
        assert_eq!(
            bits(&again[0].migrations.values),
            bits(&cold[0].migrations.values)
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn narrow_sweep_splits_repeats_and_matches_cell_level() {
        use crate::scenario::{Machine, Policy, Scenario};
        use speedbal_apps::WaitMode;
        use speedbal_workloads::ep;
        let _g = global_guard();
        let mk = || {
            vec![
                Scenario::new(
                    Machine::Uniform(4),
                    0,
                    Policy::Load,
                    ep().spmd(6, WaitMode::Yield, 0.05),
                )
                .repeats(5),
                Scenario::new(
                    Machine::Uniform(2),
                    0,
                    Policy::Speed,
                    ep().spmd(3, WaitMode::Yield, 0.05),
                )
                .repeats(4),
            ]
        };
        // 2 scenarios < 8 workers: the split path runs 9 repeat jobs.
        set_jobs(Some(8));
        let split = run_scenarios(mk());
        // 2 scenarios >= 1 worker: the cell-level path runs serially.
        set_jobs(Some(1));
        let cells = run_scenarios(mk());
        set_jobs(None);
        assert_eq!(split.len(), 2);
        for (a, b) in split.iter().zip(&cells) {
            assert_eq!(a.completion.values, b.completion.values);
            assert_eq!(a.migrations.values, b.migrations.values);
            assert_eq!(a.timeouts, b.timeouts);
        }
    }

    #[test]
    fn split_path_stores_and_replays_the_cell_cache() {
        use crate::scenario::{Machine, Policy, Scenario};
        use speedbal_apps::WaitMode;
        use speedbal_workloads::ep;
        let _g = global_guard();
        let dir = temp_cache_dir("split");
        set_cache_dir(Some(dir.clone()));
        set_cache_enabled(true);
        set_jobs(Some(8));
        let mk = || {
            vec![Scenario::new(
                Machine::Uniform(4),
                0,
                Policy::Load,
                ep().spmd(5, WaitMode::Yield, 0.05),
            )
            .repeats(4)]
        };
        let cold = run_scenarios(mk());
        // The assembled cell (not individual repeats) must now be cached.
        let key = scenario_cache_key(&mk()[0]);
        assert!(
            cache_load(key).is_some(),
            "split miss must persist the assembled cell"
        );
        let before_hits = sweep_stats().cache_hits;
        let warm = run_scenarios(mk());
        assert_eq!(sweep_stats().cache_hits, before_hits + 1);
        assert_eq!(cold[0].completion.values, warm[0].completion.values);
        assert_eq!(cold[0].migrations.values, warm[0].migrations.values);
        set_jobs(None);
        set_cache_enabled(false);
        set_cache_dir(None);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The `.json` entries of a cache directory, sorted.
    fn json_entries(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".json"))
            .collect();
        names.sort();
        names
    }

    /// The cumulative statistics gathered since `before`.
    fn stats_since(before: SweepStats) -> SweepStats {
        let after = sweep_stats();
        SweepStats {
            cells: after.cells - before.cells,
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
            evictions: after.evictions - before.evictions,
            wall_secs: after.wall_secs - before.wall_secs,
        }
    }

    #[test]
    fn narrow_sweep_stores_are_trimmed_to_the_cap() {
        use crate::scenario::{Machine, Policy, Scenario};
        use speedbal_apps::WaitMode;
        use speedbal_workloads::ep;
        let _g = global_guard();
        let dir = temp_cache_dir("narrow-cap");
        set_cache_dir(Some(dir.clone()));
        set_cache_enabled(true);
        // Smaller than any cache document.
        set_cache_cap_bytes(Some(16));
        // 1 scenario < 8 workers: its repeats run as separate jobs.
        set_jobs(Some(8));
        let before = sweep_stats();
        run_scenarios(vec![Scenario::new(
            Machine::Uniform(2),
            0,
            Policy::Load,
            ep().spmd(3, WaitMode::Yield, 0.05),
        )
        .repeats(3)]);
        let st = stats_since(before);
        set_jobs(None);
        set_cache_cap_bytes(None);
        set_cache_enabled(false);
        set_cache_dir(None);
        assert_eq!((st.cells, st.cache_misses), (1, 1));
        assert_eq!(
            st.evictions, 1,
            "the store must be trimmed by the sweep that made it"
        );
        assert!(json_entries(&dir).is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn warm_sweep_over_a_full_cache_hits_every_cell_and_evicts_nothing() {
        use crate::scenario::{Machine, Policy, Scenario};
        use speedbal_apps::WaitMode;
        use speedbal_workloads::ep;
        let _g = global_guard();
        let dir = temp_cache_dir("warm-full");
        set_cache_dir(Some(dir.clone()));
        set_cache_enabled(true);
        set_jobs(Some(2));
        let mk = || {
            [Policy::Speed, Policy::Load, Policy::Pinned]
                .into_iter()
                .map(|p| {
                    Scenario::new(
                        Machine::Uniform(2),
                        0,
                        p,
                        ep().spmd(3, WaitMode::Yield, 0.05),
                    )
                    .repeats(2)
                })
                .collect::<Vec<_>>()
        };
        let cold = run_scenarios(mk());
        let files = json_entries(&dir);
        assert_eq!(files.len(), 3);
        // The directory is now far above its cap.
        set_cache_cap_bytes(Some(16));
        let before = sweep_stats();
        let warm = run_scenarios(mk());
        let st = stats_since(before);
        set_jobs(None);
        set_cache_cap_bytes(None);
        set_cache_enabled(false);
        set_cache_dir(None);
        assert_eq!(st.cells, 3);
        assert_eq!(st.cache_hits, st.cells);
        assert_eq!((st.cache_misses, st.evictions), (0, 0));
        assert_eq!(
            json_entries(&dir),
            files,
            "a sweep that stored nothing evicts nothing"
        );
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.completion.values, b.completion.values);
            assert_eq!(a.migrations.values, b.migrations.values);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The key material of builds that hashed `Debug` text: the reference
    /// the explicit encoding is checked against.
    fn debug_key_material(s: &Scenario) -> String {
        format!("v{SWEEP_SCHEMA_VERSION}|scenario|{s:?}")
    }

    fn speed_cfg(s: &mut Scenario) -> &mut SpeedBalancerConfig {
        match &mut s.policy {
            Policy::SpeedWith(cfg) => cfg,
            other => panic!("{other:?} has no config"),
        }
    }

    fn server_cfg(s: &mut Scenario) -> &mut ServerConfig {
        s.server.as_mut().expect("a server cell")
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn mmpp(calm_rate: f64, burst_rate: f64, calm_ms: u64, burst_ms: u64) -> ArrivalProcess {
        ArrivalProcess::Mmpp {
            calm_rate,
            burst_rate,
            mean_calm: ms(calm_ms),
            mean_burst: ms(burst_ms),
        }
    }

    fn replay(rates: &[f64], step_ms: u64) -> ArrivalProcess {
        ArrivalProcess::Replay {
            rates_per_sec: rates.to_vec(),
            step: ms(step_ms),
        }
    }

    fn bimodal(fast_ms: u64, slow_ms: u64, slow_prob: f64) -> ServiceDist {
        ServiceDist::Bimodal {
            fast: ms(fast_ms),
            slow: ms(slow_ms),
            slow_prob,
        }
    }

    fn asym(fast: usize, slow: usize, factor: f64) -> Machine {
        Machine::Asymmetric { fast, slow, factor }
    }

    fn make_j(tasks: u32, jobs_per_task: u32) -> Competitor {
        Competitor::MakeJ {
            tasks,
            jobs_per_task,
        }
    }

    fn exhaustive(k: u32, prefix: &[u32]) -> OrderingPolicy {
        OrderingPolicy::Exhaustive {
            k,
            prefix: prefix.to_vec(),
        }
    }

    /// A cell that holds every config type: a configured SPEED policy, an
    /// SPMD app, a server and a competitor.
    fn full_cell() -> Scenario {
        use speedbal_workloads::ep;
        Scenario::new(
            Machine::Uniform(4),
            0,
            Policy::SpeedWith(SpeedBalancerConfig::default()),
            ep().spmd(3, WaitMode::Yield, 0.05),
        )
        .server(speedbal_workloads::web(6, 4, 0.7, ms(150)))
        .competitors(vec![make_j(2, 3)])
    }

    /// One-field edits of [`full_cell`]: every field of every config type
    /// the key reads, and every enum variant.
    const KEY_EDITS: &[fn(&mut Scenario)] = &[
        // Scenario
        |s| s.machine = Machine::Uniform(5),
        |s| s.machine = asym(2, 2, 0.5),
        |s| s.machine = asym(3, 2, 0.5),
        |s| s.machine = asym(2, 3, 0.5),
        |s| s.machine = asym(2, 2, 0.25),
        |s| s.cores = 2,
        |s| s.repeats = 3,
        |s| s.seed = 1,
        |s| s.deadline = ms(60_000),
        |s| s.trace = true,
        |s| s.trace_sample = 0.5,
        |s| s.check = true,
        // OrderingPolicy
        |s| s.ordering = OrderingPolicy::Lifo,
        |s| s.ordering = OrderingPolicy::SeededShuffle(1),
        |s| s.ordering = OrderingPolicy::SeededShuffle(2),
        |s| s.ordering = exhaustive(2, &[]),
        |s| s.ordering = exhaustive(3, &[]),
        |s| s.ordering = exhaustive(2, &[1]),
        |s| s.ordering = exhaustive(2, &[1, 0]),
        // SpeedBalancerConfig and SpeedMetric
        |s| speed_cfg(s).interval = ms(20),
        |s| speed_cfg(s).randomize_interval = false,
        |s| speed_cfg(s).speed_threshold = 0.8,
        |s| speed_cfg(s).post_migration_block = 3,
        |s| speed_cfg(s).measurement_noise = 0.1,
        |s| speed_cfg(s).block_numa_migrations = false,
        |s| speed_cfg(s).startup_delay = ms(1),
        |s| speed_cfg(s).cross_cache_interval_mult = 2,
        |s| speed_cfg(s).metric = SpeedMetric::InverseQueueLength,
        |s| speed_cfg(s).weight_core_speed = true,
        // SpmdConfig and WaitMode
        |s| s.app.threads = 4,
        |s| s.app.phases += 1,
        |s| s.app.work_per_phase = ms(7),
        |s| s.app.imbalance = 0.25,
        |s| s.app.wait = WaitMode::Spin,
        |s| s.app.wait = WaitMode::Block,
        |s| s.app.wait = WaitMode::SpinThenBlock(ms(200)),
        |s| s.app.wait = WaitMode::SpinThenBlock(ms(100)),
        |s| s.app.rss_per_thread += 1,
        |s| s.app.mem_intensity = 0.5,
        // ServerConfig
        |s| s.server = None,
        |s| server_cfg(s).workers = 7,
        |s| server_cfg(s).fanout = 2,
        |s| server_cfg(s).queue_capacity = 8,
        |s| server_cfg(s).shed_after = ms(5),
        |s| server_cfg(s).window = ms(200),
        |s| server_cfg(s).rss_per_worker += 1,
        |s| server_cfg(s).mem_intensity = 0.3,
        // ArrivalProcess
        |s| server_cfg(s).arrival = ArrivalProcess::Poisson { rate_per_sec: 9.0 },
        |s| server_cfg(s).arrival = mmpp(10.0, 50.0, 100, 20),
        |s| server_cfg(s).arrival = mmpp(11.0, 50.0, 100, 20),
        |s| server_cfg(s).arrival = mmpp(10.0, 51.0, 100, 20),
        |s| server_cfg(s).arrival = mmpp(10.0, 50.0, 101, 20),
        |s| server_cfg(s).arrival = mmpp(10.0, 50.0, 100, 21),
        |s| server_cfg(s).arrival = replay(&[10.0, 20.0], 50),
        |s| server_cfg(s).arrival = replay(&[10.0, 21.0], 50),
        |s| server_cfg(s).arrival = replay(&[10.0], 50),
        |s| server_cfg(s).arrival = replay(&[10.0, 20.0, 0.0], 50),
        |s| server_cfg(s).arrival = replay(&[10.0, 20.0], 60),
        // ServiceDist
        |s| server_cfg(s).service = ServiceDist::Exponential { mean: ms(1) },
        |s| server_cfg(s).service = ServiceDist::Exponential { mean: ms(2) },
        |s| {
            server_cfg(s).service = ServiceDist::LogNormal {
                median: ms(1),
                sigma: 0.75,
            }
        },
        |s| {
            server_cfg(s).service = ServiceDist::LogNormal {
                median: ms(1),
                sigma: 0.5,
            }
        },
        |s| server_cfg(s).service = bimodal(1, 10, 0.1),
        |s| server_cfg(s).service = bimodal(2, 10, 0.1),
        |s| server_cfg(s).service = bimodal(1, 11, 0.1),
        |s| server_cfg(s).service = bimodal(1, 10, 0.2),
        // Competitor
        |s| s.competitors = vec![],
        |s| s.competitors = vec![make_j(3, 3)],
        |s| s.competitors = vec![make_j(2, 4)],
        |s| s.competitors = vec![Competitor::CpuHog { core: 0 }],
        |s| s.competitors = vec![Competitor::CpuHog { core: 1 }],
        |s| s.competitors = vec![make_j(2, 3), Competitor::CpuHog { core: 0 }],
        // CostModel
        |s| s.cost.refill_bytes_per_sec = 4.0e9,
        |s| s.cost.min_migration_cost = ms(1),
        |s| s.cost.max_migration_cost = ms(3),
        |s| s.cost.numa_remote_factor = 1.0,
        |s| s.cost.smt_migration_cost = ms(2),
    ];

    /// Every `Machine` × every `Policy`, a server, a competitor and a
    /// traced cell, then [`full_cell`] and each of [`KEY_EDITS`].
    fn key_cells() -> Vec<Scenario> {
        use speedbal_workloads::ep;
        let app = ep().spmd(3, WaitMode::Yield, 0.05);
        let machines = [
            Machine::Tigerton,
            Machine::Barcelona,
            Machine::Nehalem,
            Machine::Uniform(4),
            asym(2, 2, 0.5),
            Machine::BigLittle4p8e,
            Machine::Turbo2p,
            Machine::Throttle,
        ];
        let policies = [
            Policy::Pinned,
            Policy::Load,
            Policy::Speed,
            Policy::SpeedWith(SpeedBalancerConfig::default()),
            Policy::Dwrr,
            Policy::Ule,
            Policy::UleTuned,
        ];
        let mut cells: Vec<Scenario> = machines
            .iter()
            .flat_map(|m| {
                policies
                    .iter()
                    .map(|p| Scenario::new(m.clone(), 0, p.clone(), app.clone()))
            })
            .collect();
        let web = speedbal_workloads::web(6, 4, 0.7, ms(150));
        cells.push(Scenario::server_only(
            Machine::Uniform(4),
            0,
            Policy::Speed,
            web,
        ));
        cells.push(
            Scenario::new(Machine::Uniform(4), 0, Policy::Load, app.clone())
                .competitors(vec![Competitor::CpuHog { core: 0 }]),
        );
        cells.push(Scenario::new(Machine::Uniform(2), 0, Policy::Speed, app).traced(true));
        // A separately built copy of the first cell: equal text, so the
        // test's equal direction runs too.
        cells.push(Scenario::new(
            Machine::Tigerton,
            0,
            Policy::Pinned,
            ep().spmd(3, WaitMode::Yield, 0.05),
        ));
        let base = full_cell();
        cells.push(base.clone());
        for edit in KEY_EDITS {
            let mut s = base.clone();
            edit(&mut s);
            assert_ne!(debug_key_material(&s), debug_key_material(&base));
            cells.push(s);
        }
        cells
    }

    #[test]
    fn cache_keys_are_equal_exactly_when_debug_strings_are() {
        let cells = key_cells();
        let keys: Vec<CacheKey> = cells.iter().map(scenario_cache_key).collect();
        let material: Vec<String> = cells.iter().map(debug_key_material).collect();
        for (i, (key, text)) in keys.iter().zip(&material).enumerate() {
            for (other_key, other_text) in keys.iter().zip(&material).skip(i + 1) {
                assert_eq!(key == other_key, text == other_text, "{text}\n{other_text}");
            }
        }
        let mut distinct = material.clone();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() < material.len());
    }

    /// Changing the key encoding orphans every cache file already on disk;
    /// these pins make that a deliberate act.
    #[test]
    fn golden_cache_keys() {
        use speedbal_workloads::ep;
        let app = ep().spmd(3, WaitMode::Yield, 0.05);
        let web = speedbal_workloads::web(6, 4, 0.7, ms(150));
        let mut cost_edit = full_cell();
        cost_edit.cost.smt_migration_cost = ms(2);
        let cells = [
            Scenario::new(Machine::Tigerton, 0, Policy::Pinned, app.clone()),
            Scenario::new(Machine::Uniform(2), 0, Policy::Speed, app).traced(true),
            Scenario::server_only(Machine::Uniform(4), 0, Policy::Speed, web),
            full_cell(),
            cost_edit,
        ];
        let keys = [
            0xf5a6_5836_d9b1_fe8e,
            0x9f0e_b649_952d_bffe,
            0xc309_c683_7595_243d,
            0x7364_cfb1_b4d4_7fa1,
            0x82db_7ea9_d316_4944,
        ];
        for (s, key) in cells.iter().zip(keys) {
            assert_eq!(scenario_cache_key(s), CacheKey(key), "{}", s.label());
        }
    }

    #[test]
    fn split_path_keeps_traced_cells_whole_and_identical() {
        use crate::scenario::{Machine, Policy, Scenario};
        use speedbal_apps::WaitMode;
        use speedbal_workloads::ep;
        let _g = global_guard();
        let mk = |traced: bool| {
            vec![Scenario::new(
                Machine::Uniform(2),
                0,
                Policy::Speed,
                ep().spmd(3, WaitMode::Block, 0.05),
            )
            .repeats(3)
            .traced(traced)]
        };
        set_jobs(Some(8));
        let traced = run_scenarios(mk(true));
        let plain = run_scenarios(mk(false));
        set_jobs(None);
        // Tracing is observational; the traced whole-cell job and the
        // untraced repeat-split jobs must produce identical numbers.
        assert_eq!(traced[0].completion.values, plain[0].completion.values);
        assert_eq!(traced[0].migrations.values, plain[0].migrations.values);
    }

    #[test]
    fn scenario_cache_key_separates_scenarios_and_tracks_fields() {
        use crate::scenario::{Machine, Policy, Scenario};
        use speedbal_apps::WaitMode;
        use speedbal_workloads::ep;
        let a = Scenario::new(
            Machine::Uniform(2),
            0,
            Policy::Speed,
            ep().spmd(3, WaitMode::Yield, 0.05),
        );
        let b = a.clone().seed(1);
        let c = a.clone().repeats(7);
        assert_eq!(scenario_cache_key(&a), scenario_cache_key(&a.clone()));
        assert_ne!(scenario_cache_key(&a), scenario_cache_key(&b));
        assert_ne!(scenario_cache_key(&a), scenario_cache_key(&c));
    }

    #[test]
    fn scenario_cost_orders_big_cells_first() {
        use crate::scenario::{Machine, Policy, Scenario};
        use speedbal_apps::WaitMode;
        use speedbal_workloads::ep;
        let small = Scenario::new(
            Machine::Uniform(2),
            0,
            Policy::Speed,
            ep().spmd(3, WaitMode::Yield, 0.02),
        )
        .repeats(1);
        let big = Scenario::new(
            Machine::Tigerton,
            0,
            Policy::Speed,
            ep().spmd(16, WaitMode::Yield, 0.5),
        )
        .repeats(10)
        .competitors(vec![Competitor::MakeJ {
            tasks: 8,
            jobs_per_task: 40,
        }]);
        assert!(scenario_cost(&big) > scenario_cost(&small));
    }
}
