//! Experiment harness: wires machines, workloads, competitors and
//! balancing policies together, runs repeats, and regenerates every table
//! and figure of the paper's evaluation (see `experiments`).

pub mod experiments;
pub mod faults;
pub mod perf;
pub mod scenario;
pub mod sweep;

pub use faults::{run_all as run_fault_scenarios, FaultReport, FaultScenario};
pub use scenario::{
    run_repeat, run_repeat_detailed, run_scenario, run_scenario_with_traces, set_trace_output,
    trace_file_path, Competitor, Machine, Policy, RepeatOutcome, Scenario, ScenarioResult,
    ServerStats,
};
pub use sweep::{
    cache_cap_bytes, cache_enabled, effective_jobs, evict_cache_to_cap, reset_sweep_stats,
    run_scenarios, run_sweep, scenario_cache_key, set_cache_cap_bytes, set_cache_dir,
    set_cache_enabled, set_jobs, sweep_stats, CacheKey, SweepJob, SweepStats,
    DEFAULT_CACHE_CAP_BYTES, SWEEP_SCHEMA_VERSION,
};
