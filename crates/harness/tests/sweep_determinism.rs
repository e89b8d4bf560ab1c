//! End-to-end determinism and cache contracts for the parallel sweep
//! executor, exercised through the public crate API the way the CLI and
//! the experiment suite use it.
//!
//! The executor's promise is that worker count is *unobservable* in the
//! results: every repeat derives its seed from the scenario, so a figure
//! rendered at `--jobs 4` must be byte-identical to `--jobs 1`, and a
//! cache hit must reproduce the simulator's output bit for bit.

use std::sync::{Mutex, MutexGuard, OnceLock};

use speedbal_apps::WaitMode;
use speedbal_harness::experiments::{fig2, Profile};
use speedbal_harness::{
    reset_sweep_stats, run_scenarios, scenario_cache_key, set_cache_dir, set_cache_enabled,
    set_jobs, sweep_stats, Machine, Policy, Scenario, ScenarioResult,
};
use speedbal_workloads::ep;

/// Serializes tests in this binary: they all mutate the process-global
/// jobs/cache knobs.
fn lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Restores the default executor configuration on drop, so a failing
/// test cannot poison its neighbours.
struct Defaults;

impl Drop for Defaults {
    fn drop(&mut self) {
        set_jobs(None);
        set_cache_enabled(false);
        set_cache_dir(None);
    }
}

fn tiny_battery() -> Vec<Scenario> {
    vec![
        Scenario::new(
            Machine::Uniform(2),
            0,
            Policy::Speed,
            ep().spmd(3, WaitMode::Block, 0.02),
        )
        .repeats(2),
        Scenario::new(
            Machine::Uniform(3),
            0,
            Policy::Load,
            ep().spmd(5, WaitMode::Yield, 0.02),
        )
        .repeats(2),
    ]
}

fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "speedbal-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn results_digest(results: &[ScenarioResult]) -> Vec<(Vec<u64>, Vec<u64>, usize)> {
    results
        .iter()
        .map(|r| {
            (
                r.completion.values.iter().map(|v| v.to_bits()).collect(),
                r.migrations.values.iter().map(|v| v.to_bits()).collect(),
                r.timeouts,
            )
        })
        .collect()
}

#[test]
fn fig2_render_is_byte_identical_across_job_counts() {
    let _g = lock();
    let _d = Defaults;
    let profile = Profile {
        scale: 0.02,
        repeats: 2,
    };

    set_cache_enabled(false);
    set_jobs(Some(1));
    let serial = fig2(profile).render();
    set_jobs(Some(4));
    let parallel = fig2(profile).render();

    assert_eq!(
        serial, parallel,
        "fig2 must render byte-identically at --jobs 1 and --jobs 4"
    );
}

#[test]
fn second_cached_sweep_hits_every_cell_and_reproduces_results() {
    let _g = lock();
    let _d = Defaults;
    let dir = temp_cache_dir("roundtrip");
    set_cache_dir(Some(dir.clone()));
    set_cache_enabled(true);
    set_jobs(Some(2));

    reset_sweep_stats();
    let cold = run_scenarios(tiny_battery());
    let cold_stats = sweep_stats();
    assert_eq!(cold_stats.cells, 2);
    assert_eq!(cold_stats.cache_hits, 0);
    assert_eq!(cold_stats.cache_misses, 2);

    reset_sweep_stats();
    let warm = run_scenarios(tiny_battery());
    let warm_stats = sweep_stats();
    assert_eq!(
        warm_stats.cache_hits, 2,
        "second run must be served entirely from the cache"
    );
    assert_eq!(warm_stats.cache_misses, 0);

    assert_eq!(
        results_digest(&cold),
        results_digest(&warm),
        "cache round-trip must preserve every f64 bit pattern"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_schema_cache_entries_are_recomputed() {
    let _g = lock();
    let _d = Defaults;
    let dir = temp_cache_dir("schema");
    set_cache_dir(Some(dir.clone()));
    set_cache_enabled(true);
    set_jobs(Some(1));

    let battery = tiny_battery();
    reset_sweep_stats();
    let fresh = run_scenarios(battery.clone());
    assert_eq!(sweep_stats().cache_misses, 2);

    // Simulate a cache written by an older build: rewind the schema
    // number inside each entry. The loader must treat them as misses.
    for s in &battery {
        let path = dir.join(scenario_cache_key(s).file_name());
        let text = std::fs::read_to_string(&path).expect("cache entry written");
        let stale = text.replacen("\"schema\":", "\"schema\": 0, \"was\":", 1);
        assert_ne!(stale, text, "schema field must exist in the envelope");
        std::fs::write(&path, stale).unwrap();
    }

    reset_sweep_stats();
    let recomputed = run_scenarios(battery);
    let stats = sweep_stats();
    assert_eq!(
        stats.cache_misses, 2,
        "stale-schema entries must not be served"
    );
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(results_digest(&fresh), results_digest(&recomputed));
    let _ = std::fs::remove_dir_all(&dir);
}
