//! Determinism suite for the open-loop server workload: the `serve`
//! artifact must render byte-identically at any `--jobs` setting, with
//! tracing on or off, and through a cache round-trip — the same contract
//! `crates/check/tests/parallel_determinism.rs` pins for the Lemma grid.

use speedbal_harness::experiments::{serve_mixed, serve_offered_load, Profile};
use speedbal_harness::{
    run_scenario, run_scenario_with_traces, run_scenarios, scenario_cache_key, set_cache_dir,
    set_cache_enabled, set_jobs, Machine, Policy, Scenario,
};
use speedbal_sim::SimDuration;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that mutate the harness's process-wide knobs (jobs
/// budget, cache switch/dir).
fn global_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny() -> Profile {
    Profile {
        scale: 0.02,
        repeats: 2,
    }
}

fn web_scenario() -> Scenario {
    let cfg = speedbal_workloads::web(6, 4, 0.7, SimDuration::from_millis(150));
    Scenario::server_only(Machine::Uniform(4), 0, Policy::Speed, cfg).repeats(2)
}

#[test]
fn serve_tables_are_identical_across_job_counts() {
    let _g = global_guard();
    let p = tiny();
    set_jobs(Some(1));
    let serial = (serve_offered_load(p).render(), serve_mixed(p).render());
    set_jobs(Some(4));
    let parallel = (serve_offered_load(p).render(), serve_mixed(p).render());
    set_jobs(None);
    assert_eq!(
        serial.0, parallel.0,
        "offered-load sweep must not depend on --jobs"
    );
    assert_eq!(
        serial.1, parallel.1,
        "mixed-tenancy table must not depend on --jobs"
    );
}

#[test]
fn traced_server_run_matches_untraced() {
    let _g = global_guard();
    let plain = web_scenario();
    let traced = plain.clone().traced(true);
    let (pr, _) = run_scenario_with_traces(&plain);
    let (tr, tt) = run_scenario_with_traces(&traced);
    let (ps, ts) = (pr.server.unwrap(), tr.server.unwrap());
    assert_eq!(ps.p50_ms.values, ts.p50_ms.values);
    assert_eq!(ps.p99_ms.values, ts.p99_ms.values);
    assert_eq!(ps.p999_ms.values, ts.p999_ms.values);
    assert_eq!(ps.queue_mean_ms.values, ts.queue_mean_ms.values);
    assert_eq!(ps.completed.values, ts.completed.values);
    assert_eq!(pr.completion.values, tr.completion.values);
    // ... and the trace really observed the request lifecycle.
    let buf = tt[0].as_ref().expect("traced repeat yields a buffer");
    let c = buf.counters();
    assert!(c.request_arrivals > 0);
    assert_eq!(c.request_completions, ps.completed.values[0] as u64);
}

#[test]
fn server_results_roundtrip_through_the_cache_bit_for_bit() {
    let _g = global_guard();
    let dir = std::env::temp_dir().join(format!(
        "speedbal-server-determinism-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let s = web_scenario();
    let fresh = run_scenario(&s);

    set_cache_dir(Some(dir.clone()));
    set_cache_enabled(true);
    // First sweep populates the cache, second answers from it.
    let miss = run_scenarios(vec![s.clone()]).remove(0);
    let hit = run_scenarios(vec![s.clone()]).remove(0);
    set_cache_enabled(false);
    set_cache_dir(None);

    let key = scenario_cache_key(&s);
    assert!(
        dir.join(key.file_name()).exists(),
        "server cell must persist under its content hash"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (label, got) in [("miss", &miss), ("hit", &hit)] {
        assert_eq!(
            bits(&got.completion.values),
            bits(&fresh.completion.values),
            "{label}: completion"
        );
        let (a, b) = (got.server.as_ref().unwrap(), fresh.server.as_ref().unwrap());
        assert_eq!(
            bits(&a.p50_ms.values),
            bits(&b.p50_ms.values),
            "{label}: p50"
        );
        assert_eq!(
            bits(&a.p99_ms.values),
            bits(&b.p99_ms.values),
            "{label}: p99"
        );
        assert_eq!(
            bits(&a.p999_ms.values),
            bits(&b.p999_ms.values),
            "{label}: p999"
        );
        assert_eq!(
            bits(&a.queue_mean_ms.values),
            bits(&b.queue_mean_ms.values),
            "{label}: queue wait"
        );
        assert_eq!(
            bits(&a.service_mean_ms.values),
            bits(&b.service_mean_ms.values),
            "{label}: service wall"
        );
        assert_eq!(a.completed.values, b.completed.values, "{label}: completed");
        assert_eq!(a.dropped.values, b.dropped.values, "{label}: dropped");
    }
    let _ = std::fs::remove_dir_all(dir);
}
