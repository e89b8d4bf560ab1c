//! Steady-state allocation test for the serving path: once warm, stepping
//! an open-loop web server under LOAD, DWRR or SPEED — wakeup placement,
//! timer rebalancing over the domain chain, idle pulls, round balancing
//! and accounting, speed measurement and the victim scan, and the
//! worker's own dispatch/complete bookkeeping — must not touch the heap
//! (tracing disabled).
//!
//! A counting global allocator wraps the system allocator. Each run steps
//! a warm-up stretch (queue and scratch capacities grow to their working
//! size), then counts allocations over the rest of the run. A handful of
//! buffer-growth reallocations when a queue reaches a new peak late in the
//! run are tolerated; a per-step allocation is not. This file holds a
//! single test because the counter is process-global, and a concurrently
//! running test in the same binary would pollute it.

use speedbal_apps::ServerApp;
use speedbal_balancers::{CompositeBalancer, Dwrr, LinuxLoadBalancer};
use speedbal_core::{SpeedBalancer, SpeedBalancerConfig};
use speedbal_machine::{uniform, CoreId, CostModel};
use speedbal_sched::{Balancer, GroupId, SchedConfig, System};
use speedbal_sim::{SimDuration, SimTime};
use speedbal_workloads::web;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to the system allocator; only adds counting.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WORKERS: usize = 16;
const CORES: usize = 8;
const WINDOW: SimDuration = SimDuration::from_secs(10);
const WARMUP_STEPS: u64 = 20_000;
/// At most one allocation per this many measured steps.
const STEPS_PER_ALLOC: u64 = 10_000;

/// SPEED managing the server's group on every core, composed with LOAD
/// for everything else (the harness's SPEED policy).
fn speed(seed: u64) -> Box<dyn Balancer> {
    let cores = (0..CORES).map(CoreId).collect();
    let speed = SpeedBalancer::with_config(SpeedBalancerConfig::default(), seed)
        .managing(vec![GroupId(0)], cores);
    Box::new(CompositeBalancer::new(
        vec![GroupId(0)],
        Box::new(speed),
        Box::new(LinuxLoadBalancer::new()),
    ))
}

/// Steps `web(16, 8, rho)` on `uniform(8)` to completion; returns the
/// steps and allocations counted after the warm-up.
fn measure(balancer: Box<dyn Balancer>, rho: f64, seed: u64) -> (u64, u64) {
    let mut sys = System::new(
        uniform(CORES),
        SchedConfig::default(),
        CostModel::default(),
        balancer,
        seed,
    );
    let g = sys.new_group();
    let _app = ServerApp::spawn(&mut sys, g, &web(WORKERS, CORES, rho, WINDOW), seed);
    let deadline = SimTime::ZERO + WINDOW + SimDuration::from_secs(5);
    let mut steps = 0u64;
    let mut before = 0u64;
    while sys.group_finished_at(g).is_none() {
        if steps == WARMUP_STEPS {
            before = ALLOCS.load(Ordering::Relaxed);
        }
        assert!(sys.now() <= deadline, "server run did not finish");
        assert!(sys.step(), "event queue drained before the server finished");
        steps += 1;
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        steps > 4 * WARMUP_STEPS,
        "run too short to measure: {steps}"
    );
    (steps - WARMUP_STEPS, allocs)
}

#[test]
fn warm_serving_steps_do_not_allocate_under_load_dwrr_and_speed() {
    // The runtime invariant checker re-derives system state the slow way
    // (fresh Vecs and maps at every hook) by design; this test measures
    // the production hot path, so it is vacuous under SPEEDBAL_CHECK=1.
    if std::env::var_os("SPEEDBAL_CHECK").is_some_and(|v| v == "1") {
        return;
    }
    let mut failures = Vec::new();
    for rho in [0.5, 0.9] {
        let policies: [(&str, Box<dyn Balancer>); 3] = [
            ("LOAD", Box::new(LinuxLoadBalancer::new())),
            ("DWRR", Box::new(Dwrr::new())),
            ("SPEED", speed(41)),
        ];
        for (name, balancer) in policies {
            let (steps, allocs) = measure(balancer, rho, 41);
            if allocs * STEPS_PER_ALLOC >= steps {
                failures.push(format!(
                    "{name} rho {rho}: {allocs} allocations in {steps} steps"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "warm serving steps allocated: {failures:?}"
    );
}
