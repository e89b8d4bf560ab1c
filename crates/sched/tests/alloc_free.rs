//! Steady-state allocation test: once warm, the event loop's hot path —
//! pop event, account, requeue, dispatch, arm boundary, flush balancer
//! notifications — must not touch the heap at all (tracing disabled).
//!
//! A counting global allocator wraps the system allocator; the test runs a
//! warm-up phase (heap, run-queue and scratch-buffer capacities stabilize),
//! snapshots the allocation counter, then steps the simulation and asserts
//! the counter did not move. This file intentionally holds a single test:
//! the counter is process-global, and a concurrently running test in the
//! same binary would pollute it.

use speedbal_machine::{uniform, CostModel};
use speedbal_sched::{
    CondId, Directive, FnProgram, NullBalancer, Program, ProgramCtx, SchedConfig, SpawnSpec, System,
};
use speedbal_sim::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::RefCell;
use std::rc::Rc;
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

/// A cyclic yield barrier over `parties` programs: each computes 100 µs,
/// arrives, and yields until the last arriver sets the episode's
/// condition (the last arriver computes on at once).
fn yield_barrier_program(
    shared: Rc<RefCell<(usize, Option<CondId>)>>,
    parties: usize,
) -> impl Program {
    let mut arrive_next = false;
    FnProgram(move |ctx: &mut ProgramCtx<'_>| {
        arrive_next = !arrive_next;
        if arrive_next {
            return Directive::Compute(SimDuration::from_micros(100));
        }
        let mut b = shared.borrow_mut();
        let cond = *b.1.get_or_insert_with(|| ctx.alloc_cond());
        b.0 += 1;
        if b.0 < parties {
            return Directive::YieldUntil(cond);
        }
        *b = (0, None);
        ctx.set_cond(cond);
        arrive_next = true;
        Directive::Compute(SimDuration::from_micros(100))
    })
}

/// Warms `sys` up, then asserts that stepping it does not allocate.
fn assert_warm_steps_do_not_allocate(sys: &mut System, label: &str) {
    // Warm-up: let every internal buffer reach its steady-state capacity.
    for _ in 0..20_000 {
        assert!(sys.step(), "{label}: the workload must keep the queue busy");
    }

    // The runtime performs a one-shot pair of lazy-init allocations (48
    // then 96 bytes, observed at a wall-clock-random instant unrelated to
    // step(): the simulation is deterministic, yet the triggering step
    // index varies run to run). Measuring two independent windows filters
    // it out: the pair can land in at most one window, while a genuine
    // hot-path allocation recurs in every window.
    let mut deltas = Vec::new();
    for _window in 0..2 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..20_000 {
            assert!(sys.step());
        }
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        if delta == 0 {
            return;
        }
        deltas.push(delta);
    }
    panic!("{label}: steady-state step() allocated in both measured windows: {deltas:?}");
}

#[test]
fn steady_state_step_does_not_allocate() {
    // The runtime invariant checker re-derives system state the slow way
    // (fresh Vecs and maps at every hook) by design; this test measures
    // the production hot path, so it is vacuous under SPEEDBAL_CHECK=1.
    if std::env::var_os("SPEEDBAL_CHECK").is_some_and(|v| v == "1") {
        return;
    }
    // Multiple tasks per core so every step exercises the full cycle:
    // slice expiry, vruntime accounting, requeue, dispatch, boundary arm,
    // and the deferred balancer-notification flush.
    let mut sys = System::new(
        uniform(4),
        SchedConfig::default(),
        CostModel::free(),
        Box::new(NullBalancer::new()),
        7,
    );
    let g = sys.new_group();
    for i in 0..8 {
        let program = FnProgram(|_ctx: &mut _| Directive::Compute(SimDuration::from_micros(100)));
        sys.spawn(SpawnSpec::new(Box::new(program), format!("spin{i}"), g));
    }
    assert_warm_steps_do_not_allocate(&mut sys, "uniform(4), 8 spinners");

    // The widest lane the benchmark runs: 128 boundary slots, re-armed in
    // lockstep as a 192-thread yield barrier releases.
    let mut sys = System::new(
        uniform(128),
        SchedConfig::default(),
        CostModel::free(),
        Box::new(NullBalancer::new()),
        7,
    );
    let g = sys.new_group();
    let barrier = Rc::new(RefCell::new((0, None)));
    for i in 0..192 {
        let program = yield_barrier_program(barrier.clone(), 192);
        sys.spawn(SpawnSpec::new(Box::new(program), format!("bar{i}"), g));
    }
    assert_warm_steps_do_not_allocate(&mut sys, "uniform(128), 192-thread yield barrier");
}
