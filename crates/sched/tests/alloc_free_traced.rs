//! Traced steady-state allocation test: the trace sink folds each record
//! into its aggregates and encodes it in place into the compact ring, so
//! once the ring has reached capacity and its byte buffer has been sized
//! (by the first compaction of evicted bytes), a traced step must be as
//! allocation-free as an untraced one.
//!
//! Mirrors `alloc_free.rs` (same counting allocator, same two-window
//! filter for the one-shot lazy-init pair) but runs with tracing enabled
//! and a small ring capacity so the ring hits its cap during warm-up and
//! steady-state eviction is pop-front/push-back with no reallocation.
//! Separate file because the allocation counter is process-global.

use speedbal_machine::{uniform, CostModel};
use speedbal_sched::{Directive, FnProgram, NullBalancer, SchedConfig, SpawnSpec, System};
use speedbal_sim::SimDuration;
use speedbal_trace::TraceConfig;
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

#[test]
fn traced_steady_state_step_does_not_allocate() {
    // The runtime invariant checker re-derives system state the slow way
    // at every hook by design; this test measures the production hot
    // path, so it is vacuous under SPEEDBAL_CHECK=1.
    if std::env::var_os("SPEEDBAL_CHECK").is_some_and(|v| v == "1") {
        return;
    }
    let mut sys = System::new(
        uniform(4),
        SchedConfig::default(),
        CostModel::free(),
        Box::new(NullBalancer::new()),
        7,
    );
    // Small ring: it reaches capacity during warm-up, after which eviction
    // is pop-front/push-back inside a full VecDeque. The default 1 MiB ring
    // would keep growing (and reallocating) for the whole measured window.
    sys.enable_tracing_with(TraceConfig {
        capacity: 1024,
        ..TraceConfig::default()
    });
    let g = sys.new_group();
    for i in 0..8 {
        let program = FnProgram(|_ctx: &mut _| Directive::Compute(SimDuration::from_micros(100)));
        sys.spawn(SpawnSpec::new(Box::new(program), format!("spin{i}"), g));
    }

    // Warm-up: fill the ring, compact it once, stabilize the heap.
    for _ in 0..20_000 {
        assert!(sys.step(), "compute loops must keep the queue busy");
    }

    // Two-window filter for the one-shot lazy-init allocation pair (see
    // alloc_free.rs): the pair lands in at most one window, while a real
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
    panic!("traced steady-state step() allocated in both measured windows: {deltas:?}");
}
