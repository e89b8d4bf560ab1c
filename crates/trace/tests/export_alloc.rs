//! Chrome export allocates per export, never per record: exporting ten
//! times the records over the same tasks and cores performs exactly the
//! same allocations (the output buffer, the per-core interval table, one
//! escaped name per task, the set of named task tracks).
//!
//! Uses the counting allocator of `crates/sched/tests/alloc_free_traced.rs`.
//! Separate file because the allocation counter is process-global.

use speedbal_machine::{CoreId, DomainLevel};
use speedbal_sim::{SimDuration, SimTime};
use speedbal_trace::{
    export_chrome_to, ActivationOutcome, MigrationReason, TraceBuffer, TraceConfig, TraceEvent,
};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::io;
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

const TASKS: usize = 8;
const CORES: usize = 4;

/// `records` records cycling over every event kind a simulated run
/// produces, on the same tasks and cores whatever the length.
fn buffer(records: usize) -> TraceBuffer {
    let mut buf = TraceBuffer::with_config(TraceConfig {
        capacity: records,
        ..TraceConfig::default()
    });
    for t in 0..TASKS {
        buf.task_spawned(t, &format!("worker \"{t}\""), SimTime::ZERO);
    }
    for i in 0..records {
        let (task, core) = (i % TASKS, i % CORES);
        let event = match i % 10 {
            0 | 2 | 4 => TraceEvent::Dispatch { task },
            1 | 3 | 5 => TraceEvent::Desched {
                task: (i - 1) % TASKS,
                ran: SimDuration::from_nanos(1_234),
            },
            6 => TraceEvent::SpeedSample {
                task: Some(task),
                speed: 0.5,
            },
            7 => TraceEvent::BalancerActivation {
                policy: "SPEED",
                local: 1.0,
                global: f64::NAN,
                outcome: ActivationOutcome::Pulled,
                jitter: SimDuration::from_micros(3),
            },
            8 => TraceEvent::Migrate {
                task,
                from: CoreId((core + 1) % CORES),
                to: CoreId(core),
                tier: DomainLevel::Cache,
                reason: MigrationReason::NewIdle,
            },
            _ => TraceEvent::BarrierArrive {
                task,
                cond: i,
                episode: i as u64,
                arrived: 1,
                parties: TASKS,
            },
        };
        let core = if matches!(event, TraceEvent::Desched { .. }) {
            (i - 1) % CORES
        } else {
            core
        };
        buf.record(SimTime::from_nanos(1_000 * i as u64), CoreId(core), event);
    }
    buf
}

fn export_allocs(buf: &TraceBuffer) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    export_chrome_to(buf, io::sink()).expect("a sink cannot fail");
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn export_allocations_do_not_grow_with_records() {
    let (small, large) = (buffer(10_000), buffer(100_000));
    assert_eq!(small.len(), 10_000);
    assert_eq!(large.len(), 100_000);
    // Warm up any one-time lazy initialization outside the measurement.
    export_allocs(&small);
    let (a, b) = (export_allocs(&small), export_allocs(&large));
    assert_eq!(
        a, b,
        "export of 10k records allocated {a} times, of 100k records {b} times"
    );
}
