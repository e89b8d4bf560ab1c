//! The tracing subsystem's two external guarantees:
//!
//! 1. **Observation does not perturb**: a traced run is bit-identical to
//!    the same run untraced — completion times and migration counts must
//!    match exactly (property test over random small scenarios).
//! 2. **Stable export**: the Chrome trace-event JSON emitted for the
//!    paper's 3-threads/2-cores running example, and for a hand-made
//!    buffer that reaches every exporter arm, matches a checked-in golden
//!    file byte for byte. Regenerate with
//!    `UPDATE_GOLDEN=1 cargo test --test trace` after intentional schema
//!    changes, and review the diff.

use proptest::prelude::*;
use speedbal::machine::DomainLevel;
use speedbal::prelude::*;
use speedbal::trace::{
    ActivationOutcome, MigrationReason, ProcFaultKind, ProcOp, RequestDropReason,
};

fn wait_strategy() -> impl Strategy<Value = WaitMode> {
    prop_oneof![
        Just(WaitMode::Spin),
        Just(WaitMode::Yield),
        Just(WaitMode::Block),
        Just(WaitMode::SpinThenBlock(SimDuration::from_millis(5))),
    ]
}

fn policy_strategy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Pinned),
        Just(Policy::Load),
        Just(Policy::Speed),
        Just(Policy::Dwrr),
        Just(Policy::Ule),
    ]
}

/// The paper's running example at a deterministic, test-sized scale:
/// EP-like (compute, one barrier per phase), 3 threads on 2 uniform cores.
fn three_on_two(policy: Policy) -> Scenario {
    let mut app = SpmdConfig::new(3, 6, SimDuration::from_millis(100));
    app.wait = WaitMode::Block;
    app.imbalance = 0.05;
    Scenario::new(Machine::Uniform(2), 0, policy, app).repeats(1)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    /// Tracing is strictly observational: for any small scenario, the
    /// traced repeat produces exactly the numbers of the untraced one.
    #[test]
    fn traced_run_is_identical_to_untraced(
        cores in 2usize..5,
        threads in 2usize..7,
        phases in 2u64..6,
        work_ms in 5u64..40,
        wait in wait_strategy(),
        policy in policy_strategy(),
        seed in 0u64..=u64::MAX,
    ) {
        let mut app = SpmdConfig::new(threads, phases, SimDuration::from_millis(work_ms));
        app.wait = wait;
        app.imbalance = 0.03;
        let s = Scenario::new(Machine::Uniform(cores), 0, policy, app)
            .repeats(1)
            .seed(seed);
        let plain = run_repeat(&s, 0, false);
        let traced = run_repeat(&s, 0, true);
        prop_assert_eq!(plain.completion_secs, traced.completion_secs);
        prop_assert_eq!(plain.migrations, traced.migrations);
        prop_assert_eq!(plain.timed_out, traced.timed_out);
        prop_assert!(plain.trace.is_none());
        let buf = traced.trace.expect("traced repeat returns a buffer");
        prop_assert!(buf.counters().dispatches > 0);
    }
}

/// Compares `json` with `tests/golden/<name>` (or rewrites the file when
/// `UPDATE_GOLDEN` is set).
fn assert_golden(name: &str, json: &str) {
    let golden_path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, json).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file present; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        json, golden,
        "Chrome export of {name} changed; if intentional, UPDATE_GOLDEN=1 cargo test --test trace"
    );
}

#[test]
fn chrome_export_matches_golden_file() {
    let out = run_repeat(&three_on_two(Policy::Speed), 0, true);
    assert_golden(
        "trace_3x2.json",
        &export_chrome(&out.trace.expect("traced")),
    );
}

/// A hand-made buffer that reaches every arm of the Chrome exporter: all
/// 18 event kinds (both speed-sample forms), task names that need JSON
/// escaping, ids the sink never registered, NaN and infinite floats, a
/// deschedule that does not match its core's running task, a trailing
/// open interval, and stamps at and above 2^51 ns (where microsecond
/// stamps stop being exact in `f64`).
fn all_events_buffer() -> TraceBuffer {
    let ns = SimTime::from_nanos;
    let dur = SimDuration::from_nanos;
    let (c0, c1, c2) = (CoreId(0), CoreId(1), CoreId(2));
    let mut buf = TraceBuffer::new();
    buf.set_n_cores(3);
    buf.task_spawned(0, "plain", SimTime::ZERO);
    buf.task_spawned(1, "quote\"back\\slash", SimTime::ZERO);
    buf.task_spawned(2, "nl\ntab\tctl\u{1}end", SimTime::ZERO);
    buf.task_spawned(
        3,
        "\u{fc}n\u{ef}c\u{f8}d\u{e9} \u{3bb}\u{2192}\u{1f600}",
        SimTime::ZERO,
    );
    // Tasks 4 and 5 stay unnamed; 40-42 are never registered at all.
    buf.task_spawned(6, "w6", SimTime::ZERO);
    let pull = MigrationReason::SpeedPull {
        local_speed: 1.0,
        remote_speed: 0.5,
        global_speed: f64::NAN,
    };
    let records = [
        (ns(0), c0, TraceEvent::Dispatch { task: 0 }),
        (ns(1_234), c1, TraceEvent::Dispatch { task: 1 }),
        (ns(5_005), c0, TraceEvent::Preempt { task: 0, by: 41 }),
        (
            ns(5_005),
            c0,
            TraceEvent::Desched {
                task: 0,
                ran: dur(5_005),
            },
        ),
        (ns(5_050), c0, TraceEvent::Dispatch { task: 2 }),
        // Nothing runs on core 2, and core 1 runs task 1, not 2: neither
        // deschedule closes an interval.
        (
            ns(6_000),
            c2,
            TraceEvent::Desched {
                task: 3,
                ran: dur(1),
            },
        ),
        (
            ns(7_000),
            c1,
            TraceEvent::Desched {
                task: 2,
                ran: dur(1),
            },
        ),
        (ns(8_001), c2, TraceEvent::Wake { task: 3 }),
        (ns(8_010), c2, TraceEvent::Sleep { task: 4 }),
        (ns(8_100), c2, TraceEvent::Exit { task: 5 }),
        (
            ns(9_999),
            c1,
            TraceEvent::Migrate {
                task: 42,
                from: c2,
                to: c1,
                tier: DomainLevel::Numa,
                reason: pull,
            },
        ),
        (
            ns(10_000),
            c0,
            TraceEvent::Migrate {
                task: 3,
                from: c1,
                to: c0,
                tier: DomainLevel::Cache,
                reason: MigrationReason::LoadBalance {
                    level: DomainLevel::Socket,
                },
            },
        ),
        (
            ns(11_000),
            c0,
            TraceEvent::SpeedSample {
                task: Some(3),
                speed: 0.75,
            },
        ),
        (
            ns(11_000),
            c0,
            TraceEvent::SpeedSample {
                task: Some(3),
                speed: f64::NAN,
            },
        ),
        (
            ns(11_000),
            c1,
            TraceEvent::SpeedSample {
                task: Some(1),
                speed: f64::INFINITY,
            },
        ),
        (
            ns(11_000),
            c1,
            TraceEvent::SpeedSample {
                task: None,
                speed: f64::NEG_INFINITY,
            },
        ),
        (
            ns(11_000),
            c2,
            TraceEvent::SpeedSample {
                task: None,
                speed: 1.0 / 3.0,
            },
        ),
        (ns(12_345), c2, TraceEvent::FreqStep { ratio: 0.6 }),
        (ns(12_346), c2, TraceEvent::FreqStep { ratio: f64::NAN }),
        (
            ns(13_000),
            c0,
            TraceEvent::BalancerActivation {
                policy: "SPEED",
                local: 1.25,
                global: f64::NAN,
                outcome: ActivationOutcome::NoCandidate,
                jitter: dur(3_250_001),
            },
        ),
        (
            ns(13_001),
            c1,
            TraceEvent::BalancerActivation {
                policy: "LOAD",
                local: f64::INFINITY,
                global: -0.5,
                outcome: ActivationOutcome::Balanced,
                jitter: SimDuration::ZERO,
            },
        ),
        (
            ns(14_000),
            c0,
            TraceEvent::BarrierArrive {
                task: 2,
                cond: 9,
                episode: 0,
                arrived: 1,
                parties: 2,
            },
        ),
        (
            ns(14_500),
            c1,
            TraceEvent::BarrierArrive {
                task: 40,
                cond: 9,
                episode: 0,
                arrived: 2,
                parties: 2,
            },
        ),
        (
            ns(14_500),
            c1,
            TraceEvent::BarrierRelease {
                task: 40,
                cond: 9,
                episode: 0,
            },
        ),
        (
            ns(15_000),
            c0,
            TraceEvent::ProcFault {
                task: Some(1),
                op: ProcOp::SetAffinity,
                kind: ProcFaultKind::PermissionDenied,
                attempt: 2,
                retrying: false,
            },
        ),
        (
            ns(15_001),
            c0,
            TraceEvent::ProcFault {
                task: None,
                op: ProcOp::ListThreads,
                kind: ProcFaultKind::Io,
                attempt: 1,
                retrying: true,
            },
        ),
        (
            ns(15_002),
            c0,
            TraceEvent::Quarantined {
                task: 40,
                failures: 3,
            },
        ),
        (
            ns(16_000),
            c2,
            TraceEvent::RequestArrival {
                request: 7,
                arrival: ns(15_999),
                queued: 3,
            },
        ),
        (
            ns(16_001),
            c2,
            TraceEvent::RequestDispatch {
                request: 7,
                subtask: 1,
                wait: dur(2),
            },
        ),
        (
            ns(16_002),
            c2,
            TraceEvent::RequestComplete {
                request: 7,
                latency: dur(12_000_003),
            },
        ),
        (
            ns(16_003),
            c1,
            TraceEvent::RequestDrop {
                request: 8,
                reason: RequestDropReason::QueueFull,
            },
        ),
        (
            ns(16_004),
            c1,
            TraceEvent::RequestDrop {
                request: 9,
                reason: RequestDropReason::ShedTimeout,
            },
        ),
        // Stamps at 2^51 ns and beyond; the arrival sits past 2^53, where
        // integer and f64 microseconds disagree.
        (ns(1 << 51), c2, TraceEvent::Dispatch { task: 6 }),
        (
            ns((1 << 51) + 123_456_789),
            c2,
            TraceEvent::RequestArrival {
                request: 10,
                arrival: ns((1 << 60) + 1),
                queued: 0,
            },
        ),
    ];
    for (time, core, event) in records {
        buf.record(time, core, event);
    }
    buf
}

#[test]
fn chrome_export_covers_every_event_kind() {
    assert_golden(
        "trace_all_events.json",
        &export_chrome(&all_events_buffer()),
    );
}

/// The acceptance shape of the tentpole: both SPEED and LOAD traces of the
/// 3-on-2 example contain migration, speed-sample and barrier events.
#[test]
fn three_on_two_traces_cover_the_schema() {
    for policy in [Policy::Speed, Policy::Load] {
        let label = policy.label();
        let out = run_repeat(&three_on_two(policy), 0, true);
        let buf = out.trace.expect("traced");
        let c = buf.counters();
        assert!(c.migrations > 0, "{label}: expected migrations");
        assert!(c.speed_samples > 0, "{label}: expected speed samples");
        assert!(c.barrier_arrivals > 0, "{label}: expected barrier arrivals");
        assert!(c.barrier_releases > 0, "{label}: expected barrier releases");
        let json = export_chrome(&buf);
        for needle in ["\"migration\"", "\"speed ", "\"barrier\""] {
            assert!(json.contains(needle), "{label}: export misses {needle}");
        }
    }
}
