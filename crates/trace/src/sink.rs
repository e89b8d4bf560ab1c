//! The trace sink: a bounded ring of [`TraceRecord`](crate::TraceRecord)s
//! plus aggregates (counters, migration histograms, per-task
//! time-in-state, per-core and per-task speed statistics) maintained
//! incrementally at record time, so summaries survive even when the ring
//! has wrapped.

pub use crate::compact::Records;
use crate::compact::Ring;
use crate::event::{MigrationReason, ProcFaultKind, RequestDropReason, TraceEvent};
use speedbal_machine::{CoreId, DomainLevel};
use speedbal_sim::{SimDuration, SimTime};

/// Sink tunables.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Maximum records retained; older records are dropped (and counted)
    /// once the ring is full. Aggregates keep covering dropped records.
    pub capacity: usize,
    /// Period of the built-in per-task / per-core speed sampler the
    /// simulator arms while tracing (the paper samples /proc every 100 ms).
    pub sample_interval: SimDuration,
    /// Fraction of *high-volume* records (context switches and speed
    /// samples — `Dispatch`, `Desched`, `SpeedSample`) retained in the
    /// ring. Everything else (migrations, barriers, faults, ...) is always
    /// kept, and aggregates always cover sampled-out records, so summaries
    /// stay exact. `1.0` (the default) disables sampling. The decision is
    /// a deterministic function of `sample_seed` and the record sequence,
    /// so two identical runs sample identically.
    pub sample_rate: f64,
    /// Seed for the deterministic sampling decision stream.
    pub sample_seed: u64,
    /// Same-instant ordering-policy tag of the traced run, rendered in
    /// the summary header. `None` (the default, and every FIFO run) adds
    /// nothing — committed FIFO summaries stay byte-identical.
    pub ordering_tag: Option<String>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 1 << 20,
            sample_interval: SimDuration::from_millis(100),
            sample_rate: 1.0,
            sample_seed: 0,
            ordering_tag: None,
        }
    }
}

/// Counts maintained for every recorded event (never dropped).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceCounters {
    /// Context switches in.
    pub dispatches: u64,
    /// Context switches out.
    pub descheds: u64,
    /// Forced reschedules by a higher-priority wakeup.
    pub preemptions: u64,
    /// Blocked tasks becoming runnable.
    pub wakes: u64,
    /// Tasks leaving the runnable set.
    pub sleeps: u64,
    /// Task exits.
    pub exits: u64,
    /// Cross-core moves (all reasons).
    pub migrations: u64,
    /// Histogram over [`DomainLevel::ALL`] (SMT, cache, socket, NUMA,
    /// system) of the topological distance of each migration.
    pub migrations_by_tier: [u64; DomainLevel::ALL.len()],
    /// Histogram over [`MigrationReason::ALL_LABELS`].
    pub migrations_by_reason: [u64; MigrationReason::ALL_LABELS.len()],
    /// Per-thread and per-core speed samples.
    pub speed_samples: u64,
    /// Balancer decision points (all outcomes).
    pub balancer_activations: u64,
    /// Threads reaching a barrier.
    pub barrier_arrivals: u64,
    /// Barrier episodes released.
    pub barrier_releases: u64,
    /// Failed OS-facing operations of the native balancer (every attempt
    /// counts, including ones that were retried).
    pub proc_faults: u64,
    /// Histogram over [`ProcFaultKind::ALL_LABELS`].
    pub proc_faults_by_kind: [u64; ProcFaultKind::ALL_LABELS.len()],
    /// Faults that were followed by a bounded backoff retry.
    pub proc_retries: u64,
    /// Threads quarantined after repeated read failures.
    pub quarantines: u64,
    /// Open-loop server requests admitted to the shared queue.
    pub request_arrivals: u64,
    /// Server subtask dispatches (queue pulls by workers).
    pub request_dispatches: u64,
    /// Server requests completed (all subtasks done).
    pub request_completions: u64,
    /// Server requests dropped instead of served (all reasons).
    pub request_drops: u64,
    /// Histogram over [`RequestDropReason::ALL_LABELS`].
    pub request_drops_by_reason: [u64; RequestDropReason::ALL_LABELS.len()],
    /// Frequency-ratio switches (DVFS steps / thermal-throttle
    /// transitions) applied from pre-generated schedules.
    pub freq_steps: u64,
}

/// Cumulative time a task spent in each scheduler state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateTimes {
    /// Time on a CPU.
    pub running: SimDuration,
    /// Time waiting on a run queue.
    pub runnable: SimDuration,
    /// Time blocked on a condition or timed sleep.
    pub blocked: SimDuration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LifeState {
    Running,
    Runnable,
    Blocked,
    Exited,
}

/// Streaming min/max/mean/variance (Welford) over a series of samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeriesStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl SeriesStats {
    /// Folds one sample into the running statistics.
    pub fn push(&mut self, x: f64) {
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest sample (0 if none).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (0 if none).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sample standard deviation (0 with fewer than two samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
}

fn tier_index(level: DomainLevel) -> usize {
    DomainLevel::ALL
        .iter()
        .position(|l| *l == level)
        .expect("DomainLevel::ALL is exhaustive")
}

/// The event sink. [`TraceBuffer::record`] applies each record at once:
/// it folds the record into the aggregates (counters, time-in-state, speed
/// series) and encodes it into the compact ring, so every reader sees
/// exact state.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    cfg: TraceConfig,
    /// Retained records, varint-encoded oldest-first (see [`compact`]):
    /// the ring is the sink's bandwidth hot spot, and the compact form
    /// cuts its traffic roughly tenfold versus storing
    /// [`TraceRecord`](crate::TraceRecord)s.
    ring: Ring,
    dropped: u64,
    /// High-volume records withheld from the ring by `sample_rate`.
    sampled_out: u64,
    /// xorshift64 state behind the sampling decision stream.
    sample_state: u64,
    counters: TraceCounters,
    n_cores: usize,
    task_names: Vec<String>,
    /// Per-task (state, since) for time-in-state accounting.
    life: Vec<Option<(LifeState, SimTime)>>,
    time_in_state: Vec<StateTimes>,
    /// Core-level speed/utilization samples (`SpeedSample { task: None }`).
    core_speed: Vec<SeriesStats>,
    /// Task-level speed samples (`SpeedSample { task: Some(_) }`).
    task_speed: Vec<SeriesStats>,
    /// End-to-end request latencies in milliseconds (`RequestComplete`).
    request_latency: SeriesStats,
    /// Request queueing delays in milliseconds (`RequestDispatch`).
    request_wait: SeriesStats,
    first_time: Option<SimTime>,
    last_time: SimTime,
}

impl TraceBuffer {
    /// An empty buffer with the default configuration.
    pub fn new() -> TraceBuffer {
        Self::with_config(TraceConfig::default())
    }

    /// An empty buffer with explicit tunables.
    pub fn with_config(cfg: TraceConfig) -> TraceBuffer {
        // SplitMix64 scramble so nearby seeds give unrelated streams; the
        // state must be non-zero for xorshift.
        let mut z = cfg.sample_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let sample_state = (z ^ (z >> 31)) | 1;
        TraceBuffer {
            cfg,
            sample_state,
            ..TraceBuffer::default()
        }
    }

    /// The sink's tunables.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Tells the sink how many cores the machine has (drives exporter
    /// track metadata).
    pub fn set_n_cores(&mut self, n: usize) {
        self.n_cores = self.n_cores.max(n);
        if self.core_speed.len() < n {
            self.core_speed.resize_with(n, SeriesStats::default);
        }
    }

    /// Highest core count this sink knows about.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Registers a task's name and starts its time-in-state clock (new
    /// tasks are runnable).
    pub fn task_spawned(&mut self, task: usize, name: &str, now: SimTime) {
        self.ensure_task(task);
        self.task_names[task] = name.to_string();
        self.life[task] = Some((LifeState::Runnable, now));
    }

    /// The registered name, or a synthetic `t<N>` fallback.
    pub fn task_name(&self, task: usize) -> String {
        match self.task_names.get(task) {
            Some(n) if !n.is_empty() => n.clone(),
            _ => format!("t{task}"),
        }
    }

    fn ensure_task(&mut self, task: usize) {
        if self.task_names.len() <= task {
            self.task_names.resize(task + 1, String::new());
            self.life.resize(task + 1, None);
            self.time_in_state
                .resize_with(task + 1, StateTimes::default);
            self.task_speed.resize_with(task + 1, SeriesStats::default);
        }
    }

    fn transition(&mut self, task: usize, to: LifeState, now: SimTime) {
        self.ensure_task(task);
        let prev = self.life[task];
        if let Some((state, since)) = prev {
            let spent = now.saturating_since(since);
            let bucket = &mut self.time_in_state[task];
            match state {
                LifeState::Running => bucket.running += spent,
                LifeState::Runnable => bucket.runnable += spent,
                LifeState::Blocked => bucket.blocked += spent,
                LifeState::Exited => {}
            }
        }
        self.life[task] = Some((to, now));
    }

    /// Records one event: folds it into every aggregate and, unless
    /// sampled out, encodes it into the ring (evicting the oldest record
    /// once the ring is at capacity).
    pub fn record(&mut self, time: SimTime, core: CoreId, event: TraceEvent) {
        self.first_time.get_or_insert(time);
        self.last_time = self.last_time.max(time);
        self.set_n_cores(core.0 + 1);
        match &event {
            TraceEvent::Dispatch { task } => {
                self.counters.dispatches += 1;
                self.transition(*task, LifeState::Running, time);
            }
            TraceEvent::Desched { task, .. } => {
                self.counters.descheds += 1;
                self.transition(*task, LifeState::Runnable, time);
            }
            TraceEvent::Preempt { .. } => self.counters.preemptions += 1,
            TraceEvent::Wake { task } => {
                self.counters.wakes += 1;
                self.transition(*task, LifeState::Runnable, time);
            }
            TraceEvent::Sleep { task } => {
                self.counters.sleeps += 1;
                self.transition(*task, LifeState::Blocked, time);
            }
            TraceEvent::Exit { task } => {
                self.counters.exits += 1;
                self.transition(*task, LifeState::Exited, time);
            }
            TraceEvent::Migrate { tier, reason, .. } => {
                self.counters.migrations += 1;
                self.counters.migrations_by_tier[tier_index(*tier)] += 1;
                self.counters.migrations_by_reason[reason.index()] += 1;
            }
            TraceEvent::SpeedSample { task, speed } => {
                self.counters.speed_samples += 1;
                match task {
                    Some(t) => {
                        self.ensure_task(*t);
                        self.task_speed[*t].push(*speed);
                    }
                    None => {
                        self.core_speed[core.0].push(*speed);
                    }
                }
            }
            TraceEvent::BalancerActivation { .. } => self.counters.balancer_activations += 1,
            TraceEvent::BarrierArrive { .. } => self.counters.barrier_arrivals += 1,
            TraceEvent::BarrierRelease { .. } => self.counters.barrier_releases += 1,
            TraceEvent::ProcFault { kind, retrying, .. } => {
                self.counters.proc_faults += 1;
                self.counters.proc_faults_by_kind[kind.index()] += 1;
                if *retrying {
                    self.counters.proc_retries += 1;
                }
            }
            TraceEvent::Quarantined { .. } => self.counters.quarantines += 1,
            TraceEvent::RequestArrival { .. } => self.counters.request_arrivals += 1,
            TraceEvent::RequestDispatch { wait, .. } => {
                self.counters.request_dispatches += 1;
                self.request_wait.push(wait.as_millis_f64());
            }
            TraceEvent::RequestComplete { latency, .. } => {
                self.counters.request_completions += 1;
                self.request_latency.push(latency.as_millis_f64());
            }
            TraceEvent::RequestDrop { reason, .. } => {
                self.counters.request_drops += 1;
                self.counters.request_drops_by_reason[reason.index()] += 1;
            }
            TraceEvent::FreqStep { .. } => self.counters.freq_steps += 1,
        }
        if self.cfg.sample_rate < 1.0
            && matches!(
                event,
                TraceEvent::Dispatch { .. }
                    | TraceEvent::Desched { .. }
                    | TraceEvent::SpeedSample { .. }
            )
            && !self.sample_keep()
        {
            self.sampled_out += 1;
            return;
        }
        if self.ring.len() >= self.cfg.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push(time, core, &event);
    }

    /// One draw of the deterministic sampling stream: keep with
    /// probability `sample_rate`.
    fn sample_keep(&mut self) -> bool {
        let mut x = self.sample_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.sample_state = x;
        // 53 uniform mantissa bits → [0, 1).
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        u < self.cfg.sample_rate
    }

    /// Retained records, oldest first (decoded from the compact ring, so
    /// items are owned).
    pub fn records(&self) -> Records<'_> {
        self.ring.records()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True iff no records are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// Records evicted from the ring (aggregates still cover them).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// High-volume records withheld from the ring by
    /// [`TraceConfig::sample_rate`] (aggregates still cover them).
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Aggregate counters (cover dropped records too).
    pub fn counters(&self) -> &TraceCounters {
        &self.counters
    }

    /// Time-in-state aggregate for a task (zeroes if never seen).
    pub fn time_in_state(&self, task: usize) -> StateTimes {
        self.time_in_state.get(task).copied().unwrap_or_default()
    }

    /// Number of tasks ever seen by the sink.
    pub fn n_tasks(&self) -> usize {
        self.task_names.len()
    }

    /// Speed/utilization series statistics for a core.
    pub fn core_speed_stats(&self, core: CoreId) -> SeriesStats {
        self.core_speed.get(core.0).copied().unwrap_or_default()
    }

    /// Speed series statistics for a task.
    pub fn task_speed_stats(&self, task: usize) -> SeriesStats {
        self.task_speed.get(task).copied().unwrap_or_default()
    }

    /// End-to-end request latency statistics (milliseconds), covering
    /// every `RequestComplete` recorded, including dropped ring records.
    pub fn request_latency_stats(&self) -> SeriesStats {
        self.request_latency
    }

    /// Request queueing-delay statistics (milliseconds), one sample per
    /// subtask dispatch.
    pub fn request_wait_stats(&self) -> SeriesStats {
        self.request_wait
    }

    /// First recorded timestamp, if any event was recorded.
    pub fn start_time(&self) -> Option<SimTime> {
        self.first_time
    }

    /// Latest recorded timestamp.
    pub fn end_time(&self) -> SimTime {
        self.last_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let mut buf = TraceBuffer::with_config(TraceConfig {
            capacity: 4,
            ..TraceConfig::default()
        });
        for i in 0..10 {
            buf.record(t(i), CoreId(0), TraceEvent::Wake { task: 0 });
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 6);
        assert_eq!(buf.counters().wakes, 10, "aggregates cover drops");
        let first_retained = buf.records().next().unwrap().time;
        assert_eq!(first_retained, t(6));
    }

    #[test]
    fn time_in_state_accumulates() {
        let mut buf = TraceBuffer::new();
        buf.task_spawned(0, "a", t(0));
        buf.record(t(2), CoreId(0), TraceEvent::Dispatch { task: 0 });
        buf.record(
            t(7),
            CoreId(0),
            TraceEvent::Desched {
                task: 0,
                ran: SimDuration::from_millis(5),
            },
        );
        buf.record(t(7), CoreId(0), TraceEvent::Sleep { task: 0 });
        buf.record(t(10), CoreId(0), TraceEvent::Wake { task: 0 });
        buf.record(t(10), CoreId(0), TraceEvent::Dispatch { task: 0 });
        buf.record(t(11), CoreId(0), TraceEvent::Exit { task: 0 });
        let s = buf.time_in_state(0);
        assert_eq!(s.running, SimDuration::from_millis(6));
        assert_eq!(s.runnable, SimDuration::from_millis(2));
        assert_eq!(s.blocked, SimDuration::from_millis(3));
    }

    #[test]
    fn histograms_fill() {
        let mut buf = TraceBuffer::new();
        buf.record(
            t(1),
            CoreId(1),
            TraceEvent::Migrate {
                task: 0,
                from: CoreId(0),
                to: CoreId(1),
                tier: DomainLevel::Cache,
                reason: MigrationReason::NewIdle,
            },
        );
        buf.record(
            t(2),
            CoreId(2),
            TraceEvent::Migrate {
                task: 1,
                from: CoreId(0),
                to: CoreId(2),
                tier: DomainLevel::Numa,
                reason: MigrationReason::SpeedPull {
                    local_speed: 1.0,
                    remote_speed: 0.5,
                    global_speed: 0.75,
                },
            },
        );
        let c = buf.counters();
        assert_eq!(c.migrations, 2);
        assert_eq!(c.migrations_by_tier[tier_index(DomainLevel::Cache)], 1);
        assert_eq!(c.migrations_by_tier[tier_index(DomainLevel::Numa)], 1);
        assert_eq!(c.migrations_by_reason[MigrationReason::NewIdle.index()], 1);
        assert_eq!(c.migrations_by_reason[0], 1, "speed-pull is index 0");
    }

    #[test]
    fn series_stats_are_sane() {
        let mut s = SeriesStats::default();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.stddev() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn fault_counters_accumulate() {
        use crate::event::{ProcFaultKind, ProcOp};
        let mut buf = TraceBuffer::new();
        buf.record(
            t(1),
            CoreId(0),
            TraceEvent::ProcFault {
                task: Some(42),
                op: ProcOp::ReadCpuTime,
                kind: ProcFaultKind::Malformed,
                attempt: 1,
                retrying: true,
            },
        );
        buf.record(
            t(2),
            CoreId(0),
            TraceEvent::ProcFault {
                task: Some(42),
                op: ProcOp::SetAffinity,
                kind: ProcFaultKind::PermissionDenied,
                attempt: 1,
                retrying: false,
            },
        );
        buf.record(
            t(3),
            CoreId(0),
            TraceEvent::Quarantined {
                task: 42,
                failures: 3,
            },
        );
        let c = buf.counters();
        assert_eq!(c.proc_faults, 2);
        assert_eq!(c.proc_retries, 1);
        assert_eq!(c.quarantines, 1);
        assert_eq!(c.proc_faults_by_kind[ProcFaultKind::Malformed.index()], 1);
        assert_eq!(
            c.proc_faults_by_kind[ProcFaultKind::PermissionDenied.index()],
            1
        );
    }

    fn sampled_buffer(rate: f64, seed: u64) -> TraceBuffer {
        let mut buf = TraceBuffer::with_config(TraceConfig {
            sample_rate: rate,
            sample_seed: seed,
            ..TraceConfig::default()
        });
        for i in 0..200 {
            buf.record(t(i), CoreId(0), TraceEvent::Dispatch { task: 0 });
            buf.record(
                t(i),
                CoreId(0),
                TraceEvent::SpeedSample {
                    task: None,
                    speed: 0.5,
                },
            );
            // Never sampled: migrations and the like are always retained.
            buf.record(
                t(i),
                CoreId(0),
                TraceEvent::Migrate {
                    task: 0,
                    from: CoreId(0),
                    to: CoreId(1),
                    tier: DomainLevel::Cache,
                    reason: MigrationReason::NewIdle,
                },
            );
        }
        buf
    }

    #[test]
    fn sampling_drops_only_high_volume_records_and_keeps_aggregates() {
        let full = sampled_buffer(1.0, 7);
        let half = sampled_buffer(0.5, 7);
        assert_eq!(full.sampled_out(), 0);
        assert!(half.sampled_out() > 50, "~200 of 400 eligible should drop");
        assert!(half.len() < full.len());
        // Aggregates are exact either way.
        assert_eq!(full.counters(), half.counters());
        assert_eq!(half.counters().dispatches, 200);
        assert_eq!(half.counters().speed_samples, 200);
        // Low-volume records are all retained.
        let migrates = half
            .records()
            .filter(|r| matches!(r.event, TraceEvent::Migrate { .. }))
            .count();
        assert_eq!(migrates, 200);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = sampled_buffer(0.3, 42);
        let b = sampled_buffer(0.3, 42);
        let times = |buf: &TraceBuffer| -> Vec<(SimTime, bool)> {
            buf.records()
                .map(|r| (r.time, matches!(r.event, TraceEvent::Dispatch { .. })))
                .collect()
        };
        assert_eq!(times(&a), times(&b));
        let c = sampled_buffer(0.3, 43);
        assert_ne!(times(&a), times(&c), "different seed, different sample");
    }

    #[test]
    fn sampling_rate_zero_keeps_no_eligible_records() {
        let buf = sampled_buffer(0.0, 1);
        assert_eq!(buf.sampled_out(), 400);
        assert!(buf
            .records()
            .all(|r| matches!(r.event, TraceEvent::Migrate { .. })));
    }

    #[test]
    fn request_counters_and_series_accumulate() {
        use crate::event::RequestDropReason;
        let mut buf = TraceBuffer::new();
        buf.record(
            t(1),
            CoreId(0),
            TraceEvent::RequestArrival {
                request: 0,
                arrival: t(1),
                queued: 1,
            },
        );
        buf.record(
            t(2),
            CoreId(0),
            TraceEvent::RequestDispatch {
                request: 0,
                subtask: 0,
                wait: SimDuration::from_millis(1),
            },
        );
        buf.record(
            t(5),
            CoreId(0),
            TraceEvent::RequestComplete {
                request: 0,
                latency: SimDuration::from_millis(4),
            },
        );
        buf.record(
            t(6),
            CoreId(1),
            TraceEvent::RequestDrop {
                request: 1,
                reason: RequestDropReason::QueueFull,
            },
        );
        let c = buf.counters();
        assert_eq!(c.request_arrivals, 1);
        assert_eq!(c.request_dispatches, 1);
        assert_eq!(c.request_completions, 1);
        assert_eq!(c.request_drops, 1);
        assert_eq!(
            c.request_drops_by_reason[RequestDropReason::QueueFull.index()],
            1
        );
        assert_eq!(buf.request_latency_stats().count(), 1);
        assert!((buf.request_latency_stats().mean() - 4.0).abs() < 1e-12);
        assert!((buf.request_wait_stats().mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn task_names_fall_back() {
        let mut buf = TraceBuffer::new();
        buf.task_spawned(1, "worker", t(0));
        assert_eq!(buf.task_name(1), "worker");
        assert_eq!(buf.task_name(7), "t7");
    }
}
