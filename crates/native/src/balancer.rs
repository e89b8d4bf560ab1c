//! The distributed balancing loop over real threads.
//!
//! Built entirely on the [`ProcSource`] abstraction, so the same loop runs
//! against the real `/proc` ([`RealProc`]) in production
//! and against the scripted [`MockProc`](crate::MockProc) in tests. The
//! loop is hardened against the failure modes a user-level balancer meets
//! in the wild:
//!
//! - **Churn**: threads that exit mid-scan ([`ProcError::Vanished`]) are
//!   forgotten immediately; new threads are adopted on the next scan.
//! - **Transient read failures** (torn stat lines, `EINTR`): bounded
//!   retry with exponential backoff ([`NativeConfig::max_read_retries`]).
//! - **Repeated failures**: a thread whose reads keep failing is
//!   *quarantined* — dropped from speed accounting for a cooldown — so one
//!   sick tid cannot stall the interval loop.
//! - **Permission failures** (`EPERM` from `sched_setaffinity`): counted
//!   toward quarantine, never retried in-place, never panic.
//! - **Graceful degradation**: a core whose threads cannot be measured
//!   holds its last published speed, a core left with no thread publishes
//!   the idle speed and pulls work back, and one that has never published
//!   ("no data", NaN) stays out of the global-speed average.
//!
//! Every balancing rule (thread and core speed, the global average, the
//! victim scan and the post-migration block) is the shared decision step
//! in [`speedbal_core::decide`], which the simulator's speed balancer
//! drives too. This file holds only the native balancer's own work.

use crate::error::ProcError;
use crate::source::{ProcSource, RealProc};
use crate::topo::NativeTopology;
use parking_lot::Mutex;
use speedbal_core::decide::{self, Block, CoreView, Decision};
use speedbal_machine::{CoreId, DomainLevel};
use speedbal_sim::{SimRng, SimTime};
use speedbal_trace::{
    ActivationOutcome, MigrationReason, ProcFaultKind, ProcOp, TraceBuffer, TraceConfig, TraceEvent,
};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the native balancer (defaults = the paper's settings,
/// plus fault-tolerance knobs that default to mild production values).
#[derive(Debug, Clone)]
pub struct NativeConfig {
    /// Balance interval `B` (100 ms in all the paper's experiments).
    pub interval: Duration,
    /// Pull threshold `T_s`.
    pub speed_threshold: f64,
    /// Cores involved in a migration are blocked for this many intervals.
    pub post_migration_block: u32,
    /// Keep migrations inside a NUMA node.
    pub block_numa: bool,
    /// Cores to manage; `None` = every online CPU.
    pub cores: Option<Vec<usize>>,
    /// Delay before first discovery ("a user tunable startup delay for the
    /// balancer to poll the /proc file system").
    pub startup_delay: Duration,
    /// Bounded retries for *transient* read failures (torn stat lines,
    /// `EINTR`); `Vanished`/`EPERM` are never retried.
    pub max_read_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Consecutive failed reads before a thread is quarantined.
    pub quarantine_after: u32,
    /// How long a quarantined thread is ignored before re-adoption is
    /// attempted.
    pub quarantine_cooldown: Duration,
}

impl Default for NativeConfig {
    fn default() -> Self {
        NativeConfig {
            interval: Duration::from_millis(100),
            speed_threshold: 0.9,
            post_migration_block: 2,
            block_numa: true,
            cores: None,
            startup_delay: Duration::from_millis(20),
            max_read_retries: 2,
            retry_backoff: Duration::from_millis(2),
            quarantine_after: 3,
            quarantine_cooldown: Duration::from_secs(1),
        }
    }
}

/// Counters published by a balancing run.
#[derive(Debug, Default)]
pub struct NativeStats {
    /// Balancer-thread activations (one per core per interval).
    pub activations: AtomicU64,
    /// Threads pulled between cores.
    pub migrations: AtomicU64,
    /// Distinct threads ever adopted.
    pub threads_seen: AtomicU64,
    /// Failed OS-facing operations (every attempt counts).
    pub proc_faults: AtomicU64,
    /// Transient failures that were retried with backoff.
    pub retries: AtomicU64,
    /// Threads quarantined after repeated read failures.
    pub quarantines: AtomicU64,
}

#[derive(Debug, Clone, Copy)]
struct ThreadSample {
    /// Last observed cumulative CPU time.
    exec: Duration,
    /// Source-clock timestamp of that observation.
    at: Duration,
    core: usize,
    migrations: u64,
    /// Consecutive failed reads (reset on success).
    failures: u32,
}

/// Managed threads plus the quarantine ledger, under one lock.
#[derive(Debug, Default)]
struct ThreadTable {
    /// tid -> last measurement + current pinned core + migration count.
    live: HashMap<i32, ThreadSample>,
    /// tid -> source-clock time at which re-adoption may be attempted.
    quarantined: HashMap<i32, Duration>,
    /// Failure streaks for tids that are not (yet) adopted — e.g. EPERM
    /// during initial placement.
    adopt_failures: HashMap<i32, u32>,
    /// Round-robin placement cursor for newly adopted threads. (A
    /// dedicated cursor, not `live.len() + i`: with an even core count
    /// that sum keeps constant parity while both terms grow, landing
    /// every new thread on the same core.)
    next_slot: usize,
    /// Post-migration block per managed core (index = position in
    /// cores). Kept under the table lock so that a pull checks and claims
    /// both of its cores atomically: two balancers waking at the same
    /// instant cannot both pull from one victim.
    blocks: Vec<Block>,
}

impl ThreadTable {
    /// The live threads pinned to `cpu`.
    fn on(&self, cpu: usize) -> impl Iterator<Item = (&i32, &ThreadSample)> {
        self.live.iter().filter(move |(_, s)| s.core == cpu)
    }
}

/// Speeds above this are clamped: /proc CPU times are tick-granular, so a
/// window's CPU time can overshoot its wall time.
const MAX_SPEED: f64 = 1.5;

/// Source-clock nanoseconds, the decision step's clock.
fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The native answers to the decision step's per-core questions, read
/// under the table lock.
struct NativeView<'a> {
    table: &'a ThreadTable,
    shared: &'a Shared,
    cores: &'a [usize],
    local_cpu: usize,
    /// `Some` when cross-node pulls are blocked.
    numa: Option<&'a NativeTopology>,
    now: u64,
    span: u64,
}

impl CoreView for NativeView<'_> {
    type Thread = i32;

    fn speed(&self, slot: usize) -> f64 {
        self.shared.speed_of(slot)
    }

    fn rejects(&mut self, slot: usize) -> bool {
        self.numa
            .is_some_and(|t| t.crosses_numa(self.cores[slot], self.local_cpu))
    }

    fn blocked(&self, slot: usize) -> bool {
        self.table.blocks[slot].active(self.now, self.span)
    }

    fn threads(&self, slot: usize) -> impl Iterator<Item = (u64, i32)> {
        let on = self.table.on(self.cores[slot]);
        on.map(|(tid, s)| (s.migrations, *tid))
    }
}

struct Shared {
    threads: Mutex<ThreadTable>,
    /// Published per-core speed, as f64 bits (index = position in cores).
    /// NaN = "no data yet": the core stays out of the global average.
    published: Vec<AtomicU64>,
    stats: NativeStats,
    /// Event recorder using the simulator's schema, timestamped with
    /// source-clock nanoseconds. `None` = tracing off.
    trace: Option<Mutex<TraceBuffer>>,
}

impl Shared {
    /// Fresh state for balancing `cores`: no threads, no published
    /// speeds, no blocks.
    fn new(cores: &[usize], trace: Option<TraceConfig>) -> Shared {
        Shared {
            threads: Mutex::new(ThreadTable {
                blocks: vec![Block::default(); cores.len()],
                ..ThreadTable::default()
            }),
            published: (0..cores.len())
                .map(|_| AtomicU64::new(f64::NAN.to_bits()))
                .collect(),
            stats: NativeStats::default(),
            trace: trace.map(|cfg| {
                let mut buf = TraceBuffer::with_config(cfg);
                buf.set_n_cores(cores.iter().max().map_or(0, |m| m + 1));
                Mutex::new(buf)
            }),
        }
    }

    fn trace_event(&self, now: Duration, cpu: usize, event: TraceEvent) {
        if let Some(buf) = &self.trace {
            buf.lock()
                .record(SimTime::from_nanos(nanos(now)), CoreId(cpu), event);
        }
    }

    fn trace_spawn(&self, now: Duration, tid: i32) {
        if let Some(buf) = &self.trace {
            let now = SimTime::from_nanos(nanos(now));
            buf.lock()
                .task_spawned(tid as usize, &format!("tid{tid}"), now);
        }
    }

    fn publish(&self, slot: usize, speed: f64) {
        self.published[slot].store(speed.to_bits(), Ordering::Relaxed);
    }

    fn speed_of(&self, slot: usize) -> f64 {
        f64::from_bits(self.published[slot].load(Ordering::Relaxed))
    }

    // One parameter per TraceEvent::ProcFault field, deliberately.
    #[allow(clippy::too_many_arguments)]
    fn fault(
        &self,
        now: Duration,
        cpu: usize,
        tid: Option<i32>,
        op: ProcOp,
        err: &ProcError,
        attempt: u32,
        retrying: bool,
    ) {
        self.stats.proc_faults.fetch_add(1, Ordering::Relaxed);
        if retrying {
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
        }
        let kind = match err {
            ProcError::Vanished => ProcFaultKind::Vanished,
            ProcError::PermissionDenied => ProcFaultKind::PermissionDenied,
            ProcError::Malformed(_) => ProcFaultKind::Malformed,
            ProcError::Io(_) => ProcFaultKind::Io,
        };
        self.trace_event(
            now,
            cpu,
            TraceEvent::ProcFault {
                task: tid.map(|t| t as usize),
                op,
                kind,
                attempt,
                retrying,
            },
        );
    }
}

/// A user-level speed balancer attached to one process.
pub struct NativeSpeedBalancer {
    pid: i32,
    cfg: NativeConfig,
    topo: NativeTopology,
    src: Arc<dyn ProcSource>,
}

/// Deregisters a balancer worker from the source's clock on every exit
/// path (normal loop exit, early return, panic).
struct WorkerGuard<'a>(&'a dyn ProcSource);

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.0.worker_stopped();
    }
}

impl NativeSpeedBalancer {
    /// Attaches to a running process through the real `/proc`, with the
    /// machine discovered from sysfs.
    pub fn attach(pid: i32, cfg: NativeConfig) -> io::Result<NativeSpeedBalancer> {
        let topo = NativeTopology::discover()?;
        NativeSpeedBalancer::attach_with_source(pid, cfg, Arc::new(RealProc::new()), topo)
            .map_err(io::Error::from)
    }

    /// Attaches through an arbitrary [`ProcSource`] — the seam that makes
    /// the whole balancing loop testable against
    /// [`MockProc`](crate::MockProc) with scripted fault injection.
    pub fn attach_with_source(
        pid: i32,
        cfg: NativeConfig,
        src: Arc<dyn ProcSource>,
        topo: NativeTopology,
    ) -> Result<NativeSpeedBalancer, ProcError> {
        if !src.process_alive(pid) {
            return Err(ProcError::Vanished);
        }
        Ok(NativeSpeedBalancer {
            pid,
            cfg,
            topo,
            src,
        })
    }

    fn managed_cores(&self) -> Vec<usize> {
        match &self.cfg.cores {
            Some(cs) if !cs.is_empty() => cs.clone(),
            _ => self.topo.cpus.clone(),
        }
    }

    /// Runs one OS call with bounded retry-with-backoff on transient
    /// failures, recording every failed attempt as a fault event.
    fn retrying<T>(
        &self,
        shared: &Shared,
        cpu: usize,
        tid: Option<i32>,
        op: ProcOp,
        call: impl Fn() -> Result<T, ProcError>,
    ) -> Result<T, ProcError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let e = match call() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let retrying = e.is_transient() && attempt <= self.cfg.max_read_retries;
            shared.fault(self.src.now(), cpu, tid, op, &e, attempt, retrying);
            if !retrying {
                return Err(e);
            }
            self.src
                .sleep(self.cfg.retry_backoff * (1 << (attempt - 1).min(8)));
        }
    }

    /// Reads one thread's CPU time, retrying transients.
    fn read_times(&self, shared: &Shared, cpu: usize, tid: i32) -> Result<Duration, ProcError> {
        let read = || self.src.thread_cpu_time(self.pid, tid);
        self.retrying(shared, cpu, Some(tid), ProcOp::ReadCpuTime, read)
            .map(|t| t.total())
    }

    /// Counts one failed operation against `tid` (the streak of a live
    /// thread, or the adoption streak of one not yet adopted) and moves it
    /// into quarantine, dropping it from accounting, once the streak
    /// reaches the threshold. Caller holds the table lock.
    fn strike(
        &self,
        shared: &Shared,
        table: &mut ThreadTable,
        now: Duration,
        cpu: usize,
        tid: i32,
    ) {
        let streak = match table.live.get_mut(&tid) {
            Some(s) => &mut s.failures,
            None => table.adopt_failures.entry(tid).or_insert(0),
        };
        *streak += 1;
        let failures = *streak;
        if failures < self.cfg.quarantine_after {
            return;
        }
        table.live.remove(&tid);
        table.adopt_failures.remove(&tid);
        table
            .quarantined
            .insert(tid, now + self.cfg.quarantine_cooldown);
        shared.stats.quarantines.fetch_add(1, Ordering::Relaxed);
        shared.trace_event(
            now,
            cpu,
            TraceEvent::Quarantined {
                task: tid as usize,
                failures,
            },
        );
    }

    /// Discovers (new) threads of the target and pins them round-robin —
    /// initial distribution "in such a way as to distribute the threads in
    /// round-robin fashion across the available cores". Returns how many
    /// threads were newly adopted. Tolerates churn: vanished tids are
    /// pruned, quarantined tids are skipped until their cooldown expires,
    /// and EPERM placements count toward quarantine instead of looping.
    fn adopt_threads(&self, shared: &Shared, cores: &[usize]) -> usize {
        let scan_cpu = cores[0];
        let list = || self.src.list_tids(self.pid);
        let Ok(tids) = self.retrying(shared, scan_cpu, None, ProcOp::ListThreads, list) else {
            return 0;
        };
        let now = self.src.now();
        // Prune and pick placements under the lock; the pinning and the
        // initial reads happen outside it, because the retry helpers sleep
        // and sleeping under the table lock would stall the other
        // balancer loops (fatally so on a lockstep virtual clock).
        let candidates: Vec<(i32, usize)> = {
            let mut table = shared.threads.lock();
            // Forget exited threads and expired or vanished quarantine
            // entries.
            table.live.retain(|tid, _| tids.contains(tid));
            table
                .quarantined
                .retain(|tid, until| tids.contains(tid) && now < *until);
            table.adopt_failures.retain(|tid, _| tids.contains(tid));
            let mut picked = Vec::new();
            for tid in tids.iter() {
                if table.live.contains_key(tid) || table.quarantined.contains_key(tid) {
                    continue;
                }
                let core = cores[table.next_slot % cores.len()];
                table.next_slot += 1;
                picked.push((*tid, core));
            }
            picked
        };
        let mut adopted = 0;
        for (tid, core) in candidates {
            if let Err(e) = self.src.pin_to_cpu(tid, core) {
                shared.fault(now, scan_cpu, Some(tid), ProcOp::SetAffinity, &e, 1, false);
                // A race with thread exit is not a failure streak.
                if e != ProcError::Vanished {
                    self.strike(shared, &mut shared.threads.lock(), now, scan_cpu, tid);
                }
                continue;
            }
            // Transient read failures here are retried by the helper; a
            // final failure just starts the sample at zero (the first
            // measurement window will correct it).
            let exec = self.read_times(shared, scan_cpu, tid).unwrap_or_default();
            let at = self.src.now();
            let mut table = shared.threads.lock();
            if table.live.contains_key(&tid) || table.quarantined.contains_key(&tid) {
                continue;
            }
            table.live.insert(
                tid,
                ThreadSample {
                    exec,
                    at,
                    core,
                    migrations: 0,
                    failures: 0,
                },
            );
            table.adopt_failures.remove(&tid);
            adopted += 1;
            shared.stats.threads_seen.fetch_add(1, Ordering::Relaxed);
            shared.trace_spawn(at, tid);
        }
        adopted
    }

    /// One activation of the balancer for `slot` (= index into `cores`):
    /// measure, publish, maybe pull one thread.
    fn balance_once(&self, shared: &Shared, cores: &[usize], slot: usize, jitter: Duration) {
        shared.stats.activations.fetch_add(1, Ordering::Relaxed);
        let local_cpu = cores[slot];
        let activation = |local: f64, global: f64, outcome: ActivationOutcome| {
            shared.trace_event(
                self.src.now(),
                local_cpu,
                TraceEvent::BalancerActivation {
                    policy: "SPEED",
                    local,
                    global,
                    outcome,
                    jitter: speedbal_sim::SimDuration::from_nanos(nanos(jitter)),
                },
            );
        };

        // Steps 1-2: measure local thread speeds over the elapsed window.
        // Reads happen *outside* the table lock — the retry helper sleeps
        // on transient failures, and sleeping under the lock would stall
        // the other balancer loops (fatally so on a lockstep virtual
        // clock). Churn between the snapshot and the apply phase is fine:
        // a tid that disappeared from the table in between is skipped.
        let tids: Vec<i32> = {
            let mut table = shared.threads.lock();
            // This activation counts toward the core's post-migration
            // block before anything consults the block.
            table.blocks[slot].tick();
            table.on(local_cpu).map(|(tid, _)| *tid).collect()
        };
        let read = |tid| (tid, self.read_times(shared, local_cpu, tid));
        let reads: Vec<_> = tids.into_iter().map(read).collect();
        let now = self.src.now();
        // The apply phase, the decision and the pull all run under the
        // table lock, which guards the block ledger.
        let mut table = shared.threads.lock();
        let mut local_speeds = Vec::new();
        for (tid, read) in reads {
            let Some(sample) = table.live.get_mut(&tid) else {
                continue;
            };
            let total = match read {
                Ok(total) => total,
                // Churn: threads that exited mid-scan are simply
                // forgotten — the next adopt pass re-lists the survivors.
                Err(ProcError::Vanished) => {
                    table.live.remove(&tid);
                    continue;
                }
                Err(_) => {
                    self.strike(shared, &mut table, now, local_cpu, tid);
                    continue;
                }
            };
            if sample.core != local_cpu {
                continue; // pulled away while we were reading
            }
            sample.failures = 0;
            let exec = nanos(total.saturating_sub(sample.exec));
            let wall = nanos(now.saturating_sub(sample.at));
            // A window shorter than half an interval (e.g. the thread just
            // migrated here) waits for the next activation.
            let min_wall = nanos(self.cfg.interval / 2);
            let Some(speed) = decide::thread_speed(exec, wall, min_wall, MAX_SPEED) else {
                continue;
            };
            sample.exec = total;
            sample.at = now;
            local_speeds.push(speed);
            shared.trace_event(
                now,
                local_cpu,
                TraceEvent::SpeedSample {
                    task: Some(tid as usize),
                    speed,
                },
            );
        }
        let threads = table.on(local_cpu).count();
        let s_local = decide::core_speed(threads, &local_speeds, shared.speed_of(slot), 1.0);
        shared.publish(slot, s_local);
        if s_local.is_finite() {
            shared.trace_event(
                now,
                local_cpu,
                TraceEvent::SpeedSample {
                    task: None,
                    speed: s_local,
                },
            );
        }

        // Steps 3-4 and the victim choice.
        let s_global =
            decide::global_speed((0..cores.len()).map(|k| shared.speed_of(k))).unwrap_or(f64::NAN);
        let mut view = NativeView {
            table: &table,
            shared,
            cores,
            local_cpu,
            numa: self.cfg.block_numa.then_some(&self.topo),
            now: nanos(now),
            span: nanos(self.cfg.interval * self.cfg.post_migration_block),
        };
        let decision = decide::decide(
            &mut view,
            slot,
            cores.len(),
            s_local,
            s_global,
            self.cfg.speed_threshold,
        );
        let Decision::Pull {
            slot: victim_slot,
            thread: tid,
            remote_speed,
        } = decision
        else {
            activation(s_local, s_global, decision.outcome());
            return;
        };
        let victim_cpu = cores[victim_slot];
        if let Err(e) = self.src.pin_to_cpu(tid, local_cpu) {
            shared.fault(now, local_cpu, Some(tid), ProcOp::SetAffinity, &e, 1, false);
            if e == ProcError::Vanished {
                table.live.remove(&tid);
            } else {
                self.strike(shared, &mut table, now, local_cpu, tid);
            }
            activation(s_local, s_global, ActivationOutcome::NoCandidate);
            return;
        }
        if let Some(s) = table.live.get_mut(&tid) {
            s.core = local_cpu;
            s.migrations += 1;
            s.at = now;
            if let Ok(t) = self.src.thread_cpu_time(self.pid, tid) {
                s.exec = t.total();
            }
        }
        for k in [slot, victim_slot] {
            table.blocks[k].claim(nanos(now), self.cfg.post_migration_block);
        }
        shared.stats.migrations.fetch_add(1, Ordering::Relaxed);
        // Traced under the lock, so no activation counted toward the new
        // block can precede the migration in the trace.
        shared.trace_event(
            now,
            local_cpu,
            TraceEvent::Migrate {
                task: tid as usize,
                from: CoreId(victim_cpu),
                to: CoreId(local_cpu),
                tier: if self.topo.crosses_numa(victim_cpu, local_cpu) {
                    DomainLevel::Numa
                } else {
                    DomainLevel::Cache
                },
                reason: MigrationReason::SpeedPull {
                    local_speed: s_local,
                    remote_speed,
                    global_speed: s_global,
                },
            },
        );
        activation(s_local, s_global, ActivationOutcome::Pulled);
    }

    /// Runs the balancer (one thread per managed core, as in the paper)
    /// until the target exits or `stop` is set. Returns the final stats.
    pub fn run(&self, stop: &AtomicBool) -> NativeStats {
        self.run_inner(stop, None).0
    }

    /// Like [`run`](Self::run), also recording an event trace in the
    /// simulator's schema — speed samples, balancer activations,
    /// migrations, faults and quarantines from the source's measurements,
    /// timestamped with source-clock nanoseconds.
    pub fn run_traced(&self, stop: &AtomicBool, cfg: TraceConfig) -> (NativeStats, TraceBuffer) {
        let (stats, trace) = self.run_inner(stop, Some(cfg));
        (stats, trace.expect("tracing was requested"))
    }

    fn run_inner(
        &self,
        stop: &AtomicBool,
        trace: Option<TraceConfig>,
    ) -> (NativeStats, Option<TraceBuffer>) {
        let cores = self.managed_cores();
        let shared = Shared::new(&cores, trace);
        self.src.sleep(self.cfg.startup_delay);
        self.adopt_threads(&shared, &cores);

        // Register every worker with the source's clock *before* any of
        // them starts: on a lockstep virtual clock this guarantees no
        // balancer loop can advance time until all of them are running
        // (see [`ProcSource::worker_started`]).
        for _ in 0..cores.len() {
            self.src.worker_started();
        }
        std::thread::scope(|scope| {
            for slot in 0..cores.len() {
                let shared = &shared;
                let cores = &cores;
                scope.spawn(move || {
                    let _worker = WorkerGuard(self.src.as_ref());
                    // The balancer thread lives on its local core. Real
                    // sources pin the loop thread itself; best-effort (a
                    // mock, or EPERM, just leaves it floating).
                    // SAFETY: trivial syscall.
                    let self_tid = unsafe { libc::gettid() };
                    let _ = self.src.pin_to_cpu(self_tid, cores[slot]);
                    // Jitter decorrelates the balancers; no determinism is
                    // needed here.
                    let mut rng =
                        SimRng::new(0x9E3779B97F4A7C15u64 ^ (slot as u64 + 1) ^ self_tid as u64);
                    let slice = Duration::from_millis(5);
                    while !stop.load(Ordering::Relaxed) && self.src.process_alive(self.pid) {
                        let base = self.cfg.interval.as_millis() as u64;
                        let jitter = rng.range_inclusive(0, base);
                        // Sleep in short slices so shutdown is prompt.
                        let deadline = self.src.now() + Duration::from_millis(base + jitter);
                        loop {
                            let now = self.src.now();
                            if now >= deadline {
                                break;
                            }
                            if stop.load(Ordering::Relaxed) || !self.src.process_alive(self.pid) {
                                return;
                            }
                            self.src.sleep(slice.min(deadline - now));
                        }
                        if slot == 0 {
                            // Dynamic parallelism: adopt newly spawned
                            // threads (a single scanner suffices).
                            self.adopt_threads(shared, cores);
                        }
                        self.balance_once(shared, cores, slot, Duration::from_millis(jitter));
                    }
                });
            }
        });
        let trace = shared.trace.map(|m| m.into_inner());
        (shared.stats, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::{Fault, GlobalFault, MockProc};
    use std::sync::Arc;

    #[test]
    fn attach_rejects_dead_pid() {
        assert!(NativeSpeedBalancer::attach(-1, NativeConfig::default()).is_err());
        let mock = Arc::new(MockProc::builder(7, 2).thread(1).build());
        let topo = mock.topology();
        assert!(matches!(
            NativeSpeedBalancer::attach_with_source(99, NativeConfig::default(), mock, topo),
            Err(ProcError::Vanished)
        ));
    }

    /// Attaches a balancer to a mock and runs it to completion (the mock
    /// process must be scripted to exit, which ends the run in virtual
    /// time — no wall-clock dependence).
    fn run_to_exit(mock: Arc<MockProc>, cfg: NativeConfig) -> NativeStats {
        let topo = mock.topology();
        let bal = NativeSpeedBalancer::attach_with_source(mock.pid(), cfg, mock.clone(), topo)
            .expect("attach");
        let stop = AtomicBool::new(false);
        bal.run(&stop)
    }

    fn quick_cfg() -> NativeConfig {
        NativeConfig {
            interval: Duration::from_millis(50),
            startup_delay: Duration::from_millis(10),
            ..NativeConfig::default()
        }
    }

    // Deterministic replacement for the old `#[ignore]`d wall-clock test
    // `balances_a_real_spinner_briefly`: 3 always-runnable threads on 2
    // cores is the paper's N mod M != 0 case — the balancer must adopt all
    // three and keep pulling from the slow core.
    #[test]
    fn balances_a_spinner_briefly() {
        let mock = Arc::new(
            MockProc::builder(100, 2)
                .thread(101)
                .thread(102)
                .thread(103)
                .process_exits_at(Duration::from_secs(3))
                .build(),
        );
        let stats = run_to_exit(mock.clone(), quick_cfg());
        assert!(
            stats.activations.load(Ordering::Relaxed) > 0,
            "balancer threads must have activated"
        );
        assert_eq!(
            stats.threads_seen.load(Ordering::Relaxed),
            3,
            "must have adopted all three spinner threads"
        );
        assert!(
            stats.migrations.load(Ordering::Relaxed) > 0,
            "3 threads on 2 cores must trigger speed pulls"
        );
        assert_eq!(stats.quarantines.load(Ordering::Relaxed), 0);
    }

    // Deterministic replacement for the old `#[ignore]`d
    // `run_returns_when_target_exits`: the run loop must notice the
    // scripted process death and return (in virtual time).
    #[test]
    fn run_returns_when_target_exits() {
        let mock = Arc::new(
            MockProc::builder(200, 2)
                .thread(201)
                .process_exits_at(Duration::from_millis(400))
                .build(),
        );
        let cfg = NativeConfig {
            interval: Duration::from_millis(30),
            startup_delay: Duration::ZERO,
            ..NativeConfig::default()
        };
        let _ = run_to_exit(mock.clone(), cfg);
        // run() returned — and only because the virtual clock crossed the
        // scripted death, never because of wall-clock luck.
        assert!(mock.virtual_now() >= Duration::from_millis(400));
        assert!(!mock.process_alive(200));
    }

    // Deterministic replacement for the old `#[ignore]`d
    // `traced_run_records_samples`.
    #[test]
    fn traced_run_records_samples() {
        let mock = Arc::new(
            MockProc::builder(300, 2)
                .thread(301)
                .thread(302)
                .thread(303)
                .process_exits_at(Duration::from_secs(2))
                .build(),
        );
        let topo = mock.topology();
        let bal =
            NativeSpeedBalancer::attach_with_source(300, quick_cfg(), mock, topo).expect("attach");
        let stop = AtomicBool::new(false);
        let (stats, trace) = bal.run_traced(&stop, TraceConfig::default());
        assert!(stats.activations.load(Ordering::Relaxed) > 0);
        assert!(trace.n_tasks() >= 1, "spinner adopted into the trace");
        assert!(
            trace.counters().balancer_activations > 0,
            "activations recorded"
        );
        assert!(trace.counters().speed_samples > 0, "speeds recorded");
    }

    #[test]
    fn transient_read_failures_are_retried_not_fatal() {
        let mock = Arc::new(
            MockProc::builder(400, 2)
                .thread(401)
                .thread(402)
                .process_exits_at(Duration::from_secs(1))
                .build(),
        );
        mock.inject(401, Fault::IoReads(2));
        mock.inject(402, Fault::MalformedReads(1));
        let stats = run_to_exit(mock.clone(), quick_cfg());
        assert_eq!(stats.threads_seen.load(Ordering::Relaxed), 2);
        assert!(stats.retries.load(Ordering::Relaxed) >= 1, "faults retried");
        assert_eq!(
            stats.quarantines.load(Ordering::Relaxed),
            0,
            "bounded retry must absorb short transients"
        );
    }

    #[test]
    fn persistent_read_failures_quarantine_the_thread() {
        let mock = Arc::new(
            MockProc::builder(500, 2)
                .thread(501)
                .thread(502)
                .process_exits_at(Duration::from_secs(3))
                .build(),
        );
        // 501's stat file is permanently torn: every read fails even after
        // retries, so its failure streak must cross quarantine_after.
        mock.inject(501, Fault::MalformedReads(u32::MAX));
        let stats = run_to_exit(mock.clone(), quick_cfg());
        assert!(
            stats.quarantines.load(Ordering::Relaxed) >= 1,
            "sick thread must be quarantined"
        );
        // The healthy thread keeps the run alive and measurable.
        assert!(stats.activations.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn eperm_affinity_degrades_gracefully() {
        let mock = Arc::new(
            MockProc::builder(600, 2)
                .thread(601)
                .thread(602)
                .thread(603)
                .process_exits_at(Duration::from_secs(2))
                .build(),
        );
        // Initial placement EPERMs a few times, then the balancer's own
        // loop threads also race the budget; it must neither panic nor
        // spin on the failing call.
        mock.inject_global(GlobalFault::EpermAllPins(4));
        let stats = run_to_exit(mock.clone(), quick_cfg());
        assert!(stats.proc_faults.load(Ordering::Relaxed) >= 1);
        assert!(
            stats.threads_seen.load(Ordering::Relaxed) >= 1,
            "later adopt passes succeed once EPERM script drains"
        );
    }

    #[test]
    fn fully_eperm_target_never_panics() {
        let mock = Arc::new(
            MockProc::builder(700, 2)
                .thread(701)
                .thread(702)
                .process_exits_at(Duration::from_secs(2))
                .build(),
        );
        mock.inject(701, Fault::EpermPinsForever);
        mock.inject(702, Fault::EpermPinsForever);
        let stats = run_to_exit(mock.clone(), quick_cfg());
        // Unpinnable threads end up quarantined; the run completes.
        assert!(stats.quarantines.load(Ordering::Relaxed) >= 1);
        assert_eq!(stats.threads_seen.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn victim_ties_resolve_in_ring_order_past_the_puller() {
        // Eight threads land two per core round-robin; then tid 2 exits,
        // leaving core 1 with one thread. Cores 0, 2 and 3 publish
        // exactly 0.5 and tie as victims of core 1's pull. The scan must
        // start just past the puller and take core 2: a low-index-first
        // scan hands every such tie to core 0.
        let mut b = MockProc::builder(900, 4);
        for tid in 1..=8 {
            b = b.thread(tid);
        }
        let mock = Arc::new(b.build());
        let cfg = quick_cfg();
        let bal = NativeSpeedBalancer::attach_with_source(
            mock.pid(),
            cfg.clone(),
            mock.clone(),
            mock.topology(),
        )
        .expect("attach");
        let cores = bal.managed_cores();
        let shared = Shared::new(&cores, None);
        assert_eq!(bal.adopt_threads(&shared, &cores), 8);
        mock.exit_thread(2);
        mock.sleep(cfg.interval);
        // The slow cores publish first, so core 1 sees the full average.
        for slot in [0, 2, 3, 1] {
            bal.balance_once(&shared, &cores, slot, Duration::ZERO);
        }
        assert_eq!(shared.stats.migrations.load(Ordering::Relaxed), 1);
        assert_eq!(mock.thread_cpu(3), Some(1), "core 2's first thread pulled");
        for (tid, cpu) in [(1, 0), (5, 0), (4, 3), (8, 3), (7, 2)] {
            assert_eq!(mock.thread_cpu(tid), Some(cpu), "tid {tid} stays put");
        }
    }

    #[test]
    fn victim_scan_skips_a_core_left_without_threads() {
        // Seven threads on four cores: cores 0-2 carry two each and publish
        // 0.5. Both of core 0's threads then exit and the adopt pass
        // forgets them, so core 0 keeps its stale 0.5 with nothing to pull.
        // Core 3 (1.0) must skip it inside the scan and pull from the next
        // core in ring order; a scan that stops at core 0 pulls nothing.
        let mut b = MockProc::builder(960, 4);
        for tid in 1..=7 {
            b = b.thread(tid);
        }
        let mock = Arc::new(b.build());
        let cfg = quick_cfg();
        let bal = NativeSpeedBalancer::attach_with_source(
            mock.pid(),
            cfg.clone(),
            mock.clone(),
            mock.topology(),
        )
        .expect("attach");
        let cores = bal.managed_cores();
        let shared = Shared::new(&cores, None);
        assert_eq!(bal.adopt_threads(&shared, &cores), 7);
        mock.sleep(cfg.interval);
        for slot in 0..3 {
            bal.balance_once(&shared, &cores, slot, Duration::ZERO);
        }
        mock.exit_thread(1);
        mock.exit_thread(5);
        assert_eq!(bal.adopt_threads(&shared, &cores), 0);
        bal.balance_once(&shared, &cores, 3, Duration::ZERO);
        assert_eq!(shared.stats.migrations.load(Ordering::Relaxed), 1);
        assert_eq!(mock.thread_cpu(2), Some(3), "core 1's first thread pulled");
    }

    #[test]
    fn blocked_candidates_report_blocked() {
        // Four threads on three cores: core 0 carries two (0.5). Core 1
        // pulls one of them, which blocks core 0. Core 2 then finds core
        // 0's published 0.5 its only sub-threshold candidate, skipped for
        // the block alone: the outcome is `Blocked`, as in the simulator.
        let mut b = MockProc::builder(970, 3);
        for tid in 1..=4 {
            b = b.thread(tid);
        }
        let mock = Arc::new(b.build());
        let cfg = quick_cfg();
        let bal = NativeSpeedBalancer::attach_with_source(
            mock.pid(),
            cfg.clone(),
            mock.clone(),
            mock.topology(),
        )
        .expect("attach");
        let cores = bal.managed_cores();
        let shared = Shared::new(&cores, Some(TraceConfig::default()));
        assert_eq!(bal.adopt_threads(&shared, &cores), 4);
        mock.sleep(cfg.interval);
        for slot in 0..3 {
            bal.balance_once(&shared, &cores, slot, Duration::ZERO);
        }
        assert_eq!(shared.stats.migrations.load(Ordering::Relaxed), 1);
        assert_eq!(mock.thread_cpu(1), Some(1), "core 1 pulled from core 0");
        let trace = shared.trace.as_ref().expect("traced").lock();
        let outcomes: Vec<_> = trace
            .records()
            .filter_map(|rec| match rec.event {
                TraceEvent::BalancerActivation { outcome, .. } => Some((rec.core.0, outcome)),
                _ => None,
            })
            .collect();
        assert_eq!(
            outcomes,
            [
                (0, ActivationOutcome::BelowAverage),
                (1, ActivationOutcome::Pulled),
                (2, ActivationOutcome::Blocked),
            ]
        );
    }

    #[test]
    fn emptied_core_pulls_work_back() {
        // Five threads on four cores: core 0 holds tids 1 and 5, core 1
        // only tid 2. Once tid 2 exits and the adopt pass forgets it, core
        // 1 has no managed thread and publishes the idle speed 1.0, so it
        // is faster than the average and pulls core 0's least-migrated
        // thread.
        let mut b = MockProc::builder(980, 4);
        for tid in 1..=5 {
            b = b.thread(tid);
        }
        let mock = Arc::new(b.build());
        let cfg = quick_cfg();
        let bal = NativeSpeedBalancer::attach_with_source(
            mock.pid(),
            cfg.clone(),
            mock.clone(),
            mock.topology(),
        )
        .expect("attach");
        let cores = bal.managed_cores();
        let shared = Shared::new(&cores, None);
        assert_eq!(bal.adopt_threads(&shared, &cores), 5);
        mock.exit_thread(2);
        assert_eq!(bal.adopt_threads(&shared, &cores), 0);
        mock.sleep(cfg.interval);
        for slot in [0, 1] {
            bal.balance_once(&shared, &cores, slot, Duration::ZERO);
        }
        assert_eq!(shared.stats.migrations.load(Ordering::Relaxed), 1);
        assert_eq!(mock.thread_cpu(1), Some(1), "core 0's tid 1 pulled");
        assert_eq!(mock.thread_cpu(5), Some(0), "tid 5 stays put");
    }

    #[test]
    fn post_migration_block_spans_own_activations() {
        // Seven threads on four cores keep SPEED pulling for the whole
        // run. A 2 ms interval makes the jitter 0..=2 ms, so a loop often
        // sleeps two full intervals between activations: exactly the gap
        // a nominal-time block alone lets a core act again after.
        let mut b = MockProc::builder(950, 4);
        for tid in 1..=7 {
            b = b.thread(tid);
        }
        let mock = Arc::new(b.process_exits_at(Duration::from_secs(2)).build());
        let cfg = NativeConfig {
            interval: Duration::from_millis(2),
            startup_delay: Duration::ZERO,
            ..NativeConfig::default()
        };
        let block = cfg.post_migration_block;
        let bal = NativeSpeedBalancer::attach_with_source(950, cfg, mock.clone(), mock.topology())
            .expect("attach");
        let stop = AtomicBool::new(false);
        let (_, trace) = bal.run_traced(&stop, TraceConfig::default());
        // Per core: own activations since its last pull involvement
        // (`None` before the first).
        let mut since: [Option<u32>; 4] = [None; 4];
        let mut pulls = 0;
        for rec in trace.records() {
            match rec.event {
                TraceEvent::Migrate { from, to, .. } => {
                    pulls += 1;
                    // The puller's record for the pulling activation
                    // itself follows the migration's.
                    for (core, pulling) in [(from.0, 0), (to.0, 1)] {
                        if let Some(n) = since[core] {
                            assert!(
                                n + pulling >= block,
                                "core {core} took part in a pull at {} after {} of its own \
                                 activations; the block needs {block}",
                                rec.time,
                                n + pulling
                            );
                        }
                        since[core] = Some(0);
                    }
                }
                TraceEvent::BalancerActivation { outcome, .. }
                    if outcome != ActivationOutcome::Pulled =>
                {
                    if let Some(n) = since[rec.core.0].as_mut() {
                        *n += 1;
                    }
                }
                _ => {}
            }
        }
        assert!(
            pulls >= 20,
            "only {pulls} pulls: the run must keep balancing"
        );
    }

    #[test]
    fn cores_emptied_by_exits_publish_idle_and_stay_quiet() {
        // Two threads on a 2-core machine; both exit mid-run. Their cores
        // then publish the idle speed 1.0, so neither is slower than the
        // average — observable as: no migrations after the exits, no
        // panics, and the run still terminates on process death.
        let mock = Arc::new(
            MockProc::builder(800, 2)
                .thread_spanning(801, Duration::ZERO, Some(Duration::from_millis(400)))
                .thread_spanning(802, Duration::ZERO, Some(Duration::from_millis(400)))
                .process_exits_at(Duration::from_secs(2))
                .build(),
        );
        let stats = run_to_exit(mock.clone(), quick_cfg());
        assert_eq!(stats.threads_seen.load(Ordering::Relaxed), 2);
        assert!(mock.virtual_now() >= Duration::from_secs(2));
        // No thread exists after 400ms, so there is nothing to pull; the
        // loop must still have kept activating until death.
        assert!(stats.activations.load(Ordering::Relaxed) > 0);
    }
}
