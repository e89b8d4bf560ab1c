//! Open-loop server-traffic application model: a worker-pool of threads
//! pulling requests from a shared queue.
//!
//! **Open loop** means the arrival process does not slow down when the
//! system falls behind — requests keep arriving on their schedule, queues
//! grow, and tail latency explodes near saturation. That is the regime
//! the ROADMAP's "serving heavy traffic" north star cares about, and it
//! is exactly where the paper's speed-balancing argument (don't count
//! waiters, measure how fast threads actually run) should pay off or
//! fall over.
//!
//! The whole request schedule — arrival instants and per-subtask nominal
//! service demands — is **pre-generated** from a dedicated [`SimRng`]
//! stream derived from the scenario seed, before any worker runs. The
//! offered load is therefore identical across policies, repeats are
//! reproducible bit-for-bit, and scheduling decisions can never feed
//! back into the workload itself. What *does* depend on scheduling is
//! everything the experiment measures: queueing delay, wall-clock
//! service time on possibly-slow cores, end-to-end latency, and typed
//! overload drops.
//!
//! Sharing between workers follows the barrier idiom: the simulator is
//! single-threaded, so `Rc<RefCell<…>>` sharing is sound. The harness
//! extracts a plain [`ServerMetrics`] value before results cross
//! threads.

use serde::{Deserialize, Serialize};
use speedbal_metrics::LatencyHistogram;
use speedbal_sched::{
    Directive, GroupId, Program, ProgramCtx, RequestDropReason, SpawnSpec, System, TaskId,
    TraceEvent,
};
use speedbal_sim::{SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

const MB: u64 = 1 << 20;

/// When requests arrive (all rates are per second of simulated time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate.
    Poisson {
        /// Mean arrival rate (requests per second).
        rate_per_sec: f64,
    },
    /// Markov-modulated Poisson process: a two-state burst model that
    /// alternates between a calm and a burst rate with exponentially
    /// distributed dwell times. The classic "bursty traffic" stand-in.
    Mmpp {
        /// Arrival rate in the calm state.
        calm_rate: f64,
        /// Arrival rate in the burst state.
        burst_rate: f64,
        /// Mean dwell time in the calm state.
        mean_calm: SimDuration,
        /// Mean dwell time in the burst state.
        mean_burst: SimDuration,
    },
    /// Piecewise-constant rate replay: segment `i` of length `step` uses
    /// `rates_per_sec[i % len]`, cycling until the window closes. Used
    /// for diurnal load curves.
    Replay {
        /// Rate of each segment, cycled.
        rates_per_sec: Vec<f64>,
        /// Length of one segment.
        step: SimDuration,
    },
}

impl ArrivalProcess {
    /// Time-averaged arrival rate (requests per second), the `λ` in the
    /// offered-load `ρ = λ·E[S]·K / cores`.
    pub fn mean_rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec,
            ArrivalProcess::Mmpp {
                calm_rate,
                burst_rate,
                mean_calm,
                mean_burst,
            } => {
                let c = mean_calm.as_secs_f64();
                let b = mean_burst.as_secs_f64();
                if c + b <= 0.0 {
                    0.0
                } else {
                    (calm_rate * c + burst_rate * b) / (c + b)
                }
            }
            ArrivalProcess::Replay { rates_per_sec, .. } => {
                if rates_per_sec.is_empty() {
                    0.0
                } else {
                    rates_per_sec.iter().sum::<f64>() / rates_per_sec.len() as f64
                }
            }
        }
    }
}

/// Per-request (per-subtask) nominal service-time distribution. Samples
/// are the *demand* handed to [`Directive::Compute`]; the wall-clock
/// service time additionally depends on how fast the core runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceDist {
    /// Memoryless service times (the M/M/c textbook case).
    Exponential {
        /// Mean service demand.
        mean: SimDuration,
    },
    /// Lognormal: `median · exp(sigma·N(0,1))`. Heavy right tail; the
    /// common fit for real RPC service times.
    LogNormal {
        /// Median (not mean) service demand.
        median: SimDuration,
        /// Shape parameter σ of the underlying normal.
        sigma: f64,
    },
    /// Two request classes: cheap with probability `1-slow_prob`,
    /// expensive otherwise (cache hit vs miss, read vs write).
    Bimodal {
        /// Demand of the fast class.
        fast: SimDuration,
        /// Demand of the slow class.
        slow: SimDuration,
        /// Probability of drawing the slow class.
        slow_prob: f64,
    },
}

impl ServiceDist {
    /// Draws one nominal service demand (always at least 1 ns so every
    /// subtask occupies its worker for a nonzero interval).
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let d = match self {
            ServiceDist::Exponential { mean } => {
                SimDuration::from_secs_f64(rng.exp(mean.as_secs_f64()))
            }
            ServiceDist::LogNormal { median, sigma } => {
                let factor = (sigma * rng.next_gauss()).exp();
                SimDuration::from_secs_f64(median.as_secs_f64() * factor)
            }
            ServiceDist::Bimodal {
                fast,
                slow,
                slow_prob,
            } => {
                if rng.chance(*slow_prob) {
                    *slow
                } else {
                    *fast
                }
            }
        };
        d.max(SimDuration::from_nanos(1))
    }

    /// Expected value of the distribution, the `E[S]` of offered load.
    pub fn mean(&self) -> SimDuration {
        match self {
            ServiceDist::Exponential { mean } => *mean,
            ServiceDist::LogNormal { median, sigma } => {
                SimDuration::from_secs_f64(median.as_secs_f64() * (sigma * sigma / 2.0).exp())
            }
            ServiceDist::Bimodal {
                fast,
                slow,
                slow_prob,
            } => SimDuration::from_secs_f64(
                fast.as_secs_f64() * (1.0 - slow_prob) + slow.as_secs_f64() * slow_prob,
            ),
        }
    }
}

/// Shape of one open-loop server workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Worker-pool threads pulling from the shared queue.
    pub workers: usize,
    /// The arrival process (open loop: never backs off).
    pub arrival: ArrivalProcess,
    /// Per-subtask nominal service-time distribution.
    pub service: ServiceDist,
    /// Subtasks each request fans out to (≥ 1). The request completes
    /// when the *last* subtask finishes (latency = max over subtasks).
    /// Each subtask draws `service/K` of demand, so the offered load is
    /// independent of the fan-out degree.
    pub fanout: usize,
    /// Shared-queue capacity in subtasks; a request whose whole fan-out
    /// does not fit at admission is dropped (`queue-full`). 0 = unbounded.
    pub queue_capacity: usize,
    /// Load shedding: a subtask pulled after its request waited longer
    /// than this is dropped instead of served (`shed-timeout`);
    /// [`SimDuration::ZERO`] disables shedding.
    pub shed_after: SimDuration,
    /// Open-loop generation window; arrivals stop after this (the run
    /// continues until the queue drains).
    pub window: SimDuration,
    /// Resident set size per worker (drives migration cost).
    pub rss_per_worker: u64,
    /// Memory-bandwidth intensity of request processing in [0, 1].
    pub mem_intensity: f64,
}

impl ServerConfig {
    /// A plain Poisson/worker-pool configuration: no fan-out, unbounded
    /// queue, no shedding, a small working set.
    pub fn poisson(
        workers: usize,
        rate_per_sec: f64,
        service: ServiceDist,
        window: SimDuration,
    ) -> ServerConfig {
        ServerConfig {
            workers,
            arrival: ArrivalProcess::Poisson { rate_per_sec },
            service,
            fanout: 1,
            queue_capacity: 0,
            shed_after: SimDuration::ZERO,
            window,
            rss_per_worker: 16 * MB,
            mem_intensity: 0.0,
        }
    }

    /// A Poisson configuration sized to an offered load `rho` against
    /// `cores` cores: `λ = rho·cores / E[S]` (fan-out neutral, see
    /// [`ServerConfig::offered_load`]).
    pub fn poisson_load(
        workers: usize,
        cores: usize,
        rho: f64,
        service: ServiceDist,
        window: SimDuration,
    ) -> ServerConfig {
        let mean_s = service.mean().as_secs_f64();
        assert!(mean_s > 0.0, "service distribution must have positive mean");
        let rate = rho * cores as f64 / mean_s;
        ServerConfig::poisson(workers, rate, service, window)
    }

    /// Sets the fan-out degree (subtasks per request).
    pub fn fanout(mut self, k: usize) -> ServerConfig {
        assert!(k >= 1, "fanout must be at least 1");
        // Keep the offered load invariant: the same total demand is
        // split over k subtasks.
        self.fanout = k;
        self
    }

    /// Bounds the shared queue (subtask slots; 0 = unbounded).
    pub fn queue_capacity(mut self, slots: usize) -> ServerConfig {
        self.queue_capacity = slots;
        self
    }

    /// Enables shed-timeout load shedding.
    pub fn shed_after(mut self, wait: SimDuration) -> ServerConfig {
        self.shed_after = wait;
        self
    }

    /// Replaces the arrival process.
    pub fn arrival(mut self, arrival: ArrivalProcess) -> ServerConfig {
        self.arrival = arrival;
        self
    }

    /// Sets the memory-bandwidth intensity of request processing.
    pub fn mem(mut self, intensity: f64) -> ServerConfig {
        self.mem_intensity = intensity.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-worker resident set size.
    pub fn rss(mut self, bytes: u64) -> ServerConfig {
        self.rss_per_worker = bytes;
        self
    }

    /// Offered load `ρ = λ·E[S] / cores` against `cores` cores.
    /// Independent of fan-out: a request's demand is split over its K
    /// subtasks, so the expected total demand per request stays `E[S]`.
    pub fn offered_load(&self, cores: usize) -> f64 {
        self.arrival.mean_rate() * self.service.mean().as_secs_f64() / cores as f64
    }

    /// Expected number of requests the window generates (a sizing hint
    /// for sweep cost estimation, not an exact count).
    pub fn expected_requests(&self) -> u64 {
        (self.arrival.mean_rate() * self.window.as_secs_f64()).ceil() as u64
    }
}

/// The pre-generated request schedule: when each request arrives and what
/// each of its subtasks costs, every demand in one flat vector.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSchedule {
    /// Nominal open-loop arrival time of each request, in order.
    pub arrivals: Vec<SimTime>,
    /// Nominal service demand of request `i`'s subtask `k`, at index
    /// `i * fanout + k`.
    pub demands: Vec<SimDuration>,
    /// Subtasks per request.
    pub fanout: usize,
}

impl RequestSchedule {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True iff the schedule holds no request.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The service demands of request `i`'s subtasks.
    pub fn subtasks(&self, i: usize) -> &[SimDuration] {
        &self.demands[i * self.fanout..(i + 1) * self.fanout]
    }
}

/// Salt for the request-schedule RNG stream, so the schedule is
/// independent of every other consumer of the scenario seed.
const SCHEDULE_SALT: u64 = 0x5345_5256_u64; // "SERV"

/// Pre-generates the full request schedule (arrival instants plus all
/// subtask demands) for `cfg` from `seed`. Pure function of its inputs:
/// the same (config, seed) yields the same schedule on every run, every
/// policy, and every `--jobs` setting.
pub fn generate_requests(cfg: &ServerConfig, seed: u64) -> RequestSchedule {
    assert!(cfg.fanout >= 1, "fanout must be at least 1");
    let mut rng = SimRng::new(seed).fork(SCHEDULE_SALT);
    let window_ns = cfg.window.as_nanos();
    let mut out = RequestSchedule {
        arrivals: Vec::new(),
        demands: Vec::new(),
        fanout: cfg.fanout,
    };
    let mut t_ns: u64 = 0;

    // Draws one exponential inter-arrival gap in ns at `rate` (requests
    // per second); u64::MAX stands in for "never" at rate <= 0.
    fn gap_ns(rng: &mut SimRng, rate: f64) -> u64 {
        if rate <= 0.0 {
            return u64::MAX;
        }
        let g = rng.exp(1.0 / rate) * 1e9;
        if g >= u64::MAX as f64 {
            u64::MAX
        } else {
            (g as u64).max(1)
        }
    }

    // Per-process state for rate switching (MMPP dwell / replay segment).
    let mut mmpp_bursting = false;
    let mut seg_end_ns: u64 = match &cfg.arrival {
        ArrivalProcess::Poisson { .. } => u64::MAX,
        ArrivalProcess::Mmpp { mean_calm, .. } => {
            let d = rng.exp(mean_calm.as_secs_f64()) * 1e9;
            (d as u64).max(1)
        }
        ArrivalProcess::Replay { step, .. } => step.as_nanos().max(1),
    };
    let mut seg_idx: usize = 0;

    loop {
        let rate = match &cfg.arrival {
            ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec,
            ArrivalProcess::Mmpp {
                calm_rate,
                burst_rate,
                ..
            } => {
                if mmpp_bursting {
                    *burst_rate
                } else {
                    *calm_rate
                }
            }
            ArrivalProcess::Replay { rates_per_sec, .. } => {
                if rates_per_sec.is_empty() {
                    break;
                }
                rates_per_sec[seg_idx % rates_per_sec.len()]
            }
        };
        let gap = gap_ns(&mut rng, rate);
        let candidate = t_ns.saturating_add(gap);
        if candidate >= seg_end_ns {
            // Crossed a rate-switch boundary: discard the candidate (the
            // exponential is memoryless, so restarting the draw at the
            // boundary preserves the process) and switch state.
            t_ns = seg_end_ns;
            if t_ns >= window_ns {
                break;
            }
            match &cfg.arrival {
                ArrivalProcess::Poisson { .. } => break, // unreachable
                ArrivalProcess::Mmpp {
                    mean_calm,
                    mean_burst,
                    ..
                } => {
                    mmpp_bursting = !mmpp_bursting;
                    let mean = if mmpp_bursting { mean_burst } else { mean_calm };
                    let d = rng.exp(mean.as_secs_f64()) * 1e9;
                    seg_end_ns = t_ns.saturating_add((d as u64).max(1));
                }
                ArrivalProcess::Replay { step, .. } => {
                    seg_idx += 1;
                    seg_end_ns = t_ns.saturating_add(step.as_nanos().max(1));
                }
            }
            continue;
        }
        if candidate >= window_ns {
            break;
        }
        t_ns = candidate;
        out.arrivals
            .push(SimTime::ZERO + SimDuration::from_nanos(t_ns));
        // Fan-out splits the request's demand: each of the K subtasks
        // draws from the service distribution scaled by 1/K, keeping the
        // offered load independent of K.
        out.demands.extend((0..cfg.fanout).map(|_| {
            let d = cfg.service.sample(&mut rng);
            SimDuration::from_nanos((d.as_nanos() / cfg.fanout as u64).max(1))
        }));
    }
    out
}

/// Counters and latency histograms extracted from one server run. Plain
/// `Send` data — safe to carry across the harness's repeat-pool threads.
#[derive(Debug, Clone, Default)]
pub struct ServerMetrics {
    /// End-to-end request latency (completion − nominal arrival), one
    /// sample per completed request.
    pub latency: LatencyHistogram,
    /// Queueing delay (dispatch − nominal arrival), one sample per
    /// served subtask.
    pub queue_delay: LatencyHistogram,
    /// Wall-clock service time (completion − dispatch), one sample per
    /// served subtask. Exceeds the nominal demand on slowed cores — the
    /// speed signal the paper's balancer keys on.
    pub service_wall: LatencyHistogram,
    /// Requests in the generated schedule.
    pub generated: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests that completed every subtask.
    pub completed: u64,
    /// Requests dropped at admission (queue full).
    pub dropped_queue_full: u64,
    /// Requests dropped by shed-timeout load shedding.
    pub dropped_shed: u64,
}

impl ServerMetrics {
    /// Total dropped requests over all reasons.
    pub fn dropped(&self) -> u64 {
        self.dropped_queue_full + self.dropped_shed
    }
}

/// A subtask reference in the shared queue.
#[derive(Debug, Clone, Copy)]
struct Subtask {
    req: usize,
    sub: usize,
}

/// Shared worker-pool state (single-threaded simulator: `Rc<RefCell>`).
struct ServerState {
    requests: RequestSchedule,
    /// Cursor into `requests`: next not-yet-admitted arrival.
    next_arrival: usize,
    /// Admitted subtasks waiting for a worker, FIFO.
    queue: VecDeque<Subtask>,
    /// Outstanding (admitted, unfinished) subtasks per request.
    remaining: Vec<u32>,
    /// Requests dropped (no completion will be recorded).
    dropped: Vec<bool>,
    queue_capacity: usize,
    shed_after: SimDuration,
    metrics: ServerMetrics,
}

/// One worker-pool thread: pulls subtasks from the shared queue,
/// computes them, and stamps completions. See the module docs for the
/// determinism argument.
pub struct ServerWorker {
    state: Rc<RefCell<ServerState>>,
    /// The subtask this worker just computed, with its dispatch time;
    /// completion is stamped at the next `next()` call.
    current: Option<(Subtask, SimTime)>,
    index: usize,
}

/// Handle to a spawned server workload: keeps the shared state alive so
/// the harness can extract [`ServerMetrics`] after the run.
pub struct ServerApp {
    state: Rc<RefCell<ServerState>>,
}

impl ServerApp {
    /// Spawns `cfg.workers` worker threads into `group`, with the
    /// request schedule pre-generated from `seed`. Returns the handle
    /// and the spawned task ids.
    pub fn spawn(
        sys: &mut System,
        group: GroupId,
        cfg: &ServerConfig,
        seed: u64,
    ) -> (ServerApp, Vec<TaskId>) {
        assert!(cfg.workers > 0, "server workload needs at least one worker");
        let requests = generate_requests(cfg, seed);
        let n = requests.len();
        let state = Rc::new(RefCell::new(ServerState {
            requests,
            next_arrival: 0,
            queue: VecDeque::new(),
            remaining: vec![0; n],
            dropped: vec![false; n],
            queue_capacity: cfg.queue_capacity,
            shed_after: cfg.shed_after,
            metrics: ServerMetrics {
                generated: n as u64,
                ..ServerMetrics::default()
            },
        }));
        let tasks = (0..cfg.workers)
            .map(|i| {
                let worker = Box::new(ServerWorker {
                    state: state.clone(),
                    current: None,
                    index: i,
                });
                sys.spawn(
                    SpawnSpec::new(worker, format!("srv{i}"), group)
                        .rss(cfg.rss_per_worker)
                        .mem(cfg.mem_intensity),
                )
            })
            .collect();
        (ServerApp { state }, tasks)
    }

    /// A copy of the run's metrics (call after the group completes).
    pub fn metrics(&self) -> ServerMetrics {
        self.state.borrow().metrics.clone()
    }
}

impl Program for ServerWorker {
    fn next(&mut self, ctx: &mut ProgramCtx<'_>) -> Directive {
        let now = ctx.now;
        // Trace events go straight to `ctx`: recording reads nothing back,
        // so tracing never feeds back into decisions.
        let mut s = self.state.borrow_mut();

        // 1. Stamp the completion of the subtask just computed.
        if let Some((sub, dispatched)) = self.current.take() {
            let wall = now.saturating_since(dispatched);
            s.metrics.service_wall.record_duration(wall);
            s.remaining[sub.req] -= 1;
            if s.remaining[sub.req] == 0 && !s.dropped[sub.req] {
                let latency = now.saturating_since(s.requests.arrivals[sub.req]);
                s.metrics.latency.record_duration(latency);
                s.metrics.completed += 1;
                ctx.trace_event(TraceEvent::RequestComplete {
                    request: sub.req,
                    latency,
                });
            }
        }

        // 2. Admit every arrival whose nominal time has passed, in
        // arrival order. Whole requests admit or drop atomically.
        while s.next_arrival < s.requests.len() && s.requests.arrivals[s.next_arrival] <= now {
            let i = s.next_arrival;
            s.next_arrival += 1;
            let fanout = s.requests.fanout;
            if s.queue_capacity > 0 && s.queue.len() + fanout > s.queue_capacity {
                s.dropped[i] = true;
                s.metrics.dropped_queue_full += 1;
                ctx.trace_event(TraceEvent::RequestDrop {
                    request: i,
                    reason: RequestDropReason::QueueFull,
                });
                continue;
            }
            for sub in 0..fanout {
                s.queue.push_back(Subtask { req: i, sub });
            }
            s.remaining[i] = fanout as u32;
            s.metrics.admitted += 1;
            ctx.trace_event(TraceEvent::RequestArrival {
                request: i,
                arrival: s.requests.arrivals[i],
                queued: s.queue.len(),
            });
        }

        // 3. Pull the next live subtask and compute it.
        loop {
            match s.queue.pop_front() {
                Some(sub) => {
                    if s.dropped[sub.req] {
                        continue; // sibling of a shed request
                    }
                    let wait = now.saturating_since(s.requests.arrivals[sub.req]);
                    if s.shed_after > SimDuration::ZERO && wait > s.shed_after {
                        s.dropped[sub.req] = true;
                        s.metrics.dropped_shed += 1;
                        ctx.trace_event(TraceEvent::RequestDrop {
                            request: sub.req,
                            reason: RequestDropReason::ShedTimeout,
                        });
                        continue;
                    }
                    s.metrics.queue_delay.record_duration(wait);
                    ctx.trace_event(TraceEvent::RequestDispatch {
                        request: sub.req,
                        subtask: sub.sub,
                        wait,
                    });
                    let demand = s.requests.subtasks(sub.req)[sub.sub];
                    self.current = Some((sub, now));
                    break Directive::Compute(demand);
                }
                None => {
                    // 4. Idle: sleep until the next arrival, or exit
                    // once the schedule is exhausted (in-flight
                    // subtasks finish on their own workers).
                    if s.next_arrival < s.requests.len() {
                        let next = s.requests.arrivals[s.next_arrival];
                        break Directive::SleepFor(
                            next.saturating_since(now).max(SimDuration::from_nanos(1)),
                        );
                    }
                    break Directive::Exit;
                }
            }
        }
    }

    fn label(&self) -> String {
        format!("srv{}", self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedbal_machine::{uniform, CostModel};
    use speedbal_sched::SchedConfig;

    fn small_cfg() -> ServerConfig {
        ServerConfig::poisson(
            2,
            2000.0,
            ServiceDist::Exponential {
                mean: SimDuration::from_micros(400),
            },
            SimDuration::from_millis(50),
        )
    }

    fn balancer() -> Box<dyn speedbal_sched::Balancer> {
        Box::new(speedbal_sched::NullBalancer::new())
    }

    #[test]
    fn schedule_is_deterministic_and_windowed() {
        let cfg = small_cfg();
        let a = generate_requests(&cfg, 7);
        let b = generate_requests(&cfg, 7);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.arrivals.iter().all(|&t| t < SimTime::ZERO + cfg.window));
        assert_eq!(
            a.demands.len(),
            a.len(),
            "fan-out 1: one demand per request"
        );
        let c = generate_requests(&cfg, 8);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn mmpp_and_replay_generate_within_window() {
        let mut cfg = small_cfg();
        cfg.arrival = ArrivalProcess::Mmpp {
            calm_rate: 500.0,
            burst_rate: 8000.0,
            mean_calm: SimDuration::from_millis(10),
            mean_burst: SimDuration::from_millis(5),
        };
        let reqs = generate_requests(&cfg, 3);
        assert!(!reqs.is_empty());
        assert!(reqs
            .arrivals
            .iter()
            .all(|&t| t < SimTime::ZERO + cfg.window));

        cfg.arrival = ArrivalProcess::Replay {
            rates_per_sec: vec![200.0, 4000.0, 200.0],
            step: SimDuration::from_millis(10),
        };
        let reqs = generate_requests(&cfg, 3);
        assert!(!reqs.is_empty());
        assert!(reqs
            .arrivals
            .iter()
            .all(|&t| t < SimTime::ZERO + cfg.window));
    }

    #[test]
    fn fanout_splits_demand() {
        let cfg = small_cfg().fanout(4);
        let reqs = generate_requests(&cfg, 1);
        assert!(!reqs.is_empty());
        assert_eq!(reqs.demands.len(), 4 * reqs.len());
        assert!((0..reqs.len()).all(|i| reqs.subtasks(i).len() == 4));
    }

    #[test]
    fn offered_load_formula() {
        let cfg = ServerConfig::poisson_load(
            4,
            4,
            0.8,
            ServiceDist::Exponential {
                mean: SimDuration::from_millis(1),
            },
            SimDuration::from_secs(1),
        );
        assert!((cfg.offered_load(4) - 0.8).abs() < 1e-12);
        assert_eq!(cfg.expected_requests(), 3200);
    }

    #[test]
    fn service_distributions_have_positive_samples_and_means() {
        let mut rng = SimRng::new(42);
        for dist in [
            ServiceDist::Exponential {
                mean: SimDuration::from_micros(500),
            },
            ServiceDist::LogNormal {
                median: SimDuration::from_micros(300),
                sigma: 1.0,
            },
            ServiceDist::Bimodal {
                fast: SimDuration::from_micros(100),
                slow: SimDuration::from_millis(5),
                slow_prob: 0.1,
            },
        ] {
            assert!(dist.mean() > SimDuration::ZERO);
            for _ in 0..100 {
                assert!(dist.sample(&mut rng) >= SimDuration::from_nanos(1));
            }
        }
    }

    #[test]
    fn run_completes_all_requests_without_drops() {
        let mut sys = System::new(
            uniform(2),
            SchedConfig::default(),
            CostModel::free(),
            balancer(),
            11,
        );
        let g = sys.new_group();
        let cfg = small_cfg();
        let (app, tasks) = ServerApp::spawn(&mut sys, g, &cfg, 11);
        assert_eq!(tasks.len(), 2);
        let done = sys.run_until_group_done(g, SimTime::ZERO + SimDuration::from_secs(60));
        assert!(done.is_some(), "server run must drain and exit");
        let m = app.metrics();
        assert!(m.generated > 0);
        assert_eq!(m.admitted, m.generated);
        assert_eq!(m.completed, m.generated);
        assert_eq!(m.dropped(), 0);
        assert_eq!(m.latency.count(), m.completed);
        assert_eq!(m.queue_delay.count(), m.completed, "fanout 1");
        assert!(m.latency.p999() >= m.latency.p50());
        // Latency includes at least the service time.
        assert!(m.latency.mean_ns() >= m.service_wall.mean_ns() * 0.99);
    }

    #[test]
    fn fanout_requests_complete_at_max_subtask() {
        let mut sys = System::new(
            uniform(3),
            SchedConfig::default(),
            CostModel::free(),
            balancer(),
            5,
        );
        let g = sys.new_group();
        let cfg = small_cfg().fanout(3);
        let (app, _) = ServerApp::spawn(&mut sys, g, &cfg, 5);
        let done = sys.run_until_group_done(g, SimTime::ZERO + SimDuration::from_secs(60));
        assert!(done.is_some());
        let m = app.metrics();
        assert_eq!(m.completed, m.generated);
        assert_eq!(m.latency.count(), m.completed);
        assert_eq!(m.queue_delay.count(), 3 * m.completed, "one per subtask");
    }

    #[test]
    fn bounded_queue_drops_under_overload() {
        let mut sys = System::new(
            uniform(1),
            SchedConfig::default(),
            CostModel::free(),
            balancer(),
            3,
        );
        let g = sys.new_group();
        // One slow core, overload (rho = 4), tiny queue: must shed.
        let cfg = ServerConfig::poisson(
            1,
            4000.0,
            ServiceDist::Exponential {
                mean: SimDuration::from_millis(1),
            },
            SimDuration::from_millis(50),
        )
        .queue_capacity(4);
        let (app, _) = ServerApp::spawn(&mut sys, g, &cfg, 3);
        let done = sys.run_until_group_done(g, SimTime::ZERO + SimDuration::from_secs(60));
        assert!(done.is_some());
        let m = app.metrics();
        assert!(m.dropped_queue_full > 0, "overload must hit the cap");
        assert_eq!(m.admitted + m.dropped_queue_full, m.generated);
        assert_eq!(m.completed, m.admitted);
    }

    #[test]
    fn shed_timeout_drops_stale_requests() {
        let mut sys = System::new(
            uniform(1),
            SchedConfig::default(),
            CostModel::free(),
            balancer(),
            9,
        );
        let g = sys.new_group();
        let cfg = ServerConfig::poisson(
            1,
            4000.0,
            ServiceDist::Exponential {
                mean: SimDuration::from_millis(1),
            },
            SimDuration::from_millis(50),
        )
        .shed_after(SimDuration::from_millis(5));
        let (app, _) = ServerApp::spawn(&mut sys, g, &cfg, 9);
        let done = sys.run_until_group_done(g, SimTime::ZERO + SimDuration::from_secs(60));
        assert!(done.is_some());
        let m = app.metrics();
        assert!(m.dropped_shed > 0, "overload must trip the shed timeout");
        assert_eq!(m.completed + m.dropped_shed, m.admitted);
        // Served requests waited at most the shed threshold.
        assert!(m.queue_delay.max_ns() <= SimDuration::from_millis(5).as_nanos());
    }

    #[test]
    fn traced_run_counts_request_lifecycle() {
        let mut sys = System::new(
            uniform(2),
            SchedConfig::default(),
            CostModel::free(),
            balancer(),
            11,
        );
        sys.enable_tracing_with(speedbal_sched::TraceConfig::default());
        let g = sys.new_group();
        let cfg = small_cfg();
        let (app, _) = ServerApp::spawn(&mut sys, g, &cfg, 11);
        sys.run_until_group_done(g, SimTime::ZERO + SimDuration::from_secs(60));
        let m = app.metrics();
        let buf = sys.take_trace().expect("tracing was enabled");
        let c = buf.counters();
        assert_eq!(c.request_arrivals, m.admitted);
        assert_eq!(c.request_completions, m.completed);
        assert_eq!(c.request_dispatches, m.queue_delay.count());
        assert_eq!(c.request_drops, m.dropped());
    }
}
