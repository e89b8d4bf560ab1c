//! `speedbalancer` — the paper's stand-alone user-level balancer.
//!
//! ```text
//! speedbalancer [options] -- <command> [args...]   # launch and balance
//! speedbalancer [options] --pid <pid>              # attach to a process
//! speedbalancer --demo-worker <threads> <seconds>  # built-in spin workload
//!
//! options:
//!   -i, --interval <ms>     balance interval (default 100, the paper's B)
//!   -t, --threshold <f>     pull threshold T_s (default 0.9)
//!   --allow-numa            allow cross-NUMA-node migrations
//!   --cores <cpulist>       manage only these CPUs (e.g. "0-3,8")
//!   --startup-delay <ms>    delay before the first /proc scan (default 20)
//!   --max-retries <n>       bounded retries for transient read failures
//!                           (default 2; vanished/EPERM never retry)
//!   --quarantine-after <n>  consecutive failures before a thread is
//!                           quarantined (default 3)
//!   --quarantine-cooldown <ms>
//!                           how long a quarantined thread is ignored
//!                           before re-adoption (default 1000)
//!   --trace-out <file>      record a Chrome trace (speed samples,
//!                           activations, migrations, faults, quarantines;
//!                           load in Perfetto)
//!
//! exit codes: 0 = clean (or the child's own exit code in `--` mode),
//!             1 = cannot attach/launch, 2 = usage error.
//! ```
//!
//! "speedbalancer takes as input the parallel application to balance and
//! forks a child which executes the parallel application" — the `--`
//! form. The demo worker provides a self-contained SPMD-ish workload for
//! the quickstart.

use speedbal_native::balancer::{NativeConfig, NativeSpeedBalancer, NativeStats};
use speedbal_native::topo::parse_cpulist;
use speedbal_trace::{export_chrome_to, TraceConfig};
use std::fs::File;
use std::process::{exit, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: speedbalancer [-i ms] [-t f] [--allow-numa] [--cores list] \
         [--startup-delay ms] [--max-retries n] [--quarantine-after n] \
         [--quarantine-cooldown ms] [--trace-out file] \
         (--pid P | -- cmd args... | --demo-worker N SECS)"
    );
    exit(2);
}

/// Runs the balancer, dumping a Chrome trace to `trace_out` if requested.
fn run_balancer(
    bal: &NativeSpeedBalancer,
    stop: &AtomicBool,
    trace_out: Option<&str>,
) -> NativeStats {
    match trace_out {
        None => bal.run(stop),
        Some(path) => {
            let (stats, trace) = bal.run_traced(stop, TraceConfig::default());
            match File::create(path).and_then(|f| export_chrome_to(&trace, f)) {
                Ok(()) => eprintln!("speedbalancer: wrote trace to {path}"),
                Err(e) => eprintln!("speedbalancer: cannot write {path}: {e}"),
            }
            stats
        }
    }
}

fn summarize(stats: &NativeStats) -> String {
    format!(
        "activations={} migrations={} threads={} faults={} retries={} quarantines={}",
        stats.activations.load(Ordering::Relaxed),
        stats.migrations.load(Ordering::Relaxed),
        stats.threads_seen.load(Ordering::Relaxed),
        stats.proc_faults.load(Ordering::Relaxed),
        stats.retries.load(Ordering::Relaxed),
        stats.quarantines.load(Ordering::Relaxed)
    )
}

fn demo_worker(threads: usize, seconds: f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                let mut x = 1u64;
                while Instant::now() < deadline {
                    for _ in 0..100_000 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                    }
                    std::hint::black_box(x);
                }
            });
        }
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = NativeConfig::default();
    let mut pid: Option<i32> = None;
    let mut command: Option<Vec<String>> = None;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-i" | "--interval" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                cfg.interval = Duration::from_millis(ms.max(1));
            }
            "-t" | "--threshold" => {
                i += 1;
                let t: f64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                cfg.speed_threshold = t;
            }
            "--allow-numa" => cfg.block_numa = false,
            "--startup-delay" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                cfg.startup_delay = Duration::from_millis(ms);
            }
            "--max-retries" => {
                i += 1;
                cfg.max_read_retries = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--quarantine-after" => {
                i += 1;
                let n: u32 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                cfg.quarantine_after = n.max(1);
            }
            "--quarantine-cooldown" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                cfg.quarantine_cooldown = Duration::from_millis(ms);
            }
            "--trace-out" => {
                i += 1;
                trace_out = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--cores" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| usage());
                let cpus = parse_cpulist(list);
                if cpus.is_empty() {
                    usage();
                }
                cfg.cores = Some(cpus);
            }
            "--pid" => {
                i += 1;
                pid = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--demo-worker" => {
                let threads: usize = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                let secs: f64 = args
                    .get(i + 2)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                demo_worker(threads, secs);
                return;
            }
            "--" => {
                command = Some(args[i + 1..].to_vec());
                break;
            }
            _ => usage(),
        }
        i += 1;
    }

    let stop = AtomicBool::new(false);
    match (pid, command) {
        (Some(pid), None) => {
            let bal = match NativeSpeedBalancer::attach(pid, cfg) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("speedbalancer: cannot attach to {pid}: {e}");
                    exit(1);
                }
            };
            eprintln!("speedbalancer: attached to pid {pid}");
            let stats = run_balancer(&bal, &stop, trace_out.as_deref());
            eprintln!("speedbalancer: done — {}", summarize(&stats));
        }
        (None, Some(cmd)) if !cmd.is_empty() => {
            let mut child = match Command::new(&cmd[0]).args(&cmd[1..]).spawn() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("speedbalancer: cannot launch {}: {e}", cmd[0]);
                    exit(1);
                }
            };
            let pid = child.id() as i32;
            eprintln!("speedbalancer: balancing `{}` (pid {pid})", cmd.join(" "));
            let bal = match NativeSpeedBalancer::attach(pid, cfg) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("speedbalancer: attach failed: {e}");
                    child.kill().ok();
                    exit(1);
                }
            };
            let stats = run_balancer(&bal, &stop, trace_out.as_deref());
            let status = child.wait().ok();
            eprintln!(
                "speedbalancer: child exited ({:?}) — {}",
                status.map(|s| s.code()),
                summarize(&stats)
            );
            if let Some(code) = status.and_then(|s| s.code()) {
                exit(code);
            }
        }
        _ => usage(),
    }
}
