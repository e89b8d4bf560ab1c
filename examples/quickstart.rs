//! Quickstart: the paper's running example — 3 threads on 2 cores.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! Queue-length balancing (Linux) leaves two threads sharing one core
//! forever: the application runs at 50% speed. Speed balancing rotates the
//! odd thread every balance interval, approaching the fair 2/3.
//!
//! The barriers here are coarse (500 ms = 5 balance intervals): Lemma 1
//! says rotation pays off once the inter-barrier computation S exceeds
//! ~2B/(T+1). Re-run with a 10 ms granularity to watch every balancer
//! collapse to the static 2x — that regime is Figure 2's subject.

use speedbal::prelude::*;

fn main() {
    // Each of 3 threads computes 2 s (in simulated time), with a barrier
    // every 500 ms — a coarse-grained SPMD application.
    let spec = ep_modified(SimDuration::from_millis(500), SimDuration::from_secs(2), 3);
    let app = spec.spmd(3, WaitMode::Yield, 1.0);

    println!("3 SPMD threads x 2s of work on 2 cores, barrier every 500 ms\n");
    println!("analytic expectations (paper §3–4):");
    println!(
        "  queue-length balancing : app speed {:.2} -> {:.2}s",
        queue_length_speed(3, 2),
        2.0 / queue_length_speed(3, 2)
    );
    // No schedule beats M/N: 3 threads cannot all average more than 2/3
    // of a core. The paper's §4 formula assumes half the time on a fast
    // core and claims more than that here.
    println!(
        "  capacity bound (fair)  : app speed {:.2} -> at least {:.2}s (DWRR-style fair share)",
        repeated_migration_speed(3, 2),
        2.0 / repeated_migration_speed(3, 2)
    );
    println!(
        "  paper's claim (§4)     : app speed {:.2}, a {:.2}x speedup (above capacity)\n",
        paper_asymptotic_speed(3, 2),
        paper_speedup(3, 2)
    );

    println!("measured (5 repeats each):");
    for policy in [
        Policy::Pinned,
        Policy::Load,
        Policy::Ule,
        Policy::Dwrr,
        Policy::Speed,
    ] {
        let label = policy.label();
        let res =
            run_scenario(&Scenario::new(Machine::Uniform(2), 0, policy, app.clone()).repeats(5));
        println!(
            "  {label:<8} mean {:.3}s  (min {:.3}s / max {:.3}s, variation {:.1}%, {:.0} migrations)",
            res.completion.mean(),
            res.completion.min(),
            res.completion.max(),
            res.completion.variation_pct(),
            res.migrations.mean(),
        );
    }
    println!("\nSpeed balancing needs no application changes: it only measures");
    println!("t_exec/t_real per thread and re-pins with sched_setaffinity.");
}
