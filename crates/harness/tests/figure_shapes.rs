//! Shape checks on micro versions of the paper's figures and of the §5
//! ablations: who wins, and within what bound. Figure 1's shape is
//! pinned in `speedbal-analytic`, and Figure 5's and the rest of Figure
//! 3's in the workspace root's `tests/paper_claims.rs`.
//!
//! The cells run full simulations, so run this binary in release:
//! `cargo test --release -p speedbal-harness --test figure_shapes`.

use speedbal_apps::WaitMode;
use speedbal_core::SpeedBalancerConfig;
use speedbal_harness::experiments::ablation_variants;
use speedbal_harness::{run_scenario, Competitor, Machine, Policy, Scenario};
use speedbal_metrics::RepeatStats;
use speedbal_sim::SimDuration;
use speedbal_workloads::{cg_b, ep, ep_modified, ft_b, sp_a};

fn completion(scenario: Scenario) -> RepeatStats {
    run_scenario(&scenario).completion
}

/// Figure 2 (§6.1): three threads on two cores. Coarse barriers with
/// 20 ms balancing approach fair; fine barriers cannot be rotated
/// profitably and stay near the static 4/3.
#[test]
fn fig2_coarse_grain_approaches_fair_and_fine_grain_does_not() {
    let per_thread = SimDuration::from_millis(540);
    let slowdown = |granularity: SimDuration, interval_ms: u64| {
        let app = ep_modified(granularity, per_thread, 3).spmd(3, WaitMode::Yield, 1.0);
        let cfg = SpeedBalancerConfig::with_interval(SimDuration::from_millis(interval_ms));
        let scenario =
            Scenario::new(Machine::Uniform(2), 0, Policy::SpeedWith(cfg), app).repeats(2);
        completion(scenario).mean() / (per_thread.as_secs_f64() * 1.5)
    };
    let coarse = slowdown(SimDuration::from_millis(270), 20);
    let fine = slowdown(SimDuration::from_micros(200), 100);
    assert!(
        coarse < 1.25,
        "coarse grain with B=20ms should approach fair, got {coarse}"
    );
    assert!(
        fine > 1.25,
        "fine grain cannot be rotated profitably, got {fine}"
    );
}

/// Figure 3: EP with 16 yield-barrier threads on 5 Tigerton cores. SPEED
/// keeps up with LOAD-YIELD.
#[test]
fn fig3_speed_keeps_up_with_load_on_five_cores() {
    let run = |policy| {
        let app = ep().spmd(16, WaitMode::Yield, 0.2);
        completion(Scenario::new(Machine::Tigerton, 5, policy, app).repeats(2)).mean()
    };
    let (speed, load) = (run(Policy::Speed), run(Policy::Load));
    assert!(speed < load * 1.02, "SPEED {speed} vs LOAD-YIELD {load}");
}

/// Table 3 / Figure 4: one fine-grained (sp.A) and one coarse-grained
/// (ft.B) benchmark, 16 threads on 7 Tigerton cores. SPEED's mean does
/// not lose to LOAD beyond what bandwidth saturation compresses at this
/// micro scale, and its variation stays at or under 10%.
#[test]
fn fig4_speed_holds_mean_and_variation_against_load() {
    for spec in [sp_a(), ft_b()] {
        let run = |policy| {
            let app = spec.spmd(16, WaitMode::Yield, 0.1);
            completion(Scenario::new(Machine::Tigerton, 7, policy, app).repeats(4))
        };
        let (speed, load) = (run(Policy::Speed), run(Policy::Load));
        assert!(
            speed.mean() <= load.mean() * 1.08,
            "{}: SPEED {} vs LOAD {}",
            spec.name,
            speed.mean(),
            load.mean()
        );
        assert!(
            speed.variation_pct() <= 10.0,
            "{}: SPEED var {} too high",
            spec.name,
            speed.variation_pct()
        );
    }
}

/// Figure 6: cg.B with 16 threads sharing all 16 Tigerton cores with a
/// make -j-like batch build. SPEED stays competitive with LOAD.
#[test]
fn fig6_speed_stays_competitive_beside_make_j() {
    let run = |policy| {
        let app = cg_b().spmd(16, WaitMode::Yield, 0.05);
        let scenario = Scenario::new(Machine::Tigerton, 16, policy, app)
            .competitors(vec![Competitor::MakeJ {
                tasks: 8,
                jobs_per_task: 20,
            }])
            .repeats(3);
        completion(scenario).mean()
    };
    let (speed, load) = (run(Policy::Speed), run(Policy::Load));
    assert!(
        speed <= load * 1.10,
        "SPEED ({speed}) must stay competitive with LOAD ({load}) under make -j"
    );
}

/// The §5 ablations: every variant of the `ablations` artifact still
/// beats static pinning on EP's 16-on-5 split.
#[test]
fn every_ablation_variant_beats_pinned() {
    let run = |policy| {
        let app = ep().spmd(16, WaitMode::Yield, 0.2);
        completion(Scenario::new(Machine::Tigerton, 5, policy, app).repeats(2)).mean()
    };
    let pinned = run(Policy::Pinned);
    for (name, cfg) in ablation_variants(&SpeedBalancerConfig::default()) {
        let t = run(Policy::SpeedWith(cfg));
        assert!(
            t < pinned * 1.02,
            "ablation {name} ({t}) must not lose to PINNED ({pinned})"
        );
    }
}
