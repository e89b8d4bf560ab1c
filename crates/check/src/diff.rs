//! Differential scenario replay: the same seeded scenario, run along
//! independently-implemented paths that must not change a single bit of
//! the outcome.
//!
//! Paths diffed against the plain baseline:
//!
//! * **traced** — the structured event trace is documented as strictly
//!   observational;
//! * **checked** — the runtime invariant checker reads state, never
//!   writes it. It also diffs every per-core member list, which SPEED
//!   reads, against a whole-table scan at each post-step,
//!   post-migration and post-balance hook.
//!
//! A fingerprint is bit-for-bit: completion times compare as raw `f64`
//! bits and per-task execution totals as exact nanosecond counts.

use speedbal_harness::sweep::scenario_cost;
use speedbal_harness::{run_repeat_detailed, run_sweep, RepeatOutcome, Scenario, SweepJob};
use speedbal_sched::System;

/// Everything observable about one repeat, in exactly-comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `completion_secs` as raw bits: "close enough" is a diff bug.
    pub completion_bits: u64,
    pub migrations: u64,
    pub timed_out: bool,
    /// `(task, exec nanos, final core)` for every task ever spawned.
    pub tasks: Vec<(usize, u64, usize)>,
}

impl Fingerprint {
    pub(crate) fn of(outcome: &RepeatOutcome, sys: &System) -> Fingerprint {
        let mut tasks: Vec<(usize, u64, usize)> = sys
            .all_tasks()
            .map(|t| (t.0, sys.task_exec_total(t).as_nanos(), sys.task_core(t).0))
            .collect();
        tasks.sort_unstable();
        Fingerprint {
            completion_bits: outcome.completion_secs.to_bits(),
            migrations: outcome.migrations as u64,
            timed_out: outcome.timed_out,
            tasks,
        }
    }
}

/// One scenario × repeat differential: returns the divergences found
/// (empty = conforming).
pub fn diff_repeat(s: &Scenario, r: usize) -> Vec<String> {
    let label = format!("{} r{r}", s.label());
    let mut failures = Vec::new();

    let (base_out, base_sys) = run_repeat_detailed(s, r, false);
    let base = Fingerprint::of(&base_out, &base_sys);

    let (traced_out, traced_sys) = run_repeat_detailed(s, r, true);
    let traced = Fingerprint::of(&traced_out, &traced_sys);
    if traced != base {
        failures.push(format!("{label}: traced run diverged from baseline"));
    }

    let checked_s = s.clone().checked(true);
    let (checked_out, checked_sys) = run_repeat_detailed(&checked_s, r, false);
    if !checked_sys.invariant_checks_enabled() || checked_sys.invariant_checks_run() == 0 {
        failures.push(format!("{label}: checked run did not actually check"));
    }
    if Fingerprint::of(&checked_out, &checked_sys) != base {
        failures.push(format!("{label}: checked run diverged from baseline"));
    }

    failures
}

/// Runs [`diff_repeat`] over every repeat of every scenario; returns
/// `(cases run, failures)`.
pub fn diff_scenarios(scenarios: &[Scenario]) -> (usize, Vec<String>) {
    // Every (scenario, repeat) differential is independent — each one
    // replays the same seed along three paths — so fan them out on the
    // sweep executor. Results come back in submission order, keeping the
    // failure list identical to the serial loop's.
    let mut jobs: Vec<SweepJob<Vec<String>>> = Vec::new();
    for s in scenarios {
        // diff_repeat runs one repeat 3 times; cost ≈ one repeat's cost.
        let cost = (scenario_cost(s) / s.repeats.max(1) as u64).max(1) * 3;
        for r in 0..s.repeats {
            let s = s.clone();
            jobs.push(SweepJob::new(cost, move || diff_repeat(&s, r)));
        }
    }
    let cases = jobs.len();
    let failures = run_sweep(jobs).into_iter().flatten().collect();
    (cases, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedbal_apps::WaitMode;
    use speedbal_harness::{Machine, Policy};
    use speedbal_workloads::ep;

    #[test]
    fn speed_scenario_conforms_on_all_paths() {
        let app = ep().spmd(3, WaitMode::Block, 0.05);
        let s = Scenario::new(Machine::Uniform(2), 0, Policy::Speed, app).repeats(1);
        let failures = diff_repeat(&s, 0);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn non_speed_policy_still_diffs_observational_paths() {
        let app = ep().spmd(4, WaitMode::Yield, 0.05);
        let s = Scenario::new(Machine::Uniform(2), 0, Policy::Load, app).repeats(1);
        let failures = diff_repeat(&s, 0);
        assert!(failures.is_empty(), "{failures:?}");
    }
}
