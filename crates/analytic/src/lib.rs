//! Analytic model of speed balancing (paper Section 4).
//!
//! With `N` threads of an SPMD application on `M` homogeneous cores
//! (`N > M`), let `T = ⌊N/M⌋`. Then `SQ = N mod M` cores are *slow* (they
//! run `T+1` threads) and `FQ = M − SQ` cores are *fast* (`T` threads).
//! Because the application synchronizes at barriers, its progress is the
//! progress of its **slowest** thread:
//!
//! * under queue-length balancing, which never fixes a one-task imbalance,
//!   per-thread speed is `1/(T+1)`;
//! * the paper claims that under speed balancing every thread spends an
//!   equal share of time on fast and slow cores, for an asymptotic speed
//!   of `½(1/T + 1/(T+1))`, a `(2T+1)/(2T)` speedup. No schedule beats the
//!   capacity bound `M/N`, which that claim exceeds whenever
//!   `FQ·T < SQ·(T+1)` ([`paper_asymptotic_speed`]);
//! * **Lemma 1**: at most `2·⌈SQ/FQ⌉` balancing steps are needed for every
//!   thread to have run on a fast core at least once, so speed balancing is
//!   profitable when the program runs longer than that many balance
//!   intervals: `(T+1)·S > 2·⌈SQ/FQ⌉·B` with `S` the inter-barrier compute
//!   time and `B` the balance interval.
//!
//! These closed forms are used as oracles for the simulator tests and to
//! regenerate Figure 1.
//!
//! The [`weighted`] module generalizes the split and Lemma 1 to
//! heterogeneous machines (per-core effective capacities); the uniform
//! model above is the equal-speeds special case.

#![warn(missing_docs)]

pub mod lemma;
pub mod speeds;
pub mod weighted;

pub use lemma::{balancing_steps, is_profitable, min_profitable_granularity, ThreadSplit};
pub use speeds::{
    paper_asymptotic_speed, paper_speedup, queue_length_speed, repeated_migration_speed,
};
pub use weighted::{capacity_share, weighted_balancing_steps, WeightedSplit};

/// One cell of Figure 1: the minimum inter-barrier computation time `S`
/// (in units of the balance interval `B`) above which speed balancing beats
/// queue-length balancing, for `n` threads on `m` cores.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig1Cell {
    /// Thread count `N`.
    pub threads: u32,
    /// Core count `M`.
    pub cores: u32,
    /// Minimum profitable `S` in units of `B` (0 when already balanced).
    pub min_granularity: f64,
}

/// Regenerates the data behind Figure 1: for every core count in
/// `cores` and every thread count `N` with `M < N ≤ threads_per_core_max·M`,
/// the minimum profitable `S` at `B = 1`.
///
/// The paper reports the data range [0.015, 147] for this sweep, with the
/// worst cases on the diagonals (two threads per core, `M−1` or `M−2` slow
/// cores).
pub fn figure1(cores: impl IntoIterator<Item = u32>, threads_per_core_max: u32) -> Vec<Fig1Cell> {
    let mut out = Vec::new();
    for m in cores {
        for n in (m + 1)..=(m * threads_per_core_max) {
            out.push(Fig1Cell {
                threads: n,
                cores: m,
                min_granularity: min_profitable_granularity(n, m, 1.0),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_covers_paper_range() {
        // The paper reports a data range of [0.015, 147] for its (unstated)
        // sweep grid; with cores 2..=100 and up to 350 threads our grid
        // reaches the same order at both ends: the fine-grained extreme
        // 2/(T+1) ≈ 0.015 at 267 threads on 2 cores, and the coarse
        // extreme ≈ 99 at 199 threads on 100 cores.
        let cells: Vec<Fig1Cell> = (2u32..=100)
            .flat_map(|m| {
                ((m + 1)..=350.min(m * 140)).map(move |n| Fig1Cell {
                    threads: n,
                    cores: m,
                    min_granularity: min_profitable_granularity(n, m, 1.0),
                })
            })
            .collect();
        assert!(!cells.is_empty());
        let min = cells
            .iter()
            .map(|c| c.min_granularity)
            .filter(|g| *g > 0.0)
            .fold(f64::INFINITY, f64::min);
        let max = cells.iter().map(|c| c.min_granularity).fold(0.0, f64::max);
        assert!(min < 0.02, "min {min} should reach ~0.015");
        assert!(max > 90.0, "max {max} should reach ~10^2");
    }

    #[test]
    fn figure1_worst_cases_on_diagonal() {
        // Few threads per core and many slow cores is the worst case.
        let bad = min_profitable_granularity(2 * 100 - 1, 100, 1.0);
        let good = min_profitable_granularity(4 * 100, 100, 1.0);
        assert!(bad > 10.0 * good.max(1e-9), "bad={bad} good={good}");
    }

    #[test]
    fn figure1_majority_fine_grained() {
        // "In the majority of cases S <= 1."
        let cells = figure1(10..=100, 4);
        let fine = cells.iter().filter(|c| c.min_granularity <= 1.0).count();
        assert!(
            fine * 2 > cells.len(),
            "only {fine}/{} cells were <= 1",
            cells.len()
        );
    }
}
