//! Closed-form per-thread speeds for the balancing policies the paper
//! compares (Sections 3–4).
//!
//! "Speed" here is the fraction of a dedicated core's throughput the
//! application's *slowest* thread obtains — which, for barrier-synchronized
//! SPMD code, is the application's speed.

use crate::lemma::ThreadSplit;

/// Application speed under queue-length balancing (Linux), which leaves the
/// `N mod M ≠ 0` imbalance in place: the slowest thread shares a slow core
/// with `T` others forever, so the application runs at `1/(T+1)`.
///
/// For the 3-threads / 2-cores example this is 1/2 — "the application will
/// perceive the system as running at 50% speed".
pub fn queue_length_speed(n: u32, m: u32) -> f64 {
    let s = ThreadSplit::new(n, m);
    if s.balanced() {
        // Perfectly divisible: every core runs exactly T threads.
        return 1.0 / s.t as f64;
    }
    1.0 / (s.t as f64 + 1.0)
}

/// The paper's claimed asymptotic speed under speed balancing (§4): it
/// assumes every thread spends half its time on a fast core, so each runs
/// at `½(1/T + 1/(T+1))`. For 3-on-2 this is 3/4.
///
/// This is a claim, not a bound. No schedule beats the capacity bound
/// [`repeated_migration_speed`], `M/N`, and the formula exceeds it exactly
/// when the fast cores hold fewer threads than the slow ones,
/// `FQ·T < SQ·(T+1)`; 3-on-2 is one such cell (3/4 against 2/3). Where
/// `FQ·T > SQ·(T+1)` it undershoots capacity (17-on-16: 3/4 against
/// 16/17).
pub fn paper_asymptotic_speed(n: u32, m: u32) -> f64 {
    let s = ThreadSplit::new(n, m);
    if s.balanced() {
        return 1.0 / s.t as f64;
    }
    0.5 * (1.0 / s.t as f64 + 1.0 / (s.t as f64 + 1.0))
}

/// Application speed when a *fair global* scheduler (DWRR-style) equalizes
/// CPU time across all `N` threads on `M` cores by repeated migration:
/// every thread gets `M/N` of a core. For 3-on-2 this is 2/3 — "the
/// application perceives the system as running at 66% speed".
///
/// This is also the capacity bound: `N` equal threads on `M` cores cannot
/// all average more than `M/N` of a core, and a barrier application runs
/// at its slowest thread, so no schedule beats it.
pub fn repeated_migration_speed(n: u32, m: u32) -> f64 {
    assert!(n >= m && m >= 1);
    m as f64 / n as f64
}

/// The paper's claimed asymptotic speedup of speed balancing over
/// queue-length balancing: `(2T+1)/(2T)` — "a possible speedup of
/// 1 + 1/(2T)". 1.0 when balanced. It is [`paper_asymptotic_speed`] over
/// [`queue_length_speed`], so it overshoots what any schedule can reach
/// wherever that formula overshoots the capacity bound `M/N`.
pub fn paper_speedup(n: u32, m: u32) -> f64 {
    let s = ThreadSplit::new(n, m);
    if s.balanced() {
        return 1.0;
    }
    let t = s.t as f64;
    (2.0 * t + 1.0) / (2.0 * t)
}

/// Expected makespan of an SPMD program with per-thread work `work` (in
/// seconds on a dedicated core) running at application speed `speed`.
pub fn makespan(work: f64, speed: f64) -> f64 {
    assert!(speed > 0.0);
    work / speed
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_three_on_two() {
        // Section 3: static = 50%, DWRR-style repeated migration = 66%,
        // the paper's speed-balancing claim = 75%.
        assert!((queue_length_speed(3, 2) - 0.5).abs() < 1e-12);
        assert!((repeated_migration_speed(3, 2) - 2.0 / 3.0).abs() < 1e-12);
        assert!((paper_asymptotic_speed(3, 2) - 0.75).abs() < 1e-12);
        // The paper's speedup (2T+1)/2T with T = 1: 1.5x.
        assert!((paper_speedup(3, 2) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn balanced_case_all_equal() {
        // 16 threads on 16 cores: every policy gives full speed.
        assert!((queue_length_speed(16, 16) - 1.0).abs() < 1e-12);
        assert!((paper_asymptotic_speed(16, 16) - 1.0).abs() < 1e-12);
        assert!((repeated_migration_speed(16, 16) - 1.0).abs() < 1e-12);
        assert_eq!(paper_speedup(16, 16), 1.0);
    }

    #[test]
    fn seventeen_on_sixteen() {
        // One oversubscribed core: Linux halves the app, speed balancing
        // nearly hides it.
        assert!((queue_length_speed(17, 16) - 0.5).abs() < 1e-12);
        assert!((paper_asymptotic_speed(17, 16) - 0.75).abs() < 1e-12);
        assert!((repeated_migration_speed(17, 16) - 16.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_inverts_speed() {
        assert!((makespan(10.0, 0.5) - 20.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn ordering_static_le_paper_claim(n in 2u32..512, m in 1u32..128) {
            prop_assume!(n >= m);
            let ql = queue_length_speed(n, m);
            let claim = paper_asymptotic_speed(n, m);
            prop_assert!(ql <= claim + 1e-12);
            // And the claim never exceeds a fair share ceiling of 1/T.
            let t = (n / m) as f64;
            prop_assert!(claim <= 1.0 / t + 1e-12);
        }

        #[test]
        fn paper_speedup_consistent(n in 2u32..512, m in 1u32..128) {
            prop_assume!(n > m);
            let ratio = paper_asymptotic_speed(n, m) / queue_length_speed(n, m);
            let speedup = paper_speedup(n, m);
            // The speedup is exactly the claim/static ratio for unbalanced
            // splits.
            if n % m != 0 {
                prop_assert!((ratio - speedup).abs() < 1e-9);
            }
            prop_assert!(speedup >= 1.0);
            prop_assert!(speedup <= 1.5 + 1e-12, "max speedup at T=1");
        }

        /// The paper's formula `(2T+1)/(2T(T+1))` exceeds the capacity
        /// bound `M/N` exactly when `FQ·T < SQ·(T+1)`, and equals it
        /// exactly when the two sides are equal. Integer
        /// cross-multiplication keeps exact cells such as 16-on-12 equal.
        #[test]
        fn paper_claim_overshoots_capacity_iff_fast_cores_hold_fewer(
            n in 2u32..512,
            m in 1u32..128,
        ) {
            prop_assume!(n > m && n % m != 0);
            let s = ThreadSplit::new(n, m);
            let (t, sq, fq) = (u64::from(s.t), u64::from(s.slow_cores), u64::from(s.fast_cores));
            let claim = (2 * t + 1) * u64::from(n);
            let capacity = 2 * t * (t + 1) * u64::from(m);
            prop_assert_eq!(claim > capacity, fq * t < sq * (t + 1));
            prop_assert_eq!(claim == capacity, fq * t == sq * (t + 1));
            // The f64 functions order the same way off the exact cells.
            let (p, c) = (paper_asymptotic_speed(n, m), repeated_migration_speed(n, m));
            if claim != capacity {
                prop_assert_eq!(p > c, claim > capacity);
            }
        }

        #[test]
        fn dwrr_between_static_and_one(n in 2u32..512, m in 1u32..128) {
            prop_assume!(n > m && n % m != 0);
            let ql = queue_length_speed(n, m);
            let fair = repeated_migration_speed(n, m);
            prop_assert!(fair >= ql - 1e-12);
            prop_assert!(fair <= 1.0);
        }
    }
}
