//! Simulated time.
//!
//! All simulated time in the workspace is expressed in integer nanoseconds.
//! [`SimTime`] is an absolute instant since simulation start and
//! [`SimDuration`] is a span between instants. Both are thin `u64` newtypes:
//! cheap to copy, totally ordered, and hashable, with arithmetic that never
//! silently wraps (additions saturate, subtractions are checked in debug
//! builds via `expect`).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time, in nanoseconds since simulation
/// start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

/// Nanoseconds in one microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds in one millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// `x.round() as u64` for every `f64`, without the call to a software
/// `round` that `f64::round` lowers to on the baseline x86-64 target.
/// Below 2^52 truncation and the remainder are both exact, so rounding
/// half away from zero is one compare; at and above 2^52 every double is
/// an integer, and `as u64` saturates NaN, the infinities and negatives
/// just as it does their rounded values.
#[inline]
fn round_u64(x: f64) -> u64 {
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
    if (0.0..TWO_POW_52).contains(&x) {
        let t = x as u64;
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        x as u64
    }
}

impl SimTime {
    /// The instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel for timers that are disabled.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * NANOS_PER_MICRO)
    }

    /// Builds an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Elapsed span since `earlier`. Returns [`SimDuration::ZERO`] if
    /// `earlier` is in the future (clock never runs backwards in the
    /// simulator, but balancer bookkeeping may race benignly).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference between two instants.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// An effectively infinite span, used for disabled timers.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Builds a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Builds a span from fractional seconds, rounding to the nearest
    /// nanosecond and clamping negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_u64(s * NANOS_PER_SEC as f64))
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// This span expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True iff the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a non-negative float, rounding to the nearest
    /// nanosecond. Useful for speed scaling (`duration * (1.0 / core_speed)`).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "negative duration scaling");
        SimDuration(round_u64(self.0 as f64 * factor))
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: subtracted duration before simulation start"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime difference underflow: rhs is later than lhs"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    /// Ratio of two spans (e.g. `exec_time / wall_time` = the paper's
    /// definition of *speed*). Division by a zero span yields 0.0, which is
    /// the natural value for "no wall time has passed yet, no progress".
    fn div(self, rhs: SimDuration) -> f64 {
        if rhs.0 == 0 {
            0.0
        } else {
            self.0 as f64 / rhs.0 as f64
        }
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= NANOS_PER_MICRO {
            write!(f, "{:.3}us", self.0 as f64 / NANOS_PER_MICRO as f64)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3 * NANOS_PER_MILLI);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5 * NANOS_PER_MICRO);
        assert_eq!(SimDuration::from_secs(1).as_secs_f64(), 1.0);
        assert_eq!(SimDuration::from_millis(250).as_millis_f64(), 250.0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!(t + d, SimTime::from_millis(15));
        assert_eq!(t - d, SimTime::from_millis(5));
        assert_eq!(SimTime::from_millis(15) - t, d);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(9);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(8));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn checked_since_detects_order() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert!(early.checked_since(late).is_none());
        assert_eq!(late.checked_since(early), Some(SimDuration::from_millis(1)));
    }

    #[test]
    fn duration_ratio_is_speed() {
        let exec = SimDuration::from_millis(50);
        let wall = SimDuration::from_millis(100);
        assert!((exec / wall - 0.5).abs() < 1e-12);
        assert_eq!(exec / SimDuration::ZERO, 0.0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d.mul_f64(2.0), SimDuration::from_micros(20));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_micros(5));
        assert_eq!(d * 3, SimDuration::from_micros(30));
        assert_eq!(d / 2, SimDuration::from_micros(5));
    }

    #[test]
    fn duration_min_max_sum() {
        let a = SimDuration::from_nanos(3);
        let b = SimDuration::from_nanos(7);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let total: SimDuration = [a, b, a].into_iter().sum();
        assert_eq!(total, SimDuration::from_nanos(13));
    }

    #[test]
    fn round_u64_matches_round_then_cast() {
        let check = |x: f64| {
            assert_eq!(round_u64(x), x.round() as u64, "{x:e} ({:#x})", x.to_bits());
            assert_eq!(round_u64(-x), (-x).round() as u64, "{:e}", -x);
        };
        // Every power of two, subnormals included, and one ulp either side.
        for e in -1074i64..=1023 {
            let bits = if e < -1022 {
                1u64 << (e + 1074)
            } else {
                ((e + 1023) as u64) << 52
            };
            for b in [bits - 1, bits, bits + 1] {
                check(f64::from_bits(b));
            }
        }
        // Halves, and one ulp either side, wherever doubles have them.
        for n in (0..64).map(|k| 1u64 << k).chain(0..1_000) {
            let half = n as f64 + 0.5;
            for b in [half.to_bits() - 1, half.to_bits(), half.to_bits() + 1] {
                check(f64::from_bits(b));
            }
        }
        for x in [
            0.0,
            0.49999999999999994,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            18_446_744_073_709_551_616.0, // 2^64
            f64::MAX,
        ] {
            check(x);
        }
        // A seeded sweep over every bit pattern and over the integer range
        // the simulator's spans live in.
        let mut rng = crate::SimRng::new(0x5EED_2052);
        for _ in 0..1 << 20 {
            check(f64::from_bits(rng.next_u64()));
            check(rng.range_f64(0.0, 9_007_199_254_740_992.0)); // 2^53
            check(rng.range_f64(0.0, 1e7));
        }
    }

    #[test]
    fn from_secs_f64_clamps_and_rounds() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn strict_subtraction_panics() {
        let _ = SimDuration::from_nanos(1) - SimDuration::from_nanos(2);
    }

    #[test]
    fn max_sentinels() {
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
        let t = SimTime::from_secs(1) + SimDuration::MAX;
        assert_eq!(t, SimTime::MAX); // saturates instead of wrapping
    }
}
