//! Simulated time.
//!
//! The paper's timing parameters (Table 1) are in microseconds and milliseconds;
//! the simulator needs to add and compare them exactly, so [`SimTime`] is a
//! fixed-point nanosecond counter rather than a float.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or duration of) simulated time with nanosecond resolution.
///
/// `SimTime` is deliberately a single type used both for instants and
/// durations — the simulator's arithmetic is simple enough that a separate
/// `SimDuration` type would add noise without catching real bugs, and the
/// paper's equations (Eq. 2–5) freely mix the two.
///
/// # Example
///
/// ```
/// use rr_util::time::SimTime;
/// let t = SimTime::from_us(24) + SimTime::from_us(5) + SimTime::from_us(10);
/// assert_eq!(t.as_us_f64(), 39.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero / the zero duration.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time (used as an "infinite" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from fractional microseconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        assert!(us.is_finite() && us >= 0.0, "invalid duration: {us} µs");
        SimTime((us * 1_000.0).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// This time expressed in (truncated) microseconds.
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// This time expressed in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction; `a.saturating_sub(b)` is zero when `b > a`.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Scales a duration by a dimensionless factor, rounding to nanoseconds.
    ///
    /// Used for the AR² sensing-latency reduction ratio ρ (Eq. 5).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn scale(self, factor: f64) -> SimTime {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        SimTime((self.0 as f64 * factor).round() as u64)
    }

    /// Multiplies a duration by an integer count.
    #[inline]
    pub const fn mul(self, count: u64) -> SimTime {
        SimTime(self.0 * count)
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000_000.0)
        } else if ns >= 1_000 {
            write!(f, "{:.3}µs", self.as_us_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl core::iter::Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
    }

    #[test]
    fn table1_sense_latency_arithmetic() {
        // tPRE + tEVAL + tDISCH = 24 + 5 + 10 = 39 µs (paper §4).
        let sense = SimTime::from_us(24) + SimTime::from_us(5) + SimTime::from_us(10);
        assert_eq!(sense.as_us(), 39);
        // A CSB page needs 3 sensings: 117 µs.
        assert_eq!(sense.mul(3).as_us(), 117);
    }

    #[test]
    fn scale_rounds_to_ns() {
        let t = SimTime::from_us(24);
        // 47 % tPRE reduction leaves 53 %: 12.72 µs.
        assert_eq!(t.scale(0.53), SimTime::from_ns(12_720));
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = SimTime::from_us(5);
        let b = SimTime::from_us(9);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a), SimTime::from_us(4));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_ns(12).to_string(), "12ns");
        assert_eq!(SimTime::from_us(90).to_string(), "90.000µs");
        assert_eq!(SimTime::from_ms(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_ms(2_000).to_string(), "2.000s");
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_us(1);
        let b = SimTime::from_us(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_over_iterator() {
        let total: SimTime = (1..=4).map(SimTime::from_us).sum();
        assert_eq!(total, SimTime::from_us(10));
    }
}
