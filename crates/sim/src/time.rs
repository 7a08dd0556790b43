//! Virtual time types.
//!
//! The simulation clock counts nanoseconds from the start of the run.
//! [`SimTime`] is an absolute instant, [`SimDuration`] a span; both are
//! thin newtypes over `u64` so they are free to copy and compare.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulation clock, in nanoseconds.
///
/// # Examples
///
/// ```
/// use bm_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_us(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use bm_sim::SimDuration;
/// assert_eq!(SimDuration::from_ms(1), SimDuration::from_us(1000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Nanoseconds since simulation start, as a float.
    ///
    /// The one sanctioned ns→float conversion: every report-side cast
    /// goes through here so precision loss past 2^53 ns (~104 days of
    /// simulated time) has a single audit point.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64
    }

    /// Microseconds since simulation start, as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    ///
    /// Prefer [`SimTime::since`] where `earlier <= self` is an invariant:
    /// silent clamping here has hidden time-travel bugs in management
    /// reports before.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Time elapsed since `earlier`.
    ///
    /// Debug builds panic if `earlier` is later than `self` — a
    /// negative elapsed time means an event ran out of order or a
    /// timestamp was recorded from the future, and should fail loudly
    /// in tests rather than be clamped. Release builds saturate to
    /// zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            self >= earlier,
            "time went backwards: {self} is before {earlier}"
        );
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Time elapsed since `earlier`, or `None` if `earlier` is later
    /// than `self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span of `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a span from fractional seconds (rounded to nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be non-negative"
        );
        SimDuration((secs * 1e9).round() as u64)
    }

    /// The span in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in whole nanoseconds, as a float.
    ///
    /// See [`SimTime::as_nanos_f64`]: the single sanctioned ns→float
    /// conversion point for report-side math.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64
    }

    /// The span in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
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
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "time went backwards");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_us(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_ms(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_secs_f64(), 0.25);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_nanos(100);
        let t1 = t0 + SimDuration::from_nanos(50);
        assert_eq!(t1 - t0, SimDuration::from_nanos(50));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
        assert_eq!(t1.saturating_since(t0), SimDuration::from_nanos(50));
        assert_eq!(t0.max(t1), t1);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_us(10);
        assert_eq!(d * 3, SimDuration::from_us(30));
        assert_eq!(d / 2, SimDuration::from_us(5));
        assert_eq!(d + d, SimDuration::from_us(20));
        assert_eq!(d - SimDuration::from_us(4), SimDuration::from_us(6));
        assert_eq!(
            d.saturating_sub(SimDuration::from_us(20)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_nanos(u64::MAX).saturating_add(d),
            SimDuration::from_nanos(u64::MAX)
        );
        let total: SimDuration = vec![d, d, d].into_iter().sum();
        assert_eq!(total, SimDuration::from_us(30));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_us(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_ms(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn since_measures_forward_spans() {
        let t0 = SimTime::from_nanos(100);
        let t1 = t0 + SimDuration::from_nanos(50);
        assert_eq!(t1.since(t0), SimDuration::from_nanos(50));
        assert_eq!(t1.checked_since(t0), Some(SimDuration::from_nanos(50)));
        assert_eq!(t0.checked_since(t1), None);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "time went backwards"))]
    fn since_fails_loudly_on_time_travel() {
        let t0 = SimTime::from_nanos(100);
        let t1 = t0 + SimDuration::from_nanos(50);
        // Debug builds panic; release builds saturate to zero.
        assert_eq!(t0.since(t1), SimDuration::ZERO);
    }
}
