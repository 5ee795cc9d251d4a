//! Simulated time.
//!
//! All simulation time is tracked in integer **picoseconds** so that CPU
//! (2 GHz, 500 ps/cycle) and memory (400 MHz, 2500 ps/cycle) clocks compose
//! without rounding drift. [`Time`] is an absolute instant; [`Cycles`] is a
//! duration in clock cycles of some domain and converts through a
//! [`Clock`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute simulated instant, in picoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(pub u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// A sentinel meaning "never" / unreachable future.
    pub const NEVER: Time = Time(u64::MAX);

    /// Construct from nanoseconds.
    #[must_use]
    pub fn from_ns(ns: f64) -> Time {
        Time((ns * 1e3).round() as u64)
    }

    /// This instant expressed in nanoseconds.
    #[must_use]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant expressed in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating difference (`self - earlier`), zero if `earlier` is later.
    #[must_use]
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns())
    }
}

/// A span of simulated time, in picoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from nanoseconds.
    #[must_use]
    pub fn from_ns(ns: f64) -> Duration {
        Duration((ns * 1e3).round() as u64)
    }

    /// This span in nanoseconds.
    #[must_use]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This span in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Scale the span by a ratio, rounding to the nearest picosecond.
    #[must_use]
    pub fn scale(self, ratio: f64) -> Duration {
        Duration((self.0 as f64 * ratio).round() as u64)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    /// # Panics
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Time) -> Duration {
        debug_assert!(self >= rhs, "time went backwards: {self:?} - {rhs:?}");
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

/// A cycle count in some clock domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A clock domain: converts between cycles and picosecond durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clock {
    /// Picoseconds per cycle of this clock.
    ps_per_cycle: u64,
}

impl Clock {
    /// A clock running at `mhz` megahertz.
    ///
    /// # Panics
    /// Panics if `mhz` is zero.
    #[must_use]
    pub fn from_mhz(mhz: u64) -> Clock {
        assert!(mhz > 0, "clock frequency must be nonzero");
        Clock {
            ps_per_cycle: 1_000_000 / mhz,
        }
    }

    /// Picoseconds per cycle.
    #[must_use]
    pub const fn ps_per_cycle(self) -> u64 {
        self.ps_per_cycle
    }

    /// Convert a cycle count into a duration.
    #[must_use]
    pub fn cycles(self, n: u64) -> Duration {
        Duration(n.saturating_mul(self.ps_per_cycle))
    }

    /// Convert a (possibly fractional) cycle count into a duration.
    #[must_use]
    pub fn cycles_f(self, n: f64) -> Duration {
        Duration((n * self.ps_per_cycle as f64).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ns_round_trip() {
        let t = Time::from_ns(150.0);
        assert_eq!(t.0, 150_000);
        assert!((t.as_ns() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn clock_conversions() {
        let cpu = Clock::from_mhz(2000);
        assert_eq!(cpu.ps_per_cycle(), 500);
        assert_eq!(cpu.cycles(4), Duration(2000));
        let mem = Clock::from_mhz(400);
        assert_eq!(mem.ps_per_cycle(), 2500);
    }

    #[test]
    fn time_arithmetic() {
        let a = Time(1000);
        let b = a + Duration(500);
        assert_eq!(b, Time(1500));
        assert_eq!(b - a, Duration(500));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration(500));
    }

    #[test]
    fn duration_scale() {
        let d = Duration::from_ns(150.0);
        assert_eq!(d.scale(4.0), Duration::from_ns(600.0));
        assert_eq!(d.scale(1.5), Duration::from_ns(225.0));
    }

    #[test]
    fn max_min() {
        assert_eq!(Time(3).max(Time(5)), Time(5));
        assert_eq!(Time(3).min(Time(5)), Time(3));
    }

    #[test]
    fn never_is_latest() {
        assert!(Time::NEVER > Time(u64::MAX - 1));
    }

    #[test]
    #[should_panic(expected = "clock frequency must be nonzero")]
    fn zero_frequency_panics() {
        let _ = Clock::from_mhz(0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Time::from_ns(1.5)), "1.500ns");
        assert_eq!(format!("{}", Cycles(7)), "7 cycles");
    }
}
