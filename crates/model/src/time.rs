//! Discrete time: instants ([`Time`]) and durations ([`Dur`]).
//!
//! The simulator and analysis operate on an abstract integer clock. A tick
//! can stand for any real unit (the paper's examples use unit-length steps);
//! all arithmetic is exact, so results are reproducible bit-for-bit.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An instant on the discrete global clock, measured in ticks since time 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

/// A non-negative span of discrete time, in ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dur(u64);

impl Time {
    /// The origin of the clock.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant (used as an "infinite" horizon).
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant `ticks` after the origin.
    pub const fn new(ticks: u64) -> Self {
        Time(ticks)
    }

    /// Ticks elapsed since the origin.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Duration from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`; instants do not go backwards.
    #[track_caller]
    fn duration_since(self, earlier: Time) -> Dur {
        assert!(
            earlier.0 <= self.0,
            "duration_since: {earlier} is after {self}"
        );
        Dur(self.0 - earlier.0)
    }

    /// Duration from `earlier` to `self`, or [`Dur::ZERO`] if `earlier` is
    /// after `self`.
    pub fn saturating_duration_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The instant `d` after `self`, saturating at [`Time::MAX`].
    pub fn saturating_add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl Dur {
    /// The empty duration.
    pub const ZERO: Dur = Dur(0);
    /// The largest representable duration.
    pub const MAX: Dur = Dur(u64::MAX);

    /// Creates a duration of `ticks` ticks.
    pub const fn new(ticks: u64) -> Self {
        Dur(ticks)
    }

    /// Length in ticks.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `self - other`, or [`Dur::ZERO`] if `other` is longer.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// `self + other`, saturating at [`Dur::MAX`].
    pub fn saturating_add(self, other: Dur) -> Dur {
        Dur(self.0.saturating_add(other.0))
    }

    /// `self * k`, saturating at [`Dur::MAX`].
    pub fn saturating_mul(self, k: u64) -> Dur {
        Dur(self.0.saturating_mul(k))
    }

    /// Number of whole periods of length `self` fitting in `span`, rounded
    /// up — the paper's `⌈T_i / T_h⌉` factor.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    #[track_caller]
    pub fn div_ceil_of(self, span: Dur) -> u64 {
        assert!(self.0 > 0, "div_ceil_of: zero period");
        span.0.div_ceil(self.0)
    }

    /// This duration as a fraction of `denom` (`C_i / T_i` utilization
    /// terms).
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    #[track_caller]
    pub fn ratio(self, denom: Dur) -> f64 {
        assert!(denom.0 > 0, "ratio: zero denominator");
        self.0 as f64 / denom.0 as f64
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[track_caller]
    fn add(self, d: Dur) -> Time {
        Time(self.0.checked_add(d.0).expect("Time overflow"))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, d: Dur) {
        *self = *self + d;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[track_caller]
    fn sub(self, earlier: Time) -> Dur {
        self.duration_since(earlier)
    }
}

impl Rem<Dur> for Time {
    type Output = Dur;
    #[track_caller]
    fn rem(self, period: Dur) -> Dur {
        assert!(period.0 > 0, "Time % zero period");
        Dur(self.0 % period.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[track_caller]
    fn add(self, other: Dur) -> Dur {
        Dur(self.0.checked_add(other.0).expect("Dur overflow"))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, other: Dur) {
        *self = *self + other;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[track_caller]
    fn sub(self, other: Dur) -> Dur {
        assert!(other.0 <= self.0, "Dur underflow: {self} - {other}");
        Dur(self.0 - other.0)
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, other: Dur) {
        *self = *self - other;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[track_caller]
    fn mul(self, k: u64) -> Dur {
        Dur(self.0.checked_mul(k).expect("Dur overflow"))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[track_caller]
    fn div(self, k: u64) -> Dur {
        Dur(self.0 / k)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl From<u64> for Dur {
    fn from(ticks: u64) -> Dur {
        Dur(ticks)
    }
}

impl From<u64> for Time {
    fn from(ticks: u64) -> Time {
        Time(ticks)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trip() {
        let t = Time::new(10) + Dur::new(5);
        assert_eq!(t, Time::new(15));
        assert_eq!(t - Time::new(10), Dur::new(5));
        assert_eq!(Dur::new(3) + Dur::new(4), Dur::new(7));
        assert_eq!(Dur::new(10) - Dur::new(4), Dur::new(6));
        assert_eq!(Dur::new(10) * 3, Dur::new(30));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn dur_sub_underflow_panics() {
        let _ = Dur::new(1) - Dur::new(2);
    }

    #[test]
    #[should_panic(expected = "after")]
    fn time_sub_underflow_panics() {
        let _ = Time::new(1) - Time::new(2);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Dur::new(1).saturating_sub(Dur::new(5)), Dur::ZERO);
        assert_eq!(Dur::MAX.saturating_add(Dur::new(1)), Dur::MAX);
        assert_eq!(Time::MAX.saturating_add(Dur::new(1)), Time::MAX);
        assert_eq!(
            Time::new(2).saturating_duration_since(Time::new(9)),
            Dur::ZERO
        );
    }

    #[test]
    fn ceil_division_matches_paper_factor() {
        // ⌈T_i / T_h⌉ with T_i = 10, T_h = 4 is 3.
        assert_eq!(Dur::new(4).div_ceil_of(Dur::new(10)), 3);
        assert_eq!(Dur::new(5).div_ceil_of(Dur::new(10)), 2);
        assert_eq!(Dur::new(10).div_ceil_of(Dur::new(10)), 1);
    }

    #[test]
    fn ratio_is_utilization() {
        assert!((Dur::new(25).ratio(Dur::new(100)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn modulo_gives_phase() {
        assert_eq!(Time::new(23) % Dur::new(10), Dur::new(3));
    }
}
