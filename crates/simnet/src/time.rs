//! Virtual time.
//!
//! Simulated time is a monotone counter of *ticks*. The simulator interprets
//! one tick as one microsecond when converting delay models expressed in
//! microseconds, but nothing in the crate depends on that interpretation:
//! the paper's complexity claims are in communication *rounds*, which are
//! independent of the tick scale.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in ticks since the start of the run.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`].
///
/// # Examples
///
/// ```
/// use fastreg_simnet::time::SimTime;
///
/// let t = SimTime::ZERO + 5;
/// assert_eq!(t.ticks(), 5);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a `SimTime` from a raw tick count.
    pub fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the raw tick count.
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating difference in ticks (`self - earlier`, or 0 if `earlier`
    /// is later than `self`).
    #[cfg(test)]
    pub(crate) fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_add(rhs))
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, rhs: u64) {
        self.0 = self.0.saturating_add(rhs);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;

    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for SimTime {
    fn from(ticks: u64) -> Self {
        SimTime(ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.ticks(), 0);
    }

    #[test]
    fn add_advances() {
        let t = SimTime::from_ticks(10) + 5;
        assert_eq!(t.ticks(), 15);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::from_ticks(1);
        t += 2;
        assert_eq!(t.ticks(), 3);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_ticks(3);
        let b = SimTime::from_ticks(9);
        assert_eq!(b.since(a), 6);
        assert_eq!(a.since(b), 0);
    }

    #[test]
    fn sub_saturates() {
        let a = SimTime::from_ticks(3);
        let b = SimTime::from_ticks(9);
        assert_eq!(b - a, 6);
        assert_eq!(a - b, 0);
    }

    #[test]
    fn add_saturates_at_max() {
        let t = SimTime::from_ticks(u64::MAX) + 1;
        assert_eq!(t.ticks(), u64::MAX);
    }

    #[test]
    fn ordering_is_total() {
        let mut times = vec![
            SimTime::from_ticks(5),
            SimTime::ZERO,
            SimTime::from_ticks(2),
        ];
        times.sort();
        assert_eq!(
            times,
            vec![
                SimTime::ZERO,
                SimTime::from_ticks(2),
                SimTime::from_ticks(5)
            ]
        );
    }

    #[test]
    fn display_and_debug() {
        let t = SimTime::from_ticks(42);
        assert_eq!(format!("{t}"), "42");
        assert_eq!(format!("{t:?}"), "t=42");
    }

    #[test]
    fn from_u64() {
        let t: SimTime = 7u64.into();
        assert_eq!(t.ticks(), 7);
    }
}
