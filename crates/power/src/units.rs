//! Strongly typed physical quantities used throughout the workspace.
//!
//! The simulator tracks power in watts and energy in joules. Time is carried
//! as plain `u64` seconds (simulation clock ticks) by the RJMS crate; the
//! helpers here convert between the three.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Instantaneous electrical power, in watts.
///
/// A thin newtype over `f64` so that power values cannot be accidentally
/// mixed with energy or time values. All arithmetic that makes physical sense
/// is implemented (`Watts + Watts`, `Watts * f64`, `Watts * seconds ->
/// Joules`, ...).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

/// Energy, in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

impl Watts {
    /// Zero watts.
    pub const ZERO: Watts = Watts(0.0);

    /// Build from a raw watt value.
    #[inline]
    pub fn new(w: f64) -> Self {
        Watts(w)
    }

    /// The raw value in watts.
    #[inline]
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// The value in kilowatts.
    #[inline]
    pub fn as_kilowatts(self) -> f64 {
        self.0 / 1_000.0
    }

    /// The value in megawatts.
    #[inline]
    pub fn as_megawatts(self) -> f64 {
        self.0 / 1_000_000.0
    }

    /// Energy consumed when holding this power during `seconds` seconds.
    #[inline]
    pub fn over_seconds(self, seconds: u64) -> Joules {
        Joules(self.0 * seconds as f64)
    }

    /// Clamp to the non-negative range (used after floating point subtraction).
    #[inline]
    pub fn max_zero(self) -> Watts {
        Watts(self.0.max(0.0))
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Watts) -> Watts {
        Watts(self.0.min(other.0))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Watts) -> Watts {
        Watts(self.0.max(other.0))
    }

    /// `true` when the two power values are within `eps` watts of each other.
    #[inline]
    pub fn approx_eq(self, other: Watts, eps: f64) -> bool {
        (self.0 - other.0).abs() <= eps
    }
}

impl Joules {
    /// Zero joules.
    pub const ZERO: Joules = Joules(0.0);

    /// Build from a raw joule value.
    #[inline]
    pub fn new(j: f64) -> Self {
        Joules(j)
    }

    /// The raw value in joules.
    #[inline]
    pub fn as_joules(self) -> f64 {
        self.0
    }

    /// The value in kilowatt-hours.
    #[inline]
    pub fn as_kwh(self) -> f64 {
        self.0 / 3_600_000.0
    }

    /// The value in megajoules.
    #[inline]
    pub fn as_megajoules(self) -> f64 {
        self.0 / 1_000_000.0
    }

    /// Average power over `seconds` seconds.
    #[inline]
    pub fn average_power(self, seconds: u64) -> Watts {
        if seconds == 0 {
            Watts::ZERO
        } else {
            Watts(self.0 / seconds as f64)
        }
    }

    /// `true` when the two energy values are within `eps` joules of each other.
    #[inline]
    pub fn approx_eq(self, other: Joules, eps: f64) -> bool {
        (self.0 - other.0).abs() <= eps
    }
}

macro_rules! impl_linear_ops {
    ($ty:ident) => {
        impl Add for $ty {
            type Output = $ty;
            #[inline]
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }
        impl AddAssign for $ty {
            #[inline]
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            #[inline]
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }
        impl SubAssign for $ty {
            #[inline]
            fn sub_assign(&mut self, rhs: $ty) {
                self.0 -= rhs.0;
            }
        }
        impl Neg for $ty {
            type Output = $ty;
            #[inline]
            fn neg(self) -> $ty {
                $ty(-self.0)
            }
        }
        impl Mul<f64> for $ty {
            type Output = $ty;
            #[inline]
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }
        impl Mul<$ty> for f64 {
            type Output = $ty;
            #[inline]
            fn mul(self, rhs: $ty) -> $ty {
                $ty(self * rhs.0)
            }
        }
        impl Div<f64> for $ty {
            type Output = $ty;
            #[inline]
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }
        impl Div<$ty> for $ty {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $ty) -> f64 {
                self.0 / rhs.0
            }
        }
        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                $ty(iter.map(|v| v.0).sum())
            }
        }
        impl<'a> Sum<&'a $ty> for $ty {
            fn sum<I: Iterator<Item = &'a $ty>>(iter: I) -> $ty {
                $ty(iter.map(|v| v.0).sum())
            }
        }
    };
}

impl_linear_ops!(Watts);
impl_linear_ops!(Joules);

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1_000_000.0 {
            write!(f, "{:.3} MW", self.as_megawatts())
        } else if self.0.abs() >= 1_000.0 {
            write!(f, "{:.2} kW", self.as_kilowatts())
        } else {
            write!(f, "{:.1} W", self.0)
        }
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 3_600_000.0 {
            write!(f, "{:.3} kWh", self.as_kwh())
        } else if self.0.abs() >= 1_000_000.0 {
            write!(f, "{:.2} MJ", self.as_megajoules())
        } else {
            write!(f, "{:.1} J", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_arithmetic() {
        let a = Watts(100.0);
        let b = Watts(58.0);
        assert_eq!((a + b).as_watts(), 158.0);
        assert_eq!((a - b).as_watts(), 42.0);
        assert_eq!((a * 2.0).as_watts(), 200.0);
        assert_eq!((2.0 * a).as_watts(), 200.0);
        assert_eq!((a / 4.0).as_watts(), 25.0);
        assert_eq!(a / b, 100.0 / 58.0);
        assert_eq!((-a).as_watts(), -100.0);
    }

    #[test]
    fn watts_accumulate() {
        let mut p = Watts::ZERO;
        p += Watts(14.0);
        p += Watts(117.0);
        p -= Watts(14.0);
        assert!(p.approx_eq(Watts(117.0), 1e-9));
    }

    #[test]
    fn power_times_time_is_energy() {
        let p = Watts(358.0);
        let e = p.over_seconds(3600);
        assert!(e.approx_eq(Joules(358.0 * 3600.0), 1e-6));
        assert!((e.as_kwh() - 0.358).abs() < 1e-9);
    }

    #[test]
    fn energy_average_power() {
        let e = Joules(7200.0);
        assert_eq!(e.average_power(3600).as_watts(), 2.0);
        assert_eq!(e.average_power(0).as_watts(), 0.0);
    }

    #[test]
    fn sums_over_iterators() {
        let total: Watts = [Watts(1.0), Watts(2.0), Watts(3.5)].iter().sum();
        assert!(total.approx_eq(Watts(6.5), 1e-12));
        let total_e: Joules = vec![Joules(10.0), Joules(20.0)].into_iter().sum();
        assert!(total_e.approx_eq(Joules(30.0), 1e-12));
    }

    #[test]
    fn display_units_scale() {
        assert_eq!(format!("{}", Watts(500.0)), "500.0 W");
        assert_eq!(format!("{}", Watts(1_500.0)), "1.50 kW");
        assert_eq!(format!("{}", Watts(1_804_320.0)), "1.804 MW");
        assert_eq!(format!("{}", Joules(100.0)), "100.0 J");
        assert_eq!(format!("{}", Joules(2_000_000.0)), "2.00 MJ");
        assert!(format!("{}", Joules(7_200_000.0)).ends_with("kWh"));
    }

    #[test]
    fn min_max_clamp() {
        assert_eq!(Watts(3.0).min(Watts(4.0)).as_watts(), 3.0);
        assert_eq!(Watts(3.0).max(Watts(4.0)).as_watts(), 4.0);
        assert_eq!((Watts(3.0) - Watts(4.0)).max_zero().as_watts(), 0.0);
    }
}
