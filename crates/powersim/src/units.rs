//! Dimensional newtypes for the power/energy quantities that cross crate
//! APIs: [`Watts`] (power, RAPL caps) and [`Joules`] (energy).
//!
//! The paper's tables are built from exactly these two quantities plus
//! seconds, and the historical failure mode is silently mixing them in
//! raw `f64` arithmetic. The newtypes make same-unit arithmetic
//! (`+`, `-`, scaling, ratios) ergonomic while forcing every W·s ↔ J
//! conversion through a named method:
//!
//! * [`Watts::for_duration`] — power integrated over seconds → energy;
//! * [`Joules::over_seconds`] — energy averaged over seconds → power.
//!
//! Dividing two values of the same unit yields a dimensionless `f64`
//! ratio (`Pratio`, `Eratio`), and comparisons against bare `f64`
//! literals are allowed in both directions so thresholds like
//! `cap >= 60.0` keep reading naturally. Mixing the two units is a
//! type error, not a lint finding — there is no cross-unit `Add` or
//! `PartialOrd`. Same-unit arithmetic compiles:
//!
//! ```
//! # use powersim::units::{Joules, Watts};
//! let _ = Watts(1.0) + Watts(1.0);
//! let _ = Joules(1.0) < Joules(2.0);
//! ```
//!
//! and the same lines across units are rejected with the error codes
//! rustc reports for them (rustdoc compares the codes on nightly
//! toolchains; on stable the passing example above is what shows the
//! imports resolve, so neither failure can be a privacy error):
//!
//! ```compile_fail,E0308
//! # use powersim::units::{Joules, Watts};
//! let _ = Watts(1.0) + Joules(1.0);
//! ```
//!
//! ```compile_fail,E0277
//! # use powersim::units::{Joules, Watts};
//! let _ = Watts(1.0) < Joules(1.0);
//! ```
//!
//! What the compiler cannot see is a quantity that never entered a
//! newtype, so `cargo xtask lint` (unit-safety) rejects any
//! watt-/joule-named raw `f64` binding, field or return type outside
//! this file.
//!
//! Both types serialize transparently as plain numbers, so report and
//! JSON output are unchanged by the migration.

#![deny(missing_docs)]

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

macro_rules! unit_newtype {
    ($name:ident, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity (additive identity for sums).
            pub const ZERO: $name = $name(0.0);

            /// The raw magnitude, shedding the unit. Prefer keeping the
            /// newtype; this is the escape hatch for plotting/tabulation.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Absolute value, keeping the unit.
            #[inline]
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }

            /// The smaller of two same-unit quantities.
            #[inline]
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// The larger of two same-unit quantities.
            #[inline]
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Clamp into the closed same-unit range `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: $name, hi: $name) -> $name {
                $name(self.0.clamp(lo.0, hi.0))
            }

            /// Total order over magnitudes (IEEE 754 `totalOrder`), for
            /// sorting sample series that may contain NaN.
            #[inline]
            pub fn total_cmp(&self, other: &$name) -> Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        /// Formats as the bare magnitude (honouring width/precision), so
        /// `{:>5.0}` table columns are unchanged by the newtype.
        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        /// Scaling by a dimensionless factor keeps the unit.
        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, k: f64) -> $name {
                $name(self.0 * k)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, k: f64) -> $name {
                $name(self.0 / k)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        /// Same-unit division is a dimensionless ratio.
        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|x| x.0).sum())
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a $name>>(iter: I) -> $name {
                $name(iter.map(|x| x.0).sum())
            }
        }

        impl PartialEq<f64> for $name {
            #[inline]
            fn eq(&self, other: &f64) -> bool {
                self.0 == *other
            }
        }

        impl PartialEq<$name> for f64 {
            #[inline]
            fn eq(&self, other: &$name) -> bool {
                *self == other.0
            }
        }

        impl PartialOrd<f64> for $name {
            #[inline]
            fn partial_cmp(&self, other: &f64) -> Option<Ordering> {
                self.0.partial_cmp(other)
            }
        }

        impl PartialOrd<$name> for f64 {
            #[inline]
            fn partial_cmp(&self, other: &$name) -> Option<Ordering> {
                self.partial_cmp(&other.0)
            }
        }
    };
}

unit_newtype!(Watts, "Power in watts (RAPL caps, package draw, TDP).");
unit_newtype!(
    Joules,
    "Energy in joules (RAPL energy counters, E and EDP views)."
);

impl Watts {
    /// Integrate this power over a duration: `P · t` in joules. The only
    /// sanctioned W → J conversion.
    #[inline]
    pub fn for_duration(self, seconds: f64) -> Joules {
        Joules(self.0 * seconds)
    }
}

impl Joules {
    /// Average this energy over a duration: `E / t` in watts. The only
    /// sanctioned J → W conversion.
    #[inline]
    pub fn over_seconds(self, seconds: f64) -> Watts {
        Watts(self.0 / seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_unit_arithmetic_and_ratios() {
        let a = Watts(120.0);
        let b = Watts(40.0);
        assert_eq!(a + b, Watts(160.0));
        assert_eq!(a - b, Watts(80.0));
        assert_eq!(a / b, 3.0);
        assert_eq!(a * 0.5, Watts(60.0));
        assert_eq!(0.5 * a, Watts(60.0));
        assert_eq!(a / 2.0, Watts(60.0));
        let mut acc = Watts::ZERO;
        acc += a;
        acc -= b;
        assert_eq!(acc, Watts(80.0));
    }

    #[test]
    fn conversions_go_through_named_methods() {
        let e = Watts(50.0).for_duration(4.0);
        assert_eq!(e, Joules(200.0));
        assert_eq!(e.over_seconds(4.0), Watts(50.0));
    }

    #[test]
    fn comparisons_against_bare_f64_work_both_ways() {
        let cap = Watts(70.0);
        assert!(cap >= 60.0);
        assert!(40.0 < cap);
        assert!(cap == 70.0);
        assert!((60.0..=90.0).contains(&cap));
    }

    #[test]
    fn helpers_min_max_clamp_abs_sum() {
        let lo = Watts(40.0);
        let hi = Watts(120.0);
        assert_eq!(Watts(200.0).clamp(lo, hi), hi);
        assert_eq!(lo.max(hi), hi);
        assert_eq!(lo.min(hi), lo);
        assert_eq!((lo - hi).abs(), Watts(80.0));
        let total: Joules = [Joules(1.0), Joules(2.5)].into_iter().sum();
        assert_eq!(total, Joules(3.5));
        let total_ref: Joules = [Joules(1.0), Joules(2.5)].iter().sum();
        assert_eq!(total_ref, Joules(3.5));
    }

    #[test]
    fn display_passes_width_and_precision_through() {
        assert_eq!(format!("{:>6.1}", Watts(70.25)), "  70.2");
        assert_eq!(format!("{:.0}", Joules(19.6)), "20");
    }
}
