//! The generic dimensioned quantity at the heart of `finrad-units`.
//!
//! [`Quantity<M, L, T, I>`] wraps an `f64` stored in SI base units and
//! carries the exponents of the four SI base dimensions this workspace
//! needs — **M**ass, **L**ength, **T**ime, electric current **I** — as
//! type-level integers from [`crate::tyint`]. `Mul`/`Div` between any two
//! quantities add and subtract the exponents in the type system, so *every*
//! dimensionally valid product or quotient works out of the box
//! (`Energy / Charge → Voltage`, `Charge / Time → Current`,
//! `Flux · Area · Time → Dimensionless`) and every invalid one is rejected
//! at compile time. The former hand-enumerated `impl Mul`/`impl Div` matrix
//! is gone.
//!
//! Same-dimension comparison helpers come in two flavours: the lenient
//! `PartialOrd` operators, and the total-order [`Quantity::cmp_total`] /
//! [`Quantity::qmin`] / [`Quantity::qmax`] family built on
//! [`f64::total_cmp`], which the workspace float-discipline rules require
//! at interpolation/fit call sites (NaN never silently wins or loses an
//! ordering there).
//!
//! The raw-`f64` escape hatches [`Quantity::si_value`] and
//! [`Quantity::from_si`] exist for generic numeric plumbing (units
//! internals, checkpoint serialization, SPICE MNA assembly) and are policed
//! everywhere else by the `raw-escape-audit` lint family of
//! `cargo xtask lint`, which is pinned at zero findings in CI.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum as IterSum;
use std::marker::PhantomData;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::tyint::{Diff, Integer, Sum, TyAdd, TySub, Z0};

/// An `f64`-backed physical quantity with compile-time dimension exponents.
///
/// `M`, `L`, `T`, `I` are type-level integers ([`crate::tyint`]) encoding
/// the exponents of mass, length, time and electric current. The value is
/// always stored in coherent SI base units; the dimension-specific aliases
/// in the crate root ([`crate::Energy`], [`crate::Charge`], …) add the
/// domain constructors and accessors (`from_kev`, `femtocoulombs`, …).
///
/// # Examples
///
/// ```
/// use finrad_units::{Charge, Current, Energy, Time, Voltage};
///
/// let q = Charge::from_fc(1.5);
/// let tau = Time::from_ps(2.0);
/// let i: Current = q / tau; // Charge / Time → Current, checked at compile time
/// assert!((i * tau - q).abs() < Charge::from_fc(1e-12));
///
/// let v: Voltage = Energy::from_ev(1.0) / Charge::from_electrons(1.0);
/// assert!((v.volts() - 1.0).abs() < 1e-12);
/// ```
pub struct Quantity<M, L, T, I> {
    value: f64,
    _dim: PhantomData<(M, L, T, I)>,
}

/// A dimensionless quantity — the result of, e.g., a ratio of two like
/// quantities or a fully cancelled product such as `Flux · Area · Time`.
///
/// Convert to a bare `f64` with [`Quantity::value`]; that accessor is the
/// sanctioned read-out (unlike `si_value`, it is not policed by the
/// `raw-escape-audit` lint because no dimension information is lost).
pub type Dimensionless = Quantity<Z0, Z0, Z0, Z0>;

impl<M, L, T, I> Quantity<M, L, T, I> {
    /// The zero value of this quantity.
    pub const ZERO: Self = Self::from_si(0.0);

    /// Builds the quantity from a raw SI base-unit value.
    ///
    /// This is a raw escape hatch: outside units internals, checkpoint
    /// serialization and SPICE MNA assembly, the `raw-escape-audit` lint
    /// reports every call site. Prefer the named domain constructors
    /// (`from_kev`, `from_nm`, …).
    #[inline]
    pub const fn from_si(value: f64) -> Self {
        Self {
            value,
            _dim: PhantomData,
        }
    }

    /// Raw value in the coherent SI base unit of this quantity.
    ///
    /// This is a raw escape hatch policed by the `raw-escape-audit` lint;
    /// prefer the named accessors (`meters()`, `mev()`, …) in domain code.
    #[inline]
    pub const fn si_value(self) -> f64 {
        self.value
    }

    /// Returns `true` if the underlying value is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.value.is_finite()
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Self::from_si(self.value.abs())
    }

    /// The smaller of `self` and `other` under the IEEE 754 total order
    /// ([`f64::total_cmp`]); NaN orders above every real value, so a NaN
    /// operand never masks a finite minimum.
    #[inline]
    pub fn qmin(self, other: Self) -> Self {
        match self.value.total_cmp(&other.value) {
            Ordering::Greater => other,
            _ => self,
        }
    }

    /// The larger of `self` and `other` under the IEEE 754 total order;
    /// the counterpart of [`Quantity::qmin`].
    #[inline]
    pub fn qmax(self, other: Self) -> Self {
        match self.value.total_cmp(&other.value) {
            Ordering::Less => other,
            _ => self,
        }
    }

    /// Total ordering between two like quantities via [`f64::total_cmp`].
    ///
    /// Use this (not `partial_cmp().unwrap()`) when sorting or bisecting
    /// over quantities; it is the workspace float-discipline idiom.
    #[inline]
    pub fn cmp_total(&self, other: &Self) -> Ordering {
        self.value.total_cmp(&other.value)
    }

    /// Clamps `self` into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        assert!(lo.value <= hi.value, "clamp bounds inverted");
        Self::from_si(self.value.clamp(lo.value, hi.value))
    }
}

impl Dimensionless {
    /// Wraps a bare `f64` as a dimensionless quantity.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Self::from_si(value)
    }

    /// The bare numeric value; the sanctioned way back to `f64` (no
    /// dimension information is discarded, so the `raw-escape-audit` lint
    /// does not police this accessor).
    #[inline]
    pub const fn value(self) -> f64 {
        self.value
    }
}

impl From<f64> for Dimensionless {
    #[inline]
    fn from(value: f64) -> Self {
        Self::new(value)
    }
}

impl From<Dimensionless> for f64 {
    #[inline]
    fn from(q: Dimensionless) -> f64 {
        q.value()
    }
}

// Manual trait impls: derives would place bounds on the phantom dimension
// parameters, which are pure markers.

impl<M, L, T, I> Clone for Quantity<M, L, T, I> {
    #[inline]
    fn clone(&self) -> Self {
        *self
    }
}

impl<M, L, T, I> Copy for Quantity<M, L, T, I> {}

impl<M, L, T, I> Default for Quantity<M, L, T, I> {
    #[inline]
    fn default() -> Self {
        Self::ZERO
    }
}

impl<M, L, T, I> PartialEq for Quantity<M, L, T, I> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl<M, L, T, I> PartialOrd for Quantity<M, L, T, I> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.value.partial_cmp(&other.value)
    }
}

// ------------------------------------------------------------------
// Same-dimension arithmetic
// ------------------------------------------------------------------

impl<M, L, T, I> Add for Quantity<M, L, T, I> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::from_si(self.value + rhs.value)
    }
}

impl<M, L, T, I> AddAssign for Quantity<M, L, T, I> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.value += rhs.value;
    }
}

impl<M, L, T, I> Sub for Quantity<M, L, T, I> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::from_si(self.value - rhs.value)
    }
}

impl<M, L, T, I> SubAssign for Quantity<M, L, T, I> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.value -= rhs.value;
    }
}

impl<M, L, T, I> Neg for Quantity<M, L, T, I> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::from_si(-self.value)
    }
}

impl<M, L, T, I> IterSum for Quantity<M, L, T, I> {
    fn sum<It: Iterator<Item = Self>>(iter: It) -> Self {
        Self::from_si(iter.map(|q| q.value).sum())
    }
}

// ------------------------------------------------------------------
// Scaling by bare f64
// ------------------------------------------------------------------

impl<M, L, T, I> Mul<f64> for Quantity<M, L, T, I> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self::from_si(self.value * rhs)
    }
}

impl<M, L, T, I> Mul<Quantity<M, L, T, I>> for f64 {
    type Output = Quantity<M, L, T, I>;
    #[inline]
    fn mul(self, rhs: Quantity<M, L, T, I>) -> Quantity<M, L, T, I> {
        Quantity::from_si(self * rhs.value)
    }
}

impl<M, L, T, I> MulAssign<f64> for Quantity<M, L, T, I> {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        self.value *= rhs;
    }
}

impl<M, L, T, I> Div<f64> for Quantity<M, L, T, I> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::from_si(self.value / rhs)
    }
}

impl<M, L, T, I> DivAssign<f64> for Quantity<M, L, T, I> {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        self.value /= rhs;
    }
}

// ------------------------------------------------------------------
// Cross-dimension arithmetic: exponents add/subtract in the type system
// ------------------------------------------------------------------

impl<M1, L1, T1, I1, M2, L2, T2, I2> Mul<Quantity<M2, L2, T2, I2>> for Quantity<M1, L1, T1, I1>
where
    M1: TyAdd<M2>,
    L1: TyAdd<L2>,
    T1: TyAdd<T2>,
    I1: TyAdd<I2>,
{
    type Output = Quantity<Sum<M1, M2>, Sum<L1, L2>, Sum<T1, T2>, Sum<I1, I2>>;
    #[inline]
    fn mul(self, rhs: Quantity<M2, L2, T2, I2>) -> Self::Output {
        Quantity::from_si(self.value * rhs.value)
    }
}

impl<M1, L1, T1, I1, M2, L2, T2, I2> Div<Quantity<M2, L2, T2, I2>> for Quantity<M1, L1, T1, I1>
where
    M1: TySub<M2>,
    L1: TySub<L2>,
    T1: TySub<T2>,
    I1: TySub<I2>,
{
    type Output = Quantity<Diff<M1, M2>, Diff<L1, L2>, Diff<T1, T2>, Diff<I1, I2>>;
    #[inline]
    fn div(self, rhs: Quantity<M2, L2, T2, I2>) -> Self::Output {
        Quantity::from_si(self.value / rhs.value)
    }
}

// ------------------------------------------------------------------
// Formatting
// ------------------------------------------------------------------

/// The conventional symbol for a dimension-exponent vector, for the
/// combinations this workspace names; `None` falls back to the composed
/// `kg^a m^b s^c A^d` form.
fn dim_label(m: i32, l: i32, t: i32, i: i32) -> Option<&'static str> {
    match (m, l, t, i) {
        (0, 0, 0, 0) => Some(""),
        (1, 2, -2, 0) => Some("J"),
        (0, 1, 0, 0) => Some("m"),
        (0, 0, 1, 0) => Some("s"),
        (0, 0, 1, 1) => Some("C"),
        (0, 0, 0, 1) => Some("A"),
        (1, 2, -3, -1) => Some("V"),
        (0, 2, 0, 0) => Some("m^2"),
        (0, 3, 0, 0) => Some("m^3"),
        (1, 1, -2, 0) => Some("J/m"),
        (0, -2, -1, 0) => Some("1/(m^2 s)"),
        _ => None,
    }
}

fn fmt_with_label(
    f: &mut fmt::Formatter<'_>,
    value: f64,
    (m, l, t, i): (i32, i32, i32, i32),
) -> fmt::Result {
    match dim_label(m, l, t, i) {
        Some("") => write!(f, "{value}"),
        Some(label) => write!(f, "{value} {label}"),
        None => {
            write!(f, "{value}")?;
            for (sym, exp) in [("kg", m), ("m", l), ("s", t), ("A", i)] {
                if exp != 0 {
                    write!(f, " {sym}^{exp}")?;
                }
            }
            Ok(())
        }
    }
}

impl<M: Integer, L: Integer, T: Integer, I: Integer> fmt::Display for Quantity<M, L, T, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_with_label(f, self.value, (M::I32, L::I32, T::I32, I::I32))
    }
}

impl<M: Integer, L: Integer, T: Integer, I: Integer> fmt::Debug for Quantity<M, L, T, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Quantity(")?;
        fmt_with_label(f, self.value, (M::I32, L::I32, T::I32, I::I32))?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Area, Charge, Current, Energy, Flux, Length, Time, Voltage, Volume};

    #[test]
    fn generic_products_and_quotients_resolve_to_named_aliases() {
        // Every annotation here is a *type-level* assertion: a wrong
        // dimension on the right-hand side would not compile.
        let v: Voltage = Energy::from_ev(2.0) / Charge::from_electrons(1.0);
        assert!((v.volts() - 2.0).abs() < 1e-12);

        let i: Current = Charge::from_fc(4.0) / Time::from_ps(2.0);
        assert!((i.amperes() - 2.0e-3).abs() < 1e-15);

        let e: Energy = Charge::from_coulombs(3.0) * Voltage::from_volts(2.0);
        assert!((e.joules() - 6.0).abs() < 1e-12);

        let a: Area = Length::from_meters(3.0) * Length::from_meters(2.0);
        let vol: Volume = a * Length::from_meters(0.5);
        assert!((vol.si_value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fully_cancelled_products_are_dimensionless() {
        let f = Flux::from_per_m2_second(5.0);
        let n: Dimensionless = f * Area::from_square_meters(2.0) * Time::from_seconds(3.0);
        assert!((n.value() - 30.0).abs() < 1e-12);
        let r: Dimensionless = Energy::from_mev(4.0) / Energy::from_mev(2.0);
        assert!((r.value() - 2.0).abs() < 1e-12);
        assert!((f64::from(r) - 2.0).abs() < 1e-12);
        assert!((Dimensionless::from(2.0).value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn qmin_qmax_are_nan_sound() {
        let nan = Energy::from_si(f64::NAN);
        let one = Energy::from_joules(1.0);
        // total_cmp orders NaN above every real value: the finite operand
        // always wins qmin and loses qmax, regardless of operand order.
        assert_eq!(nan.qmin(one), one);
        assert_eq!(one.qmin(nan), one);
        assert!(one.qmax(nan).si_value().is_nan());
        assert!(nan.qmax(one).si_value().is_nan());
        assert_eq!(one.cmp_total(&nan), Ordering::Less);
    }

    #[test]
    fn qmin_qmax_agree_with_order_on_finite_values() {
        let lo = Voltage::from_mv(700.0);
        let hi = Voltage::from_mv(1100.0);
        assert_eq!(lo.qmin(hi), lo);
        assert_eq!(hi.qmin(lo), lo);
        assert_eq!(lo.qmax(hi), hi);
        assert_eq!(hi.qmax(lo), hi);
        assert_eq!(lo.cmp_total(&hi), Ordering::Less);
    }

    #[test]
    fn display_and_debug_labels() {
        assert_eq!(format!("{}", Voltage::from_volts(0.5)), "0.5 V");
        assert_eq!(format!("{}", Dimensionless::new(2.0)), "2");
        // An unnamed composite falls back to the exponent vector.
        let odd = Voltage::from_volts(1.0) * Voltage::from_volts(1.0);
        assert_eq!(format!("{odd}"), "1 kg^2 m^4 s^-6 A^-2");
        assert_eq!(format!("{:?}", Length::from_meters(2.0)), "Quantity(2 m)");
    }

    #[test]
    fn defaults_and_zero() {
        assert_eq!(Energy::default(), Energy::ZERO);
        assert_eq!(Energy::ZERO.si_value(), 0.0);
    }
}
