//! Compile-time dimensional analysis for the `finrad` workspace.
//!
//! Every physical value that crosses a crate boundary in `finrad` is a
//! [`Quantity<M, L, T, I>`] — an `f64` in SI base units tagged with the
//! exponents of the four SI base dimensions the workspace needs (mass,
//! length, time, electric current) as type-level integers ([`tyint`]).
//! The familiar names ([`Energy`], [`Length`], [`Time`], [`Charge`],
//! [`Current`], [`Voltage`], [`Area`], [`Volume`], [`StoppingPower`],
//! [`Flux`]) are aliases of `Quantity` at fixed exponents, each carrying
//! the constructors and accessors natural in the radiation/soft-error
//! domain (MeV, nm, fs, fC, …).
//!
//! `Mul` and `Div` between *any* two quantities add and subtract the
//! dimension exponents in the type system, so every dimensionally valid
//! product or quotient simply works — `Energy / Charge → Voltage`,
//! `Charge / Time → Current`, `Energy / Length → StoppingPower`,
//! `Flux · Area · Time → Dimensionless` — and every invalid one is a
//! compile error (see *Dimensional safety* below). There is no
//! hand-enumerated cross-dimension `impl` matrix to fall out of date.
//!
//! # Examples
//!
//! ```
//! use finrad_units::{Energy, Length, Charge, constants};
//!
//! let deposited = Energy::from_kev(3.6);
//! let pairs = (deposited / constants::EHP_PAIR_ENERGY).value();
//! assert!((pairs - 1000.0).abs() < 1e-9);
//!
//! let fin_width = Length::from_nm(8.0);
//! assert!((fin_width.meters() - 8.0e-9).abs() < 1e-24);
//!
//! let q = Charge::from_electrons(1000.0);
//! assert!((q.femtocoulombs() - 0.1602176634).abs() < 1e-9);
//! ```
//!
//! # Dimensional safety
//!
//! Dimensionally invalid expressions are rejected by the compiler. Each of
//! the following is a `compile_fail` doctest — the CI gate runs them and
//! fails if any of them *starts* compiling.
//!
//! Adding quantities of different dimensions (an MeV-vs-fC slip):
//!
//! ```compile_fail,E0308
//! use finrad_units::{Charge, Energy};
//! let _ = Energy::from_kev(10.0) + Charge::from_fc(1.0);
//! ```
//!
//! Subtracting a time from an energy:
//!
//! ```compile_fail,E0308
//! use finrad_units::{Energy, Time};
//! let _ = Energy::from_mev(1.0) - Time::from_ps(1.0);
//! ```
//!
//! Passing a `Length` where a `Time` is expected:
//!
//! ```compile_fail,E0308
//! use finrad_units::{Length, Time};
//! fn pulse_width(tau: Time) -> f64 { tau.picoseconds() }
//! let _ = pulse_width(Length::from_nm(10.0));
//! ```
//!
//! `Voltage · Voltage` is not an `Energy`:
//!
//! ```compile_fail,E0308
//! use finrad_units::{Energy, Voltage};
//! let _: Energy = Voltage::from_volts(0.8) * Voltage::from_volts(0.8);
//! ```
//!
//! `Charge / Length` is not a `Current` (only `Charge / Time` is):
//!
//! ```compile_fail,E0308
//! use finrad_units::{Charge, Current, Length};
//! let _: Current = Charge::from_fc(1.0) / Length::from_nm(5.0);
//! ```
//!
//! Ordering comparisons only exist between like dimensions:
//!
//! ```compile_fail,E0308
//! use finrad_units::{Charge, Energy};
//! let _ = Energy::from_ev(1.0) < Charge::from_fc(1.0);
//! ```
//!
//! Compound assignment cannot mix dimensions either:
//!
//! ```compile_fail
//! use finrad_units::{Charge, Energy};
//! let mut e = Energy::from_mev(1.0);
//! e += Charge::from_fc(1.0);
//! ```
//!
//! `Flux · Area` alone is not dimensionless — the exposure time is missing:
//!
//! ```compile_fail,E0308
//! use finrad_units::{Area, Dimensionless, Flux};
//! let _: Dimensionless = Flux::from_per_m2_second(1.0) * Area::from_square_meters(1.0);
//! ```
//!
//! Reading a quantity out in another dimension's unit is a missing method:
//!
//! ```compile_fail,E0599
//! use finrad_units::Energy;
//! let _ = Energy::from_mev(1.0).volts();
//! ```
//!
//! Exponents are bounded to `[-8, +8]`; a runaway product leaves the range
//! and stops compiling instead of silently wrapping:
//!
//! ```compile_fail,E0277
//! use finrad_units::{Length, Volume};
//! let v: Volume = Length::from_nm(1.0) * Length::from_nm(1.0) * Length::from_nm(1.0);
//! let _ = v * v * v; // m^9 is out of the supported exponent range
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::float_cmp,
        clippy::let_underscore_must_use
    )
)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

use std::fmt;

pub mod quantity;
pub mod tyint;

pub use quantity::{Dimensionless, Quantity};

use tyint::{N1, N2, N3, P1, P2, P3, Z0};

/// Particle or deposited energy (`M·L²·T⁻²`). SI base unit: joule.
///
/// ```
/// use finrad_units::Energy;
/// let e = Energy::from_mev(1.0);
/// assert!((e.kev() - 1000.0).abs() < 1e-9);
/// ```
pub type Energy = Quantity<P1, P2, N2, Z0>;

/// Spatial extent (`L`). SI base unit: metre.
///
/// ```
/// use finrad_units::Length;
/// assert!((Length::from_nm(1000.0).micrometers() - 1.0).abs() < 1e-12);
/// ```
pub type Length = Quantity<Z0, P1, Z0, Z0>;

/// Elapsed time or pulse width (`T`). SI base unit: second.
///
/// ```
/// use finrad_units::Time;
/// assert!((Time::from_fs(1.0e6).nanoseconds() - 1.0).abs() < 1e-12);
/// ```
pub type Time = Quantity<Z0, Z0, P1, Z0>;

/// Electric charge (`T·I`). SI base unit: coulomb.
///
/// ```
/// use finrad_units::Charge;
/// let q = Charge::from_fc(1.0);
/// assert!(q.electrons() > 6000.0);
/// ```
pub type Charge = Quantity<Z0, Z0, P1, P1>;

/// Electric current (`I`). SI base unit: ampere.
///
/// ```
/// use finrad_units::Current;
/// assert!((Current::from_ua(1.0).amperes() - 1.0e-6).abs() < 1e-18);
/// ```
pub type Current = Quantity<Z0, Z0, Z0, P1>;

/// Electric potential (`M·L²·T⁻³·I⁻¹`). SI base unit: volt.
///
/// ```
/// use finrad_units::Voltage;
/// assert!((Voltage::from_mv(700.0).volts() - 0.7).abs() < 1e-12);
/// ```
pub type Voltage = Quantity<P1, P2, N3, N1>;

/// Surface area (`L²`). SI base unit: square metre.
///
/// ```
/// use finrad_units::{Area, Length};
/// let a = Length::from_nm(10.0) * Length::from_nm(10.0);
/// assert!((a.square_micrometers() - 1.0e-4).abs() < 1e-15);
/// ```
pub type Area = Quantity<Z0, P2, Z0, Z0>;

/// Volume (`L³`). SI base unit: cubic metre.
///
/// ```
/// use finrad_units::{Length, Volume};
/// let v: Volume = Length::from_nm(10.0) * (Length::from_nm(10.0) * Length::from_nm(10.0));
/// assert!(v.cubic_micrometers() > 0.0);
/// ```
pub type Volume = Quantity<Z0, P3, Z0, Z0>;

/// Linear electronic stopping power, energy lost per unit path length
/// (`M·L·T⁻²`). SI base unit: joule per metre.
///
/// ```
/// use finrad_units::StoppingPower;
/// let s = StoppingPower::from_kev_per_um(100.0);
/// assert!((s.kev_per_um() - 100.0).abs() < 1e-9);
/// ```
pub type StoppingPower = Quantity<P1, P1, N2, Z0>;

/// Integral particle flux: particles per unit area per unit time
/// (`L⁻²·T⁻¹`). SI base unit: 1/(m²·s).
///
/// ```
/// use finrad_units::Flux;
/// let f = Flux::from_per_cm2_hour(0.001);
/// assert!(f.per_m2_second() > 0.0);
/// ```
pub type Flux = Quantity<Z0, N2, N1, Z0>;

// ------------------------------------------------------------------
// Unit-specific constructors / accessors
// ------------------------------------------------------------------

/// Joules per electron-volt.
const J_PER_EV: f64 = 1.602_176_634e-19;

impl Energy {
    /// Builds an energy from electron-volts.
    #[inline]
    pub fn from_ev(ev: f64) -> Self {
        Self::from_si(ev * J_PER_EV)
    }

    /// Builds an energy from kilo-electron-volts.
    #[inline]
    pub fn from_kev(kev: f64) -> Self {
        Self::from_ev(kev * 1.0e3)
    }

    /// Builds an energy from mega-electron-volts.
    #[inline]
    pub fn from_mev(mev: f64) -> Self {
        Self::from_ev(mev * 1.0e6)
    }

    /// Builds an energy from joules.
    #[inline]
    pub fn from_joules(j: f64) -> Self {
        Self::from_si(j)
    }

    /// Energy in electron-volts.
    #[inline]
    pub fn ev(self) -> f64 {
        self.si_value() / J_PER_EV
    }

    /// Energy in kilo-electron-volts.
    #[inline]
    pub fn kev(self) -> f64 {
        self.ev() * 1.0e-3
    }

    /// Energy in mega-electron-volts.
    #[inline]
    pub fn mev(self) -> f64 {
        self.ev() * 1.0e-6
    }

    /// Energy in joules.
    #[inline]
    pub fn joules(self) -> f64 {
        self.si_value()
    }
}

impl Length {
    /// Builds a length from metres.
    #[inline]
    pub fn from_meters(m: f64) -> Self {
        Self::from_si(m)
    }

    /// Builds a length from centimetres.
    #[inline]
    pub fn from_cm(cm: f64) -> Self {
        Self::from_si(cm * 1.0e-2)
    }

    /// Builds a length from micrometres.
    #[inline]
    pub fn from_um(um: f64) -> Self {
        Self::from_si(um * 1.0e-6)
    }

    /// Builds a length from nanometres.
    #[inline]
    pub fn from_nm(nm: f64) -> Self {
        Self::from_si(nm * 1.0e-9)
    }

    /// Length in metres.
    #[inline]
    pub fn meters(self) -> f64 {
        self.si_value()
    }

    /// Length in centimetres.
    #[inline]
    pub fn centimeters(self) -> f64 {
        self.si_value() * 1.0e2
    }

    /// Length in micrometres.
    #[inline]
    pub fn micrometers(self) -> f64 {
        self.si_value() * 1.0e6
    }

    /// Length in nanometres.
    #[inline]
    pub fn nanometers(self) -> f64 {
        self.si_value() * 1.0e9
    }
}

impl Time {
    /// Builds a time from seconds.
    #[inline]
    pub fn from_seconds(s: f64) -> Self {
        Self::from_si(s)
    }

    /// Builds a time from hours.
    #[inline]
    pub fn from_hours(h: f64) -> Self {
        Self::from_si(h * 3600.0)
    }

    /// Builds a time from nanoseconds.
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        Self::from_si(ns * 1.0e-9)
    }

    /// Builds a time from picoseconds.
    #[inline]
    pub fn from_ps(ps: f64) -> Self {
        Self::from_si(ps * 1.0e-12)
    }

    /// Builds a time from femtoseconds.
    #[inline]
    pub fn from_fs(fs: f64) -> Self {
        Self::from_si(fs * 1.0e-15)
    }

    /// Time in seconds.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.si_value()
    }

    /// Time in hours.
    #[inline]
    pub fn hours(self) -> f64 {
        self.si_value() / 3600.0
    }

    /// Time in nanoseconds.
    #[inline]
    pub fn nanoseconds(self) -> f64 {
        self.si_value() * 1.0e9
    }

    /// Time in picoseconds.
    #[inline]
    pub fn picoseconds(self) -> f64 {
        self.si_value() * 1.0e12
    }

    /// Time in femtoseconds.
    #[inline]
    pub fn femtoseconds(self) -> f64 {
        self.si_value() * 1.0e15
    }
}

impl Charge {
    /// Builds a charge from coulombs.
    #[inline]
    pub fn from_coulombs(c: f64) -> Self {
        Self::from_si(c)
    }

    /// Builds a charge from femtocoulombs.
    #[inline]
    pub fn from_fc(fc: f64) -> Self {
        Self::from_si(fc * 1.0e-15)
    }

    /// Builds a charge carried by `n` elementary charges.
    #[inline]
    pub fn from_electrons(n: f64) -> Self {
        Self::from_si(n * constants::ELEMENTARY_CHARGE.si_value())
    }

    /// Charge in coulombs.
    #[inline]
    pub fn coulombs(self) -> f64 {
        self.si_value()
    }

    /// Charge in femtocoulombs.
    #[inline]
    pub fn femtocoulombs(self) -> f64 {
        self.si_value() * 1.0e15
    }

    /// Equivalent number of elementary charges.
    #[inline]
    pub fn electrons(self) -> f64 {
        self.si_value() / constants::ELEMENTARY_CHARGE.si_value()
    }
}

impl Current {
    /// Builds a current from amperes.
    #[inline]
    pub fn from_amperes(a: f64) -> Self {
        Self::from_si(a)
    }

    /// Builds a current from microamperes.
    #[inline]
    pub fn from_ua(ua: f64) -> Self {
        Self::from_si(ua * 1.0e-6)
    }

    /// Builds a current from milliamperes.
    #[inline]
    pub fn from_ma(ma: f64) -> Self {
        Self::from_si(ma * 1.0e-3)
    }

    /// Current in amperes.
    #[inline]
    pub fn amperes(self) -> f64 {
        self.si_value()
    }

    /// Current in microamperes.
    #[inline]
    pub fn microamperes(self) -> f64 {
        self.si_value() * 1.0e6
    }
}

impl Voltage {
    /// Builds a voltage from volts.
    #[inline]
    pub fn from_volts(v: f64) -> Self {
        Self::from_si(v)
    }

    /// Builds a voltage from millivolts.
    #[inline]
    pub fn from_mv(mv: f64) -> Self {
        Self::from_si(mv * 1.0e-3)
    }

    /// Voltage in volts.
    #[inline]
    pub fn volts(self) -> f64 {
        self.si_value()
    }

    /// Voltage in millivolts.
    #[inline]
    pub fn millivolts(self) -> f64 {
        self.si_value() * 1.0e3
    }
}

impl Area {
    /// Builds an area from square metres.
    #[inline]
    pub fn from_square_meters(m2: f64) -> Self {
        Self::from_si(m2)
    }

    /// Builds an area from square centimetres.
    #[inline]
    pub fn from_square_cm(cm2: f64) -> Self {
        Self::from_si(cm2 * 1.0e-4)
    }

    /// Builds an area from square micrometres.
    #[inline]
    pub fn from_square_um(um2: f64) -> Self {
        Self::from_si(um2 * 1.0e-12)
    }

    /// Area in square metres.
    #[inline]
    pub fn square_meters(self) -> f64 {
        self.si_value()
    }

    /// Area in square centimetres.
    #[inline]
    pub fn square_cm(self) -> f64 {
        self.si_value() * 1.0e4
    }

    /// Area in square micrometres.
    #[inline]
    pub fn square_micrometers(self) -> f64 {
        self.si_value() * 1.0e12
    }
}

impl Volume {
    /// Builds a volume from cubic metres.
    #[inline]
    pub fn from_cubic_meters(m3: f64) -> Self {
        Self::from_si(m3)
    }

    /// Volume in cubic micrometres.
    #[inline]
    pub fn cubic_micrometers(self) -> f64 {
        self.si_value() * 1.0e18
    }
}

impl StoppingPower {
    /// Builds a stopping power from keV per micrometre (the natural unit for
    /// charged-particle energy loss in silicon devices).
    #[inline]
    pub fn from_kev_per_um(s: f64) -> Self {
        Self::from_si(s * 1.0e3 * J_PER_EV / 1.0e-6)
    }

    /// Builds a stopping power from MeV·cm²/g given a mass density, i.e.
    /// converts a *mass* stopping power into a *linear* one.
    #[inline]
    pub fn from_mass_stopping(mev_cm2_per_g: f64, density_g_per_cm3: f64) -> Self {
        // MeV/cm = (MeV cm^2/g) * (g/cm^3)
        let mev_per_cm = mev_cm2_per_g * density_g_per_cm3;
        Self::from_si(mev_per_cm * 1.0e6 * J_PER_EV / 1.0e-2)
    }

    /// Stopping power in keV per micrometre.
    #[inline]
    pub fn kev_per_um(self) -> f64 {
        self.si_value() / (1.0e3 * J_PER_EV) * 1.0e-6
    }

    /// Stopping power in MeV per centimetre.
    #[inline]
    pub fn mev_per_cm(self) -> f64 {
        self.si_value() / (1.0e6 * J_PER_EV) * 1.0e-2
    }
}

impl Flux {
    /// Builds a flux from particles per square metre per second.
    #[inline]
    pub fn from_per_m2_second(f: f64) -> Self {
        Self::from_si(f)
    }

    /// Builds a flux from particles per square centimetre per hour (the unit
    /// used for alpha emission rates, e.g. the paper's 0.001 α/(h·cm²)).
    #[inline]
    pub fn from_per_cm2_hour(f: f64) -> Self {
        Self::from_si(f / 1.0e-4 / 3600.0)
    }

    /// Flux in particles per square metre per second.
    #[inline]
    pub fn per_m2_second(self) -> f64 {
        self.si_value()
    }

    /// Flux in particles per square centimetre per hour.
    #[inline]
    pub fn per_cm2_hour(self) -> f64 {
        self.si_value() * 1.0e-4 * 3600.0
    }
}

/// Physical constants used throughout the workspace.
pub mod constants {
    use super::{Charge, Energy, J_PER_EV};

    /// The elementary charge, in coulombs.
    pub const ELEMENTARY_CHARGE: Charge = Charge::from_si(1.602_176_634e-19);

    /// Mean energy to create one electron–hole pair in silicon: 3.6 eV
    /// (the paper's Section 3.2).
    pub const EHP_PAIR_ENERGY: Energy = Energy::from_si(3.6 * J_PER_EV);

    /// Fano factor of silicon — variance suppression of the pair count
    /// relative to Poisson statistics.
    pub const SILICON_FANO_FACTOR: f64 = 0.115;

    /// Proton rest energy, MeV.
    pub const PROTON_REST_MEV: f64 = 938.272_088;

    /// Alpha-particle rest energy, MeV.
    pub const ALPHA_REST_MEV: f64 = 3_727.379_4;

    /// Electron rest energy, MeV.
    pub const ELECTRON_REST_MEV: f64 = 0.510_998_95;

    /// Atomic number of silicon.
    pub const SILICON_Z: f64 = 14.0;

    /// Standard atomic weight of silicon, g/mol.
    pub const SILICON_A: f64 = 28.0855;

    /// Mass density of silicon, g/cm³.
    pub const SILICON_DENSITY_G_CM3: f64 = 2.329;

    /// Mean excitation energy of silicon, eV (ICRU-49 value).
    pub const SILICON_MEAN_EXCITATION_EV: f64 = 173.0;

    /// Bethe-formula prefactor K = 4π·N_A·r_e²·m_e·c², in MeV·cm²/mol.
    pub const BETHE_K_MEV_CM2_PER_MOL: f64 = 0.307_075;

    /// Hours per 10⁹ device-hours — the FIT normalization constant.
    pub const FIT_HOURS: f64 = 1.0e9;
}

/// The directly ionizing particle species studied by the paper.
///
/// The paper analyses soft errors from **alpha particles** (terrestrial,
/// emitted by package impurities) and **low-energy protons** (atmospheric,
/// important beyond the 65 nm node); neutrons act only through secondaries
/// and are explicitly left to future work.
///
/// # Examples
///
/// ```
/// use finrad_units::Particle;
///
/// assert_eq!(Particle::Alpha.charge_number(), 2.0);
/// assert!(Particle::Alpha.rest_energy_mev() > Particle::Proton.rest_energy_mev());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Particle {
    /// A proton (hydrogen nucleus), charge +1.
    Proton,
    /// An alpha particle (helium nucleus), charge +2, ≈ 4× proton mass.
    Alpha,
}

impl Particle {
    /// Both species, in a fixed order (useful for sweeps).
    pub const ALL: [Particle; 2] = [Particle::Proton, Particle::Alpha];

    /// Charge number `z` of the bare ion.
    #[inline]
    pub fn charge_number(self) -> f64 {
        match self {
            Particle::Proton => 1.0,
            Particle::Alpha => 2.0,
        }
    }

    /// Rest energy `m·c²` in MeV.
    #[inline]
    pub fn rest_energy_mev(self) -> f64 {
        match self {
            Particle::Proton => constants::PROTON_REST_MEV,
            Particle::Alpha => constants::ALPHA_REST_MEV,
        }
    }

    /// Mass in atomic mass units (approximately; used for velocity scaling).
    #[inline]
    pub fn mass_amu(self) -> f64 {
        match self {
            Particle::Proton => 1.007_276,
            Particle::Alpha => 4.001_506,
        }
    }

    /// Speed in metres per second at kinetic energy `energy`.
    #[inline]
    pub fn speed_m_per_s(self, energy: Energy) -> f64 {
        kinematics::speed_m_per_s(energy.mev(), self.rest_energy_mev())
    }

    /// Human-readable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Particle::Proton => "proton",
            Particle::Alpha => "alpha",
        }
    }
}

impl fmt::Display for Particle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Kinematics helpers for non-relativistic → relativistic particles.
pub mod kinematics {
    /// β² = 1 − 1/γ² for a particle with kinetic energy `t_mev` and rest
    /// energy `rest_mev`.
    ///
    /// # Examples
    ///
    /// ```
    /// use finrad_units::kinematics::beta_squared;
    /// // 1 MeV proton is slow: beta^2 ~ 2T/mc^2
    /// let b2 = beta_squared(1.0, finrad_units::constants::PROTON_REST_MEV);
    /// assert!((b2 - 2.0 / 938.272).abs() / b2 < 0.01);
    /// ```
    pub fn beta_squared(t_mev: f64, rest_mev: f64) -> f64 {
        let gamma = 1.0 + t_mev / rest_mev;
        1.0 - 1.0 / (gamma * gamma)
    }

    /// Lorentz factor γ for a particle with kinetic energy `t_mev`.
    pub fn gamma(t_mev: f64, rest_mev: f64) -> f64 {
        1.0 + t_mev / rest_mev
    }

    /// Particle speed in metres per second.
    pub fn speed_m_per_s(t_mev: f64, rest_mev: f64) -> f64 {
        const C: f64 = 2.997_924_58e8;
        beta_squared(t_mev, rest_mev).sqrt() * C
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_unit_round_trips() {
        let e = Energy::from_mev(2.5);
        assert!((e.kev() - 2500.0).abs() < 1e-9);
        assert!((e.ev() - 2.5e6).abs() < 1e-3);
        assert!((Energy::from_ev(e.ev()).joules() - e.joules()).abs() < 1e-30);
    }

    #[test]
    fn length_unit_round_trips() {
        let l = Length::from_nm(48.0);
        assert!((l.micrometers() - 0.048).abs() < 1e-12);
        assert!((l.centimeters() - 48.0e-7).abs() < 1e-18);
    }

    #[test]
    fn time_unit_round_trips() {
        let t = Time::from_fs(12.0);
        assert!((t.picoseconds() - 0.012).abs() < 1e-12);
        assert!((Time::from_hours(1.0).seconds() - 3600.0).abs() < 1e-9);
    }

    #[test]
    fn charge_electron_count() {
        let q = Charge::from_electrons(1.0);
        assert!((q.coulombs() - 1.602_176_634e-19).abs() < 1e-30);
        assert!((Charge::from_fc(1.0).electrons() - 6241.509).abs() < 1.0);
    }

    #[test]
    fn pulse_relation_eq3() {
        // I = Q / tau (paper Eq. 3)
        let n_e = 1000.0;
        let q = Charge::from_electrons(n_e);
        let tau = Time::from_fs(10.0);
        let i = q / tau;
        assert!((i.microamperes() - q.coulombs() / tau.seconds() * 1.0e6).abs() < 1e-9);
        // Round-trip: I * tau == Q
        let q2 = i * tau;
        assert!((q2.electrons() - n_e).abs() < 1e-6);
    }

    #[test]
    fn ehp_pair_count_from_energy() {
        let deposited = Energy::from_mev(1.0);
        let pairs = (deposited / constants::EHP_PAIR_ENERGY).value();
        assert!((pairs - 1.0e6 / 3.6).abs() < 1.0);
    }

    #[test]
    fn stopping_power_conversions() {
        let s = StoppingPower::from_kev_per_um(100.0);
        // 100 keV/um = 1e6 keV/cm = 1000 MeV/cm
        assert!((s.mev_per_cm() - 1000.0).abs() < 1e-6);
        // Mass stopping round trip
        let s2 = StoppingPower::from_mass_stopping(
            s.mev_per_cm() / constants::SILICON_DENSITY_G_CM3,
            constants::SILICON_DENSITY_G_CM3,
        );
        assert!((s2.kev_per_um() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn energy_from_chord_times_stopping() {
        let s = StoppingPower::from_kev_per_um(250.0);
        let chord = Length::from_nm(10.0);
        let de: Energy = s * chord;
        assert!((de.kev() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn flux_alpha_emission_rate() {
        let f = Flux::from_per_cm2_hour(0.001);
        assert!((f.per_cm2_hour() - 0.001).abs() < 1e-15);
        // 0.001 / (1e-4 m^2 * 3600 s)
        assert!((f.per_m2_second() - 0.001 / 1.0e-4 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn area_volume_composition() {
        let a = Length::from_nm(8.0) * Length::from_nm(30.0);
        let v = a * Length::from_nm(20.0);
        assert!((v.cubic_micrometers() - 8.0e-3 * 30.0e-3 * 20.0e-3).abs() < 1e-15);
    }

    #[test]
    fn quantity_ordering_and_clamp() {
        let lo = Voltage::from_mv(700.0);
        let hi = Voltage::from_mv(1100.0);
        assert!(lo < hi);
        let mid = Voltage::from_volts(2.0).clamp(lo, hi);
        assert_eq!(mid, hi);
        assert_eq!(lo.qmax(hi), hi);
        assert_eq!(lo.qmin(hi), lo);
    }

    #[test]
    #[should_panic(expected = "clamp bounds inverted")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = Voltage::from_volts(1.0).clamp(Voltage::from_volts(2.0), Voltage::from_volts(1.0));
    }

    #[test]
    fn ratio_is_dimensionless() {
        let r: Dimensionless = Energy::from_mev(4.0) / Energy::from_mev(2.0);
        assert!((r.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Energy = (1..=4).map(|i| Energy::from_mev(i as f64)).sum();
        assert!((total.mev() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn kinematics_limits() {
        use constants::*;
        // Non-relativistic limit: beta^2 ≈ 2T/m
        let b2 = kinematics::beta_squared(0.1, PROTON_REST_MEV);
        assert!((b2 - 2.0 * 0.1 / PROTON_REST_MEV).abs() / b2 < 0.001);
        // Ultra-relativistic limit: beta -> 1
        let b2_hi = kinematics::beta_squared(1.0e6, PROTON_REST_MEV);
        assert!(b2_hi > 0.999_99);
        // Speeds are below c
        assert!(kinematics::speed_m_per_s(10.0, ALPHA_REST_MEV) < 2.997_924_58e8);
    }

    #[test]
    fn alpha_slower_than_proton_at_same_energy() {
        // Same kinetic energy, 4x mass => alpha slower (paper §6 discussion).
        use constants::*;
        let vp = kinematics::speed_m_per_s(5.0, PROTON_REST_MEV);
        let va = kinematics::speed_m_per_s(5.0, ALPHA_REST_MEV);
        assert!(va < vp);
        // sqrt(mass ratio) ~ 2, with a small relativistic correction
        assert!((vp / va - 2.0).abs() < 0.02);
    }

    #[test]
    fn display_includes_unit_label() {
        assert!(format!("{}", Voltage::from_volts(0.8)).contains('V'));
        assert!(format!("{}", Length::from_meters(1.0)).contains('m'));
    }
}

/// Bit-identity proofs that every retired hand-written cross-dimension
/// `impl Mul`/`impl Div` has an exactly equivalent generic replacement:
/// same `f64` bit pattern, same (now type-checked) output dimension.
#[cfg(test)]
mod retired_impl_equivalence {
    use super::*;

    /// Deterministic grid point `i` of `n` in `[lo, hi]`.
    fn grid(i: u32, n: u32, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (i as f64 + 0.5) / n as f64
    }

    /// Asserts that `$a $op $b` (the generic impl) produces the same bits
    /// as the raw `f64` expression that the retired hand-written impl
    /// evaluated, and that the result has the annotated output type.
    macro_rules! assert_retired_impl {
        ($out:ty, $a:expr, *, $b:expr) => {{
            let out: $out = $a * $b;
            assert_eq!(
                out.si_value().to_bits(),
                ($a.si_value() * $b.si_value()).to_bits()
            );
        }};
        ($out:ty, $a:expr, /, $b:expr) => {{
            let out: $out = $a / $b;
            assert_eq!(
                out.si_value().to_bits(),
                ($a.si_value() / $b.si_value()).to_bits()
            );
        }};
    }

    #[test]
    fn all_retired_impls_bit_identical() {
        for i in 0..50 {
            for j in 0..50 {
                let x = grid(i, 50, 1.0e-9, 1.0e3);
                let y = grid(j, 50, 1.0e-6, 1.0e4);
                // Charge = Current × Time (both orders) and its inverses.
                assert_retired_impl!(Charge, Current::from_amperes(x), *, Time::from_seconds(y));
                assert_retired_impl!(Charge, Time::from_seconds(x), *, Current::from_amperes(y));
                assert_retired_impl!(Current, Charge::from_coulombs(x), /, Time::from_seconds(y));
                assert_retired_impl!(Time, Charge::from_coulombs(x), /, Current::from_amperes(y));
                // Area / Volume composition.
                assert_retired_impl!(Area, Length::from_meters(x), *, Length::from_meters(y));
                assert_retired_impl!(Volume, Area::from_square_meters(x), *, Length::from_meters(y));
                assert_retired_impl!(Volume, Length::from_meters(x), *, Area::from_square_meters(y));
                // Energy along a chord (both orders) and its inverse.
                assert_retired_impl!(Energy, StoppingPower::from_kev_per_um(x), *, Length::from_meters(y));
                assert_retired_impl!(Energy, Length::from_meters(x), *, StoppingPower::from_kev_per_um(y));
                assert_retired_impl!(StoppingPower, Energy::from_joules(x), /, Length::from_meters(y));
                // Energy = Charge × Voltage.
                assert_retired_impl!(Energy, Charge::from_coulombs(x), *, Voltage::from_volts(y));
            }
        }
    }

    #[test]
    fn like_ratio_bit_identical_with_retired_div() {
        // The retired `impl Div for $name` returned a bare f64; the generic
        // quotient is Dimensionless with the same bits.
        for i in 0..200 {
            let x = grid(i, 200, 1.0e-9, 1.0e6);
            let y = grid(199 - i, 200, 1.0e-9, 1.0e6);
            macro_rules! chk {
                ($ctor:expr) => {{
                    let ratio: Dimensionless = $ctor(x) / $ctor(y);
                    assert_eq!(ratio.value().to_bits(), (x / y).to_bits());
                }};
            }
            chk!(Energy::from_joules);
            chk!(Length::from_meters);
            chk!(Time::from_seconds);
            chk!(Charge::from_coulombs);
            chk!(Current::from_amperes);
            chk!(Voltage::from_volts);
            chk!(Area::from_square_meters);
            chk!(Volume::from_cubic_meters);
            chk!(Flux::from_per_m2_second);
        }
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;

    /// Deterministic grid point `i` of `n` in `[lo, hi]` — replaces the
    /// external property-testing dependency with exhaustive small sweeps.
    fn grid(i: u32, n: u32, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (i as f64 + 0.5) / n as f64
    }

    #[test]
    fn add_then_sub_round_trips() {
        for i in 0..40 {
            for j in 0..40 {
                let a = grid(i, 40, -1.0e3, 1.0e3);
                let b = grid(j, 40, -1.0e3, 1.0e3);
                let x = Energy::from_mev(a);
                let y = Energy::from_mev(b);
                let back = (x + y) - y;
                assert!((back.mev() - a).abs() <= 1e-9 * (1.0 + a.abs() + b.abs()));
            }
        }
    }

    #[test]
    fn scaling_is_linear() {
        for i in 0..50 {
            for j in 0..50 {
                let a = grid(i, 50, 1.0e-3, 1.0e3);
                let k = grid(j, 50, 1.0e-3, 1.0e3);
                let x = Length::from_um(a);
                assert!(((x * k).micrometers() - a * k).abs() <= 1e-9 * a * k);
            }
        }
    }

    #[test]
    fn charge_time_current_triangle() {
        for i in 0..60 {
            for j in 0..60 {
                let n = grid(i, 60, 1.0, 1.0e7);
                let fs = grid(j, 60, 0.5, 1.0e4);
                let q = Charge::from_electrons(n);
                let tau = Time::from_fs(fs);
                let i_pulse = q / tau;
                let q2 = i_pulse * tau;
                assert!((q2.electrons() - n).abs() / n < 1e-12);
            }
        }
    }

    #[test]
    fn unit_round_trip_energy() {
        for i in 0..2000 {
            let mev = grid(i, 2000, 1.0e-6, 1.0e7);
            let e = Energy::from_mev(mev);
            assert!((Energy::from_kev(e.kev()).mev() - mev).abs() / mev < 1e-12);
        }
    }

    #[test]
    fn clamp_within_bounds() {
        for i in 0..500 {
            let v = grid(i, 500, -10.0, 10.0);
            let lo = Voltage::from_volts(0.0);
            let hi = Voltage::from_volts(1.0);
            let c = Voltage::from_volts(v).clamp(lo, hi);
            assert!(c >= lo && c <= hi);
        }
    }
}
