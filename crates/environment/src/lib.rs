//! Ground-level radiation environment models.
//!
//! The paper's Section 3.1 identifies the two direct-ionizing particle
//! sources at ground level that its analysis covers:
//!
//! * **Atmospheric low-energy protons** — Fig. 2(a) shows the sea-level
//!   differential proton spectrum (after Hagmann et al.), spanning
//!   1–10⁷ MeV with intensities from ~10⁻² down to ~10⁻¹⁴ 1/(m²·s·sr·MeV).
//! * **Terrestrial alpha particles** — Fig. 2(b) shows the emission
//!   spectrum of package impurities (²³⁸U, ²³⁵U, ²³²Th chains) below
//!   10 MeV, normalized to a total emission rate of 0.001 α/(h·cm²).
//!
//! Both are exposed through the [`Spectrum`] trait, which is what the FIT
//! integration (the paper's Eq. 7/8) consumes: a differential intensity and
//! the derived per-bin integral fluxes.
//!
//! # Examples
//!
//! ```
//! use finrad_environment::{AlphaSpectrum, Spectrum};
//! use finrad_units::Flux;
//!
//! let alpha = AlphaSpectrum::package_emission(Flux::from_per_cm2_hour(0.001));
//! let total = alpha.total_flux();
//! assert!((total.per_cm2_hour() - 0.001).abs() < 1e-6);
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

mod alpha;
mod neutron;
mod proton;

pub use alpha::AlphaSpectrum;
pub use neutron::NeutronSpectrum;
pub use proton::ProtonSpectrum;

use finrad_numerics::quadrature::{log_bins, trapezoid_fn, Bin};
use finrad_units::{Energy, Flux, Particle};

/// A differential particle-flux spectrum at ground level.
///
/// Implementations return the omnidirectional intensity through a horizontal
/// surface, i.e. solid angle is already folded in, so that multiplying by an
/// area and a time yields a particle count.
pub trait Spectrum {
    /// Which particle species this spectrum describes.
    fn particle(&self) -> Particle;

    /// Differential flux at `energy`, in particles/(m²·s·MeV).
    ///
    /// Returns 0 outside the supported energy range.
    fn differential(&self, energy: Energy) -> f64;

    /// Supported energy range `(min, max)`.
    fn domain(&self) -> (Energy, Energy);

    /// Integral flux over `[lo, hi]`.
    ///
    /// The integration runs in log-energy space (`∫f dE = ∫ f·E d(ln E)`,
    /// 256 trapezoidal panels), which is accurate for spectra spanning many
    /// decades of energy.
    ///
    /// # Panics
    ///
    /// Panics if `lo` is not strictly positive or `hi < lo`.
    fn integral_flux(&self, lo: Energy, hi: Energy) -> Flux {
        assert!(lo.mev() > 0.0, "integral lower bound must be positive");
        let (llo, lhi) = (lo.mev().ln(), hi.mev().ln());
        let f = trapezoid_fn(
            |u| {
                let e = u.exp();
                self.differential(Energy::from_mev(e)) * e
            },
            llo,
            lhi,
            256,
        );
        Flux::from_per_m2_second(f)
    }

    /// Total flux over the full supported range.
    fn total_flux(&self) -> Flux {
        let (lo, hi) = self.domain();
        self.integral_flux(lo, hi)
    }

    /// Discretizes the spectrum into `n` logarithmic energy bins, returning
    /// for each the representative energy and the integral flux — exactly
    /// the `(E, IntFlux(E))` pairs of the paper's Eq. 8.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn discretize(&self, n: usize) -> Vec<SpectrumBin> {
        assert!(n > 0, "need at least one bin");
        let (lo, hi) = self.domain();
        log_bins(lo.mev(), hi.mev(), n)
            .into_iter()
            .map(|b: Bin| SpectrumBin {
                energy: Energy::from_mev(b.representative),
                lo: Energy::from_mev(b.lo),
                hi: Energy::from_mev(b.hi),
                integral_flux: self.integral_flux(Energy::from_mev(b.lo), Energy::from_mev(b.hi)),
            })
            .collect()
    }
}

/// One discretized energy bin of a spectrum: the representative energy at
/// which POF is evaluated and the integral flux weighting it in Eq. 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumBin {
    /// Representative energy of the bin (geometric mean of the edges).
    pub energy: Energy,
    /// Lower bin edge.
    pub lo: Energy,
    /// Upper bin edge.
    pub hi: Energy,
    /// Integral flux over the bin.
    pub integral_flux: Flux,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discretized_bins_cover_domain_and_sum_to_total() {
        let p = ProtonSpectrum::sea_level();
        let bins = p.discretize(64);
        assert_eq!(bins.len(), 64);
        let (lo, hi) = p.domain();
        assert!((bins[0].lo.mev() - lo.mev()).abs() < 1e-9 * lo.mev());
        assert!((bins.last().unwrap().hi.mev() - hi.mev()).abs() < 1e-6 * hi.mev());
        let total_from_bins: f64 = bins.iter().map(|b| b.integral_flux.per_m2_second()).sum();
        let total = p.total_flux().per_m2_second();
        assert!(
            (total_from_bins - total).abs() / total < 0.02,
            "bins {total_from_bins} vs total {total}"
        );
    }

    #[test]
    fn representative_inside_bin() {
        let a = AlphaSpectrum::default();
        for b in a.discretize(16) {
            assert!(b.energy >= b.lo && b.energy <= b.hi);
        }
    }
}
