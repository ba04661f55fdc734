//! Terrestrial alpha emission spectrum (the paper's Fig. 2(b)).
//!
//! Alpha particles are emitted by ²³⁸U, ²³⁵U and ²³²Th contamination in
//! package and interconnect materials, with discrete line energies below
//! 10 MeV that are smeared by emission depth into the continuous spectrum
//! of Fig. 2(b) (after Sai-Halasz, Wordeman and Dennard). The paper assumes
//! a total emission rate of **0.001 α/(h·cm²)** (Baumann's "ultra-low
//! alpha" materials figure).

use crate::Spectrum;
use finrad_numerics::interp::LinearTable;
use finrad_numerics::quadrature::trapezoid;
use finrad_units::{Energy, Flux, Particle};

/// Terrestrial alpha-particle emission spectrum, normalized to a total
/// emission rate.
///
/// # Examples
///
/// ```
/// use finrad_environment::{AlphaSpectrum, Spectrum};
/// use finrad_units::{Energy, Flux};
///
/// let a = AlphaSpectrum::package_emission(Flux::from_per_cm2_hour(0.001));
/// let peak = a.differential(Energy::from_mev(5.5));
/// let tail = a.differential(Energy::from_mev(9.5));
/// assert!(peak > tail);
/// ```
#[derive(Debug, Clone)]
pub struct AlphaSpectrum {
    /// Normalized spectral density over [0.1, 10] MeV, 1/(m²·s·MeV).
    density: LinearTable,
    lo_mev: f64,
    hi_mev: f64,
}

/// Shape of the Fig. 2(b) emission spectrum (MeV → relative intensity).
///
/// The energy axis carries the main decay-chain lines — 4.2 MeV (²³⁸U),
/// 4.4/4.6 MeV (²³⁵U chain), 5.3–6.1 MeV (²¹⁰Po, ²¹²Bi/²²⁰Rn region),
/// 8.78 MeV (²¹²Po) — broadened by emission-depth degradation into the
/// smooth envelope seen in the figure: rising through 2–6 MeV, dipping,
/// then a secondary bump near 8.8 MeV.
const SHAPE_MEV: [f64; 12] = [0.1, 1.0, 2.0, 3.0, 4.2, 5.0, 5.5, 6.1, 7.0, 8.0, 8.8, 10.0];
const SHAPE_REL: [f64; 12] = [
    2.0, 3.0, 4.5, 6.5, 10.0, 12.0, 14.0, 11.0, 6.0, 4.0, 5.0, 2.0,
];

impl AlphaSpectrum {
    /// Builds the package-emission spectrum normalized so the integral over
    /// the full energy range equals `total_rate`.
    ///
    /// # Panics
    ///
    /// Panics if `total_rate` is not strictly positive.
    pub fn package_emission(total_rate: Flux) -> Self {
        assert!(
            total_rate.per_m2_second() > 0.0,
            "total emission rate must be positive"
        );
        let raw_integral = trapezoid(&SHAPE_MEV, &SHAPE_REL);
        let scale = total_rate.per_m2_second() / raw_integral;
        let ys: Vec<f64> = SHAPE_REL.iter().map(|&y| y * scale).collect();
        Self {
            density: LinearTable::from_static(SHAPE_MEV.to_vec(), ys),
            lo_mev: SHAPE_MEV[0],
            hi_mev: SHAPE_MEV[SHAPE_MEV.len() - 1],
        }
    }

    /// The paper's assumption: 0.001 α/(h·cm²) total emission.
    pub fn paper_default() -> Self {
        Self::package_emission(Flux::from_per_cm2_hour(0.001))
    }
}

impl Default for AlphaSpectrum {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl Spectrum for AlphaSpectrum {
    fn particle(&self) -> Particle {
        Particle::Alpha
    }

    fn differential(&self, energy: Energy) -> f64 {
        let e = energy.mev();
        if e < self.lo_mev * (1.0 - 1.0e-9) || e > self.hi_mev * (1.0 + 1.0e-9) {
            0.0
        } else {
            self.density.eval(e)
        }
    }

    fn domain(&self) -> (Energy, Energy) {
        (Energy::from_mev(self.lo_mev), Energy::from_mev(self.hi_mev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_to_requested_rate() {
        let rate = Flux::from_per_cm2_hour(0.001);
        let a = AlphaSpectrum::package_emission(rate);
        let total = a.total_flux();
        assert!(
            (total.per_cm2_hour() - 0.001).abs() / 0.001 < 0.01,
            "total {}",
            total.per_cm2_hour()
        );
    }

    #[test]
    fn confined_below_10_mev() {
        let a = AlphaSpectrum::paper_default();
        assert_eq!(a.differential(Energy::from_mev(11.0)), 0.0);
        assert_eq!(a.differential(Energy::from_mev(0.05)), 0.0);
        let (lo, hi) = a.domain();
        assert!(hi.mev() <= 10.0 + 1e-9);
        assert!(lo.mev() > 0.0);
    }

    #[test]
    fn peaks_in_the_4_to_6_mev_region() {
        // Fig. 2(b): maximum intensity sits in the 4–6 MeV band.
        let a = AlphaSpectrum::paper_default();
        let peak_band = a.differential(Energy::from_mev(5.5));
        for e in [0.5, 1.5, 7.5, 9.5] {
            assert!(
                peak_band > a.differential(Energy::from_mev(e)),
                "5.5 MeV should dominate {e} MeV"
            );
        }
    }

    #[test]
    fn scaling_with_rate_is_linear() {
        let a1 = AlphaSpectrum::package_emission(Flux::from_per_cm2_hour(0.001));
        let a2 = AlphaSpectrum::package_emission(Flux::from_per_cm2_hour(0.002));
        let e = Energy::from_mev(5.0);
        let r = a2.differential(e) / a1.differential(e);
        assert!((r - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_rate() {
        let _ = AlphaSpectrum::package_emission(Flux::from_per_m2_second(0.0));
    }

    #[test]
    fn default_matches_paper_default() {
        let d = AlphaSpectrum::default();
        let p = AlphaSpectrum::paper_default();
        let e = Energy::from_mev(3.0);
        assert_eq!(d.differential(e), p.differential(e));
    }
}
