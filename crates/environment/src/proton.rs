//! Sea-level proton spectrum (the paper's Fig. 2(a)).
//!
//! The paper cites Hagmann, Lange and Wright's Monte-Carlo simulation of
//! proton-induced cosmic-ray cascades for the differential proton intensity
//! at sea level. We reproduce the figure's log–log shape with a
//! piecewise-power-law fit: intensity ≈ 10⁻² 1/(m²·s·sr·MeV) at 1 MeV,
//! falling to ≈ 10⁻¹⁴ at 10⁷ MeV, with the characteristic steepening above
//! ~1 GeV. The per-steradian intensity is converted to a flux through a
//! horizontal surface by the cosine-weighted solid-angle factor π sr.

use crate::Spectrum;
use finrad_numerics::interp::LogLogTable;
use finrad_units::{Energy, Particle};

/// Effective solid angle for converting an isotropic-in-the-upper-hemisphere
/// intensity (per steradian) into a flux through a horizontal plane:
/// ∫ cosθ dΩ over the upper hemisphere = π.
const COSINE_WEIGHTED_SOLID_ANGLE_SR: f64 = std::f64::consts::PI;

/// Sea-level differential proton spectrum.
///
/// # Examples
///
/// ```
/// use finrad_environment::{ProtonSpectrum, Spectrum};
/// use finrad_units::Energy;
///
/// let p = ProtonSpectrum::sea_level();
/// // Monotonically decreasing with energy.
/// assert!(p.differential(Energy::from_mev(1.0)) > p.differential(Energy::from_mev(100.0)));
/// ```
#[derive(Debug, Clone)]
pub struct ProtonSpectrum {
    /// Intensity table in 1/(m²·s·sr·MeV) vs energy in MeV.
    intensity: LogLogTable,
    lo_mev: f64,
    hi_mev: f64,
}

impl ProtonSpectrum {
    /// The sea-level spectrum fitted to the paper's Fig. 2(a).
    ///
    /// Anchor points (MeV → 1/(m²·s·sr·MeV)) follow the figure: a gently
    /// falling region below ~100 MeV, then a cosmic-ray-like power law
    /// (spectral index ≈ −2.7) up to 10 TeV.
    pub fn sea_level() -> Self {
        let energies_mev = vec![
            1.0e-1, 1.0, 3.0, 1.0e1, 3.0e1, 1.0e2, 3.0e2, 1.0e3, 3.0e3, 1.0e4, 1.0e5, 1.0e6, 1.0e7,
        ];
        let intensity = vec![
            1.5e-2, 1.0e-2, 6.0e-3, 3.0e-3, 1.2e-3, 3.0e-4, 5.0e-5, 4.0e-6, 4.0e-7, 2.0e-8,
            5.0e-11, 1.0e-13, 3.0e-16,
        ];
        Self {
            intensity: LogLogTable::from_static(energies_mev, intensity),
            lo_mev: 1.0e-1,
            hi_mev: 1.0e7,
        }
    }

    /// A spectrum scaled by `factor` — e.g. for altitude or shielding
    /// studies (flux scales roughly ×10 at avionics altitudes).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        let xs: Vec<f64> = finrad_numerics::interp::log_space(self.lo_mev, self.hi_mev, 64);
        // The floor keeps the strict-positivity invariant even when a tiny
        // `factor` underflows the smallest intensities to zero.
        let ys: Vec<f64> = xs
            .iter()
            .map(|&e| (self.intensity.eval(e) * factor).max(f64::MIN_POSITIVE))
            .collect();
        Self {
            intensity: LogLogTable::from_static(xs, ys),
            lo_mev: self.lo_mev,
            hi_mev: self.hi_mev,
        }
    }

    /// Raw per-steradian intensity at `energy`, 1/(m²·s·sr·MeV).
    pub fn intensity_per_sr(&self, energy: Energy) -> f64 {
        let e = energy.mev();
        // Small relative tolerance so log-spaced grids that land exactly on
        // the domain edges (up to floating-point rounding) are not zeroed.
        if e < self.lo_mev * (1.0 - 1.0e-9) || e > self.hi_mev * (1.0 + 1.0e-9) {
            0.0
        } else {
            self.intensity.eval(e.max(self.lo_mev))
        }
    }
}

impl Default for ProtonSpectrum {
    fn default() -> Self {
        Self::sea_level()
    }
}

impl Spectrum for ProtonSpectrum {
    fn particle(&self) -> Particle {
        Particle::Proton
    }

    fn differential(&self, energy: Energy) -> f64 {
        self.intensity_per_sr(energy) * COSINE_WEIGHTED_SOLID_ANGLE_SR
    }

    fn domain(&self) -> (Energy, Energy) {
        (Energy::from_mev(self.lo_mev), Energy::from_mev(self.hi_mev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Spectrum;

    #[test]
    fn monotone_decreasing() {
        let p = ProtonSpectrum::sea_level();
        let es = finrad_numerics::interp::log_space(0.1, 1.0e7, 40);
        for w in es.windows(2) {
            let a = p.differential(Energy::from_mev(w[0]));
            let b = p.differential(Energy::from_mev(w[1]));
            assert!(
                a >= b,
                "spectrum must fall with energy: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn figure_2a_anchor_values() {
        let p = ProtonSpectrum::sea_level();
        // ~1e-2 at 1 MeV and ~1e-14-ish at 1e7 MeV per Fig. 2(a), per sr.
        let at_1 = p.intensity_per_sr(Energy::from_mev(1.0));
        assert!((0.5e-2..2.0e-2).contains(&at_1), "{at_1}");
        let at_hi = p.intensity_per_sr(Energy::from_mev(1.0e7));
        assert!(at_hi < 1.0e-13, "{at_hi}");
    }

    #[test]
    fn zero_outside_domain() {
        let p = ProtonSpectrum::sea_level();
        assert_eq!(p.differential(Energy::from_mev(0.01)), 0.0);
        assert_eq!(p.differential(Energy::from_mev(1.0e9)), 0.0);
    }

    #[test]
    fn low_energy_dominates_total_flux() {
        // The integral flux below 10 MeV exceeds the flux above 1 GeV —
        // this is why low-Vdd proton SER matters (paper §6).
        let p = ProtonSpectrum::sea_level();
        let low = p
            .integral_flux(Energy::from_mev(0.1), Energy::from_mev(10.0))
            .per_m2_second();
        let high = p
            .integral_flux(Energy::from_mev(1.0e3), Energy::from_mev(1.0e7))
            .per_m2_second();
        assert!(low > 5.0 * high, "low {low} vs high {high}");
    }

    #[test]
    fn scaling_scales_flux() {
        let p = ProtonSpectrum::sea_level();
        let p10 = p.scaled(10.0);
        let r = p10.total_flux().per_m2_second() / p.total_flux().per_m2_second();
        assert!((r - 10.0).abs() < 0.5, "ratio {r}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn scaling_rejects_nonpositive() {
        let _ = ProtonSpectrum::sea_level().scaled(0.0);
    }

    #[test]
    fn solid_angle_factor_applied() {
        let p = ProtonSpectrum::sea_level();
        let e = Energy::from_mev(5.0);
        let ratio = p.differential(e) / p.intensity_per_sr(e);
        assert!((ratio - std::f64::consts::PI).abs() < 1e-12);
    }
}
