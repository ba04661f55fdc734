//! Sea-level atmospheric neutron spectrum.
//!
//! **Extension beyond the paper**: the paper's conclusion defers
//! neutron-induced (indirect-ionization) soft errors to future work. This
//! module provides the missing environment piece: the sea-level neutron
//! differential flux as a JESD89A-class log–log shape (evaporation bump at
//! a few MeV, roughly 1/E cascade continuum to 1 GeV), normalized so the
//! integral flux above 10 MeV is ≈ 3.6·10⁻³ n/(cm²·s) — the standard
//! ≈ 13 n/(cm²·h) New-York-City reference value.

use crate::Spectrum;
use finrad_numerics::interp::LogLogTable;
use finrad_units::{Energy, Particle};

/// Sea-level neutron differential flux (1–1000 MeV band).
///
/// # Examples
///
/// ```
/// use finrad_environment::{NeutronSpectrum, Spectrum};
/// use finrad_units::Energy;
///
/// let n = NeutronSpectrum::sea_level();
/// // The canonical check: ~13 n/(cm²·h) above 10 MeV.
/// let above_10 = n.integral_flux(Energy::from_mev(10.0), Energy::from_mev(1000.0));
/// assert!((above_10.per_cm2_hour() - 13.0).abs() < 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NeutronSpectrum {
    /// Overall scale (1.0 = NYC sea level; ~10–300× at flight altitudes).
    scale: f64,
    /// Shape table, n/(cm²·s·MeV) vs MeV.
    shape: LogLogTable,
    lo_mev: f64,
    hi_mev: f64,
}

/// Anchor points of the JESD89A-class shape (MeV → n/(cm²·s·MeV)).
const SHAPE_MEV: [f64; 8] = [1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 1.0e3];
const SHAPE_FLUX: [f64; 8] = [
    1.2e-3, 7.0e-4, 2.4e-4, 1.0e-4, 3.2e-5, 7.0e-6, 1.5e-6, 2.0e-7,
];

impl NeutronSpectrum {
    /// The New-York-City sea-level reference spectrum.
    pub fn sea_level() -> Self {
        Self {
            scale: 1.0,
            shape: LogLogTable::from_static(SHAPE_MEV.to_vec(), SHAPE_FLUX.to_vec()),
            lo_mev: SHAPE_MEV[0],
            hi_mev: SHAPE_MEV[SHAPE_MEV.len() - 1],
        }
    }

    /// A spectrum scaled by `factor` (altitude/location scaling).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        Self {
            scale: self.scale * factor,
            ..self.clone()
        }
    }
}

impl Default for NeutronSpectrum {
    fn default() -> Self {
        Self::sea_level()
    }
}

impl Spectrum for NeutronSpectrum {
    fn particle(&self) -> Particle {
        // Neutrons act through secondaries; the spectrum is keyed to the
        // proton species only for plumbing purposes (same mass), and the
        // neutron SER engine never consults this.
        Particle::Proton
    }

    fn differential(&self, energy: Energy) -> f64 {
        let e = energy.mev();
        if e < self.lo_mev * (1.0 - 1.0e-9) || e > self.hi_mev * (1.0 + 1.0e-9) {
            return 0.0;
        }
        // cm^-2 -> m^-2.
        self.scale * self.shape.eval(e.max(self.lo_mev)) * 1.0e4
    }

    fn domain(&self) -> (Energy, Energy) {
        (Energy::from_mev(self.lo_mev), Energy::from_mev(self.hi_mev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_integral_flux() {
        let n = NeutronSpectrum::sea_level();
        let above_10 = n
            .integral_flux(Energy::from_mev(10.0), Energy::from_mev(1000.0))
            .per_cm2_hour();
        assert!(
            (9.0..17.0).contains(&above_10),
            "flux above 10 MeV: {above_10} n/cm2/h (expect ~13)"
        );
    }

    #[test]
    fn two_lobe_shape() {
        // The evaporation lobe dominates at a few MeV, the cascade lobe
        // keeps the spectrum alive at 100 MeV.
        let n = NeutronSpectrum::sea_level();
        let at_2 = n.differential(Energy::from_mev(2.0));
        let at_100 = n.differential(Energy::from_mev(100.0));
        let at_800 = n.differential(Energy::from_mev(800.0));
        assert!(at_2 > at_100);
        assert!(at_100 > at_800);
        assert!(at_800 > 0.0);
    }

    #[test]
    fn domain_clipping() {
        let n = NeutronSpectrum::sea_level();
        assert_eq!(n.differential(Energy::from_mev(0.5)), 0.0);
        assert_eq!(n.differential(Energy::from_mev(2000.0)), 0.0);
    }

    #[test]
    fn altitude_scaling() {
        let sea = NeutronSpectrum::sea_level();
        let avionics = sea.scaled(300.0);
        let e = Energy::from_mev(50.0);
        assert!((avionics.differential(e) / sea.differential(e) - 300.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_bad_scale() {
        let _ = NeutronSpectrum::sea_level().scaled(-1.0);
    }
}
