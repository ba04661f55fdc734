//! FIT-rate integration (the paper's Eqs. 7–8).
//!
//! `SER(FIT) = Σ_E POF(E) · IntFlux(E) · L_x · L_y`, where the sum runs
//! over the discretized energy bins of the particle spectrum, `POF(E)` is
//! the array-level probability of failure per arriving particle at the
//! bin's representative energy, and `L_x·L_y` is the array footprint. The
//! result is expressed in FIT (failures per 10⁹ device-hours).

use crate::strike::ArrayPofEstimate;
use finrad_environment::SpectrumBin;
use finrad_units::{constants, Area};

/// One energy bin with its measured POFs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PofBin {
    /// The spectrum bin (representative energy + integral flux).
    pub spectrum: SpectrumBin,
    /// Mean POF_tot per arriving particle at this energy.
    pub pof_total: f64,
    /// Mean POF_SEU.
    pub pof_seu: f64,
    /// Mean POF_MBU.
    pub pof_mbu: f64,
}

impl PofBin {
    /// The bin's mean POFs from its strike Monte-Carlo estimate.
    pub(crate) fn from_estimate(spectrum: SpectrumBin, est: &ArrayPofEstimate) -> Self {
        Self {
            spectrum,
            pof_total: est.total.mean(),
            pof_seu: est.seu.mean(),
            pof_mbu: est.mbu.mean(),
        }
    }
}

/// FIT rates decomposed by upset multiplicity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FitRate {
    /// Total failures per 10⁹ hours.
    pub total: f64,
    /// Single-event-upset failures per 10⁹ hours.
    pub seu: f64,
    /// Multiple-bit-upset failures per 10⁹ hours.
    pub mbu: f64,
}

impl FitRate {
    /// MBU/SEU ratio in percent (the paper's Fig. 10 axis). Returns 0 when
    /// there are no upsets at all and `f64::INFINITY` when MBU rate exists
    /// without any SEU rate (see [`mbu_to_seu_ratio`]).
    pub fn mbu_to_seu_percent(&self) -> f64 {
        100.0 * mbu_to_seu_ratio(self.mbu, self.seu)
    }
}

/// The MBU/SEU ratio used everywhere a Fig. 10-style quantity is reported
/// ([`FitRate::mbu_to_seu_percent`], `SerReport::mbu_to_seu_percent`,
/// `ArrayPofEstimate::mbu_to_seu`) — the single implementation all of them
/// delegate to.
///
/// The `seu == 0` column needs care: an MBU-only spectrum (every upset
/// flips several bits — grazing tracks on a small array can do this) used
/// to report `0.0`, i.e. "no MBU", which is the exact opposite of the
/// truth. The ratio is now `f64::INFINITY` in that case; only the truly
/// empty `mbu == seu == 0` case reports 0.
///
/// # Examples
///
/// ```
/// use finrad_core::fit::mbu_to_seu_ratio;
///
/// assert_eq!(mbu_to_seu_ratio(0.1, 0.4), 0.25);
/// assert_eq!(mbu_to_seu_ratio(0.0, 0.0), 0.0);
/// assert_eq!(mbu_to_seu_ratio(0.3, 0.0), f64::INFINITY);
/// ```
pub fn mbu_to_seu_ratio(mbu: f64, seu: f64) -> f64 {
    if seu > 0.0 {
        mbu / seu
    } else if mbu > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Eq. 8: folds per-bin POFs with the per-bin integral flux and the array
/// footprint into FIT rates.
///
/// # Examples
///
/// ```
/// use finrad_core::fit::{fit_rate, PofBin};
/// use finrad_environment::SpectrumBin;
/// use finrad_units::{Area, Energy, Flux};
///
/// let bins = vec![PofBin {
///     spectrum: SpectrumBin {
///         energy: Energy::from_mev(1.0),
///         lo: Energy::from_mev(0.5),
///         hi: Energy::from_mev(2.0),
///         integral_flux: Flux::from_per_cm2_hour(0.001),
///     },
///     pof_total: 0.5,
///     pof_seu: 0.4,
///     pof_mbu: 0.1,
/// }];
/// // 1 cm² array sees 0.001 particles/h; half upset => 5e-4 fails/h = 5e5 FIT.
/// let fit = fit_rate(&bins, Area::from_square_cm(1.0));
/// assert!((fit.total - 5.0e5).abs() / 5.0e5 < 1e-9);
/// assert!((fit.mbu_to_seu_percent() - 25.0).abs() < 1e-9);
/// ```
pub fn fit_rate(bins: &[PofBin], footprint: Area) -> FitRate {
    let area_m2 = footprint.square_meters();
    let mut rate = FitRate::default();
    for b in bins {
        // particles/(m²·s) × m² = particles/s; × 3600 = per hour; × 1e9 = FIT.
        let particles_per_hour = b.spectrum.integral_flux.per_m2_second() * area_m2 * 3600.0;
        rate.total += b.pof_total * particles_per_hour * constants::FIT_HOURS;
        rate.seu += b.pof_seu * particles_per_hour * constants::FIT_HOURS;
        rate.mbu += b.pof_mbu * particles_per_hour * constants::FIT_HOURS;
    }
    rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use finrad_units::{Energy, Flux};

    fn bin(e_mev: f64, flux_m2s: f64, pof: f64) -> PofBin {
        PofBin {
            spectrum: SpectrumBin {
                energy: Energy::from_mev(e_mev),
                lo: Energy::from_mev(e_mev * 0.5),
                hi: Energy::from_mev(e_mev * 2.0),
                integral_flux: Flux::from_per_m2_second(flux_m2s),
            },
            pof_total: pof,
            pof_seu: pof * 0.9,
            pof_mbu: pof * 0.1,
        }
    }

    #[test]
    fn zero_pof_zero_fit() {
        let bins = vec![bin(1.0, 100.0, 0.0)];
        let fit = fit_rate(&bins, Area::from_square_um(10.0));
        assert_eq!(fit.total, 0.0);
        assert_eq!(fit.mbu_to_seu_percent(), 0.0);
    }

    #[test]
    fn fit_scales_linearly() {
        let area = Area::from_square_um(2.0);
        let f1 = fit_rate(&[bin(1.0, 50.0, 0.2)], area);
        let f2 = fit_rate(&[bin(1.0, 100.0, 0.2)], area);
        let f3 = fit_rate(&[bin(1.0, 50.0, 0.4)], area);
        let f4 = fit_rate(&[bin(1.0, 50.0, 0.2)], Area::from_square_um(4.0));
        assert!((f2.total / f1.total - 2.0).abs() < 1e-12);
        assert!((f3.total / f1.total - 2.0).abs() < 1e-12);
        assert!((f4.total / f1.total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bins_accumulate() {
        let area = Area::from_square_um(1.0);
        let single = fit_rate(&[bin(1.0, 10.0, 0.5)], area);
        let double = fit_rate(&[bin(1.0, 10.0, 0.5), bin(2.0, 10.0, 0.5)], area);
        assert!((double.total / single.total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn seu_mbu_decomposition_preserved() {
        let fit = fit_rate(&[bin(1.0, 10.0, 0.5)], Area::from_square_um(1.0));
        assert!((fit.seu + fit.mbu - fit.total).abs() < 1e-9 * fit.total);
        assert!((fit.mbu_to_seu_percent() - 100.0 / 9.0).abs() < 1e-9);
    }
}
