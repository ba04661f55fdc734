//! Neutron–silicon nuclear interactions and secondary-ion production.
//!
//! **Extension beyond the paper** (its declared future work): neutrons are
//! uncharged and deposit no charge directly; they act through "indirect
//! ionization" — a nuclear reaction in (or near) the device produces a
//! charged secondary (a Si/Mg/Al recoil or an (n,α)/(n,p) product) whose
//! dense track then deposits charge exactly like the direct-ionizing
//! particles of the main flow.
//!
//! The model here is deliberately simple but captures the three knobs that
//! matter for SER: the *rate* of reactions (macroscopic cross-section
//! Σ(E) = N_Si·σ(E)), the *energy* of the secondary (an exponential
//! spectrum whose mean grows with neutron energy), and its *stopping power*
//! (log-uniform over the heavy-recoil LET band, far above alpha LET —
//! which is why a single reaction can upset several cells).

use finrad_numerics::interp::LogLogTable;
use finrad_numerics::rng::Rng;
use finrad_units::{Energy, Length, StoppingPower};

/// Number density of silicon atoms, 1/cm³.
const N_SI_PER_CM3: f64 = 4.99e22;

/// A charged secondary produced by a neutron reaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondaryIon {
    /// Kinetic energy of the secondary.
    pub energy: Energy,
    /// Its (assumed constant-over-track) linear stopping power.
    pub let_linear: StoppingPower,
}

impl SecondaryIon {
    /// Track length until the ion has spent its energy.
    pub fn range(&self) -> Length {
        self.energy / self.let_linear
    }
}

/// Neutron reaction model for silicon.
///
/// # Examples
///
/// ```
/// use finrad_transport::neutron::NeutronInteraction;
/// use finrad_units::{Energy, Length};
///
/// let model = NeutronInteraction::silicon();
/// let p = model.interaction_probability(Energy::from_mev(100.0), Length::from_um(1.0));
/// assert!(p > 0.0 && p < 1.0e-3); // reactions are rare per micron
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NeutronInteraction {
    /// Reaction (upset-relevant) cross-section vs energy, barns.
    sigma_barn: LogLogTable,
    /// Mean secondary energy offset, MeV.
    secondary_mean_base_mev: f64,
    /// Mean secondary energy slope vs neutron energy.
    secondary_mean_fraction: f64,
    /// Cap on the mean secondary energy, MeV.
    secondary_mean_cap_mev: f64,
    /// LET sampling band of the secondaries, MeV·cm²/mg.
    let_band_mev_cm2_mg: (f64, f64),
}

impl NeutronInteraction {
    /// The silicon reaction model: cross-section rising from the ~2 MeV
    /// region to the ≈ 0.5 barn inelastic plateau above 50 MeV; secondary
    /// energies of a few MeV; heavy-recoil LETs of 0.5–8 MeV·cm²/mg
    /// (≈ 0.12–1.9 MeV/µm in silicon).
    pub fn silicon() -> Self {
        Self {
            sigma_barn: LogLogTable::from_static(
                vec![1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 300.0, 1.0e3],
                vec![0.02, 0.05, 0.15, 0.30, 0.45, 0.50, 0.46, 0.45, 0.45],
            ),
            secondary_mean_base_mev: 1.0,
            secondary_mean_fraction: 0.05,
            secondary_mean_cap_mev: 10.0,
            let_band_mev_cm2_mg: (0.5, 8.0),
        }
    }

    /// Macroscopic cross-section Σ(E), 1/m.
    pub fn macroscopic_cross_section_per_m(&self, energy: Energy) -> f64 {
        let e = energy.mev().clamp(1.0, 1.0e3);
        let sigma_cm2 = self.sigma_barn.eval(e) * 1.0e-24;
        N_SI_PER_CM3 * sigma_cm2 * 1.0e2 // 1/cm -> 1/m
    }

    /// Mean free path between reactions.
    pub fn mean_free_path(&self, energy: Energy) -> Length {
        Length::from_meters(1.0 / self.macroscopic_cross_section_per_m(energy))
    }

    /// Probability of at least one reaction along `path` of silicon:
    /// `1 − exp(−Σ·L)`.
    pub fn interaction_probability(&self, energy: Energy, path: Length) -> f64 {
        let x = self.macroscopic_cross_section_per_m(energy) * path.meters();
        -(-x).exp_m1()
    }

    /// Samples the charged secondary of one reaction at neutron energy
    /// `energy`.
    pub fn sample_secondary<R: Rng + ?Sized>(&self, energy: Energy, rng: &mut R) -> SecondaryIon {
        let mean_mev = (self.secondary_mean_base_mev + self.secondary_mean_fraction * energy.mev())
            .min(self.secondary_mean_cap_mev);
        // Exponential secondary-energy spectrum, capped at half the
        // neutron energy (kinematics).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0f64);
        let e_mev = (-u.ln() * mean_mev).min(0.5 * energy.mev()).max(1.0e-3);
        // Log-uniform LET over the heavy-recoil band.
        let (lo, hi) = self.let_band_mev_cm2_mg;
        let v: f64 = rng.gen_range(0.0f64..1.0);
        let let_mass = lo * (hi / lo).powf(v); // MeV·cm²/mg
        let let_linear = StoppingPower::from_mass_stopping(
            let_mass * 1.0e3, // MeV·cm²/g
            finrad_units::constants::SILICON_DENSITY_G_CM3,
        );
        SecondaryIon {
            energy: Energy::from_mev(e_mev),
            let_linear,
        }
    }
}

impl Default for NeutronInteraction {
    fn default() -> Self {
        Self::silicon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finrad_numerics::rng::Xoshiro256pp;

    #[test]
    fn mean_free_path_is_centimetres() {
        let m = NeutronInteraction::silicon();
        let mfp = m.mean_free_path(Energy::from_mev(100.0));
        let cm = mfp.centimeters();
        assert!((10.0..100.0).contains(&cm), "mfp {cm} cm");
    }

    #[test]
    fn probability_linear_for_thin_paths() {
        let m = NeutronInteraction::silicon();
        let e = Energy::from_mev(50.0);
        let p1 = m.interaction_probability(e, Length::from_um(1.0));
        let p2 = m.interaction_probability(e, Length::from_um(2.0));
        assert!((p2 / p1 - 2.0).abs() < 1e-5);
        assert!(p1 < 1e-4);
        assert!(p1 > 0.0);
    }

    #[test]
    fn cross_section_rises_then_plateaus() {
        let m = NeutronInteraction::silicon();
        let s2 = m.macroscopic_cross_section_per_m(Energy::from_mev(2.0));
        let s50 = m.macroscopic_cross_section_per_m(Energy::from_mev(50.0));
        let s500 = m.macroscopic_cross_section_per_m(Energy::from_mev(500.0));
        assert!(s50 > 3.0 * s2);
        assert!((s500 / s50 - 1.0).abs() < 0.3);
    }

    #[test]
    fn secondary_statistics() {
        let m = NeutronInteraction::silicon();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let e_n = Energy::from_mev(100.0);
        let n = 20_000;
        let mut sum_e = 0.0;
        for _ in 0..n {
            let s = m.sample_secondary(e_n, &mut rng);
            assert!(s.energy.mev() > 0.0);
            assert!(s.energy.mev() <= 50.0 + 1e-9);
            let let_um = s.let_linear.kev_per_um();
            assert!(
                (100.0..2000.0).contains(&let_um),
                "secondary LET {let_um} keV/um"
            );
            sum_e += s.energy.mev();
        }
        let mean = sum_e / n as f64;
        // mean ≈ base + 0.05·100 = 6 MeV (minus the cap's truncation).
        assert!((3.0..8.0).contains(&mean), "mean secondary energy {mean}");
    }

    #[test]
    fn secondary_range_is_microns() {
        let m = NeutronInteraction::silicon();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let s = m.sample_secondary(Energy::from_mev(100.0), &mut rng);
        let r = s.range().micrometers();
        assert!((0.001..1000.0).contains(&r), "range {r} um");
    }

    #[test]
    fn heavy_secondaries_outstop_alphas() {
        // The point of indirect ionization: secondary LET far exceeds the
        // alpha LET at the same energy.
        use crate::stopping::StoppingModel;
        let m = NeutronInteraction::silicon();
        let alpha_let = StoppingModel::silicon()
            .stopping(finrad_units::Particle::Alpha, Energy::from_mev(2.0))
            .kev_per_um();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut above = 0;
        let n = 1000;
        for _ in 0..n {
            let s = m.sample_secondary(Energy::from_mev(50.0), &mut rng);
            if s.let_linear.kev_per_um() > alpha_let {
                above += 1;
            }
        }
        assert!(
            above > n / 2,
            "only {above}/{n} secondaries above alpha LET"
        );
    }
}
