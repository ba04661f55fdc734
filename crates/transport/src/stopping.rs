//! Electronic stopping power of silicon for protons and alpha particles.
//!
//! Direct ionization — the mechanism the paper scopes to — is governed by
//! the electronic stopping power `S(E) = −dE/dx`. We model it with the
//! classic two-regime construction used by SRIM-family codes:
//!
//! * **Low energy** (below the Bragg peak): velocity-proportional stopping
//!   à la Lindhard–Scharff / Andersen–Ziegler, `S_low = A·(E/m)^0.45`.
//! * **High energy**: the Bethe formula
//!   `S_high = K z² (Z/A) β⁻² [ln(2 mₑc² β²γ²/I) − β²]`.
//! * The two are joined with the Varelas–Biersack reciprocal rule
//!   `1/S = 1/S_low + 1/S_high`, which naturally produces the Bragg peak.
//!
//! Alpha stopping is obtained from the proton curve at equal velocity with
//! Ziegler's effective-charge scaling `z_eff = 2·(1 − e^(−κβ))`, which
//! captures electron pickup by slow helium ions.
//!
//! Absolute accuracy is within a factor ≈ 2 of ICRU-49 tables; the paper's
//! results are all normalized, so the *shape* (peak position, high-energy
//! fall-off, alpha/proton ratio) is what matters, and those are preserved.

use finrad_units::{constants, kinematics, Energy, Length, Particle, StoppingPower};

/// Electronic stopping model for a (silicon) target.
///
/// # Examples
///
/// ```
/// use finrad_transport::stopping::StoppingModel;
/// use finrad_units::{Energy, Particle};
///
/// let m = StoppingModel::silicon();
/// // Above the Bragg peak stopping falls with energy:
/// let s1 = m.stopping(Particle::Proton, Energy::from_mev(1.0));
/// let s10 = m.stopping(Particle::Proton, Energy::from_mev(10.0));
/// assert!(s1.kev_per_um() > s10.kev_per_um());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StoppingModel {
    /// Target atomic number.
    z_target: f64,
    /// Target atomic weight (g/mol).
    a_target: f64,
    /// Target density (g/cm³).
    density_g_cm3: f64,
    /// Mean excitation energy (eV).
    mean_excitation_ev: f64,
    /// Low-energy prefactor for protons, MeV·cm²/g at 1 MeV/amu.
    low_energy_prefactor: f64,
    /// Andersen–Ziegler low-energy exponent.
    low_energy_exponent: f64,
}

impl StoppingModel {
    /// The silicon model used throughout the workspace, calibrated so that
    /// the proton curve peaks near 0.1 MeV at ≈ 100 keV/µm and passes
    /// ≈ 35–40 keV/µm at 1 MeV (ICRU-49 class values).
    pub fn silicon() -> Self {
        Self {
            z_target: constants::SILICON_Z,
            a_target: constants::SILICON_A,
            density_g_cm3: constants::SILICON_DENSITY_G_CM3,
            mean_excitation_ev: constants::SILICON_MEAN_EXCITATION_EV,
            low_energy_prefactor: 2.5e3,
            low_energy_exponent: 0.45,
        }
    }

    /// Target density in g/cm³.
    pub fn density_g_cm3(&self) -> f64 {
        self.density_g_cm3
    }

    /// Mass stopping power of a *proton* at kinetic energy `e`, MeV·cm²/g.
    fn proton_mass_stopping(&self, e_mev: f64) -> f64 {
        if e_mev <= 0.0 {
            return 0.0;
        }
        let s_low = self.low_energy_prefactor * e_mev.powf(self.low_energy_exponent);
        let s_high = self.bethe_mass_stopping(1.0, e_mev, constants::PROTON_REST_MEV);
        1.0 / (1.0 / s_low + 1.0 / s_high)
    }

    /// Bethe mass stopping for charge `z` and kinetic energy `t_mev`
    /// (projectile rest mass `rest_mev`), MeV·cm²/g.
    ///
    /// The logarithmic bracket uses `ln(1 + arg)` instead of `ln(arg)`:
    /// asymptotically identical where Bethe is valid (`arg ≫ 1`, i.e.
    /// above ~1 MeV/amu), but smoothly saturating below, so the
    /// Varelas–Biersack reciprocal join produces a single, clean Bragg
    /// peak with no clamping artifacts.
    fn bethe_mass_stopping(&self, z: f64, t_mev: f64, rest_mev: f64) -> f64 {
        let beta2 = kinematics::beta_squared(t_mev, rest_mev);
        let gamma = kinematics::gamma(t_mev, rest_mev);
        let i_mev = self.mean_excitation_ev * 1.0e-6;
        let arg = 2.0 * constants::ELECTRON_REST_MEV * beta2 * gamma * gamma / i_mev;
        let bracket = (arg.ln_1p() - beta2).max(1.0e-6);
        constants::BETHE_K_MEV_CM2_PER_MOL * z * z * (self.z_target / self.a_target) / beta2
            * bracket
    }

    /// Ziegler effective charge of a helium ion at velocity β.
    fn helium_effective_charge(beta: f64) -> f64 {
        // z_eff = z (1 - exp(-125 β z^{-2/3})); for He, z^{-2/3} = 2^{-2/3}.
        let kappa = 125.0 * 2.0f64.powf(-2.0 / 3.0);
        2.0 * (1.0 - (-kappa * beta).exp())
    }

    /// Mass stopping power for `particle` at kinetic energy `e`, MeV·cm²/g.
    pub fn mass_stopping(&self, particle: Particle, energy: Energy) -> f64 {
        let e_mev = energy.mev();
        if e_mev <= 0.0 {
            return 0.0;
        }
        match particle {
            Particle::Proton => self.proton_mass_stopping(e_mev),
            Particle::Alpha => {
                // Equal-velocity proton energy: E_p = E_α · m_p / m_α.
                let e_equiv = e_mev * Particle::Proton.mass_amu() / Particle::Alpha.mass_amu();
                let beta = kinematics::beta_squared(e_mev, constants::ALPHA_REST_MEV).sqrt();
                let z_eff = Self::helium_effective_charge(beta);
                z_eff * z_eff * self.proton_mass_stopping(e_equiv)
            }
        }
    }

    /// Linear stopping power for `particle` at kinetic energy `energy`.
    pub fn stopping(&self, particle: Particle, energy: Energy) -> StoppingPower {
        StoppingPower::from_mass_stopping(self.mass_stopping(particle, energy), self.density_g_cm3)
    }

    /// Mean energy lost over a chord of length `chord` in the continuous
    /// slowing-down approximation, never exceeding the particle energy.
    ///
    /// For the nm-scale chords of a fin the relative energy loss is ≤ 10⁻³,
    /// so evaluating S at the entry energy is exact to first order; for
    /// longer chords (e.g. traversing many microns of back-end stack in an
    /// extension study) the loss is capped at the available energy.
    pub fn mean_energy_loss(&self, particle: Particle, energy: Energy, chord: Length) -> Energy {
        let de = self.stopping(particle, energy) * chord;
        de.qmin(energy)
    }

    /// CSDA range: distance to slow from `energy` to rest, by integrating
    /// `1/S(E)` over energy (trapezoidal, log grid).
    ///
    /// # Panics
    ///
    /// Panics if `energy` is not strictly positive.
    pub fn csda_range(&self, particle: Particle, energy: Energy) -> Length {
        let e_mev = energy.mev();
        assert!(e_mev > 0.0, "range requires positive energy");
        // Below ~10 keV nuclear stopping (not modelled here) dominates and
        // the residual range is < 100 nm, so the electronic-stopping
        // integral is cut off there; particles at or below the cutoff are
        // treated as stopped.
        let lo = 1.0e-2;
        if e_mev <= lo {
            return Length::ZERO;
        }
        let grid = finrad_numerics::interp::log_space(lo, e_mev, 256);
        let mut acc_cm = 0.0;
        for w in grid.windows(2) {
            let s0 = self.stopping(particle, Energy::from_mev(w[0])).mev_per_cm();
            let s1 = self.stopping(particle, Energy::from_mev(w[1])).mev_per_cm();
            // dR = dE / S; trapezoid in E.
            acc_cm += 0.5 * (1.0 / s0 + 1.0 / s1) * (w[1] - w[0]);
        }
        Length::from_cm(acc_cm)
    }
}

impl Default for StoppingModel {
    fn default() -> Self {
        Self::silicon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> StoppingModel {
        StoppingModel::silicon()
    }

    #[test]
    fn proton_bragg_peak_near_100_kev() {
        let m = model();
        let grid = finrad_numerics::interp::log_space(1.0e-3, 100.0, 200);
        let (mut peak_e, mut peak_s) = (0.0, 0.0);
        for &e in &grid {
            let s = m
                .stopping(Particle::Proton, Energy::from_mev(e))
                .kev_per_um();
            if s > peak_s {
                peak_s = s;
                peak_e = e;
            }
        }
        assert!(
            (0.02..0.5).contains(&peak_e),
            "proton Bragg peak at {peak_e} MeV"
        );
        assert!(
            (40.0..250.0).contains(&peak_s),
            "proton peak stopping {peak_s} keV/um"
        );
    }

    #[test]
    fn proton_1mev_matches_icru_class_value() {
        // ICRU-49: ~170 MeV cm²/g => ~39 keV/µm. Accept a factor-2 band.
        let s = model()
            .stopping(Particle::Proton, Energy::from_mev(1.0))
            .kev_per_um();
        assert!((18.0..80.0).contains(&s), "S_p(1 MeV) = {s} keV/um");
    }

    #[test]
    fn alpha_exceeds_proton_at_equal_energy() {
        let m = model();
        for e in [1.0, 2.0, 5.0, 10.0, 50.0] {
            let sa = m
                .stopping(Particle::Alpha, Energy::from_mev(e))
                .kev_per_um();
            let sp = m
                .stopping(Particle::Proton, Energy::from_mev(e))
                .kev_per_um();
            assert!(
                sa > 2.0 * sp,
                "alpha should deposit much more at {e} MeV: {sa} vs {sp}"
            );
        }
        // Near the alpha Bragg peak the effective charge is reduced and the
        // margin narrows, but alpha still dominates.
        let e = Energy::from_mev(0.5);
        assert!(
            m.stopping(Particle::Alpha, e).kev_per_um()
                > 1.2 * m.stopping(Particle::Proton, e).kev_per_um()
        );
    }

    #[test]
    fn both_species_fall_above_their_peaks() {
        // Fig. 4 behaviour: deposited charge decreases with energy in the
        // 1–100 MeV band for both species.
        let m = model();
        for p in Particle::ALL {
            let s1 = m.stopping(p, Energy::from_mev(2.0)).kev_per_um();
            let s2 = m.stopping(p, Energy::from_mev(20.0)).kev_per_um();
            let s3 = m.stopping(p, Energy::from_mev(100.0)).kev_per_um();
            assert!(s1 > s2 && s2 > s3, "{p}: {s1} {s2} {s3}");
        }
    }

    #[test]
    fn high_energy_relativistic_rise_is_mild() {
        // Between 1 GeV and 10 GeV the stopping power is within a factor 2
        // (minimum-ionizing plateau).
        let m = model();
        let a = m
            .stopping(Particle::Proton, Energy::from_mev(1.0e3))
            .kev_per_um();
        let b = m
            .stopping(Particle::Proton, Energy::from_mev(1.0e4))
            .kev_per_um();
        assert!(b / a < 2.0 && a / b < 2.0);
    }

    #[test]
    fn zero_energy_zero_stopping() {
        let m = model();
        assert_eq!(m.mass_stopping(Particle::Proton, Energy::ZERO), 0.0);
    }

    #[test]
    fn effective_charge_limits() {
        // Slow helium is nearly neutral; fast helium is fully stripped.
        let slow = StoppingModel::helium_effective_charge(1.0e-4);
        let fast = StoppingModel::helium_effective_charge(0.2);
        assert!(slow < 0.1);
        assert!(fast > 1.99);
    }

    #[test]
    fn alpha_to_proton_ratio_in_plausible_band() {
        // At a few MeV the measured ratio of stopping powers is ~5-8.
        let m = model();
        let e = Energy::from_mev(5.0);
        let ratio = m.stopping(Particle::Alpha, e).kev_per_um()
            / m.stopping(Particle::Proton, e).kev_per_um();
        assert!((3.0..25.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn mean_energy_loss_over_fin_chord() {
        // 1 MeV alpha over 20 nm: hundreds of e-h pairs worth of energy.
        let m = model();
        let de = m.mean_energy_loss(
            Particle::Alpha,
            Energy::from_mev(1.0),
            Length::from_nm(20.0),
        );
        let pairs = (de / constants::EHP_PAIR_ENERGY).value();
        assert!((100.0..10_000.0).contains(&pairs), "pairs {pairs}");
    }

    #[test]
    fn energy_loss_capped_at_available_energy() {
        let m = model();
        let de = m.mean_energy_loss(
            Particle::Alpha,
            Energy::from_kev(1.0),
            Length::from_um(100.0),
        );
        assert!(de <= Energy::from_kev(1.0));
    }

    #[test]
    fn csda_range_increases_with_energy() {
        let m = model();
        let r1 = m.csda_range(Particle::Alpha, Energy::from_mev(1.0));
        let r5 = m.csda_range(Particle::Alpha, Energy::from_mev(5.0));
        assert!(r5 > r1);
        // 5 MeV alpha range in Si is ~25 µm; accept a wide band.
        let um = r5.micrometers();
        assert!((5.0..120.0).contains(&um), "range {um} um");
    }

    #[test]
    fn tracks_icru49_within_factor_two() {
        // Absolute accuracy contract: mass stopping within 2x of the
        // ICRU-49/PSTAR-class reference values across the band the SER
        // analysis uses. (The paper's results are normalized, so a global
        // factor cancels; the contract pins the shape to reality.)
        let reference_proton: [(f64, f64); 5] = [
            // (MeV, MeV·cm²/g)
            (0.3, 310.0),
            (1.0, 170.0),
            (3.0, 75.0),
            (10.0, 33.0),
            (100.0, 5.8),
        ];
        let m = model();
        for (e_mev, s_ref) in reference_proton {
            let s = m.mass_stopping(Particle::Proton, Energy::from_mev(e_mev));
            let ratio = s / s_ref;
            assert!(
                (0.5..2.0).contains(&ratio),
                "proton {e_mev} MeV: {s} vs ICRU {s_ref} (x{ratio:.2})"
            );
        }
        // Alpha reference (ASTAR-class); the effective-charge model is
        // cruder, so a 2.5x band.
        let reference_alpha: [(f64, f64); 4] = [
            (1.0, 1200.0),
            (3.0, 690.0),
            (5.49, 480.0), // Am-241 line
            (10.0, 310.0),
        ];
        for (e_mev, s_ref) in reference_alpha {
            let s = m.mass_stopping(Particle::Alpha, Energy::from_mev(e_mev));
            let ratio = s / s_ref;
            assert!(
                (0.4..2.5).contains(&ratio),
                "alpha {e_mev} MeV: {s} vs ASTAR {s_ref} (x{ratio:.2})"
            );
        }
    }

    #[test]
    fn csda_ranges_track_reference_values() {
        // PSTAR: 1 MeV proton in Si ~ 16.5 um; ASTAR: 5.49 MeV alpha ~ 28 um.
        let m = model();
        let r_p = m
            .csda_range(Particle::Proton, Energy::from_mev(1.0))
            .micrometers();
        assert!((8.0..33.0).contains(&r_p), "proton range {r_p} um");
        let r_a = m
            .csda_range(Particle::Alpha, Energy::from_mev(5.49))
            .micrometers();
        assert!((14.0..56.0).contains(&r_a), "alpha range {r_a} um");
    }

    #[test]
    fn linear_vs_mass_consistency() {
        let m = model();
        let e = Energy::from_mev(2.0);
        let lin = m.stopping(Particle::Proton, e).mev_per_cm();
        let mass = m.mass_stopping(Particle::Proton, e);
        assert!((lin - mass * m.density_g_cm3()).abs() / lin < 1e-12);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use finrad_numerics::rng::{Rng, Xoshiro256pp};

    #[test]
    fn stopping_nonnegative_and_finite() {
        let m = StoppingModel::silicon();
        let mut rng = Xoshiro256pp::seed_from_u64(0x5709);
        for _ in 0..400 {
            // Log-uniform energy over 1e-4..1e7 MeV.
            let e = 10.0f64.powf(rng.gen_range(-4.0..7.0));
            for p in Particle::ALL {
                let s = m.stopping(p, Energy::from_mev(e)).kev_per_um();
                assert!(s.is_finite() && s >= 0.0);
            }
        }
    }

    #[test]
    fn energy_loss_never_exceeds_energy() {
        let m = StoppingModel::silicon();
        let mut rng = Xoshiro256pp::seed_from_u64(0x1055);
        for _ in 0..400 {
            let e = 10.0f64.powf(rng.gen_range(-3.0..2.0));
            let chord_nm = 10.0f64.powf(rng.gen_range(-1.0..6.0));
            let de = m.mean_energy_loss(
                Particle::Alpha,
                Energy::from_mev(e),
                finrad_units::Length::from_nm(chord_nm),
            );
            assert!(de.mev() <= e * (1.0 + 1e-12));
            assert!(de.mev() >= 0.0);
        }
    }

    #[test]
    fn loss_monotone_in_chord() {
        let m = StoppingModel::silicon();
        let mut rng = Xoshiro256pp::seed_from_u64(0x10C0);
        for _ in 0..400 {
            let e = rng.gen_range(0.5..50.0);
            let l1 = rng.gen_range(1.0..100.0);
            let l2 = rng.gen_range(1.0..100.0);
            let (short, long) = if l1 < l2 { (l1, l2) } else { (l2, l1) };
            let d_short = m.mean_energy_loss(
                Particle::Proton,
                Energy::from_mev(e),
                finrad_units::Length::from_nm(short),
            );
            let d_long = m.mean_energy_loss(
                Particle::Proton,
                Energy::from_mev(e),
                finrad_units::Length::from_nm(long),
            );
            assert!(d_long >= d_short);
        }
    }
}
