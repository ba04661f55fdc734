//! Energy-loss straggling in thin silicon layers.
//!
//! Over a nanometre-scale chord the *mean* energy loss `S(E)·l` is only a
//! few hundred eV to a few keV, and the loss distribution is strongly
//! non-Gaussian: rare hard δ-ray collisions produce a long high-loss tail.
//! This is the Landau regime (the thickness parameter κ = ξ/T_max ≪ 1).
//! Geant4 handles this with its fluctuation models; we implement:
//!
//! * **Landau sampling** via the exact Moyal-form transform: if
//!   `Z ~ N(0,1)` then `λ = −ln(Z²)` follows the Moyal distribution, a
//!   close analytic approximation to the Landau shape with the correct
//!   exponential-of-exponential tail.
//! * **Bohr Gaussian** for thick segments (κ ≳ 10), variance
//!   `Ω² = 0.1569·z²·(Z/A)·ρ·Δx` MeV².
//! * Automatic regime selection through κ.
//!
//! All sampled losses are clamped to `[0, E]` — a particle cannot deposit
//! more energy than it carries.

use crate::stopping::StoppingModel;
use finrad_numerics::rng::Rng;
use finrad_units::{constants, kinematics, Energy, Length, Particle, StoppingPower};

/// Draws a standard-normal deviate via Box–Muller (keeps the approved
/// dependency set to `rand` itself, without `rand_distr`).
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(0.0f64..1.0);
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen_range(0.0f64..1.0);
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Which fluctuation model to apply on top of the mean energy loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StragglingModel {
    /// No fluctuation: deposit exactly the mean loss. Useful for ablations
    /// and for deterministic tests.
    None,
    /// Gaussian with the Bohr variance (thick-absorber limit).
    Bohr,
    /// Landau/Moyal sampling (thin-absorber limit).
    Landau,
    /// Choose Landau or Bohr per segment from the thickness parameter κ.
    #[default]
    Auto,
}

/// Samples the energy deposited by `particle` of kinetic energy `energy`
/// along a silicon chord of length `chord`.
///
/// The return value is clamped to `[0, energy]`. A thin wrapper over
/// [`FixedEnergyLoss`]; build one of those instead when many chords are
/// sampled at the same energy.
///
/// # Examples
///
/// ```
/// use finrad_transport::{stopping::StoppingModel, straggling};
/// use finrad_units::{Energy, Length, Particle};
/// use finrad_numerics::rng::Xoshiro256pp;
///
/// let model = StoppingModel::silicon();
/// let mut rng = Xoshiro256pp::seed_from_u64(1);
/// let de = straggling::sample_energy_loss(
///     &model,
///     straggling::StragglingModel::Auto,
///     Particle::Alpha,
///     Energy::from_mev(2.0),
///     Length::from_nm(20.0),
///     &mut rng,
/// );
/// assert!(de.ev() >= 0.0);
/// ```
pub fn sample_energy_loss<R: Rng + ?Sized>(
    model: &StoppingModel,
    straggling: StragglingModel,
    particle: Particle,
    energy: Energy,
    chord: Length,
    rng: &mut R,
) -> Energy {
    FixedEnergyLoss::new(model, straggling, particle, energy).sample(chord, rng)
}

/// The energy-loss sampler of one particle at one fixed kinetic energy.
///
/// Everything that depends on the energy alone — the stopping power, the
/// maximum transferable energy `T_max`, and the prefixes of ξ and of the
/// Bohr variance that multiply the areal density `ρ·l` — is computed once
/// at construction. [`FixedEnergyLoss::sample`] then costs one `S·l`, one
/// `prefix·ρl` per quantity it needs, and the random draws. The
/// arithmetic and the draws are those of [`sample_energy_loss`], which
/// wraps this type, so results agree bit for bit.
///
/// # Examples
///
/// ```
/// use finrad_transport::stopping::StoppingModel;
/// use finrad_transport::straggling::{sample_energy_loss, FixedEnergyLoss, StragglingModel};
/// use finrad_units::{Energy, Length, Particle};
/// use finrad_numerics::rng::Xoshiro256pp;
///
/// let model = StoppingModel::silicon();
/// let e = Energy::from_mev(2.0);
/// let loss = FixedEnergyLoss::new(&model, StragglingModel::Auto, Particle::Alpha, e);
/// let (mut a, mut b) = (Xoshiro256pp::seed_from_u64(1), Xoshiro256pp::seed_from_u64(1));
/// for nm in [5.0, 20.0, 35.0] {
///     let l = Length::from_nm(nm);
///     let direct = sample_energy_loss(&model, StragglingModel::Auto, Particle::Alpha, e, l, &mut a);
///     assert_eq!(loss.sample(l, &mut b), direct);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedEnergyLoss {
    straggling: StragglingModel,
    energy: Energy,
    stopping: StoppingPower,
    /// ξ per unit areal density, MeV per g/cm².
    xi_prefix: f64,
    /// `T_max`, MeV.
    t_max_mev: f64,
    /// Bohr variance per unit areal density, MeV² per g/cm².
    bohr_prefix: f64,
}

impl FixedEnergyLoss {
    /// The sampler of `particle` at `energy` under `straggling`.
    pub fn new(
        model: &StoppingModel,
        straggling: StragglingModel,
        particle: Particle,
        energy: Energy,
    ) -> Self {
        Self {
            straggling,
            energy,
            stopping: model.stopping(particle, energy),
            xi_prefix: xi_prefix(particle, energy),
            t_max_mev: t_max_mev(particle, energy),
            bohr_prefix: bohr_variance_prefix(particle),
        }
    }

    /// The particle's kinetic energy, the cap on any sampled loss.
    pub fn energy(&self) -> Energy {
        self.energy
    }

    /// Samples the energy deposited along `chord`, clamped to
    /// `[0, energy]`. Draws nothing when the mean loss is zero.
    pub fn sample<R: Rng + ?Sized>(&self, chord: Length, rng: &mut R) -> Energy {
        let mean = (self.stopping * chord).qmin(self.energy);
        if mean.ev() <= 0.0 {
            return Energy::ZERO;
        }
        let x_g_cm2 = areal_density(chord);
        let sampled = match self.straggling {
            StragglingModel::None => mean,
            StragglingModel::Bohr => self.sample_bohr(x_g_cm2, mean, rng),
            StragglingModel::Landau => self.sample_landau(x_g_cm2, mean, rng),
            StragglingModel::Auto => {
                if self.xi_prefix * x_g_cm2 / self.t_max_mev > 10.0 {
                    self.sample_bohr(x_g_cm2, mean, rng)
                } else {
                    self.sample_landau(x_g_cm2, mean, rng)
                }
            }
        };
        sampled.qmax(Energy::ZERO).qmin(self.energy)
    }

    fn sample_bohr<R: Rng + ?Sized>(&self, x_g_cm2: f64, mean: Energy, rng: &mut R) -> Energy {
        let sigma = bohr_sigma_of(self.bohr_prefix, x_g_cm2);
        let z: f64 = sample_standard_normal(rng);
        mean + sigma * z
    }

    fn sample_landau<R: Rng + ?Sized>(&self, x_g_cm2: f64, mean: Energy, rng: &mut R) -> Energy {
        // Moyal-shaped fluctuation scaled so that mean and variance match
        // the physical values (the straggling variance ξ·T_max equals the
        // Bohr variance at γ ≈ 1). The Moyal shape contributes the defining
        // Landau feature: a right-skewed distribution whose rare
        // hard-collision tail reaches several times the mean loss, which a
        // symmetric Gaussian cannot produce.
        let scale = bohr_sigma_of(self.bohr_prefix, x_g_cm2) / MOYAL_STDDEV;
        let lambda = sample_moyal(rng);
        mean + scale * (lambda - MOYAL_MEAN)
    }
}

/// Areal density `ρ·l` of a silicon chord, g/cm².
fn areal_density(chord: Length) -> f64 {
    constants::SILICON_DENSITY_G_CM3 * chord.centimeters()
}

/// The energy-dependent factor of the Landau ξ parameter, MeV per g/cm²:
/// `ξ = (K/2)(Z/A)(z²/β²)·ρΔx` is this times the areal density.
fn xi_prefix(particle: Particle, energy: Energy) -> f64 {
    let beta2 = kinematics::beta_squared(energy.mev(), particle.rest_energy_mev()).max(1e-12);
    let z = particle.charge_number();
    0.5 * constants::BETHE_K_MEV_CM2_PER_MOL * (constants::SILICON_Z / constants::SILICON_A) * z * z
        / beta2
}

/// The Landau ξ parameter in MeV.
fn xi_mev(particle: Particle, energy: Energy, chord: Length) -> f64 {
    xi_prefix(particle, energy) * areal_density(chord)
}

/// Maximum kinematically transferable energy to an electron, MeV.
fn t_max_mev(particle: Particle, energy: Energy) -> f64 {
    let beta2 = kinematics::beta_squared(energy.mev(), particle.rest_energy_mev());
    let gamma = kinematics::gamma(energy.mev(), particle.rest_energy_mev());
    // Heavy-projectile approximation (m_e << M).
    (2.0 * constants::ELECTRON_REST_MEV * beta2 * gamma * gamma).max(1e-12)
}

/// Thickness parameter κ = ξ / T_max. κ ≪ 1 ⇒ Landau; κ ≫ 1 ⇒ Gaussian.
pub fn kappa(particle: Particle, energy: Energy, chord: Length) -> f64 {
    xi_mev(particle, energy, chord) / t_max_mev(particle, energy)
}

/// The Bohr variance per unit areal density, MeV² per g/cm²:
/// `Ω² = 0.1569·z²·(Z/A)·ρΔx` is this times the areal density. It does
/// not depend on the particle's velocity (to first order).
fn bohr_variance_prefix(particle: Particle) -> f64 {
    let z = particle.charge_number();
    0.1569 * z * z * (constants::SILICON_Z / constants::SILICON_A)
}

fn bohr_sigma_of(prefix: f64, x_g_cm2: f64) -> Energy {
    Energy::from_mev((prefix * x_g_cm2).sqrt())
}

/// Bohr straggling standard deviation for the segment.
pub fn bohr_sigma(particle: Particle, energy: Energy, chord: Length) -> Energy {
    let _ = energy; // Bohr variance is velocity-independent to first order.
    bohr_sigma_of(bohr_variance_prefix(particle), areal_density(chord))
}

/// Draws a Moyal-distributed deviate with mode 0 and unit scale:
/// `λ = −ln(Z²)` for `Z ~ N(0,1)`.
pub fn sample_moyal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let z: f64 = sample_standard_normal(rng);
        let z2 = z * z;
        if z2 > 0.0 {
            return -z2.ln();
        }
    }
}

/// The Moyal-form deposit distribution of one thin-chord segment:
/// `ΔE = mean + scale·(λ − 1.2704)` with `λ ~ Moyal(0, 1)`.
///
/// These are the parameters the conditional-expectation flip model in
/// `finrad-core` integrates over analytically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LandauParams {
    /// Mean deposited energy (the CSDA mean loss).
    pub mean: Energy,
    /// Moyal scale (physical straggling σ divided by the Moyal stddev).
    pub scale: Energy,
}

/// Mean of the standard Moyal distribution (γ_E + ln 2).
pub const MOYAL_MEAN: f64 = 1.270_362_845;
/// Standard deviation of the standard Moyal distribution (π/√2).
pub const MOYAL_STDDEV: f64 = 2.221_441_469;

/// Deposit-distribution parameters for `particle` at `energy` over `chord`.
pub fn landau_params(
    model: &StoppingModel,
    particle: Particle,
    energy: Energy,
    chord: Length,
) -> LandauParams {
    let mean = model.mean_energy_loss(particle, energy, chord);
    let scale = bohr_sigma(particle, energy, chord) / MOYAL_STDDEV;
    LandauParams { mean, scale }
}

/// Survival function of the standard Moyal distribution:
/// `P(λ > x) = P(χ²₁ < e^(−x)) = erf(√(e^(−x)/2))`.
///
/// For `x ≤ −5` the erf argument is at least √(e⁵/2) ≈ 8.6, where erf
/// already rounds to exactly `1.0` (and stays there once `e^(−x)`
/// overflows to +∞), so the function returns `1.0` without evaluating it.
/// Past `x ≈ 745` the other way, `e^(−x)` underflows to `0` and the
/// expression is `erf(0) = +0.0`, which is returned without running the
/// erf series.
///
/// # Examples
///
/// ```
/// use finrad_transport::straggling::moyal_survival;
///
/// assert!((moyal_survival(-50.0) - 1.0).abs() < 1e-9);
/// assert!(moyal_survival(20.0) < 1e-4);
/// let p = moyal_survival(0.0);
/// assert!(p > 0.4 && p < 0.7); // median is near the mode
/// ```
pub fn moyal_survival(x: f64) -> f64 {
    if x <= -5.0 {
        return 1.0;
    }
    let tail = (-x).exp();
    if tail <= 0.0 {
        return 0.0;
    }
    finrad_numerics::special::erf((0.5 * tail).sqrt())
}

/// Density of the standard Moyal distribution, the negated derivative of
/// [`moyal_survival`]: `p(x) = exp(−(x + e^(−x))/2) / √(2π)`. It peaks at
/// the mode `x = 0` and falls on either side.
pub fn moyal_pdf(x: f64) -> f64 {
    const FRAC_1_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    (-0.5 * (x + (-x).exp())).exp() * FRAC_1_SQRT_2PI
}

/// Coefficients of the polynomials behind the derivatives of
/// [`moyal_survival`]: with `w = e^(−x)`,
/// `d^(j+1)/dx^(j+1) moyal_survival(x) = −moyal_pdf(x) · P_j(w)`, and
/// `P_j(w) = Σ_m out[j][m]·w^m` (degree `j`).
///
/// `P_0 = 1` and `P_{j+1}(w) = −(1 − w)/2 · P_j(w) − w · P_j′(w)`, from
/// `p′(x) = −p(x)·(1 − w)/2` and `dw/dx = −w`. Every coefficient is a
/// small dyadic rational, so the table is exact in `f64`.
pub const fn moyal_derivative_polys<const N: usize>() -> [[f64; N]; N] {
    let mut out = [[0.0; N]; N];
    out[0][0] = 1.0;
    let mut j = 1;
    while j < N {
        let mut m = 0;
        while m <= j {
            let prev = if m < j { out[j - 1][m] } else { 0.0 };
            let lower = if m > 0 { out[j - 1][m - 1] } else { 0.0 };
            out[j][m] = -(m as f64 + 0.5) * prev + 0.5 * lower;
            m += 1;
        }
        j += 1;
    }
    out
}

/// Probability that the deposit described by `params` reaches `threshold`,
/// given at most `available` energy can be deposited (hard kinematic cap).
pub fn deposit_exceedance(params: &LandauParams, threshold: Energy, available: Energy) -> f64 {
    if threshold > available {
        return 0.0;
    }
    if threshold.ev() <= 0.0 {
        return 1.0;
    }
    if params.scale.ev() <= 0.0 {
        return if params.mean >= threshold { 1.0 } else { 0.0 };
    }
    let lambda = ((threshold - params.mean) / params.scale).value() + MOYAL_MEAN;
    moyal_survival(lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use finrad_numerics::rng::{Rng, Xoshiro256pp};

    #[test]
    fn moyal_survival_shortcut_is_exact() {
        // Where the shortcut returns 1.0, the formula it skips already
        // rounds to exactly 1.0: a dense grid over [-800, -5], the far
        // end, where exp overflows, and -5 itself.
        let formula = |x: f64| finrad_numerics::special::erf((0.5 * (-x).exp()).sqrt());
        let grid = (0..=795_000).map(|k| -800.0 + k as f64 * 1e-3);
        let edges = [
            f64::MIN,
            -1e300,
            -709.8,
            -709.782_712_893_384,
            -5.0,
            (-5.0f64).next_down(),
        ];
        for x in grid.chain(edges) {
            if x > -5.0 {
                continue;
            }
            assert_eq!(moyal_survival(x).to_bits(), 1.0f64.to_bits(), "x = {x}");
            assert_eq!(formula(x).to_bits(), 1.0f64.to_bits(), "x = {x}");
        }
        // Above the cut the function is the formula, bit for bit.
        for k in 1..=60_000 {
            let x = -5.0 + k as f64 * 1e-3;
            assert_eq!(moyal_survival(x).to_bits(), formula(x).to_bits(), "x = {x}");
        }
    }

    fn model() -> StoppingModel {
        StoppingModel::silicon()
    }

    /// The per-call straggling arithmetic as it stood before
    /// [`FixedEnergyLoss`] hoisted its energy-only factors, kept verbatim
    /// as the bit-exact reference for the kernel.
    fn reference_energy_loss(
        model: &StoppingModel,
        straggling: StragglingModel,
        particle: Particle,
        energy: Energy,
        chord: Length,
        rng: &mut Xoshiro256pp,
    ) -> Energy {
        fn sigma(particle: Particle, chord: Length) -> Energy {
            let z = particle.charge_number();
            let x_g_cm2 = constants::SILICON_DENSITY_G_CM3 * chord.centimeters();
            let var_mev2 = 0.1569 * z * z * (constants::SILICON_Z / constants::SILICON_A) * x_g_cm2;
            Energy::from_mev(var_mev2.sqrt())
        }
        fn kappa_ref(particle: Particle, energy: Energy, chord: Length) -> f64 {
            let rest = particle.rest_energy_mev();
            let beta2 = kinematics::beta_squared(energy.mev(), rest).max(1e-12);
            let x_g_cm2 = constants::SILICON_DENSITY_G_CM3 * chord.centimeters();
            let z = particle.charge_number();
            let xi = 0.5
                * constants::BETHE_K_MEV_CM2_PER_MOL
                * (constants::SILICON_Z / constants::SILICON_A)
                * z
                * z
                / beta2
                * x_g_cm2;
            let beta2 = kinematics::beta_squared(energy.mev(), rest);
            let gamma = kinematics::gamma(energy.mev(), rest);
            xi / (2.0 * constants::ELECTRON_REST_MEV * beta2 * gamma * gamma).max(1e-12)
        }
        let bohr = |mean: Energy, rng: &mut Xoshiro256pp| {
            let s = sigma(particle, chord);
            mean + s * sample_standard_normal(rng)
        };
        let landau = |mean: Energy, rng: &mut Xoshiro256pp| {
            let scale = sigma(particle, chord) / MOYAL_STDDEV;
            mean + scale * (sample_moyal(rng) - MOYAL_MEAN)
        };
        let mean = model.mean_energy_loss(particle, energy, chord);
        if mean.ev() <= 0.0 {
            return Energy::ZERO;
        }
        let sampled = match straggling {
            StragglingModel::None => mean,
            StragglingModel::Bohr => bohr(mean, rng),
            StragglingModel::Landau => landau(mean, rng),
            StragglingModel::Auto => {
                if kappa_ref(particle, energy, chord) > 10.0 {
                    bohr(mean, rng)
                } else {
                    landau(mean, rng)
                }
            }
        };
        sampled.qmax(Energy::ZERO).qmin(energy)
    }

    #[test]
    fn kernel_matches_the_per_call_arithmetic_bitwise() {
        // Energies from 0 (no loss, no draw) through the Bragg peaks to
        // 1 GeV; chords from zero through fin scale to 50 um, where Auto
        // takes its Bohr branch and slow alphas lose all their energy.
        // The seeded log-uniform chords give many distinct σ values, so a
        // one-ulp change in the per-chord arithmetic shows.
        let m = model();
        let energies_mev = [0.0, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 1e3];
        let mut grid = Xoshiro256pp::seed_from_u64(40);
        let chords_nm: Vec<f64> = [0.0, 1e-3, 0.5, 8.0, 20.0, 37.5, 1e3, 5e4]
            .into_iter()
            .chain((0..60).map(|_| 10f64.powf(grid.gen_range(-3.0..4.7))))
            .collect();
        let mut kappa_above_10 = 0;
        for particle in [Particle::Proton, Particle::Alpha] {
            for straggling in [
                StragglingModel::None,
                StragglingModel::Bohr,
                StragglingModel::Landau,
                StragglingModel::Auto,
            ] {
                let mut a = Xoshiro256pp::seed_from_u64(41);
                let mut b = Xoshiro256pp::seed_from_u64(41);
                for &e_mev in &energies_mev {
                    let e = Energy::from_mev(e_mev);
                    let loss = FixedEnergyLoss::new(&m, straggling, particle, e);
                    for &nm in &chords_nm {
                        let l = Length::from_nm(nm);
                        if e_mev > 0.0 && kappa(particle, e, l) > 10.0 {
                            kappa_above_10 += 1;
                        }
                        for _ in 0..5 {
                            let want =
                                reference_energy_loss(&m, straggling, particle, e, l, &mut a);
                            let got = loss.sample(l, &mut b);
                            assert_eq!(
                                got.joules().to_bits(),
                                want.joules().to_bits(),
                                "{particle:?} {straggling:?} {e_mev} MeV {nm} nm"
                            );
                            let direct = sample_energy_loss(&m, straggling, particle, e, l, &mut a);
                            assert_eq!(direct, loss.sample(l, &mut b));
                        }
                    }
                }
                // Same number of draws on both sides.
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
        assert!(kappa_above_10 > 0, "the grid must reach the Bohr regime");
    }

    #[test]
    fn fin_chords_are_in_the_landau_regime() {
        // nm chords, MeV particles: kappa << 1.
        let k = kappa(
            Particle::Proton,
            Energy::from_mev(1.0),
            Length::from_nm(20.0),
        );
        assert!(k < 0.1, "kappa {k}");
        let ka = kappa(
            Particle::Alpha,
            Energy::from_mev(5.0),
            Length::from_nm(20.0),
        );
        assert!(ka < 0.5, "kappa {ka}");
    }

    #[test]
    fn thick_segments_reach_gaussian_regime() {
        let k = kappa(
            Particle::Alpha,
            Energy::from_kev(400.0),
            Length::from_um(50.0),
        );
        assert!(k > 10.0, "kappa {k}");
    }

    #[test]
    fn none_model_is_deterministic_mean() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let m = model();
        let e = Energy::from_mev(1.0);
        let l = Length::from_nm(20.0);
        let de = sample_energy_loss(&m, StragglingModel::None, Particle::Alpha, e, l, &mut rng);
        assert_eq!(de, m.mean_energy_loss(Particle::Alpha, e, l));
    }

    #[test]
    fn sampled_mean_tracks_csda_mean() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let m = model();
        let e = Energy::from_mev(2.0);
        let l = Length::from_nm(30.0);
        let expect = m.mean_energy_loss(Particle::Alpha, e, l).ev();
        for strag in [
            StragglingModel::Landau,
            StragglingModel::Bohr,
            StragglingModel::Auto,
        ] {
            let n = 40_000;
            let mean_ev: f64 = (0..n)
                .map(|_| sample_energy_loss(&m, strag, Particle::Alpha, e, l, &mut rng).ev())
                .sum::<f64>()
                / n as f64;
            // Clamping at zero biases slightly upward; allow 15 %.
            assert!(
                (mean_ev - expect).abs() / expect < 0.15,
                "{strag:?}: sampled {mean_ev} eV vs mean {expect} eV"
            );
        }
    }

    #[test]
    fn landau_has_heavier_upper_tail_than_gaussian() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let m = model();
        let e = Energy::from_mev(1.0);
        let l = Length::from_nm(20.0);
        let mean = m.mean_energy_loss(Particle::Proton, e, l).ev();
        let n = 30_000;
        let count_tail = |strag: StragglingModel, rng: &mut Xoshiro256pp| {
            (0..n)
                .filter(|_| {
                    sample_energy_loss(&m, strag, Particle::Proton, e, l, rng).ev() > 3.0 * mean
                })
                .count()
        };
        let landau_tail = count_tail(StragglingModel::Landau, &mut rng);
        let bohr_tail = count_tail(StragglingModel::Bohr, &mut rng);
        assert!(
            landau_tail > bohr_tail.max(1) * 2,
            "landau tail {landau_tail} vs bohr {bohr_tail}"
        );
    }

    #[test]
    fn losses_clamped_to_particle_energy() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let m = model();
        let e = Energy::from_kev(2.0); // nearly stopped particle
        let l = Length::from_um(10.0);
        for _ in 0..2000 {
            let de = sample_energy_loss(&m, StragglingModel::Auto, Particle::Alpha, e, l, &mut rng);
            assert!(de >= Energy::ZERO && de <= e);
        }
    }

    #[test]
    fn moyal_sampler_statistics() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_moyal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        // E[λ] = γ_E + ln 2 ≈ 1.2704.
        assert!((mean - 1.2704).abs() < 0.03, "moyal mean {mean}");
        // Mode near zero: more mass in [-1, 1] than in [1, 3].
        let near = samples
            .iter()
            .filter(|&&x| (-1.0..1.0).contains(&x))
            .count();
        let far = samples.iter().filter(|&&x| (1.0..3.0).contains(&x)).count();
        assert!(near > far);
    }

    #[test]
    fn bohr_sigma_scales_with_sqrt_thickness() {
        let s1 = bohr_sigma(
            Particle::Alpha,
            Energy::from_mev(1.0),
            Length::from_nm(10.0),
        );
        let s4 = bohr_sigma(
            Particle::Alpha,
            Energy::from_mev(1.0),
            Length::from_nm(40.0),
        );
        assert!(((s4 / s1).value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn exceedance_matches_sampled_frequency() {
        // The analytic deposit_exceedance must agree with Landau sampling.
        let m = model();
        let e = Energy::from_mev(1.0);
        let l = Length::from_nm(30.0);
        let params = landau_params(&m, Particle::Alpha, e, l);
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        for factor in [0.8, 1.0, 1.5, 2.0] {
            let threshold = params.mean * factor;
            let analytic = deposit_exceedance(&params, threshold, e);
            let n = 60_000;
            let hits = (0..n)
                .filter(|_| {
                    sample_energy_loss(&m, StragglingModel::Landau, Particle::Alpha, e, l, &mut rng)
                        >= threshold
                })
                .count();
            let sampled = hits as f64 / n as f64;
            assert!(
                (analytic - sampled).abs() < 0.02 + 0.15 * sampled,
                "factor {factor}: analytic {analytic} vs sampled {sampled}"
            );
        }
    }

    #[test]
    fn exceedance_edge_cases() {
        let m = model();
        let e = Energy::from_mev(2.0);
        let params = landau_params(&m, Particle::Proton, e, Length::from_nm(20.0));
        // More than the particle carries: impossible.
        assert_eq!(deposit_exceedance(&params, e * 2.0, e), 0.0);
        // Zero threshold: certain.
        assert_eq!(deposit_exceedance(&params, Energy::ZERO, e), 1.0);
        // Monotone decreasing in threshold.
        let mut prev = 1.0;
        for k in 1..40 {
            let p = deposit_exceedance(&params, params.mean * (k as f64 * 0.2), e);
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    fn moyal_survival_underflow_cut_is_bit_identical() {
        let reference = |x: f64| {
            if x <= -5.0 {
                1.0
            } else {
                finrad_numerics::special::erf((0.5 * (-x).exp()).sqrt())
            }
        };
        let dense = (0..=100_000).map(|i| 700.0 + f64::from(i) * 1.0e-3);
        let tiny = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1.0e-300,
            -1.0e-300,
            5.0e-324,
            -5.0e-324,
            1.0e-18,
            -1.0e-18,
        ];
        for x in dense.chain(tiny) {
            assert_eq!(
                moyal_survival(x).to_bits(),
                reference(x).to_bits(),
                "x = {x:e}"
            );
        }
        assert_eq!(moyal_survival(800.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn moyal_derivative_polys_differentiate_the_survival() {
        const N: usize = 10;
        let polys = moyal_derivative_polys::<N>();
        assert_eq!(polys[1][..2], [-0.5, 0.5]);
        assert_eq!(polys[2][..3], [0.25, -1.0, 0.25]);
        // d^(j+1)/dx^(j+1) of the survival, from the table.
        let derivative = |j: usize, x: f64| {
            let w = (-x).exp();
            let p: f64 = polys[j].iter().rev().fold(0.0, |acc, &c| acc * w + c);
            -moyal_pdf(x) * p
        };
        let h = 1e-4;
        // The first derivative against the survival itself, where erf
        // takes its series branch (accurate to rounding).
        for x in [1.0, 2.5, 6.0, 20.0] {
            let slope = (moyal_survival(x + h) - moyal_survival(x - h)) / (2.0 * h);
            assert!(
                (slope - derivative(0, x)).abs() <= 1e-7 * slope.abs(),
                "x = {x}"
            );
        }
        // Each higher one against the central difference of the one below.
        for (j, poly) in polys.iter().enumerate().skip(1) {
            for x in [-3.5, -1.0, 0.0, 0.7, 3.0, 12.0] {
                let want = (derivative(j - 1, x + h) - derivative(j - 1, x - h)) / (2.0 * h);
                let scale = poly.iter().map(|c| c.abs()).sum::<f64>()
                    * moyal_pdf(x)
                    * (-x).exp().max(1.0).powi(j as i32);
                assert!(
                    (derivative(j, x) - want).abs() <= 1e-6 * scale,
                    "j = {j}, x = {x}: {} vs {want}",
                    derivative(j, x)
                );
            }
        }
        // The density integrates to one.
        let mass: f64 = (0..40_000)
            .map(|k| moyal_pdf(-8.0 + (k as f64 + 0.5) * 1e-3))
            .sum::<f64>()
            * 1e-3;
        assert!((mass - 1.0).abs() < 1e-6, "mass {mass}");
    }

    #[test]
    fn moyal_survival_bounds() {
        assert!((moyal_survival(-100.0) - 1.0).abs() < 1e-12);
        assert!(moyal_survival(50.0) >= 0.0);
        assert!(moyal_survival(50.0) < 1e-9);
        // Median of the Moyal is ~0.787.
        let med = moyal_survival(0.787);
        assert!((med - 0.5).abs() < 0.01, "SF(median) = {med}");
    }

    #[test]
    fn alpha_xi_is_4x_proton_xi_at_equal_beta() {
        // Same beta: z² scaling only. Arrange equal beta via energy ratio.
        let e_p = Energy::from_mev(1.0);
        let e_a = Energy::from_mev(1.0 * Particle::Alpha.mass_amu() / Particle::Proton.mass_amu());
        let l = Length::from_nm(20.0);
        let r = xi_mev(Particle::Alpha, e_a, l) / xi_mev(Particle::Proton, e_p, l);
        assert!((r - 4.0).abs() < 0.05, "xi ratio {r}");
    }
}
