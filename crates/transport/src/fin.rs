//! The 3-D fin target and the single-fin traversal Monte Carlo.
//!
//! The paper's device level (Section 3.2) fires 10 million particles with
//! random directions and positions at the 3-D structure of a single fin and
//! records the number of electron–hole pairs generated. [`FinGeometry`]
//! describes the target (a silicon box sitting on a buried oxide, per the
//! paper's Fig. 3(a)); [`FinTraversal`] reproduces the Monte-Carlo.

use crate::ehp;
use crate::stopping::StoppingModel;
use crate::straggling::{FixedEnergyLoss, StragglingModel};
use finrad_geometry::{sampling, Aabb, Ray, Vec3};
use finrad_numerics::rng::Rng;
use finrad_units::{Energy, Length, Particle};

/// Dimensions of a single fin (the sensitive silicon volume between source
/// and drain; the BOX below it blocks diffusion-collected charge, which is
/// why SOI FinFETs only collect drift charge from the fin itself).
///
/// Default values follow the 14 nm SOI FinFET device of Wang et al. that
/// the paper cites: fin width 8 nm, gate length 20 nm, fin height 30 nm.
///
/// # Examples
///
/// ```
/// use finrad_transport::fin::FinGeometry;
///
/// let fin = FinGeometry::paper_14nm();
/// assert!((fin.width.nanometers() - 8.0).abs() < 1e-9);
/// let b = fin.to_aabb();
/// assert!(b.volume() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinGeometry {
    /// Fin width (x): the thin dimension the paper's Eq. 1 calls `w_Fin`.
    pub width: Length,
    /// Gated fin length (y): source-to-drain distance, Eq. 2's `L_Fin`.
    pub length: Length,
    /// Fin height (z) above the buried oxide.
    pub height: Length,
}

impl FinGeometry {
    /// The 14 nm-class SOI fin used throughout the paper's evaluation.
    pub fn paper_14nm() -> Self {
        Self {
            width: Length::from_nm(8.0),
            length: Length::from_nm(20.0),
            height: Length::from_nm(30.0),
        }
    }

    /// Builds a geometry from nanometre dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is not strictly positive.
    pub fn from_nm(width: f64, length: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && length > 0.0 && height > 0.0,
            "fin dimensions must be positive"
        );
        Self {
            width: Length::from_nm(width),
            length: Length::from_nm(length),
            height: Length::from_nm(height),
        }
    }

    /// The fin as an axis-aligned box with its minimum corner at the origin
    /// (x = width, y = length, z = height).
    pub fn to_aabb(&self) -> Aabb {
        Aabb::from_min_size(
            Vec3::ZERO,
            Vec3::new(
                self.width.meters(),
                self.length.meters(),
                self.height.meters(),
            ),
        )
    }

    /// Mean chord length of the fin box under isotropic illumination
    /// (Cauchy's formula: 4V/S).
    pub fn mean_chord(&self) -> Length {
        let (w, l, h) = (
            self.width.meters(),
            self.length.meters(),
            self.height.meters(),
        );
        let volume = w * l * h;
        let surface = 2.0 * (w * l + w * h + l * h);
        Length::from_meters(4.0 * volume / surface)
    }
}

impl Default for FinGeometry {
    fn default() -> Self {
        Self::paper_14nm()
    }
}

/// Outcome of one simulated fin traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraversalOutcome {
    /// Chord length the particle cut through the fin.
    pub chord: Length,
    /// Energy deposited in the fin.
    pub deposited: Energy,
    /// Electron–hole pairs generated.
    pub pairs: u64,
}

/// Single-fin traversal Monte Carlo: the Geant4-substitute kernel.
#[derive(Debug, Clone)]
pub struct FinTraversal {
    geometry: FinGeometry,
    stopping: StoppingModel,
    straggling: StragglingModel,
}

impl FinTraversal {
    /// Creates a traversal simulator.
    pub fn new(
        geometry: FinGeometry,
        stopping: StoppingModel,
        straggling: StragglingModel,
    ) -> Self {
        Self {
            geometry,
            stopping,
            straggling,
        }
    }

    /// The paper-default simulator: 14 nm fin, silicon stopping model,
    /// automatic straggling-regime selection.
    pub fn paper_default() -> Self {
        Self::new(
            FinGeometry::paper_14nm(),
            StoppingModel::silicon(),
            StragglingModel::Auto,
        )
    }

    /// The fin geometry being traversed.
    pub fn geometry(&self) -> FinGeometry {
        self.geometry
    }

    /// The underlying stopping model.
    pub fn stopping(&self) -> &StoppingModel {
        &self.stopping
    }

    /// The fixed-energy loss sampler of `particle` at `energy` under this
    /// simulator's stopping and straggling models. Build it once and pass
    /// it to [`FinTraversal::simulate_with`] for every traversal at that
    /// energy (the LUT build does this per row).
    pub fn energy_loss(&self, particle: Particle, energy: Energy) -> FixedEnergyLoss {
        debug_assert!(
            energy.ev().is_finite() && energy.ev() >= 0.0,
            "incident energy must be finite and non-negative, got {} eV",
            energy.ev()
        );
        FixedEnergyLoss::new(&self.stopping, self.straggling, particle, energy)
    }

    /// Simulates one particle of energy `energy` with a random position and
    /// direction *through* the fin (rejection-free: the ray is anchored at a
    /// uniform point inside the fin with an isotropic direction, which
    /// samples the chord distribution of an isotropic flux).
    pub fn simulate<R: Rng + ?Sized>(
        &self,
        particle: Particle,
        energy: Energy,
        rng: &mut R,
    ) -> TraversalOutcome {
        self.simulate_with(&self.energy_loss(particle, energy), rng)
    }

    /// [`FinTraversal::simulate`] at the energy of a prebuilt `loss`
    /// sampler (from [`FinTraversal::energy_loss`]).
    pub fn simulate_with<R: Rng + ?Sized>(
        &self,
        loss: &FixedEnergyLoss,
        rng: &mut R,
    ) -> TraversalOutcome {
        let fin_box = self.geometry.to_aabb();
        let anchor = sampling::point_in_box(rng, &fin_box);
        let dir = sampling::isotropic_direction(rng);
        // Walk backwards to the entry point so the full chord is covered.
        let back_ray = Ray::new(anchor, -dir);
        let t_back = fin_box
            .intersect(&back_ray)
            .map(|h| h.t_exit)
            .unwrap_or(0.0);
        let ray = back_ray.reversed_at(back_ray.at(t_back * (1.0 - 1e-12)));
        let chord = fin_box
            .intersect(&ray)
            .map(|h| Length::from_meters(h.chord_length()))
            .unwrap_or(Length::ZERO);
        deposit_with(loss, chord, rng)
    }

    /// Deposits energy over a known `chord` (used by the array-level MC,
    /// which computes chords from the real layout geometry).
    pub fn deposit<R: Rng + ?Sized>(
        &self,
        particle: Particle,
        energy: Energy,
        chord: Length,
        rng: &mut R,
    ) -> TraversalOutcome {
        deposit_with(&self.energy_loss(particle, energy), chord, rng)
    }
}

/// Samples the deposit of `loss` over `chord` and its pair count.
fn deposit_with<R: Rng + ?Sized>(
    loss: &FixedEnergyLoss,
    chord: Length,
    rng: &mut R,
) -> TraversalOutcome {
    debug_assert!(
        chord.meters().is_finite() && chord.meters() >= 0.0,
        "chord length must be finite and non-negative, got {} m",
        chord.meters()
    );
    let deposited = loss.sample(chord, rng);
    debug_assert!(
        deposited.ev() >= 0.0 && deposited.ev() <= loss.energy().ev(),
        "deposited energy {} eV outside [0, incident {} eV]",
        deposited.ev(),
        loss.energy().ev()
    );
    let pairs = ehp::sample_pairs(deposited, rng);
    TraversalOutcome {
        chord,
        deposited,
        pairs,
    }
}

impl Default for FinTraversal {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finrad_numerics::rng::Xoshiro256pp;

    #[test]
    fn geometry_accessors() {
        let g = FinGeometry::from_nm(8.0, 20.0, 30.0);
        assert_eq!(g, FinGeometry::paper_14nm());
        let b = g.to_aabb();
        assert!((b.size().x - 8.0e-9).abs() < 1e-18);
        assert!((b.size().y - 20.0e-9).abs() < 1e-18);
        assert!((b.size().z - 30.0e-9).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_degenerate_geometry() {
        let _ = FinGeometry::from_nm(0.0, 20.0, 30.0);
    }

    #[test]
    fn mean_chord_cauchy_bounds() {
        let g = FinGeometry::paper_14nm();
        let mc = g.mean_chord().nanometers();
        // Must be between the smallest dimension/2 and the diagonal.
        assert!(mc > 4.0 && mc < 38.0, "mean chord {mc} nm");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "incident energy must be finite and non-negative")]
    fn deposit_rejects_negative_incident_energy() {
        let sim = FinTraversal::paper_default();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let _ = sim.deposit(
            Particle::Alpha,
            Energy::from_mev(-1.0),
            Length::from_nm(10.0),
            &mut rng,
        );
    }

    #[test]
    fn traversal_produces_positive_chords() {
        let sim = FinTraversal::paper_default();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..500 {
            let o = sim.simulate(Particle::Alpha, Energy::from_mev(2.0), &mut rng);
            assert!(o.chord.nanometers() > 0.0);
            assert!(o.chord.nanometers() < 40.0); // bounded by the diagonal
            assert!(o.deposited.ev() >= 0.0);
        }
    }

    #[test]
    fn sampled_mean_chord_matches_cauchy() {
        let sim = FinTraversal::paper_default();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let n = 30_000;
        let mean_nm: f64 = (0..n)
            .map(|_| {
                sim.simulate(Particle::Alpha, Energy::from_mev(5.0), &mut rng)
                    .chord
                    .nanometers()
            })
            .sum::<f64>()
            / n as f64;
        let cauchy = sim.geometry().mean_chord().nanometers();
        // Interior-point anchoring length-biases the chord distribution
        // relative to a uniform external flux, so allow a generous band
        // around the Cauchy value.
        assert!(
            (mean_nm - cauchy).abs() / cauchy < 0.65,
            "sampled {mean_nm} vs cauchy {cauchy}"
        );
    }

    #[test]
    fn alpha_generates_more_pairs_than_proton() {
        let sim = FinTraversal::paper_default();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let n = 10_000;
        let mean_pairs = |p: Particle, rng: &mut Xoshiro256pp| -> f64 {
            (0..n)
                .map(|_| sim.simulate(p, Energy::from_mev(2.0), rng).pairs as f64)
                .sum::<f64>()
                / n as f64
        };
        let alpha = mean_pairs(Particle::Alpha, &mut rng);
        let proton = mean_pairs(Particle::Proton, &mut rng);
        assert!(
            alpha > 3.0 * proton,
            "alpha {alpha} pairs vs proton {proton}"
        );
    }

    #[test]
    fn pairs_fall_with_energy_above_peak() {
        // The Fig. 4 trend over the plotted 0.1-100 MeV band.
        let sim = FinTraversal::paper_default();
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let n = 10_000;
        let mean = |e_mev: f64, rng: &mut Xoshiro256pp| -> f64 {
            (0..n)
                .map(|_| {
                    sim.simulate(Particle::Alpha, Energy::from_mev(e_mev), rng)
                        .pairs as f64
                })
                .sum::<f64>()
                / n as f64
        };
        let at_2 = mean(2.0, &mut rng);
        let at_50 = mean(50.0, &mut rng);
        assert!(at_2 > 1.5 * at_50, "{at_2} vs {at_50}");
    }

    #[test]
    fn deposit_with_explicit_chord_deterministic_chord() {
        let sim = FinTraversal::new(
            FinGeometry::paper_14nm(),
            StoppingModel::silicon(),
            StragglingModel::None,
        );
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let o = sim.deposit(
            Particle::Proton,
            Energy::from_mev(1.0),
            Length::from_nm(10.0),
            &mut rng,
        );
        assert_eq!(o.chord, Length::from_nm(10.0));
        // 1 MeV proton, ~39 keV/um * 10nm = ~390 eV => ~100 pairs.
        assert!(o.pairs > 20 && o.pairs < 500, "pairs {}", o.pairs);
    }
}
