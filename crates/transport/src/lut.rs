//! The device-level look-up table of the paper's flow.
//!
//! "A Monte Carlo simulation of the interaction of the particle and the 3-D
//! material structure needs to be performed to obtain the number of
//! generated electron-hole pairs for different particle energies and the
//! results are stored in look-up tables" (Section 2). [`EhpLut`] is that
//! table: per species, mean pairs per fin traversal indexed by energy,
//! reproducing the paper's Fig. 4. It is built once (the expensive step)
//! and shared by every strike run that needs it.

use crate::fin::FinTraversal;
use finrad_numerics::interp::{log_space, LinearTable};
use finrad_numerics::par;
use finrad_numerics::rng::Xoshiro256pp;
use finrad_numerics::stats::RunningStats;
use finrad_numerics::NumericsError;
use finrad_units::{Energy, Particle};
use std::num::NonZeroUsize;

/// Salt of the per-row streams of [`EhpLut::tabulate`], distinct from
/// every other engine's salt so no LUT row replays another engine's draws
/// under the same seed.
const LUT_SALT: u64 = 0xE703_7ED1_A0B4_28DB;

/// One row of the LUT: traversal statistics at a single energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LutRow {
    /// Particle energy of the row.
    pub energy_mev: f64,
    /// Mean electron–hole pairs per traversal.
    pub mean_pairs: f64,
    /// Standard deviation of the pair count across traversals.
    pub stddev_pairs: f64,
    /// Number of Monte-Carlo traversals behind the row.
    pub samples: u64,
}

/// Energy-indexed electron–hole pair LUT for one particle species.
///
/// # Examples
///
/// ```
/// use finrad_transport::{fin::FinTraversal, lut::EhpLut};
/// use finrad_units::{Energy, Particle};
///
/// let lut = EhpLut::tabulate(
///     &FinTraversal::paper_default(),
///     Particle::Alpha,
///     Energy::from_mev(0.5),
///     Energy::from_mev(20.0),
///     6,    // energy points
///     500,  // traversals per point
///     9,    // seed
/// );
/// assert!(lut.mean_pairs(Energy::from_mev(1.0)) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EhpLut {
    particle: Particle,
    rows: Vec<LutRow>,
    table: LinearTable,
}

impl EhpLut {
    /// Tabulates the LUT by running `samples_per_point` fin traversals at
    /// each of `energy_points` log-spaced energies in `[lo, hi]`.
    ///
    /// Row `k` draws every traversal from its own stream,
    /// `Xoshiro256pp::salted_stream(seed, k + 1, LUT_SALT)`, and the rows
    /// are spread over `std::thread::available_parallelism()` workers and
    /// collected in energy order. The table's bits therefore depend on
    /// `seed` alone, never on the worker count or on scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the energy range is invalid, `energy_points < 2`, or
    /// `samples_per_point == 0`.
    pub fn tabulate(
        sim: &FinTraversal,
        particle: Particle,
        lo: Energy,
        hi: Energy,
        energy_points: usize,
        samples_per_point: u64,
        seed: u64,
    ) -> Self {
        assert!(samples_per_point > 0, "need at least one sample per point");
        let energies = log_space(lo.mev(), hi.mev(), energy_points);
        let threads = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
        let rows = par::map_indexed(energies.len(), threads, |k| {
            let e_mev = energies[k];
            let mut rng = Xoshiro256pp::salted_stream(seed, k as u64 + 1, LUT_SALT);
            let loss = sim.energy_loss(particle, Energy::from_mev(e_mev));
            let mut stats = RunningStats::new();
            for _ in 0..samples_per_point {
                stats.push(sim.simulate_with(&loss, &mut rng).pairs as f64);
            }
            LutRow {
                energy_mev: e_mev,
                mean_pairs: stats.mean(),
                stddev_pairs: stats.stddev(),
                samples: stats.count(),
            }
        });
        match Self::from_rows(particle, rows) {
            Ok(lut) => lut,
            // log_space yields ≥ 2 strictly increasing finite energies and
            // the means are clamped non-negative, so the table is valid by
            // construction.
            #[expect(clippy::unreachable, reason = "the rows are valid by construction")]
            Err(e) => unreachable!("freshly built LUT rows are well-formed: {e}"),
        }
    }

    /// Assembles a LUT from precomputed rows (e.g. deserialized from disk).
    ///
    /// # Errors
    ///
    /// [`NumericsError::InvalidTable`] if fewer than two rows are given,
    /// any entry is non-finite, or the energies are not strictly
    /// increasing — exactly the failure modes of untrusted on-disk data.
    pub fn from_rows(particle: Particle, rows: Vec<LutRow>) -> Result<Self, NumericsError> {
        let xs: Vec<f64> = rows.iter().map(|r| r.energy_mev).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r.mean_pairs.max(0.0)).collect();
        let table = LinearTable::new(xs, ys)?;
        Ok(Self {
            particle,
            rows,
            table,
        })
    }

    /// The particle species this LUT describes.
    pub fn particle(&self) -> Particle {
        self.particle
    }

    /// Interpolated mean pair count at `energy` (clamped at the ends).
    pub fn mean_pairs(&self, energy: Energy) -> f64 {
        self.table.eval(energy.mev())
    }

    /// Borrowed view of the underlying rows (for plotting / benchmarking).
    pub fn rows(&self) -> &[LutRow] {
        &self.rows
    }

    /// Maximum mean pair count over the table — the normalization constant
    /// used when reporting the paper's normalized Fig. 4.
    pub fn peak_mean_pairs(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.mean_pairs)
            .fold(0.0f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fin::FinGeometry;
    use crate::stopping::StoppingModel;
    use crate::straggling::StragglingModel;

    fn small_lut(particle: Particle, seed: u64) -> EhpLut {
        EhpLut::tabulate(
            &FinTraversal::paper_default(),
            particle,
            Energy::from_mev(0.1),
            Energy::from_mev(100.0),
            8,
            2000,
            seed,
        )
    }

    #[test]
    fn rows_cover_requested_grid() {
        let lut = small_lut(Particle::Alpha, 1);
        assert_eq!(lut.rows().len(), 8);
        assert!((lut.rows()[0].energy_mev - 0.1).abs() < 1e-9);
        assert!((lut.rows()[7].energy_mev - 100.0).abs() < 1e-6);
        assert!(lut.rows().iter().all(|r| r.samples == 2000));
    }

    #[test]
    fn fig4_shape_alpha_above_proton_and_decreasing() {
        let alpha = small_lut(Particle::Alpha, 2);
        let proton = small_lut(Particle::Proton, 3);
        // Alpha curve is well above the proton curve everywhere (Fig. 4);
        // the margin narrows near the alpha Bragg peak (~0.5 MeV).
        for (e, factor) in [(0.5, 1.2), (1.0, 2.0), (5.0, 2.0), (20.0, 2.0)] {
            let ea = alpha.mean_pairs(Energy::from_mev(e));
            let ep = proton.mean_pairs(Energy::from_mev(e));
            assert!(ea > factor * ep, "at {e} MeV: alpha {ea} vs proton {ep}");
        }
        // Both decrease from a few MeV to 100 MeV.
        for lut in [&alpha, &proton] {
            let mid = lut.mean_pairs(Energy::from_mev(3.0));
            let hi = lut.mean_pairs(Energy::from_mev(100.0));
            assert!(mid > hi, "{}: {mid} vs {hi}", lut.particle());
        }
    }

    #[test]
    fn interpolation_between_rows() {
        let lut = small_lut(Particle::Alpha, 4);
        let rows = lut.rows();
        let (a, b) = (rows[3], rows[4]);
        let mid_e = (a.energy_mev * b.energy_mev).sqrt();
        let v = lut.mean_pairs(Energy::from_mev(mid_e));
        let (lo, hi) = (
            a.mean_pairs.min(b.mean_pairs),
            a.mean_pairs.max(b.mean_pairs),
        );
        assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn peak_is_max_of_rows() {
        let lut = small_lut(Particle::Alpha, 6);
        let max_row = lut
            .rows()
            .iter()
            .map(|r| r.mean_pairs)
            .fold(0.0f64, f64::max);
        assert_eq!(lut.peak_mean_pairs(), max_row);
    }

    fn golden_sim(straggling: StragglingModel) -> FinTraversal {
        FinTraversal::new(
            FinGeometry::paper_14nm(),
            StoppingModel::silicon(),
            straggling,
        )
    }

    /// FNV-1a over every row's mean and stddev bits: pins the values of
    /// the pipeline's 17-row grid at 300 traversals per row.
    fn build_hash(particle: Particle, straggling: StragglingModel) -> u64 {
        let lut = EhpLut::tabulate(
            &golden_sim(straggling),
            particle,
            Energy::from_mev(0.1),
            Energy::from_mev(1.0e3),
            17,
            300,
            0x1A7 ^ particle as u64,
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words = lut
            .rows()
            .iter()
            .flat_map(|r| [r.mean_pairs.to_bits(), r.stddev_pairs.to_bits()]);
        for byte in words.flat_map(u64::to_le_bytes) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Pinned `build_hash` of both species under every straggling model.
    /// Any change to the traversal, straggling or pair-sampling arithmetic,
    /// to the per-row streams or to the order of their draws moves these.
    const GOLDEN_BUILD: [(Particle, StragglingModel, u64); 8] = [
        (
            Particle::Proton,
            StragglingModel::None,
            0x29c2_7588_8346_52fe,
        ),
        (
            Particle::Proton,
            StragglingModel::Bohr,
            0x2946_feaa_c3ce_7334,
        ),
        (
            Particle::Proton,
            StragglingModel::Landau,
            0x5aff_f8d0_8c67_b470,
        ),
        (
            Particle::Proton,
            StragglingModel::Auto,
            0x9ff3_2390_2fee_42f5,
        ),
        (
            Particle::Alpha,
            StragglingModel::None,
            0xd6de_4daa_6fbe_999b,
        ),
        (
            Particle::Alpha,
            StragglingModel::Bohr,
            0x0587_f6c3_4d41_6874,
        ),
        (
            Particle::Alpha,
            StragglingModel::Landau,
            0xa33d_bfe7_5704_52ee,
        ),
        (
            Particle::Alpha,
            StragglingModel::Auto,
            0xb643_592d_392d_d6ea,
        ),
    ];

    #[test]
    fn golden_build_bits() {
        let got: Vec<_> = GOLDEN_BUILD
            .iter()
            .map(|&(particle, straggling, _)| {
                (particle, straggling, build_hash(particle, straggling))
            })
            .collect();
        assert_eq!(got, GOLDEN_BUILD);
    }

    #[test]
    fn tabulate_matches_serial_rows() {
        // The parallel table equals, bit for bit, one serial loop over the
        // same per-row streams: row order and worker count cannot show.
        let sim = golden_sim(StragglingModel::Auto);
        let (lo, hi) = (Energy::from_mev(0.2), Energy::from_mev(50.0));
        let energies = log_space(lo.mev(), hi.mev(), 9);
        for (particle, seed) in [(Particle::Alpha, 5), (Particle::Proton, 0x1A7)] {
            let lut = EhpLut::tabulate(&sim, particle, lo, hi, 9, 400, seed);
            assert_eq!(lut.rows().len(), energies.len());
            for (k, (row, &e_mev)) in lut.rows().iter().zip(&energies).enumerate() {
                let mut rng = Xoshiro256pp::salted_stream(seed, k as u64 + 1, LUT_SALT);
                let loss = sim.energy_loss(particle, Energy::from_mev(e_mev));
                let mut stats = RunningStats::new();
                for _ in 0..400 {
                    stats.push(sim.simulate_with(&loss, &mut rng).pairs as f64);
                }
                assert_eq!(row.energy_mev.to_bits(), e_mev.to_bits());
                assert_eq!(row.mean_pairs.to_bits(), stats.mean().to_bits(), "row {k}");
                assert_eq!(row.stddev_pairs.to_bits(), stats.stddev().to_bits());
                assert_eq!(row.samples, 400);
            }
        }
    }

    #[test]
    fn from_rows_rejects_unsorted() {
        let rows = vec![
            LutRow {
                energy_mev: 2.0,
                mean_pairs: 10.0,
                stddev_pairs: 1.0,
                samples: 10,
            },
            LutRow {
                energy_mev: 1.0,
                mean_pairs: 20.0,
                stddev_pairs: 1.0,
                samples: 10,
            },
        ];
        assert!(matches!(
            EhpLut::from_rows(Particle::Alpha, rows),
            Err(NumericsError::InvalidTable(_))
        ));
    }
}
