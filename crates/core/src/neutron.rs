//! Neutron-induced (indirect ionization) SER — the paper's future work.
//!
//! **Extension beyond the paper.** Neutrons deposit no charge directly;
//! the engine here models the two-step process: a nuclear reaction in the
//! silicon around the array produces a charged secondary
//! (`finrad-transport::neutron`), whose dense track is then traced through
//! the fin layout with the *same* machinery as the direct-ionization flow
//! (chords → charge → per-cell POF → Eqs. 4–6).
//!
//! Reactions are rare (mean free paths of tens of centimetres), so the
//! estimator importance-weights every history: one reaction is *forced*
//! at a uniform point along the neutron's path through the interaction
//! volume, and the resulting upset probabilities are scaled by the actual
//! interaction probability `1 − exp(−Σ·L)`. Combined with the secondary's
//! micron-scale range, this keeps neutron statistics tractable at the same
//! iteration counts as the direct flow.

use crate::array::{clamp_pof, MemoryArray};
use crate::fit::{fit_rate, FitRate, PofBin};
use crate::strike::{combine_cell_pofs, estimate_chunked, ArrayPofEstimate, IterationOutcome};
use finrad_environment::{NeutronSpectrum, Spectrum};
use finrad_geometry::{sampling, Aabb, Ray, Vec3};
use finrad_numerics::rng::{Rng, Xoshiro256pp};
use finrad_sram::{PofTable, StrikeCombo, StrikeTarget};
use finrad_transport::neutron::NeutronInteraction;
use finrad_units::{constants, Charge, Energy, Length};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;

/// Geometry of the neutron interaction volume around the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeutronVolume {
    /// Lateral margin beyond the array footprint on each side — secondaries
    /// born this far away can still reach the fins.
    pub margin_xy: Length,
    /// Material budget above the fin tops that can host reactions
    /// (BEOL/substrate overburden, treated as silicon-equivalent).
    pub overburden: Length,
}

impl Default for NeutronVolume {
    fn default() -> Self {
        Self {
            margin_xy: Length::from_um(2.0),
            overburden: Length::from_um(1.0),
        }
    }
}

/// The neutron strike simulator.
pub struct NeutronSimulator<'a> {
    array: &'a MemoryArray,
    interaction: NeutronInteraction,
    pof: &'a PofTable,
    volume: Aabb,
    volume_cfg: NeutronVolume,
}

impl<'a> NeutronSimulator<'a> {
    /// Creates a simulator over `array` with POF tables `pof`.
    pub fn new(
        array: &'a MemoryArray,
        interaction: NeutronInteraction,
        pof: &'a PofTable,
        volume_cfg: NeutronVolume,
    ) -> Self {
        let b = array.bounds();
        let m = volume_cfg.margin_xy.meters();
        let volume = Aabb::new(
            b.min_corner() - Vec3::new(m, m, 0.0),
            b.max_corner() + Vec3::new(m, m, volume_cfg.overburden.meters()),
        );
        Self {
            array,
            interaction,
            pof,
            volume,
            volume_cfg,
        }
    }

    /// The interaction volume (array + margins).
    pub fn volume(&self) -> Aabb {
        self.volume
    }

    /// The flux collection area of the inflated volume (for Eq. 8).
    pub fn collection_area(&self) -> finrad_units::Area {
        let s = self.volume.size();
        finrad_units::Area::from_square_meters(s.x * s.y)
    }

    /// One importance-weighted neutron history at energy `energy`.
    pub fn simulate_one<R: Rng + ?Sized>(&self, energy: Energy, rng: &mut R) -> IterationOutcome {
        // Neutron entry on the inflated top plane, cosine-law downward.
        let launch = sampling::point_on_top_face(rng, &self.volume);
        let dir = sampling::cosine_law_hemisphere(rng);
        let ray = Ray::new(launch, dir);
        let Some(hit) = self.volume.intersect(&ray) else {
            return IterationOutcome::default();
        };
        let path = Length::from_meters(hit.chord_length());
        let p_int = self.interaction.interaction_probability(energy, path);
        if p_int <= 0.0 {
            return IterationOutcome::default();
        }

        // Force one reaction uniformly along the in-volume path.
        let t = rng.gen_range(hit.t_enter..hit.t_exit.max(hit.t_enter + 1e-300));
        let site = ray.at(t);
        let ion = self.interaction.sample_secondary(energy, rng);
        let ion_dir = sampling::isotropic_direction(rng);
        let ion_ray = Ray::new(site, ion_dir);

        // Trace the secondary through the fins, spending its energy.
        let crossings = self.array.trace(&ion_ray);
        if crossings.is_empty() {
            return IterationOutcome::default();
        }
        let range = ion.range().meters();
        let mut remaining = ion.energy;
        let mut per_cell: BTreeMap<usize, Vec<(StrikeTarget, f64)>> = BTreeMap::new();
        for crossing in &crossings {
            if remaining.ev() <= 0.0 || crossing.hit.t_enter > range {
                break;
            }
            let fin = &self.array.fins()[crossing.index];
            let deposit = (ion.let_linear * crossing.chord()).qmin(remaining);
            remaining -= deposit;
            if let Some(target) = fin.target {
                let pairs = (deposit / constants::EHP_PAIR_ENERGY).value();
                if pairs >= 1.0 {
                    per_cell
                        .entry(fin.cell)
                        .or_default()
                        .push((target, Charge::from_electrons(pairs).coulombs()));
                }
            }
        }
        if per_cell.is_empty() {
            return IterationOutcome::default();
        }

        let mut pofs: Vec<f64> = Vec::with_capacity(per_cell.len());
        for (_cell, hits) in per_cell {
            let targets: Vec<StrikeTarget> = hits.iter().map(|(t, _)| *t).collect();
            let combo = StrikeCombo::new(&targets);
            let total: f64 = hits.iter().map(|(_, q)| q).sum();
            // Uncharacterized combos are quarantined as NaN, not crashed on.
            pofs.push(match self.pof.pof(combo, Charge::from_coulombs(total)) {
                Some(p) => clamp_pof(p),
                None => f64::NAN,
            });
        }
        let outcome = combine_cell_pofs(&pofs);
        // Importance weight: the forced reaction actually happens with
        // probability p_int per history.
        IterationOutcome {
            pof_total: outcome.pof_total * p_int,
            pof_seu: outcome.pof_seu * p_int,
            pof_mbu: outcome.pof_mbu * p_int,
            cells_struck: outcome.cells_struck,
        }
    }

    /// Runs `iterations` histories at one energy across worker threads.
    ///
    /// RNG streams are derived per fixed-size logical chunk (see
    /// [`crate::strike::MC_CHUNK_ITERATIONS`]), not per worker thread, so
    /// same-seed results are bit-identical regardless of the host's core
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn estimate(&self, energy: Energy, iterations: u64, seed: u64) -> ArrayPofEstimate {
        let threads = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
        self.estimate_with_threads(energy, iterations, seed, threads)
    }

    /// [`Self::estimate`] with an explicit worker count; any `threads`
    /// value yields the same bits (the knob exists for the determinism
    /// regression test and callers with their own parallelism budget).
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn estimate_with_threads(
        &self,
        energy: Energy,
        iterations: u64,
        seed: u64,
        threads: NonZeroUsize,
    ) -> ArrayPofEstimate {
        assert!(iterations > 0, "need at least one iteration");
        let timer = finrad_observe::span(finrad_observe::keys::NEUTRON_ESTIMATE_SECONDS);
        let out = estimate_chunked(iterations, threads, |chunk, len| {
            let mut rng = Xoshiro256pp::salted_stream(seed, chunk + 1, 0xA076_1D64_78BD_642F);
            let mut acc = ArrayPofEstimate::default();
            for _ in 0..len {
                acc.push(self.simulate_one(energy, &mut rng));
            }
            finrad_observe::counter_add(finrad_observe::keys::NEUTRON_ITERATIONS, len);
            acc
        });
        finrad_observe::counter_add(finrad_observe::keys::NEUTRON_QUARANTINED, out.quarantined);
        if let Some(secs) = timer.elapsed_seconds() {
            if secs > 0.0 {
                finrad_observe::record(
                    finrad_observe::keys::NEUTRON_ITERS_PER_SEC,
                    iterations as f64 / secs,
                );
            }
        }
        out
    }

    /// Full neutron SER: discretize the sea-level spectrum, Monte-Carlo
    /// each bin and integrate Eq. 8 over the collection area.
    pub fn ser(
        &self,
        spectrum: &NeutronSpectrum,
        energy_bins: usize,
        iterations_per_bin: u64,
        seed: u64,
    ) -> (FitRate, Vec<PofBin>) {
        let bins = spectrum.discretize(energy_bins);
        let pof_bins: Vec<PofBin> = bins
            .iter()
            .enumerate()
            .map(|(k, sb)| {
                let est = self.estimate(
                    sb.energy,
                    iterations_per_bin,
                    seed.wrapping_add(k as u64 * 104_729),
                );
                PofBin::from_estimate(*sb, &est)
            })
            .collect();
        (fit_rate(&pof_bins, self.collection_area()), pof_bins)
    }

    /// The configured margins.
    pub fn volume_config(&self) -> NeutronVolume {
        self.volume_cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::DataPattern;
    use finrad_finfet::Technology;
    use finrad_sram::{CellCharacterizer, CharacterizeOptions, Variation};
    use finrad_units::Voltage;

    fn table() -> PofTable {
        CellCharacterizer::new(
            Technology::soi_finfet_14nm(),
            CharacterizeOptions {
                settle: 5.0e-12,
                bisect_rel_tol: 0.1,
                ..CharacterizeOptions::default()
            },
        )
        .build_table(Voltage::from_volts(0.8), Variation::Nominal, 2)
        .expect("characterization")
    }

    #[test]
    fn volume_inflates_bounds() {
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 3, 3, DataPattern::Checkerboard);
        let pof = table();
        let sim = NeutronSimulator::new(
            &array,
            NeutronInteraction::silicon(),
            &pof,
            NeutronVolume::default(),
        );
        let v = sim.volume();
        let b = array.bounds();
        assert!(v.size().x > b.size().x);
        assert!(v.size().z > b.size().z);
        assert!(sim.collection_area().square_meters() > array.footprint().square_meters());
        assert_eq!(sim.volume_config(), NeutronVolume::default());
    }

    #[test]
    fn neutron_pof_is_tiny_but_nonzero() {
        // The point of the importance weighting: with only 20k histories a
        // per-history POF of order 1e-10..1e-7 is resolvable.
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 3, 3, DataPattern::Checkerboard);
        let pof = table();
        let sim = NeutronSimulator::new(
            &array,
            NeutronInteraction::silicon(),
            &pof,
            NeutronVolume::default(),
        );
        let est = sim.estimate(Energy::from_mev(100.0), 20_000, 5);
        let mean = est.total.mean();
        assert!(mean > 0.0, "expected nonzero neutron POF");
        assert!(mean < 1.0e-3, "neutron POF should be rare: {mean}");
    }

    #[test]
    fn neutron_ser_end_to_end() {
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 3, 3, DataPattern::Checkerboard);
        let pof = table();
        let sim = NeutronSimulator::new(
            &array,
            NeutronInteraction::silicon(),
            &pof,
            NeutronVolume::default(),
        );
        let (fit, bins) = sim.ser(&NeutronSpectrum::sea_level(), 4, 8_000, 9);
        assert_eq!(bins.len(), 4);
        assert!(fit.total.is_finite() && fit.total >= 0.0);
        assert!((fit.seu + fit.mbu - fit.total).abs() <= 1e-9 * fit.total.max(1.0));
    }

    #[test]
    fn deterministic_under_seed() {
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 2, 2, DataPattern::Checkerboard);
        let pof = table();
        let sim = NeutronSimulator::new(
            &array,
            NeutronInteraction::silicon(),
            &pof,
            NeutronVolume::default(),
        );
        let a = sim.estimate(Energy::from_mev(50.0), 2_000, 42);
        let b = sim.estimate(Energy::from_mev(50.0), 2_000, 42);
        assert_eq!(a.total.mean(), b.total.mean());
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        // Core-count regression (see strike.rs for the direct-ionization
        // twin): a forced single-worker run must match the multi-worker
        // run bit for bit.
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 2, 2, DataPattern::Checkerboard);
        let pof = table();
        let sim = NeutronSimulator::new(
            &array,
            NeutronInteraction::silicon(),
            &pof,
            NeutronVolume::default(),
        );
        let e = Energy::from_mev(100.0);
        let iters = 2 * crate::strike::MC_CHUNK_ITERATIONS + 57;
        let single = sim.estimate_with_threads(e, iters, 11, NonZeroUsize::new(1).unwrap());
        let multi = sim.estimate_with_threads(e, iters, 11, NonZeroUsize::new(5).unwrap());
        let default = sim.estimate(e, iters, 11);
        assert_eq!(single.total.count(), iters);
        assert_eq!(single.total.mean().to_bits(), multi.total.mean().to_bits());
        assert_eq!(single, multi);
        assert_eq!(single, default);
    }
}
