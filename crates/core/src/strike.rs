//! The array-level strike Monte Carlo (the paper's Section 5.1).
//!
//! Each iteration follows the paper's six steps: generate a random
//! particle; find the struck fins by 3-D ray tracing through the array
//! layout; obtain the electron–hole pairs for each struck fin; convert the
//! pairs of *sensitive* fins into collected charge; look up per-cell POF;
//! and combine the cells with Eqs. 4–6 into total/SEU/MBU probabilities.
//! Iterations are averaged, and distributed across worker threads in
//! fixed-size logical chunks of [`MC_CHUNK_ITERATIONS`] iterations whose
//! RNG streams are derived from the chunk index — never from the worker
//! thread — so same-seed results are bit-identical on any host (see
//! [`StrikeSimulator::estimate`]).

use crate::array::{clamp_pof, MemoryArray};
use finrad_geometry::trace::Crossing;
use finrad_geometry::{sampling, Ray};
use finrad_numerics::rng::{Rng, Xoshiro256pp};
use finrad_numerics::stats::RunningStats;
use finrad_sram::{PofCurve, PofTable, StrikeCombo, StrikeTarget};
use finrad_transport::fin::FinTraversal;
use finrad_transport::lut::EhpLut;
use finrad_transport::straggling::{deposit_exceedance, landau_params, LandauParams};
use finrad_units::{constants, Charge, Energy, Particle};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Size of one logical Monte-Carlo chunk. The iteration space of an
/// estimate is split into consecutive chunks of this many iterations, each
/// with an RNG stream derived from `seed` and the *chunk index*. Worker
/// threads pull whole chunks, so the set of random streams — and therefore
/// the result — does not depend on how many workers the host offers.
pub const MC_CHUNK_ITERATIONS: u64 = 4096;

/// Splits `iterations` into [`MC_CHUNK_ITERATIONS`]-sized chunks, runs
/// `chunk_fn(chunk_index, chunk_len)` for each across `threads` workers,
/// and merges the partial estimates **in chunk order**. Both the per-chunk
/// streams and the merge order are independent of `threads`, which is what
/// makes same-seed results bit-identical across hosts.
pub(crate) fn estimate_chunked<F>(
    iterations: u64,
    threads: NonZeroUsize,
    chunk_fn: F,
) -> ArrayPofEstimate
where
    F: Fn(u64, u64) -> ArrayPofEstimate + Sync,
{
    let n_chunks = iterations.div_ceil(MC_CHUNK_ITERATIONS);
    let threads = (threads.get() as u64).min(n_chunks).max(1);
    let next = AtomicU64::new(0);
    let worker = || {
        let mut out: Vec<(u64, ArrayPofEstimate)> = Vec::new();
        loop {
            let c = next.fetch_add(1, Ordering::SeqCst);
            if c >= n_chunks {
                break;
            }
            let start = c * MC_CHUNK_ITERATIONS;
            let len = MC_CHUNK_ITERATIONS.min(iterations - start);
            out.push((c, chunk_fn(c, len)));
        }
        out
    };
    let mut partials: Vec<(u64, ArrayPofEstimate)> = if threads == 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|h| match h.join() {
                    Ok(r) => r,
                    // Forward the worker's own panic payload instead of
                    // replacing it with a generic message.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    };
    // The merge order must match the chunk order, not the (thread-count
    // and scheduling dependent) completion order: Welford merging is not
    // bit-associative.
    partials.sort_by_key(|&(c, _)| c);
    let mut out = ArrayPofEstimate::default();
    for (_, p) in &partials {
        out.merge(p);
    }
    out
}

/// How particle arrival directions are sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectionLaw {
    /// Lambertian (cos θ-weighted) downward flux — the flux a horizontal
    /// die surface sees from an isotropic upper-hemisphere source.
    #[default]
    CosineDown,
    /// Uniform over the downward hemisphere (more grazing tracks; useful
    /// to stress MBU behaviour).
    IsotropicDown,
}

/// How deposited pairs are obtained for a struck fin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DepositMode {
    /// Chord-exact: stopping power × actual chord through the struck box,
    /// with straggling — physically the most faithful.
    #[default]
    ChordExact,
    /// Paper-faithful LUT mode: the mean pair count of the device-level
    /// LUT at the particle energy, independent of the actual chord (the
    /// paper's hierarchical simplification). Requires an [`EhpLut`].
    LutMean,
}

/// How the straggling randomness enters the per-cell flip probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlipModel {
    /// Sample one deposit per crossing and look its charge up in the POF
    /// curve — the paper's literal procedure. Rare tail-driven flips
    /// (protons!) then need enormous iteration counts to resolve.
    Sampled,
    /// Conditional expectation over the straggling distribution: each
    /// struck cell contributes its *exact* flip probability
    /// `P(flip) = mean_i P(deposit ≥ Q_crit,i)`, evaluated with the Moyal
    /// survival function. Identical expectation to `Sampled` (Fano
    /// fluctuation, which is ≪ straggling here, is folded into the mean),
    /// but with geometry-only variance — the variance reduction that makes
    /// proton statistics tractable.
    #[default]
    Expected,
}

/// Per-iteration outcome: the Eqs. 4–6 probabilities for one particle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IterationOutcome {
    /// POF_tot of Eq. 4.
    pub pof_total: f64,
    /// POF_SEU of Eq. 5.
    pub pof_seu: f64,
    /// POF_MBU of Eq. 6.
    pub pof_mbu: f64,
    /// Number of distinct cells that collected any charge.
    pub cells_struck: usize,
}

/// Aggregated Monte-Carlo estimate over many iterations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArrayPofEstimate {
    /// Statistics of POF_tot across iterations.
    pub total: RunningStats,
    /// Statistics of POF_SEU across iterations.
    pub seu: RunningStats,
    /// Statistics of POF_MBU across iterations.
    pub mbu: RunningStats,
    /// Iterations rejected at this accumulator boundary because any POF
    /// observable was NaN/Inf: poisoned samples never reach the
    /// statistics, and the count surfaces in campaign reports.
    pub quarantined: u64,
}

impl ArrayPofEstimate {
    /// Merges a partial estimate (from another worker) into this one.
    pub fn merge(&mut self, other: &ArrayPofEstimate) {
        self.total.merge(&other.total);
        self.seu.merge(&other.seu);
        self.mbu.merge(&other.mbu);
        self.quarantined += other.quarantined;
    }

    /// Records one iteration. A NaN/Inf observable quarantines the whole
    /// iteration (all three statistics must stay count-aligned) instead of
    /// poisoning the Welford accumulators irreversibly.
    pub fn push(&mut self, o: IterationOutcome) {
        let finite = o.pof_total.is_finite() && o.pof_seu.is_finite() && o.pof_mbu.is_finite();
        if !finite {
            self.quarantined += 1;
            return;
        }
        self.total.push(o.pof_total);
        self.seu.push(o.pof_seu);
        self.mbu.push(o.pof_mbu);
    }

    /// MBU/SEU ratio of the means (the paper's Fig. 10 quantity), as a
    /// fraction (multiply by 100 for percent). Returns 0 when there is no
    /// upset mass at all, and `f64::INFINITY` when MBU mass exists without
    /// any SEU mass — that degenerate spectrum must not masquerade as
    /// "no MBU" (see [`crate::fit::mbu_to_seu_ratio`]).
    pub fn mbu_to_seu(&self) -> f64 {
        crate::fit::mbu_to_seu_ratio(self.mbu.mean(), self.seu.mean())
    }
}

/// Combines per-cell POFs with the paper's Eqs. 4–6.
///
/// # Examples
///
/// ```
/// use finrad_core::strike::combine_cell_pofs;
///
/// let o = combine_cell_pofs(&[0.5, 0.5]);
/// assert!((o.pof_total - 0.75).abs() < 1e-12);
/// assert!((o.pof_seu - 0.5).abs() < 1e-12);  // 2 * 0.5 * 0.5
/// assert!((o.pof_mbu - 0.25).abs() < 1e-12);
/// ```
pub fn combine_cell_pofs(pofs: &[f64]) -> IterationOutcome {
    // NaN entries are allowed and propagate into the outcome, where the
    // accumulator-level quarantine rejects the whole iteration.
    debug_assert!(pofs.iter().all(|p| p.is_nan() || (0.0..=1.0).contains(p)));
    // Eq. 4: POF_tot = 1 − Π (1 − p_i)
    let prod_all: f64 = pofs.iter().map(|p| 1.0 - p).product();
    let pof_total = 1.0 - prod_all;
    // Eq. 5: POF_SEU = Σ_i [ p_i · Π_{j≠i} (1 − p_j) ]
    let mut pof_seu = 0.0;
    for i in 0..pofs.len() {
        let mut term = pofs[i];
        for (j, p) in pofs.iter().enumerate() {
            if j != i {
                term *= 1.0 - p;
            }
        }
        pof_seu += term;
    }
    // Eq. 6.
    let pof_mbu = (pof_total - pof_seu).max(0.0);
    IterationOutcome {
        pof_total,
        pof_seu,
        pof_mbu,
        cells_struck: pofs.len(),
    }
}

/// Exact distribution of the number of flipped cells given independent
/// per-cell flip probabilities (Poisson-binomial, by dynamic programming).
/// Entry `k` of the result is `P(exactly k cells flip)`; the vector has
/// `pofs.len() + 1` entries.
///
/// This refines the paper's SEU/MBU split into a full upset-multiplicity
/// spectrum (1-bit, 2-bit, 3-bit, … upsets), which is what ECC designers
/// actually consume.
///
/// # Examples
///
/// ```
/// use finrad_core::strike::multiplicity_pmf;
///
/// let pmf = multiplicity_pmf(&[0.5, 0.5]);
/// assert!((pmf[0] - 0.25).abs() < 1e-12);
/// assert!((pmf[1] - 0.5).abs() < 1e-12);
/// assert!((pmf[2] - 0.25).abs() < 1e-12);
/// ```
pub fn multiplicity_pmf(pofs: &[f64]) -> Vec<f64> {
    debug_assert!(pofs.iter().all(|p| (0.0..=1.0).contains(p)));
    let mut pmf = vec![0.0; pofs.len() + 1];
    pmf[0] = 1.0;
    for (i, &p) in pofs.iter().enumerate() {
        // In-place DP, iterating counts downward.
        for k in (0..=i).rev() {
            let stay = pmf[k] * (1.0 - p);
            let flip = pmf[k] * p;
            pmf[k] = stay;
            pmf[k + 1] += flip;
        }
    }
    pmf
}

/// The array strike simulator binding geometry, transport and POF tables.
pub struct StrikeSimulator<'a> {
    array: &'a MemoryArray,
    traversal: FinTraversal,
    lut: Option<&'a EhpLut>,
    pof: &'a PofTable,
    direction: DirectionLaw,
    deposit: DepositMode,
    flip_model: FlipModel,
}

impl<'a> StrikeSimulator<'a> {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if `deposit` is [`DepositMode::LutMean`] but no LUT is given,
    /// or if [`FlipModel::Expected`] is combined with LUT deposits (the
    /// expectation integrates the chord-exact straggling distribution).
    pub fn new(
        array: &'a MemoryArray,
        traversal: FinTraversal,
        pof: &'a PofTable,
        direction: DirectionLaw,
        deposit: DepositMode,
        flip_model: FlipModel,
        lut: Option<&'a EhpLut>,
    ) -> Self {
        assert!(
            deposit != DepositMode::LutMean || lut.is_some(),
            "LutMean deposit mode requires an electron-hole pair LUT"
        );
        assert!(
            !(deposit == DepositMode::LutMean && flip_model == FlipModel::Expected),
            "the Expected flip model requires chord-exact deposits"
        );
        Self {
            array,
            traversal,
            lut,
            pof,
            direction,
            deposit,
            flip_model,
        }
    }

    /// The POF table in use.
    pub fn pof_table(&self) -> &PofTable {
        self.pof
    }

    /// Simulates one particle of `energy` forced to arrive on the array
    /// footprint (the paper's Fig. 8 condition: "the particle definitely
    /// hits the layout of the memory array").
    pub fn simulate_one<R: Rng + ?Sized>(
        &self,
        particle: Particle,
        energy: Energy,
        rng: &mut R,
    ) -> IterationOutcome {
        let ray = self.sample_ray(rng);
        self.simulate_ray(particle, energy, &ray, rng)
    }

    /// Draws one forced-hit ray: a uniform launch point on the array's top
    /// face and a downward direction from the configured law.
    fn sample_ray<R: Rng + ?Sized>(&self, rng: &mut R) -> Ray {
        let launch = sampling::point_on_top_face(rng, &self.array.bounds());
        let dir = match self.direction {
            DirectionLaw::CosineDown => sampling::cosine_law_hemisphere(rng),
            DirectionLaw::IsotropicDown => {
                let mut d = sampling::isotropic_direction(rng);
                if d.z > 0.0 {
                    d.z = -d.z;
                }
                // Exact-zero guards the degenerate horizontal-ray case only.
                // finrad-lint: allow(float-discipline)
                if d.z == 0.0 {
                    d.z = -1.0e-6;
                }
                d
            }
        };
        Ray::new(launch, dir)
    }

    /// Simulates one explicit ray (used by tests and by alternative launch
    /// geometries).
    pub fn simulate_ray<R: Rng + ?Sized>(
        &self,
        particle: Particle,
        energy: Energy,
        ray: &Ray,
        rng: &mut R,
    ) -> IterationOutcome {
        combine_cell_pofs(&self.cell_pofs_for_ray(particle, energy, ray, rng))
    }

    /// The per-cell flip probabilities of one explicit ray, before the
    /// Eqs. 4-6 combination — the input to upset-multiplicity statistics
    /// ([`multiplicity_pmf`]). Empty when nothing sensitive was struck.
    pub fn cell_pofs_for_ray<R: Rng + ?Sized>(
        &self,
        particle: Particle,
        energy: Energy,
        ray: &Ray,
        rng: &mut R,
    ) -> Vec<f64> {
        let crossings = self.array.trace(ray);
        if crossings.is_empty() {
            return Vec::new();
        }
        match self.flip_model {
            FlipModel::Sampled => self.resolve_sampled(particle, energy, &crossings, rng),
            FlipModel::Expected => self.resolve_expected(particle, energy, &crossings),
        }
    }

    /// The paper's literal procedure: one sampled deposit per crossing.
    fn resolve_sampled<R: Rng + ?Sized>(
        &self,
        particle: Particle,
        energy: Energy,
        crossings: &[Crossing],
        rng: &mut R,
    ) -> Vec<f64> {
        // Step 2-3: pair generation per struck fin, degrading the particle
        // energy as it burrows through successive fins.
        let mut energy_left = energy;
        let mut charge_per_cell: BTreeMap<usize, Vec<(StrikeTarget, f64)>> = BTreeMap::new();
        for crossing in crossings {
            if energy_left.ev() <= 0.0 {
                break;
            }
            let fin = &self.array.fins()[crossing.index];
            let pairs = match self.deposit {
                DepositMode::ChordExact => {
                    let outcome =
                        self.traversal
                            .deposit(particle, energy_left, crossing.chord(), rng);
                    energy_left -= outcome.deposited;
                    outcome.pairs
                }
                DepositMode::LutMean => match self.lut {
                    Some(lut) => lut.mean_pairs(energy_left).round().max(0.0) as u64,
                    // The constructor enforces a LUT in LutMean mode; an
                    // impossible miss deposits nothing rather than
                    // panicking mid-campaign.
                    None => 0,
                },
            };
            if pairs == 0 {
                continue;
            }
            if let Some(target) = fin.target {
                let q = Charge::from_electrons(pairs as f64).coulombs();
                charge_per_cell
                    .entry(fin.cell)
                    .or_default()
                    .push((target, q));
            }
        }

        if charge_per_cell.is_empty() {
            return Vec::new();
        }

        // Step 4: POF per struck cell from the circuit-level LUT.
        let mut pofs: Vec<f64> = Vec::with_capacity(charge_per_cell.len());
        for (_cell, hits) in charge_per_cell {
            let targets: Vec<StrikeTarget> = hits.iter().map(|(t, _)| *t).collect();
            let combo = StrikeCombo::new(&targets);
            let total: f64 = hits.iter().map(|(_, q)| q).sum();
            // An uncharacterized combo becomes NaN and is counted by the
            // accumulator's quarantine instead of crashing the campaign.
            pofs.push(match self.pof.pof(combo, Charge::from_coulombs(total)) {
                Some(p) => clamp_pof(p),
                None => f64::NAN,
            });
        }
        pofs
    }

    /// Conditional expectation over straggling: each struck cell
    /// contributes `mean_i P(deposit ≥ Q_crit,i)` exactly.
    fn resolve_expected(
        &self,
        particle: Particle,
        energy: Energy,
        crossings: &[Crossing],
    ) -> Vec<f64> {
        struct CellHit {
            targets: Vec<StrikeTarget>,
            mean_ev: f64,
            var_ev2: f64,
            available: Energy,
        }
        let mut per_cell: BTreeMap<usize, CellHit> = BTreeMap::new();
        let mut energy_left = energy;
        for crossing in crossings {
            if energy_left.ev() <= 0.0 {
                break;
            }
            let fin = &self.array.fins()[crossing.index];
            let params: LandauParams = landau_params(
                self.traversal.stopping(),
                particle,
                energy_left,
                crossing.chord(),
            );
            if let Some(target) = fin.target {
                let hit = per_cell.entry(fin.cell).or_insert_with(|| CellHit {
                    targets: Vec::new(),
                    mean_ev: 0.0,
                    var_ev2: 0.0,
                    available: energy_left,
                });
                hit.targets.push(target);
                hit.mean_ev += params.mean.ev();
                hit.var_ev2 += params.scale.ev() * params.scale.ev();
            }
            // Degrade the particle by the mean loss (the fluctuation's
            // effect on downstream fins is second order at nm scales).
            energy_left -= params.mean;
        }

        if per_cell.is_empty() {
            return Vec::new();
        }

        let pair_energy_ev = constants::EHP_PAIR_ENERGY.ev();
        let electron = constants::ELEMENTARY_CHARGE.coulombs();
        let mut pofs: Vec<f64> = Vec::with_capacity(per_cell.len());
        for (_cell, hit) in per_cell {
            let combo = StrikeCombo::new(&hit.targets);
            let Some(curve): Option<&PofCurve> = self.pof.curve(combo) else {
                // An uncharacterized combo cannot yield a probability.
                // Surface the iteration as a poisoned sample so the
                // accumulator-level NaN quarantine counts it instead of
                // panicking mid-campaign or silently skipping the cell.
                pofs.push(f64::NAN);
                continue;
            };
            // Multi-fin cells: approximate the sum of per-fin Moyal deposits
            // by a single Moyal with summed mean and quadrature-summed
            // scale (exact for the dominant single-fin case).
            let params = LandauParams {
                mean: Energy::from_ev(hit.mean_ev),
                scale: Energy::from_ev(hit.var_ev2.sqrt()),
            };
            let samples = curve.qcrit_samples();
            let mut acc = 0.0;
            for &qcrit in samples {
                let threshold = Energy::from_ev(qcrit / electron * pair_energy_ev);
                acc += deposit_exceedance(&params, threshold, hit.available);
            }
            pofs.push(acc / samples.len() as f64);
        }
        pofs
    }

    /// Expected rate of exactly-k-bit upsets per forced-hit particle, for
    /// `k = 0..=max_k` (the last entry aggregates `≥ max_k`). Runs
    /// `iterations` strikes and averages the exact per-iteration
    /// Poisson-binomial multiplicity distribution.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0` or `max_k == 0`.
    pub fn estimate_multiplicity(
        &self,
        particle: Particle,
        energy: Energy,
        iterations: u64,
        max_k: usize,
        seed: u64,
    ) -> Vec<f64> {
        assert!(iterations > 0, "need at least one iteration");
        assert!(max_k > 0, "need at least one multiplicity bin");
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut acc = vec![0.0; max_k + 1];
        for _ in 0..iterations {
            let ray = self.sample_ray(&mut rng);
            let pofs = self.cell_pofs_for_ray(particle, energy, &ray, &mut rng);
            let pmf = multiplicity_pmf(&pofs);
            for (k, &p) in pmf.iter().enumerate() {
                acc[k.min(max_k)] += p;
            }
        }
        for v in &mut acc {
            *v /= iterations as f64;
        }
        acc
    }

    /// Runs `iterations` forced-hit strikes at one energy, split across
    /// `std::thread::available_parallelism()` workers.
    ///
    /// RNG streams are derived per [`MC_CHUNK_ITERATIONS`]-sized logical
    /// chunk, not per worker thread, so the result for a given `seed` is
    /// bit-identical regardless of the host's core count (enforced by a
    /// regression test against [`Self::estimate_with_threads`] at 1
    /// worker).
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn estimate(
        &self,
        particle: Particle,
        energy: Energy,
        iterations: u64,
        seed: u64,
    ) -> ArrayPofEstimate {
        let threads = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
        self.estimate_with_threads(particle, energy, iterations, seed, threads)
    }

    /// [`Self::estimate`] with an explicit worker count. Any `threads`
    /// value yields the same bits; the knob exists for the determinism
    /// regression test and for callers that manage their own parallelism
    /// budget (e.g. nested campaign runners).
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn estimate_with_threads(
        &self,
        particle: Particle,
        energy: Energy,
        iterations: u64,
        seed: u64,
        threads: NonZeroUsize,
    ) -> ArrayPofEstimate {
        assert!(iterations > 0, "need at least one iteration");
        let timer = finrad_observe::span(finrad_observe::keys::STRIKE_ESTIMATE_SECONDS);
        let out = estimate_chunked(iterations, threads, |chunk, len| {
            let mut rng = Xoshiro256pp::salted_stream(seed, chunk + 1, 0xD6E8_FEB8_6659_FD93);
            let mut acc = ArrayPofEstimate::default();
            for _ in 0..len {
                acc.push(self.simulate_one(particle, energy, &mut rng));
            }
            finrad_observe::counter_add(finrad_observe::keys::STRIKE_ITERATIONS, len);
            acc
        });
        finrad_observe::counter_add(finrad_observe::keys::STRIKE_QUARANTINED, out.quarantined);
        if let Some(secs) = timer.elapsed_seconds() {
            if secs > 0.0 {
                finrad_observe::record(
                    finrad_observe::keys::STRIKE_ITERS_PER_SEC,
                    iterations as f64 / secs,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::DataPattern;
    use finrad_finfet::Technology;
    use finrad_geometry::Vec3;
    use finrad_numerics::rng::Xoshiro256pp;
    use finrad_sram::{CellCharacterizer, CharacterizeOptions, Variation};
    use finrad_units::Voltage;

    fn pof_table(vdd: f64) -> PofTable {
        let ch = CellCharacterizer::new(
            Technology::soi_finfet_14nm(),
            CharacterizeOptions {
                settle: 5.0e-12,
                bisect_rel_tol: 0.1,
                ..CharacterizeOptions::default()
            },
        );
        ch.build_table(Voltage::from_volts(vdd), Variation::Nominal, 7)
            .expect("characterization")
    }

    const GOLDEN_CHORD_EXACT_EXPECTED: [u64; 3] = [
        4582047818070963949,
        4581996907073636606,
        4550648631674730164,
    ];
    const GOLDEN_LUT_MEAN_SAMPLED: [u64; 3] = [
        4574144011933627445,
        4573567551181324032,
        4557750909289998850,
    ];

    /// `(total, seu, mbu)` mean bits of a 9×9 estimate, recorded before
    /// the ray tracer moved from a linear scan to the bucketed fin index.
    /// The index must reproduce every crossing bit for bit, so these stay.
    fn golden_case(deposit: DepositMode, model: FlipModel, direction: DirectionLaw) -> [u64; 3] {
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 9, 9, DataPattern::Checkerboard);
        let table = pof_table(0.8);
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let lut = EhpLut::build(
            &FinTraversal::paper_default(),
            Particle::Alpha,
            Energy::from_mev(0.5),
            Energy::from_mev(20.0),
            6,
            200,
            &mut rng,
        );
        let sim = StrikeSimulator::new(
            &array,
            FinTraversal::paper_default(),
            &table,
            direction,
            deposit,
            model,
            (deposit == DepositMode::LutMean).then_some(&lut),
        );
        let est = sim.estimate(Particle::Alpha, Energy::from_mev(2.0), 10_000, 5);
        [est.total.mean(), est.seu.mean(), est.mbu.mean()].map(f64::to_bits)
    }

    #[test]
    fn golden_estimate_bits_chord_exact_expected() {
        let got = golden_case(
            DepositMode::ChordExact,
            FlipModel::Expected,
            DirectionLaw::CosineDown,
        );
        assert_eq!(got, GOLDEN_CHORD_EXACT_EXPECTED);
    }

    #[test]
    fn golden_estimate_bits_lut_mean_sampled() {
        let got = golden_case(
            DepositMode::LutMean,
            FlipModel::Sampled,
            DirectionLaw::IsotropicDown,
        );
        assert_eq!(got, GOLDEN_LUT_MEAN_SAMPLED);
    }

    /// Replays a fixed list of raw draws, then zeros.
    struct Scripted(Vec<u64>);

    impl Rng for Scripted {
        fn next_u64(&mut self) -> u64 {
            if self.0.is_empty() {
                0
            } else {
                self.0.remove(0)
            }
        }
    }

    #[test]
    fn isotropic_ray_flips_a_tiny_upward_z_exactly() {
        // Every forced-hit ray, from `simulate_one` and from
        // `estimate_multiplicity`, comes from `sample_ray`: an upward z of
        // 5e-7 is mirrored to -5e-7, not widened to -1e-6.
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 2, 2, DataPattern::Checkerboard);
        let table = pof_table(0.8);
        let sim = StrikeSimulator::new(
            &array,
            FinTraversal::paper_default(),
            &table,
            DirectionLaw::IsotropicDown,
            DepositMode::ChordExact,
            FlipModel::Expected,
            None,
        );
        // Launch x and y, then the isotropic z draw on [-1, 1]: its 53-bit
        // ladder value u gives z = 2u - 1 = 5e-7.
        let u = 0.5 * (1.0 + 5.0e-7);
        let z_bits = ((u * ((1u64 << 53) - 1) as f64) as u64) << 11;
        let ray = sim.sample_ray(&mut Scripted(vec![0, 0, z_bits]));
        let z = ray.direction().z;
        assert!((-6.0e-7..-4.0e-7).contains(&z), "z = {z}");
    }

    #[test]
    fn multiplicity_pmf_properties() {
        // Empty strike: certainly zero flips.
        assert_eq!(multiplicity_pmf(&[]), vec![1.0]);
        // Certain flips shift the distribution.
        let pmf = multiplicity_pmf(&[1.0, 1.0, 0.0]);
        assert!((pmf[2] - 1.0).abs() < 1e-12);
        // Sums to one and agrees with Eqs. 4-6.
        let pofs = [0.3, 0.6, 0.1, 0.05];
        let pmf = multiplicity_pmf(&pofs);
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let eqs = combine_cell_pofs(&pofs);
        assert!((1.0 - pmf[0] - eqs.pof_total).abs() < 1e-12);
        assert!((pmf[1] - eqs.pof_seu).abs() < 1e-12);
        let mbu: f64 = pmf[2..].iter().sum();
        assert!((mbu - eqs.pof_mbu).abs() < 1e-12);
    }

    #[test]
    fn eqs_4_to_6_identities() {
        // No strikes.
        let none = combine_cell_pofs(&[]);
        assert_eq!(none.pof_total, 0.0);
        assert_eq!(none.pof_seu, 0.0);
        // Single certain flip.
        let one = combine_cell_pofs(&[1.0]);
        assert_eq!(one.pof_total, 1.0);
        assert_eq!(one.pof_seu, 1.0);
        assert_eq!(one.pof_mbu, 0.0);
        // Two certain flips: all MBU.
        let two = combine_cell_pofs(&[1.0, 1.0]);
        assert_eq!(two.pof_total, 1.0);
        assert_eq!(two.pof_seu, 0.0);
        assert_eq!(two.pof_mbu, 1.0);
        // Mixed.
        let m = combine_cell_pofs(&[0.3, 0.6, 0.1]);
        assert!((m.pof_total - (1.0 - 0.7 * 0.4 * 0.9)).abs() < 1e-12);
        let seu = 0.3 * 0.4 * 0.9 + 0.6 * 0.7 * 0.9 + 0.1 * 0.7 * 0.4;
        assert!((m.pof_seu - seu).abs() < 1e-12);
        assert!((m.pof_total - m.pof_seu - m.pof_mbu).abs() < 1e-12);
    }

    #[test]
    fn vertical_ray_through_sensitive_fin_flips_with_alpha() {
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 3, 3, DataPattern::Checkerboard);
        let table = pof_table(0.8);
        let sim = StrikeSimulator::new(
            &array,
            FinTraversal::paper_default(),
            &table,
            DirectionLaw::CosineDown,
            DepositMode::ChordExact,
            FlipModel::Expected,
            None,
        );
        // Aim straight down through a sensitive fin of cell 0 (30 nm chord).
        let fin = array
            .fins()
            .iter()
            .find(|f| f.cell == 0 && f.target.is_some())
            .unwrap();
        let c = fin.aabb.center();
        let ray = Ray::new(Vec3::new(c.x, c.y, 1.0e-6), Vec3::new(0.0, 0.0, -1.0));
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        // 1 MeV alpha down a 30 nm fin chord deposits ~6 keV (~1700 pairs),
        // right at the ~0.28 fC critical charge: an O(0.1-1) flip
        // probability, resolved exactly by the Expected flip model.
        let o = sim.simulate_ray(Particle::Alpha, Energy::from_mev(1.0), &ray, &mut rng);
        assert!(o.pof_total > 0.1, "pof {o:?}");
        assert!(o.pof_total <= 1.0);
        assert_eq!(o.cells_struck, 1);
        assert!(o.pof_mbu < 1e-12, "single cell cannot MBU: {o:?}");
    }

    #[test]
    fn ray_missing_everything_is_benign() {
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 2, 2, DataPattern::Checkerboard);
        let table = pof_table(0.8);
        let sim = StrikeSimulator::new(
            &array,
            FinTraversal::paper_default(),
            &table,
            DirectionLaw::CosineDown,
            DepositMode::ChordExact,
            FlipModel::Expected,
            None,
        );
        let ray = Ray::new(Vec3::new(-1.0, -1.0, 1.0), Vec3::new(0.0, 0.0, -1.0));
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let o = sim.simulate_ray(Particle::Alpha, Energy::from_mev(1.0), &ray, &mut rng);
        assert_eq!(o.pof_total, 0.0);
        assert_eq!(o.cells_struck, 0);
    }

    #[test]
    fn alpha_pof_exceeds_proton_pof() {
        // The Fig. 8 headline: alpha POF >> proton POF at equal energy.
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 5, 5, DataPattern::Checkerboard);
        let table = pof_table(0.8);
        let sim = StrikeSimulator::new(
            &array,
            FinTraversal::paper_default(),
            &table,
            DirectionLaw::CosineDown,
            DepositMode::ChordExact,
            FlipModel::Expected,
            None,
        );
        let e = Energy::from_mev(1.0);
        let alpha = sim.estimate(Particle::Alpha, e, 4000, 11);
        let proton = sim.estimate(Particle::Proton, e, 4000, 12);
        assert!(
            alpha.total.mean() > 2.0 * proton.total.mean(),
            "alpha {} vs proton {}",
            alpha.total.mean(),
            proton.total.mean()
        );
    }

    #[test]
    fn estimate_is_deterministic_and_mergeable() {
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 3, 3, DataPattern::Checkerboard);
        let table = pof_table(0.8);
        let sim = StrikeSimulator::new(
            &array,
            FinTraversal::paper_default(),
            &table,
            DirectionLaw::CosineDown,
            DepositMode::ChordExact,
            FlipModel::Expected,
            None,
        );
        let e = Energy::from_mev(2.0);
        let a = sim.estimate(Particle::Alpha, e, 500, 99);
        let b = sim.estimate(Particle::Alpha, e, 500, 99);
        assert_eq!(a.total.mean(), b.total.mean());
        assert_eq!(a.total.count(), 500);
        // Ratio helper.
        assert!(a.mbu_to_seu() >= 0.0);
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        // The core-count regression: per-chunk (not per-thread) RNG
        // streams plus chunk-ordered merging must make a forced
        // single-worker run bit-identical to the default multi-worker run.
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 3, 3, DataPattern::Checkerboard);
        let table = pof_table(0.8);
        let sim = StrikeSimulator::new(
            &array,
            FinTraversal::paper_default(),
            &table,
            DirectionLaw::CosineDown,
            DepositMode::ChordExact,
            FlipModel::Expected,
            None,
        );
        let e = Energy::from_mev(1.0);
        // Several chunks plus a ragged tail, so the chunk decomposition —
        // not just a single stream — is what is being compared.
        let iters = 3 * MC_CHUNK_ITERATIONS + 123;
        let one = NonZeroUsize::new(1).unwrap();
        let many = NonZeroUsize::new(7).unwrap();
        let single = sim.estimate_with_threads(Particle::Alpha, e, iters, 77, one);
        let multi = sim.estimate_with_threads(Particle::Alpha, e, iters, 77, many);
        let default = sim.estimate(Particle::Alpha, e, iters, 77);
        assert_eq!(single.total.count(), iters);
        for other in [&multi, &default] {
            assert_eq!(
                single.total.mean().to_bits(),
                other.total.mean().to_bits(),
                "POF_tot mean must be bit-identical"
            );
            assert_eq!(
                single.seu.mean().to_bits(),
                other.seu.mean().to_bits(),
                "POF_SEU mean must be bit-identical"
            );
            assert_eq!(
                single.mbu.mean().to_bits(),
                other.mbu.mean().to_bits(),
                "POF_MBU mean must be bit-identical"
            );
            assert_eq!(&single, other);
        }
    }

    #[test]
    fn mbu_to_seu_edge_cases() {
        let mut est = ArrayPofEstimate::default();
        est.push(IterationOutcome::default());
        // No upset mass at all: ratio is 0, not NaN.
        assert_eq!(est.mbu_to_seu(), 0.0);
        // MBU mass without SEU mass must not report "no MBU".
        let mut mbu_only = ArrayPofEstimate::default();
        mbu_only.push(IterationOutcome {
            pof_total: 0.5,
            pof_seu: 0.0,
            pof_mbu: 0.5,
            cells_struck: 2,
        });
        assert_eq!(mbu_only.mbu_to_seu(), f64::INFINITY);
    }

    #[test]
    fn multiplicity_matches_brute_force_enumeration() {
        // Exact check against 2^n enumeration for a small pof vector.
        let pofs = [0.2, 0.7, 0.05, 0.4];
        let pmf = multiplicity_pmf(&pofs);
        let n = pofs.len();
        let mut brute = vec![0.0; n + 1];
        for mask in 0u32..(1 << n) {
            let mut p = 1.0;
            let mut k = 0;
            for (i, &pi) in pofs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    p *= pi;
                    k += 1;
                } else {
                    p *= 1.0 - pi;
                }
            }
            brute[k] += p;
        }
        for (a, b) in pmf.iter().zip(&brute) {
            assert!((a - b).abs() < 1e-14, "{pmf:?} vs {brute:?}");
        }
    }

    #[test]
    fn estimate_multiplicity_consistent_with_estimate() {
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 4, 4, DataPattern::Checkerboard);
        let table = pof_table(0.8);
        let sim = StrikeSimulator::new(
            &array,
            FinTraversal::paper_default(),
            &table,
            DirectionLaw::IsotropicDown,
            DepositMode::ChordExact,
            FlipModel::Expected,
            None,
        );
        let e = Energy::from_mev(2.0);
        let pmf = sim.estimate_multiplicity(Particle::Alpha, e, 6000, 5, 33);
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // P(>=1 flip) from the multiplicity spectrum matches POF_tot from
        // the plain estimator (same physics, different bookkeeping; allow
        // MC noise between the independent runs).
        let est = sim.estimate(Particle::Alpha, e, 6000, 34);
        let p_any: f64 = pmf[1..].iter().sum();
        let pof_tot = est.total.mean();
        assert!(
            (p_any - pof_tot).abs() < 0.3 * pof_tot.max(1e-6) + 1e-4,
            "p_any {p_any} vs pof_tot {pof_tot}"
        );
        // Single-bit upsets dominate.
        assert!(pmf[1] > pmf[2]);
    }

    #[test]
    #[should_panic(expected = "requires an electron-hole pair LUT")]
    fn lut_mode_requires_lut() {
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 2, 2, DataPattern::Checkerboard);
        let table = pof_table(0.8);
        let _ = StrikeSimulator::new(
            &array,
            FinTraversal::paper_default(),
            &table,
            DirectionLaw::CosineDown,
            DepositMode::LutMean,
            FlipModel::Sampled,
            None,
        );
    }
}
