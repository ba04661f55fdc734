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
//! [`StrikeSimulator::estimate`]). Steps 1–3 do not read the POF table, so
//! one pass can score each ray against several tables
//! ([`StrikeSimulator::with_tables`]).

use crate::array::{clamp_pof, MemoryArray};
use finrad_geometry::trace::{Crossing, TraceScratch};
use finrad_geometry::{sampling, Ray, Vec3};
use finrad_numerics::par;
use finrad_numerics::rng::{Rng, Xoshiro256pp};
use finrad_numerics::stats::RunningStats;
use finrad_sram::{PofCurve, PofTable, StrikeCombo, StrikeTarget};
use finrad_transport::fin::FinTraversal;
use finrad_transport::lut::EhpLut;
use finrad_transport::straggling::{
    deposit_exceedance, landau_params, moyal_derivative_polys, moyal_pdf, moyal_survival,
    LandauParams, MOYAL_MEAN,
};
use finrad_units::{constants, Charge, Energy, Particle};
use std::num::NonZeroUsize;

/// Size of one logical Monte-Carlo chunk. The iteration space of an
/// estimate is split into consecutive chunks of this many iterations, each
/// with an RNG stream derived from `seed` and the *chunk index*. Worker
/// threads pull whole chunks, so the set of random streams — and therefore
/// the result — does not depend on how many workers the host offers.
pub const MC_CHUNK_ITERATIONS: u64 = 4096;

/// Splits `iterations` into [`MC_CHUNK_ITERATIONS`]-sized chunks, runs
/// `chunk_fn(chunk_index, chunk_len, partials)` for each across `threads`
/// workers, and merges each of the `tables` partial estimates **in chunk
/// order**. Both the per-chunk streams and the merge order are independent
/// of `threads`, which is what makes same-seed results bit-identical across
/// hosts.
fn estimate_chunked<F>(
    iterations: u64,
    threads: NonZeroUsize,
    tables: usize,
    chunk_fn: F,
) -> Vec<ArrayPofEstimate>
where
    F: Fn(u64, u64, &mut [ArrayPofEstimate]) + Sync,
{
    let n_chunks = iterations.div_ceil(MC_CHUNK_ITERATIONS);
    // The merge below runs in chunk order, not in the (thread-count and
    // scheduling dependent) completion order: Welford merging is not
    // bit-associative.
    let partials = par::map_indexed(n_chunks as usize, threads, |c| {
        let c = c as u64;
        let start = c * MC_CHUNK_ITERATIONS;
        let mut partial = vec![ArrayPofEstimate::default(); tables];
        chunk_fn(c, MC_CHUNK_ITERATIONS.min(iterations - start), &mut partial);
        partial
    });
    let mut out = vec![ArrayPofEstimate::default(); tables];
    for partial in &partials {
        for (acc, p) in out.iter_mut().zip(partial) {
            acc.merge(p);
        }
    }
    out
}

/// The estimate of a one-table strike run.
pub(crate) fn only_estimate(estimates: Vec<ArrayPofEstimate>) -> ArrayPofEstimate {
    estimates.into_iter().next().unwrap_or_default()
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

impl DirectionLaw {
    /// Draws one downward direction from this law, to be normalised by
    /// [`Ray::new`]. It is never horizontal: a zero z (`-0.0` from the
    /// cosine law's `u = 0` draw) is widened to `-1e-6`.
    pub fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> Vec3 {
        let mut d = match self {
            Self::CosineDown => sampling::cosine_law_hemisphere(rng),
            Self::IsotropicDown => {
                let mut d = sampling::isotropic_direction(rng);
                if d.z > 0.0 {
                    d.z = -d.z;
                }
                d
            }
        };
        // Exact-zero guards the degenerate horizontal-ray case only.
        // finrad-lint: allow(float-discipline)
        if d.z == 0.0 {
            d.z = -1.0e-6;
        }
        d
    }
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

/// Reusable storage for strike iterations: the trace buffers, the struck
/// cells and their flip probabilities. [`StrikeSimulator::estimate`] keeps
/// one per chunk, so an iteration allocates nothing once the buffers have
/// grown. Every iteration overwrites what the last one left, so results
/// never depend on a scratch's history.
#[derive(Debug, Clone, Default)]
struct StrikeScratch {
    trace: TraceScratch,
    /// Collected charge per struck cell (coulombs): `Sampled`.
    charges: CellHits<f64>,
    /// Summed Moyal deposit per struck cell: `Expected`.
    moyal: CellHits<MoyalSum>,
    pofs: Vec<f64>,
    /// `Expected` flip-probability work since the scratch was made.
    exceedance: ExceedanceCounts,
}

/// One struck cell of an iteration: the sensitive targets hit so far (as a
/// combo bitmask) and the cell's accumulator.
#[derive(Debug, Clone, Copy)]
struct CellHit<T> {
    cell: usize,
    combo: StrikeCombo,
    acc: T,
}

/// The struck cells of one iteration in ascending cell order, each
/// accumulated in crossing order. A ray strikes a handful of cells, so a
/// sorted vector reused across iterations replaces a per-iteration map.
#[derive(Debug, Clone)]
struct CellHits<T>(Vec<CellHit<T>>);

impl<T> Default for CellHits<T> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T> CellHits<T> {
    fn clear(&mut self) {
        self.0.clear();
    }

    fn iter(&self) -> impl Iterator<Item = &CellHit<T>> {
        self.0.iter()
    }

    /// Adds `target` to `cell`'s combo and returns its accumulator,
    /// inserting the cell with `init()` on its first hit.
    fn hit(&mut self, cell: usize, target: StrikeTarget, init: impl FnOnce() -> T) -> &mut T {
        let at = self.0.partition_point(|h| h.cell < cell);
        if self.0.get(at).is_some_and(|h| h.cell == cell) {
            self.0[at].combo = self.0[at].combo.with(target);
        } else {
            self.0.insert(
                at,
                CellHit {
                    cell,
                    combo: StrikeCombo::single(target),
                    acc: init(),
                },
            );
        }
        &mut self.0[at].acc
    }
}

/// The summed Moyal deposit of one cell's sensitive crossings.
#[derive(Debug, Clone, Copy)]
struct MoyalSum {
    mean_ev: f64,
    var_ev2: f64,
    /// The particle's energy entering the cell's first sensitive crossing:
    /// the most the cell can collect.
    available: Energy,
}

/// Step 4 for charge-collecting iterations: each struck cell's POF at its
/// collected charge, pushed onto `pofs` in ascending cell order. An
/// uncharacterized combo becomes NaN, which the accumulator's quarantine
/// counts instead of crashing the campaign.
fn charge_pofs(cells: &CellHits<f64>, table: &PofTable, pofs: &mut Vec<f64>) {
    pofs.extend(cells.iter().map(
        |hit| match table.pof(hit.combo, Charge::from_coulombs(hit.acc)) {
            Some(p) => clamp_pof(p),
            None => f64::NAN,
        },
    ));
}

/// Most thresholds per block of [`ExceedanceCurve`]: a curve of `n`
/// samples splits into `ceil(n / EXCEEDANCE_BLOCK)` near-equal blocks. A
/// curve with fewer samples than this (a nominal table, a smoke-scale
/// variation table) has no blocks and is always summed term by term.
const EXCEEDANCE_BLOCK: usize = 32;
/// Taylor order of a block's expansion about its centre.
const EXCEEDANCE_ORDER: usize = 8;
/// A block's expansion is accepted only if its error bound is at most
/// this fraction of a lower bound on the block's sum. The per-call
/// contract is 1e-6 against the term-by-term sum; the rest of that margin
/// covers `special::erf`'s A&S branch (|error| < 1.5e-7 per term), which
/// the term-by-term sum carries and the expansion's derivatives do not.
const EXCEEDANCE_EPS: f64 = 2.5e-7;
/// Rounding allowance per unit magnitude of the expansion's terms.
const EXCEEDANCE_ROUNDING: f64 = 64.0 * f64::EPSILON;
/// The Moyal coordinate window a block must lie inside to be expanded:
/// above it `e^(−u)` nears `f64` underflow and the exact terms round to
/// zero; below it `e^(−u)` grows fast and `moyal_survival` nears its
/// `u ≤ −5` shortcut.
const EXCEEDANCE_U_RANGE: (f64, f64) = (-4.0, 700.0);
/// `P_j` for `j ≤ ORDER`: derivatives 1..=ORDER of the survival, and the
/// `ORDER + 1`-th for the Lagrange remainder.
const MOYAL_POLYS: [[f64; EXCEEDANCE_ORDER + 1]; EXCEEDANCE_ORDER + 1] =
    moyal_derivative_polys::<{ EXCEEDANCE_ORDER + 1 }>();

/// How a strike chunk's flip probabilities were summed: blocks taken from
/// their expansion, and terms summed one [`deposit_exceedance`] at a time.
#[derive(Debug, Clone, Copy, Default)]
struct ExceedanceCounts {
    blocks_expanded: u64,
    terms_exact: u64,
}

/// One POF curve prepared for `mean_i P(deposit ≥ threshold_i)`: the
/// critical-charge samples as ascending deposit thresholds in eV, and
/// consecutive runs of them as [`ThresholdBlock`]s.
#[derive(Debug, Clone)]
struct ExceedanceCurve {
    thresholds: Vec<Energy>,
    blocks: Vec<ThresholdBlock>,
}

/// A run of consecutive sorted thresholds, summarized by its centre `c`
/// and the power sums of the offsets `d = t − c`.
#[derive(Debug, Clone)]
struct ThresholdBlock {
    start: usize,
    end: usize,
    /// The lowest threshold, eV.
    lowest: f64,
    centre: f64,
    /// `c − t_min` and `t_max − c`, eV.
    below: f64,
    above: f64,
    /// `Σ d^k` for `k = 0..=ORDER`; `moments[0]` is the block's size.
    moments: [f64; EXCEEDANCE_ORDER + 1],
    /// `Σ |d|^k` for `k = 0..=ORDER + 1`.
    abs_moments: [f64; EXCEEDANCE_ORDER + 2],
}

impl ExceedanceCurve {
    fn new(curve: &PofCurve) -> Self {
        let pair_energy_ev = constants::EHP_PAIR_ENERGY.ev();
        let electron = constants::ELEMENTARY_CHARGE.coulombs();
        let thresholds: Vec<Energy> = curve
            .qcrit_samples()
            .iter()
            .map(|&qcrit| Energy::from_ev(qcrit / electron * pair_energy_ev))
            .collect();
        let n = thresholds.len();
        let n_blocks = if n < EXCEEDANCE_BLOCK {
            0
        } else {
            n.div_ceil(EXCEEDANCE_BLOCK)
        };
        let blocks = (0..n_blocks)
            .map(|b| {
                let (start, end) = (b * n / n_blocks, (b + 1) * n / n_blocks);
                ThresholdBlock::new(start, end, &thresholds[start..end])
            })
            .collect();
        Self { thresholds, blocks }
    }

    /// `mean_i P(deposit ≥ threshold_i)` for a deposit described by
    /// `params` and capped at `available`.
    ///
    /// Each block below `available` is taken from its Taylor expansion
    /// when [`ThresholdBlock::expand`] can bound the error, and summed
    /// term by term otherwise. The rest — the block that straddles
    /// `available`, and every threshold of a curve with no blocks — is
    /// summed term by term in ascending order, stopping at the first
    /// threshold above `available`: from there on [`deposit_exceedance`]
    /// returns exactly `0.0`, and adding `0.0` leaves the sum's bits
    /// unchanged. A call that expands no block therefore returns the
    /// bits of the plain per-sample sum.
    fn flip_probability(
        &self,
        params: &LandauParams,
        available: Energy,
        counts: &mut ExceedanceCounts,
    ) -> f64 {
        let mut acc = 0.0;
        let mut next = 0;
        if !self.blocks.is_empty() && params.scale.ev() > 0.0 {
            let factors = taylor_factors(params.scale);
            for block in &self.blocks {
                if self.thresholds[block.end - 1] > available {
                    break;
                }
                match block.expand(params, &factors) {
                    Some(sum) => {
                        acc += sum;
                        counts.blocks_expanded += 1;
                    }
                    None => {
                        acc = self.sum_exact(block.start, block.end, params, available, acc, counts)
                    }
                }
                next = block.end;
            }
        }
        let acc = self.sum_exact(next, self.thresholds.len(), params, available, acc, counts);
        (acc / self.thresholds.len() as f64).clamp(0.0, 1.0)
    }

    /// Adds `deposit_exceedance` for thresholds `from..to` onto `acc`, in
    /// ascending order, stopping at the first threshold above `available`.
    fn sum_exact(
        &self,
        from: usize,
        to: usize,
        params: &LandauParams,
        available: Energy,
        mut acc: f64,
        counts: &mut ExceedanceCounts,
    ) -> f64 {
        for &threshold in &self.thresholds[from..to] {
            if threshold > available {
                break;
            }
            acc += deposit_exceedance(params, threshold, available);
            counts.terms_exact += 1;
        }
        acc
    }
}

/// `1/(k!·s^k)` for `k = 0..=ORDER + 1`: the scale-dependent factors of one
/// call's expansions, shared by all its blocks.
fn taylor_factors(scale: Energy) -> [f64; EXCEEDANCE_ORDER + 2] {
    let inv_scale = 1.0 / scale.ev();
    let mut f = [1.0; EXCEEDANCE_ORDER + 2];
    for k in 1..f.len() {
        f[k] = f[k - 1] * inv_scale / k as f64;
    }
    f
}

/// `(Σ c_m·w^m, Σ |c_m|·w^m)` for `w ≥ 0`, by Horner's rule.
fn poly_and_magnitude(coeffs: &[f64], w: f64) -> (f64, f64) {
    coeffs
        .iter()
        .rev()
        .fold((0.0, 0.0), |(v, m), &c| (v * w + c, m * w + c.abs()))
}

impl ThresholdBlock {
    fn new(start: usize, end: usize, thresholds: &[Energy]) -> Self {
        let (lowest, highest) = (thresholds[0].ev(), thresholds[thresholds.len() - 1].ev());
        let centre = 0.5 * (lowest + highest);
        let mut moments = [0.0; EXCEEDANCE_ORDER + 1];
        let mut abs_moments = [0.0; EXCEEDANCE_ORDER + 2];
        for t in thresholds {
            let d = t.ev() - centre;
            let mut power = 1.0_f64;
            for k in 0..abs_moments.len() {
                if k < moments.len() {
                    moments[k] += power;
                }
                abs_moments[k] += power.abs();
                power *= d;
            }
        }
        Self {
            start,
            end,
            lowest,
            centre,
            below: centre - lowest,
            above: highest - centre,
            moments,
            abs_moments,
        }
    }

    /// The block's sum `Σ moyal_survival(u_i)`, `u_i = (t_i − mean)/s +
    /// MOYAL_MEAN`, from its order-`ORDER` Taylor expansion about the
    /// centre, or `None` when the expansion's error bound is not at most
    /// [`EXCEEDANCE_EPS`] of the sum's lower bound.
    ///
    /// With `g = moyal_survival` and `D_i = (t_i − c)/s`, the expansion
    /// is `Σ_k g^(k)(u_c)/k! · Σ_i D_i^k`, where `g^(k) = −p·P_{k−1}(e^(−u))`
    /// ([`moyal_derivative_polys`]). The error bound `E` adds
    /// - the Lagrange remainder, `max|g^(ORDER+1)|/(ORDER+1)! · Σ|D_i|^(ORDER+1)`,
    ///   with `max |p·P| ≤ max p · Σ|a_m|·max(e^(−u))^m` over the block;
    /// - the rounding of the sum, [`EXCEEDANCE_ROUNDING`] times the sum of
    ///   its terms' magnitudes. This term rejects expansions whose terms
    ///   cancel.
    ///
    /// The block sum is at least `S − E`, with `S` the computed expansion,
    /// so acceptance needs `E ≤ ε·(S − E)`: the expansion is then within
    /// `ε` relative of the block's true sum. This bound needs no survival
    /// evaluation beyond the centre's, and is at least as tight as the
    /// count times the block's smallest term whenever `E ≪ S`.
    fn expand(&self, params: &LandauParams, f: &[f64; EXCEEDANCE_ORDER + 2]) -> Option<f64> {
        let u_c = (self.centre - params.mean.ev()) * f[1] + MOYAL_MEAN;
        let (u_lo, u_hi) = (u_c - self.below * f[1], u_c + self.above * f[1]);
        let (u_min, u_max) = EXCEEDANCE_U_RANGE;
        // Also rejects NaN.
        if !(u_lo > u_min && u_hi < u_max && self.lowest > 0.0) {
            return None;
        }
        let n = self.moments[0];
        let g_c = moyal_survival(u_c);
        let p_c = moyal_pdf(u_c);
        let w_c = (-u_c).exp();
        let (mut slope, mut magnitude) = (0.0, 0.0);
        for k in 1..=EXCEEDANCE_ORDER {
            let (value, size) = poly_and_magnitude(&MOYAL_POLYS[k - 1][..k], w_c);
            slope += value * self.moments[k] * f[k];
            magnitude += size * self.abs_moments[k] * f[k];
        }
        let sum = n * g_c - p_c * slope;
        // The density peaks at u = 0, e^(−u) at the block's low end.
        let p_max = moyal_pdf(u_lo.max(0.0).min(u_hi));
        let (_, tail) = poly_and_magnitude(&MOYAL_POLYS[EXCEEDANCE_ORDER], (-u_lo).exp());
        let error = p_max * tail * self.abs_moments[EXCEEDANCE_ORDER + 1] * f[EXCEEDANCE_ORDER + 1]
            + EXCEEDANCE_ROUNDING * (n * g_c + p_c * magnitude);
        (error <= EXCEEDANCE_EPS * (sum - error)).then_some(sum)
    }
}

/// The array strike simulator binding geometry, transport and POF tables.
///
/// A simulator scores every traced ray against one or more POF tables
/// (see [`StrikeSimulator::with_tables`]): the ray, its crossings and the
/// struck cells' deposits do not depend on the table, so they are worked
/// out once per iteration, and only the per-cell flip probabilities and
/// the Eqs. 4–6 combination run once per table.
pub struct StrikeSimulator<'a> {
    array: &'a MemoryArray,
    traversal: FinTraversal,
    lut: Option<&'a EhpLut>,
    /// The tables every ray is scored against, in the caller's order;
    /// never empty.
    tables: Vec<ScoredTable<'a>>,
    direction: DirectionLaw,
    deposit: DepositMode,
    flip_model: FlipModel,
}

/// One POF table of a [`StrikeSimulator`], prepared for scoring.
struct ScoredTable<'a> {
    pof: &'a PofTable,
    /// `pof`'s curves prepared for the `Expected` flip model, by combo.
    exceedance: Vec<(StrikeCombo, ExceedanceCurve)>,
}

impl<'a> StrikeSimulator<'a> {
    /// Creates a simulator scoring against the one table `pof`.
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
        Self::with_tables(
            array,
            traversal,
            &[pof],
            direction,
            deposit,
            flip_model,
            lut,
        )
    }

    /// Creates a simulator scoring every ray against each of `tables`:
    /// [`StrikeSimulator::estimate`] returns one estimate per table, each
    /// bit-identical to the estimate of a [`StrikeSimulator::new`] on that
    /// table alone.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty, and as [`StrikeSimulator::new`] does.
    pub fn with_tables(
        array: &'a MemoryArray,
        traversal: FinTraversal,
        tables: &[&'a PofTable],
        direction: DirectionLaw,
        deposit: DepositMode,
        flip_model: FlipModel,
        lut: Option<&'a EhpLut>,
    ) -> Self {
        assert!(!tables.is_empty(), "a strike simulator needs a POF table");
        assert!(
            deposit != DepositMode::LutMean || lut.is_some(),
            "LutMean deposit mode requires an electron-hole pair LUT"
        );
        assert!(
            !(deposit == DepositMode::LutMean && flip_model == FlipModel::Expected),
            "the Expected flip model requires chord-exact deposits"
        );
        let tables = tables
            .iter()
            .map(|&pof| ScoredTable {
                pof,
                exceedance: match flip_model {
                    FlipModel::Expected => pof
                        .combos()
                        .filter_map(|combo| Some((combo, ExceedanceCurve::new(pof.curve(combo)?))))
                        .collect(),
                    FlipModel::Sampled => Vec::new(),
                },
            })
            .collect();
        Self {
            array,
            traversal,
            lut,
            tables,
            direction,
            deposit,
            flip_model,
        }
    }

    /// The first table, which the constructors guarantee exists.
    fn lead(&self) -> &ScoredTable<'a> {
        &self.tables[0]
    }

    /// Draws one forced-hit ray: a uniform launch point on the array's top
    /// face and a downward direction from the configured law.
    fn sample_ray<R: Rng + ?Sized>(&self, rng: &mut R) -> Ray {
        let launch = sampling::point_on_top_face(rng, &self.array.bounds());
        Ray::new(launch, self.direction.sample(rng))
    }

    /// Simulates one explicit ray against the first table (used by tests
    /// and by alternative launch geometries).
    pub fn simulate_ray<R: Rng + ?Sized>(
        &self,
        particle: Particle,
        energy: Energy,
        ray: &Ray,
        rng: &mut R,
    ) -> IterationOutcome {
        let mut scratch = StrikeScratch::default();
        combine_cell_pofs(self.cell_pofs_with(particle, energy, ray, rng, &mut scratch))
    }

    /// The per-cell flip probabilities of one explicit ray under the first
    /// table, before the Eqs. 4-6 combination — the input to
    /// upset-multiplicity statistics ([`multiplicity_pmf`]). Empty when
    /// nothing sensitive was struck.
    pub fn cell_pofs_for_ray<R: Rng + ?Sized>(
        &self,
        particle: Particle,
        energy: Energy,
        ray: &Ray,
        rng: &mut R,
    ) -> Vec<f64> {
        let mut scratch = StrikeScratch::default();
        self.cell_pofs_with(particle, energy, ray, rng, &mut scratch)
            .to_vec()
    }

    /// [`StrikeSimulator::cell_pofs_for_ray`] through caller-owned
    /// buffers: strikes into `scratch`, scores the first table, and
    /// returns the flip probabilities it leaves there, in ascending cell
    /// order.
    fn cell_pofs_with<'s, R: Rng + ?Sized>(
        &self,
        particle: Particle,
        energy: Energy,
        ray: &Ray,
        rng: &mut R,
        scratch: &'s mut StrikeScratch,
    ) -> &'s [f64] {
        self.strike(particle, energy, ray, rng, scratch);
        self.score(self.lead(), scratch)
    }

    /// Steps 2–3 of an iteration, the table-independent half: traces `ray`
    /// and leaves the struck cells' deposits in `scratch` — collected
    /// charges under `Sampled`, summed Moyal deposits under `Expected`.
    /// Overwrites what the last ray left, also when this one strikes
    /// nothing.
    fn strike<R: Rng + ?Sized>(
        &self,
        particle: Particle,
        energy: Energy,
        ray: &Ray,
        rng: &mut R,
        scratch: &mut StrikeScratch,
    ) {
        let crossings = self.array.trace_into(ray, &mut scratch.trace);
        match self.flip_model {
            FlipModel::Sampled => {
                self.resolve_sampled(particle, energy, crossings, rng, &mut scratch.charges)
            }
            FlipModel::Expected => {
                self.resolve_expected(particle, energy, crossings, &mut scratch.moyal)
            }
        }
    }

    /// Step 4 against one table, the table-dependent half: the flip
    /// probability of each cell [`StrikeSimulator::strike`] left in
    /// `scratch`, in ascending cell order. Clears the previous scoring
    /// first, so a ray that struck nothing scores an empty slice.
    fn score<'s>(&self, table: &ScoredTable<'_>, scratch: &'s mut StrikeScratch) -> &'s [f64] {
        let StrikeScratch {
            charges,
            moyal,
            pofs,
            exceedance,
            ..
        } = scratch;
        pofs.clear();
        match self.flip_model {
            FlipModel::Sampled => charge_pofs(charges, table.pof, pofs),
            FlipModel::Expected => expected_pofs(moyal, &table.exceedance, pofs, exceedance),
        }
        pofs
    }

    /// The paper's literal procedure: one sampled deposit per crossing,
    /// summed per struck cell into `cells`.
    fn resolve_sampled<R: Rng + ?Sized>(
        &self,
        particle: Particle,
        energy: Energy,
        crossings: &[Crossing],
        rng: &mut R,
        cells: &mut CellHits<f64>,
    ) {
        // Step 2-3: pair generation per struck fin, degrading the particle
        // energy as it burrows through successive fins. Every crossing
        // draws, sensitive or not, so the stream stays in step.
        cells.clear();
        let mut energy_left = energy;
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
                *cells.hit(fin.cell, target, || 0.0) +=
                    Charge::from_electrons(pairs as f64).coulombs();
            }
        }
    }

    /// The straggling distribution of each struck cell's deposit, summed
    /// into `cells` as Moyal means and variances for the conditional
    /// expectation of [`expected_pofs`].
    fn resolve_expected(
        &self,
        particle: Particle,
        energy: Energy,
        crossings: &[Crossing],
        cells: &mut CellHits<MoyalSum>,
    ) {
        cells.clear();
        let fins = self.array.fins();
        // Crossings past the last sensitive one only degrade an energy
        // nothing reads, so the walk stops there; a ray with no sensitive
        // crossing strikes no cell and costs no stopping-power evaluation.
        let Some(last) = crossings
            .iter()
            .rposition(|c| fins[c.index].target.is_some())
        else {
            return;
        };
        let mut energy_left = energy;
        for crossing in &crossings[..=last] {
            if energy_left.ev() <= 0.0 {
                break;
            }
            let fin = &fins[crossing.index];
            let params: LandauParams = landau_params(
                self.traversal.stopping(),
                particle,
                energy_left,
                crossing.chord(),
            );
            if let Some(target) = fin.target {
                let hit = cells.hit(fin.cell, target, || MoyalSum {
                    mean_ev: 0.0,
                    var_ev2: 0.0,
                    available: energy_left,
                });
                hit.mean_ev += params.mean.ev();
                hit.var_ev2 += params.scale.ev() * params.scale.ev();
            }
            // Degrade the particle by the mean loss (the fluctuation's
            // effect on downstream fins is second order at nm scales).
            energy_left -= params.mean;
        }
    }

    /// Expected rate of exactly-k-bit upsets per forced-hit particle under
    /// the first table, for `k = 0..=max_k` (the last entry aggregates
    /// `≥ max_k`). Runs `iterations` strikes and averages the exact
    /// per-iteration Poisson-binomial multiplicity distribution.
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
        let mut scratch = StrikeScratch::default();
        let mut acc = vec![0.0; max_k + 1];
        for _ in 0..iterations {
            let ray = self.sample_ray(&mut rng);
            let pofs = self.cell_pofs_with(particle, energy, &ray, &mut rng, &mut scratch);
            let pmf = multiplicity_pmf(pofs);
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
    /// `std::thread::available_parallelism()` workers, and returns one
    /// estimate per table, in the order the simulator was given them.
    ///
    /// Each ray is traced once and scored against every table, so the
    /// tables' estimates come from common rays. RNG streams are derived per
    /// [`MC_CHUNK_ITERATIONS`]-sized logical chunk, not per worker thread,
    /// so the result for a given `seed` is bit-identical regardless of the
    /// host's core count (enforced by a regression test against
    /// [`Self::estimate_with_threads`] at 1 worker), and each table's
    /// estimate is bit-identical to a one-table simulator's.
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
    ) -> Vec<ArrayPofEstimate> {
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
    ) -> Vec<ArrayPofEstimate> {
        assert!(iterations > 0, "need at least one iteration");
        let timer = finrad_observe::span(finrad_observe::keys::STRIKE_ESTIMATE_SECONDS);
        let out = estimate_chunked(
            iterations,
            threads,
            self.tables.len(),
            |chunk, len, accs| {
                let mut rng = Xoshiro256pp::salted_stream(seed, chunk + 1, 0xD6E8_FEB8_6659_FD93);
                let mut scratch = StrikeScratch::default();
                for _ in 0..len {
                    let ray = self.sample_ray(&mut rng);
                    self.strike(particle, energy, &ray, &mut rng, &mut scratch);
                    for (table, acc) in self.tables.iter().zip(accs.iter_mut()) {
                        acc.push(combine_cell_pofs(self.score(table, &mut scratch)));
                    }
                }
                finrad_observe::counter_add(finrad_observe::keys::STRIKE_ITERATIONS, len);
                let counts = scratch.exceedance;
                finrad_observe::counter_add(
                    finrad_observe::keys::STRIKE_EXCEEDANCE_BLOCKS_EXPANDED,
                    counts.blocks_expanded,
                );
                finrad_observe::counter_add(
                    finrad_observe::keys::STRIKE_EXCEEDANCE_TERMS_EXACT,
                    counts.terms_exact,
                );
            },
        );
        let quarantined = out.iter().map(|est| est.quarantined).sum();
        finrad_observe::counter_add(finrad_observe::keys::STRIKE_QUARANTINED, quarantined);
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

/// Conditional expectation over straggling: each cell of `cells`
/// contributes `mean_i P(deposit ≥ Q_crit,i)` under its combo's curve in
/// `exceedance`, pushed onto `pofs` in ascending cell order.
fn expected_pofs(
    cells: &CellHits<MoyalSum>,
    exceedance: &[(StrikeCombo, ExceedanceCurve)],
    pofs: &mut Vec<f64>,
    counts: &mut ExceedanceCounts,
) {
    for hit in cells.iter() {
        let Some((_, curve)) = exceedance.iter().find(|(c, _)| *c == hit.combo) else {
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
            mean: Energy::from_ev(hit.acc.mean_ev),
            scale: Energy::from_ev(hit.acc.var_ev2.sqrt()),
        };
        pofs.push(curve.flip_probability(&params, hit.acc.available, counts));
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
        let lut = EhpLut::tabulate(
            &FinTraversal::paper_default(),
            Particle::Alpha,
            Energy::from_mev(0.5),
            Energy::from_mev(20.0),
            6,
            200,
            21,
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
        let est = sim
            .estimate(Particle::Alpha, Energy::from_mev(2.0), 10_000, 5)
            .remove(0);
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
        // Every forced-hit ray, from `estimate` and from
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
    fn cosine_ray_is_never_horizontal() {
        // All-zero draws: the cosine law's u = 0 gives cos θ = 0 and a
        // direction z of -0.0, which `DirectionLaw::sample` widens to
        // -1e-6 as it does for the isotropic law.
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
        let ray = sim.sample_ray(&mut Scripted(vec![]));
        assert!(ray.direction().z < 0.0, "z = {}", ray.direction().z);
    }

    #[test]
    fn exceedance_early_exit_matches_the_full_loop_bitwise() {
        // A 150-sample variation curve (critical charges spread ±40% about
        // 0.3 fC), against the loop that adds every term, including the
        // exact zeros past `available`. `available` is drawn across the
        // whole threshold range, so many draws cut the loop short.
        let mut rng = Xoshiro256pp::seed_from_u64(0xE4C1);
        let qcrits: Vec<f64> = (0..150)
            .map(|_| 0.3e-15 * rng.gen_range(0.6..1.4))
            .collect();
        let curve = PofCurve::from_critical_charges(qcrits);
        let to_ev =
            |q: f64| q / constants::ELEMENTARY_CHARGE.coulombs() * constants::EHP_PAIR_ENERGY.ev();
        let (lo, hi) = (to_ev(0.15e-15), to_ev(0.5e-15));
        let mut cut_short = 0;
        for _ in 0..20_000 {
            let params = LandauParams {
                mean: Energy::from_ev(rng.gen_range(0.0..hi)),
                scale: Energy::from_ev(rng.gen_range(0.0..0.2 * hi)),
            };
            let available = Energy::from_ev(rng.gen_range(lo..hi));
            let samples = curve.qcrit_samples();
            let mut full = 0.0;
            for &qcrit in samples {
                let threshold = Energy::from_ev(to_ev(qcrit));
                full += deposit_exceedance(&params, threshold, available);
            }
            let full = full / samples.len() as f64;
            let got = expected_flip_probability(&curve, &params, available);
            assert_eq!(got.to_bits(), full.to_bits(), "{params:?} {available:?}");
            cut_short += usize::from(Energy::from_ev(to_ev(samples[149])) > available);
        }
        assert!(
            cut_short > 10_000,
            "only {cut_short} draws exercised the exit"
        );
    }

    /// The exact per-sample sum: the kernel with its blocks taken away.
    fn expected_flip_probability(
        curve: &PofCurve,
        params: &LandauParams,
        available: Energy,
    ) -> f64 {
        let mut exact = ExceedanceCurve::new(curve);
        exact.blocks.clear();
        exact.flip_probability(params, available, &mut ExceedanceCounts::default())
    }

    /// `n` critical charges drawn from N(`mean`, (`rel_sigma`·`mean`)²).
    fn gaussian_qcrits(rng: &mut Xoshiro256pp, n: usize, mean: f64, rel_sigma: f64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let z = finrad_transport::straggling::sample_standard_normal(rng);
                (mean * (1.0 + rel_sigma * z)).max(0.0)
            })
            .collect()
    }

    #[test]
    fn exceedance_kernel_within_eps() {
        // The block kernel against the exact per-sample sum, per call:
        // within 1e-6 relative, exactly 0.0 where the sum is 0, and in
        // [0, 1]. Curves shorter than a block must match bit for bit.
        let mut rng = Xoshiro256pp::seed_from_u64(0x5EED_B10C);
        let q0 = 0.3e-15;
        let q_max = CharacterizeOptions::default().q_search_max;
        let mut saturated = gaussian_qcrits(&mut rng, 110, q0, 0.06);
        saturated.extend([q_max; 40]);
        let mut lowest_two = gaussian_qcrits(&mut rng, 148, 10.0 * q0, 0.05);
        lowest_two.extend([0.2 * q0, 0.21 * q0]);
        let real = CellCharacterizer::new(
            Technology::soi_finfet_14nm(),
            CharacterizeOptions {
                settle: 5.0e-12,
                bisect_rel_tol: 0.05,
                ..CharacterizeOptions::default()
            },
        )
        .characterize_combo(
            Voltage::from_volts(0.7),
            StrikeCombo::single(StrikeTarget::I1),
            Variation::MonteCarlo { samples: 66 },
            17,
        )
        .expect("characterization")
        .qcrit_samples()
        .to_vec();
        let curves = [
            (gaussian_qcrits(&mut rng, 150, q0, 0.05), 3000),
            (gaussian_qcrits(&mut rng, 150, q0, 0.07), 3000),
            (gaussian_qcrits(&mut rng, 1000, q0, 0.06), 600),
            (saturated, 2000),
            (vec![q_max; 150], 1000),
            (gaussian_qcrits(&mut rng, 150, q0, 5e-4), 2000),
            (lowest_two, 2000),
            (real, 2000),
            (vec![q0], 500),
            (vec![q0, 1.1 * q0], 500),
            (vec![0.9 * q0, q0, 1.2 * q0], 500),
        ];
        let to_ev =
            |q: f64| q / constants::ELEMENTARY_CHARGE.coulombs() * constants::EHP_PAIR_ENERGY.ev();
        let mut counts = ExceedanceCounts::default();
        let (mut mid_block, mut deep_tail, mut zero) = (0, 0, 0);
        for (qcrits, draws) in curves {
            let curve = PofCurve::from_critical_charges(qcrits);
            let kernel = ExceedanceCurve::new(&curve);
            let samples = curve.qcrit_samples();
            let (t_lo, t_hi) = (to_ev(samples[0]), to_ev(samples[samples.len() - 1]));
            let t_mid = to_ev(curve.median_qcrit().coulombs());
            for _ in 0..draws {
                // Means up to above the median and scales log-uniform over
                // four decades; a third of the draws put the mean far
                // below the lowest threshold, in the deep tail. `available`
                // lies inside the threshold range half the time.
                let deep = rng.gen_range(0.0..1.0) < 0.3;
                let (mean, decades) = if deep {
                    (t_lo * rng.gen_range(0.0..0.5), -3.0..-1.0)
                } else {
                    (t_mid * rng.gen_range(0.0..1.3), -4.0..0.0)
                };
                let params = LandauParams {
                    mean: Energy::from_ev(mean),
                    scale: Energy::from_ev(t_mid * 10f64.powf(rng.gen_range(decades))),
                };
                let available = if rng.gen_range(0.0..1.0) < 0.5 {
                    Energy::from_ev(rng.gen_range(t_lo..=t_hi))
                } else {
                    Energy::from_ev(2.0 * t_hi)
                };
                let exact = expected_flip_probability(&curve, &params, available);
                let before = counts.blocks_expanded;
                let got = kernel.flip_probability(&params, available, &mut counts);
                let case = format!("n = {} {params:?} {available:?}", samples.len());
                assert!((0.0..=1.0).contains(&got), "{got} outside [0, 1]: {case}");
                if samples.len() < EXCEEDANCE_BLOCK || exact == 0.0 {
                    assert_eq!(got.to_bits(), exact.to_bits(), "{case}");
                }
                assert!(
                    (got - exact).abs() <= 1e-6 * exact,
                    "kernel {got} vs exact {exact}: {case}"
                );
                let expanded = counts.blocks_expanded > before;
                mid_block += usize::from(expanded && available < Energy::from_ev(t_hi));
                deep_tail += usize::from(expanded && exact < 1e-9);
                zero += usize::from(exact == 0.0);
            }
        }
        assert!(counts.blocks_expanded > 20_000, "{counts:?}");
        assert!(counts.terms_exact > 100_000, "{counts:?}");
        assert!(mid_block > 1000, "{mid_block} expanded draws cut a curve");
        assert!(deep_tail > 500, "{deep_tail} expanded deep-tail draws");
        assert!(zero > 100, "{zero} zero sums");
    }

    #[test]
    fn scratch_reuse_matches_fresh_buffers() {
        // The allocating wrappers and one scratch reused across rays must
        // agree bit for bit, in both flip models, on rays that strike
        // several cells and on rays that miss.
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 4, 4, DataPattern::Checkerboard);
        let table = pof_table(0.8);
        for model in [FlipModel::Sampled, FlipModel::Expected] {
            let sim = StrikeSimulator::new(
                &array,
                FinTraversal::paper_default(),
                &table,
                DirectionLaw::IsotropicDown,
                DepositMode::ChordExact,
                model,
                None,
            );
            let mut scratch = StrikeScratch::default();
            let mut rays = Xoshiro256pp::seed_from_u64(3);
            let (mut fresh, mut reused) = (
                Xoshiro256pp::seed_from_u64(4),
                Xoshiro256pp::seed_from_u64(4),
            );
            let mut multi = 0;
            for _ in 0..5000 {
                let ray = sim.sample_ray(&mut rays);
                let e = Energy::from_mev(1.0);
                let want = sim.cell_pofs_for_ray(Particle::Alpha, e, &ray, &mut fresh);
                let got = sim.cell_pofs_with(Particle::Alpha, e, &ray, &mut reused, &mut scratch);
                let bits = |p: &[f64]| p.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(&want), "{model:?} {ray:?}");
                multi += usize::from(want.len() > 1);
            }
            assert!(multi > 0, "{model:?}: no multi-cell ray");
        }
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
        let alpha = sim.estimate(Particle::Alpha, e, 4000, 11).remove(0);
        let proton = sim.estimate(Particle::Proton, e, 4000, 12).remove(0);
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
        let a = sim.estimate(Particle::Alpha, e, 500, 99).remove(0);
        let b = sim.estimate(Particle::Alpha, e, 500, 99).remove(0);
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
        let single = sim
            .estimate_with_threads(Particle::Alpha, e, iters, 77, one)
            .remove(0);
        let multi = sim
            .estimate_with_threads(Particle::Alpha, e, iters, 77, many)
            .remove(0);
        let default = sim.estimate(Particle::Alpha, e, iters, 77).remove(0);
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

    /// `table`'s curves redrawn as `n`-sample variation curves about each
    /// combo's critical charge, with relative spread `rel_sigma`.
    fn variation_table(table: &PofTable, n: usize, rel_sigma: f64, seed: u64) -> PofTable {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let curves = table
            .combos()
            .map(|combo| {
                let q = table.curve(combo).unwrap().median_qcrit().coulombs();
                (
                    combo,
                    PofCurve::from_critical_charges(gaussian_qcrits(&mut rng, n, q, rel_sigma)),
                )
            })
            .collect();
        PofTable::new(table.vdd(), curves)
    }

    /// The bits an estimate's statistics are compared by.
    fn estimate_bits(est: &ArrayPofEstimate) -> Vec<u64> {
        let mut bits = vec![est.total.count(), est.quarantined];
        for stats in [&est.total, &est.seu, &est.mbu] {
            bits.extend([stats.mean(), stats.stddev()].map(f64::to_bits));
        }
        bits
    }

    /// An isotropic-down simulator over `tables`.
    fn simulator<'a>(
        array: &'a MemoryArray,
        tables: &[&'a PofTable],
        deposit: DepositMode,
        model: FlipModel,
        lut: Option<&'a EhpLut>,
    ) -> StrikeSimulator<'a> {
        StrikeSimulator::with_tables(
            array,
            FinTraversal::paper_default(),
            tables,
            DirectionLaw::IsotropicDown,
            deposit,
            model,
            lut,
        )
    }

    #[test]
    fn shared_pass_matches_each_single_table_run_bitwise() {
        // Three tables scored in one pass — a 40-sample variation table
        // (blocked, so `Expected` takes the block expansion), a nominal
        // table and a wide 8-sample variation table (unblocked) — against
        // a one-table run of each, in both flip models and both deposit
        // modes, at 1 and 2 workers. Several chunks of rays, many of
        // which strike nothing right after one that struck a cell.
        let tech = Technology::soi_finfet_14nm();
        let array = MemoryArray::build(&tech, 4, 4, DataPattern::Checkerboard);
        let nominal = pof_table(0.8);
        let variation = variation_table(&nominal, 40, 0.1, 9);
        let wide = variation_table(&nominal, 8, 0.3, 10);
        let tables = [&variation, &nominal, &wide];
        let lut = EhpLut::tabulate(
            &FinTraversal::paper_default(),
            Particle::Alpha,
            Energy::from_mev(0.5),
            Energy::from_mev(20.0),
            6,
            200,
            21,
        );
        let iters = 2 * MC_CHUNK_ITERATIONS + 321;
        let e = Energy::from_mev(2.0);
        let cases = [
            (DepositMode::ChordExact, FlipModel::Expected),
            (DepositMode::ChordExact, FlipModel::Sampled),
            (DepositMode::LutMean, FlipModel::Sampled),
        ];
        for (deposit, model) in cases {
            let lut = (deposit == DepositMode::LutMean).then_some(&lut);
            let shared = simulator(&array, &tables, deposit, model, lut);

            // The lead table's rays: misses right after hits, and blocks
            // expanded under `Expected`.
            let mut rng = Xoshiro256pp::salted_stream(41, 1, 0xD6E8_FEB8_6659_FD93);
            let mut scratch = StrikeScratch::default();
            let (mut struck_before, mut miss_after_hit) = (false, 0);
            for _ in 0..MC_CHUNK_ITERATIONS {
                let ray = shared.sample_ray(&mut rng);
                let pofs = shared.cell_pofs_with(Particle::Alpha, e, &ray, &mut rng, &mut scratch);
                let o = combine_cell_pofs(pofs);
                miss_after_hit += usize::from(struck_before && o.cells_struck == 0);
                struck_before = o.cells_struck > 0;
            }
            assert!(miss_after_hit > 100, "{miss_after_hit} misses after a hit");
            if model == FlipModel::Expected {
                let curves = &shared.tables[0].exceedance;
                assert!(curves.iter().all(|(_, curve)| !curve.blocks.is_empty()));
                assert!(scratch.exceedance.blocks_expanded > 0);
            }

            for threads in [1, 2].map(|n| NonZeroUsize::new(n).unwrap()) {
                let got = shared.estimate_with_threads(Particle::Alpha, e, iters, 41, threads);
                assert_eq!(got.len(), tables.len());
                for (t, (table, est)) in tables.iter().zip(&got).enumerate() {
                    let alone = simulator(&array, &[table], deposit, model, lut)
                        .estimate_with_threads(Particle::Alpha, e, iters, 41, threads);
                    assert_eq!(
                        estimate_bits(est),
                        estimate_bits(&alone[0]),
                        "{deposit:?} {model:?} table {t} at {threads} workers"
                    );
                }
                // The tables are told apart, so a table mixed up with
                // another cannot pass by coincidence.
                assert_ne!(got[0].total.mean(), got[1].total.mean());
                assert_ne!(got[1].total.mean(), got[2].total.mean());
            }
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
        let est = sim.estimate(Particle::Alpha, e, 6000, 34).remove(0);
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
