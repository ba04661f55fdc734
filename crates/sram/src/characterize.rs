//! Critical-charge extraction and POF characterization.
//!
//! The paper's Section 4: "to obtain POF, we consider the threshold voltage
//! variation by performing 1000 MC simulations based on accurate SPICE
//! simulations using the current model described in Section 3.3". Because
//! the cell upset is monotone in injected charge, each Monte-Carlo sample
//! is characterized by its **critical charge** (bracketed on a geometric
//! charge lattice, then refined by an ITP root search over transient
//! simulations); the POF curve is the empirical CDF of those critical
//! charges (see [`crate::pof::PofCurve`]).

use crate::cell::{CellState, SramCell, TransistorRole};
use crate::pof::{PofCurve, PofTable, StrikeCombo};
use crate::scenario::StrikeEvent;
use finrad_finfet::{Technology, VariationModel};
use finrad_numerics::rng::{Rng, Xoshiro256pp};
use finrad_numerics::roots::{itp_from, Endpoint};
use finrad_numerics::NumericsError;
use finrad_spice::analysis::{self, NewtonOptions, TimeStepPlan};
use finrad_spice::sync::lock_recovering;
use finrad_spice::{PulseShape, SpiceError};
use finrad_units::{Charge, Voltage};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Whether (and how) process variation enters the characterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variation {
    /// Nominal devices only: POF degenerates to the 0/1 step the paper
    /// describes for the variation-free case.
    Nominal,
    /// Per-transistor ΔVth Monte Carlo with the given sample count
    /// (the paper uses 1000).
    MonteCarlo {
        /// Number of sampled cells.
        samples: usize,
    },
}

/// Tuning knobs for the characterization transients.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeOptions {
    /// Pulse start time, seconds.
    pub t_start: f64,
    /// Pulse width override, seconds. `None` computes the transit time
    /// τ = L²/(µ_fin·V_dd) from the technology (the paper's Eq. 2).
    pub pulse_width: Option<f64>,
    /// Effective fin mobility used for the Eq. 2 default width, cm²/(V·s).
    pub fin_mobility_cm2: f64,
    /// Settling time simulated after the pulse, seconds.
    pub settle: f64,
    /// Pulse shape (rectangular per the paper; triangular for the
    /// pulse-shape study).
    pub shape: PulseShape,
    /// Upper bound of the critical-charge search, coulombs.
    pub q_search_max: f64,
    /// Relative tolerance of the critical-charge bisection.
    pub bisect_rel_tol: f64,
    /// Newton solver options.
    pub newton: NewtonOptions,
}

impl Default for CharacterizeOptions {
    fn default() -> Self {
        Self {
            t_start: 2.0e-15,
            pulse_width: None,
            fin_mobility_cm2: 300.0,
            settle: 1.0e-11,
            shape: PulseShape::Rectangular,
            q_search_max: 5.0e-14,
            bisect_rel_tol: 0.02,
            newton: NewtonOptions::default(),
        }
    }
}

/// The characterization engine for one technology.
///
/// # Examples
///
/// ```no_run
/// use finrad_finfet::Technology;
/// use finrad_sram::{CellCharacterizer, CharacterizeOptions, StrikeCombo, StrikeTarget, Variation};
/// use finrad_units::Voltage;
///
/// let ch = CellCharacterizer::new(Technology::soi_finfet_14nm(), CharacterizeOptions::default());
/// let q = ch.critical_charge(
///     Voltage::from_volts(0.8),
///     StrikeCombo::single(StrikeTarget::I1),
///     &Default::default(),
/// )?;
/// println!("Qcrit = {} electrons", q.electrons());
/// # Ok::<(), finrad_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CellCharacterizer {
    tech: Technology,
    options: CharacterizeOptions,
    /// Pre-strike DC operating points keyed by `(vdd, deltas)`: the
    /// bracketing/refinement probes of one critical-charge search (~7
    /// for an anchored Monte-Carlo sample, ~16 for a search from the
    /// floor) all share one identical pre-strike state, so it is solved
    /// once and reused. Clones share the cache (`Arc`), so a
    /// characterizer handed to worker threads keeps one map.
    op_cache: Arc<Mutex<HashMap<OpKey, Arc<Vec<f64>>>>>,
}

/// Bottom of the critical-charge lattice, coulombs (~6 electrons): never
/// probed, because no cell flips this low.
const Q_FLOOR: f64 = 1.0e-18;

/// Cache key for a pre-strike operating point: the supply voltage and the
/// six per-transistor ΔVth values (in fixed role order), all as exact
/// f64 bits — two keys are equal iff the circuits are bit-identical.
type OpKey = [u64; 7];

fn op_key(vdd: Voltage, deltas: &HashMap<TransistorRole, Voltage>) -> OpKey {
    let mut key = [0u64; 7];
    key[0] = vdd.volts().to_bits();
    for (slot, role) in TransistorRole::ALL.into_iter().enumerate() {
        let dv = deltas.get(&role).map(|v| v.volts()).unwrap_or(0.0);
        key[slot + 1] = dv.to_bits();
    }
    key
}

/// Maps a root-search failure with no underlying SPICE error (a non-finite
/// margin, a lost bracket, an iteration blow-up) onto the SPICE error type
/// the characterization API reports.
fn numerics_failure(e: &NumericsError) -> SpiceError {
    SpiceError::NoConvergence {
        context: format!("critical-charge search: {e}"),
        iterations: 0,
        last_delta: f64::INFINITY,
        worst_residual: f64::INFINITY,
        rungs: Vec::new(),
    }
}

impl CellCharacterizer {
    /// Creates a characterizer.
    pub fn new(tech: Technology, options: CharacterizeOptions) -> Self {
        Self {
            tech,
            options,
            op_cache: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The technology being characterized.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The options in use.
    pub fn options(&self) -> &CharacterizeOptions {
        &self.options
    }

    /// The pulse width used at `vdd` (explicit override or Eq. 2).
    pub fn pulse_width(&self, vdd: Voltage) -> f64 {
        self.options.pulse_width.unwrap_or_else(|| {
            let l = self.tech.l_gate.meters();
            let mu = self.options.fin_mobility_cm2 * 1.0e-4;
            l * l / (mu * vdd.volts())
        })
    }

    /// Simulates one strike and reports whether the cell flipped.
    ///
    /// `deltas` holds per-transistor threshold shifts (missing roles are
    /// nominal). The cell holds [`CellState::One`]; by symmetry the result
    /// applies to the mirrored strike on a `Zero` cell.
    ///
    /// # Errors
    ///
    /// Propagates transient-analysis failures.
    pub fn simulate_strike(
        &self,
        vdd: Voltage,
        event: &StrikeEvent,
        deltas: &HashMap<TransistorRole, Voltage>,
    ) -> Result<bool, SpiceError> {
        // Flipped ⇔ the decoded state differs from the held `One`, which
        // `decode_state` defines as vq > vqb — i.e. margin ≤ 0.
        Ok(self.strike_margin(vdd, event, deltas)? <= 0.0)
    }

    /// Pre-strike operating point of the (un-struck) cell with the given
    /// ΔVth assignment, served from the per-`(vdd, deltas)` cache.
    ///
    /// On a miss the solve itself is accelerated: variation samples are
    /// warm-started from this `vdd`'s *nominal* operating point. The warm
    /// seed is always the deterministic nominal state — never "whatever
    /// sample solved last" — so same-seed results cannot depend on thread
    /// scheduling.
    fn pre_strike_state(
        &self,
        vdd: Voltage,
        deltas: &HashMap<TransistorRole, Voltage>,
        cell: &SramCell,
        state: CellState,
    ) -> Result<Arc<Vec<f64>>, SpiceError> {
        let key = op_key(vdd, deltas);
        // Cached values are pure solve results, valid even if another
        // thread panicked mid-insert — recover from poisoning rather than
        // propagate it.
        if let Some(hit) = lock_recovering(&self.op_cache).get(&key) {
            finrad_observe::counter_add(finrad_observe::keys::SRAM_DCOP_CACHE_HITS, 1);
            return Ok(hit.clone());
        }
        finrad_observe::counter_add(finrad_observe::keys::SRAM_DCOP_CACHE_MISSES, 1);
        let op = if deltas.is_empty() {
            // Nominal cell: cold solve seeded from the rail-idealized
            // state, which selects the bistable basin.
            analysis::dc_operating_point_from(
                cell.circuit(),
                &self.options.newton,
                &cell.initial_conditions(state),
            )?
        } else {
            // Variation sample: a near-identical circuit, so warm-start
            // from the nominal operating point at this vdd.
            let nominal_cell = SramCell::new(&self.tech, vdd);
            let nominal = self.pre_strike_state(vdd, &HashMap::new(), &nominal_cell, state)?;
            analysis::dc_operating_point_warm(cell.circuit(), &self.options.newton, &nominal)?
        };
        let entry = Arc::new(op.node_voltages().to_vec());
        lock_recovering(&self.op_cache).insert(key, entry.clone());
        Ok(entry)
    }

    /// Simulates one strike and returns the cell's final normalized state
    /// margin `(v_Q − v_QB)/vdd`: positive = held `One`, ≤ 0 = flipped.
    ///
    /// The transient starts from the cached pre-strike operating point and
    /// exits the settle phase early once the margin is provably
    /// stationary: |margin| beyond half the supply with a per-step change
    /// under 1e-3 sustained over 200 fs of simulated time. The window is
    /// time-based (not step-counted) so it is equally meaningful on the
    /// fixed strike grid and on the sparse LTE-adaptive settle samples;
    /// the exit decision depends only on the trajectory, so results stay
    /// deterministic.
    fn strike_margin(
        &self,
        vdd: Voltage,
        event: &StrikeEvent,
        deltas: &HashMap<TransistorRole, Voltage>,
    ) -> Result<f64, SpiceError> {
        let state = CellState::One;
        let mut cell = SramCell::new(&self.tech, vdd);
        for (&role, &dv) in deltas {
            let id = cell.mosfet_id(role);
            let dev = cell.circuit().mosfet(id).with_delta_vth(dv);
            *cell.circuit_mut().mosfet_mut(id) = dev;
        }
        let pre = self.pre_strike_state(vdd, deltas, &cell, state)?;
        event.inject(&mut cell, state);

        let plan = TimeStepPlan::for_pulse(event.t_start, event.width, self.options.settle);
        let fine_span = event.t_start + event.width * 2.0;
        let vdd_v = vdd.volts();
        let (iq, iqb) = (cell.q().index(), cell.qb().index());
        let mut prev_m = f64::NAN;
        let mut prev_t = f64::NAN;
        let mut stable_time = 0.0f64;
        let (res, stopped) = analysis::transient_until(
            cell.circuit(),
            &plan,
            &pre,
            &[cell.q(), cell.qb()],
            &self.options.newton,
            |t, v| {
                // Only the settle tail may be cut short; the pulse window
                // and its immediate aftermath are always simulated.
                if t <= fine_span {
                    return false;
                }
                let m = (v[iq] - v[iqb]) / vdd_v;
                let stationary = m.abs() > 0.5 && (m - prev_m).abs() < 1.0e-3;
                stable_time = if stationary && prev_t.is_finite() {
                    stable_time + (t - prev_t)
                } else {
                    0.0
                };
                prev_m = m;
                prev_t = t;
                stable_time >= 2.0e-13
            },
        )?;
        if stopped {
            finrad_observe::counter_add(finrad_observe::keys::SRAM_SETTLE_EARLY_EXITS, 1);
        }
        let vq = res.final_voltage(cell.q());
        let vqb = res.final_voltage(cell.qb());
        Ok((vq - vqb) / vdd_v)
    }

    /// Whether a strike of total charge `q` on `combo` (split equally)
    /// flips the cell.
    ///
    /// # Errors
    ///
    /// Propagates transient-analysis failures.
    pub fn flips(
        &self,
        vdd: Voltage,
        combo: StrikeCombo,
        q: Charge,
        deltas: &HashMap<TransistorRole, Voltage>,
    ) -> Result<bool, SpiceError> {
        let event = StrikeEvent::with_shape(
            combo.split_charge(q),
            self.options.t_start,
            self.pulse_width(vdd),
            self.options.shape,
        );
        self.simulate_strike(vdd, &event, deltas)
    }

    /// Finds the critical charge of `combo` at `vdd`: a bracketing walk
    /// on the geometric charge lattice `1e-18 C · 1.6^k` (capped at
    /// `q_search_max`) followed by ITP refinement (superlinear, bounded by
    /// bisection's worst case) on the flip margin over `ln q`, reusing the
    /// walk's endpoint evaluations instead of recomputing them.
    ///
    /// A standalone search starts the walk at the lattice's first probe
    /// point, i.e. it scans upward from the floor to the first flip.
    /// Under [`Variation::MonteCarlo`],
    /// [`CellCharacterizer::characterize_combo`] starts every sample's
    /// walk at the nominal cell's first-flip lattice point instead and
    /// steps down (if that point flips) or up (if it does not) to the
    /// same bracket, so each search pays a couple of bracketing
    /// transients rather than ~10 and returns the same bits.
    ///
    /// If even `q_search_max` does not flip the cell, that bound is
    /// returned (a saturated sample: POF stays 0 up to it).
    ///
    /// # Errors
    ///
    /// Propagates transient-analysis failures.
    pub fn critical_charge(
        &self,
        vdd: Voltage,
        combo: StrikeCombo,
        deltas: &HashMap<TransistorRole, Voltage>,
    ) -> Result<Charge, SpiceError> {
        let lattice = self.charge_lattice();
        Ok(self
            .critical_charge_from(vdd, combo, deltas, 1, &lattice)?
            .0)
    }

    /// The probe charges the critical-charge search brackets on:
    /// `lattice[0]` is the floor `Q_FLOOR` (never probed), then each
    /// point is the previous one `× 1.6`, clamped so the last one is
    /// exactly `q_search_max`. The points are the iterated products of an
    /// upward scan from the floor, so a bracket found from any starting
    /// index has bit-identical endpoints.
    fn charge_lattice(&self) -> Vec<f64> {
        let q_max = self.options.q_search_max;
        let mut lattice = vec![Q_FLOOR];
        let mut q = Q_FLOOR;
        while q < q_max {
            q = (q * 1.6).min(q_max);
            lattice.push(q);
        }
        lattice
    }

    /// The critical-charge search of [`CellCharacterizer::critical_charge`]
    /// with its bracketing walk started at lattice index `anchor`
    /// (clamped to the probe points `1..lattice.len()`). Returns the
    /// critical charge and the first-flip index on `lattice` (`1` when
    /// the first probe point already flips, the top index when the
    /// sample is saturated).
    ///
    /// The flip response is not globally monotone: extreme charges can
    /// drive the struck node so far past the rail that the pass gate
    /// turns on from its source side and restores the cell from the
    /// precharged bit line. The search targets the *first* flip
    /// threshold, the physically meaningful critical charge.
    ///
    /// `anchor = 1` is the upward scan from the floor. Any other anchor
    /// gives the scan's bracket, the same two endpoint margins and hence
    /// the same bits, provided every lattice point from the first flip up
    /// to the anchor flips. An anchor at or below the first flip walks up
    /// through exactly the points the scan probes. One above it walks down
    /// through flips, and can only disagree if it starts above a point of
    /// the restore window, which opens at extreme charge, a few lattice
    /// steps above the threshold.
    fn critical_charge_from(
        &self,
        vdd: Voltage,
        combo: StrikeCombo,
        deltas: &HashMap<TransistorRole, Voltage>,
        anchor: usize,
        lattice: &[f64],
    ) -> Result<(Charge, usize), SpiceError> {
        let top = lattice.len() - 1;
        if top == 0 {
            // No probe point above the floor: saturated by construction.
            return Ok((Charge::from_coulombs(self.options.q_search_max), 0));
        }
        let margin =
            |k: usize| self.margin_counted(vdd, combo, Charge::from_coulombs(lattice[k]), deltas);
        // `m <= 0.0` is a flip; a NaN margin counts as "no flip".
        let start = anchor.clamp(1, top);
        let m_start = margin(start)?;
        // The bracket: index `lo` does not flip, `lo + 1` flips.
        let (lo, m_lo, m_hi) = if m_start <= 0.0 {
            // Walk down to the first point that does not flip.
            let (mut hi, mut m_hi) = (start, m_start);
            loop {
                if hi == 1 {
                    // The first probe point already flips: the threshold
                    // is at or below the floor.
                    return Ok((Charge::from_coulombs(lattice[0]), 1));
                }
                let m = margin(hi - 1)?;
                if m <= 0.0 {
                    (hi, m_hi) = (hi - 1, m);
                } else {
                    break (hi - 1, m, m_hi);
                }
            }
        } else {
            // Walk up to the first point that flips.
            let (mut lo, mut m_lo) = (start, m_start);
            loop {
                if lo == top {
                    // Saturated sample: never flipped in the search range.
                    return Ok((Charge::from_coulombs(self.options.q_search_max), top));
                }
                let m = margin(lo + 1)?;
                if m <= 0.0 {
                    break (lo, m_lo, m);
                }
                (lo, m_lo) = (lo + 1, m);
            }
        };
        let (q_lo, q_hi) = (lattice[lo], lattice[lo + 1]);

        // Refine in ln-space, threading the walk's endpoint margins
        // through so neither endpoint transient is re-run. The stop width
        // ln(1 + rel_tol) reproduces the retired criterion
        // `hi/lo ≤ 1 + rel_tol`, and the returned bracket midpoint is the
        // geometric mean the retired search returned.
        let mut err: Option<SpiceError> = None;
        let result = itp_from(
            |x: f64| {
                if err.is_some() {
                    // A previous evaluation failed: poison the search so
                    // it stops immediately with a typed error.
                    return f64::NAN;
                }
                match self.margin_counted(vdd, combo, Charge::from_coulombs(x.exp()), deltas) {
                    Ok(m) => m,
                    Err(e) => {
                        err = Some(e);
                        f64::NAN
                    }
                }
            },
            Endpoint::new(q_lo.ln(), m_lo),
            Endpoint::new(q_hi.ln(), m_hi),
            (1.0 + self.options.bisect_rel_tol).ln(),
            200,
        );
        if let Some(e) = err {
            return Err(e);
        }
        match result {
            Ok(root) => Ok((Charge::from_coulombs(root.x.exp()), lo + 1)),
            // A genuinely non-finite margin (NaN with no underlying SPICE
            // error) or an iteration blow-up: surface it as a typed solver
            // failure instead of a panic or a silent wrong answer.
            Err(e) => Err(numerics_failure(&e)),
        }
    }

    /// Flip margin of one probe charge, plus the bracketing/refinement
    /// transient-evaluation counter (`sram.characterize.bisection_steps`).
    fn margin_counted(
        &self,
        vdd: Voltage,
        combo: StrikeCombo,
        q: Charge,
        deltas: &HashMap<TransistorRole, Voltage>,
    ) -> Result<f64, SpiceError> {
        finrad_observe::counter_add(finrad_observe::keys::SRAM_BISECTION_STEPS, 1);
        let event = StrikeEvent::with_shape(
            combo.split_charge(q),
            self.options.t_start,
            self.pulse_width(vdd),
            self.options.shape,
        );
        self.strike_margin(vdd, &event, deltas)
    }

    /// Draws one per-transistor ΔVth assignment.
    fn sample_deltas<R: Rng + ?Sized>(
        &self,
        var: &VariationModel,
        rng: &mut R,
    ) -> HashMap<TransistorRole, Voltage> {
        TransistorRole::ALL
            .into_iter()
            .map(|role| (role, var.sample_delta_vth(1, rng)))
            .collect()
    }

    /// Characterizes one combo: the POF curve at `vdd`.
    ///
    /// For [`Variation::MonteCarlo`] the samples are distributed across
    /// `std::thread::available_parallelism()` workers with independent
    /// deterministic RNG streams derived from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates the first transient-analysis failure encountered.
    pub fn characterize_combo(
        &self,
        vdd: Voltage,
        combo: StrikeCombo,
        variation: Variation,
        seed: u64,
    ) -> Result<PofCurve, SpiceError> {
        let _combo_timer = finrad_observe::span(finrad_observe::keys::SRAM_COMBO_SECONDS);
        finrad_observe::counter_add(finrad_observe::keys::SRAM_COMBOS, 1);
        match variation {
            Variation::Nominal => {
                let q = self.critical_charge(vdd, combo, &HashMap::new())?;
                Ok(PofCurve::from_critical_charges(vec![q.coulombs()]))
            }
            Variation::MonteCarlo { samples } => {
                assert!(samples > 0, "need at least one MC sample");
                let var = VariationModel::pelgrom(&self.tech);
                let n_threads = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .min(samples);
                let chunk = samples.div_ceil(n_threads);
                let lattice = self.charge_lattice();
                // One nominal search before the workers spawn: its
                // first-flip index anchors every sample's bracketing
                // walk, independent of thread chunking, and it caches
                // the nominal pre-strike state before any worker could
                // race to solve it.
                let (_, anchor) =
                    self.critical_charge_from(vdd, combo, &HashMap::new(), 1, &lattice)?;
                let results: Vec<Result<Vec<f64>, SpiceError>> = std::thread::scope(|scope| {
                    let mut handles = Vec::new();
                    for t in 0..n_threads {
                        let start = t * chunk;
                        let end = ((t + 1) * chunk).min(samples);
                        if start >= end {
                            break;
                        }
                        let var = &var;
                        let lattice = &lattice;
                        let this = &self;
                        handles.push(scope.spawn(move || {
                            let mut out = Vec::with_capacity(end - start);
                            for i in start..end {
                                // Each sample draws from its own salted
                                // stream, so its ΔVth values do not depend
                                // on how samples are split across workers.
                                let mut rng = Xoshiro256pp::salted_stream(
                                    seed,
                                    i as u64,
                                    0x9E37_79B9_7F4A_7C15,
                                );
                                let deltas = this.sample_deltas(var, &mut rng);
                                let (q, _) = this
                                    .critical_charge_from(vdd, combo, &deltas, anchor, lattice)?;
                                out.push(q.coulombs());
                            }
                            Ok(out)
                        }));
                    }
                    handles
                        .into_iter()
                        .map(|h| match h.join() {
                            Ok(r) => r,
                            // Forward the worker's own panic payload instead
                            // of replacing it with a generic message.
                            Err(payload) => std::panic::resume_unwind(payload),
                        })
                        .collect()
                });
                let mut qs = Vec::with_capacity(samples);
                for r in results {
                    qs.extend(r?);
                }
                Ok(PofCurve::from_critical_charges(qs))
            }
        }
    }

    /// Builds the full POF table at `vdd`: all seven strike combinations.
    ///
    /// # Errors
    ///
    /// Propagates the first transient-analysis failure encountered.
    pub fn build_table(
        &self,
        vdd: Voltage,
        variation: Variation,
        seed: u64,
    ) -> Result<PofTable, SpiceError> {
        let mut curves = BTreeMap::new();
        for (k, combo) in StrikeCombo::all().into_iter().enumerate() {
            let curve =
                self.characterize_combo(vdd, combo, variation, seed.wrapping_add(k as u64))?;
            curves.insert(combo, curve);
        }
        Ok(PofTable::new(vdd, curves))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::StrikeTarget;

    fn characterizer() -> CellCharacterizer {
        CellCharacterizer::new(
            Technology::soi_finfet_14nm(),
            CharacterizeOptions {
                // Coarser settle for debug-mode test speed; flips settle
                // well within 5 ps.
                settle: 5.0e-12,
                bisect_rel_tol: 0.05,
                ..CharacterizeOptions::default()
            },
        )
    }

    #[test]
    fn pulse_width_follows_eq2() {
        let ch = characterizer();
        let w1 = ch.pulse_width(Voltage::from_volts(1.0));
        let w07 = ch.pulse_width(Voltage::from_volts(0.7));
        // tau = L^2/(mu Vds): > 10 fs at 1 V, scaling as 1/Vdd.
        assert!(w1 > 1.0e-14, "tau {w1}");
        assert!((w07 / w1 - 1.0 / 0.7).abs() < 1e-9);
        let ch2 = CellCharacterizer::new(
            Technology::soi_finfet_14nm(),
            CharacterizeOptions {
                pulse_width: Some(5.0e-15),
                ..CharacterizeOptions::default()
            },
        );
        assert_eq!(ch2.pulse_width(Voltage::from_volts(0.8)), 5.0e-15);
    }

    #[test]
    fn tiny_charge_does_not_flip_above_threshold_does() {
        let ch = characterizer();
        let vdd = Voltage::from_volts(0.8);
        let combo = StrikeCombo::single(StrikeTarget::I1);
        let none = HashMap::new();
        assert!(!ch
            .flips(vdd, combo, Charge::from_electrons(5.0), &none)
            .unwrap());
        // Moderately above the ~0.15 fC critical charge: flips. (Extreme
        // charges can *restore* the cell through the source-side-on pass
        // gate — see critical_charge — so "huge" is not the right probe.)
        assert!(ch.flips(vdd, combo, Charge::from_fc(0.25), &none).unwrap());
    }

    #[test]
    fn critical_charge_is_sram_scale() {
        let ch = characterizer();
        let q = ch
            .critical_charge(
                Voltage::from_volts(0.8),
                StrikeCombo::single(StrikeTarget::I1),
                &HashMap::new(),
            )
            .unwrap();
        // 14 nm SRAM critical charge: order 0.01-1 fC.
        let fc = q.femtocoulombs();
        assert!((0.005..2.0).contains(&fc), "Qcrit {fc} fC");
    }

    #[test]
    fn critical_charge_decreases_with_vdd() {
        // The root cause of the paper's "SER is higher at lower supply
        // voltages" (Fig. 9).
        let ch = characterizer();
        let combo = StrikeCombo::single(StrikeTarget::I1);
        let none = HashMap::new();
        let q_07 = ch
            .critical_charge(Voltage::from_volts(0.7), combo, &none)
            .unwrap();
        let q_10 = ch
            .critical_charge(Voltage::from_volts(1.0), combo, &none)
            .unwrap();
        assert!(
            q_07.coulombs() < q_10.coulombs(),
            "Qcrit(0.7V) = {} fC should be below Qcrit(1.0V) = {} fC",
            q_07.femtocoulombs(),
            q_10.femtocoulombs()
        );
    }

    #[test]
    fn combined_strike_flips_easier_than_single() {
        let ch = characterizer();
        let vdd = Voltage::from_volts(0.8);
        let none = HashMap::new();
        let q_single = ch
            .critical_charge(vdd, StrikeCombo::single(StrikeTarget::I2), &none)
            .unwrap();
        let q_all = ch
            .critical_charge(vdd, StrikeCombo::new(&StrikeTarget::ALL), &none)
            .unwrap();
        // The three-way strike attacks both nodes at once; per-target charge
        // is a third, but the combined disturbance should not need more
        // than ~2x the single-target total charge (and typically less).
        assert!(
            q_all.coulombs() < 2.0 * q_single.coulombs(),
            "q_all {} vs q_single {}",
            q_all.femtocoulombs(),
            q_single.femtocoulombs()
        );
    }

    #[test]
    fn nominal_curve_is_step() {
        let ch = characterizer();
        let curve = ch
            .characterize_combo(
                Voltage::from_volts(0.8),
                StrikeCombo::single(StrikeTarget::I1),
                Variation::Nominal,
                1,
            )
            .unwrap();
        assert_eq!(curve.sample_count(), 1);
        let qc = curve.median_qcrit();
        assert_eq!(curve.pof(qc * 0.9), 0.0);
        assert_eq!(curve.pof(qc * 1.1), 1.0);
    }

    #[test]
    fn variation_curve_spreads_around_nominal() {
        let ch = characterizer();
        let vdd = Voltage::from_volts(0.8);
        let combo = StrikeCombo::single(StrikeTarget::I1);
        let nominal = ch
            .characterize_combo(vdd, combo, Variation::Nominal, 1)
            .unwrap();
        let mc = ch
            .characterize_combo(vdd, combo, Variation::MonteCarlo { samples: 12 }, 2)
            .unwrap();
        assert_eq!(mc.sample_count(), 12);
        // The MC minimum is (weakly) below the nominal Qcrit and the max
        // above — variation spreads the distribution.
        let q_nom = nominal.median_qcrit().coulombs();
        assert!(
            mc.min_qcrit().coulombs() < q_nom * 1.05,
            "mc min {} vs nominal {}",
            mc.min_qcrit().coulombs(),
            q_nom
        );
        // POF transitions over a band rather than a step: at nominal Qcrit
        // it is strictly between 0 and 1 for a healthy sigma.
        let p = mc.pof(Charge::from_coulombs(q_nom));
        assert!(p > 0.0 && p < 1.0, "pof at nominal {p}");
    }

    /// The geometric bisection this PR retired, kept here verbatim as the
    /// golden reference: scan up by ×1.6 to bracket the first flip, then
    /// halve the bracket in log-space to `bisect_rel_tol`.
    fn retired_geometric_bisection(
        ch: &CellCharacterizer,
        vdd: Voltage,
        combo: StrikeCombo,
        deltas: &HashMap<TransistorRole, Voltage>,
    ) -> Charge {
        let q_floor = 1.0e-18;
        let mut lo = q_floor;
        let mut hi = lo;
        let mut bracketed = false;
        while hi < ch.options().q_search_max {
            hi = (hi * 1.6).min(ch.options().q_search_max);
            if ch
                .flips(vdd, combo, Charge::from_coulombs(hi), deltas)
                .unwrap()
            {
                bracketed = true;
                break;
            }
            lo = hi;
        }
        if !bracketed {
            return Charge::from_coulombs(ch.options().q_search_max);
        }
        if lo <= q_floor {
            return Charge::from_coulombs(lo);
        }
        while hi / lo > 1.0 + ch.options().bisect_rel_tol {
            let mid = (lo * hi).sqrt();
            if ch
                .flips(vdd, combo, Charge::from_coulombs(mid), deltas)
                .unwrap()
            {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Charge::from_coulombs((lo * hi).sqrt())
    }

    #[test]
    fn golden_itp_matches_retired_bisection_within_tolerance() {
        // Satellite guarantee of this PR: the ITP-based search returns a
        // critical charge within `bisect_rel_tol` of the retired geometric
        // bisection, nominal and under variation alike.
        let ch = characterizer();
        let vdd = Voltage::from_volts(0.8);
        let tol = ch.options().bisect_rel_tol;
        let mut rng = Xoshiro256pp::salted_stream(7, 0, 0x9E37_79B9_7F4A_7C15);
        let var = VariationModel::pelgrom(ch.technology());
        let cases: Vec<(StrikeCombo, HashMap<TransistorRole, Voltage>)> = vec![
            (StrikeCombo::single(StrikeTarget::I1), HashMap::new()),
            (StrikeCombo::new(&StrikeTarget::ALL), HashMap::new()),
            (
                StrikeCombo::single(StrikeTarget::I1),
                ch.sample_deltas(&var, &mut rng),
            ),
        ];
        for (combo, deltas) in cases {
            let golden = retired_geometric_bisection(&ch, vdd, combo, &deltas);
            let new = ch.critical_charge(vdd, combo, &deltas).unwrap();
            let ratio = new.coulombs() / golden.coulombs();
            assert!(
                (1.0 - tol..=1.0 + tol).contains(&ratio),
                "{combo:?}: itp {} fC vs retired {} fC (ratio {ratio})",
                new.femtocoulombs(),
                golden.femtocoulombs()
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        // Two fresh characterizers: a shared one would answer every DC
        // solve of the second call from its operating-point cache.
        let vdd = Voltage::from_volts(0.8);
        let combo = StrikeCombo::single(StrikeTarget::I3);
        let run = || {
            characterizer()
                .characterize_combo(vdd, combo, Variation::MonteCarlo { samples: 6 }, 42)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
    }

    /// FNV-1a 64 over the little-endian bytes of each value's `to_bits`.
    fn fnv1a64_bits(xs: &[f64]) -> u64 {
        xs.iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn golden_variation_qcrit_bits() {
        // Every sorted per-sample critical charge of a variation-MC table,
        // pinned by a `to_bits` hash per (vdd, combo). The pins were taken
        // while the sample loop still ran in 32-sample blocks with batched
        // warm seeding; 66 samples give each of one or two workers at
        // least one full block and a remainder. Built on a fresh
        // characterizer so no other test's cached operating points feed
        // the solves.
        const GOLDEN: [[u64; 7]; 2] = [
            [
                0x4818_eaba_3a04_5db6,
                0xb53a_1d34_4ad1_c7ad,
                0xca7d_e102_14b4_1764,
                0x9e94_69b2_42e1_903d,
                0xd7ec_3eee_2c8d_cdf3,
                0x29be_79ce_04c4_650d,
                0x8e21_5815_0e2d_1331,
            ],
            [
                0x5fc1_a9be_b27b_56b6,
                0x72ab_e7f3_4d8e_2092,
                0xf3c4_ff2b_de22_b54b,
                0x41e4_c8e8_5f3f_c519,
                0x3432_f25c_fbe3_156a,
                0x22c7_8c09_5227_0f42,
                0x3c7c_598e_97ca_57ee,
            ],
        ];
        let ch = characterizer();
        let mut got = [[0u64; 7]; 2];
        for (row, volts) in got.iter_mut().zip([0.7, 1.1]) {
            let table = ch
                .build_table(
                    Voltage::from_volts(volts),
                    Variation::MonteCarlo { samples: 66 },
                    17,
                )
                .unwrap();
            for (slot, combo) in row.iter_mut().zip(StrikeCombo::all()) {
                let curve = table.curve(combo).unwrap();
                assert_eq!(curve.sample_count(), 66);
                *slot = fnv1a64_bits(curve.qcrit_samples());
            }
        }
        assert_eq!(got, GOLDEN, "got {got:#018x?}");
    }

    /// The upward scan from the floor that the anchored walk replaced,
    /// kept verbatim as the golden reference: scan up by ×1.6 to the
    /// first flip, then ITP on the scan's endpoint margins. Also returns
    /// the number of scan probes, i.e. the first-flip lattice index.
    fn upward_scan_reference(
        ch: &CellCharacterizer,
        vdd: Voltage,
        combo: StrikeCombo,
        deltas: &HashMap<TransistorRole, Voltage>,
    ) -> (Charge, usize) {
        let margin = |q: f64| {
            ch.margin_counted(vdd, combo, Charge::from_coulombs(q), deltas)
                .unwrap()
        };
        let q_floor = 1.0e-18;
        let mut lo = q_floor;
        let mut m_lo: Option<f64> = None;
        let mut hi = lo;
        let mut bracket = None;
        let mut probes = 0;
        while hi < ch.options().q_search_max {
            hi = (hi * 1.6).min(ch.options().q_search_max);
            probes += 1;
            let m = margin(hi);
            if m <= 0.0 {
                bracket = Some(m);
                break;
            }
            lo = hi;
            m_lo = Some(m);
        }
        let Some(m_hi) = bracket else {
            return (Charge::from_coulombs(ch.options().q_search_max), probes);
        };
        let Some(m_lo) = m_lo else {
            return (Charge::from_coulombs(lo), probes);
        };
        let root = itp_from(
            |x: f64| margin(x.exp()),
            Endpoint::new(lo.ln(), m_lo),
            Endpoint::new(hi.ln(), m_hi),
            (1.0 + ch.options().bisect_rel_tol).ln(),
            200,
        )
        .unwrap();
        (Charge::from_coulombs(root.x.exp()), probes)
    }

    /// Runs 16 variation samples of every combo at `vdd` through the
    /// anchored walk and checks each against [`upward_scan_reference`].
    fn check_anchors_against_scan(ch: &CellCharacterizer, vdd: Voltage) {
        let var = VariationModel::pelgrom(ch.technology());
        let lattice = ch.charge_lattice();
        let top = lattice.len() - 1;
        for (c, combo) in StrikeCombo::all().into_iter().enumerate() {
            let (_, nominal) = ch
                .critical_charge_from(vdd, combo, &HashMap::new(), 1, &lattice)
                .unwrap();
            for i in 0..16u64 {
                let mut rng = Xoshiro256pp::salted_stream(c as u64, i, 0x9E37_79B9_7F4A_7C15);
                let deltas = ch.sample_deltas(&var, &mut rng);
                let (golden, first_flip) = upward_scan_reference(ch, vdd, combo, &deltas);
                let flips_at = |j: usize| {
                    let q = Charge::from_coulombs(lattice[j]);
                    ch.margin_counted(vdd, combo, q, &deltas).unwrap() <= 0.0
                };
                for anchor in [nominal, 1, nominal.saturating_sub(3), nominal + 3, top] {
                    let (q, k) = ch
                        .critical_charge_from(vdd, combo, &deltas, anchor, &lattice)
                        .unwrap();
                    let in_contract = anchor == nominal
                        || anchor <= first_flip
                        || (first_flip..=anchor).all(flips_at);
                    if in_contract {
                        assert_eq!(
                            (q.coulombs().to_bits(), k),
                            (golden.coulombs().to_bits(), first_flip),
                            "{vdd:?} {combo:?} sample {i} anchor {anchor}: {} fC vs scan {} fC",
                            q.femtocoulombs(),
                            golden.femtocoulombs()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn anchored_walk_matches_upward_scan_bitwise() {
        // Both ends of the Vdd range, from the production anchor (the
        // nominal first flip) and from anchors 1, nominal ± 3 and the top
        // of the lattice. Anchors at or below the sample's first flip must
        // reproduce the scan's bits, and so must the production anchor.
        // An anchor above the first flip must too, unless some lattice
        // point between them does not flip: the restore window the walk's
        // contract excludes.
        let ch = characterizer();
        std::thread::scope(|scope| {
            for volts in [0.7, 1.1] {
                let ch = &ch;
                scope.spawn(move || check_anchors_against_scan(ch, Voltage::from_volts(volts)));
            }
        });
    }

    #[test]
    fn anchored_walk_saturates_and_floors_like_the_scan() {
        let combo = StrikeCombo::single(StrikeTarget::I1);
        let vdd = Voltage::from_volts(0.7);
        // Forced saturation: no charge up to ~60 electrons flips the cell.
        let tiny = CellCharacterizer::new(
            Technology::soi_finfet_14nm(),
            CharacterizeOptions {
                q_search_max: 1.0e-17,
                ..characterizer().options().clone()
            },
        );
        let lattice = tiny.charge_lattice();
        let top = lattice.len() - 1;
        assert_eq!(lattice[top], 1.0e-17);
        let none = HashMap::new();
        let (golden, _) = upward_scan_reference(&tiny, vdd, combo, &none);
        assert_eq!(golden.coulombs(), 1.0e-17);
        for anchor in 1..=top {
            let (q, k) = tiny
                .critical_charge_from(vdd, combo, &none, anchor, &lattice)
                .unwrap();
            assert_eq!(
                (q.coulombs().to_bits(), k),
                (golden.coulombs().to_bits(), top)
            );
        }

        // A cell skewed so far towards `Zero` that it does not hold `One`:
        // the first probe point already flips, and every anchor walks down
        // to the floor.
        let ch = characterizer();
        let lattice = ch.charge_lattice();
        let skew = |dv: f64| Voltage::from_volts(dv);
        let deltas: HashMap<_, _> = [
            (TransistorRole::PullUpLeft, skew(0.3)),
            (TransistorRole::PullDownLeft, skew(-0.3)),
            (TransistorRole::PullDownRight, skew(0.3)),
            (TransistorRole::PullUpRight, skew(-0.3)),
        ]
        .into_iter()
        .collect();
        let (golden, first_flip) = upward_scan_reference(&ch, vdd, combo, &deltas);
        assert_eq!((golden.coulombs(), first_flip), (Q_FLOOR, 1));
        for anchor in [1, 4, 10, lattice.len() - 1] {
            let (q, k) = ch
                .critical_charge_from(vdd, combo, &deltas, anchor, &lattice)
                .unwrap();
            assert_eq!((q.coulombs().to_bits(), k), (Q_FLOOR.to_bits(), 1));
        }
    }
}
