//! Critical-charge extraction and POF characterization.
//!
//! The paper's Section 4: "to obtain POF, we consider the threshold voltage
//! variation by performing 1000 MC simulations based on accurate SPICE
//! simulations using the current model described in Section 3.3". Because
//! the cell upset is monotone in injected charge up to the first threshold,
//! each Monte-Carlo sample is characterized by its **critical charge**; the
//! POF curve is the empirical CDF of those critical charges (see
//! [`crate::pof::PofCurve`]).
//!
//! Two searches find it, both to the same `hi/lo ≤ 1 + bisect_rel_tol`
//! bracket:
//!
//! - the **lattice search** brackets the first flip on a geometric ×1.6
//!   charge lattice, then refines the bracket by an ITP root search over
//!   transient simulations. Nominal cells and standalone searches use it.
//! - the **fine walk** serves every variation sample: it steps on a
//!   lattice of ratio `1 + bisect_rel_tol` centred on a predicted
//!   threshold until a no-flip/flip pair is verified, typically two
//!   transients. The first 16 (pilot) samples of a table centre it on the
//!   nominal cell's critical charge; a least-squares fit of ln Q_crit on
//!   the six ΔVth over the pilot samples centres every later one. A sample
//!   whose walk cannot close its bracket near its centre falls back to the
//!   lattice search.
//!
//! Every transient of one cell starts from that cell's pre-strike
//! operating point, solved once: [`CellCharacterizer::build_table`]
//! solves the nominal cell once per table, and each variation sample
//! warm-starts its own solve from that nominal state. Each transient reads
//! only the flip verdict, so it stops as soon as the verdict is decided
//! (see [`CellCharacterizer::flips`]).

use crate::cell::{CellState, SramCell, TransistorRole};
use crate::pof::{PofCurve, PofTable, StrikeCombo};
use crate::scenario::StrikeEvent;
use finrad_finfet::{Technology, VariationModel};
use finrad_numerics::matrix::{self, Matrix};
use finrad_numerics::par;
use finrad_numerics::rng::{Rng, Xoshiro256pp};
use finrad_numerics::roots::{itp_from, Endpoint};
use finrad_numerics::NumericsError;
use finrad_spice::analysis::{self, NewtonOptions, TimeStepPlan};
use finrad_spice::cancel;
use finrad_spice::{PulseShape, SpiceError};
use finrad_units::{Charge, Voltage};
use std::collections::{BTreeMap, HashMap};
use std::num::NonZeroUsize;

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
/// A characterizer holds no state between calls: each public entry point
/// solves the pre-strike operating points it needs (the nominal cell's,
/// plus the sample's for a ΔVth assignment) and shares them across the
/// transients of that call only.
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
}

/// Bottom of the critical-charge lattice, coulombs (~6 electrons): never
/// probed, because no cell flips this low.
const Q_FLOOR: f64 = 1.0e-18;

/// Variation samples per table whose fine walk centres on the nominal
/// critical charge and which feed the surrogate fit; tables of at most
/// this many samples never use the fit.
const PILOT: usize = 16;

/// Fewest usable (neither saturated nor floored) pilot samples the
/// surrogate fit accepts: seven coefficients plus a few degrees of freedom.
const MIN_FIT_SAMPLES: usize = 10;

/// Most lattice moves the fine walk makes past its first probe before the
/// sample falls back to the lattice search: ±~12% at the default 2%
/// tolerance, far below the restore window several ×1.6 steps above the
/// threshold.
const MAX_FINE_STEPS: usize = 6;

/// How close to a rail (0 or Vdd) both storage nodes must be for a strike
/// transient's verdict to count as decided, volts.
const RAIL_BAND: f64 = 0.05;

/// Salt of the per-sample ΔVth streams.
const SAMPLE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The six per-transistor ΔVth values in [`TransistorRole::ALL`] order,
/// volts (missing roles are nominal).
fn role_deltas(deltas: &HashMap<TransistorRole, Voltage>) -> [f64; 6] {
    TransistorRole::ALL.map(|role| deltas.get(&role).map(|v| v.volts()).unwrap_or(0.0))
}

/// One cell's strike probe: the held-`One` cell at `vdd` with a ΔVth
/// assignment applied, and its pre-strike operating point, solved once.
/// Every transient of a critical-charge search on that cell (~2 for a
/// fine-walk sample, ~7 for an anchored lattice search, ~16 for a search
/// from the floor) starts from that state.
struct StrikeProbe<'a> {
    ch: &'a CellCharacterizer,
    vdd: Voltage,
    /// The un-struck cell.
    cell: SramCell,
    /// Its pre-strike node voltages.
    pre: Vec<f64>,
    /// Whether a transient has started from `pre` yet.
    used: bool,
}

impl<'a> StrikeProbe<'a> {
    /// The nominal cell's probe: a cold solve seeded from the
    /// rail-idealized state, which selects the bistable basin.
    fn nominal(ch: &'a CellCharacterizer, vdd: Voltage) -> Result<Self, SpiceError> {
        let cell = SramCell::new(&ch.tech, vdd);
        finrad_observe::counter_add(finrad_observe::keys::SRAM_DCOP_CACHE_MISSES, 1);
        let op = analysis::dc_operating_point_from(
            cell.circuit(),
            &ch.options.newton,
            &cell.initial_conditions(CellState::One),
        )?;
        Ok(Self::solved(ch, vdd, cell, op.node_voltages()))
    }

    /// A variation sample's probe: this probe's cell with `deltas` applied,
    /// solved warm from this probe's state. A near-identical circuit, so
    /// the warm start saves Newton iterations; the seed is always the
    /// deterministic nominal state, never "whatever sample solved last",
    /// so results cannot depend on thread scheduling. An empty assignment
    /// is the nominal cell itself and needs no solve.
    fn with_deltas(&self, deltas: &HashMap<TransistorRole, Voltage>) -> Result<Self, SpiceError> {
        let mut cell = self.cell.clone();
        if deltas.is_empty() {
            return Ok(Self::solved(self.ch, self.vdd, cell, &self.pre));
        }
        for (&role, &dv) in deltas {
            let id = cell.mosfet_id(role);
            let dev = cell.circuit().mosfet(id).with_delta_vth(dv);
            *cell.circuit_mut().mosfet_mut(id) = dev;
        }
        finrad_observe::counter_add(finrad_observe::keys::SRAM_DCOP_CACHE_MISSES, 1);
        let op =
            analysis::dc_operating_point_warm(cell.circuit(), &self.ch.options.newton, &self.pre)?;
        Ok(Self::solved(self.ch, self.vdd, cell, op.node_voltages()))
    }

    fn solved(ch: &'a CellCharacterizer, vdd: Voltage, cell: SramCell, pre: &[f64]) -> Self {
        Self {
            ch,
            vdd,
            cell,
            pre: pre.to_vec(),
            used: false,
        }
    }

    /// Simulates `event` and returns the cell's normalized state margin
    /// `(v_Q − v_QB)/vdd` at the decision (positive = held `One`, ≤ 0 =
    /// flipped), and whether the verdict was decided before the horizon.
    ///
    /// The transient starts from the pre-strike state. After the pulse
    /// window and its immediate aftermath (`t_start + 2 × width`), it
    /// stops at the first accepted step where the verdict is decided:
    /// |margin| > ½ with both Q and QB within [`RAIL_BAND`] of a rail. The
    /// returned margin is the margin at that step, not the settled one;
    /// only its sign is the verdict. A cell parked near its saddle
    /// (|margin| ≈ 0) never meets the rule and runs to the horizon. The
    /// decision depends only on the trajectory, so results stay
    /// deterministic.
    fn strike(&mut self, event: &StrikeEvent) -> Result<(f64, bool), SpiceError> {
        if self.used {
            finrad_observe::counter_add(finrad_observe::keys::SRAM_DCOP_CACHE_HITS, 1);
        }
        self.used = true;
        let mut cell = self.cell.clone();
        event.inject(&mut cell, CellState::One);
        let plan = TimeStepPlan::for_pulse(event.t_start, event.width, self.ch.options.settle);
        let fine_span = event.t_start + event.width * 2.0;
        let vdd_v = self.vdd.volts();
        let (iq, iqb) = (cell.q().index(), cell.qb().index());
        let at_rail = |x: f64| x.abs().min((x - vdd_v).abs()) < RAIL_BAND;
        let (res, decided) = analysis::transient_until(
            cell.circuit(),
            &plan,
            &self.pre,
            &[cell.q(), cell.qb()],
            &self.ch.options.newton,
            |t, v| {
                t > fine_span
                    && ((v[iq] - v[iqb]) / vdd_v).abs() > 0.5
                    && at_rail(v[iq])
                    && at_rail(v[iqb])
            },
        )?;
        if decided {
            finrad_observe::counter_add(finrad_observe::keys::SRAM_SETTLE_EARLY_EXITS, 1);
        }
        let vq = res.final_voltage(cell.q());
        let vqb = res.final_voltage(cell.qb());
        Ok(((vq - vqb) / vdd_v, decided))
    }

    /// Flip margin of a strike of total charge `q` on `combo`, plus the
    /// bracketing/refinement transient-evaluation counter
    /// (`sram.characterize.bisection_steps`).
    fn margin(&mut self, combo: StrikeCombo, q: Charge) -> Result<f64, SpiceError> {
        finrad_observe::counter_add(finrad_observe::keys::SRAM_BISECTION_STEPS, 1);
        let event = self.ch.strike_event(self.vdd, combo, q);
        Ok(self.strike(&event)?.0)
    }
}

/// A linear surrogate of ln Q_crit in the six ΔVth, least-squares fitted
/// to the pilot samples of one combo: it centres each later sample's fine
/// walk next to its threshold.
struct QcritSurrogate {
    /// Intercept, then one slope per [`TransistorRole::ALL`] entry.
    coef: Vec<f64>,
}

impl QcritSurrogate {
    /// Fits ln Q on `[1, ΔVth…]` over the `(deltas, Q_crit)` pilot samples
    /// that are neither saturated (`q_max`) nor at the floor, accumulating
    /// the normal equations in index order. `None` if fewer than
    /// [`MIN_FIT_SAMPLES`] are usable or the system is singular.
    fn fit<'a>(
        pilot: impl IntoIterator<Item = (&'a HashMap<TransistorRole, Voltage>, f64)>,
        q_max: f64,
    ) -> Option<Self> {
        const N: usize = 7;
        let mut ata = Matrix::zeros(N, N);
        let mut aty = [0.0; N];
        let mut usable = 0;
        for (deltas, q) in pilot {
            if !(q > Q_FLOOR && q < q_max) {
                continue;
            }
            usable += 1;
            let y = q.ln();
            let phi = Self::features(deltas);
            for (r, (&pr, acc)) in phi.iter().zip(&mut aty).enumerate() {
                *acc += pr * y;
                for (c, &pc) in phi.iter().enumerate() {
                    ata.add_at(r, c, pr * pc);
                }
            }
        }
        if usable < MIN_FIT_SAMPLES {
            return None;
        }
        let coef = matrix::solve(ata, &aty).ok()?;
        coef.iter().all(|c| c.is_finite()).then_some(Self { coef })
    }

    /// `[1, ΔVth of TransistorRole::ALL…]`, volts.
    fn features(deltas: &HashMap<TransistorRole, Voltage>) -> [f64; 7] {
        let mut phi = [1.0; 7];
        phi[1..].copy_from_slice(&role_deltas(deltas));
        phi
    }

    /// The predicted ln Q_crit (Q in coulombs) of one sample.
    fn predict_ln(&self, deltas: &HashMap<TransistorRole, Voltage>) -> f64 {
        Self::features(deltas)
            .iter()
            .zip(&self.coef)
            .map(|(p, c)| p * c)
            .sum()
    }
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
        Self { tech, options }
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

    /// The strike event of total charge `q` on `combo` (split equally)
    /// at `vdd`, with the configured start, Eq. 2 width and shape.
    fn strike_event(&self, vdd: Voltage, combo: StrikeCombo, q: Charge) -> StrikeEvent {
        StrikeEvent::with_shape(
            combo.split_charge(q),
            self.options.t_start,
            self.pulse_width(vdd),
            self.options.shape,
        )
    }

    /// Whether a strike of total charge `q` on `combo` (split equally)
    /// flips the cell.
    ///
    /// `deltas` holds per-transistor threshold shifts (missing roles are
    /// nominal). The cell holds [`CellState::One`]; by symmetry the result
    /// applies to the mirrored strike on a `Zero` cell.
    ///
    /// The transient stops once the verdict is decided: after the pulse
    /// window, the normalized margin `(v_Q − v_QB)/vdd` exceeds ½ in
    /// magnitude with both storage nodes within 50 mV of a rail. A cell
    /// parked near its saddle never meets that rule and is simulated over
    /// the full settle.
    ///
    /// # Errors
    ///
    /// Propagates DC and transient-analysis failures.
    pub fn flips(
        &self,
        vdd: Voltage,
        combo: StrikeCombo,
        q: Charge,
        deltas: &HashMap<TransistorRole, Voltage>,
    ) -> Result<bool, SpiceError> {
        let mut probe = StrikeProbe::nominal(self, vdd)?.with_deltas(deltas)?;
        // Flipped ⇔ the decoded state differs from the held `One`, which
        // `decode_state` defines as vq > vqb — i.e. margin ≤ 0.
        Ok(probe.strike(&self.strike_event(vdd, combo, q))?.0 <= 0.0)
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
    /// [`CellCharacterizer::characterize_combo`] starts the walk of each
    /// sample whose fine walk falls back at the nominal cell's first-flip
    /// lattice point instead and steps down (if that point flips) or up
    /// (if it does not) to the same bracket, so each search pays a couple
    /// of bracketing transients rather than ~10 and returns the same bits.
    ///
    /// If even `q_search_max` does not flip the cell, that bound is
    /// returned (a saturated sample: POF stays 0 up to it).
    ///
    /// # Errors
    ///
    /// Propagates DC and transient-analysis failures.
    pub fn critical_charge(
        &self,
        vdd: Voltage,
        combo: StrikeCombo,
        deltas: &HashMap<TransistorRole, Voltage>,
    ) -> Result<Charge, SpiceError> {
        let mut probe = StrikeProbe::nominal(self, vdd)?.with_deltas(deltas)?;
        let lattice = self.charge_lattice();
        Ok(self.critical_charge_from(&mut probe, combo, 1, &lattice)?.0)
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
    /// on `probe`'s cell, with its bracketing walk started at lattice
    /// index `anchor` (clamped to the probe points `1..lattice.len()`).
    /// Returns the critical charge and the first-flip index on `lattice`
    /// (`1` when the first probe point already flips, the top index when
    /// the sample is saturated).
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
        probe: &mut StrikeProbe<'_>,
        combo: StrikeCombo,
        anchor: usize,
        lattice: &[f64],
    ) -> Result<(Charge, usize), SpiceError> {
        let top = lattice.len() - 1;
        if top == 0 {
            // No probe point above the floor: saturated by construction.
            return Ok((Charge::from_coulombs(self.options.q_search_max), 0));
        }
        let mut margin = |k: usize| probe.margin(combo, Charge::from_coulombs(lattice[k]));
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
                match probe.margin(combo, Charge::from_coulombs(x.exp())) {
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

    /// The critical charge of `probe`'s sample predicted at `ln_pred` (Q in
    /// coulombs: the nominal critical charge for a pilot sample, the
    /// surrogate's prediction for a later one), found by the fine walk:
    /// probe points sit at `ln_pred + (k + ½)·ln(1 + bisect_rel_tol)`,
    /// the walk probes the one just below the prediction (`k = −1`) and
    /// steps up while the cell holds or down while it flips, until a
    /// no-flip/flip pair is verified. Returns that pair's geometric
    /// midpoint, the bracket contract of the lattice search with no
    /// refinement step, or `None` when the walk leaves `[Q_FLOOR,
    /// q_search_max]` or needs more than [`MAX_FINE_STEPS`] moves; the
    /// caller then falls back to the lattice search.
    ///
    /// # Errors
    ///
    /// Propagates transient-analysis failures.
    fn fine_walk_qcrit(
        &self,
        probe: &mut StrikeProbe<'_>,
        combo: StrikeCombo,
        ln_pred: f64,
    ) -> Result<Option<f64>, SpiceError> {
        let step = (1.0 + self.options.bisect_rel_tol).ln();
        let range = Q_FLOOR..=self.options.q_search_max;
        // `Some(flipped)` at lattice point `k`, or `None` outside the range
        // (a NaN prediction lands here too).
        let mut probe_at = |k: i32| -> Result<Option<(f64, bool)>, SpiceError> {
            let x = ln_pred + (f64::from(k) + 0.5) * step;
            let q = x.exp();
            if !range.contains(&q) {
                return Ok(None);
            }
            let m = probe.margin(combo, Charge::from_coulombs(q))?;
            // `m <= 0.0` is a flip; a NaN margin counts as "no flip".
            Ok(Some((x, m <= 0.0)))
        };
        let mut k = -1;
        let Some((mut x, first)) = probe_at(k)? else {
            return Ok(None);
        };
        let dir = if first { -1 } else { 1 };
        for _ in 0..MAX_FINE_STEPS {
            k += dir;
            let Some((next, flipped)) = probe_at(k)? else {
                return Ok(None);
            };
            if flipped != first {
                return Ok(Some((0.5 * (x + next)).exp()));
            }
            x = next;
        }
        Ok(None)
    }

    /// The critical charges of `samples` variation samples of `combo` at
    /// the `nominal` probe's supply, in sample-index order, each with
    /// whether it fell back to the lattice search.
    ///
    /// Every sample runs the [`fine walk`](Self::fine_walk_qcrit); only its
    /// centre differs. The first [`PILOT`] samples centre it on the nominal
    /// cell's critical charge; a [`QcritSurrogate`] fitted to them centres
    /// every later sample's walk on its prediction (on the nominal critical
    /// charge too when the fit is unavailable). A walk that cannot close
    /// its bracket falls back to the anchored lattice search. Both phases
    /// claim samples through `available_parallelism()` workers; each sample
    /// draws its ΔVth from its own stream derived from `seed` and its
    /// index, solves its pre-strike state warm from the nominal one, and
    /// the fit reads the pilot in index order, so the result does not
    /// depend on the worker count. The workers poll the calling thread's
    /// cancellation token, so a cancelled or timed-out caller stops the
    /// remaining samples at their next solve.
    ///
    /// # Errors
    ///
    /// Propagates the transient-analysis failure of the lowest-index
    /// sample that failed.
    fn monte_carlo_qcrits(
        &self,
        nominal: &mut StrikeProbe<'_>,
        combo: StrikeCombo,
        samples: usize,
        seed: u64,
    ) -> Result<(Vec<f64>, Vec<bool>), SpiceError> {
        let var = VariationModel::pelgrom(&self.tech);
        let lattice = self.charge_lattice();
        // One nominal search before the workers spawn: its critical charge
        // centres the pilot walks, and its first-flip index anchors every
        // fallback lattice search, independent of which worker runs the
        // sample.
        let (q_nominal, anchor) = self.critical_charge_from(nominal, combo, 1, &lattice)?;
        let nominal = &*nominal;
        let ln_nominal = q_nominal.coulombs().ln();
        let threads = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
        let deltas_of = |i: usize| {
            let mut rng = Xoshiro256pp::salted_stream(seed, i as u64, SAMPLE_SALT);
            self.sample_deltas(&var, &mut rng)
        };
        // The caller's cancellation token: the registry is per thread, so
        // each sample re-installs it on the worker that runs the sample.
        let token = cancel::current();
        // `(Q_crit, fell back)` of one sample whose walk centres on `ln_centre`.
        let qcrit = |deltas: &HashMap<TransistorRole, Voltage>, ln_centre: f64| {
            let _scope = token.as_ref().map(cancel::install_scoped);
            let mut probe = nominal.with_deltas(deltas)?;
            if let Some(q) = self.fine_walk_qcrit(&mut probe, combo, ln_centre)? {
                return Ok((q, false));
            }
            self.critical_charge_from(&mut probe, combo, anchor, &lattice)
                .map(|(q, _)| (q.coulombs(), true))
        };
        // Collecting in index order returns the lowest-index error.
        let pilot = par::map_indexed(samples.min(PILOT), threads, |i| {
            let deltas = deltas_of(i);
            qcrit(&deltas, ln_nominal).map(|q| (deltas, q))
        })
        .into_iter()
        .collect::<Result<Vec<_>, SpiceError>>()?;
        let surrogate = QcritSurrogate::fit(
            pilot.iter().map(|(deltas, (q, _))| (deltas, *q)),
            self.options.q_search_max,
        );
        let rest = par::map_indexed(samples - pilot.len(), threads, |j| {
            let deltas = deltas_of(PILOT + j);
            let ln_centre = surrogate
                .as_ref()
                .map_or(ln_nominal, |fit| fit.predict_ln(&deltas));
            qcrit(&deltas, ln_centre)
        })
        .into_iter()
        .collect::<Result<Vec<_>, SpiceError>>()?;
        Ok(pilot.into_iter().map(|(_, q)| q).chain(rest).unzip())
    }

    /// Characterizes one combo: the POF curve at `vdd`.
    ///
    /// [`Variation::Nominal`] runs one lattice search on the nominal cell.
    /// [`Variation::MonteCarlo`] runs the fine walk on every sample, centred
    /// on the nominal critical charge for the first 16 (pilot) samples and
    /// on the surrogate's prediction for the rest (see the module docs);
    /// each sample's ΔVth comes from its own
    /// deterministic RNG stream derived from `seed` and its index.
    ///
    /// # Errors
    ///
    /// Propagates the DC or transient-analysis failure of the lowest-index
    /// sample that failed.
    ///
    /// # Panics
    ///
    /// Panics on [`Variation::MonteCarlo`] with zero samples.
    pub fn characterize_combo(
        &self,
        vdd: Voltage,
        combo: StrikeCombo,
        variation: Variation,
        seed: u64,
    ) -> Result<PofCurve, SpiceError> {
        let mut nominal = StrikeProbe::nominal(self, vdd)?;
        self.combo_curve(&mut nominal, combo, variation, seed)
    }

    /// [`CellCharacterizer::characterize_combo`] at the `nominal` probe's
    /// supply, from its already solved pre-strike state.
    fn combo_curve(
        &self,
        nominal: &mut StrikeProbe<'_>,
        combo: StrikeCombo,
        variation: Variation,
        seed: u64,
    ) -> Result<PofCurve, SpiceError> {
        let _combo_timer = finrad_observe::span(finrad_observe::keys::SRAM_COMBO_SECONDS);
        finrad_observe::counter_add(finrad_observe::keys::SRAM_COMBOS, 1);
        match variation {
            Variation::Nominal => {
                let lattice = self.charge_lattice();
                let (q, _) = self.critical_charge_from(nominal, combo, 1, &lattice)?;
                Ok(PofCurve::from_critical_charges(vec![q.coulombs()]))
            }
            Variation::MonteCarlo { samples } => {
                assert!(samples > 0, "need at least one MC sample");
                let (qs, fell_back) = self.monte_carlo_qcrits(nominal, combo, samples, seed)?;
                finrad_observe::counter_add(
                    finrad_observe::keys::SRAM_SURROGATE_FALLBACKS,
                    fell_back.iter().filter(|&&f| f).count() as u64,
                );
                Ok(PofCurve::from_critical_charges(qs))
            }
        }
    }

    /// Builds the full POF table at `vdd`: all seven strike combinations,
    /// sharing one solve of the nominal pre-strike state (the nominal
    /// searches start from it and every variation sample warm-starts from
    /// it), so a table costs `7 · samples + 1` DC solves.
    ///
    /// # Errors
    ///
    /// Propagates the first DC or transient-analysis failure encountered.
    ///
    /// # Panics
    ///
    /// Panics on [`Variation::MonteCarlo`] with zero samples.
    pub fn build_table(
        &self,
        vdd: Voltage,
        variation: Variation,
        seed: u64,
    ) -> Result<PofTable, SpiceError> {
        let mut nominal = StrikeProbe::nominal(self, vdd)?;
        let mut curves = BTreeMap::new();
        for (k, combo) in StrikeCombo::all().into_iter().enumerate() {
            let curve =
                self.combo_curve(&mut nominal, combo, variation, seed.wrapping_add(k as u64))?;
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

    /// Whether a strike of total charge `q` coulombs on `combo` flips
    /// `probe`'s cell.
    fn probe_flips(probe: &mut StrikeProbe<'_>, combo: StrikeCombo, q: f64) -> bool {
        probe.margin(combo, Charge::from_coulombs(q)).unwrap() <= 0.0
    }

    /// The geometric bisection the ITP search retired, kept here verbatim
    /// as the golden reference: scan up by ×1.6 to bracket the first flip,
    /// then halve the bracket in log-space to `bisect_rel_tol`.
    fn retired_geometric_bisection(probe: &mut StrikeProbe<'_>, combo: StrikeCombo) -> Charge {
        let ch = probe.ch;
        let q_floor = 1.0e-18;
        let mut lo = q_floor;
        let mut hi = lo;
        let mut bracketed = false;
        while hi < ch.options().q_search_max {
            hi = (hi * 1.6).min(ch.options().q_search_max);
            if probe_flips(probe, combo, hi) {
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
            if probe_flips(probe, combo, mid) {
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
            let mut probe = StrikeProbe::nominal(&ch, vdd)
                .and_then(|nominal| nominal.with_deltas(&deltas))
                .unwrap();
            let golden = retired_geometric_bisection(&mut probe, combo);
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
        let vdd = Voltage::from_volts(0.8);
        let combo = StrikeCombo::single(StrikeTarget::I3);
        let ch = characterizer();
        let run = || {
            ch.characterize_combo(vdd, combo, Variation::MonteCarlo { samples: 6 }, 42)
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
        // pinned by a `to_bits` hash per (vdd, combo). 66 samples are 16
        // pilot samples on the fine walk centred on the nominal critical
        // charge plus 50 centred on the surrogate's prediction, so the
        // pins cover both centres and the fit between them.
        const GOLDEN: [[u64; 7]; 2] = [
            [
                0x9b66_228a_1730_759c,
                0x0a22_bc55_a3bf_e000,
                0x79ff_692f_7206_4162,
                0xb771_9c23_d09e_173c,
                0xea94_0223_5f91_0256,
                0x6e24_238f_e0db_e27d,
                0x2622_de0d_415e_e444,
            ],
            [
                0xdc05_faf9_a4fe_50f6,
                0xe346_f606_72ec_6fd8,
                0xae09_436a_f38f_4c5d,
                0xc776_8645_f037_54eb,
                0x7c5f_e5bd_7693_e7ae,
                0xe468_d0a3_0237_421b,
                0xc5c7_bbc5_7579_9c1e,
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
    fn upward_scan_reference(probe: &mut StrikeProbe<'_>, combo: StrikeCombo) -> (Charge, usize) {
        let (q, probes, _) = upward_scan_bracket(probe, combo);
        (q, probes)
    }

    /// [`upward_scan_reference`], plus the final bracket the search
    /// verified: the charges of its last no-flip and last flip probes,
    /// coulombs (`None` for a saturated or floored sample).
    fn upward_scan_bracket(
        probe: &mut StrikeProbe<'_>,
        combo: StrikeCombo,
    ) -> (Charge, usize, Option<(f64, f64)>) {
        let ch = probe.ch;
        let mut margin = |q: f64| probe.margin(combo, Charge::from_coulombs(q)).unwrap();
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
            return (
                Charge::from_coulombs(ch.options().q_search_max),
                probes,
                None,
            );
        };
        let Some(m_lo) = m_lo else {
            return (Charge::from_coulombs(lo), probes, None);
        };
        // ITP keeps the latest probe of each sign as its bracket ends.
        let (mut held, mut flipped) = (lo.ln(), hi.ln());
        let root = itp_from(
            |x: f64| {
                let m = margin(x.exp());
                if m <= 0.0 {
                    flipped = x;
                } else {
                    held = x;
                }
                m
            },
            Endpoint::new(lo.ln(), m_lo),
            Endpoint::new(hi.ln(), m_hi),
            (1.0 + ch.options().bisect_rel_tol).ln(),
            200,
        )
        .unwrap();
        (
            Charge::from_coulombs(root.x.exp()),
            probes,
            Some((held.exp(), flipped.exp())),
        )
    }

    /// Runs 16 variation samples of every combo at `vdd` through the
    /// anchored walk and checks each against [`upward_scan_reference`].
    fn check_anchors_against_scan(ch: &CellCharacterizer, vdd: Voltage) {
        let var = VariationModel::pelgrom(ch.technology());
        let lattice = ch.charge_lattice();
        let top = lattice.len() - 1;
        let mut nominal_probe = StrikeProbe::nominal(ch, vdd).unwrap();
        for (c, combo) in StrikeCombo::all().into_iter().enumerate() {
            let (_, nominal) = ch
                .critical_charge_from(&mut nominal_probe, combo, 1, &lattice)
                .unwrap();
            for i in 0..16u64 {
                let mut rng = Xoshiro256pp::salted_stream(c as u64, i, 0x9E37_79B9_7F4A_7C15);
                let deltas = ch.sample_deltas(&var, &mut rng);
                let mut probe = nominal_probe.with_deltas(&deltas).unwrap();
                let (golden, first_flip) = upward_scan_reference(&mut probe, combo);
                for anchor in [nominal, 1, nominal.saturating_sub(3), nominal + 3, top] {
                    let (q, k) = ch
                        .critical_charge_from(&mut probe, combo, anchor, &lattice)
                        .unwrap();
                    let in_contract = anchor == nominal
                        || anchor <= first_flip
                        || (first_flip..=anchor)
                            .all(|j| probe_flips(&mut probe, combo, lattice[j]));
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
        let mut probe = StrikeProbe::nominal(&tiny, vdd).unwrap();
        let (golden, _) = upward_scan_reference(&mut probe, combo);
        assert_eq!(golden.coulombs(), 1.0e-17);
        for anchor in 1..=top {
            let (q, k) = tiny
                .critical_charge_from(&mut probe, combo, anchor, &lattice)
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
        let mut probe = StrikeProbe::nominal(&ch, vdd)
            .and_then(|nominal| nominal.with_deltas(&deltas))
            .unwrap();
        let (golden, first_flip) = upward_scan_reference(&mut probe, combo);
        assert_eq!((golden.coulombs(), first_flip), (Q_FLOOR, 1));
        for anchor in [1, 4, 10, lattice.len() - 1] {
            let (q, k) = ch
                .critical_charge_from(&mut probe, combo, anchor, &lattice)
                .unwrap();
            assert_eq!((q.coulombs().to_bits(), k), (Q_FLOOR.to_bits(), 1));
        }
    }

    /// How the post-pilot samples of some tables compare with the lattice
    /// search on the same ΔVth.
    #[derive(Debug, Default)]
    struct Agreement {
        /// Post-pilot samples compared.
        checked: usize,
        /// Pilot samples that fell back to the lattice search.
        pilot_fallbacks: usize,
        /// Post-pilot samples that fell back to the lattice search.
        fallbacks: usize,
        /// Samples more than one bracket width from the lattice search.
        disagreements: usize,
        /// Disagreements where both brackets are verified and one's flip
        /// lies below the other's hold: a non-monotone flip response.
        non_monotone: usize,
    }

    impl std::ops::AddAssign for Agreement {
        fn add_assign(&mut self, other: Self) {
            self.checked += other.checked;
            self.pilot_fallbacks += other.pilot_fallbacks;
            self.fallbacks += other.fallbacks;
            self.disagreements += other.disagreements;
            self.non_monotone += other.non_monotone;
        }
    }

    /// Characterizes every combo at `vdd` with `samples` variation samples
    /// and compares each post-pilot critical charge with the lattice
    /// search on the same ΔVth. Also checks that every result lies in
    /// `[Q_FLOOR, q_search_max]` and that the fine walk ran for some
    /// sample of every combo.
    fn compare_fine_walk_with_lattice(
        ch: &CellCharacterizer,
        vdd: Voltage,
        samples: usize,
    ) -> Agreement {
        let var = VariationModel::pelgrom(ch.technology());
        let lattice = ch.charge_lattice();
        let width = (1.0 + ch.options().bisect_rel_tol).ln();
        let q_max = ch.options().q_search_max;
        let mut agreement = Agreement::default();
        let mut nominal = StrikeProbe::nominal(ch, vdd).unwrap();
        for (c, combo) in StrikeCombo::all().into_iter().enumerate() {
            let seed = 17 + c as u64;
            let (qs, fell_back) = ch
                .monte_carlo_qcrits(&mut nominal, combo, samples, seed)
                .unwrap();
            assert_eq!(qs.len(), samples);
            let count = |flags: &[bool]| flags.iter().filter(|&&f| f).count();
            let fallbacks = count(&fell_back[PILOT..]);
            assert!(
                fallbacks < samples - PILOT,
                "{vdd:?} {combo:?}: all {fallbacks} post-pilot samples fell back"
            );
            agreement.checked += samples - PILOT;
            agreement.pilot_fallbacks += count(&fell_back[..PILOT]);
            agreement.fallbacks += fallbacks;
            let (_, anchor) = ch
                .critical_charge_from(&mut nominal, combo, 1, &lattice)
                .unwrap();
            for (i, &q) in qs.iter().enumerate().skip(PILOT) {
                assert!((Q_FLOOR..=q_max).contains(&q), "sample {i}: {q} C");
                let mut rng = Xoshiro256pp::salted_stream(seed, i as u64, SAMPLE_SALT);
                let deltas = ch.sample_deltas(&var, &mut rng);
                let mut probe = nominal.with_deltas(&deltas).unwrap();
                let (reference, _) = ch
                    .critical_charge_from(&mut probe, combo, anchor, &lattice)
                    .unwrap();
                if (q / reference.coulombs()).ln().abs() <= width {
                    continue;
                }
                agreement.disagreements += 1;
                // Verify both brackets: the lattice search's by its own
                // probes (the upward scan it reproduces), the fine walk's
                // by re-simulating its ends.
                let (scanned, _, bracket) = upward_scan_bracket(&mut probe, combo);
                let (fine_held, fine_flipped) = (q * (-0.5 * width).exp(), q * (0.5 * width).exp());
                let verified = scanned.coulombs().to_bits() == reference.coulombs().to_bits()
                    && !probe_flips(&mut probe, combo, fine_held)
                    && probe_flips(&mut probe, combo, fine_flipped);
                let non_monotone = bracket
                    .is_some_and(|(held, flipped)| fine_flipped < held || flipped < fine_held);
                let (held, flipped) = bracket.unwrap_or((f64::NAN, f64::NAN));
                eprintln!(
                    "{vdd:?} {combo:?} sample {i}: fine walk {q:.4e} C in \
                     [{fine_held:.4e}, {fine_flipped:.4e}], lattice {:.4e} C in \
                     [{held:.4e}, {flipped:.4e}], verified non-monotone: {}",
                    reference.coulombs(),
                    verified && non_monotone
                );
                if verified && non_monotone {
                    agreement.non_monotone += 1;
                }
            }
        }
        agreement
    }

    /// [`compare_fine_walk_with_lattice`] at each supply, one thread per
    /// supply, summed.
    fn compare_at_supplies(ch: &CellCharacterizer, volts: &[f64], samples: usize) -> Agreement {
        std::thread::scope(|scope| {
            let handles: Vec<_> = volts
                .iter()
                .map(|&v| {
                    scope.spawn(move || {
                        compare_fine_walk_with_lattice(ch, Voltage::from_volts(v), samples)
                    })
                })
                .collect();
            let mut total = Agreement::default();
            for h in handles {
                total += h.join().unwrap();
            }
            total
        })
    }

    #[test]
    fn fine_walk_agrees_with_lattice_search() {
        // Every post-pilot critical charge of a 40-sample table lies
        // within one bracket width of the lattice search on the same ΔVth,
        // except where both brackets are verified on a non-monotone
        // response (at most one such sample over both supplies).
        let got = compare_at_supplies(&characterizer(), &[0.7, 1.1], 40);
        assert_eq!(got.disagreements, got.non_monotone, "{got:?}");
        assert!(got.non_monotone <= 1, "{got:?}");
    }

    #[test]
    #[ignore = "quick-scale release check: cargo test --release -p finrad-sram -- --ignored"]
    fn fine_walk_agrees_at_quick_scale() {
        // Figure quick scale: default options, 150 samples, all seven
        // combos at 0.7, 0.9 and 1.1 V. Every post-pilot sample agrees
        // with the lattice search within one bracket width, except where
        // both brackets are verified on a non-monotone flip response: a
        // property of the cell, not a search fault, bounded apart at 0.2%
        // of the samples.
        let ch = CellCharacterizer::new(
            Technology::soi_finfet_14nm(),
            CharacterizeOptions::default(),
        );
        let got = compare_at_supplies(&ch, &[0.7, 0.9, 1.1], 150);
        println!(
            "{} post-pilot samples: {} fallbacks, {} disagreements ({} verified non-monotone); \
             {} pilot fallbacks",
            got.checked, got.fallbacks, got.disagreements, got.non_monotone, got.pilot_fallbacks
        );
        assert_eq!(got.disagreements, got.non_monotone, "{got:?}");
        assert!(got.non_monotone * 500 <= got.checked, "{got:?}");
    }

    #[test]
    fn pilot_walk_and_saturated_fallback_tables_keep_their_bits() {
        // A table of 16 samples is all pilot: every sample walks from the
        // nominal critical charge. A search range that saturates every
        // sample sends every walk out of range, so every sample falls
        // back to the lattice search; that hash was pinned on the lattice
        // search alone, before the fine walk existed.
        const PILOT_TABLE: u64 = 0x4662_9498_0c03_848e;
        const SATURATED_TABLE: u64 = 0x42a8_2f39_0528_a745;
        let table_hash = |ch: &CellCharacterizer, volts: f64, samples: usize| {
            let table = ch
                .build_table(
                    Voltage::from_volts(volts),
                    Variation::MonteCarlo { samples },
                    5,
                )
                .unwrap();
            let qs: Vec<f64> = StrikeCombo::all()
                .into_iter()
                .flat_map(|combo| table.curve(combo).unwrap().qcrit_samples().to_vec())
                .collect();
            assert_eq!(qs.len(), 7 * samples);
            fnv1a64_bits(&qs)
        };
        let tiny = CellCharacterizer::new(
            Technology::soi_finfet_14nm(),
            CharacterizeOptions {
                q_search_max: 1.0e-17,
                ..characterizer().options().clone()
            },
        );
        let got = [
            table_hash(&characterizer(), 0.9, PILOT),
            table_hash(&tiny, 0.7, 24),
        ];
        assert_eq!(got, [PILOT_TABLE, SATURATED_TABLE], "got {got:#018x?}");
        let mut nominal = StrikeProbe::nominal(&tiny, Voltage::from_volts(0.7)).unwrap();
        let (qs, fell_back) = tiny
            .monte_carlo_qcrits(&mut nominal, StrikeCombo::single(StrikeTarget::I1), 24, 5)
            .unwrap();
        assert!(qs.iter().all(|&q| q == 1.0e-17));
        assert_eq!(fell_back, [true; 24]);
    }

    /// The margin at the plan's horizon of the strike `event`: the same
    /// struck cell, pre-strike state and plan as [`StrikeProbe::strike`],
    /// simulated in full.
    fn full_settle_margin(probe: &StrikeProbe<'_>, event: &StrikeEvent) -> f64 {
        let mut cell = probe.cell.clone();
        event.inject(&mut cell, CellState::One);
        let plan = TimeStepPlan::for_pulse(event.t_start, event.width, probe.ch.options().settle);
        let res = analysis::transient_from_state(
            cell.circuit(),
            &plan,
            &probe.pre,
            &[cell.q(), cell.qb()],
            &probe.ch.options().newton,
        )
        .unwrap();
        (res.final_voltage(cell.q()) - res.final_voltage(cell.qb())) / probe.vdd.volts()
    }

    #[test]
    fn metastable_strike_runs_to_the_horizon() {
        // A rectangular 8 fs I1 strike of 0.4 fC at 0.8 V parks the
        // nominal cell near its saddle for the whole settle: the decided-
        // verdict rule must not fire, and the margin (hence the verdict)
        // is the full-horizon transient's, bit for bit.
        let ch = CellCharacterizer::new(
            Technology::soi_finfet_14nm(),
            CharacterizeOptions::default(),
        );
        let mut probe = StrikeProbe::nominal(&ch, Voltage::from_volts(0.8)).unwrap();
        let event = StrikeEvent::rectangular(vec![(StrikeTarget::I1, 0.4e-15)], 2.0e-15, 8.0e-15);
        let (margin, decided) = probe.strike(&event).unwrap();
        let full = full_settle_margin(&probe, &event);
        assert!(!decided, "the rule fired at margin {margin}");
        assert!(full.abs() < 0.5, "not metastable: settled margin {full}");
        assert_eq!(margin.to_bits(), full.to_bits());
    }

    /// Decided-verdict checks against the full-horizon transient.
    #[derive(Debug, Default)]
    struct VerdictAgreement {
        /// Strikes compared.
        cases: usize,
        /// Of those, strikes whose transient stopped at a decided verdict.
        decided: usize,
        /// Strikes whose decided verdict differs from the settled one.
        disagreements: usize,
    }

    /// Compares the decided verdict with the full-horizon verdict of every
    /// combo at `vdd`, on the nominal cell and `draws` ΔVth draws, at the
    /// charges `Q_crit·(1 + bisect_rel_tol)^k` for `k` in −3..=3 around
    /// each case's lattice-search threshold.
    fn verdict_agreement(ch: &CellCharacterizer, vdd: Voltage, draws: u64) -> VerdictAgreement {
        let var = VariationModel::pelgrom(ch.technology());
        let ratio = 1.0 + ch.options().bisect_rel_tol;
        let lattice = ch.charge_lattice();
        let nominal = StrikeProbe::nominal(ch, vdd).unwrap();
        let mut got = VerdictAgreement::default();
        for (c, combo) in StrikeCombo::all().into_iter().enumerate() {
            let cells = std::iter::once(HashMap::new()).chain((0..draws).map(|i| {
                let mut rng = Xoshiro256pp::salted_stream(c as u64, i, SAMPLE_SALT);
                ch.sample_deltas(&var, &mut rng)
            }));
            for deltas in cells {
                let mut probe = nominal.with_deltas(&deltas).unwrap();
                let (q_crit, _) = ch
                    .critical_charge_from(&mut probe, combo, 1, &lattice)
                    .unwrap();
                for k in -3..=3 {
                    let q = q_crit * ratio.powi(k);
                    let event = ch.strike_event(vdd, combo, q);
                    let (margin, decided) = probe.strike(&event).unwrap();
                    let full = full_settle_margin(&probe, &event);
                    got.cases += 1;
                    got.decided += usize::from(decided);
                    if (margin <= 0.0) != (full <= 0.0) {
                        eprintln!(
                            "{vdd:?} {combo:?} {deltas:?} {q:?}: decided {margin}, settled {full}"
                        );
                        got.disagreements += 1;
                    }
                }
            }
        }
        got
    }

    /// [`verdict_agreement`] at 0.7, 0.9 and 1.1 V, one thread per supply,
    /// summed.
    fn verdict_agreement_at_supplies(ch: &CellCharacterizer, draws: u64) -> VerdictAgreement {
        std::thread::scope(|scope| {
            let handles = [0.7, 0.9, 1.1]
                .map(|v| scope.spawn(move || verdict_agreement(ch, Voltage::from_volts(v), draws)));
            let mut total = VerdictAgreement::default();
            for h in handles {
                let got = h.join().unwrap();
                total.cases += got.cases;
                total.decided += got.decided;
                total.disagreements += got.disagreements;
            }
            total
        })
    }

    #[test]
    fn decided_verdict_matches_the_settled_verdict() {
        // Every strike within three bracket widths of its threshold, on
        // the nominal cell and two ΔVth draws per combo: the decided
        // verdict equals the full-horizon one.
        let got = verdict_agreement_at_supplies(&characterizer(), 2);
        println!(
            "{} strikes near threshold: {} decided early, {} disagreements",
            got.cases, got.decided, got.disagreements
        );
        assert_eq!(got.disagreements, 0, "{got:?}");
        assert!(got.decided > 0, "{got:?}");
    }

    #[test]
    #[ignore = "quick-scale release check: cargo test --release -p finrad-sram -- --ignored"]
    fn decided_verdict_matches_at_quick_scale() {
        // Figure quick scale: default options, the nominal cell and eight
        // ΔVth draws per combo at 0.7, 0.9 and 1.1 V.
        let ch = CellCharacterizer::new(
            Technology::soi_finfet_14nm(),
            CharacterizeOptions::default(),
        );
        let got = verdict_agreement_at_supplies(&ch, 8);
        println!(
            "{} strikes near threshold: {} decided early, {} disagreements",
            got.cases, got.decided, got.disagreements
        );
        assert_eq!(got.disagreements, 0, "{got:?}");
    }
}
