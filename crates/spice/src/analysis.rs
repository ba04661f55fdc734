//! DC operating-point and transient analyses.
//!
//! Both analyses assemble the modified nodal analysis (MNA) system
//! `J(x)·x = b(x)` and solve it by damped Newton iteration with the dense
//! LU factorization from `finrad-numerics`. Capacitors enter the transient
//! system through their backward-Euler companion model `i = C/h·(v − v⁻)`;
//! backward Euler is L-stable, which the stiff femtosecond-pulse →
//! picosecond-settling dynamics of an SRAM upset demand. Each transient
//! step's Newton iteration starts from the linear extrapolation of the
//! last accepted step, clamped to `v_clamp`; the companion model always
//! uses the accepted state itself.

use crate::circuit::Circuit;
use crate::recovery::{RecoveryRung, RecoveryTrace};
use crate::waveform::{Probe, TransientResult};
use crate::{NodeId, SpiceError};
use finrad_numerics::matrix::{LuFactors, Matrix, StructuredLu};
use std::cell::RefCell;
use std::collections::HashMap;

/// Newton-iteration tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Convergence threshold on the largest voltage update, volts.
    pub vtol: f64,
    /// Maximum Newton iterations per solve.
    pub max_iter: usize,
    /// Per-iteration voltage-update clamp (damping), volts.
    pub max_step: f64,
    /// Conductance from every node to ground that keeps the system
    /// non-singular when subcircuits float, siemens.
    pub gmin: f64,
    /// Hard clamp on node voltages during iteration (keeps the EKV
    /// exponentials out of overflow territory and Newton out of spurious
    /// far-away basins), volts.
    pub v_clamp: (f64, f64),
    /// Maximum number of times a failing transient step is halved before
    /// giving up (SPICE-style timestep rejection).
    pub max_step_halvings: u32,
    /// Absolute floor on the transient timestep, seconds: a rejected step
    /// is never halved below this, so the rejection cascade terminates
    /// with diagnostics instead of burrowing into denormal timesteps.
    /// The default (1e-21 s) sits well below any physical plan's
    /// `dt / 2^max_step_halvings`, so it only backstops pathological
    /// plans.
    pub min_dt: f64,
    /// Staleness bound on quasi-Newton chord steps: transient Newton may
    /// serve iterations from a retained Jacobian factorization (only the
    /// RHS residual is restamped, across iterations and across transient
    /// steps) for at most this many iterations after the full iteration
    /// that computed it before a refresh is forced. `0` stamps and
    /// factors a fresh Jacobian every iteration: classic full Newton.
    pub max_jacobian_age: u32,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            vtol: 1.0e-7,
            max_iter: 120,
            max_step: 0.4,
            gmin: 1.0e-12,
            v_clamp: (-2.0, 3.0),
            max_step_halvings: 12,
            min_dt: 1.0e-21,
            max_jacobian_age: 12,
        }
    }
}

/// A retained factorization is reused only while the timestep stays
/// within this ratio of the `dt` it was stamped at: the capacitor
/// companion conductances `C/dt` baked into the factors scale with `dt`,
/// so a bigger change (every LTE growth is ×2, every rejection halving
/// ×0.5) forces a refresh.
const JACOBIAN_REUSE_DT_RATIO: f64 = 1.25;

/// Chord staleness gate: a reused factorization must shrink the
/// nonlinear residual by at least this factor per iteration; when the
/// reduction rate collapses the Jacobian is declared stale and the
/// iteration falls back to a full refactorization.
const CHORD_CONTRACTION: f64 = 0.5;

/// LTE controller: absolute tolerance on the backward-Euler local
/// truncation-error estimate `½·h·max_n |v̇_n − v̇_n⁻|`, volts.
const LTE_TOL_VOLTS: f64 = 5.0e-3;

/// The controller doubles `dt` only while the estimate sits below this
/// fraction of [`LTE_TOL_VOLTS`] — hysteresis against grow/shrink
/// flapping at the threshold.
const LTE_GROW_MARGIN: f64 = 0.25;

/// Cap on adaptive growth: `dt` never exceeds this multiple of the
/// phase's base `dt`, bounding the worst-case per-step error even on a
/// perfectly flat tail.
const LTE_MAX_GROWTH: f64 = 64.0;

/// Solved static state of a circuit.
#[derive(Debug, Clone)]
pub struct OpPoint {
    node_voltages: Vec<f64>,
    vsource_currents: Vec<f64>,
}

impl OpPoint {
    /// Voltage of `node` (ground returns 0).
    ///
    /// Deliberately bare `f64`: the MNA engine works in the raw node-vector
    /// space (volts, SI) like any SPICE core; the typed boundary is the
    /// SRAM layer above.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.node_voltages[node.index()]
    }

    /// All node voltages, indexed by node id (entry 0 is ground).
    pub fn node_voltages(&self) -> &[f64] {
        &self.node_voltages
    }

    /// Current through the `k`-th voltage source (positive flowing from the
    /// positive terminal through the source to the negative terminal).
    pub fn vsource_current(&self, k: usize) -> f64 {
        self.vsource_currents[k]
    }
}

/// Per-analysis scratch state reused across Newton iterations and
/// transient steps: the assembled system buffers and the
/// structure-exploiting LU specialized to this circuit's fixed MNA
/// pattern. Lives behind a `RefCell` because assembly/solve is interior
/// bookkeeping of a logically-immutable solver.
struct SolverScratch {
    /// Jacobian buffer, re-stamped in place every iteration.
    j: Matrix,
    /// Right-hand-side buffer.
    b: Vec<f64>,
    /// Next-iterate buffer (full node vector including ground).
    v_next: Vec<f64>,
    /// Fixed-pattern LU; `None` until the first solve picks a pivot order.
    structured: Option<StructuredLu>,
    /// Nonlinear-residual buffer for the chord (quasi-Newton) path.
    r: Vec<f64>,
    /// Linear-solve output: the chord step `δ` or the full-Newton
    /// iterate.
    x: Vec<f64>,
    /// Backward-Euler capacitor companions `(geq, ieq)`, hoisted out of
    /// the Newton loop: both depend only on `(dt, v_prev)`, fixed for a
    /// whole solve. Empty in DC analyses.
    cap_comp: Vec<(f64, f64)>,
    /// What the retained factorization was stamped for: `(transient?,
    /// dt, gmin)`. `None` when the factors are not reusable.
    factored_key: Option<(bool, f64, f64)>,
    /// Chord iterations served since the factorization was stamped.
    jacobian_age: u32,
    /// Linear solves served by the structured path since the last flush.
    structured_solves: u64,
    /// Dense partial-pivot fallbacks since the last flush (pivot-guard
    /// trips and first-time analyses).
    dense_fallbacks: u64,
    /// Chord iterations served by a retained factorization since flush.
    jacobian_reuses: u64,
    /// Iterations that stamped and factored a fresh Jacobian since flush.
    refactorizations: u64,
}

/// Assembles and solves one Newton iteration's linearized MNA system.
struct Assembler<'c> {
    ckt: &'c Circuit,
    n_nodes: usize,
    dim: usize,
    scratch: RefCell<SolverScratch>,
}

impl<'c> Assembler<'c> {
    fn new(ckt: &'c Circuit) -> Self {
        let n_nodes = ckt.node_count();
        let dim = (n_nodes - 1) + ckt.vsource_count();
        Self {
            ckt,
            n_nodes,
            dim,
            scratch: RefCell::new(SolverScratch {
                j: Matrix::zeros(dim, dim),
                b: vec![0.0; dim],
                v_next: vec![0.0; n_nodes],
                structured: None,
                r: vec![0.0; dim],
                x: vec![0.0; dim],
                cap_comp: Vec::new(),
                factored_key: None,
                jacobian_age: 0,
                structured_solves: 0,
                dense_fallbacks: 0,
                jacobian_reuses: 0,
                refactorizations: 0,
            }),
        }
    }

    /// Row/column of a node in the reduced system, or `None` for ground.
    fn idx(&self, node: NodeId) -> Option<usize> {
        (node.index() != 0).then(|| node.index() - 1)
    }

    fn branch_idx(&self, k: usize) -> usize {
        (self.n_nodes - 1) + k
    }

    /// Structural stamp mask of this circuit's MNA system: entry `(r, c)`
    /// is 1.0 iff *any* element ever stamps that position, mirroring
    /// [`Assembler::assemble_into`] with capacitors unconditionally
    /// included (DC patterns are a subset of the transient pattern).
    ///
    /// This is deliberately derived from which positions are stamped, not
    /// from a numeric instance: a conductance that happens to evaluate to
    /// `0.0` in one assembly may be nonzero in the next, and a pattern
    /// built from values would silently drop it from the factorization.
    fn stamp_mask(&self) -> Matrix {
        let mut m = Matrix::zeros(self.dim, self.dim);
        for n in 0..(self.n_nodes - 1) {
            m.add_at(n, n, 1.0);
        }
        for r in &self.ckt.resistors {
            stamp_mask_conductance(&mut m, self.idx(r.a), self.idx(r.b));
        }
        for c in &self.ckt.capacitors {
            stamp_mask_conductance(&mut m, self.idx(c.a), self.idx(c.b));
        }
        for (k, vs) in self.ckt.vsources.iter().enumerate() {
            let br = self.branch_idx(k);
            // The branch row/column needs a structural diagonal only via
            // its couplings; mark them and the (always-needed) couplings.
            if let Some(p) = self.idx(vs.pos) {
                m[(p, br)] = 1.0;
                m[(br, p)] = 1.0;
            }
            if let Some(n) = self.idx(vs.neg) {
                m[(n, br)] = 1.0;
                m[(br, n)] = 1.0;
            }
        }
        for mos in &self.ckt.mosfets {
            let (ig, id_, is_) = (
                self.idx(mos.gate),
                self.idx(mos.drain),
                self.idx(mos.source),
            );
            if let Some(d) = id_ {
                if let Some(g) = ig {
                    m[(d, g)] = 1.0;
                }
                m[(d, d)] = 1.0;
                if let Some(s) = is_ {
                    m[(d, s)] = 1.0;
                }
            }
            if let Some(s_row) = is_ {
                if let Some(g) = ig {
                    m[(s_row, g)] = 1.0;
                }
                if let Some(d) = id_ {
                    m[(s_row, d)] = 1.0;
                }
                m[(s_row, s_row)] = 1.0;
            }
        }
        m
    }

    /// Builds the linearized system at candidate node voltages `v`
    /// (length = node_count, entry 0 = ground = 0), allocating fresh
    /// buffers (cold paths only — the Newton loop uses
    /// [`Assembler::assemble_into`]).
    fn assemble(
        &self,
        v: &[f64],
        cap_comp: Option<&[(f64, f64)]>,
        time: f64,
        gmin: f64,
    ) -> (Matrix, Vec<f64>) {
        let mut j = Matrix::zeros(self.dim, self.dim);
        let mut b = vec![0.0; self.dim];
        self.assemble_into(&mut j, &mut b, v, cap_comp, time, gmin);
        (j, b)
    }

    /// Fills `comp` with the backward-Euler capacitor companions
    /// `(geq, ieq)` for the given transient state, or leaves it empty in
    /// DC (capacitors open). Hoisted out of the Newton loop: both values
    /// depend only on `(dt, v_prev)`, which are fixed for a whole solve,
    /// so recomputing them per iteration (as the retired assembly did)
    /// was pure overhead. Refilling a reused buffer keeps the solve free
    /// of allocation.
    fn cap_companions_into(&self, cap_state: Option<(f64, &[f64])>, comp: &mut Vec<(f64, f64)>) {
        comp.clear();
        if let Some((dt, v_prev)) = cap_state {
            comp.extend(self.ckt.capacitors.iter().map(|c| {
                let geq = c.farads / dt;
                // Companion current source: geq * (v_a_prev − v_b_prev)
                // flowing the same way as the conductance.
                (geq, geq * (v_prev[c.a.index()] - v_prev[c.b.index()]))
            }));
        }
    }

    /// Like [`Assembler::assemble`], but stamping into caller-owned
    /// buffers so the Newton loop allocates nothing per iteration.
    ///
    /// `cap_comp`: precomputed [`Assembler::cap_companions_into`] enables the
    /// backward-Euler companion models; `None` leaves capacitors open
    /// (DC). `time`: evaluation time for source waveforms.
    fn assemble_into(
        &self,
        j: &mut Matrix,
        b: &mut [f64],
        v: &[f64],
        cap_comp: Option<&[(f64, f64)]>,
        time: f64,
        gmin: f64,
    ) {
        j.fill_zero();
        b.fill(0.0);

        // gmin to ground on every non-ground node.
        for n in 0..(self.n_nodes - 1) {
            j.add_at(n, n, gmin);
        }

        // Resistors.
        for r in &self.ckt.resistors {
            let (ia, ib) = (self.idx(r.a), self.idx(r.b));
            stamp_conductance(j, ia, ib, r.conductance);
        }

        // Capacitors (transient only), via their hoisted BE companions.
        if let Some(comp) = cap_comp {
            for (c, &(geq, ieq)) in self.ckt.capacitors.iter().zip(comp) {
                let (ia, ib) = (self.idx(c.a), self.idx(c.b));
                stamp_conductance(j, ia, ib, geq);
                if let Some(a) = ia {
                    b[a] += ieq;
                }
                if let Some(bb) = ib {
                    b[bb] -= ieq;
                }
            }
        }

        // Current sources: current leaves `from`, enters `to`.
        for s in &self.ckt.isources {
            let val = s.waveform.value(time);
            if let Some(f) = self.idx(s.from) {
                b[f] -= val;
            }
            if let Some(t) = self.idx(s.to) {
                b[t] += val;
            }
        }

        // Voltage sources: branch current unknown + constraint row.
        for (k, vs) in self.ckt.vsources.iter().enumerate() {
            let br = self.branch_idx(k);
            if let Some(p) = self.idx(vs.pos) {
                j.add_at(p, br, 1.0);
                j.add_at(br, p, 1.0);
            }
            if let Some(n) = self.idx(vs.neg) {
                j.add_at(n, br, -1.0);
                j.add_at(br, n, -1.0);
            }
            b[br] = vs.volts;
        }

        // MOSFETs: linearized drain current with RHS correction so that the
        // solution of the linear system is the Newton update.
        for m in &self.ckt.mosfets {
            let (vg, vd, vs) = (v[m.gate.index()], v[m.drain.index()], v[m.source.index()]);
            let ss = m.device.evaluate(vg, vd, vs);
            // i_d(v) ≈ ss.id + gg·(vg'-vg) + gd·(vd'-vd) + gs·(vs'-vs)
            //        = [gg·vg' + gd·vd' + gs·vs'] + i_rhs
            let i_rhs = ss.id - ss.did_dvg * vg - ss.did_dvd * vd - ss.did_dvs * vs;
            let (ig, id_, is_) = (self.idx(m.gate), self.idx(m.drain), self.idx(m.source));
            // Current flows into drain, out of source.
            if let Some(d) = id_ {
                if let Some(g) = ig {
                    j.add_at(d, g, ss.did_dvg);
                }
                j.add_at(d, d, ss.did_dvd);
                if let Some(s) = is_ {
                    j.add_at(d, s, ss.did_dvs);
                }
                b[d] -= i_rhs;
            }
            if let Some(s_row) = is_ {
                if let Some(g) = ig {
                    j.add_at(s_row, g, -ss.did_dvg);
                }
                if let Some(d) = id_ {
                    j.add_at(s_row, d, -ss.did_dvd);
                }
                j.add_at(s_row, s_row, -ss.did_dvs);
                b[s_row] += i_rhs;
            }
        }
    }

    /// Stamps the *nonlinear* KCL residual `F(v, i_br)` at the given
    /// iterate into `r` — the RHS of the chord (quasi-Newton) system
    /// `J₀·δ = F` — without touching the Jacobian. For every linear
    /// element `F` is exact; for MOSFETs it is the true drain current, so
    /// a chord iterate accepted at `vtol` satisfies the same nonlinear
    /// KCL the full-Newton iterate does: reuse never degrades the
    /// converged answer, only (at worst) the iteration count. The chord
    /// step needs no derivatives, so MOSFETs are evaluated through
    /// [`FinFet::drain_current`], bit-identical to the `id` of a full
    /// [`FinFet::evaluate`] at a fraction of its cost.
    fn residual_into(
        &self,
        r: &mut [f64],
        v: &[f64],
        branch: &[f64],
        cap_comp: Option<&[(f64, f64)]>,
        time: f64,
        gmin: f64,
    ) {
        r.fill(0.0);

        for n in 1..self.n_nodes {
            r[n - 1] = gmin * v[n];
        }
        for res in &self.ckt.resistors {
            let i = res.conductance * (v[res.a.index()] - v[res.b.index()]);
            if let Some(a) = self.idx(res.a) {
                r[a] += i;
            }
            if let Some(b) = self.idx(res.b) {
                r[b] -= i;
            }
        }
        if let Some(comp) = cap_comp {
            for (c, &(geq, ieq)) in self.ckt.capacitors.iter().zip(comp) {
                let i = geq * (v[c.a.index()] - v[c.b.index()]) - ieq;
                if let Some(a) = self.idx(c.a) {
                    r[a] += i;
                }
                if let Some(b) = self.idx(c.b) {
                    r[b] -= i;
                }
            }
        }
        for s in &self.ckt.isources {
            let val = s.waveform.value(time);
            if let Some(f) = self.idx(s.from) {
                r[f] += val;
            }
            if let Some(t) = self.idx(s.to) {
                r[t] -= val;
            }
        }
        for (k, vs) in self.ckt.vsources.iter().enumerate() {
            let i_br = branch[k];
            if let Some(p) = self.idx(vs.pos) {
                r[p] += i_br;
            }
            if let Some(n) = self.idx(vs.neg) {
                r[n] -= i_br;
            }
            r[self.branch_idx(k)] = v[vs.pos.index()] - v[vs.neg.index()] - vs.volts;
        }
        for m in &self.ckt.mosfets {
            let id =
                m.device
                    .drain_current(v[m.gate.index()], v[m.drain.index()], v[m.source.index()]);
            if let Some(d) = self.idx(m.drain) {
                r[d] += id;
            }
            if let Some(s) = self.idx(m.source) {
                r[s] -= id;
            }
        }
    }

    /// Runs damped Newton from `v_guess`, returning node voltages (full,
    /// including ground), voltage-source branch currents, and the number
    /// of Newton iterations spent — the quantity warm-start callers use
    /// to measure their saving.
    fn newton(
        &self,
        v_guess: &[f64],
        cap_state: Option<(f64, &[f64])>,
        time: f64,
        opts: &NewtonOptions,
        gmin: f64,
        context: &str,
    ) -> Result<(Vec<f64>, Vec<f64>, usize), SpiceError> {
        let result = self.newton_inner(v_guess, cap_state, time, opts, gmin, context);
        // Flush the batched linear-solve counters exactly once per solve,
        // success or failure.
        let scratch = &mut *self.scratch.borrow_mut();
        if scratch.structured_solves > 0 {
            finrad_observe::counter_add(
                finrad_observe::keys::SPICE_LU_STRUCTURED,
                scratch.structured_solves,
            );
            scratch.structured_solves = 0;
        }
        if scratch.dense_fallbacks > 0 {
            finrad_observe::counter_add(
                finrad_observe::keys::SPICE_LU_DENSE_FALLBACKS,
                scratch.dense_fallbacks,
            );
            scratch.dense_fallbacks = 0;
        }
        if scratch.jacobian_reuses > 0 {
            finrad_observe::counter_add(
                finrad_observe::keys::SPICE_NEWTON_JACOBIAN_REUSES,
                scratch.jacobian_reuses,
            );
            scratch.jacobian_reuses = 0;
        }
        if scratch.refactorizations > 0 {
            finrad_observe::counter_add(
                finrad_observe::keys::SPICE_NEWTON_REFACTORIZATIONS,
                scratch.refactorizations,
            );
            scratch.refactorizations = 0;
        }
        result
    }

    fn newton_inner(
        &self,
        v_guess: &[f64],
        cap_state: Option<(f64, &[f64])>,
        time: f64,
        opts: &NewtonOptions,
        gmin: f64,
        context: &str,
    ) -> Result<(Vec<f64>, Vec<f64>, usize), SpiceError> {
        #[cfg(feature = "fault-injection")]
        if let Some(stall) = crate::fault::take_stall() {
            // Model a wedged solve: sleep, then fall through to the
            // cancellation poll below so deadlines fire deterministically.
            std::thread::sleep(stall);
        }
        // Cooperative cancellation: polled before the (expensive) iteration
        // starts, after any injected stall so a stalled solve notices its
        // expired deadline on wake-up.
        if let Some(reason) = crate::cancel::cancelled_reason() {
            finrad_observe::counter_add(finrad_observe::keys::SPICE_NEWTON_CANCELLED, 1);
            return Err(SpiceError::Cancelled {
                context: format!("{context} ({reason})"),
            });
        }
        #[cfg(feature = "fault-injection")]
        if crate::fault::take_nonconvergence() {
            return Err(SpiceError::NoConvergence {
                context: format!("{context} [injected fault]"),
                iterations: 0,
                last_delta: f64::INFINITY,
                worst_residual: f64::INFINITY,
                rungs: Vec::new(),
            });
        }

        let mut v = v_guess.to_vec();
        let mut branch = vec![0.0; self.ckt.vsource_count()];
        let mut last_delta = f64::INFINITY;
        finrad_observe::counter_add(finrad_observe::keys::SPICE_NEWTON_SOLVES, 1);
        let scratch = &mut *self.scratch.borrow_mut();

        // Hoist the backward-Euler companions: `geq = C/dt` and the
        // companion current depend only on `(dt, v_prev)`, fixed for the
        // whole solve, so they are computed once here instead of on every
        // Newton iteration.
        self.cap_companions_into(cap_state, &mut scratch.cap_comp);

        // Retained-factorization freshness across solves (and therefore
        // across transient steps): the factors are only reusable for the
        // same analysis kind and gmin, with dt within a fixed ratio of
        // the dt they were stamped at.
        let key = (
            cap_state.is_some(),
            cap_state.map_or(0.0, |(dt, _)| dt),
            gmin,
        );
        #[expect(
            clippy::float_cmp,
            reason = "the cached factors are reusable only at the exact gmin they were stamped at"
        )]
        let reusable = scratch.factored_key.is_some_and(|(tr, fdt, fg)| {
            tr == key.0
                && fg == key.2
                && (!tr
                    || (fdt <= key.1 * JACOBIAN_REUSE_DT_RATIO
                        && key.1 <= fdt * JACOBIAN_REUSE_DT_RATIO))
        });
        if !reusable {
            scratch.factored_key = None;
        }
        // Residual infinity-norm of the previous chord iteration, the
        // staleness signal: a retained Jacobian that stops contracting
        // the residual is refreshed.
        let mut prev_residual: Option<f64> = None;

        for iter in 0..opts.max_iter {
            // Quasi-Newton chord attempt: while the retained factorization
            // is fresh, restamp only the RHS (the true nonlinear residual)
            // and solve `J₀·δ = F` with the existing factors. Any
            // staleness signal — age over budget, residual-reduction-rate
            // collapse, or a failed triangular solve — falls through to
            // the full refactorization below, so convergence behavior is
            // never silently degraded.
            // Chord steps are transient-only: that is where the reuse pays
            // (tens of thousands of per-step factorizations), while DC
            // solves — warm-start dominated and pinned by bit-exact
            // accuracy tests — keep the classic full-Newton path.
            let mut chord_applied: Option<f64> = None;
            if key.0
                && scratch.factored_key.is_some()
                && scratch.jacobian_age < opts.max_jacobian_age
            {
                let SolverScratch {
                    structured,
                    r,
                    x,
                    cap_comp,
                    ..
                } = scratch;
                let comp = key.0.then_some(&cap_comp[..]);
                self.residual_into(r, &v, &branch, comp, time, gmin);
                let rnorm = r.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                let contracting = prev_residual.is_none_or(|p| rnorm <= CHORD_CONTRACTION * p);
                let solved = contracting
                    && structured
                        .as_ref()
                        .is_some_and(|slu| slu.solve_into(r, x).is_ok());
                if solved {
                    let delta = &scratch.x;
                    let mut max_applied = 0.0f64;
                    scratch.v_next[0] = 0.0;
                    for n in 1..self.n_nodes {
                        let step = (-delta[n - 1]).clamp(-opts.max_step, opts.max_step);
                        let clamped = (v[n] + step).clamp(opts.v_clamp.0, opts.v_clamp.1);
                        max_applied = max_applied.max((clamped - v[n]).abs());
                        scratch.v_next[n] = clamped;
                    }
                    for k in 0..branch.len() {
                        branch[k] -= delta[self.branch_idx(k)];
                    }
                    std::mem::swap(&mut v, &mut scratch.v_next);
                    scratch.jacobian_age += 1;
                    scratch.jacobian_reuses += 1;
                    scratch.structured_solves += 1;
                    prev_residual = Some(rnorm);
                    chord_applied = Some(max_applied);
                } else {
                    // Stale: force the full path this iteration.
                    scratch.factored_key = None;
                }
            }

            let max_applied = if let Some(applied) = chord_applied {
                applied
            } else {
                let SolverScratch {
                    structured,
                    j,
                    b,
                    x,
                    cap_comp,
                    ..
                } = scratch;
                let comp = key.0.then_some(&cap_comp[..]);
                self.assemble_into(j, b, &v, comp, time, gmin);

                // Linear solve: the structure-exploiting fixed-pattern LU when
                // its frozen pivot order is stable for this Jacobian, dense
                // partial pivoting otherwise (also the first iteration, which
                // picks the pivot order the structured path then freezes).
                // Either path leaves the new iterate in `scratch.x`.
                let numeric_factors_live = match structured.as_mut() {
                    Some(slu) => match slu.factor(j) {
                        Ok(()) => {
                            slu.solve_into(b, x).map_err(|_| SpiceError::Singular {
                                context: context.to_owned(),
                            })?;
                            true
                        }
                        Err(_) => false,
                    },
                    None => false,
                };
                if numeric_factors_live {
                    scratch.structured_solves += 1;
                } else {
                    scratch.dense_fallbacks += 1;
                    let lu =
                        LuFactors::factor(scratch.j.clone()).map_err(|_| SpiceError::Singular {
                            context: context.to_owned(),
                        })?;
                    let dense_x = lu.solve(&scratch.b).map_err(|_| SpiceError::Singular {
                        context: context.to_owned(),
                    })?;
                    scratch.x.copy_from_slice(&dense_x);
                    // (Re-)analyze the fixed pattern under the pivot order
                    // dense pivoting just proved stable, so subsequent
                    // iterations take the structured path.
                    let mask = self.stamp_mask();
                    scratch.structured = StructuredLu::analyze(&mask, lu.perm().to_vec()).ok();
                }
                let x = &scratch.x;
                scratch.refactorizations += 1;
                scratch.jacobian_age = 0;
                // The chord path may only reuse factors that numerically
                // exist: a dense-fallback iteration leaves the structured
                // LU analyzed but unfactored.
                scratch.factored_key = numeric_factors_live.then_some(key);
                prev_residual = None;

                // Extract, damp and clamp the update. Convergence is judged on
                // the *applied* change: a node parked at the voltage clamp (the
                // stand-in for junction clamping under mA-scale strike pulses)
                // is stationary and must count as converged even though the
                // unclamped Newton target lies beyond the rail.
                let mut max_applied = 0.0f64;
                scratch.v_next[0] = 0.0;
                for n in 1..self.n_nodes {
                    let target = x[n - 1];
                    let delta = target - v[n];
                    let damped = delta.clamp(-opts.max_step, opts.max_step);
                    let clamped = (v[n] + damped).clamp(opts.v_clamp.0, opts.v_clamp.1);
                    max_applied = max_applied.max((clamped - v[n]).abs());
                    scratch.v_next[n] = clamped;
                }
                for k in 0..branch.len() {
                    branch[k] = x[self.branch_idx(k)];
                }
                std::mem::swap(&mut v, &mut scratch.v_next);
                max_applied
            };
            last_delta = max_applied;
            // The first iterate whose applied update is below tolerance is
            // accepted — including iteration 0, so a warm start from an
            // already-solved state costs exactly one solve instead of the
            // two the old `iter > 0` guard forced on every step.
            if max_applied < opts.vtol {
                finrad_observe::counter_add(
                    finrad_observe::keys::SPICE_NEWTON_ITERATIONS,
                    iter as u64 + 1,
                );
                return Ok((v, branch, iter + 1));
            }
        }
        finrad_observe::counter_add(
            finrad_observe::keys::SPICE_NEWTON_ITERATIONS,
            opts.max_iter as u64,
        );
        finrad_observe::counter_add(finrad_observe::keys::SPICE_NEWTON_FAILURES, 1);
        Err(SpiceError::NoConvergence {
            context: context.to_owned(),
            iterations: opts.max_iter,
            last_delta,
            worst_residual: self.worst_residual(&v, &branch, cap_state, time, gmin),
            rungs: Vec::new(),
        })
    }

    /// Worst-node KCL residual `max |J·x − b|` of the linearized system at
    /// the given iterate — the actionable "how far from a solution were
    /// we" number attached to convergence failures.
    fn worst_residual(
        &self,
        v: &[f64],
        branch: &[f64],
        cap_state: Option<(f64, &[f64])>,
        time: f64,
        gmin: f64,
    ) -> f64 {
        let mut comp = Vec::new();
        self.cap_companions_into(cap_state, &mut comp);
        let (j, b) = self.assemble(v, cap_state.is_some().then_some(&comp[..]), time, gmin);
        let mut x = vec![0.0; self.dim];
        for (xn, &vn) in x.iter_mut().zip(v.iter().take(self.n_nodes).skip(1)) {
            *xn = vn;
        }
        for (k, &i) in branch.iter().enumerate() {
            x[self.branch_idx(k)] = i;
        }
        match j.mul_vec(&x) {
            Ok(jx) => jx
                .iter()
                .zip(&b)
                .map(|(a, r)| (a - r).abs())
                .fold(0.0, f64::max),
            Err(_) => f64::NAN,
        }
    }
}

/// Advances the transient solution from `t` to `t + dt`, recursively
/// halving the step (SPICE-style timestep rejection) when Newton fails —
/// the remedy for steps that straddle the cell's metastable transition.
///
/// Newton starts from `guess` (the previous state `v` when `None`); the
/// backward-Euler companion always uses `v`. Halved retries start from
/// the previous state.
///
/// The cascade is bounded twice: by `opts.max_step_halvings` and by the
/// absolute floor `opts.min_dt`. Hitting either bound fails with the
/// rejected step's full diagnostics (time, dt, depth, floor) attached to
/// the error instead of a context-free `NoConvergence`; every halving is
/// recorded in `trace`.
#[expect(
    clippy::too_many_arguments,
    reason = "one recursive step: state, guess, time, step, options, depth and trace"
)]
fn advance_step(
    asm: &Assembler<'_>,
    v: Vec<f64>,
    guess: Option<&[f64]>,
    t: f64,
    dt: f64,
    opts: &NewtonOptions,
    depth: u32,
    trace: &mut RecoveryTrace,
) -> Result<Vec<f64>, SpiceError> {
    match asm.newton(
        guess.unwrap_or(&v),
        Some((dt, &v)),
        t + dt,
        opts,
        opts.gmin,
        "transient step",
    ) {
        Ok((vn, _branch, _iters)) => Ok(vn),
        // Cancelled steps are never retried at a smaller dt: propagate.
        Err(e @ SpiceError::Cancelled { .. }) => Err(e),
        Err(e) => {
            let half = dt / 2.0;
            if depth >= opts.max_step_halvings || half < opts.min_dt {
                trace.record(
                    RecoveryRung::ReducedTimestep,
                    false,
                    format!(
                        "step rejected at t = {t:.6e} s: dt = {dt:.3e} s after {depth} \
                         halving(s), floor {:.3e} s, budget {}",
                        opts.min_dt, opts.max_step_halvings
                    ),
                );
                return Err(match e {
                    SpiceError::NoConvergence {
                        context,
                        iterations,
                        last_delta,
                        worst_residual,
                        ..
                    } => SpiceError::NoConvergence {
                        context: format!(
                            "{context} (t = {t:.6e} s, dt = {dt:.3e} s, {depth} halving(s), \
                             floor {:.3e} s)",
                            opts.min_dt
                        ),
                        iterations,
                        last_delta,
                        worst_residual,
                        rungs: vec![RecoveryRung::ReducedTimestep],
                    },
                    other => other,
                });
            }
            trace.record(
                RecoveryRung::ReducedTimestep,
                true,
                format!(
                    "halved dt to {half:.3e} s at t = {t:.6e} s (depth {})",
                    depth + 1
                ),
            );
            let mid = advance_step(asm, v, None, t, half, opts, depth + 1, trace)?;
            advance_step(asm, mid, None, t + half, half, opts, depth + 1, trace)
        }
    }
}

/// Marks the positions [`stamp_conductance`] would touch in a structural
/// mask (value 1.0 = structurally nonzero).
fn stamp_mask_conductance(m: &mut Matrix, ia: Option<usize>, ib: Option<usize>) {
    stamp_conductance(m, ia, ib, 1.0);
    // `stamp_conductance` writes -g off-diagonal; overwrite with the flag
    // value so the mask is uniformly 0/positive.
    if let (Some(a), Some(b)) = (ia, ib) {
        m[(a, b)] = 1.0;
        m[(b, a)] = 1.0;
    }
}

fn stamp_conductance(j: &mut Matrix, ia: Option<usize>, ib: Option<usize>, g: f64) {
    if let Some(a) = ia {
        j.add_at(a, a, g);
    }
    if let Some(b) = ib {
        j.add_at(b, b, g);
    }
    if let (Some(a), Some(b)) = (ia, ib) {
        j.add_at(a, b, -g);
        j.add_at(b, a, -g);
    }
}

/// Solves the DC operating point (capacitors open, sources at `t = 0`).
///
/// Robustness comes from g-min stepping: the network is first solved with a
/// large leak conductance to ground, which is then relaxed geometrically to
/// `opts.gmin`, warm-starting each stage from the previous solution.
///
/// # Errors
///
/// * [`SpiceError::InvalidElement`] for a degenerate netlist.
/// * [`SpiceError::NoConvergence`] / [`SpiceError::Singular`] if the final
///   g-min stage fails.
pub fn dc_operating_point(ckt: &Circuit, opts: &NewtonOptions) -> Result<OpPoint, SpiceError> {
    dc_operating_point_from(ckt, opts, &HashMap::new())
}

/// Like [`dc_operating_point`] but starting the Newton iteration from the
/// given node-voltage guesses — the way to select *which* stable state a
/// bistable circuit (like an SRAM cell) settles into.
///
/// # Errors
///
/// Same as [`dc_operating_point`].
pub fn dc_operating_point_from(
    ckt: &Circuit,
    opts: &NewtonOptions,
    guess: &HashMap<NodeId, f64>,
) -> Result<OpPoint, SpiceError> {
    dc_operating_point_with_recovery(ckt, opts, guess).map(|(op, _trace)| op)
}

/// Warm-started DC operating point: seeds Newton with `state`, a full
/// node-voltage vector (indexed by node id, entry 0 = ground) from an
/// already-solved near-identical circuit — e.g. the nominal-variation
/// operating point when solving a Monte-Carlo ΔVth sample.
///
/// Records `spice.newton.warm_starts` and the iterations the warm solve
/// actually spent under `spice.newton.warm_start_iterations`, so the
/// saving against cold starts is directly observable. If the warm solve
/// fails to converge, falls back to the full cold-start recovery ladder
/// seeded from the same state.
///
/// # Errors
///
/// Same as [`dc_operating_point`], after the fallback ladder is exhausted.
///
/// # Panics
///
/// Panics if `state` is shorter than the circuit's node count.
pub fn dc_operating_point_warm(
    ckt: &Circuit,
    opts: &NewtonOptions,
    state: &[f64],
) -> Result<OpPoint, SpiceError> {
    ckt.validate()?;
    assert!(
        state.len() >= ckt.node_count(),
        "warm-start state has {} entries for {} nodes",
        state.len(),
        ckt.node_count()
    );
    let asm = Assembler::new(ckt);
    match asm.newton(
        &state[..ckt.node_count()],
        None,
        0.0,
        opts,
        opts.gmin,
        "dc operating point (warm)",
    ) {
        Ok((vn, branch, iters)) => {
            finrad_observe::counter_add(finrad_observe::keys::SPICE_NEWTON_WARM_STARTS, 1);
            finrad_observe::counter_add(
                finrad_observe::keys::SPICE_NEWTON_WARM_ITERATIONS,
                iters as u64,
            );
            Ok(OpPoint {
                node_voltages: vn,
                vsource_currents: branch,
            })
        }
        Err(e @ SpiceError::Cancelled { .. }) => Err(e),
        Err(_) => {
            // Cold fallback: the state still selects the bistable basin.
            let guess: HashMap<NodeId, f64> = (0..ckt.node_count())
                .map(|i| (NodeId(i), state[i]))
                .collect();
            dc_operating_point_from(ckt, opts, &guess)
        }
    }
}

/// Like [`dc_operating_point_from`] but additionally returning the
/// [`RecoveryTrace`] of the convergence-recovery ladder: direct solve →
/// g-min stepping → source stepping (see [`crate::recovery`]). The trace
/// records every rung attempted, so callers and logs see what was retried
/// and why; when all rungs fail, the terminal
/// [`SpiceError::NoConvergence`] carries the attempted rungs.
///
/// # Errors
///
/// Same as [`dc_operating_point`], after all rungs are exhausted.
pub fn dc_operating_point_with_recovery(
    ckt: &Circuit,
    opts: &NewtonOptions,
    guess: &HashMap<NodeId, f64>,
) -> Result<(OpPoint, RecoveryTrace), SpiceError> {
    ckt.validate()?;
    let asm = Assembler::new(ckt);
    let mut trace = RecoveryTrace::new();
    let mut v0 = vec![0.0; ckt.node_count()];
    for (&node, &val) in guess {
        v0[node.index()] = val;
    }

    // Rung 1 — direct solve from the guess: preserves the basin of
    // attraction of bistable circuits (an SRAM cell's state); the rungs
    // below are fallbacks for cold starts, where the strong initial leak
    // or the supply ramp would wash the guess out.
    match asm.newton(&v0, None, 0.0, opts, opts.gmin, "dc operating point") {
        Ok((vn, branch, _iters)) => {
            trace.record(RecoveryRung::Direct, true, "converged from initial guess");
            return Ok((
                OpPoint {
                    node_voltages: vn,
                    vsource_currents: branch,
                },
                trace,
            ));
        }
        // Cancellation is not a convergence problem: no later rung may
        // retry a solve the supervisor asked us to abandon.
        Err(e @ SpiceError::Cancelled { .. }) => return Err(e),
        Err(e) => trace.record(RecoveryRung::Direct, false, e.to_string()),
    }

    // Rung 2 — g-min stepping: solve with a strong leak to ground, relax
    // it geometrically to opts.gmin, warm-starting each stage.
    let mut v = v0.clone();
    let mut result = None;
    let mut last_err: Option<SpiceError> = None;
    let mut gmin = 1.0e-3f64;
    let mut stages = 0u32;
    loop {
        gmin = gmin.max(opts.gmin);
        stages += 1;
        match asm.newton(
            &v,
            None,
            0.0,
            opts,
            gmin,
            "dc operating point (gmin stepping)",
        ) {
            Ok((vn, branch, _iters)) => {
                v = vn.clone();
                result = Some((vn, branch));
            }
            Err(e @ SpiceError::Cancelled { .. }) => return Err(e),
            Err(e) => {
                // A failed intermediate stage is tolerable; a failed final
                // stage fails the rung.
                if gmin <= opts.gmin {
                    result = None;
                    last_err = Some(e);
                }
            }
        }
        if gmin <= opts.gmin {
            break;
        }
        gmin *= 1.0e-3;
    }
    match result {
        Some((vn, branch)) => {
            trace.record(
                RecoveryRung::GminStepping,
                true,
                format!("converged after {stages} gmin stage(s)"),
            );
            return Ok((
                OpPoint {
                    node_voltages: vn,
                    vsource_currents: branch,
                },
                trace,
            ));
        }
        None => trace.record(
            RecoveryRung::GminStepping,
            false,
            last_err
                .as_ref()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "no stage converged".to_owned()),
        ),
    }

    // Rung 3 — source stepping: ramp every voltage source from 0 V to its
    // target in fixed fractions, warm-starting each step from the last.
    const RAMP_STEPS: usize = 8;
    let targets: Vec<f64> = ckt.vsources.iter().map(|s| s.volts).collect();
    let mut ramped = ckt.clone();
    let mut v = vec![0.0; ckt.node_count()];
    let mut last: Option<(Vec<f64>, Vec<f64>)> = None;
    let mut fail: Option<SpiceError> = None;
    for i in 1..=RAMP_STEPS {
        let alpha = i as f64 / RAMP_STEPS as f64;
        for (s, &t) in ramped.vsources.iter_mut().zip(&targets) {
            s.volts = t * alpha;
        }
        let asm_ramp = Assembler::new(&ramped);
        match asm_ramp.newton(
            &v,
            None,
            0.0,
            opts,
            opts.gmin,
            "dc operating point (source stepping)",
        ) {
            Ok((vn, branch, _iters)) => {
                v = vn.clone();
                last = Some((vn, branch));
            }
            Err(e @ SpiceError::Cancelled { .. }) => return Err(e),
            Err(e) => {
                trace.record(
                    RecoveryRung::SourceStepping,
                    false,
                    format!("ramp failed at {:.0}% supply: {e}", alpha * 100.0),
                );
                fail = Some(e);
                break;
            }
        }
    }
    if fail.is_none() {
        if let Some((vn, branch)) = last {
            trace.record(
                RecoveryRung::SourceStepping,
                true,
                format!("converged after {RAMP_STEPS}-step supply ramp"),
            );
            return Ok((
                OpPoint {
                    node_voltages: vn,
                    vsource_currents: branch,
                },
                trace,
            ));
        }
    }

    // Ladder exhausted: attach the attempted rungs to the terminal error.
    let rungs = trace.rungs_attempted();
    let terminal = fail.unwrap_or(SpiceError::NoConvergence {
        context: "dc operating point (source stepping)".to_owned(),
        iterations: opts.max_iter,
        last_delta: f64::NAN,
        worst_residual: f64::NAN,
        rungs: Vec::new(),
    });
    Err(match terminal {
        SpiceError::NoConvergence {
            context,
            iterations,
            last_delta,
            worst_residual,
            ..
        } => SpiceError::NoConvergence {
            context,
            iterations,
            last_delta,
            worst_residual,
            rungs,
        },
        other => other,
    })
}

/// One fixed-timestep phase of a transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Duration of the phase, seconds.
    pub duration: f64,
    /// Timestep within the phase, seconds.
    pub dt: f64,
}

/// A multi-phase timestep plan: fine steps around the pulse, coarse steps
/// for the settling tail.
///
/// A phase is either *fixed* — stepped on the exact derived grid
/// `phase_start + i·dt`, bit-reproducible — or *adaptive* — started at
/// the phase's `dt` and controlled by the backward-Euler local
/// truncation-error estimate, which grows the step geometrically over
/// smooth stretches (see [`TimeStepPlan::with_adaptive_phase`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeStepPlan {
    phases: Vec<Phase>,
    adaptive: Vec<bool>,
}

impl TimeStepPlan {
    /// Builds a plan from `(duration, dt)` phases; every phase steps on
    /// the exact fixed grid.
    ///
    /// # Panics
    ///
    /// Panics if any duration or dt is not strictly positive, or no phase
    /// is given.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        for p in &phases {
            assert!(
                p.duration > 0.0 && p.dt > 0.0 && p.dt <= p.duration,
                "invalid phase {p:?}"
            );
        }
        let adaptive = vec![false; phases.len()];
        Self { phases, adaptive }
    }

    /// Marks phase `index` as LTE-adaptive: its `dt` becomes the starting
    /// (and minimum controller) step, doubled while the local
    /// truncation-error estimate stays below tolerance, capped at a fixed
    /// multiple, and always clamped so no step crosses the phase
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn with_adaptive_phase(mut self, index: usize) -> Self {
        assert!(index < self.phases.len(), "phase index out of range");
        self.adaptive[index] = true;
        self
    }

    /// Whether phase `index` is LTE-adaptive.
    pub fn phase_adaptive(&self, index: usize) -> bool {
        self.adaptive.get(index).copied().unwrap_or(false)
    }

    /// A plan suited to SRAM upset simulation: resolves a pulse of width
    /// `pulse_width` starting at `pulse_start` with ~8 steps across it on
    /// an exact fixed grid (so waveform sampling and a caller's early
    /// exit stay bit-reproducible), then relaxes over `settle`
    /// under LTE-adaptive stepping seeded with the coarse tail dt.
    pub fn for_pulse(pulse_start: f64, pulse_width: f64, settle: f64) -> Self {
        let fine_dt = (pulse_width / 8.0).max(1.0e-16);
        let fine_span = pulse_start + pulse_width * 2.0;
        Self::new(vec![
            Phase {
                duration: fine_span,
                dt: fine_dt,
            },
            Phase {
                duration: settle,
                dt: (settle / 400.0).max(fine_dt),
            },
        ])
        .with_adaptive_phase(1)
    }

    /// Total simulated time.
    pub fn total_time(&self) -> f64 {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// The phases of the plan.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }
}

/// Runs a transient simulation from explicit initial node voltages
/// (SPICE's `UIC` mode): capacitor state starts at the given voltages and
/// no DC operating point is computed first. Nodes absent from
/// `initial_conditions` start at 0 V.
///
/// `probes` selects which node voltages are recorded at every step.
///
/// # Errors
///
/// Propagates Newton failures ([`SpiceError::NoConvergence`],
/// [`SpiceError::Singular`]) and netlist validation errors.
pub fn transient(
    ckt: &Circuit,
    plan: &TimeStepPlan,
    initial_conditions: &HashMap<NodeId, f64>,
    probes: &[NodeId],
    opts: &NewtonOptions,
) -> Result<TransientResult, SpiceError> {
    transient_with_trace(ckt, plan, initial_conditions, probes, opts).map(|(res, _trace)| res)
}

/// Like [`transient`] but additionally returning the [`RecoveryTrace`] of
/// timestep rejections: every halving (and the terminal rejection, if the
/// halving cascade hits `opts.max_step_halvings` or the `opts.min_dt`
/// floor) is recorded, so callers see which steps were retried instead of
/// silent recursive halving.
///
/// # Errors
///
/// Same as [`transient`].
pub fn transient_with_trace(
    ckt: &Circuit,
    plan: &TimeStepPlan,
    initial_conditions: &HashMap<NodeId, f64>,
    probes: &[NodeId],
    opts: &NewtonOptions,
) -> Result<(TransientResult, RecoveryTrace), SpiceError> {
    let mut v = vec![0.0; ckt.node_count()];
    for (&node, &val) in initial_conditions {
        v[node.index()] = val;
    }
    run_transient(ckt, plan, v, probes, opts, None).map(|(res, trace, _stopped)| (res, trace))
}

/// Like [`transient`] but starting from a full node-voltage vector
/// (indexed by node id, entry 0 = ground) — typically a solved
/// [`OpPoint::node_voltages`], so the run begins from the true pre-strike
/// operating point instead of idealized rail voltages.
///
/// # Errors
///
/// Same as [`transient`].
///
/// # Panics
///
/// Panics if `state` is shorter than the circuit's node count.
pub fn transient_from_state(
    ckt: &Circuit,
    plan: &TimeStepPlan,
    state: &[f64],
    probes: &[NodeId],
    opts: &NewtonOptions,
) -> Result<TransientResult, SpiceError> {
    assert!(
        state.len() >= ckt.node_count(),
        "initial state has {} entries for {} nodes",
        state.len(),
        ckt.node_count()
    );
    run_transient(
        ckt,
        plan,
        state[..ckt.node_count()].to_vec(),
        probes,
        opts,
        None,
    )
    .map(|(res, _trace, _stopped)| res)
}

/// Like [`transient_from_state`], but consulting `stop` after every
/// accepted step: when it returns `true` the remaining plan is skipped and
/// the result ends at that sample. Returns the result and whether the run
/// was cut short.
///
/// The predicate sees the timestamp and the full node-voltage vector of
/// the accepted step. It is the hook for settle-phase early exits in
/// critical-charge searches: once the flip verdict is decided,
/// simulating the rest of the tail adds nothing but wall time.
///
/// # Errors
///
/// Same as [`transient`].
///
/// # Panics
///
/// Panics if `state` is shorter than the circuit's node count.
pub fn transient_until(
    ckt: &Circuit,
    plan: &TimeStepPlan,
    state: &[f64],
    probes: &[NodeId],
    opts: &NewtonOptions,
    mut stop: impl FnMut(f64, &[f64]) -> bool,
) -> Result<(TransientResult, bool), SpiceError> {
    assert!(
        state.len() >= ckt.node_count(),
        "initial state has {} entries for {} nodes",
        state.len(),
        ckt.node_count()
    );
    run_transient(
        ckt,
        plan,
        state[..ckt.node_count()].to_vec(),
        probes,
        opts,
        Some(&mut stop),
    )
    .map(|(res, _trace, stopped)| (res, stopped))
}

/// Early-stop predicate of [`run_transient`]: called with each accepted
/// time point and its node voltages; `true` ends the run there.
type StopPredicate<'a> = &'a mut dyn FnMut(f64, &[f64]) -> bool;

/// Shared transient driver.
///
/// Timestamps are derived, not accumulated: step `i` of a phase runs from
/// `phase_start + i·dt`, and a phase whose duration is not an integer
/// multiple of `dt` gets an explicit remainder step, so the simulated
/// horizon equals the plan's horizon exactly and timestamps carry no
/// accumulated floating-point drift. (The retired implementation rounded
/// `duration/dt` to a step count and summed `t += dt`, silently stretching
/// or truncating non-conforming phases.)
fn run_transient(
    ckt: &Circuit,
    plan: &TimeStepPlan,
    mut v: Vec<f64>,
    probes: &[NodeId],
    opts: &NewtonOptions,
    mut stop: Option<StopPredicate<'_>>,
) -> Result<(TransientResult, RecoveryTrace, bool), SpiceError> {
    ckt.validate()?;
    let asm = Assembler::new(ckt);
    let mut trace = RecoveryTrace::new();

    let mut result = TransientResult::new(
        probes
            .iter()
            .map(|&n| Probe {
                node: n,
                name: ckt.node_name(n).to_owned(),
            })
            .collect(),
    );
    result.push_sample(0.0, probes.iter().map(|&n| v[n.index()]));

    let mut stopped = false;
    let mut lte_growths = 0u64;
    let mut phase_start = 0.0f64;
    // Newton starts each step from the linear extrapolation `v + der·h`
    // of the phase's last accepted step (`der = (v − v_old)/h_old`),
    // clamped to `v_clamp`: on the fixed grid that is `2v − v_prev`. A
    // phase's first step starts from `v`.
    let mut v_old = vec![0.0; v.len()];
    let mut der = vec![0.0; v.len()];
    let mut guess = vec![0.0; v.len()];
    let predict = |guess: &mut [f64], v: &[f64], der: &[f64], h: f64| {
        for (g, (x, d)) in guess.iter_mut().zip(v.iter().zip(der)) {
            *g = (x + d * h).clamp(opts.v_clamp.0, opts.v_clamp.1);
        }
    };
    let slope = |der: &mut [f64], v: &[f64], v_old: &[f64], h: f64| {
        for (d, (a, b)) in der.iter_mut().zip(v.iter().zip(v_old)) {
            *d = (a - b) / h;
        }
    };
    'phases: for (pi, phase) in plan.phases().iter().enumerate() {
        der.fill(0.0);
        if plan.phase_adaptive(pi) {
            // LTE-controlled phase. `dt` starts at the phase's base step
            // and doubles while the backward-Euler truncation-error
            // estimate `½·h·max_n |v̇_n − v̇_n⁻|` stays below tolerance;
            // the estimate exceeding tolerance (or a Newton rejection,
            // which shows up as recorded timestep halvings) folds it back
            // toward the base step. Steps never cross the phase boundary:
            // the last one is clamped to land on it exactly.
            let phase_end = phase_start + phase.duration;
            let dt_max = phase.dt * LTE_MAX_GROWTH;
            let mut dt = phase.dt;
            let mut t = phase_start;
            let mut der_prev: Vec<f64> = Vec::new();
            while phase_end - t > phase.dt * 1.0e-9 {
                let h = dt.min(phase_end - t);
                v_old.copy_from_slice(&v);
                predict(&mut guess, &v, &der, h);
                let rejections_before = trace.attempts().len() + trace.suppressed();
                v = advance_step(&asm, v, Some(&guess), t, h, opts, 0, &mut trace)?;
                let t1 = if phase_end - (t + h) <= phase.dt * 1.0e-9 {
                    phase_end
                } else {
                    t + h
                };
                result.push_sample(t1, probes.iter().map(|&n| v[n.index()]));
                if let Some(stop) = stop.as_deref_mut() {
                    if stop(t1, &v) {
                        stopped = true;
                        break 'phases;
                    }
                }
                slope(&mut der, &v, &v_old, h);
                if trace.attempts().len() + trace.suppressed() > rejections_before {
                    // The step-halving rejection path is the shrink side
                    // of this controller: a step Newton had to cut up is
                    // evidence dt outran the dynamics.
                    dt = phase.dt;
                } else if !der_prev.is_empty() {
                    let max_dd = der
                        .iter()
                        .zip(&der_prev)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0f64, f64::max);
                    let est = 0.5 * h * max_dd;
                    if est > LTE_TOL_VOLTS && dt > phase.dt {
                        dt = (0.5 * dt).max(phase.dt);
                    } else if est < LTE_GROW_MARGIN * LTE_TOL_VOLTS && dt < dt_max && h >= dt {
                        dt = (2.0 * dt).min(dt_max);
                        lte_growths += 1;
                    }
                }
                der_prev.clear();
                der_prev.extend_from_slice(&der);
                t = t1;
            }
        } else {
            let n_full = (phase.duration / phase.dt).floor() as usize;
            let remainder = phase.duration - n_full as f64 * phase.dt;
            // Sub-ppb leftovers are quantization noise of `duration/dt`,
            // not a real remainder step.
            let has_remainder = remainder > phase.dt * 1.0e-9;
            let phase_end = phase_start + phase.duration;
            // `(t0, h, t1)` of every step: the full steps on the derived
            // grid, then the remainder step, the last landing on the
            // phase end exactly.
            let full = (0..n_full).map(|i| {
                let t0 = phase_start + i as f64 * phase.dt;
                let t1 = if i + 1 == n_full && !has_remainder {
                    phase_end
                } else {
                    phase_start + (i + 1) as f64 * phase.dt
                };
                (t0, phase.dt, t1)
            });
            let rest = has_remainder.then_some((
                phase_start + n_full as f64 * phase.dt,
                remainder,
                phase_end,
            ));
            for (t0, h, t1) in full.chain(rest) {
                v_old.copy_from_slice(&v);
                predict(&mut guess, &v, &der, h);
                v = advance_step(&asm, v, Some(&guess), t0, h, opts, 0, &mut trace)?;
                result.push_sample(t1, probes.iter().map(|&n| v[n.index()]));
                if let Some(stop) = stop.as_deref_mut() {
                    if stop(t1, &v) {
                        stopped = true;
                        break 'phases;
                    }
                }
                slope(&mut der, &v, &v_old, h);
            }
        }
        phase_start += phase.duration;
    }
    if lte_growths > 0 {
        finrad_observe::counter_add(
            finrad_observe::keys::SPICE_TRANSIENT_LTE_STEP_GROWTHS,
            lte_growths,
        );
    }
    result.set_final_voltages(v);
    Ok((result, trace, stopped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;
    use finrad_finfet::{FinFet, Polarity, Technology};
    use finrad_units::Charge;

    fn opts() -> NewtonOptions {
        NewtonOptions::default()
    }

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.add_vsource(vin, Circuit::GROUND, 1.2);
        ckt.add_resistor(vin, mid, 2.0e3);
        ckt.add_resistor(mid, Circuit::GROUND, 1.0e3);
        let op = dc_operating_point(&ckt, &opts()).unwrap();
        assert!((op.voltage(mid) - 0.4).abs() < 1e-9);
        assert!((op.voltage(vin) - 1.2).abs() < 1e-9);
        // Source current: 1.2 V over 3 kΩ, flowing out of + terminal =>
        // negative through-source convention current.
        assert!((op.vsource_current(0).abs() - 0.4e-3).abs() < 1e-9);
    }

    #[test]
    fn cancelled_token_aborts_solve_with_typed_error() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.add_vsource(vin, Circuit::GROUND, 1.2);
        ckt.add_resistor(vin, mid, 2.0e3);
        ckt.add_resistor(mid, Circuit::GROUND, 1.0e3);

        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let guard = crate::cancel::install_scoped(&token);
        let err = dc_operating_point(&ckt, &opts()).unwrap_err();
        match err {
            SpiceError::Cancelled { context } => {
                assert!(context.contains("cancelled"), "context: {context}")
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        drop(guard);

        // Detached, the same circuit solves normally again.
        assert!(dc_operating_point(&ckt, &opts()).is_ok());
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add_resistor(out, Circuit::GROUND, 1.0e3);
        ckt.add_isource(Circuit::GROUND, out, SourceWaveform::Dc(1.0e-3));
        let op = dc_operating_point(&ckt, &opts()).unwrap();
        assert!((op.voltage(out) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nmos_inverter_dc_transfer() {
        // NMOS with resistive load: out high when gate low, low when high.
        let tech = Technology::soi_finfet_14nm();
        let build = |vgate: f64| {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let g = ckt.node("g");
            let d = ckt.node("d");
            ckt.add_vsource(vdd, Circuit::GROUND, 0.8);
            ckt.add_vsource(g, Circuit::GROUND, vgate);
            ckt.add_resistor(vdd, d, 50.0e3);
            ckt.add_mosfet(d, g, Circuit::GROUND, FinFet::new(&tech, Polarity::Nmos, 1));
            let op = dc_operating_point(&ckt, &opts()).unwrap();
            op.voltage(d)
        };
        let out_low_gate = build(0.0);
        let out_high_gate = build(0.8);
        assert!(out_low_gate > 0.7, "out {out_low_gate}");
        assert!(out_high_gate < 0.2, "out {out_high_gate}");
    }

    #[test]
    fn cmos_inverter_rails() {
        let tech = Technology::soi_finfet_14nm();
        let build = |vin: f64| {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let a = ckt.node("a");
            let y = ckt.node("y");
            ckt.add_vsource(vdd, Circuit::GROUND, 0.8);
            ckt.add_vsource(a, Circuit::GROUND, vin);
            ckt.add_mosfet(y, a, Circuit::GROUND, FinFet::new(&tech, Polarity::Nmos, 1));
            ckt.add_mosfet(y, a, vdd, FinFet::new(&tech, Polarity::Pmos, 1));
            let op = dc_operating_point(&ckt, &opts()).unwrap();
            op.voltage(y)
        };
        assert!(build(0.0) > 0.78);
        assert!(build(0.8) < 0.02);
        // Transition region: output between rails at mid input.
        let mid = build(0.4);
        assert!(mid > 0.05 && mid < 0.78, "mid {mid}");
    }

    #[test]
    fn rc_discharge_matches_analytic() {
        // 1 kΩ || 1 pF from 1 V: v(t) = e^{-t/RC}.
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add_resistor(n, Circuit::GROUND, 1.0e3);
        ckt.add_capacitor(n, Circuit::GROUND, 1.0e-12);
        let tau = 1.0e-9;
        let plan = TimeStepPlan::new(vec![Phase {
            duration: 2.0 * tau,
            dt: tau / 2000.0,
        }]);
        let mut ic = HashMap::new();
        ic.insert(n, 1.0);
        let res = transient(&ckt, &plan, &ic, &[n], &opts()).unwrap();
        let (t_end, v_end) = res.last_sample(0).unwrap();
        let expect = (-t_end / tau).exp();
        assert!(
            (v_end - expect).abs() < 5e-3,
            "v({t_end}) = {v_end} vs {expect}"
        );
    }

    #[test]
    fn rc_charge_through_pulse() {
        // Rectangular current pulse into a capacitor: ΔV = Q/C.
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add_capacitor(n, Circuit::GROUND, 1.0e-15);
        // Tiny leak so the matrix is well-conditioned.
        ckt.add_resistor(n, Circuit::GROUND, 1.0e12);
        let q = 0.2e-15; // 0.2 fC into 1 fF => 0.2 V
        ckt.add_isource(
            Circuit::GROUND,
            n,
            SourceWaveform::rectangular_charge(Charge::from_coulombs(q), 1.0e-14, 1.0e-14),
        );
        let plan = TimeStepPlan::new(vec![Phase {
            duration: 5.0e-14,
            dt: 2.5e-16,
        }]);
        let res = transient(&ckt, &plan, &HashMap::new(), &[n], &opts()).unwrap();
        let (_t, v_end) = res.last_sample(0).unwrap();
        assert!((v_end - 0.2).abs() < 0.01, "v_end {v_end}");
    }

    /// A CMOS inverter holding its output high with a strike-like current
    /// pulse pulling the output down — the smallest circuit exercising
    /// both transient phases (fixed strike window + settling tail) the
    /// SRAM characterization uses.
    fn struck_inverter() -> (Circuit, NodeId, HashMap<NodeId, f64>) {
        let tech = Technology::soi_finfet_14nm();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        let y = ckt.node("y");
        ckt.add_vsource(vdd, Circuit::GROUND, 0.8);
        ckt.add_vsource(a, Circuit::GROUND, 0.0);
        ckt.add_mosfet(y, a, Circuit::GROUND, FinFet::new(&tech, Polarity::Nmos, 1));
        ckt.add_mosfet(y, a, vdd, FinFet::new(&tech, Polarity::Pmos, 1));
        ckt.add_capacitor(y, Circuit::GROUND, 0.5e-15);
        ckt.add_isource(
            y,
            Circuit::GROUND,
            SourceWaveform::rectangular_charge(Charge::from_coulombs(1.0e-16), 2.0e-15, 1.6e-14),
        );
        let mut ic = HashMap::new();
        ic.insert(vdd, 0.8);
        ic.insert(y, 0.8);
        (ckt, y, ic)
    }

    #[test]
    fn adaptive_settle_matches_fixed_grid_reference() {
        let (ckt, y, ic) = struck_inverter();
        let phases = vec![
            Phase {
                duration: 3.2e-14,
                dt: 2.0e-15,
            },
            Phase {
                duration: 5.0e-12,
                dt: 1.25e-14,
            },
        ];
        let fixed = TimeStepPlan::new(phases.clone());
        let adaptive = TimeStepPlan::new(phases).with_adaptive_phase(1);
        let rf = transient(&ckt, &fixed, &ic, &[y], &opts()).unwrap();
        let ra = transient(&ckt, &adaptive, &ic, &[y], &opts()).unwrap();
        let (tf, vf) = rf.last_sample(0).unwrap();
        let (ta, va) = ra.last_sample(0).unwrap();
        // Both runs land exactly on the plan's end time; the adaptive
        // trajectory must settle to the same recovered output.
        assert_eq!(tf.to_bits(), ta.to_bits());
        assert!(
            (vf - va).abs() < 0.02,
            "fixed-grid {vf} vs adaptive {va} at t = {tf}"
        );
    }

    #[test]
    fn adaptive_steps_never_cross_phase_boundary_or_strike_window() {
        let (ckt, y, ic) = struck_inverter();
        let fine = Phase {
            duration: 3.2e-14,
            dt: 2.0e-15,
        };
        let settle = Phase {
            duration: 5.0e-12,
            dt: 1.25e-14,
        };
        let plan = TimeStepPlan::new(vec![fine, settle]).with_adaptive_phase(1);
        let res = transient(&ckt, &plan, &ic, &[y], &opts()).unwrap();
        let times = res.times();

        // The strike window steps on the exact fixed grid: every sample
        // timestamp is bit-identical to its `(i+1)·dt` grid point, so
        // waveform sampling inside the pulse stays reproducible no matter
        // what the settle controller does.
        let n_fine = (fine.duration / fine.dt).floor() as usize;
        assert_eq!(times[0].to_bits(), 0.0f64.to_bits(), "initial sample");
        for i in 0..n_fine {
            let expect = if i + 1 == n_fine {
                fine.duration
            } else {
                (i + 1) as f64 * fine.dt
            };
            assert_eq!(
                times[i + 1].to_bits(),
                expect.to_bits(),
                "fine sample {i}: {} vs {expect}",
                times[i + 1]
            );
        }

        // Adaptive samples stay strictly inside their phase, never exceed
        // the growth cap, and the run ends exactly on the plan's end.
        let end = fine.duration + settle.duration;
        let mut prev = fine.duration;
        for &t in &times[n_fine + 1..] {
            assert!(
                t > fine.duration && t <= end,
                "adaptive sample {t} escaped its phase"
            );
            let h = t - prev;
            assert!(
                h > 0.0 && h <= settle.dt * LTE_MAX_GROWTH * (1.0 + 1.0e-9),
                "adaptive step {h} outside [0, cap]"
            );
            prev = t;
        }
        assert_eq!(times.last().unwrap().to_bits(), end.to_bits());
    }

    #[test]
    fn zero_jacobian_age_is_full_newton() {
        let (ckt, y, ic) = struck_inverter();
        let full = NewtonOptions {
            max_jacobian_age: 0,
            ..opts()
        };
        // Chord iterations served over 40 strike steps, read from the
        // solver's unflushed counters.
        let chord_steps = |newton: &NewtonOptions| {
            let asm = Assembler::new(&ckt);
            let mut v = vec![0.0; ckt.node_count()];
            for (&node, &val) in &ic {
                v[node.index()] = val;
            }
            let dt = 2.0e-15;
            for i in 0..40 {
                let (vn, _, _) = asm
                    .newton_inner(
                        &v,
                        Some((dt, &v)),
                        (i + 1) as f64 * dt,
                        newton,
                        newton.gmin,
                        "t",
                    )
                    .unwrap();
                v = vn;
            }
            let scratch = asm.scratch.borrow();
            (scratch.jacobian_reuses, scratch.refactorizations)
        };
        let (reuses, refactorizations) = chord_steps(&full);
        assert_eq!(reuses, 0, "a zero staleness budget served a chord step");
        assert!(refactorizations >= 40);
        assert!(
            chord_steps(&opts()).0 > 0,
            "the default budget serves chord steps"
        );

        // The full-Newton waveform, bit for bit: sample times and the
        // struck node's voltage folded into FNV-1a.
        let plan = TimeStepPlan::new(vec![
            Phase {
                duration: 3.2e-14,
                dt: 2.0e-15,
            },
            Phase {
                duration: 1.0e-12,
                dt: 1.25e-14,
            },
        ])
        .with_adaptive_phase(1);
        let res = transient(&ckt, &plan, &ic, &[y], &full).unwrap();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for x in res.times().iter().chain(res.trace(0)) {
            for byte in x.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(
            (res.times().len(), hash),
            (26, 0x0f1c_c705_af63_f34a),
            "the full-Newton waveform moved"
        );
    }

    #[test]
    fn nonconvergence_is_reported_not_hung() {
        // A pathological circuit: voltage source loop fighting itself is
        // caught by validation instead.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource(a, a, 1.0);
        assert!(matches!(
            dc_operating_point(&ckt, &opts()),
            Err(SpiceError::InvalidElement(_))
        ));
    }

    #[test]
    fn random_resistive_networks_satisfy_kirchhoff() {
        // Random ladder/mesh networks: the DC solution must satisfy KCL at
        // every non-source node (checked by reassembling branch currents).
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for trial in 0..20 {
            let n_nodes = 3 + (trial % 5);
            let mut ckt = Circuit::new();
            let nodes: Vec<_> = (0..n_nodes).map(|i| ckt.node(&format!("n{i}"))).collect();
            ckt.add_vsource(nodes[0], Circuit::GROUND, 1.0 + next());
            // Chain guaranteeing connectivity, plus random extra edges.
            let mut edges = Vec::new();
            for w in 0..(n_nodes - 1) {
                edges.push((nodes[w], nodes[w + 1], 100.0 + 1.0e4 * next()));
            }
            edges.push((nodes[n_nodes - 1], Circuit::GROUND, 500.0 + 1.0e3 * next()));
            for _ in 0..n_nodes {
                let a = nodes[(next() * n_nodes as f64) as usize % n_nodes];
                let b = nodes[(next() * n_nodes as f64) as usize % n_nodes];
                if a != b {
                    edges.push((a, b, 50.0 + 2.0e4 * next()));
                }
            }
            for &(a, b, r) in &edges {
                ckt.add_resistor(a, b, r);
            }
            let op = dc_operating_point(&ckt, &opts()).unwrap();
            // KCL at each non-driven node.
            for &node in &nodes[1..] {
                let mut sum = 0.0;
                for &(a, b, r) in &edges {
                    if a == node {
                        sum += (op.voltage(a) - op.voltage(b)) / r;
                    } else if b == node {
                        sum += (op.voltage(b) - op.voltage(a)) / r;
                    }
                }
                assert!(sum.abs() < 1e-9, "trial {trial}: KCL residual {sum}");
            }
        }
    }

    #[test]
    fn nonconvergence_error_carries_context() {
        // Starve the iteration budget to exercise the failure path.
        let tech = Technology::soi_finfet_14nm();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        let y = ckt.node("y");
        ckt.add_vsource(vdd, Circuit::GROUND, 0.8);
        ckt.add_vsource(a, Circuit::GROUND, 0.4);
        ckt.add_mosfet(y, a, Circuit::GROUND, FinFet::new(&tech, Polarity::Nmos, 1));
        ckt.add_mosfet(y, a, vdd, FinFet::new(&tech, Polarity::Pmos, 1));
        let starved = NewtonOptions {
            max_iter: 1,
            ..NewtonOptions::default()
        };
        match dc_operating_point(&ckt, &starved) {
            Err(SpiceError::NoConvergence { context, .. }) => {
                assert!(context.contains("dc operating point"));
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn series_vsource_current_consistent() {
        // Two sources in a loop with a resistor: the branch currents of
        // both sources must match the Ohm's-law loop current.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(a, Circuit::GROUND, 2.0);
        ckt.add_vsource(b, Circuit::GROUND, 0.5);
        ckt.add_resistor(a, b, 1.0e3);
        let op = dc_operating_point(&ckt, &opts()).unwrap();
        let i_loop = (2.0 - 0.5) / 1.0e3;
        // Current flows out of the + terminal of source A through R into B.
        assert!((op.vsource_current(0) + i_loop).abs() < 1e-9);
        assert!((op.vsource_current(1) - i_loop).abs() < 1e-9);
    }

    #[test]
    fn capacitive_divider_transient() {
        // Charge injected into two series caps divides by capacitance:
        // dV across each is Q/C.
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let mid = ckt.node("mid");
        ckt.add_capacitor(top, mid, 1.0e-15);
        ckt.add_capacitor(mid, Circuit::GROUND, 3.0e-15);
        ckt.add_resistor(top, Circuit::GROUND, 1.0e15); // leak for matrix rank
        ckt.add_resistor(mid, Circuit::GROUND, 1.0e15);
        let q = 0.4e-15;
        ckt.add_isource(
            Circuit::GROUND,
            top,
            SourceWaveform::rectangular_charge(Charge::from_coulombs(q), 0.0, 1.0e-14),
        );
        let plan = TimeStepPlan::new(vec![Phase {
            duration: 1.2e-14,
            dt: 1.0e-16,
        }]);
        let res = transient(&ckt, &plan, &HashMap::new(), &[top, mid], &opts()).unwrap();
        let v_top = res.final_voltage(top);
        let v_mid = res.final_voltage(mid);
        // Series combination 0.75 fF sees 0.4 fC => 0.533 V at top;
        // mid node: Q/C2 = 0.133 V.
        assert!((v_top - q / 0.75e-15).abs() < 0.01, "v_top {v_top}");
        assert!((v_mid - q / 3.0e-15).abs() < 0.01, "v_mid {v_mid}");
    }

    #[test]
    fn set_vsource_voltage_retargets() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource(a, Circuit::GROUND, 1.0);
        ckt.add_resistor(a, Circuit::GROUND, 1.0e3);
        ckt.set_vsource_voltage(a, 0.25);
        let op = dc_operating_point(&ckt, &opts()).unwrap();
        assert!((op.voltage(a) - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no ground-referenced source")]
    fn set_vsource_voltage_requires_existing_source() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_resistor(a, Circuit::GROUND, 1.0e3);
        ckt.set_vsource_voltage(a, 0.5);
    }

    #[test]
    fn plan_construction() {
        let plan = TimeStepPlan::for_pulse(1.0e-14, 1.5e-14, 2.0e-11);
        assert!(plan.total_time() > 2.0e-11);
        assert_eq!(plan.phases().len(), 2);
        assert!(plan.phases()[0].dt < plan.phases()[1].dt);
    }

    #[test]
    #[should_panic(expected = "invalid phase")]
    fn plan_rejects_bad_phase() {
        let _ = TimeStepPlan::new(vec![Phase {
            duration: 1.0,
            dt: 0.0,
        }]);
    }

    #[test]
    fn non_integer_phase_simulates_exact_horizon() {
        // Regression: duration = 1.05e-9 with dt = 1e-10 used to round to
        // 10 steps (1.0e-9 simulated — wrong horizon) or 11 (1.1e-9).
        // Now: 10 full steps + one explicit 0.05e-9 remainder step, and
        // the last timestamp equals the plan horizon exactly.
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add_resistor(n, Circuit::GROUND, 1.0e3);
        ckt.add_capacitor(n, Circuit::GROUND, 1.0e-12);
        let plan = TimeStepPlan::new(vec![Phase {
            duration: 1.05e-9,
            dt: 1.0e-10,
        }]);
        let mut ic = HashMap::new();
        ic.insert(n, 1.0);
        let res = transient(&ckt, &plan, &ic, &[n], &opts()).unwrap();
        let (t_end, v_end) = res.last_sample(0).unwrap();
        assert_eq!(t_end, 1.05e-9, "horizon must be honored exactly");
        // RC decay over the full horizon (tau = 1 ns), backward Euler is
        // first-order so allow a generous band.
        let expect = (-1.05e-9f64 / 1.0e-9).exp();
        assert!((v_end - expect).abs() < 0.05, "v_end {v_end} vs {expect}");
        // 1 initial sample + 10 full + 1 remainder.
        assert_eq!(res.times().len(), 12);
    }

    #[test]
    fn timestamps_derived_not_accumulated() {
        // With dt = 0.1 ns (not exactly representable), summed timestamps
        // drift; derived ones hit i*dt to the last ulp.
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add_resistor(n, Circuit::GROUND, 1.0e3);
        ckt.add_capacitor(n, Circuit::GROUND, 1.0e-12);
        let dt = 1.0e-10;
        let plan = TimeStepPlan::new(vec![Phase {
            duration: 100.0 * dt,
            dt,
        }]);
        let res = transient(&ckt, &plan, &HashMap::new(), &[n], &opts()).unwrap();
        let times = res.times();
        assert_eq!(times.len(), 101);
        for (i, &t) in times.iter().enumerate().take(100) {
            assert_eq!(t, i as f64 * dt, "sample {i} drifted: {t}");
        }
        assert_eq!(*times.last().unwrap(), 100.0 * dt);
    }

    #[test]
    fn transient_from_state_matches_ic_map() {
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add_resistor(n, Circuit::GROUND, 1.0e3);
        ckt.add_capacitor(n, Circuit::GROUND, 1.0e-12);
        let plan = TimeStepPlan::new(vec![Phase {
            duration: 1.0e-9,
            dt: 1.0e-11,
        }]);
        let mut ic = HashMap::new();
        ic.insert(n, 0.7);
        let via_map = transient(&ckt, &plan, &ic, &[n], &opts()).unwrap();
        let state = vec![0.0, 0.7];
        let via_state = transient_from_state(&ckt, &plan, &state, &[n], &opts()).unwrap();
        let (ta, va) = via_map.last_sample(0).unwrap();
        let (tb, vb) = via_state.last_sample(0).unwrap();
        assert_eq!(ta, tb);
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "identical runs must be bit-identical"
        );
    }

    #[test]
    fn transient_until_stops_early() {
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add_resistor(n, Circuit::GROUND, 1.0e3);
        ckt.add_capacitor(n, Circuit::GROUND, 1.0e-12);
        let plan = TimeStepPlan::new(vec![Phase {
            duration: 5.0e-9,
            dt: 1.0e-11,
        }]);
        let state = vec![0.0, 1.0];
        let idx = n.index();
        let (res, stopped) =
            transient_until(&ckt, &plan, &state, &[n], &opts(), |_t, v| v[idx] < 0.5).unwrap();
        assert!(stopped, "decay through 0.5 V must trigger the stop");
        let (t_end, v_end) = res.last_sample(0).unwrap();
        assert!(t_end < 2.0e-9, "stopped at {t_end}, expected before 2 ns");
        assert!(v_end < 0.5 && v_end > 0.4, "v_end {v_end}");
    }

    #[test]
    fn warm_started_op_matches_cold() {
        let tech = Technology::soi_finfet_14nm();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        let y = ckt.node("y");
        ckt.add_vsource(vdd, Circuit::GROUND, 0.8);
        ckt.add_vsource(a, Circuit::GROUND, 0.3);
        ckt.add_mosfet(y, a, Circuit::GROUND, FinFet::new(&tech, Polarity::Nmos, 1));
        ckt.add_mosfet(y, a, vdd, FinFet::new(&tech, Polarity::Pmos, 1));

        let cold = dc_operating_point(&ckt, &opts()).unwrap();
        let warm = dc_operating_point_warm(&ckt, &opts(), cold.node_voltages()).unwrap();
        for (c, w) in cold.node_voltages().iter().zip(warm.node_voltages()) {
            assert!((c - w).abs() < 1e-6, "cold {c} vs warm {w}");
        }
    }
}
