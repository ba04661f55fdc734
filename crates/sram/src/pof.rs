//! Probability-Of-Failure look-up tables.
//!
//! The paper stores POF "for different supply voltages, current pulse
//! magnitudes, and all possible combinations of current pulses (for I1, I2,
//! I3 and/or any combination)" (Section 4). Because the cell flip is
//! monotone in injected charge, we store each (V_dd, combination) entry as
//! the empirical distribution of the **critical charge** over the variation
//! Monte Carlo: `POF(q)` is then simply the fraction of sampled cells whose
//! critical charge is below `q`. This is equivalent to the paper's
//! per-magnitude tables but smoother and cheaper to build.

use crate::scenario::StrikeTarget;
use finrad_units::{Charge, Voltage};
use std::collections::BTreeMap;
use std::fmt;

/// A non-empty subset of `{I1, I2, I3}` — which sensitive transistors were
/// struck together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrikeCombo(u8);

impl StrikeCombo {
    /// Builds a combo from targets.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn new(targets: &[StrikeTarget]) -> Self {
        assert!(
            !targets.is_empty(),
            "combo must contain at least one target"
        );
        Self(targets.iter().fold(0, |bits, &t| bits | Self::bit(t)))
    }

    /// A single-target combo.
    pub fn single(target: StrikeTarget) -> Self {
        Self(Self::bit(target))
    }

    /// This combo with `target` added (a no-op if already present).
    ///
    /// ```
    /// use finrad_sram::{StrikeCombo, StrikeTarget};
    ///
    /// let c = StrikeCombo::single(StrikeTarget::I3).with(StrikeTarget::I1);
    /// assert_eq!(c, StrikeCombo::new(&[StrikeTarget::I1, StrikeTarget::I3]));
    /// ```
    pub fn with(self, target: StrikeTarget) -> Self {
        Self(self.0 | Self::bit(target))
    }

    fn bit(target: StrikeTarget) -> u8 {
        1 << match target {
            StrikeTarget::I1 => 0,
            StrikeTarget::I2 => 1,
            StrikeTarget::I3 => 2,
        }
    }

    /// All seven non-empty combinations, in ascending bitmask order.
    pub fn all() -> Vec<StrikeCombo> {
        (1u8..=7).map(StrikeCombo).collect()
    }

    /// The targets in this combo.
    pub fn targets(self) -> Vec<StrikeTarget> {
        let mut out = Vec::new();
        if self.0 & 1 != 0 {
            out.push(StrikeTarget::I1);
        }
        if self.0 & 2 != 0 {
            out.push(StrikeTarget::I2);
        }
        if self.0 & 4 != 0 {
            out.push(StrikeTarget::I3);
        }
        out
    }

    /// Whether the combo contains `target`.
    pub fn contains(self, target: StrikeTarget) -> bool {
        self.targets().contains(&target)
    }

    /// Number of struck targets.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Always false (combos are non-empty by construction).
    pub fn is_empty(self) -> bool {
        false
    }

    /// Splits a total charge equally across the combo's targets — the
    /// convention under which the POF tables are built and queried.
    pub fn split_charge(self, total: Charge) -> Vec<(StrikeTarget, f64)> {
        let targets = self.targets();
        let per = total.coulombs() / targets.len() as f64;
        targets.into_iter().map(|t| (t, per)).collect()
    }
}

impl fmt::Display for StrikeCombo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self.targets().iter().map(|t| t.to_string()).collect();
        write!(f, "{{{}}}", names.join("+"))
    }
}

/// POF as a function of injected charge for one (V_dd, combo) point:
/// the empirical CDF of the critical charge across the characterization
/// Monte Carlo.
///
/// # Examples
///
/// ```
/// use finrad_sram::PofCurve;
/// use finrad_units::Charge;
///
/// // Three sampled cells with critical charges 10/20/30 aC.
/// let curve = PofCurve::from_critical_charges(vec![1.0e-17, 2.0e-17, 3.0e-17]);
/// assert_eq!(curve.pof(Charge::from_coulombs(0.5e-17)), 0.0);
/// assert!((curve.pof(Charge::from_coulombs(2.5e-17)) - 2.0 / 3.0).abs() < 1e-12);
/// assert_eq!(curve.pof(Charge::from_coulombs(9.0e-17)), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PofCurve {
    /// Sorted critical-charge samples, coulombs.
    qcrit_sorted: Vec<f64>,
}

impl PofCurve {
    /// Builds a curve from critical-charge samples (coulombs).
    ///
    /// A cell that never flipped within the characterizer's search range is
    /// recorded with the search's upper bound (a *saturated* sample), which
    /// keeps the curve finite while leaving its POF at 0 for every
    /// physically reachable charge.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite or negative
    /// values.
    pub fn from_critical_charges(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        assert!(
            samples.iter().all(|q| q.is_finite() && *q >= 0.0),
            "critical charges must be finite and non-negative"
        );
        samples.sort_by(|a, b| a.total_cmp(b));
        Self {
            qcrit_sorted: samples,
        }
    }

    /// POF for an injected total charge `q`: the fraction of sampled cells
    /// with critical charge ≤ `q`.
    ///
    /// The result is a probability and is clamped (and, in debug builds,
    /// asserted) to lie in `[0, 1]` — downstream layers combine POFs
    /// multiplicatively and a value outside the unit interval would corrupt
    /// every array-level estimate silently.
    pub fn pof(&self, q: Charge) -> f64 {
        let qc = q.coulombs();
        debug_assert!(qc.is_finite(), "POF queried with non-finite charge {qc}");
        let n = self.qcrit_sorted.len();
        let below = self.qcrit_sorted.partition_point(|&sample| sample <= qc);
        let p = below as f64 / n as f64;
        debug_assert!((0.0..=1.0).contains(&p), "POF {p} outside [0, 1]");
        p.clamp(0.0, 1.0)
    }

    /// Number of Monte-Carlo samples behind the curve.
    pub fn sample_count(&self) -> usize {
        self.qcrit_sorted.len()
    }

    /// The sorted critical-charge samples (coulombs). Exposed so callers
    /// can compute expectations over the critical-charge distribution —
    /// e.g. the conditional-expectation flip probability in `finrad-core`,
    /// `P(flip) = mean_i P(Q_collected ≥ qcrit_i)`.
    pub fn qcrit_samples(&self) -> &[f64] {
        &self.qcrit_sorted
    }

    /// The median critical charge.
    pub fn median_qcrit(&self) -> Charge {
        Charge::from_coulombs(self.qcrit_sorted[self.qcrit_sorted.len() / 2])
    }

    /// The smallest sampled critical charge — the worst-case cell.
    pub fn min_qcrit(&self) -> Charge {
        Charge::from_coulombs(self.qcrit_sorted[0])
    }
}

/// The POF LUT for one supply voltage: a curve per strike combination.
#[derive(Debug, Clone, PartialEq)]
pub struct PofTable {
    vdd: Voltage,
    curves: BTreeMap<StrikeCombo, PofCurve>,
}

impl PofTable {
    /// Assembles a table from per-combo curves.
    ///
    /// # Panics
    ///
    /// Panics if `curves` is empty.
    pub fn new(vdd: Voltage, curves: BTreeMap<StrikeCombo, PofCurve>) -> Self {
        assert!(!curves.is_empty(), "POF table needs at least one combo");
        Self { vdd, curves }
    }

    /// The supply voltage the table was characterized at.
    pub fn vdd(&self) -> Voltage {
        self.vdd
    }

    /// POF for `combo` at total injected charge `q`, or `None` if the
    /// combo was never characterized. Callers decide how loudly a miss
    /// fails; the array-level simulators feed the miss into their NaN
    /// quarantine so it is counted instead of crashing a campaign.
    pub fn pof(&self, combo: StrikeCombo, q: Charge) -> Option<f64> {
        Some(self.curves.get(&combo)?.pof(q))
    }

    /// The curve for `combo`, if characterized.
    pub fn curve(&self, combo: StrikeCombo) -> Option<&PofCurve> {
        self.curves.get(&combo)
    }

    /// Characterized combos.
    pub fn combos(&self) -> impl Iterator<Item = StrikeCombo> + '_ {
        self.curves.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_construction_and_queries() {
        let c = StrikeCombo::new(&[StrikeTarget::I1, StrikeTarget::I3]);
        assert_eq!(c.len(), 2);
        assert!(c.contains(StrikeTarget::I1));
        assert!(!c.contains(StrikeTarget::I2));
        assert_eq!(c.targets(), vec![StrikeTarget::I1, StrikeTarget::I3]);
        assert!(!c.is_empty());
        assert_eq!(format!("{c}"), "{I1+I3}");
    }

    #[test]
    fn all_combos_enumerated() {
        let all = StrikeCombo::all();
        assert_eq!(all.len(), 7);
        let sizes: Vec<usize> = all.iter().map(|c| c.len()).collect();
        assert_eq!(sizes.iter().filter(|&&s| s == 1).count(), 3);
        assert_eq!(sizes.iter().filter(|&&s| s == 2).count(), 3);
        assert_eq!(sizes.iter().filter(|&&s| s == 3).count(), 1);
    }

    #[test]
    fn duplicate_targets_collapse() {
        let c = StrikeCombo::new(&[StrikeTarget::I2, StrikeTarget::I2]);
        assert_eq!(c.len(), 1);
        assert_eq!(c, StrikeCombo::single(StrikeTarget::I2));
    }

    #[test]
    fn split_charge_conserves_total() {
        let c = StrikeCombo::new(&StrikeTarget::ALL);
        let parts = c.split_charge(Charge::from_electrons(900.0));
        assert_eq!(parts.len(), 3);
        let total: f64 = parts.iter().map(|(_, q)| q).sum();
        assert!((total - Charge::from_electrons(900.0).coulombs()).abs() < 1e-30);
    }

    #[test]
    fn pof_curve_is_cdf() {
        let curve = PofCurve::from_critical_charges(vec![3.0e-17, 1.0e-17, 2.0e-17]);
        assert_eq!(curve.sample_count(), 3);
        assert_eq!(curve.pof(Charge::ZERO), 0.0);
        assert!((curve.pof(Charge::from_coulombs(1.5e-17)) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(curve.pof(Charge::from_coulombs(1.0)), 1.0);
        assert_eq!(curve.min_qcrit().coulombs(), 1.0e-17);
        assert_eq!(curve.median_qcrit().coulombs(), 2.0e-17);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_critical_charge() {
        let _ = PofCurve::from_critical_charges(vec![1.0e-17, -1.0e-18]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite charge")]
    fn pof_rejects_non_finite_query() {
        let curve = PofCurve::from_critical_charges(vec![1.0e-17]);
        let _ = curve.pof(Charge::from_coulombs(f64::NAN));
    }

    #[test]
    fn pof_monotone_in_charge() {
        let curve = PofCurve::from_critical_charges((1..=50).map(|i| i as f64 * 1.0e-18).collect());
        let mut prev = -1.0;
        for k in 0..100 {
            let q = Charge::from_coulombs(k as f64 * 1.0e-18);
            let p = curve.pof(q);
            assert!(p >= prev);
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn table_lookup() {
        let mut curves = BTreeMap::new();
        curves.insert(
            StrikeCombo::single(StrikeTarget::I1),
            PofCurve::from_critical_charges(vec![1.0e-17]),
        );
        let t = PofTable::new(Voltage::from_volts(0.8), curves);
        assert_eq!(t.vdd().volts(), 0.8);
        assert_eq!(
            t.pof(
                StrikeCombo::single(StrikeTarget::I1),
                Charge::from_coulombs(2.0e-17)
            ),
            Some(1.0)
        );
        assert!(t.curve(StrikeCombo::single(StrikeTarget::I2)).is_none());
        assert_eq!(t.combos().count(), 1);
    }

    #[test]
    fn missing_combo_is_none() {
        let mut curves = BTreeMap::new();
        curves.insert(
            StrikeCombo::single(StrikeTarget::I1),
            PofCurve::from_critical_charges(vec![1.0e-17]),
        );
        let t = PofTable::new(Voltage::from_volts(0.8), curves);
        assert_eq!(
            t.pof(StrikeCombo::single(StrikeTarget::I2), Charge::ZERO),
            None
        );
        assert!(t
            .pof(StrikeCombo::single(StrikeTarget::I1), Charge::ZERO)
            .is_some());
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_curve_rejected() {
        let _ = PofCurve::from_critical_charges(vec![]);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use finrad_numerics::rng::{Rng, Xoshiro256pp};

    #[test]
    fn pof_bounded_and_monotone() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x90F);
        for _ in 0..200 {
            let n = 1 + (rng.next_u64() % 59) as usize;
            let samples: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0e-19f64..1.0e-15)).collect();
            let curve = PofCurve::from_critical_charges(samples);
            let q1 = rng.gen_range(0.0f64..2.0e-15);
            let q2 = rng.gen_range(0.0f64..2.0e-15);
            let p1 = curve.pof(Charge::from_coulombs(q1));
            let p2 = curve.pof(Charge::from_coulombs(q2));
            assert!((0.0..=1.0).contains(&p1));
            if q1 <= q2 {
                assert!(p1 <= p2);
            }
        }
    }

    #[test]
    fn combo_bitmask_bijection() {
        for bits in 1u8..=7 {
            let combo = StrikeCombo::all()[(bits - 1) as usize];
            let rebuilt = StrikeCombo::new(&combo.targets());
            assert_eq!(combo, rebuilt);
        }
    }
}
