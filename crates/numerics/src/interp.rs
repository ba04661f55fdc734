//! Piecewise-linear interpolation tables.
//!
//! These back the paper's look-up tables: electron–hole pair counts vs
//! particle energy (built once from the device-level Monte Carlo) and
//! probability-of-failure vs pulse charge (built once from the circuit-level
//! characterization). Two flavours are provided:
//!
//! * [`LinearTable`] — linear in both axes; clamped extrapolation.
//! * [`LogLogTable`] — linear in log–log space, the natural choice for
//!   stopping powers and flux spectra that span many decades.

use crate::NumericsError;

fn validate(xs: &[f64], ys: &[f64]) -> Result<(), NumericsError> {
    if xs.len() < 2 {
        return Err(NumericsError::InvalidTable(format!(
            "need at least 2 points, got {}",
            xs.len()
        )));
    }
    if xs.len() != ys.len() {
        return Err(NumericsError::InvalidTable(format!(
            "abscissa/ordinate length mismatch: {} vs {}",
            xs.len(),
            ys.len()
        )));
    }
    if xs.windows(2).any(|w| w[1] <= w[0]) {
        return Err(NumericsError::InvalidTable(
            "abscissae must be strictly increasing".to_owned(),
        ));
    }
    if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
        return Err(NumericsError::InvalidTable(
            "all table entries must be finite".to_owned(),
        ));
    }
    Ok(())
}

/// Index of the segment containing `x` (clamped to the end segments).
fn segment(xs: &[f64], x: f64) -> usize {
    match xs.binary_search_by(|v| v.total_cmp(&x)) {
        Ok(i) => i.min(xs.len() - 2),
        Err(0) => 0,
        Err(i) => (i - 1).min(xs.len() - 2),
    }
}

/// A piecewise-linear interpolation table with clamped extrapolation.
///
/// # Examples
///
/// ```
/// use finrad_numerics::interp::LinearTable;
///
/// let t = LinearTable::new(vec![0.0, 2.0], vec![1.0, 5.0])?;
/// assert_eq!(t.eval(1.0), 3.0);
/// assert_eq!(t.eval(-1.0), 1.0); // clamped below
/// assert_eq!(t.eval(9.0), 5.0);  // clamped above
/// # Ok::<(), finrad_numerics::NumericsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearTable {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LinearTable {
    /// Builds a table from strictly increasing abscissae.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidTable`] when there are fewer than two
    /// points, the lengths differ, abscissae are not strictly increasing, or
    /// any entry is non-finite.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, NumericsError> {
        validate(&xs, &ys)?;
        Ok(Self { xs, ys })
    }

    /// Builds a table whose invariants the *caller* guarantees — compile-
    /// time-constant or otherwise statically well-formed data. Violations
    /// are caught by `debug_assert!` (and therefore by the test suite);
    /// release builds construct the table as-is. This is the constructor
    /// for static reference tables in library code, where an `expect` on
    /// [`Self::new`] would trade a provably-absent error for a panic path.
    pub fn from_static(xs: Vec<f64>, ys: Vec<f64>) -> Self {
        debug_assert!(
            validate(&xs, &ys).is_ok(),
            "static linear table violates its invariants"
        );
        Self { xs, ys }
    }

    /// Interpolated value at `x`; clamps outside the covered range.
    pub fn eval(&self, x: f64) -> f64 {
        // The constructor guarantees at least two points.
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        let i = segment(&self.xs, x);
        let t = (x - self.xs[i]) / (self.xs[i + 1] - self.xs[i]);
        self.ys[i] + t * (self.ys[i + 1] - self.ys[i])
    }

    /// The covered abscissa range `(min, max)`.
    pub fn domain(&self) -> (f64, f64) {
        (self.xs[0], self.xs[self.xs.len() - 1])
    }

    /// Borrowed view of the abscissae.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Borrowed view of the ordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// A piecewise-linear table in log₁₀–log₁₀ space with clamped extrapolation.
///
/// Suitable for positive quantities spanning decades (stopping power, flux).
///
/// # Examples
///
/// ```
/// use finrad_numerics::interp::LogLogTable;
///
/// // y = x^2 sampled at two points is reproduced exactly in between.
/// let t = LogLogTable::new(vec![1.0, 100.0], vec![1.0, 10000.0])?;
/// assert!((t.eval(10.0) - 100.0).abs() < 1e-9);
/// # Ok::<(), finrad_numerics::NumericsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogLogTable {
    log_xs: Vec<f64>,
    log_ys: Vec<f64>,
}

impl LogLogTable {
    /// Builds a log–log table. All `xs` and `ys` must be strictly positive.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidTable`] under the same conditions as
    /// [`LinearTable::new`], and additionally when any value is ≤ 0.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, NumericsError> {
        validate(&xs, &ys)?;
        if xs.iter().chain(ys.iter()).any(|&v| v <= 0.0) {
            return Err(NumericsError::InvalidTable(
                "log-log tables require strictly positive values".to_owned(),
            ));
        }
        Ok(Self {
            log_xs: xs.iter().map(|v| v.log10()).collect(),
            log_ys: ys.iter().map(|v| v.log10()).collect(),
        })
    }

    /// Builds a log–log table from statically well-formed data (see
    /// [`LinearTable::from_static`]). Invariants — including strict
    /// positivity — are checked with `debug_assert!` only.
    pub fn from_static(xs: Vec<f64>, ys: Vec<f64>) -> Self {
        debug_assert!(
            validate(&xs, &ys).is_ok() && xs.iter().chain(ys.iter()).all(|&v| v > 0.0),
            "static log-log table violates its invariants"
        );
        Self {
            log_xs: xs.iter().map(|v| v.log10()).collect(),
            log_ys: ys.iter().map(|v| v.log10()).collect(),
        }
    }

    /// Interpolated value at `x > 0`; clamps outside the covered range.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not strictly positive.
    pub fn eval(&self, x: f64) -> f64 {
        assert!(x > 0.0, "log-log evaluation requires x > 0, got {x}");
        // The constructor guarantees at least two points.
        let n = self.log_xs.len();
        let lx = x.log10();
        if lx <= self.log_xs[0] {
            return 10f64.powf(self.log_ys[0]);
        }
        if lx >= self.log_xs[n - 1] {
            return 10f64.powf(self.log_ys[n - 1]);
        }
        let i = segment(&self.log_xs, lx);
        let t = (lx - self.log_xs[i]) / (self.log_xs[i + 1] - self.log_xs[i]);
        10f64.powf(self.log_ys[i] + t * (self.log_ys[i + 1] - self.log_ys[i]))
    }

    /// The covered abscissa range `(min, max)` in linear space.
    pub fn domain(&self) -> (f64, f64) {
        (
            10f64.powf(self.log_xs[0]),
            10f64.powf(self.log_xs[self.log_xs.len() - 1]),
        )
    }
}

/// Generates `n` logarithmically spaced points over `[lo, hi]` (inclusive).
///
/// # Panics
///
/// Panics if `lo <= 0`, `hi <= lo` or `n < 2`.
///
/// # Examples
///
/// ```
/// use finrad_numerics::interp::log_space;
///
/// let pts = log_space(0.1, 100.0, 4);
/// assert_eq!(pts.len(), 4);
/// assert!((pts[0] - 0.1).abs() < 1e-12);
/// assert!((pts[3] - 100.0).abs() < 1e-9);
/// ```
pub fn log_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && n >= 2, "invalid log_space arguments");
    let (llo, lhi) = (lo.log10(), hi.log10());
    (0..n)
        .map(|i| 10f64.powf(llo + (lhi - llo) * i as f64 / (n - 1) as f64))
        .collect()
}

/// Generates `n` linearly spaced points over `[lo, hi]` (inclusive).
///
/// # Panics
///
/// Panics if `hi <= lo` or `n < 2`.
pub fn lin_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(hi > lo && n >= 2, "invalid lin_space arguments");
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_exact_at_knots() {
        let t = LinearTable::new(vec![0.0, 1.0, 3.0], vec![2.0, 4.0, 0.0]).unwrap();
        assert_eq!(t.eval(0.0), 2.0);
        assert_eq!(t.eval(1.0), 4.0);
        assert_eq!(t.eval(3.0), 0.0);
    }

    #[test]
    fn linear_midpoints() {
        let t = LinearTable::new(vec![0.0, 1.0, 3.0], vec![2.0, 4.0, 0.0]).unwrap();
        assert!((t.eval(0.5) - 3.0).abs() < 1e-14);
        assert!((t.eval(2.0) - 2.0).abs() < 1e-14);
    }

    #[test]
    fn linear_clamps() {
        let t = LinearTable::new(vec![1.0, 2.0], vec![10.0, 20.0]).unwrap();
        assert_eq!(t.eval(0.0), 10.0);
        assert_eq!(t.eval(3.0), 20.0);
        assert_eq!(t.domain(), (1.0, 2.0));
    }

    #[test]
    fn rejects_bad_tables() {
        assert!(LinearTable::new(vec![1.0], vec![1.0]).is_err());
        assert!(LinearTable::new(vec![1.0, 1.0], vec![1.0, 2.0]).is_err());
        assert!(LinearTable::new(vec![2.0, 1.0], vec![1.0, 2.0]).is_err());
        assert!(LinearTable::new(vec![1.0, 2.0], vec![1.0]).is_err());
        assert!(LinearTable::new(vec![1.0, 2.0], vec![f64::NAN, 1.0]).is_err());
        assert!(LogLogTable::new(vec![0.0, 1.0], vec![1.0, 1.0]).is_err());
        assert!(LogLogTable::new(vec![1.0, 2.0], vec![-1.0, 1.0]).is_err());
    }

    #[test]
    fn monotone_grid_invariant_enforced_by_constructor() {
        // Energy grids feeding the transport LUTs must be strictly
        // increasing; the checked constructor is the only way to build a
        // table, so a non-monotone grid can never reach `eval`.
        let err = LinearTable::new(vec![1.0, 3.0, 2.0], vec![0.0, 0.0, 0.0]).unwrap_err();
        assert!(matches!(err, NumericsError::InvalidTable(_)));
        let err = LogLogTable::new(vec![1.0, 10.0, 10.0], vec![1.0, 1.0, 1.0]).unwrap_err();
        assert!(matches!(err, NumericsError::InvalidTable(_)));
    }

    #[test]
    fn loglog_power_law_exact() {
        // y = 3 x^{-1.7} is linear in log-log; interpolation must be exact.
        let xs: Vec<f64> = vec![0.1, 1.0, 10.0, 100.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(-1.7)).collect();
        let t = LogLogTable::new(xs, ys).unwrap();
        for x in [0.3f64, 2.5, 47.0] {
            let expect = 3.0 * x.powf(-1.7);
            assert!((t.eval(x) - expect).abs() / expect < 1e-12);
        }
    }

    #[test]
    fn loglog_clamps() {
        let t = LogLogTable::new(vec![1.0, 10.0], vec![5.0, 50.0]).unwrap();
        assert!((t.eval(0.1) - 5.0).abs() < 1e-12);
        assert!((t.eval(1000.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn loglog_rejects_nonpositive_eval() {
        let t = LogLogTable::new(vec![1.0, 10.0], vec![5.0, 50.0]).unwrap();
        let _ = t.eval(0.0);
    }

    #[test]
    fn spacing_helpers() {
        let ls = lin_space(0.7, 1.1, 5);
        assert_eq!(ls.len(), 5);
        assert!((ls[2] - 0.9).abs() < 1e-12);
        let gs = log_space(1.0, 1000.0, 4);
        assert!((gs[1] - 10.0).abs() < 1e-9);
        assert!((gs[2] - 100.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256pp};

    fn sorted_unique(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(|a, b| a.total_cmp(b));
        v.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        v
    }

    #[test]
    fn eval_within_ordinate_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x1F7E);
        for round in 0..200u64 {
            let n = 2 + (rng.next_u64() % 18) as usize;
            let raw: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
            let xs = sorted_unique(raw);
            if xs.len() < 2 {
                continue;
            }
            let ys: Vec<f64> = xs
                .iter()
                .enumerate()
                .map(|(i, _)| ((round as f64 + i as f64) * 0.73).sin() * 10.0)
                .collect();
            let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let t = LinearTable::new(xs, ys).unwrap();
            let q = rng.gen_range(-150.0..150.0);
            let v = t.eval(q);
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn monotone_table_gives_monotone_eval() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x304A);
        for _ in 0..200 {
            let n = 3 + (rng.next_u64() % 12) as usize;
            let a = rng.gen_range(0.1..10.0);
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let ys: Vec<f64> = (0..n).map(|i| a * i as f64).collect();
            let t = LinearTable::new(xs, ys).unwrap();
            let x1 = rng.gen_range(0.0..50.0);
            let x2 = rng.gen_range(0.0..50.0);
            if x1 <= x2 {
                assert!(t.eval(x1) <= t.eval(x2) + 1e-9);
            } else {
                assert!(t.eval(x2) <= t.eval(x1) + 1e-9);
            }
        }
    }

    #[test]
    fn loglog_positive_everywhere() {
        let t =
            LogLogTable::new(vec![1.0e-2, 1.0, 1.0e2, 1.0e4], vec![7.0, 3.0, 11.0, 0.5]).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(0x106);
        for _ in 0..500 {
            // Log-uniform query spanning the table and beyond.
            let x = 10.0f64.powf(rng.gen_range(-3.0..6.0));
            assert!(t.eval(x) > 0.0);
        }
    }

    #[test]
    fn log_space_is_increasing() {
        for n in 2usize..50 {
            let pts = log_space(0.1, 1.0e3, n);
            assert!(pts.windows(2).all(|w| w[1] > w[0]));
        }
    }
}
