//! Dense matrices and LU factorization with partial pivoting.
//!
//! The MNA systems assembled by `finrad-spice` are small (≈ 10 unknowns for
//! a 6T SRAM cell), so a dense O(n³) factorization is the right tool; no
//! sparse machinery is warranted.

use crate::NumericsError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use finrad_numerics::matrix::Matrix;
///
/// let mut a = Matrix::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 3.0;
/// assert_eq!(a[(0, 0)], 2.0);
/// assert_eq!(a.rows(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::Dimension`] if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, NumericsError> {
        if data.len() != rows * cols {
            return Err(NumericsError::Dimension {
                expected: format!("{} elements", rows * cols),
                got: format!("{}", data.len()),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds `value` to entry `(r, c)` — the MNA "stamp" primitive.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, value: f64) {
        self[(r, c)] += value;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::Dimension`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericsError> {
        if x.len() != self.cols {
            return Err(NumericsError::Dimension {
                expected: format!("vector of length {}", self.cols),
                got: format!("{}", x.len()),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            *yr = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        Ok(y)
    }

    /// Maximum absolute entry (∞-norm of the flattened data).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.5e} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// LU factorization with partial (row) pivoting: `P·A = L·U`.
///
/// # Examples
///
/// ```
/// use finrad_numerics::matrix::{Matrix, LuFactors};
///
/// let a = Matrix::from_rows(2, 2, vec![0.0, 2.0, 1.0, 1.0])?;
/// let lu = LuFactors::factor(a)?;
/// let x = lu.solve(&[2.0, 3.0])?;
/// assert!((x[0] - 2.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), finrad_numerics::NumericsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: Matrix,
    perm: Vec<usize>,
}

/// Pivots smaller than this (relative to the largest entry of their column)
/// are treated as exact zeros.
const PIVOT_EPS: f64 = 1.0e-300;

impl LuFactors {
    /// Factors a square matrix in place.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::Dimension`] if the matrix is not square.
    /// * [`NumericsError::SingularMatrix`] if a pivot underflows.
    pub fn factor(mut a: Matrix) -> Result<Self, NumericsError> {
        if a.rows != a.cols {
            return Err(NumericsError::Dimension {
                expected: "square matrix".to_owned(),
                got: format!("{}x{}", a.rows, a.cols),
            });
        }
        let n = a.rows;
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Find pivot row.
            let mut p = k;
            let mut pmax = a[(k, k)].abs();
            for r in (k + 1)..n {
                let v = a[(r, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = r;
                }
            }
            if pmax < PIVOT_EPS || !pmax.is_finite() {
                return Err(NumericsError::SingularMatrix { column: k });
            }
            if p != k {
                perm.swap(p, k);
                for c in 0..n {
                    let tmp = a[(k, c)];
                    a[(k, c)] = a[(p, c)];
                    a[(p, c)] = tmp;
                }
            }
            // Eliminate below the pivot.
            let pivot = a[(k, k)];
            for r in (k + 1)..n {
                let factor = a[(r, k)] / pivot;
                a[(r, k)] = factor;
                // Exact-zero skip exploits structural sparsity; a tolerance would
                // change the factorization. finrad-lint: allow(float-discipline)
                if factor != 0.0 {
                    for c in (k + 1)..n {
                        let akc = a[(k, c)];
                        a[(r, c)] -= factor * akc;
                    }
                }
            }
        }
        Ok(Self { lu: a, perm })
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::Dimension`] if `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let n = self.lu.rows;
        if b.len() != n {
            return Err(NumericsError::Dimension {
                expected: format!("rhs of length {n}"),
                got: format!("{}", b.len()),
            });
        }
        // Apply permutation, then forward substitution (L has unit diagonal).
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for r in 1..n {
            let mut acc = x[r];
            for (c, xc) in x.iter().enumerate().take(r) {
                acc -= self.lu[(r, c)] * xc;
            }
            x[r] = acc;
        }
        // Backward substitution with U.
        for r in (0..n).rev() {
            let mut acc = x[r];
            for (c, xc) in x.iter().enumerate().skip(r + 1) {
                acc -= self.lu[(r, c)] * xc;
            }
            x[r] = acc / self.lu[(r, r)];
        }
        Ok(x)
    }

    /// Dimension of the factored system.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lu.rows
    }

    /// The row permutation chosen by partial pivoting: position `i` of the
    /// permuted system holds original row `perm()[i]`. Used to seed a
    /// [`StructuredLu`] with a pivot order known to be stable for the
    /// matrix family at hand.
    #[inline]
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }
}

/// Pivots smaller than this fraction of the largest magnitude in their
/// elimination column trip the [`StructuredLu`] stability guard, forcing the
/// caller back to dense partial pivoting.
const STRUCTURED_PIVOT_RTOL: f64 = 1.0e-6;

/// LU factorization specialized to a *fixed* sparsity pattern and pivot
/// order, for matrix families whose structure never changes — the MNA
/// system of one circuit topology re-assembled every Newton iteration.
///
/// The expensive decisions of a general factorization (which entries can be
/// nonzero, where fill-in lands, which row pivots where) are made **once**,
/// in [`StructuredLu::analyze`], from a structural stamp mask and a pivot
/// order taken from a representative dense factorization. Every subsequent
/// [`StructuredLu::factor`] call then runs the elimination over only the
/// symbolic nonzeros — no pivot search, no scans over structural zeros —
/// and [`StructuredLu::solve`] substitutes over the same index lists.
///
/// Because the pivot order is frozen, each numeric factorization checks a
/// stability guard: a pivot smaller than `1e-6 ×` the largest magnitude in
/// its elimination column returns [`NumericsError::SingularMatrix`], and
/// the caller is expected to fall back to [`LuFactors`] (and may re-analyze
/// with the fresh pivot order).
///
/// # Examples
///
/// ```
/// use finrad_numerics::matrix::{LuFactors, Matrix, StructuredLu};
///
/// let a = Matrix::from_rows(2, 2, vec![4.0, 1.0, 1.0, 3.0])?;
/// let dense = LuFactors::factor(a.clone())?;
/// let mut slu = StructuredLu::analyze(&a, dense.perm().to_vec())?;
/// slu.factor(&a)?;
/// let x = slu.solve(&[1.0, 2.0])?;
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), finrad_numerics::NumericsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StructuredLu {
    /// Dense storage for the permuted factors (small n: dense rows, sparse
    /// *loop structure* is where the win is).
    lu: Matrix,
    /// Row permutation: permuted position `i` holds original row `perm[i]`.
    perm: Vec<usize>,
    /// Symbolic pattern of the permuted, fill-extended matrix (row-major).
    pattern: Vec<bool>,
    /// For each elimination column `k`: permuted rows `r > k` with a
    /// symbolic nonzero at `(r, k)` — the L column below the pivot.
    lower: Vec<Vec<usize>>,
    /// For each permuted row `k`: columns `c > k` with a symbolic nonzero
    /// at `(k, c)` — the U row right of the pivot.
    upper: Vec<Vec<usize>>,
}

impl StructuredLu {
    /// Runs the one-time symbolic analysis: propagates fill-in through the
    /// permuted pattern of `mask` under the fixed pivot order `perm`.
    ///
    /// `mask` is a *structural* stamp mask: entry `(r, c)` is treated as a
    /// potential nonzero iff it is nonzero in the mask. Build it from which
    /// positions are ever **stamped**, not from a numeric instance —
    /// a value that happens to be `0.0` in one assembly may be nonzero in
    /// the next, and a pattern derived from it would silently drop terms.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::Dimension`] if `mask` is not square or
    /// `perm` is not a permutation of `0..n`.
    pub fn analyze(mask: &Matrix, perm: Vec<usize>) -> Result<Self, NumericsError> {
        let n = mask.rows();
        if mask.cols() != n {
            return Err(NumericsError::Dimension {
                expected: "square mask".to_owned(),
                got: format!("{}x{}", mask.rows(), mask.cols()),
            });
        }
        let mut seen = vec![false; n];
        if perm.len() != n
            || !perm
                .iter()
                .all(|&p| p < n && !std::mem::replace(&mut seen[p], true))
        {
            return Err(NumericsError::Dimension {
                expected: format!("permutation of 0..{n}"),
                got: format!("{perm:?}"),
            });
        }
        // Permuted structural pattern.
        let mut pattern = vec![false; n * n];
        for i in 0..n {
            for c in 0..n {
                // Mask entries are structural flags; zero means "never
                // stamped". finrad-lint: allow(float-discipline)
                pattern[i * n + c] = mask[(perm[i], c)] != 0.0;
            }
        }
        // Symbolic elimination: fill-in at (r, c) whenever row r has a
        // nonzero in pivot column k and pivot row k has one in column c.
        for k in 0..n {
            for r in (k + 1)..n {
                if pattern[r * n + k] {
                    for c in (k + 1)..n {
                        if pattern[k * n + c] {
                            pattern[r * n + c] = true;
                        }
                    }
                }
            }
        }
        let lower: Vec<Vec<usize>> = (0..n)
            .map(|k| ((k + 1)..n).filter(|&r| pattern[r * n + k]).collect())
            .collect();
        let upper: Vec<Vec<usize>> = (0..n)
            .map(|k| ((k + 1)..n).filter(|&c| pattern[k * n + c]).collect())
            .collect();
        Ok(Self {
            lu: Matrix::zeros(n, n),
            perm,
            pattern,
            lower,
            upper,
        })
    }

    /// Numerically factors `a` over the pre-analyzed pattern, reusing the
    /// internal storage (no allocation after the first call).
    ///
    /// # Errors
    ///
    /// * [`NumericsError::Dimension`] if `a` does not match the analyzed
    ///   dimension.
    /// * [`NumericsError::SingularMatrix`] if a pivot fails the relative
    ///   stability guard — the signal to fall back to dense partial
    ///   pivoting.
    pub fn factor(&mut self, a: &Matrix) -> Result<(), NumericsError> {
        let n = self.lu.rows();
        if a.rows() != n || a.cols() != n {
            return Err(NumericsError::Dimension {
                expected: format!("{n}x{n} matrix"),
                got: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        for i in 0..n {
            for c in 0..n {
                let v = a[(self.perm[i], c)];
                debug_assert!(
                    // finrad-lint: allow(float-discipline)
                    v == 0.0 || self.pattern[i * n + c],
                    "value {v} at permuted ({i}, {c}) outside the analyzed pattern"
                );
                self.lu[(i, c)] = v;
            }
        }
        for k in 0..n {
            let pivot = self.lu[(k, k)];
            let mut col_max = pivot.abs();
            for &r in &self.lower[k] {
                col_max = col_max.max(self.lu[(r, k)].abs());
            }
            if !(pivot.abs() >= STRUCTURED_PIVOT_RTOL * col_max && pivot.abs() >= PIVOT_EPS) {
                // NaN anywhere in the column also lands here.
                return Err(NumericsError::SingularMatrix { column: k });
            }
            for li in 0..self.lower[k].len() {
                let r = self.lower[k][li];
                let factor = self.lu[(r, k)] / pivot;
                self.lu[(r, k)] = factor;
                for ui in 0..self.upper[k].len() {
                    let c = self.upper[k][ui];
                    let akc = self.lu[(k, c)];
                    self.lu[(r, c)] -= factor * akc;
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` with the stored factors, substituting over only
    /// the symbolic nonzeros.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::Dimension`] if `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Like [`StructuredLu::solve`], but writing the solution into the
    /// caller-owned `x`, so a solve in a loop allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::Dimension`] if `b` or `x` has the wrong
    /// length.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), NumericsError> {
        let n = self.lu.rows();
        if b.len() != n || x.len() != n {
            return Err(NumericsError::Dimension {
                expected: format!("rhs and solution of length {n}"),
                got: format!("{} and {}", b.len(), x.len()),
            });
        }
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        // Forward substitution, column-oriented over the L pattern.
        for k in 0..n {
            let xk = x[k];
            for &r in &self.lower[k] {
                x[r] -= self.lu[(r, k)] * xk;
            }
        }
        // Backward substitution over the U pattern.
        for k in (0..n).rev() {
            let mut acc = x[k];
            for &c in &self.upper[k] {
                acc -= self.lu[(k, c)] * x[c];
            }
            x[k] = acc / self.lu[(k, k)];
        }
        Ok(())
    }

    /// Dimension of the analyzed system.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Count of symbolic nonzeros after fill-in (diagnostics).
    pub fn nnz(&self) -> usize {
        self.pattern.iter().filter(|&&p| p).count()
    }
}

/// Convenience one-shot solve of `A·x = b`.
///
/// # Errors
///
/// Propagates factorization and dimension errors from [`LuFactors`].
///
/// # Examples
///
/// ```
/// use finrad_numerics::matrix::{solve, Matrix};
///
/// let a = Matrix::from_rows(2, 2, vec![4.0, 1.0, 1.0, 3.0])?;
/// let x = solve(a, &[1.0, 2.0])?;
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), finrad_numerics::NumericsError>(())
/// ```
pub fn solve(a: Matrix, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
    LuFactors::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_is_identity() {
        let a = Matrix::identity(4);
        let b = [1.0, -2.0, 3.0, 0.5];
        let x = solve(a, &b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-15);
        }
    }

    #[test]
    fn solve_requires_pivoting() {
        // a11 = 0 forces a row swap.
        let a = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = solve(a, &[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 5.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        match LuFactors::factor(a) {
            Err(NumericsError::SingularMatrix { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuFactors::factor(a),
            Err(NumericsError::Dimension { .. })
        ));
    }

    #[test]
    fn residual_small_for_random_system() {
        // Deterministic pseudo-random fill (LCG) to avoid rand dependency here.
        let n = 12;
        let mut state = 0x2545F491_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = next();
            }
            a[(r, r)] += 4.0; // diagonally dominant => well conditioned
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = solve(a.clone(), &b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn reuse_factors_for_multiple_rhs() {
        let a = Matrix::from_rows(3, 3, vec![2.0, 0.0, 1.0, 0.0, 3.0, 0.0, 1.0, 0.0, 2.0]).unwrap();
        let lu = LuFactors::factor(a.clone()).unwrap();
        for b in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [3.0, -1.0, 2.0]] {
            let x = lu.solve(&b).unwrap();
            let ax = a.mul_vec(&x).unwrap();
            for (axi, bi) in ax.iter().zip(&b) {
                assert!((axi - bi).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn stamp_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        a.add_at(0, 0, 1.5);
        a.add_at(0, 0, 2.5);
        assert_eq!(a[(0, 0)], 4.0);
    }

    #[test]
    fn mul_vec_dimension_check() {
        let a = Matrix::zeros(2, 3);
        assert!(a.mul_vec(&[1.0, 2.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "matrix index out of bounds")]
    fn out_of_bounds_index_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::identity(2);
        assert!(!format!("{a}").is_empty());
    }

    /// A sparse, diagonally-dominant system with the arrow shape typical of
    /// MNA (rails couple to everything).
    fn arrow_matrix(n: usize) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 5.0 + i as f64;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -0.5;
            }
            a[(i, n - 1)] = 1.0 + 0.1 * i as f64;
            a[(n - 1, i)] = 0.7;
        }
        a
    }

    #[test]
    fn structured_matches_dense_solution() {
        let a = arrow_matrix(8);
        let dense = LuFactors::factor(a.clone()).unwrap();
        let mut slu = StructuredLu::analyze(&a, dense.perm().to_vec()).unwrap();
        slu.factor(&a).unwrap();
        let b: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let xd = dense.solve(&b).unwrap();
        let xs = slu.solve(&b).unwrap();
        for (d, s) in xd.iter().zip(&xs) {
            assert!((d - s).abs() < 1e-12, "dense {d} vs structured {s}");
        }
    }

    #[test]
    fn structured_solve_into_overwrites_and_checks_lengths() {
        let a = arrow_matrix(6);
        let dense = LuFactors::factor(a.clone()).unwrap();
        let mut slu = StructuredLu::analyze(&a, dense.perm().to_vec()).unwrap();
        slu.factor(&a).unwrap();
        let b = [2.0, -1.0, 0.5, 3.0, -4.0, 1.0];
        // Stale contents of the buffer must not leak into the solution.
        let mut x = vec![f64::NAN; 6];
        slu.solve_into(&b, &mut x).unwrap();
        let want = slu.solve(&b).unwrap();
        for (got, want) in x.iter().zip(&want) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert!(slu.solve_into(&b[..5], &mut x).is_err());
        assert!(slu.solve_into(&b, &mut x[..5]).is_err());
    }

    #[test]
    fn structured_refactors_new_values_same_pattern() {
        // The point of the type: re-factor many matrices sharing one
        // pattern. Perturb values (keeping dominance) and check residuals.
        let a0 = arrow_matrix(7);
        let dense = LuFactors::factor(a0.clone()).unwrap();
        let mut slu = StructuredLu::analyze(&a0, dense.perm().to_vec()).unwrap();
        for shift in 0..5 {
            let mut a = a0.clone();
            for i in 0..7 {
                a[(i, i)] += 0.3 * shift as f64;
            }
            slu.factor(&a).unwrap();
            let b = [1.0, -1.0, 2.0, 0.0, 0.5, -2.0, 3.0];
            let x = slu.solve(&b).unwrap();
            let ax = a.mul_vec(&x).unwrap();
            for (axi, bi) in ax.iter().zip(&b) {
                assert!((axi - bi).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn structured_handles_fill_in() {
        // Pattern where elimination creates fill: (2,1) and (1,2) are
        // structural zeros of A but nonzero in the factors.
        let a = Matrix::from_rows(3, 3, vec![4.0, 1.0, 1.0, 1.0, 4.0, 0.0, 1.0, 0.0, 4.0]).unwrap();
        let mut slu = StructuredLu::analyze(&a, vec![0, 1, 2]).unwrap();
        assert_eq!(slu.nnz(), 9, "fill-in at (1,2) and (2,1) must be kept");
        slu.factor(&a).unwrap();
        let x = slu.solve(&[6.0, 5.0, 5.0]).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (axi, bi) in ax.iter().zip(&[6.0, 5.0, 5.0]) {
            assert!((axi - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn structured_pivot_guard_trips_on_unstable_pivot() {
        // Identity pivot order, but the (0,0) entry collapses relative to
        // its column: the frozen order would be unstable, so factor()
        // must refuse rather than produce garbage.
        let a = Matrix::from_rows(2, 2, vec![1.0, 1.0, 1.0, 1.0e-9]).unwrap();
        let mut slu = StructuredLu::analyze(&a, vec![0, 1]).unwrap();
        slu.factor(&a).unwrap(); // fine: pivot 1.0 dominates
        let bad = Matrix::from_rows(2, 2, vec![1.0e-9, 1.0, 1.0, 1.0]).unwrap();
        assert!(matches!(
            slu.factor(&bad),
            Err(NumericsError::SingularMatrix { column: 0 })
        ));
    }

    #[test]
    fn structured_rejects_nan_via_guard() {
        let a = Matrix::from_rows(2, 2, vec![f64::NAN, 0.0, 0.0, 1.0]).unwrap();
        let mask = Matrix::identity(2);
        let mut slu = StructuredLu::analyze(&mask, vec![0, 1]).unwrap();
        assert!(slu.factor(&a).is_err());
    }

    #[test]
    fn structured_rejects_bad_permutation() {
        let a = Matrix::identity(3);
        assert!(StructuredLu::analyze(&a, vec![0, 0, 2]).is_err());
        assert!(StructuredLu::analyze(&a, vec![0, 1]).is_err());
    }

    #[test]
    fn structured_with_pivoted_order_from_dense() {
        // A system the identity order cannot factor (zero leading pivot):
        // seeding from the dense partial-pivot order makes it work.
        let a = Matrix::from_rows(2, 2, vec![0.0, 2.0, 1.0, 1.0]).unwrap();
        let mask = Matrix::from_rows(2, 2, vec![1.0, 2.0, 1.0, 1.0]).unwrap();
        let dense = LuFactors::factor(a.clone()).unwrap();
        let mut slu = StructuredLu::analyze(&mask, dense.perm().to_vec()).unwrap();
        slu.factor(&a).unwrap();
        let x = slu.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }
}
