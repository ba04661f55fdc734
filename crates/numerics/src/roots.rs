//! Bracketed root finding: bisection and the superlinear ITP method.
//!
//! Used for critical-charge extraction in `finrad-sram`: the injected pulse
//! charge at which the cell state flips is the root of
//! `f(q) = flip_margin(q)`, a monotone but non-smooth function. Every
//! objective evaluation there is a full transient simulation, so the two
//! design rules of this module are
//!
//! 1. **never waste an evaluation** — endpoint values the caller already
//!    computed are threaded in through the `*_from` variants instead of
//!    being recomputed, and
//! 2. **never trust a NaN** — a non-finite objective value is a typed
//!    [`NumericsError::NonFiniteEvaluation`] error, not a silent steering
//!    input (NaN compares false against everything, so the old code treated
//!    it as a sign change and "converged" to garbage).
//!
//! [`itp`] implements the ITP method (Oliveira & Takahashi, ACM TOMS 2021):
//! superlinear on smooth functions, while guaranteeing no more iterations
//! than bisection plus a small constant — the right trade for flip-margin
//! curves that are step-like near the threshold.

use crate::NumericsError;

/// Result of a bracketed root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Root {
    /// Approximate root location.
    pub x: f64,
    /// Residual `f(x)` at the returned point (0.0 for exact endpoint hits;
    /// for interval-converged searches, the value at the last evaluated
    /// point inside the final bracket).
    pub residual: f64,
    /// Number of objective evaluations performed *by the search* (endpoint
    /// values supplied by the caller are not counted).
    pub iterations: usize,
}

/// A bracket endpoint with its already-computed objective value.
///
/// Threading known values through saves one objective call per endpoint —
/// a full transient simulation each in the critical-charge use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Endpoint {
    /// Abscissa.
    pub x: f64,
    /// Objective value `f(x)`.
    pub fx: f64,
}

impl Endpoint {
    /// Bundles an abscissa with its known objective value.
    pub fn new(x: f64, fx: f64) -> Self {
        Self { x, fx }
    }
}

/// Rejects non-finite objective values with a typed error.
fn finite(x: f64, fx: f64) -> Result<f64, NumericsError> {
    if fx.is_finite() {
        Ok(fx)
    } else {
        Err(NumericsError::NonFiniteEvaluation { x, fx })
    }
}

/// Validates a bracket: finite endpoint values with opposite signs.
/// Returns `Ok(Some(root))` for an exact zero at either endpoint.
fn check_bracket(a: Endpoint, b: Endpoint) -> Result<Option<Root>, NumericsError> {
    finite(a.x, a.fx)?;
    finite(b.x, b.fx)?;
    // Exact-zero endpoint hits are meaningful sentinels, not comparisons.
    // finrad-lint: allow(float-discipline)
    if a.fx == 0.0 {
        return Ok(Some(Root {
            x: a.x,
            residual: 0.0,
            iterations: 0,
        }));
    }
    // finrad-lint: allow(float-discipline)
    if b.fx == 0.0 {
        return Ok(Some(Root {
            x: b.x,
            residual: 0.0,
            iterations: 0,
        }));
    }
    if a.fx.signum() == b.fx.signum() {
        return Err(NumericsError::RootNotBracketed { lo: a.x, hi: b.x });
    }
    Ok(None)
}

/// Finds a root of `f` on `[lo, hi]` by bisection.
///
/// The function values at the endpoints must have opposite signs (a value of
/// exactly zero at either endpoint is returned immediately).
///
/// # Errors
///
/// * [`NumericsError::RootNotBracketed`] if `f(lo)` and `f(hi)` have the
///   same sign.
/// * [`NumericsError::NonFiniteEvaluation`] if any evaluation of `f`
///   returns NaN or ±∞.
///
/// # Examples
///
/// ```
/// use finrad_numerics::roots::bisect;
///
/// let root = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200)?;
/// assert!((root.x - 2f64.sqrt()).abs() < 1e-10);
/// # Ok::<(), finrad_numerics::NumericsError>(())
/// ```
pub fn bisect(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    xtol: f64,
    max_iter: usize,
) -> Result<Root, NumericsError> {
    let fa = f(lo);
    let fb = f(hi);
    bisect_from(
        f,
        Endpoint::new(lo, fa),
        Endpoint::new(hi, fb),
        xtol,
        max_iter,
    )
}

/// Like [`bisect`], but with already-known endpoint values threaded in so
/// they are not recomputed.
///
/// # Errors
///
/// Same as [`bisect`] (the supplied endpoint values are validated too).
pub fn bisect_from(
    mut f: impl FnMut(f64) -> f64,
    a: Endpoint,
    b: Endpoint,
    xtol: f64,
    max_iter: usize,
) -> Result<Root, NumericsError> {
    if let Some(root) = check_bracket(a, b)? {
        return Ok(root);
    }
    let (mut a, mut b) = (a, b);
    let mut iterations = 0;
    let mut last = a;
    while (b.x - a.x).abs() > xtol && iterations < max_iter {
        let mid = 0.5 * (a.x + b.x);
        let fm = finite(mid, f(mid))?;
        iterations += 1;
        last = Endpoint::new(mid, fm);
        // finrad-lint: allow(float-discipline)
        if fm == 0.0 {
            return Ok(Root {
                x: mid,
                residual: 0.0,
                iterations,
            });
        }
        if fm.signum() == a.fx.signum() {
            a = last;
        } else {
            b = last;
        }
    }
    Ok(Root {
        x: 0.5 * (a.x + b.x),
        residual: last.fx,
        iterations,
    })
}

/// Finds a root of `f` on `[lo, hi]` with the ITP method: interpolate
/// (regula falsi), truncate toward the midpoint, then project onto the
/// minmax interval that preserves bisection's worst-case guarantee.
///
/// Superlinear on smooth functions; never more than
/// `ceil(log2((hi-lo)/(2·xtol))) + 1` evaluations — one more than
/// bisection — on adversarial (e.g. step) functions.
///
/// # Errors
///
/// Same as [`bisect`].
///
/// # Examples
///
/// ```
/// use finrad_numerics::roots::itp;
///
/// let root = itp(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200)?;
/// assert!((root.x - 2f64.sqrt()).abs() < 1e-10);
/// # Ok::<(), finrad_numerics::NumericsError>(())
/// ```
pub fn itp(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    xtol: f64,
    max_iter: usize,
) -> Result<Root, NumericsError> {
    let fa = f(lo);
    let fb = f(hi);
    itp_from(
        f,
        Endpoint::new(lo, fa),
        Endpoint::new(hi, fb),
        xtol,
        max_iter,
    )
}

/// Like [`itp`], but with already-known endpoint values threaded in so they
/// are not recomputed.
///
/// # Errors
///
/// Same as [`bisect`] (the supplied endpoint values are validated too).
pub fn itp_from(
    mut f: impl FnMut(f64) -> f64,
    a: Endpoint,
    b: Endpoint,
    xtol: f64,
    max_iter: usize,
) -> Result<Root, NumericsError> {
    if let Some(root) = check_bracket(a, b)? {
        return Ok(root);
    }
    // Work with a < b; remember the orientation for the sign updates.
    let (mut a, mut b) = if a.x <= b.x { (a, b) } else { (b, a) };
    let eps = (0.5 * xtol).max(f64::EPSILON * b.x.abs().max(a.x.abs()).max(1.0));

    // ITP tuning constants (the paper's recommendations): κ₁ scales the
    // truncation radius, κ₂ = 2 keeps the interpolant superlinear, n₀ = 1
    // extra bisection-equivalent iteration of slack.
    let kappa1 = 0.2 / (b.x - a.x).max(f64::MIN_POSITIVE);
    let n0 = 1i32;
    let n_half = ((b.x - a.x) / (2.0 * eps)).log2().ceil().max(0.0) as i32;
    let n_max = n_half + n0;

    let mut iterations = 0usize;
    let mut last = a;
    for j in 0..max_iter {
        if (b.x - a.x) <= 2.0 * eps {
            break;
        }
        let x_half = 0.5 * (a.x + b.x);
        let r = (eps * 2f64.powi((n_max - j as i32).max(0)) - 0.5 * (b.x - a.x)).max(0.0);
        let delta = kappa1 * (b.x - a.x) * (b.x - a.x);

        // Interpolation: regula falsi point (denominator nonzero — the
        // bracket guarantees opposite signs).
        let x_f = (b.fx * a.x - a.fx * b.x) / (b.fx - a.fx);
        // Truncation: move toward the midpoint by at most delta.
        let sigma = (x_half - x_f).signum();
        let x_t = if delta <= (x_half - x_f).abs() {
            x_f + sigma * delta
        } else {
            x_half
        };
        // Projection: stay within the minmax radius of the midpoint.
        let x_itp = if (x_t - x_half).abs() <= r {
            x_t
        } else {
            x_half - sigma * r
        };
        // Clamp into the open bracket so pathological rounding can't stall.
        let x_itp = x_itp.clamp(a.x + 0.25 * eps, b.x - 0.25 * eps);

        let fx = finite(x_itp, f(x_itp))?;
        iterations += 1;
        last = Endpoint::new(x_itp, fx);
        // finrad-lint: allow(float-discipline)
        if fx == 0.0 {
            return Ok(Root {
                x: x_itp,
                residual: 0.0,
                iterations,
            });
        }
        if fx.signum() == a.fx.signum() {
            a = last;
        } else {
            b = last;
        }
    }
    Ok(Root {
        x: 0.5 * (a.x + b.x),
        residual: last.fx,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_sqrt_two() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-13, 100).unwrap();
        assert!((r.x - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!(r.iterations > 10);
    }

    #[test]
    fn exact_zero_at_endpoint() {
        let r = bisect(|x| x, 0.0, 1.0, 1e-12, 100).unwrap();
        assert_eq!(r.x, 0.0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn unbracketed_is_error() {
        assert!(matches!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100),
            Err(NumericsError::RootNotBracketed { .. })
        ));
    }

    #[test]
    fn step_function_root() {
        // Non-smooth monotone function, like a flip/no-flip indicator.
        let r = bisect(|x| if x < 0.37 { -1.0 } else { 1.0 }, 0.0, 1.0, 1e-9, 100).unwrap();
        assert!((r.x - 0.37).abs() < 1e-8);
    }

    #[test]
    fn nan_midpoint_is_typed_error_not_convergence() {
        // Bracket is valid but the objective NaNs inside it: the old code
        // treated NaN as a sign change and silently bisected to garbage.
        let res = bisect(
            |x| {
                if (0.4..0.6).contains(&x) {
                    f64::NAN
                } else {
                    x - 0.55
                }
            },
            0.0,
            1.0,
            1e-12,
            100,
        );
        match res {
            Err(NumericsError::NonFiniteEvaluation { x, fx }) => {
                assert!((0.4..0.6).contains(&x));
                assert!(fx.is_nan());
            }
            other => panic!("expected NonFiniteEvaluation, got {other:?}"),
        }
    }

    #[test]
    fn nan_endpoint_is_typed_error_everywhere() {
        let nan_at = |bad: f64| move |x: f64| if x == bad { f64::NAN } else { x - 0.5 };
        assert!(matches!(
            bisect(nan_at(0.0), 0.0, 1.0, 1e-12, 100),
            Err(NumericsError::NonFiniteEvaluation { .. })
        ));
        assert!(matches!(
            itp(nan_at(1.0), 0.0, 1.0, 1e-12, 100),
            Err(NumericsError::NonFiniteEvaluation { .. })
        ));
        // And threaded-in endpoint values are validated too.
        assert!(matches!(
            bisect_from(
                |x| x,
                Endpoint::new(0.0, f64::NAN),
                Endpoint::new(1.0, 1.0),
                1e-12,
                100
            ),
            Err(NumericsError::NonFiniteEvaluation { .. })
        ));
    }

    #[test]
    fn threaded_endpoints_are_not_reevaluated() {
        let mut calls = 0usize;
        let r = bisect_from(
            |x| {
                calls += 1;
                assert!(x > 0.0 && x < 1.0, "endpoint re-evaluated at {x}");
                x - 0.3
            },
            Endpoint::new(0.0, -0.3),
            Endpoint::new(1.0, 0.7),
            1e-9,
            100,
        )
        .unwrap();
        assert!((r.x - 0.3).abs() < 1e-8);
        assert_eq!(calls, r.iterations);
    }

    #[test]
    fn itp_matches_bisection_accuracy() {
        let r = itp(|x| x * x - 2.0, 0.0, 2.0, 1e-13, 100).unwrap();
        assert!((r.x - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn itp_is_superlinear_on_smooth_functions() {
        let xtol = 1e-12;
        let b = bisect(|x| x * x * x - 2.0 * x - 5.0, 1.0, 3.0, xtol, 200).unwrap();
        let i = itp(|x| x * x * x - 2.0 * x - 5.0, 1.0, 3.0, xtol, 200).unwrap();
        assert!((i.x - b.x).abs() < 1e-10);
        assert!(
            i.iterations * 2 < b.iterations,
            "ITP {} evals vs bisection {}",
            i.iterations,
            b.iterations
        );
    }

    #[test]
    fn itp_never_much_worse_than_bisection_on_steps() {
        // Worst case for interpolation: a step function. ITP must stay
        // within the minmax bound (bisection count + n0).
        let xtol = 1e-9;
        let n_bisect = ((1.0f64 / xtol).log2()).ceil() as usize;
        let r = itp(|x| if x < 0.37 { -1.0 } else { 1.0 }, 0.0, 1.0, xtol, 200).unwrap();
        assert!((r.x - 0.37).abs() < xtol);
        assert!(
            r.iterations <= n_bisect + 2,
            "ITP used {} evals, bisection bound {}",
            r.iterations,
            n_bisect
        );
    }

    #[test]
    fn itp_property_non_smooth_monotone_steps() {
        // Property test: random monotone step functions (the flip-margin
        // shape) with random thresholds, plateau magnitudes and
        // orientations must all converge to the threshold within xtol and
        // within the minmax evaluation bound.
        let mut state = 0x5EED_CAFE_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let xtol = 1e-8;
        for trial in 0..200 {
            let lo = next() * 10.0 - 5.0;
            let hi = lo + 0.1 + next() * 10.0;
            let thresh = lo + (0.05 + 0.9 * next()) * (hi - lo);
            let mag_lo = 0.01 + next() * 100.0;
            let mag_hi = 0.01 + next() * 100.0;
            let rising = next() < 0.5;
            let f = |x: f64| {
                if x < thresh {
                    if rising {
                        -mag_lo
                    } else {
                        mag_lo
                    }
                } else if rising {
                    mag_hi
                } else {
                    -mag_hi
                }
            };
            let n_bisect = (((hi - lo) / xtol).log2()).ceil() as usize;
            let r = itp(f, lo, hi, xtol, 500).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            assert!(
                (r.x - thresh).abs() <= xtol,
                "trial {trial}: root {} vs threshold {thresh} (tol {xtol})",
                r.x
            );
            assert!(
                r.iterations <= n_bisect + 2,
                "trial {trial}: {} evals vs bound {}",
                r.iterations,
                n_bisect + 2
            );
        }
    }

    #[test]
    fn itp_accepts_reversed_endpoint_order() {
        let r = itp_from(
            |x| x - 0.25,
            Endpoint::new(1.0, 0.75),
            Endpoint::new(0.0, -0.25),
            1e-10,
            100,
        )
        .unwrap();
        assert!((r.x - 0.25).abs() < 1e-9);
    }
}
