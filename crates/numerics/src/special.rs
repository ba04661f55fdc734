//! Special functions.
//!
//! Only what the workspace needs: the error function, used by the
//! conditional-expectation straggling treatment (Moyal survival
//! probabilities).

/// The error function `erf(x) = 2/√π ∫₀ˣ e^(−t²) dt`.
///
/// Uses the Maclaurin series for `|x| < 0.5` (machine-accurate there) and
/// the Abramowitz–Stegun 7.1.26 rational approximation elsewhere
/// (|error| < 1.5·10⁻⁷).
///
/// # Examples
///
/// ```
/// use finrad_numerics::special::erf;
///
/// assert!(erf(0.0).abs() < 1e-15);
/// assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
/// assert!((erf(-1.0) + erf(1.0)).abs() < 1e-12); // odd function
/// assert!(erf(5.0) > 0.999999);
/// ```
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        return -erf(-x);
    }
    if x < 0.5 {
        // Maclaurin series: erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n! (2n+1)).
        let x2 = x * x;
        let mut term = x;
        let mut sum = x;
        for n in 1..24 {
            term *= -x2 / n as f64;
            let add = term / (2.0 * n as f64 + 1.0);
            sum += add;
            if add.abs() < 1e-18 * sum.abs() {
                break;
            }
        }
        return std::f64::consts::FRAC_2_SQRT_PI * sum;
    }
    // Abramowitz & Stegun 7.1.26.
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;
    let t = 1.0 / (1.0 + P * x);
    let poly = ((((A5 * t + A4) * t + A3) * t + A2) * t + A1) * t;
    1.0 - poly * (-x * x).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        let table = [
            (0.0, 0.0),
            (0.1, 0.112_462_916),
            (0.5, 0.520_499_878),
            (1.0, 0.842_700_793),
            (1.5, 0.966_105_146),
            (2.0, 0.995_322_265),
            (3.0, 0.999_977_910),
        ];
        for (x, v) in table {
            assert!((erf(x) - v).abs() < 2e-7, "erf({x}) = {} vs {v}", erf(x));
        }
    }

    #[test]
    fn erf_bits_pinned() {
        // Both branches, pinned bit for bit (the series' 2/sqrt(pi) factor
        // is `FRAC_2_SQRT_PI`).
        let got = [1e-8, 0.1, 0.3, 0.49, -0.25, 1.0].map(|x| erf(x).to_bits());
        assert_eq!(
            got,
            [
                4487902262780728596,
                4592768227809932084,
                4599591633323682320,
                4602783917526128302,
                13822021510483858952,
                4605765592569940628,
            ]
        );
    }

    #[test]
    fn small_argument_linear_regime() {
        // erf(x) ~ 2x/sqrt(pi) for tiny x (the tail-probability regime).
        for x in [1e-12, 1e-8, 1e-4] {
            let expect = 2.0 * x / std::f64::consts::PI.sqrt();
            assert!((erf(x) - expect).abs() / expect < 1e-6, "erf({x})");
        }
    }

    #[test]
    fn oddness_and_limits() {
        for x in [0.2, 0.7, 1.3, 2.5] {
            assert!((erf(-x) + erf(x)).abs() < 1e-12);
        }
        assert!(erf(10.0) <= 1.0);
        assert!(1.0 - erf(10.0) >= 0.0);
        assert!(erf(0.0).abs() < 1e-15);
    }

    #[test]
    fn monotone() {
        let mut prev = -1.0;
        for i in 0..100 {
            let v = erf(-3.0 + i as f64 * 0.06);
            assert!(v >= prev - 1e-9);
            prev = v;
        }
    }
}
