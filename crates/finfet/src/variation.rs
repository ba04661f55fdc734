//! Process-variation model: per-instance threshold-voltage sampling.
//!
//! The paper's Section 4 characterizes POF "considering the threshold
//! voltage variation by performing 1000 MC simulations". Threshold
//! variation in FinFETs is dominated by work-function granularity and
//! line-edge roughness and is well described by a normal distribution whose
//! σ follows Pelgrom area scaling, `σ_Vth = A_Vt/√(W_eff·L)`.

use crate::technology::Technology;
use finrad_numerics::rng::Rng;
use finrad_units::Voltage;

/// Threshold-variation model bound to a technology.
///
/// # Examples
///
/// ```
/// use finrad_finfet::{Technology, VariationModel};
/// use finrad_numerics::rng::Xoshiro256pp;
///
/// let tech = Technology::soi_finfet_14nm();
/// let var = VariationModel::pelgrom(&tech);
/// let mut rng = Xoshiro256pp::seed_from_u64(3);
/// let d = var.sample_delta_vth(1, &mut rng);
/// assert!(d.volts().abs() < 0.5); // a few sigma at most
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VariationModel {
    sigma_one_fin: Voltage,
    /// Global scale knob (1.0 = nominal technology corner).
    scale: f64,
}

impl VariationModel {
    /// Pelgrom-scaled variation for `tech`.
    pub fn pelgrom(tech: &Technology) -> Self {
        Self {
            sigma_one_fin: tech.sigma_vth(1),
            scale: 1.0,
        }
    }

    /// Returns a copy with σ multiplied by `scale` (corner exploration).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is negative or non-finite.
    pub fn with_scale(&self, scale: f64) -> Self {
        assert!(scale.is_finite() && scale >= 0.0, "invalid sigma scale");
        Self {
            sigma_one_fin: self.sigma_one_fin,
            scale,
        }
    }

    /// σ_Vth for a device with `n_fins` fins.
    pub fn sigma_vth(&self, n_fins: u32) -> Voltage {
        assert!(n_fins > 0, "device needs at least one fin");
        self.sigma_one_fin * self.scale / (n_fins as f64).sqrt()
    }

    /// Draws one ΔVth for a device with `n_fins` fins.
    pub fn sample_delta_vth<R: Rng + ?Sized>(&self, n_fins: u32, rng: &mut R) -> Voltage {
        let sigma = self.sigma_vth(n_fins);
        sigma * standard_normal(rng)
    }
}

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(0.0f64..1.0);
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen_range(0.0f64..1.0);
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finrad_numerics::rng::Xoshiro256pp;

    #[test]
    fn sample_statistics_match_sigma() {
        let tech = Technology::soi_finfet_14nm();
        let var = VariationModel::pelgrom(&tech);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let n = 50_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| var.sample_delta_vth(1, &mut rng).volts())
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var_est = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let sigma_expect = var.sigma_vth(1).volts();
        assert!(mean.abs() < 0.002, "mean {mean}");
        assert!(
            (var_est.sqrt() - sigma_expect).abs() / sigma_expect < 0.03,
            "sigma {} vs {}",
            var_est.sqrt(),
            sigma_expect
        );
    }

    #[test]
    fn scale_zero_is_deterministic() {
        let tech = Technology::soi_finfet_14nm();
        let var = VariationModel::pelgrom(&tech).with_scale(0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        for _ in 0..10 {
            assert_eq!(var.sample_delta_vth(1, &mut rng).volts(), 0.0);
        }
    }

    #[test]
    fn multi_fin_averaging() {
        let tech = Technology::soi_finfet_14nm();
        let var = VariationModel::pelgrom(&tech);
        let r = var.sigma_vth(1).volts() / var.sigma_vth(4).volts();
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid sigma scale")]
    fn rejects_negative_scale() {
        let tech = Technology::soi_finfet_14nm();
        let _ = VariationModel::pelgrom(&tech).with_scale(-1.0);
    }
}
