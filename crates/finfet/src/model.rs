//! EKV-style FinFET compact model.
//!
//! The drain current is the difference of a forward and a reverse
//! interpolation function,
//!
//! ```text
//! I_d = I_spec · [F(x_s) − F(x_d)],   F(x) = ln²(1 + e^{x/2})
//! x_s = v_p/φt,  x_d = (v_p − v_ds)/φt,  v_p = (v_gs − V_th,eff)/n
//! V_th,eff = V_th0 + δV_th − η·v_ds          (DIBL)
//! I_spec = 2·n·µ·C_ox·(W_eff/L)·φt²
//! ```
//!
//! which is smooth from deep subthreshold (`F → e^x`, giving the exponential
//! leakage with slope `n·φt·ln 10`) to strong inversion (`F → (x/2)²`,
//! giving square-law saturation), and is infinitely differentiable — the
//! property the Newton solver in `finrad-spice` relies on. Source/drain
//! symmetry is handled by terminal swap; PMOS by voltage mirroring.

use crate::technology::Technology;
use finrad_units::Voltage;

/// Channel polarity of a FinFET instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Polarity {
    /// N-channel (pull-down and pass-gate devices in the 6T cell).
    Nmos,
    /// P-channel (pull-up devices).
    Pmos,
}

/// Operating-point evaluation of a device: drain current and its partial
/// derivatives with respect to the three terminal voltages.
///
/// `id` is the conventional current flowing *into* the drain terminal.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SmallSignal {
    /// Drain current, amperes.
    pub id: f64,
    /// ∂I_d/∂V_g, siemens.
    pub did_dvg: f64,
    /// ∂I_d/∂V_d, siemens.
    pub did_dvd: f64,
    /// ∂I_d/∂V_s, siemens.
    pub did_dvs: f64,
}

/// A sized FinFET instance bound to a [`Technology`].
///
/// # Examples
///
/// ```
/// use finrad_finfet::{FinFet, Polarity, Technology};
///
/// let tech = Technology::soi_finfet_14nm();
/// let nfet = FinFet::new(&tech, Polarity::Nmos, 1);
/// let on = nfet.evaluate(0.8, 0.8, 0.0);
/// let off = nfet.evaluate(0.0, 0.8, 0.0);
/// assert!(on.id > 1e3 * off.id); // strong ON/OFF ratio
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FinFet {
    polarity: Polarity,
    n_fins: u32,
    /// Zero-bias threshold magnitude, volts.
    vth0: f64,
    /// Per-instance threshold shift (process variation), volts.
    delta_vth: f64,
    /// Subthreshold slope factor.
    n_slope: f64,
    /// DIBL coefficient.
    eta: f64,
    /// Specific current I_spec, amperes.
    i_spec: f64,
    /// Thermal voltage, volts.
    phi_t: f64,
    /// Gate capacitance (total, all fins), farads.
    c_gate: f64,
    /// Junction capacitance at drain and at source (each), farads.
    c_junction: f64,
}

/// Numerically safe softplus: `ln(1 + e^x)`.
fn softplus(x: f64) -> f64 {
    if x > 40.0 {
        x
    } else if x < -40.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Logistic sigmoid, the derivative of softplus.
fn sigmoid(x: f64) -> f64 {
    if x > 40.0 {
        1.0
    } else if x < -40.0 {
        x.exp()
    } else {
        1.0 / (1.0 + (-x).exp())
    }
}

/// The EKV interpolation function `F(x) = ln²(1 + e^{x/2})` and its
/// derivative `F'(x) = ln(1 + e^{x/2}) · σ(x/2)`, sharing one softplus.
fn ekv_f_and_prime(x: f64) -> (f64, f64) {
    let s = softplus(0.5 * x);
    (s * s, s * sigmoid(0.5 * x))
}

impl FinFet {
    /// Creates a device with `n_fins` parallel fins in `tech`.
    ///
    /// # Panics
    ///
    /// Panics if `n_fins == 0`.
    pub fn new(tech: &Technology, polarity: Polarity, n_fins: u32) -> Self {
        assert!(n_fins > 0, "device needs at least one fin");
        let (vth0, mu_cm2) = match polarity {
            Polarity::Nmos => (tech.vth_n.volts(), tech.mu_n_cm2),
            Polarity::Pmos => (tech.vth_p.volts(), tech.mu_p_cm2),
        };
        let phi_t = tech.thermal_voltage().volts();
        let w_over_l = tech.w_eff_per_fin().meters() * n_fins as f64 / tech.l_gate.meters();
        let mu_m2 = mu_cm2 * 1.0e-4;
        let i_spec = 2.0 * tech.slope_factor * mu_m2 * tech.cox_f_per_m2 * w_over_l * phi_t * phi_t;
        Self {
            polarity,
            n_fins,
            vth0,
            delta_vth: 0.0,
            n_slope: tech.slope_factor,
            eta: tech.dibl,
            i_spec,
            phi_t,
            c_gate: tech.gate_cap_per_fin_f() * n_fins as f64,
            c_junction: tech.junction_cap_per_fin_f * n_fins as f64,
        }
    }

    /// Returns a copy with an added threshold-voltage shift (used by the
    /// process-variation Monte Carlo; positive `delta` weakens an NMOS and
    /// strengthens nothing — the sign convention is "added to |Vth|").
    pub fn with_delta_vth(&self, delta: Voltage) -> Self {
        let mut d = self.clone();
        d.delta_vth = delta.volts();
        d
    }

    /// Channel polarity.
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// Number of parallel fins.
    pub fn n_fins(&self) -> u32 {
        self.n_fins
    }

    /// Total gate capacitance, farads.
    pub fn gate_cap_f(&self) -> f64 {
        self.c_gate
    }

    /// Junction capacitance at each of drain and source, farads.
    pub fn junction_cap_f(&self) -> f64 {
        self.c_junction
    }

    /// The applied threshold shift, volts.
    pub fn delta_vth_v(&self) -> f64 {
        self.delta_vth
    }

    /// Evaluates drain current and derivatives at terminal voltages
    /// `(v_gate, v_drain, v_source)` in volts (ground-referenced).
    pub fn evaluate(&self, v_gate: f64, v_drain: f64, v_source: f64) -> SmallSignal {
        match self.polarity {
            Polarity::Nmos => self.evaluate_nmos(v_gate, v_drain, v_source),
            Polarity::Pmos => {
                // Mirror: a PMOS at (vg, vd, vs) behaves as an NMOS at the
                // negated voltages with the current direction flipped.
                let m = self.evaluate_nmos(-v_gate, -v_drain, -v_source);
                SmallSignal {
                    id: -m.id,
                    did_dvg: m.did_dvg,
                    did_dvd: m.did_dvd,
                    did_dvs: m.did_dvs,
                }
            }
        }
    }

    /// Drain current alone at terminal voltages `(v_gate, v_drain,
    /// v_source)`, bit-identical to `evaluate(..).id` but without the
    /// derivative work: one softplus per terminal instead of a softplus
    /// and a sigmoid. The Newton residual needs only this.
    pub fn drain_current(&self, v_gate: f64, v_drain: f64, v_source: f64) -> f64 {
        match self.polarity {
            Polarity::Nmos => self.drain_current_nmos(v_gate, v_drain, v_source),
            Polarity::Pmos => -self.drain_current_nmos(-v_gate, -v_drain, -v_source),
        }
    }

    fn drain_current_nmos(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        // Same source/drain swap as `evaluate_nmos`.
        if vd >= vs {
            self.drain_current_nmos_forward(self.ekv_args(vg, vd, vs))
        } else {
            -self.drain_current_nmos_forward(self.ekv_args(vg, vs, vd))
        }
    }

    /// `I_spec · [F(x_s) − F(x_d)]` at the arguments of a forward-biased
    /// device.
    fn drain_current_nmos_forward(&self, (xs, xd): (f64, f64)) -> f64 {
        let (s_s, s_d) = (softplus(0.5 * xs), softplus(0.5 * xd));
        self.i_spec * (s_s * s_s - s_d * s_d)
    }

    /// The normalized source and drain arguments `(x_s, x_d)` of the
    /// interpolation function, for `vd >= vs`.
    fn ekv_args(&self, vg: f64, vd: f64, vs: f64) -> (f64, f64) {
        let vgs = vg - vs;
        let vds = vd - vs;
        let vth_eff = self.vth0 + self.delta_vth - self.eta * vds;
        let vp = (vgs - vth_eff) / self.n_slope;
        (vp / self.phi_t, (vp - vds) / self.phi_t)
    }

    fn evaluate_nmos(&self, vg: f64, vd: f64, vs: f64) -> SmallSignal {
        if vd >= vs {
            self.evaluate_nmos_forward(self.ekv_args(vg, vd, vs))
        } else {
            // Source/drain symmetry: swap terminals, flip the current.
            let sw = self.evaluate_nmos_forward(self.ekv_args(vg, vs, vd));
            SmallSignal {
                id: -sw.id,
                did_dvg: -sw.did_dvg,
                // Swapped: derivative wrt our vd is theirs wrt vs.
                did_dvd: -sw.did_dvs,
                did_dvs: -sw.did_dvd,
            }
        }
    }

    /// Core evaluation at the arguments [`FinFet::ekv_args`] gives for
    /// `vd >= vs`.
    fn evaluate_nmos_forward(&self, (xs, xd): (f64, f64)) -> SmallSignal {
        let (n, eta, phi_t) = (self.n_slope, self.eta, self.phi_t);
        let (f_s, fp_s) = ekv_f_and_prime(xs);
        let (f_d, fp_d) = ekv_f_and_prime(xd);

        let id = self.i_spec * (f_s - f_d);

        // Chain rule: dvp/dvg = 1/n, dvp/dvd = eta/n, dvp/dvs = -(1+eta)/n;
        // dvds/dvd = 1, dvds/dvs = -1, dvds/dvg = 0.
        let dvp = [1.0 / n, eta / n, -(1.0 + eta) / n];
        let dvds = [0.0, 1.0, -1.0];
        let mut deriv = [0.0f64; 3];
        for k in 0..3 {
            let dxs = dvp[k] / phi_t;
            let dxd = (dvp[k] - dvds[k]) / phi_t;
            deriv[k] = self.i_spec * (fp_s * dxs - fp_d * dxd);
        }
        SmallSignal {
            id,
            did_dvg: deriv[0],
            did_dvd: deriv[1],
            did_dvs: deriv[2],
        }
    }

    /// ON-state drain current at `vdd` (gate and drain at `vdd`, source at
    /// ground for NMOS; mirrored for PMOS).
    pub fn on_current(&self, vdd: Voltage) -> f64 {
        let v = vdd.volts();
        match self.polarity {
            Polarity::Nmos => self.evaluate(v, v, 0.0).id,
            Polarity::Pmos => -self.evaluate(0.0, 0.0, v).id,
        }
    }

    /// OFF-state leakage magnitude at `vdd` (gate at the source potential).
    pub fn off_current(&self, vdd: Voltage) -> f64 {
        let v = vdd.volts();
        match self.polarity {
            Polarity::Nmos => self.evaluate(0.0, v, 0.0).id,
            Polarity::Pmos => -self.evaluate(v, 0.0, v).id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::soi_finfet_14nm()
    }

    fn nfet() -> FinFet {
        FinFet::new(&tech(), Polarity::Nmos, 1)
    }

    fn pfet() -> FinFet {
        FinFet::new(&tech(), Polarity::Pmos, 1)
    }

    #[test]
    fn on_current_is_14nm_class() {
        // Per-fin drive current should be tens of µA.
        let ion = nfet().on_current(Voltage::from_volts(0.8)) * 1.0e6;
        assert!((10.0..300.0).contains(&ion), "I_on = {ion} uA");
    }

    #[test]
    fn on_off_ratio_large() {
        let d = nfet();
        let vdd = Voltage::from_volts(0.8);
        let ratio = d.on_current(vdd) / d.off_current(vdd);
        assert!(ratio > 1.0e4, "ON/OFF ratio {ratio}");
    }

    #[test]
    fn subthreshold_slope_near_ideal() {
        // Current should fall ~1 decade per n·φt·ln10 ≈ 65 mV of Vgs.
        let d = nfet();
        let i1 = d.evaluate(0.15, 0.8, 0.0).id;
        let i2 = d.evaluate(0.15 - 0.0655, 0.8, 0.0).id;
        let decade = (i1 / i2).log10();
        assert!((decade - 1.0).abs() < 0.15, "decades per 65.5mV: {decade}");
    }

    #[test]
    fn dibl_raises_leakage_with_vds() {
        let d = nfet();
        let low = d.evaluate(0.0, 0.4, 0.0).id;
        let high = d.evaluate(0.0, 0.8, 0.0).id;
        assert!(high > 1.5 * low, "DIBL: {high} vs {low}");
    }

    #[test]
    fn saturation_region_flat() {
        // Beyond vdsat, current grows only weakly with vd (DIBL only).
        let d = nfet();
        let a = d.evaluate(0.8, 0.5, 0.0).id;
        let b = d.evaluate(0.8, 0.8, 0.0).id;
        assert!(b > a); // monotone
        assert!(b < 1.3 * a, "should be nearly saturated: {a} vs {b}");
    }

    #[test]
    fn zero_vds_zero_current() {
        let d = nfet();
        let s = d.evaluate(0.8, 0.3, 0.3);
        assert!(s.id.abs() < 1e-12);
    }

    #[test]
    fn symmetry_swap_antisymmetric() {
        let d = nfet();
        let fwd = d.evaluate(0.6, 0.5, 0.1);
        let rev = d.evaluate(0.6, 0.1, 0.5);
        assert!((fwd.id + rev.id).abs() < 1e-15 + 1e-9 * fwd.id.abs());
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let p = pfet();
        // PMOS ON: gate low, source at vdd, drain low => current out of drain.
        let on = p.evaluate(0.0, 0.0, 0.8);
        assert!(
            on.id < 0.0,
            "PMOS pulls current out of its drain (id={})",
            on.id
        );
        assert!(p.on_current(Voltage::from_volts(0.8)) > 1e-6);
        // OFF: gate high.
        let off = p.evaluate(0.8, 0.0, 0.8);
        assert!(off.id.abs() < on.id.abs() / 1e4);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let d = nfet();
        let p = pfet();
        let h = 1e-7;
        for dev in [&d, &p] {
            for (vg, vd, vs) in [
                (0.8, 0.8, 0.0),
                (0.4, 0.2, 0.0),
                (0.1, 0.8, 0.0),
                (0.6, 0.1, 0.5),
                (0.0, 0.0, 0.8),
                (0.3, 0.7, 0.7),
            ] {
                let s = dev.evaluate(vg, vd, vs);
                let num_g =
                    (dev.evaluate(vg + h, vd, vs).id - dev.evaluate(vg - h, vd, vs).id) / (2.0 * h);
                let num_d =
                    (dev.evaluate(vg, vd + h, vs).id - dev.evaluate(vg, vd - h, vs).id) / (2.0 * h);
                let num_s =
                    (dev.evaluate(vg, vd, vs + h).id - dev.evaluate(vg, vd, vs - h).id) / (2.0 * h);
                let scale = s.did_dvg.abs() + s.did_dvd.abs() + s.did_dvs.abs() + 1e-12;
                assert!(
                    (s.did_dvg - num_g).abs() / scale < 1e-4,
                    "gm mismatch at ({vg},{vd},{vs}): {} vs {num_g}",
                    s.did_dvg
                );
                assert!(
                    (s.did_dvd - num_d).abs() / scale < 1e-4,
                    "gds mismatch at ({vg},{vd},{vs}): {} vs {num_d}",
                    s.did_dvd
                );
                assert!(
                    (s.did_dvs - num_s).abs() / scale < 1e-4,
                    "gms mismatch at ({vg},{vd},{vs}): {} vs {num_s}",
                    s.did_dvs
                );
            }
        }
    }

    #[test]
    fn common_mode_shift_invariance() {
        let d = nfet();
        let a = d.evaluate(0.5, 0.4, 0.1);
        let b = d.evaluate(0.8, 0.7, 0.4);
        assert!((a.id - b.id).abs() < 1e-12 + 1e-9 * a.id.abs());
    }

    #[test]
    fn delta_vth_weakens_device() {
        let d = nfet();
        let weak = d.with_delta_vth(Voltage::from_mv(50.0));
        let strong = d.with_delta_vth(Voltage::from_mv(-50.0));
        let vdd = Voltage::from_volts(0.8);
        assert!(weak.on_current(vdd) < d.on_current(vdd));
        assert!(strong.on_current(vdd) > d.on_current(vdd));
        assert_eq!(weak.delta_vth_v(), 0.05);
    }

    #[test]
    fn fins_scale_current_and_caps() {
        let t = tech();
        let d1 = FinFet::new(&t, Polarity::Nmos, 1);
        let d2 = FinFet::new(&t, Polarity::Nmos, 2);
        let vdd = Voltage::from_volts(0.8);
        let r = d2.on_current(vdd) / d1.on_current(vdd);
        assert!((r - 2.0).abs() < 1e-9);
        assert!((d2.gate_cap_f() / d1.gate_cap_f() - 2.0).abs() < 1e-9);
        assert!((d2.junction_cap_f() / d1.junction_cap_f() - 2.0).abs() < 1e-9);
        assert_eq!(d2.n_fins(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one fin")]
    fn rejects_zero_fins() {
        let _ = FinFet::new(&tech(), Polarity::Nmos, 0);
    }

    #[test]
    fn ekv_f_limits() {
        let ekv_f = |x| ekv_f_and_prime(x).0;
        // Subthreshold: F(x) ~ e^x for very negative x.
        let x = -20.0;
        assert!((ekv_f(x) / x.exp() - 1.0).abs() < 0.01);
        // Strong inversion: F(x) ~ (x/2)^2 for large x.
        let y = 60.0;
        assert!((ekv_f(y) / (y / 2.0 + 1.0e-9).powi(2) - 1.0).abs() < 0.05);
        // No overflow at extreme drive.
        assert!(ekv_f(4000.0).is_finite());
        assert!(ekv_f_and_prime(4000.0).1.is_finite());
        assert!(ekv_f(-4000.0) >= 0.0);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use finrad_numerics::rng::{Rng, Xoshiro256pp};

    #[test]
    fn current_finite_and_sign_consistent() {
        let d = FinFet::new(&Technology::soi_finfet_14nm(), Polarity::Nmos, 1);
        let mut rng = Xoshiro256pp::seed_from_u64(0xF1);
        for _ in 0..500 {
            let vg = rng.gen_range(-1.5..1.5);
            let vd = rng.gen_range(-1.5..1.5);
            let vs = rng.gen_range(-1.5..1.5);
            let s = d.evaluate(vg, vd, vs);
            assert!(s.id.is_finite());
            if vd > vs {
                assert!(s.id >= -1e-18);
            } else if vd < vs {
                assert!(s.id <= 1e-18);
            }
        }
    }

    #[test]
    fn gm_nonnegative() {
        let d = FinFet::new(&Technology::soi_finfet_14nm(), Polarity::Nmos, 1);
        let mut rng = Xoshiro256pp::seed_from_u64(0x9E);
        for _ in 0..500 {
            let vg = rng.gen_range(-1.0..1.0);
            let vd = rng.gen_range(0.0..1.0);
            let s = d.evaluate(vg, vd, 0.0);
            assert!(s.did_dvg >= -1e-18);
        }
    }

    #[test]
    fn monotone_in_vgs() {
        let d = FinFet::new(&Technology::soi_finfet_14nm(), Polarity::Nmos, 1);
        let mut rng = Xoshiro256pp::seed_from_u64(0x360);
        for _ in 0..500 {
            let vd = rng.gen_range(0.1..1.0);
            let v1 = rng.gen_range(-0.5..1.0);
            let v2 = rng.gen_range(-0.5..1.0);
            let (lo, hi) = if v1 < v2 { (v1, v2) } else { (v2, v1) };
            let i_lo = d.evaluate(lo, vd, 0.0).id;
            let i_hi = d.evaluate(hi, vd, 0.0).id;
            assert!(i_hi >= i_lo - 1e-18);
        }
    }
}

/// Bit-identity of the current-only path and the shared-softplus
/// evaluation against the model as first written: a verbatim copy of the
/// original two-softplus `F`/`F'` code and evaluation is kept here as the
/// reference, and every result is compared by `to_bits`.
#[cfg(test)]
mod bit_identity_tests {
    use super::*;
    use finrad_numerics::rng::{Rng, Xoshiro256pp};

    fn reference_ekv_f(x: f64) -> f64 {
        let s = softplus(0.5 * x);
        s * s
    }

    fn reference_ekv_f_prime(x: f64) -> f64 {
        softplus(0.5 * x) * sigmoid(0.5 * x)
    }

    fn reference_evaluate(dev: &FinFet, v_gate: f64, v_drain: f64, v_source: f64) -> SmallSignal {
        match dev.polarity {
            Polarity::Nmos => reference_evaluate_nmos(dev, v_gate, v_drain, v_source),
            Polarity::Pmos => {
                let m = reference_evaluate_nmos(dev, -v_gate, -v_drain, -v_source);
                SmallSignal {
                    id: -m.id,
                    did_dvg: m.did_dvg,
                    did_dvd: m.did_dvd,
                    did_dvs: m.did_dvs,
                }
            }
        }
    }

    fn reference_evaluate_nmos(dev: &FinFet, vg: f64, vd: f64, vs: f64) -> SmallSignal {
        if vd >= vs {
            reference_evaluate_nmos_forward(dev, vg, vd, vs)
        } else {
            let sw = reference_evaluate_nmos_forward(dev, vg, vs, vd);
            SmallSignal {
                id: -sw.id,
                did_dvg: -sw.did_dvg,
                did_dvd: -sw.did_dvs,
                did_dvs: -sw.did_dvd,
            }
        }
    }

    fn reference_evaluate_nmos_forward(dev: &FinFet, vg: f64, vd: f64, vs: f64) -> SmallSignal {
        let (n, eta, phi_t) = (dev.n_slope, dev.eta, dev.phi_t);
        let vgs = vg - vs;
        let vds = vd - vs;
        let vth_eff = dev.vth0 + dev.delta_vth - eta * vds;
        let vp = (vgs - vth_eff) / n;
        let xs = vp / phi_t;
        let xd = (vp - vds) / phi_t;
        reference_at(dev, xs, xd)
    }

    /// The rest of the reference evaluation, from the arguments on.
    fn reference_at(dev: &FinFet, xs: f64, xd: f64) -> SmallSignal {
        let (n, eta, phi_t) = (dev.n_slope, dev.eta, dev.phi_t);
        let f_s = reference_ekv_f(xs);
        let f_d = reference_ekv_f(xd);
        let fp_s = reference_ekv_f_prime(xs);
        let fp_d = reference_ekv_f_prime(xd);

        let id = dev.i_spec * (f_s - f_d);

        let dvp = [1.0 / n, eta / n, -(1.0 + eta) / n];
        let dvds = [0.0, 1.0, -1.0];
        let mut deriv = [0.0f64; 3];
        for k in 0..3 {
            let dxs = dvp[k] / phi_t;
            let dxd = (dvp[k] - dvds[k]) / phi_t;
            deriv[k] = dev.i_spec * (fp_s * dxs - fp_d * dxd);
        }
        SmallSignal {
            id,
            did_dvg: deriv[0],
            did_dvd: deriv[1],
            did_dvs: deriv[2],
        }
    }

    /// NMOS and PMOS, each nominal and shifted by ±50 mV.
    fn devices() -> Vec<FinFet> {
        let tech = Technology::soi_finfet_14nm();
        let mut out = Vec::new();
        for polarity in [Polarity::Nmos, Polarity::Pmos] {
            let d = FinFet::new(&tech, polarity, 1);
            for mv in [0.0, 50.0, -50.0] {
                out.push(d.with_delta_vth(Voltage::from_mv(mv)));
            }
        }
        out
    }

    /// Asserts that `got` and the current-only `i` reproduce `want` bit
    /// for bit.
    fn assert_same(got: SmallSignal, i: f64, want: SmallSignal, at: &str) {
        for (name, g, w) in [
            ("id", got.id, want.id),
            ("did_dvg", got.did_dvg, want.did_dvg),
            ("did_dvd", got.did_dvd, want.did_dvd),
            ("did_dvs", got.did_dvs, want.did_dvs),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{name} {g:e} vs {w:e}, {at}");
        }
        assert_eq!(
            i.to_bits(),
            want.id.to_bits(),
            "drain current {i:e} vs {:e}, {at}",
            want.id
        );
    }

    /// Both public paths against the reference at one terminal point.
    fn assert_bits(dev: &FinFet, vg: f64, vd: f64, vs: f64) {
        assert_same(
            dev.evaluate(vg, vd, vs),
            dev.drain_current(vg, vd, vs),
            reference_evaluate(dev, vg, vd, vs),
            &format!(
                "{:?} dvth={} at ({vg:e}, {vd:e}, {vs:e})",
                dev.polarity, dev.delta_vth
            ),
        );
    }

    /// Maps an `f64` onto an `i64` whose order matches the float order.
    fn ordered(x: f64) -> i64 {
        let b = x.to_bits() as i64;
        if b < 0 {
            b ^ i64::MAX
        } else {
            b
        }
    }

    fn unordered(k: i64) -> f64 {
        f64::from_bits((if k < 0 { k ^ i64::MAX } else { k }) as u64)
    }

    /// The gate voltage at which `arg(vg)` (non-decreasing in `vg`) first
    /// reaches `target`, by bisection over the representable gate voltages.
    fn gate_for(arg: impl Fn(f64) -> f64, target: f64) -> f64 {
        let (mut lo, mut hi) = (ordered(-20.0), ordered(20.0));
        assert!(arg(unordered(lo)) < target && arg(unordered(hi)) >= target);
        while i128::from(hi) - i128::from(lo) > 1 {
            let mid = ((i128::from(lo) + i128::from(hi)) / 2) as i64;
            if arg(unordered(mid)) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        unordered(hi)
    }

    #[test]
    fn evaluate_and_drain_current_match_reference_on_random_points() {
        for (k, dev) in devices().iter().enumerate() {
            let mut rng = Xoshiro256pp::seed_from_u64(0xB171D + k as u64);
            for i in 0..100_000 {
                let vg = rng.gen_range(-1.5..1.5);
                let vd = rng.gen_range(-1.5..1.5);
                // Every 16th point has coincident source and drain.
                let vs = if i % 16 == 0 {
                    vd
                } else {
                    rng.gen_range(-1.5..1.5)
                };
                assert_bits(dev, vg, vd, vs);
            }
        }
    }

    /// `softplus` switches branch at |x| = 40: the half-arguments on
    /// ±40 and one ulp either side.
    fn softplus_edges() -> [f64; 6] {
        let (hi, lo) = (40.0f64, -40.0f64);
        [
            hi.next_down(),
            hi,
            hi.next_up(),
            lo.next_down(),
            lo,
            lo.next_up(),
        ]
    }

    #[test]
    fn forward_paths_match_reference_at_softplus_cutoffs() {
        // Every pair of forced half-arguments on the two terminals, plus
        // ordinary interior values, the diagonal `x_s == x_d` (what
        // `vd == vs` gives) included.
        let mut halves = vec![0.0, 1.5, -7.25];
        halves.extend(softplus_edges());
        for dev in devices() {
            for &hs in &halves {
                for &hd in &halves {
                    let args = (2.0 * hs, 2.0 * hd);
                    assert_same(
                        dev.evaluate_nmos_forward(args),
                        dev.drain_current_nmos_forward(args),
                        reference_at(&dev, args.0, args.1),
                        &format!("{:?} dvth={} at x = {args:?}", dev.polarity, dev.delta_vth),
                    );
                }
            }
        }
    }

    #[test]
    fn terminal_voltages_bracketing_softplus_cutoffs_match_reference() {
        // Through the public API: for each device the gate voltages whose
        // half-argument lands closest below and at-or-above each forced
        // value. Which floats are reachable depends on the rounding of the
        // threshold arithmetic, so the two bracketing gates stand in for
        // the exact value where it is not representable.
        let mut exact = 0;
        for dev in devices() {
            // (vd, vs) in the forward frame, including vd == vs.
            for (vd, vs) in [(0.8, 0.0), (0.3, 0.1), (0.5, 0.5), (0.0, 0.0)] {
                for t in softplus_edges() {
                    for on_drain in [false, true] {
                        let half = |vg| {
                            let (xs, xd) = dev.ekv_args(vg, vd, vs);
                            0.5 * if on_drain { xd } else { xs }
                        };
                        let vg = gate_for(half, t);
                        exact += usize::from(half(vg).to_bits() == t.to_bits());
                        for vg in [vg.next_down(), vg] {
                            // The forward frame, its source/drain swap, and
                            // for PMOS the mirrored voltages landing on it.
                            let (g, d, s) = match dev.polarity {
                                Polarity::Nmos => (vg, vd, vs),
                                Polarity::Pmos => (-vg, -vd, -vs),
                            };
                            assert_bits(&dev, g, d, s);
                            assert_bits(&dev, g, s, d);
                        }
                    }
                }
            }
        }
        assert!(exact > 0, "no forced half-argument was hit exactly");
    }
}
