//! Technology parameters for the 14 nm SOI FinFET node.

use finrad_units::{Length, Voltage};

/// A FinFET technology node description.
///
/// Default parameters are 14 nm SOI FinFET class, assembled from the public
/// values the paper's sources describe (Wang et al.'s 14 nm SOI device and
/// PTM-MG): fin width 8 nm, fin height 30 nm, gate length 20 nm, EOT
/// ≈ 0.9 nm, |Vth| ≈ 0.25–0.3 V, nominal Vdd 0.8 V.
///
/// # Examples
///
/// ```
/// use finrad_finfet::Technology;
///
/// let tech = Technology::soi_finfet_14nm();
/// assert!((tech.w_eff_per_fin().nanometers() - 68.0).abs() < 1e-9);
/// assert!(tech.vdd_nominal.volts() > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Human-readable node name.
    pub name: String,
    /// Fin width (the thin silicon body dimension).
    pub w_fin: Length,
    /// Fin height above the buried oxide.
    pub h_fin: Length,
    /// Physical gate length.
    pub l_gate: Length,
    /// Gate-oxide capacitance per area, F/m².
    pub cox_f_per_m2: f64,
    /// NMOS threshold voltage at zero Vds.
    pub vth_n: Voltage,
    /// PMOS threshold voltage magnitude at zero Vds.
    pub vth_p: Voltage,
    /// Subthreshold slope factor `n` (SS = n·φt·ln10; FinFETs are near 1).
    pub slope_factor: f64,
    /// DIBL coefficient η: ΔVth = −η·Vds, V/V.
    pub dibl: f64,
    /// Effective NMOS mobility (compact-model fit), cm²/(V·s).
    pub mu_n_cm2: f64,
    /// Effective PMOS mobility (compact-model fit), cm²/(V·s).
    pub mu_p_cm2: f64,
    /// Pelgrom matching coefficient A_Vt, V·m (σ_Vth = A_Vt/√(W_eff·L)).
    pub avt_v_m: f64,
    /// Nominal supply voltage.
    pub vdd_nominal: Voltage,
    /// Extra junction/wiring capacitance per fin at drain/source, farads.
    /// SOI devices have no bulk junction — raised source/drain sit on the
    /// buried oxide — so this is a few attofarads of fringe/contact only.
    pub junction_cap_per_fin_f: f64,
    /// Ratio of the bias-averaged intrinsic gate capacitance to the oxide
    /// capacitance `Cox·W_eff·L`. The full oxide capacitance only appears
    /// in strong inversion; averaged over an upset transient (devices
    /// swing through off/linear/saturation) the effective value is about
    /// half, which is what the MNA cap stamps use.
    pub gate_cap_utilization: f64,
}

impl Technology {
    /// The 14 nm SOI FinFET technology used throughout the paper's
    /// evaluation.
    pub fn soi_finfet_14nm() -> Self {
        Self {
            name: "soi-finfet-14nm".to_owned(),
            w_fin: Length::from_nm(8.0),
            h_fin: Length::from_nm(30.0),
            l_gate: Length::from_nm(20.0),
            // EOT ~0.9 nm: Cox = eps0 * 3.9 / 0.9 nm.
            cox_f_per_m2: 3.9 * 8.854_187_8e-12 / 0.9e-9,
            vth_n: Voltage::from_mv(280.0),
            vth_p: Voltage::from_mv(290.0),
            slope_factor: 1.10,
            dibl: 0.06,
            mu_n_cm2: 90.0,
            mu_p_cm2: 70.0,
            // Tuned to give sigma_Vth ~= 30-40 mV on a single-fin device,
            // the measured 14 nm FinFET class (Wang et al. report ~30 mV).
            avt_v_m: 1.3e-9,
            vdd_nominal: Voltage::from_mv(800.0),
            junction_cap_per_fin_f: 3.0e-18,
            gate_cap_utilization: 0.5,
        }
    }

    /// Effective electrical width of one fin: `2·H_fin + W_fin`
    /// (both sidewalls plus the top surface conduct).
    pub fn w_eff_per_fin(&self) -> Length {
        Length::from_meters(2.0 * self.h_fin.meters() + self.w_fin.meters())
    }

    /// Effective (bias-averaged) gate capacitance of one fin:
    /// `gate_cap_utilization · Cox · W_eff · L_gate`.
    pub fn gate_cap_per_fin_f(&self) -> f64 {
        self.gate_cap_utilization
            * self.cox_f_per_m2
            * self.w_eff_per_fin().meters()
            * self.l_gate.meters()
    }

    /// σ_Vth of a device with `n_fins` parallel fins (Pelgrom scaling over
    /// the total gate area).
    pub fn sigma_vth(&self, n_fins: u32) -> Voltage {
        assert!(n_fins > 0, "device needs at least one fin");
        let area = self.w_eff_per_fin().meters() * n_fins as f64 * self.l_gate.meters();
        Voltage::from_volts(self.avt_v_m / area.sqrt())
    }

    /// Thermal voltage at 300 K.
    pub fn thermal_voltage(&self) -> Voltage {
        Voltage::from_mv(25.852)
    }
}

impl Default for Technology {
    fn default() -> Self {
        Self::soi_finfet_14nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w_eff_formula() {
        let t = Technology::soi_finfet_14nm();
        assert!((t.w_eff_per_fin().nanometers() - 68.0).abs() < 1e-9);
    }

    #[test]
    fn gate_cap_is_tens_of_attofarads() {
        let t = Technology::soi_finfet_14nm();
        let cg = t.gate_cap_per_fin_f();
        assert!(
            (1.0e-17..2.0e-16).contains(&cg),
            "gate cap {cg} F should be ~5e-17"
        );
    }

    #[test]
    fn sigma_vth_in_measured_band() {
        let t = Technology::soi_finfet_14nm();
        let s1 = t.sigma_vth(1);
        assert!(
            (15.0..60.0).contains(&s1.millivolts()),
            "sigma {} mV",
            s1.millivolts()
        );
        // Pelgrom: doubling the number of fins shrinks sigma by sqrt(2).
        let s2 = t.sigma_vth(2);
        assert!((s1.millivolts() / s2.millivolts() - 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one fin")]
    fn sigma_rejects_zero_fins() {
        let _ = Technology::soi_finfet_14nm().sigma_vth(0);
    }
}
