//! The supply-voltage sweep behind Figs. 9–11, run once.
//!
//! Per V_dd the three figures need two POF tables, with process variation
//! and on nominal devices, and the strike Monte Carlo of two deposit modes
//! on each. [`SweepFigures::run`] characterizes each table once and runs
//! two strike passes per deposit mode, each scoring its rays against
//! every table it needs; [`SweepFigures::write`] prints the figures.

use std::io::{self, Write};

use finrad_core::pipeline::{PipelineConfig, SerPipeline, SerReport};
use finrad_core::strike::{DepositMode, FlipModel};
use finrad_core::CoreError;
use finrad_sram::Variation;
use finrad_units::{Particle, Voltage};

/// One deposit mode's reports at one V_dd.
#[derive(Debug, Clone)]
pub struct ModeReports {
    /// Proton on the with-variation table.
    pub proton: SerReport,
    /// Alpha on the with-variation table.
    pub alpha: SerReport,
    /// Alpha on the nominal table (Fig. 11's "no PV" column).
    pub alpha_nominal: SerReport,
}

/// The reports of one V_dd point.
#[derive(Debug, Clone)]
pub struct VddPoint {
    /// Supply voltage (V).
    pub vdd: f64,
    /// Chord-exact deposits: the base configuration's transport.
    pub chord: ModeReports,
    /// The paper's LUT deposits (Section 5.1 step 2): every struck fin
    /// receives the LUT's mean pair count for the particle energy,
    /// independent of the chord, and flips are sampled.
    pub lut: ModeReports,
}

/// The Figs. 9–11 sweep: two tables and six reports per V_dd.
#[derive(Debug, Clone)]
pub struct SweepFigures {
    /// One point per swept V_dd, in input order.
    pub points: Vec<VddPoint>,
}

impl SweepFigures {
    /// Runs the sweep over `vdds`. `base` is the chord-exact, with-variation
    /// pipeline; the nominal pipeline differs from it only in `variation`,
    /// the LUT pipeline only in `deposit` and `flip_model`.
    ///
    /// Every table is characterized first. Each deposit mode then runs two
    /// strike passes: protons over the with-variation tables, and alphas
    /// over the with-variation plus the nominal tables. A strike run reads
    /// no `variation`, so the with-variation pipeline of a mode serves the
    /// nominal tables too. Each report equals an independent
    /// [`SerPipeline::run`] of its cell, bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn run(base: &PipelineConfig, vdds: &[f64]) -> Result<Self, CoreError> {
        let mut nominal = base.clone();
        nominal.variation = Variation::Nominal;
        let [chord, nominal] = [base.clone(), nominal].map(SerPipeline::new);
        let mut lut_cfg = base.clone();
        lut_cfg.deposit = DepositMode::LutMean;
        lut_cfg.flip_model = FlipModel::Sampled;
        let lut = SerPipeline::new(lut_cfg);

        let supplies: Vec<Voltage> = vdds.iter().map(|&v| Voltage::from_volts(v)).collect();
        // Neither table depends on the deposit mode or the flip model, so
        // both modes run on the chord pipelines' tables.
        let mut pv_tables = Vec::with_capacity(vdds.len());
        let mut nominal_tables = Vec::with_capacity(vdds.len());
        for &vdd in &supplies {
            pv_tables.push(chord.build_pof_table(vdd)?);
            nominal_tables.push(nominal.build_pof_table(vdd)?);
        }
        let pv: Vec<_> = supplies.iter().copied().zip(&pv_tables).collect();
        let pv_and_nominal: Vec<_> = pv
            .iter()
            .copied()
            .chain(supplies.iter().copied().zip(&nominal_tables))
            .collect();
        let reports = |pipeline: &SerPipeline| {
            let proton = pipeline.run_with_tables(Particle::Proton, &pv);
            let mut alpha = pipeline.run_with_tables(Particle::Alpha, &pv_and_nominal);
            let alpha_nominal = alpha.split_off(vdds.len());
            proton
                .into_iter()
                .zip(alpha)
                .zip(alpha_nominal)
                .map(|((proton, alpha), alpha_nominal)| ModeReports {
                    proton,
                    alpha,
                    alpha_nominal,
                })
                .collect::<Vec<_>>()
        };
        let points = vdds
            .iter()
            .zip(reports(&chord).into_iter().zip(reports(&lut)))
            .map(|(&vdd, (chord, lut))| VddPoint { vdd, chord, lut })
            .collect();
        Ok(Self { points })
    }

    /// Writes Figs. 9, 10 and 11 to `out`, in that order.
    pub fn write(&self, out: &mut impl Write) -> io::Result<()> {
        self.write_fig9(out)?;
        self.write_fig10(out, "chord-exact deposits", |p| &p.chord)?;
        self.write_fig10(out, "paper LUT deposits", |p| &p.lut)?;
        // LUT deposits first, the paper's method: Vth variation is then the
        // only smoothing of the flip threshold, so neglecting it bites most.
        self.write_fig11(out, "paper LUT deposits", |p| &p.lut)?;
        self.write_fig11(out, "chord-exact deposits", |p| &p.chord)?;
        writeln!(
            out,
            "# paper: neglecting PV underestimates SER by up to ~45%"
        )
    }

    /// Fig. 9: normalized FIT rate vs V_dd, chord-exact deposits.
    fn write_fig9(&self, out: &mut impl Write) -> io::Result<()> {
        let fits = |p: &VddPoint| (p.chord.proton.fit_total, p.chord.alpha.fit_total);
        let peak = self
            .points
            .iter()
            .map(fits)
            .fold(1e-300_f64, |m, (p, a)| m.max(p).max(a));
        writeln!(out, "# Fig. 9: normalized FIT rate vs Vdd")?;
        writeln!(
            out,
            "#    Vdd      proton FIT       alpha FIT   proton (norm)    alpha (norm)"
        )?;
        for p in &self.points {
            let (proton, alpha) = fits(p);
            let (p_norm, a_norm, vdd) = (proton / peak, alpha / peak, p.vdd);
            writeln!(
                out,
                "{vdd:>8.2}  {proton:>14.6e}  {alpha:>14.6e}  {p_norm:>14.6e}  {a_norm:>14.6e}"
            )?;
        }
        writeln!(out)?;

        let (Some(lo), Some(hi)) = (self.points.first(), self.points.last()) else {
            return Ok(());
        };
        let ((p_lo, a_lo), (p_hi, a_hi)) = (fits(lo), fits(hi));
        writeln!(
            out,
            "# check: proton/alpha SER ratio at {} V = {:.3} (paper: comparable, O(0.1-1))",
            lo.vdd,
            p_lo / a_lo.max(1e-300)
        )?;
        writeln!(
            out,
            "# check: proton SER fall {}->{} V = {:.3e}x; alpha fall = {:.3e}x \
             (paper: proton falls much faster)",
            lo.vdd,
            hi.vdd,
            p_lo / p_hi.max(1e-300),
            a_lo / a_hi.max(1e-300)
        )
    }

    /// Fig. 10: MBU/SEU ratio (%) vs V_dd for one deposit mode.
    fn write_fig10(&self, out: &mut impl Write, label: &str, mode: Mode) -> io::Result<()> {
        writeln!(out, "# Fig. 10: MBU/SEU ratio vs Vdd ({label})")?;
        writeln!(out, "#    Vdd  proton MBU/SEU %   alpha MBU/SEU %")?;
        for p in &self.points {
            let (m, vdd) = (mode(p), p.vdd);
            let (p_pct, a_pct) = (m.proton.mbu_to_seu_percent(), m.alpha.mbu_to_seu_percent());
            writeln!(out, "{vdd:>8.2}  {p_pct:>16.4}  {a_pct:>16.4}")?;
        }
        writeln!(out)
    }

    /// Fig. 11: alpha FIT with vs without process variation, one deposit
    /// mode.
    fn write_fig11(&self, out: &mut impl Write, label: &str, mode: Mode) -> io::Result<()> {
        writeln!(
            out,
            "# Fig. 11: alpha SER vs Vdd, with vs without process variation ({label})"
        )?;
        writeln!(
            out,
            "#    Vdd   FIT (with PV)     FIT (no PV)   underestimate %"
        )?;
        for p in &self.points {
            let (m, vdd) = (mode(p), p.vdd);
            let (pv, nom) = (m.alpha.fit_total, m.alpha_nominal.fit_total);
            let under = if pv > 0.0 {
                100.0 * (pv - nom) / pv
            } else {
                0.0
            };
            writeln!(out, "{vdd:>8.2}  {pv:>14.6e}  {nom:>14.6e}  {under:>16.2}")?;
        }
        writeln!(out)
    }
}

/// Picks one deposit mode's reports from a point.
type Mode = fn(&VddPoint) -> &ModeReports;
