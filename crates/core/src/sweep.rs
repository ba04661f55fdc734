//! Supply-voltage sweeps — the programmatic form of the paper's
//! Figs. 9–11.
//!
//! [`VddSweep`] runs the full pipeline over a list of supply voltages for
//! both particle species, reusing one POF characterization per voltage
//! (the expensive step), and returns the FIT/MBU series the figures plot.
//! The strike Monte Carlo runs one pass per species: each ray is traced
//! once and scored against every voltage's table.

use crate::pipeline::{SerPipeline, SerReport};
use crate::CoreError;
use finrad_units::{Particle, Voltage};

/// One voltage point of a sweep: the per-species reports.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The supply voltage.
    pub vdd: Voltage,
    /// Proton-induced SER report.
    pub proton: SerReport,
    /// Alpha-induced SER report.
    pub alpha: SerReport,
}

impl SweepPoint {
    /// Combined (proton + alpha) FIT rate.
    pub fn fit_combined(&self) -> f64 {
        self.proton.fit_total + self.alpha.fit_total
    }
}

/// Results of a supply sweep.
#[derive(Debug, Clone)]
pub struct VddSweep {
    points: Vec<SweepPoint>,
}

impl VddSweep {
    /// Runs the pipeline at every voltage in `vdds`: characterizes each
    /// voltage's POF table, then runs one strike pass per species over all
    /// the tables ([`SerPipeline::run_with_tables`]). Each report equals
    /// [`SerPipeline::run`] at its (species, voltage), bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    ///
    /// # Panics
    ///
    /// Panics if `vdds` is empty.
    pub fn run(pipeline: &SerPipeline, vdds: &[Voltage]) -> Result<Self, CoreError> {
        assert!(!vdds.is_empty(), "sweep needs at least one voltage");
        let tables = vdds
            .iter()
            .map(|&vdd| pipeline.build_pof_table(vdd))
            .collect::<Result<Vec<_>, _>>()?;
        let entries: Vec<_> = vdds.iter().copied().zip(&tables).collect();
        let proton = pipeline.run_with_tables(Particle::Proton, &entries);
        let alpha = pipeline.run_with_tables(Particle::Alpha, &entries);
        let points = vdds
            .iter()
            .zip(proton.into_iter().zip(alpha))
            .map(|(&vdd, (proton, alpha))| SweepPoint { vdd, proton, alpha })
            .collect();
        Ok(Self { points })
    }

    /// The sweep points, in input order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The Fig. 9 series for `particle`: `(vdd, FIT)` pairs.
    pub fn fit_series(&self, particle: Particle) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| {
                let fit = match particle {
                    Particle::Proton => p.proton.fit_total,
                    Particle::Alpha => p.alpha.fit_total,
                };
                (p.vdd.volts(), fit)
            })
            .collect()
    }

    /// The Fig. 10 series for `particle`: `(vdd, MBU/SEU %)` pairs.
    pub fn mbu_seu_series(&self, particle: Particle) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| {
                let r = match particle {
                    Particle::Proton => p.proton.mbu_to_seu_percent(),
                    Particle::Alpha => p.alpha.mbu_to_seu_percent(),
                };
                (p.vdd.volts(), r)
            })
            .collect()
    }

    /// Ratio of the steepness of the two species' FIT fall-off between the
    /// sweep's first and last voltage — the paper's "proton-induced SER
    /// decreases with an extremely higher rate" quantified. Values > 1
    /// mean the proton curve falls faster.
    pub fn proton_to_alpha_steepness(&self) -> f64 {
        let first = &self.points[0];
        let last = &self.points[self.points.len() - 1];
        let proton_fall = first.proton.fit_total / last.proton.fit_total.max(f64::MIN_POSITIVE);
        let alpha_fall = first.alpha.fit_total / last.alpha.fit_total.max(f64::MIN_POSITIVE);
        proton_fall / alpha_fall.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use finrad_sram::Variation;

    fn smoke_sweep() -> VddSweep {
        let mut cfg = PipelineConfig::smoke_test();
        cfg.iterations_per_energy = 2_000;
        let pipeline = SerPipeline::new(cfg);
        VddSweep::run(
            &pipeline,
            &[Voltage::from_volts(0.7), Voltage::from_volts(1.1)],
        )
        .expect("sweep")
    }

    #[test]
    fn sweep_produces_ordered_points() {
        let sweep = smoke_sweep();
        assert_eq!(sweep.points().len(), 2);
        assert_eq!(sweep.points()[0].vdd.volts(), 0.7);
        assert!(sweep.points()[0].fit_combined() > 0.0);
    }

    #[test]
    fn series_extraction() {
        let sweep = smoke_sweep();
        let fit = sweep.fit_series(Particle::Alpha);
        assert_eq!(fit.len(), 2);
        // Fig. 9: falls with Vdd.
        assert!(fit[0].1 > fit[1].1);
        let mbu = sweep.mbu_seu_series(Particle::Alpha);
        assert!(mbu.iter().all(|&(_, r)| r >= 0.0));
    }

    #[test]
    fn proton_steeper_than_alpha() {
        let sweep = smoke_sweep();
        assert!(
            sweep.proton_to_alpha_steepness() > 1.0,
            "steepness {}",
            sweep.proton_to_alpha_steepness()
        );
    }

    #[test]
    fn every_point_matches_an_independent_run() {
        // A 32-sample variation table is blocked, so the alpha pass runs
        // the block-expansion kernel on every supply's table at once.
        let cfg = PipelineConfig {
            variation: Variation::MonteCarlo { samples: 32 },
            iterations_per_energy: 300,
            energy_bins: 3,
            ..PipelineConfig::smoke_test()
        };
        let pipeline = SerPipeline::new(cfg);
        let vdds = [0.7, 1.1].map(Voltage::from_volts);
        let sweep = VddSweep::run(&pipeline, &vdds).expect("sweep");
        let bits = |r: &SerReport| [r.fit_total, r.fit_seu, r.fit_mbu].map(f64::to_bits);
        assert_eq!(sweep.points().len(), vdds.len());
        for (point, &vdd) in sweep.points().iter().zip(&vdds) {
            assert_eq!(point.vdd, vdd);
            for (report, particle) in [
                (&point.proton, Particle::Proton),
                (&point.alpha, Particle::Alpha),
            ] {
                let alone = pipeline.run(particle, vdd).expect("independent run");
                assert_eq!((report.particle, report.vdd), (particle, vdd));
                assert_eq!(bits(report), bits(&alone), "{particle:?} at {vdd:?}");
                assert_eq!(report.bins.len(), alone.bins.len());
            }
        }
        // The supplies are told apart, so a swapped table cannot pass the
        // comparison above by coincidence.
        let [low, high] = [0, 1].map(|i| bits(&sweep.points()[i].alpha));
        assert_ne!(low, high);
    }

    #[test]
    #[should_panic(expected = "at least one voltage")]
    fn empty_sweep_rejected() {
        let cfg = PipelineConfig::smoke_test();
        let _ = VddSweep::run(&SerPipeline::new(cfg), &[]);
    }
}
