//! The end-to-end cross-layer SER pipeline (the paper's Fig. 6).
//!
//! [`SerPipeline`] glues the three levels together: it characterizes the
//! cell into POF tables (once per supply voltage), discretizes the
//! particle's ground-level spectrum into energy bins, runs the array-level
//! strike Monte Carlo at each bin's representative energy, and integrates
//! the FIT rate with Eq. 8.

use crate::array::{DataPattern, MemoryArray};
use crate::campaign::{BinOutcome, Coverage};
use crate::checkpoint::fnv1a64;
use crate::fit::{fit_rate, FitRate, PofBin};
use crate::strike::{
    only_estimate, ArrayPofEstimate, DepositMode, DirectionLaw, FlipModel, StrikeSimulator,
};
use crate::CoreError;
use finrad_environment::{AlphaSpectrum, ProtonSpectrum, Spectrum, SpectrumBin};
use finrad_finfet::Technology;
use finrad_observe::keys;
use finrad_sram::{CellCharacterizer, CharacterizeOptions, PofTable, Variation};
use finrad_transport::fin::{FinGeometry, FinTraversal};
use finrad_transport::lut::EhpLut;
use finrad_transport::stopping::StoppingModel;
use finrad_transport::straggling::StragglingModel;
use finrad_units::{Energy, Particle, Voltage};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Technology node.
    pub tech: Technology,
    /// Array rows (paper: 9).
    pub rows: usize,
    /// Array columns (paper: 9).
    pub cols: usize,
    /// Stored data pattern.
    pub pattern: DataPattern,
    /// Process-variation treatment in the cell characterization.
    pub variation: Variation,
    /// Circuit-level characterization knobs.
    pub characterize: CharacterizeOptions,
    /// Arrival-direction law for atmospheric protons (cosine-weighted by
    /// default: flux through a horizontal die surface).
    pub proton_direction: DirectionLaw,
    /// Arrival-direction law for package alphas (isotropic by default:
    /// emission from material surrounding the die on all sides).
    pub alpha_direction: DirectionLaw,
    /// Pair-deposition mode of the strike MC.
    pub deposit: DepositMode,
    /// Straggling treatment of the per-cell flip probability.
    pub flip_model: FlipModel,
    /// Straggling model of the transport layer.
    pub straggling: StragglingModel,
    /// Strike-MC iterations per energy bin (paper: 10⁷ total).
    pub iterations_per_energy: u64,
    /// Number of energy bins the spectrum is discretized into.
    pub energy_bins: usize,
    /// Energy grid points of the device-level e-h pair LUT (used when
    /// `deposit` is [`DepositMode::LutMean`]).
    pub lut_energy_points: usize,
    /// Monte-Carlo traversals per LUT energy point.
    pub lut_samples: u64,
    /// Master RNG seed (results are deterministic given the seed).
    pub seed: u64,
}

impl PipelineConfig {
    /// The paper's baseline: 14 nm SOI FinFET, 9×9 checkerboard array,
    /// variation Monte Carlo, chord-exact transport with automatic
    /// straggling. Iteration counts are sized for minutes-scale runs;
    /// scale them up for publication-grade statistics.
    pub fn paper_baseline() -> Self {
        Self {
            tech: Technology::soi_finfet_14nm(),
            rows: 9,
            cols: 9,
            pattern: DataPattern::Checkerboard,
            variation: Variation::MonteCarlo { samples: 200 },
            characterize: CharacterizeOptions::default(),
            proton_direction: DirectionLaw::CosineDown,
            alpha_direction: DirectionLaw::IsotropicDown,
            deposit: DepositMode::ChordExact,
            flip_model: FlipModel::Expected,
            straggling: StragglingModel::Auto,
            iterations_per_energy: 20_000,
            energy_bins: 12,
            lut_energy_points: 17,
            lut_samples: 20_000,
            seed: 0xF1A7_5EED,
        }
    }

    /// A heavily reduced configuration for tests and smoke runs.
    pub fn smoke_test() -> Self {
        Self {
            rows: 3,
            cols: 3,
            variation: Variation::Nominal,
            characterize: CharacterizeOptions {
                settle: 5.0e-12,
                bisect_rel_tol: 0.1,
                ..CharacterizeOptions::default()
            },
            iterations_per_energy: 500,
            energy_bins: 5,
            ..Self::paper_baseline()
        }
    }

    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(CoreError::InvalidConfig(
                "array dimensions must be non-zero".into(),
            ));
        }
        if self.iterations_per_energy == 0 {
            return Err(CoreError::InvalidConfig(
                "need at least one iteration per energy".into(),
            ));
        }
        if self.energy_bins == 0 {
            return Err(CoreError::InvalidConfig(
                "need at least one energy bin".into(),
            ));
        }
        if self.variation == (Variation::MonteCarlo { samples: 0 }) {
            return Err(CoreError::InvalidConfig(
                "variation Monte Carlo needs at least one sample".into(),
            ));
        }
        if self.deposit == DepositMode::LutMean {
            if self.lut_energy_points < 2 {
                return Err(CoreError::InvalidConfig(
                    "the e-h pair LUT needs at least two energy points".into(),
                ));
            }
            if self.lut_samples == 0 {
                return Err(CoreError::InvalidConfig(
                    "the e-h pair LUT needs at least one sample per energy point".into(),
                ));
            }
        }
        Ok(())
    }
}

/// The SER report for one (particle, V_dd) point.
#[derive(Debug, Clone)]
pub struct SerReport {
    /// Particle species.
    pub particle: Particle,
    /// Supply voltage.
    pub vdd: Voltage,
    /// Total FIT rate (the paper's Fig. 9 quantity).
    pub fit_total: f64,
    /// SEU-only FIT rate.
    pub fit_seu: f64,
    /// MBU-only FIT rate.
    pub fit_mbu: f64,
    /// Per-bin detail.
    pub bins: Vec<PofBin>,
}

impl SerReport {
    /// MBU/SEU ratio in percent (Fig. 10). An MBU-only spectrum reports
    /// `f64::INFINITY`, not 0 (see [`crate::fit::mbu_to_seu_ratio`]).
    pub fn mbu_to_seu_percent(&self) -> f64 {
        100.0 * crate::fit::mbu_to_seu_ratio(self.fit_mbu, self.fit_seu)
    }
}

/// The end-to-end pipeline.
pub struct SerPipeline {
    config: PipelineConfig,
    /// Each species' e-h pair LUT (proton, alpha), built on first use: it
    /// depends only on the seed, the particle and the traversal model, so
    /// every V_dd and every run of this pipeline shares it.
    luts: [OnceLock<Arc<EhpLut>>; 2],
}

impl SerPipeline {
    /// Creates a pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            luts: [OnceLock::new(), OnceLock::new()],
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Builds the circuit-level POF table at `vdd` (the expensive step —
    /// cache and reuse it across energies and particles).
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn build_pof_table(&self, vdd: Voltage) -> Result<PofTable, CoreError> {
        self.config.validate()?;
        let ch = CellCharacterizer::new(self.config.tech.clone(), self.config.characterize.clone());
        Ok(ch.build_table(vdd, self.config.variation, self.config.seed)?)
    }

    /// Identifies the POF table [`SerPipeline::build_pof_table`] builds at
    /// `vdd`: FNV-1a over exactly its inputs — the technology, the
    /// characterization options, the variation treatment, the `vdd` bits
    /// and, under [`Variation::MonteCarlo`] only, the seed (a nominal
    /// characterization draws nothing). Pipelines that differ only in
    /// particle, deposit mode, flip model, iteration counts or a nominal
    /// run's seed share a fingerprint, and their tables are identical.
    pub fn table_fingerprint(&self, vdd: Voltage) -> u64 {
        let c = &self.config;
        let seed = match c.variation {
            Variation::MonteCarlo { .. } => Some(c.seed),
            Variation::Nominal => None,
        };
        let vdd_bits = vdd.volts().to_bits();
        fnv1a64(
            format!(
                "{:?}|{:?}|{:?}|{vdd_bits:016x}|{seed:?}",
                c.tech, c.characterize, c.variation
            )
            .as_bytes(),
        )
    }

    /// The memory array for the configured geometry.
    pub fn build_array(&self) -> MemoryArray {
        MemoryArray::build(
            &self.config.tech,
            self.config.rows,
            self.config.cols,
            self.config.pattern,
        )
    }

    fn traversal(&self) -> FinTraversal {
        let g = FinGeometry {
            width: self.config.tech.w_fin,
            length: self.config.tech.l_gate,
            height: self.config.tech.h_fin,
        };
        FinTraversal::new(g, StoppingModel::silicon(), self.config.straggling)
    }

    /// The arrival-direction law used for `particle`.
    pub fn direction_for(&self, particle: Particle) -> DirectionLaw {
        match particle {
            Particle::Proton => self.config.proton_direction,
            Particle::Alpha => self.config.alpha_direction,
        }
    }

    /// Builds the device-level electron-hole pair LUT for `particle`
    /// (needed by [`DepositMode::LutMean`]; built over 0.1-10^3 MeV).
    ///
    /// Every call builds afresh and records one `transport.lut.build_seconds`
    /// span and `lut_energy_points × lut_samples` traversals; the runs of
    /// this pipeline use the memoized [`SerPipeline::ehp_lut`] instead.
    pub fn build_ehp_lut(&self, particle: Particle) -> EhpLut {
        let _span = finrad_observe::span(keys::TRANSPORT_LUT_BUILD_SECONDS);
        // The 0x1A7 tag keeps each species' table seed apart from the
        // pipeline's own seed; the rows' streams derive from it.
        let lut = EhpLut::tabulate(
            &self.traversal(),
            particle,
            Energy::from_mev(0.1),
            Energy::from_mev(1.0e3),
            self.config.lut_energy_points,
            self.config.lut_samples,
            self.config.seed ^ 0x1A7 ^ particle as u64,
        );
        finrad_observe::counter_add(
            keys::TRANSPORT_LUT_TRAVERSALS,
            self.config.lut_energy_points as u64 * self.config.lut_samples,
        );
        lut
    }

    /// `particle`'s e-h pair LUT, built by [`SerPipeline::build_ehp_lut`]
    /// on the first call and shared by every later one.
    pub fn ehp_lut(&self, particle: Particle) -> Arc<EhpLut> {
        let k = match particle {
            Particle::Proton => 0,
            Particle::Alpha => 1,
        };
        // A second caller that arrives mid-build waits for the first one's
        // LUT instead of building its own.
        Arc::clone(self.luts[k].get_or_init(|| Arc::new(self.build_ehp_lut(particle))))
    }

    /// The ground-level spectrum for `particle`.
    pub fn spectrum(&self, particle: Particle) -> Box<dyn Spectrum> {
        match particle {
            Particle::Proton => Box::new(ProtonSpectrum::sea_level()),
            Particle::Alpha => Box::new(AlphaSpectrum::paper_default()),
        }
    }

    /// Energy bins for the FIT integral: the alpha spectrum's full 10 MeV
    /// range, or the proton spectrum clipped to the direct-ionization band
    /// (0.1–10³ MeV; above it the stopping power — and hence POF — is
    /// negligible while the flux keeps falling).
    pub fn energy_bins(&self, particle: Particle) -> Vec<SpectrumBin> {
        let spectrum = self.spectrum(particle);
        match particle {
            Particle::Alpha => spectrum.discretize(self.config.energy_bins),
            Particle::Proton => {
                let bins =
                    finrad_numerics::quadrature::log_bins(0.1, 1.0e3, self.config.energy_bins);
                bins.into_iter()
                    .map(|b| SpectrumBin {
                        energy: Energy::from_mev(b.representative),
                        lo: Energy::from_mev(b.lo),
                        hi: Energy::from_mev(b.hi),
                        integral_flux: spectrum
                            .integral_flux(Energy::from_mev(b.lo), Energy::from_mev(b.hi)),
                    })
                    .collect()
            }
        }
    }

    /// Measures the array POF at each of `energies` under forced hits —
    /// the paper's Fig. 8 experiment.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn pof_vs_energy(
        &self,
        particle: Particle,
        vdd: Voltage,
        energies: &[Energy],
    ) -> Result<Vec<(Energy, ArrayPofEstimate)>, CoreError> {
        let table = self.build_pof_table(vdd)?;
        Ok(self.pof_vs_energy_with_table(particle, &table, energies))
    }

    /// Fig. 8 sweep reusing a prebuilt POF table.
    pub fn pof_vs_energy_with_table(
        &self,
        particle: Particle,
        table: &PofTable,
        energies: &[Energy],
    ) -> Vec<(Energy, ArrayPofEstimate)> {
        let plan = BinPlan::for_particle(self, particle, vec![Cow::Borrowed(table)]);
        let executor = plan.executor();
        energies
            .iter()
            .enumerate()
            .map(|(k, &e)| {
                let est = executor.sim.estimate(
                    particle,
                    e,
                    self.config.iterations_per_energy,
                    self.config.seed.wrapping_add(k as u64 * 7919),
                );
                (e, only_estimate(est))
            })
            .collect()
    }

    /// Runs the full pipeline for one (particle, V_dd): characterize, bin
    /// the spectrum, Monte-Carlo each bin, and integrate the FIT rate.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures and configuration errors.
    pub fn run(&self, particle: Particle, vdd: Voltage) -> Result<SerReport, CoreError> {
        let table = self.build_pof_table(vdd)?;
        Ok(self.run_with_table(particle, vdd, &table))
    }

    /// Full pipeline reusing a prebuilt POF table (`vdd` must match the
    /// table's characterization voltage): the one-table case of
    /// [`SerPipeline::run_with_tables`].
    ///
    /// # Panics
    ///
    /// If the configuration is invalid, with the message
    /// [`SerPipeline::run`] returns as [`CoreError::InvalidConfig`].
    pub fn run_with_table(&self, particle: Particle, vdd: Voltage, table: &PofTable) -> SerReport {
        // One table in, one report out.
        self.run_with_tables(particle, &[(vdd, table)])
            .swap_remove(0)
    }

    /// Full pipeline over several prebuilt POF tables in one strike pass,
    /// one report per `(vdd, table)` entry, in order (each `vdd` must
    /// match its table's characterization voltage).
    ///
    /// The bins' strike seeds depend on neither the supply nor the table,
    /// so a separate run per table would trace the same rays each time.
    /// Here each ray is traced once and scored against every table, and
    /// each report equals [`SerPipeline::run_with_table`] on its table,
    /// bit for bit. No tables give no reports, and build nothing.
    ///
    /// # Panics
    ///
    /// If the configuration is invalid, with the message
    /// [`SerPipeline::run`] returns as [`CoreError::InvalidConfig`]: a
    /// prebuilt table skips the characterization that checks it, and the
    /// strike pass has no error to report it with.
    pub fn run_with_tables(
        &self,
        particle: Particle,
        tables: &[(Voltage, &PofTable)],
    ) -> Vec<SerReport> {
        #[expect(
            clippy::panic,
            reason = "documented contract: these signatures have no error to report an invalid config with"
        )]
        if let Err(e) = self.config.validate() {
            panic!("{e}");
        }
        if tables.is_empty() {
            return Vec::new();
        }
        let plan = BinPlan::for_particle(
            self,
            particle,
            tables.iter().map(|&(_, t)| Cow::Borrowed(t)).collect(),
        );
        let executor = plan.executor();
        // `estimates[k][t]`: bin `k` under table `t`.
        let estimates: Vec<Vec<ArrayPofEstimate>> =
            (0..plan.bins.len()).map(|k| executor.run_bin(k)).collect();
        tables
            .iter()
            .enumerate()
            .map(|(t, &(vdd, _))| {
                let outcomes: Vec<BinOutcome> = estimates
                    .iter()
                    .enumerate()
                    .map(|(k, est)| plan.outcome(k, &est[t]))
                    .collect();
                let (fit, _) = plan.integrate(&outcomes);
                let bins = outcomes
                    .into_iter()
                    .filter_map(|o| match o {
                        BinOutcome::Ok { bin, .. } => Some(bin),
                        BinOutcome::Failed { .. } => None,
                    })
                    .collect();
                SerReport {
                    particle,
                    vdd,
                    fit_total: fit.total,
                    fit_seu: fit.seu,
                    fit_mbu: fit.mbu,
                    bins,
                }
            })
            .collect()
    }
}

/// The Eq. 8 loop for one particle once its POF tables exist: the array,
/// traversal and spectrum bins, built once, and the pipeline's shared e-h
/// LUT when the deposit mode needs it. Each bin's strike Monte Carlo
/// scores its rays against every table of the plan.
///
/// [`SerPipeline::run_with_tables`] runs the bins serially; the campaign
/// runner and service run each bin of a one-table plan inside their
/// supervision envelope. All of them fold the outcomes with
/// [`BinPlan::integrate`].
pub(crate) struct BinPlan<'t> {
    particle: Particle,
    /// Never empty.
    tables: Vec<Cow<'t, PofTable>>,
    array: MemoryArray,
    traversal: FinTraversal,
    lut: Option<Arc<EhpLut>>,
    /// The spectrum's energy bins, indexed by bin number.
    pub(crate) bins: Vec<SpectrumBin>,
    direction: DirectionLaw,
    deposit: DepositMode,
    flip_model: FlipModel,
    iterations: u64,
    seed: u64,
}

impl<'t> BinPlan<'t> {
    /// Builds the plan of `pipeline`'s configuration for `particle`,
    /// scoring against `tables`.
    ///
    /// Named apart from `new`: in LUT mode it may tabulate the pipeline's
    /// e-h LUT on worker threads, and the `cargo xtask lint` guard audit
    /// resolves calls by bare name, so a blocking `new` would mark every
    /// constructor in the workspace as blocking.
    pub(crate) fn for_particle(
        pipeline: &SerPipeline,
        particle: Particle,
        tables: Vec<Cow<'t, PofTable>>,
    ) -> Self {
        let config = &pipeline.config;
        Self {
            particle,
            tables,
            array: pipeline.build_array(),
            traversal: pipeline.traversal(),
            lut: (config.deposit == DepositMode::LutMean).then(|| pipeline.ehp_lut(particle)),
            bins: pipeline.energy_bins(particle),
            direction: pipeline.direction_for(particle),
            deposit: config.deposit,
            flip_model: config.flip_model,
            iterations: config.iterations_per_energy,
            seed: config.seed,
        }
    }

    /// The strike-MC seed of energy bin `k`. Every Eq. 8 path draws bin
    /// `k` from this stream, which is what makes serial, sharded and
    /// resumed runs bit-identical; `e2ebench/reference.txt` depends on it
    /// too.
    pub(crate) fn bin_seed(&self, k: usize) -> u64 {
        self.seed.wrapping_add(0xB10C + k as u64 * 6271)
    }

    /// Builds the plan's strike simulator. A caller builds one and runs
    /// every bin it owns on it.
    pub(crate) fn executor(&self) -> BinExecutor<'_> {
        let tables: Vec<&PofTable> = self.tables.iter().map(|t| &**t).collect();
        BinExecutor {
            plan: self,
            sim: StrikeSimulator::with_tables(
                &self.array,
                self.traversal.clone(),
                &tables,
                self.direction,
                self.deposit,
                self.flip_model,
                self.lut.as_deref(),
            ),
        }
    }

    /// Bin `k`'s completed outcome from its strike estimate.
    pub(crate) fn outcome(&self, k: usize, est: &ArrayPofEstimate) -> BinOutcome {
        BinOutcome::Ok {
            bin: PofBin::from_estimate(self.bins[k], est),
            quarantined: est.quarantined,
        }
    }

    /// Eq. 8 over the completed bins plus the [`Coverage`] summary;
    /// `outcomes[k]` is bin `k`'s outcome. A completed bin with a
    /// non-finite POF or flux is left out of both the FIT sum and the
    /// covered flux, and counted in `Coverage::non_finite_bins`.
    pub(crate) fn integrate(&self, outcomes: &[BinOutcome]) -> (FitRate, Coverage) {
        let flux = |b: &SpectrumBin| b.integral_flux.per_m2_second();
        let mut ok_bins = 0;
        let mut quarantined_samples = 0;
        let mut covered: Vec<PofBin> = Vec::new();
        for outcome in outcomes {
            if let BinOutcome::Ok { bin, quarantined } = outcome {
                ok_bins += 1;
                quarantined_samples += quarantined;
                if [bin.pof_total, bin.pof_seu, bin.pof_mbu, flux(&bin.spectrum)]
                    .iter()
                    .all(|v| v.is_finite())
                {
                    covered.push(*bin);
                }
            }
        }
        let total_flux: f64 = self.bins.iter().map(flux).sum();
        let covered_flux: f64 = covered.iter().map(|b| flux(&b.spectrum)).sum();
        let coverage = Coverage {
            total_bins: outcomes.len(),
            ok_bins,
            failed_bins: outcomes.len() - ok_bins,
            non_finite_bins: ok_bins - covered.len(),
            quarantined_samples,
            flux_fraction: if total_flux > 0.0 {
                covered_flux / total_flux
            } else {
                1.0
            },
        };
        (fit_rate(&covered, self.array.footprint()), coverage)
    }
}

/// A [`BinPlan`] bound to one strike simulator.
pub(crate) struct BinExecutor<'p> {
    pub(crate) plan: &'p BinPlan<'p>,
    sim: StrikeSimulator<'p>,
}

impl BinExecutor<'_> {
    /// Runs bin `k`'s strike Monte Carlo at its representative energy on
    /// the bin's own seed stream: one estimate per table of the plan.
    pub(crate) fn run_bin(&self, k: usize) -> Vec<ArrayPofEstimate> {
        let plan = self.plan;
        self.sim.estimate(
            plan.particle,
            plan.bins[k].energy,
            plan.iterations,
            plan.bin_seed(k),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finrad_sram::{PofCurve, StrikeCombo, StrikeTarget};
    use finrad_units::Flux;
    use std::collections::BTreeMap;

    /// A one-combo table: enough to build a plan without characterizing.
    fn one_combo_table() -> PofTable {
        let mut curves = BTreeMap::new();
        curves.insert(
            StrikeCombo::single(StrikeTarget::I1),
            PofCurve::from_critical_charges(vec![1.0e-17]),
        );
        PofTable::new(Voltage::from_volts(0.8), curves)
    }

    fn smoke_plan(seed: u64, table: &PofTable) -> BinPlan<'_> {
        let mut cfg = PipelineConfig::smoke_test();
        cfg.seed = seed;
        BinPlan::for_particle(
            &SerPipeline::new(cfg),
            Particle::Alpha,
            vec![Cow::Borrowed(table)],
        )
    }

    #[test]
    fn run_with_no_tables_reports_nothing() {
        let lut_mode = PipelineConfig {
            deposit: DepositMode::LutMean,
            flip_model: FlipModel::Sampled,
            ..PipelineConfig::smoke_test()
        };
        for cfg in [PipelineConfig::smoke_test(), lut_mode] {
            let reports = SerPipeline::new(cfg).run_with_tables(Particle::Alpha, &[]);
            assert!(reports.is_empty());
        }
    }

    #[test]
    fn bin_seed_is_the_pinned_per_bin_stream() {
        let table = one_combo_table();
        for seed in [0, 0xF1A7_5EED, u64::MAX] {
            let plan = smoke_plan(seed, &table);
            for k in [0usize, 1, 9] {
                assert_eq!(
                    plan.bin_seed(k),
                    seed.wrapping_add(0xB10C + 6271 * k as u64)
                );
            }
        }
        assert_eq!(smoke_plan(u64::MAX, &table).bin_seed(0), 0xB10B);
        assert_eq!(smoke_plan(0, &table).bin_seed(9), 0xB10C + 56_439);
    }

    #[test]
    fn integrate_excludes_and_counts_non_finite_bins() {
        let table = one_combo_table();
        let plan = smoke_plan(1, &table);
        let mut outcomes: Vec<BinOutcome> = plan
            .bins
            .iter()
            .map(|&spectrum| BinOutcome::Ok {
                bin: PofBin {
                    spectrum,
                    pof_total: 0.5,
                    pof_seu: 0.4,
                    pof_mbu: 0.1,
                },
                quarantined: 1,
            })
            .collect();
        let pof_bins = |outcomes: &[BinOutcome]| -> Vec<PofBin> {
            outcomes
                .iter()
                .filter_map(|o| match o {
                    BinOutcome::Ok { bin, .. } => Some(*bin),
                    BinOutcome::Failed { .. } => None,
                })
                .collect()
        };
        let footprint = plan.array.footprint();
        let (fit, coverage) = plan.integrate(&outcomes);
        assert!(coverage.is_complete());
        assert_eq!(coverage.flux_fraction, 1.0);
        assert_eq!(fit, fit_rate(&pof_bins(&outcomes), footprint));

        // A NaN POF and an infinite flux are both left out of the FIT sum
        // and the covered flux, and counted; a failed bin is not counted
        // as non-finite.
        if let BinOutcome::Ok { bin, .. } = &mut outcomes[0] {
            bin.pof_total = f64::NAN;
        }
        if let BinOutcome::Ok { bin, .. } = &mut outcomes[1] {
            bin.spectrum.integral_flux = Flux::from_per_m2_second(f64::INFINITY);
        }
        outcomes[2] = BinOutcome::Failed {
            error: "injected".into(),
        };
        let (fit, coverage) = plan.integrate(&outcomes);
        assert_eq!(coverage.total_bins, 5);
        assert_eq!(coverage.ok_bins, 4);
        assert_eq!(coverage.failed_bins, 1);
        assert_eq!(coverage.non_finite_bins, 2);
        assert_eq!(coverage.quarantined_samples, 4);
        assert!(!coverage.is_complete());
        assert_eq!(fit, fit_rate(&pof_bins(&outcomes[3..]), footprint));
        let flux = |k: usize| plan.bins[k].integral_flux.per_m2_second();
        let total: f64 = (0..5).map(flux).sum();
        assert_eq!(coverage.flux_fraction, (flux(3) + flux(4)) / total);
    }

    #[test]
    fn table_fingerprint_covers_exactly_the_table_inputs() {
        let vdd = Voltage::from_volts(0.8);
        let fp = |cfg: PipelineConfig| SerPipeline::new(cfg).table_fingerprint(vdd);
        let base = PipelineConfig::smoke_test();
        let want = fp(base.clone());
        // Inputs of the strike stage only: same table.
        let same = [
            PipelineConfig {
                seed: base.seed ^ 1,
                ..base.clone()
            },
            PipelineConfig {
                deposit: DepositMode::LutMean,
                flip_model: FlipModel::Sampled,
                iterations_per_energy: 7,
                energy_bins: 3,
                rows: 4,
                ..base.clone()
            },
            PipelineConfig {
                straggling: StragglingModel::Landau,
                lut_samples: 9,
                ..base.clone()
            },
        ];
        for cfg in same {
            assert_eq!(fp(cfg), want);
        }
        // Inputs of the characterization: a different table.
        let mut other_opts = base.clone();
        other_opts.characterize.bisect_rel_tol = 0.05;
        let mut other_tech = base.clone();
        other_tech.tech.h_fin *= 1.5;
        let mc = PipelineConfig {
            variation: Variation::MonteCarlo { samples: 4 },
            ..base.clone()
        };
        let differ = [
            other_opts,
            other_tech,
            mc.clone(),
            PipelineConfig {
                variation: Variation::MonteCarlo { samples: 5 },
                ..base.clone()
            },
        ];
        for cfg in differ {
            assert_ne!(fp(cfg), want);
        }
        let p = SerPipeline::new(base);
        assert_ne!(
            p.table_fingerprint(Voltage::from_volts(0.9)),
            p.table_fingerprint(vdd)
        );
        // Under variation MC the seed draws the samples.
        let mc_fp = fp(mc.clone());
        assert_ne!(
            fp(PipelineConfig {
                seed: mc.seed ^ 1,
                ..mc.clone()
            }),
            mc_fp
        );
        assert_eq!(
            fp(PipelineConfig {
                deposit: DepositMode::LutMean,
                ..mc
            }),
            mc_fp
        );
    }

    #[test]
    fn ehp_lut_is_built_once_per_species() {
        let cfg = PipelineConfig {
            lut_energy_points: 4,
            lut_samples: 50,
            ..PipelineConfig::smoke_test()
        };
        let p = SerPipeline::new(cfg);
        for particle in [Particle::Proton, Particle::Alpha] {
            let first = p.ehp_lut(particle);
            assert!(Arc::ptr_eq(&first, &p.ehp_lut(particle)));
            assert_eq!(first.particle(), particle);
            assert_eq!(*first, p.build_ehp_lut(particle));
        }
        assert_ne!(*p.ehp_lut(Particle::Proton), *p.ehp_lut(Particle::Alpha));
    }

    #[test]
    #[should_panic(expected = "at least one sample per energy point")]
    fn run_with_table_rejects_an_invalid_config() {
        let cfg = PipelineConfig {
            deposit: DepositMode::LutMean,
            lut_samples: 0,
            ..PipelineConfig::smoke_test()
        };
        let table = one_combo_table();
        SerPipeline::new(cfg).run_with_table(Particle::Alpha, table.vdd(), &table);
    }

    #[test]
    fn config_validation() {
        let mut c = PipelineConfig::smoke_test();
        c.rows = 0;
        assert!(matches!(
            SerPipeline::new(c).build_pof_table(Voltage::from_volts(0.8)),
            Err(CoreError::InvalidConfig(_))
        ));
        let mut c2 = PipelineConfig::smoke_test();
        c2.energy_bins = 0;
        assert!(c2.validate().is_err());
        assert!(PipelineConfig::paper_baseline().validate().is_ok());

        // Values that would reach the characterizer's or the LUT's
        // assertions are rejected up front, so `run` reports them.
        let no_samples = PipelineConfig {
            variation: Variation::MonteCarlo { samples: 0 },
            ..PipelineConfig::smoke_test()
        };
        assert!(matches!(
            SerPipeline::new(no_samples).run(Particle::Alpha, Voltage::from_volts(0.8)),
            Err(CoreError::InvalidConfig(_))
        ));
        let lut = PipelineConfig {
            deposit: DepositMode::LutMean,
            ..PipelineConfig::smoke_test()
        };
        assert!(lut.validate().is_ok());
        for bad in [
            PipelineConfig {
                lut_energy_points: 1,
                ..lut.clone()
            },
            PipelineConfig {
                lut_samples: 0,
                ..lut.clone()
            },
        ] {
            assert!(matches!(
                SerPipeline::new(bad).run(Particle::Alpha, Voltage::from_volts(0.8)),
                Err(CoreError::InvalidConfig(_))
            ));
        }
        // The LUT bounds bind only where a LUT is built.
        let chord = PipelineConfig {
            lut_energy_points: 0,
            lut_samples: 0,
            ..PipelineConfig::smoke_test()
        };
        assert_eq!(chord.deposit, DepositMode::ChordExact);
        assert!(chord.validate().is_ok());
    }

    #[test]
    fn energy_bins_cover_expected_ranges() {
        let p = SerPipeline::new(PipelineConfig::smoke_test());
        let alpha_bins = p.energy_bins(Particle::Alpha);
        assert_eq!(alpha_bins.len(), 5);
        assert!(alpha_bins.last().unwrap().hi.mev() <= 10.0 + 1e-6);
        let proton_bins = p.energy_bins(Particle::Proton);
        assert!(proton_bins.last().unwrap().hi.mev() <= 1.0e3 + 1.0);
        // All bins carry non-negative flux.
        for b in alpha_bins.iter().chain(&proton_bins) {
            assert!(b.integral_flux.per_m2_second() >= 0.0);
        }
    }

    #[test]
    fn smoke_run_produces_finite_report() {
        let p = SerPipeline::new(PipelineConfig::smoke_test());
        let report = p.run(Particle::Alpha, Voltage::from_volts(0.8)).unwrap();
        assert!(report.fit_total.is_finite() && report.fit_total >= 0.0);
        assert!(report.fit_seu <= report.fit_total + 1e-9);
        assert!(
            (report.fit_seu + report.fit_mbu - report.fit_total).abs()
                <= 1e-6 * report.fit_total.max(1.0)
        );
        assert_eq!(report.bins.len(), 5);
        assert!(report.mbu_to_seu_percent() >= 0.0);
    }

    #[test]
    fn mbu_only_report_has_infinite_ratio() {
        let report = SerReport {
            particle: Particle::Alpha,
            vdd: Voltage::from_volts(0.8),
            fit_total: 3.0,
            fit_seu: 0.0,
            fit_mbu: 3.0,
            bins: Vec::new(),
        };
        assert_eq!(report.mbu_to_seu_percent(), f64::INFINITY);
        let empty = SerReport {
            fit_total: 0.0,
            fit_mbu: 0.0,
            bins: Vec::new(),
            ..report
        };
        assert_eq!(empty.mbu_to_seu_percent(), 0.0);
    }

    #[test]
    fn fig8_trend_alpha_pof_decreases_with_energy() {
        let mut cfg = PipelineConfig::smoke_test();
        cfg.iterations_per_energy = 3000;
        let p = SerPipeline::new(cfg);
        let energies = [Energy::from_mev(1.0), Energy::from_mev(50.0)];
        let res = p
            .pof_vs_energy(Particle::Alpha, Voltage::from_volts(0.8), &energies)
            .unwrap();
        let low = res[0].1.total.mean();
        let high = res[1].1.total.mean();
        assert!(low > high, "POF should fall with energy: {low} vs {high}");
    }

    #[test]
    fn ser_rises_at_lower_vdd() {
        // The paper's headline Fig. 9 trend, checked on the smoke config.
        let mut cfg = PipelineConfig::smoke_test();
        cfg.iterations_per_energy = 3000;
        let p = SerPipeline::new(cfg);
        let low = p.run(Particle::Alpha, Voltage::from_volts(0.7)).unwrap();
        let high = p.run(Particle::Alpha, Voltage::from_volts(1.1)).unwrap();
        assert!(
            low.fit_total > high.fit_total,
            "FIT(0.7V) = {} should exceed FIT(1.1V) = {}",
            low.fit_total,
            high.fit_total
        );
    }
}
