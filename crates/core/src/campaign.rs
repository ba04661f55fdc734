//! Fault-tolerant campaign runtime around [`SerPipeline`].
//!
//! A *campaign* is one (particle, V_dd) FIT computation run with
//! robustness guarantees the bare pipeline does not make:
//!
//! - **Checkpoint/resume** — per-energy-bin POF tallies are snapshotted
//!   to a versioned on-disk [`Checkpoint`] at bin boundaries, and
//!   [`CampaignRunner::resume`] continues an interrupted run to a FIT
//!   rate bit-identical to an uninterrupted one (bins reuse the exact
//!   per-bin seed of `BinPlan::bin_seed` that the pipeline draws from,
//!   and checkpointed POFs round-trip as raw f64 bit patterns).
//! - **Degraded coverage instead of aborts** — a bin whose Monte Carlo
//!   panics (or is forced to fail by the fault-injection plan) becomes an
//!   error-tagged [`BinOutcome::Failed`] record excluded from the Eq. 8
//!   integration; the report carries an explicit [`Coverage`] summary so
//!   an under-integrated FIT is never mistaken for a complete one.
//! - **NaN quarantine surfaced** — poisoned iterations rejected at the
//!   accumulator boundary and non-finite bins excluded from the Eq. 8
//!   fold are both counted in the report.
//!
//! Everything that can go wrong maps to a typed [`CampaignError`]; no
//! degradation path panics or silently returns a wrong FIT.

use crate::checkpoint::{config_fingerprint, BinRecord, Checkpoint, CheckpointError};
use crate::fit::{FitRate, PofBin};
use crate::pipeline::{BinExecutor, BinPlan, PipelineConfig, SerPipeline};
use crate::strike::only_estimate;
use crate::CoreError;
use finrad_environment::SpectrumBin;
use finrad_sram::PofTable;
use finrad_units::{Particle, Voltage};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Configuration of a fault-tolerant campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The underlying pipeline configuration (seeds, iteration budget,
    /// spectrum binning — all of it participates in the checkpoint
    /// fingerprint).
    pub pipeline: PipelineConfig,
    /// Particle species.
    pub particle: Particle,
    /// Supply voltage.
    pub vdd: Voltage,
    /// Where to snapshot progress; `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Pause after computing this many *new* bins in one call (the
    /// checkpoint is saved first). `None` runs to completion. Used to
    /// bound per-invocation work and by the kill-and-resume tests.
    pub max_bins_per_run: Option<usize>,
    /// Deterministic fault plan for the robustness test-suite.
    #[cfg(feature = "fault-injection")]
    pub fault_plan: FaultPlan,
}

impl CampaignConfig {
    /// A campaign over `pipeline` with checkpointing disabled.
    pub fn new(pipeline: PipelineConfig, particle: Particle, vdd: Voltage) -> Self {
        Self {
            pipeline,
            particle,
            vdd,
            checkpoint_path: None,
            max_bins_per_run: None,
            #[cfg(feature = "fault-injection")]
            fault_plan: FaultPlan::default(),
        }
    }
}

/// Deterministic fault-injection plan, compiled only under the
/// `fault-injection` feature. Default builds carry none of these hooks.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Bin indices forced to fail (they produce [`BinOutcome::Failed`]).
    pub fail_bins: Vec<usize>,
    /// Bin indices whose POFs are poisoned to NaN *after* estimation —
    /// exercising the fit-level non-finite-bin exclusion.
    pub poison_bins: Vec<usize>,
    /// Bin indices that receive one extra NaN iteration pushed into the
    /// accumulator — exercising the accumulator-level quarantine (the
    /// resulting means, and hence the FIT, must be bit-identical to an
    /// unpoisoned run).
    pub poison_samples: Vec<usize>,
    /// `(bin, panics)` pairs: the bin panics inside its supervision
    /// envelope while the zero-based retry attempt is below `panics`, then
    /// succeeds. With `panics <= max_retries` the campaign service's
    /// retry/backoff path recovers the bin; beyond that it is quarantined.
    /// Under [`CampaignRunner`] (single attempt) any `panics > 0` entry
    /// simply degrades the bin to [`BinOutcome::Failed`].
    pub panic_bins: Vec<(usize, u32)>,
}

/// Errors a campaign can surface. Every degradation path ends here (or in
/// a degraded-coverage report) — never in a panic.
#[derive(Debug)]
pub enum CampaignError {
    /// Checkpoint load/save failed (corrupt, wrong version, or I/O).
    Checkpoint(CheckpointError),
    /// The checkpoint on disk is a partial write: the file ends before its
    /// checksum line, or is cut mid-line (every complete snapshot ends
    /// with a newline). Distinct from [`CampaignError::Checkpoint`] with
    /// [`CheckpointError::Corrupt`] so an interrupted writer is not
    /// misdiagnosed as data corruption — deleting the partial file and
    /// re-running is safe and sufficient.
    CheckpointTruncated {
        /// The partially-written file.
        path: PathBuf,
        /// What the classifier observed.
        detail: String,
    },
    /// The checkpoint on disk was produced by a different configuration;
    /// resuming from it would silently mix incompatible tallies.
    ConfigMismatch {
        /// Fingerprint of the current configuration.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// The up-front cell characterization (or config validation) failed —
    /// without a POF table no bin can run.
    Pipeline(CoreError),
    /// Every energy bin failed: there is no spectrum coverage at all, so
    /// reporting a FIT of zero would be silently wrong.
    NoCoverage {
        /// Total bins attempted.
        total_bins: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Checkpoint(e) => write!(f, "{e}"),
            CampaignError::CheckpointTruncated { path, detail } => write!(
                f,
                "checkpoint {} is a partial write: {detail} \
                 (delete it or restore a complete snapshot, then resume)",
                path.display()
            ),
            CampaignError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint config mismatch: expected fingerprint {expected:016x}, \
                 checkpoint carries {found:016x} (re-run fresh or restore the original config)"
            ),
            CampaignError::Pipeline(e) => write!(f, "campaign setup failed: {e}"),
            CampaignError::NoCoverage { total_bins } => write!(
                f,
                "no spectrum coverage: all {total_bins} energy bins failed"
            ),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Checkpoint(e) => Some(e),
            CampaignError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

impl From<CoreError> for CampaignError {
    fn from(e: CoreError) -> Self {
        CampaignError::Pipeline(e)
    }
}

/// Outcome of one energy bin.
#[derive(Debug, Clone, PartialEq)]
pub enum BinOutcome {
    /// The bin's Monte Carlo completed.
    Ok {
        /// The bin's POFs and spectrum slice.
        bin: PofBin,
        /// Iterations rejected by the accumulator-level NaN quarantine.
        quarantined: u64,
    },
    /// The bin failed; it is excluded from the FIT integration.
    Failed {
        /// Human-readable description of the failure.
        error: String,
    },
}

/// Explicit spectrum-coverage summary for a (possibly degraded) campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    /// Total energy bins in the campaign.
    pub total_bins: usize,
    /// Bins whose Monte Carlo completed.
    pub ok_bins: usize,
    /// Bins excluded because they failed outright.
    pub failed_bins: usize,
    /// Completed bins excluded from Eq. 8 because a POF or flux was
    /// non-finite.
    pub non_finite_bins: usize,
    /// Total iterations quarantined by the accumulator-level NaN guard.
    pub quarantined_samples: u64,
    /// Fraction of the spectrum's total integral flux carried by the bins
    /// that actually entered the FIT integration (1.0 = full coverage).
    pub flux_fraction: f64,
}

impl Coverage {
    /// Whether every bin completed and entered the integration.
    pub fn is_complete(&self) -> bool {
        self.failed_bins == 0 && self.non_finite_bins == 0 && self.ok_bins == self.total_bins
    }
}

/// The report of a finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Particle species.
    pub particle: Particle,
    /// Supply voltage.
    pub vdd: Voltage,
    /// FIT rates integrated over the covered bins (Eq. 8).
    pub fit: FitRate,
    /// Per-bin outcomes, indexed by energy-bin number.
    pub outcomes: Vec<BinOutcome>,
    /// Coverage summary; inspect before trusting `fit` when any bin
    /// degraded.
    pub coverage: Coverage,
}

/// What a single `run`/`resume` call produced.
#[derive(Debug)]
pub enum CampaignStatus {
    /// The campaign ran (or resumed) to completion.
    Complete(Box<CampaignReport>),
    /// `max_bins_per_run` was reached; progress is checkpointed and a
    /// later [`CampaignRunner::resume`] will continue.
    Paused {
        /// Bins computed so far (across all runs).
        completed: usize,
        /// Total bins in the campaign.
        total: usize,
    },
}

/// The fault-tolerant campaign driver.
pub struct CampaignRunner {
    config: CampaignConfig,
}

impl CampaignRunner {
    /// Creates a runner.
    pub fn new(config: CampaignConfig) -> Self {
        Self { config }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs the campaign from scratch, ignoring any checkpoint on disk
    /// (a fresh run overwrites it at the first snapshot).
    ///
    /// # Errors
    ///
    /// See [`CampaignError`].
    pub fn run(&self) -> Result<CampaignStatus, CampaignError> {
        self.execute(false)
    }

    /// Resumes from the configured checkpoint if one exists (falling back
    /// to a fresh run when the file is absent), after validating its
    /// version, checksum, and config fingerprint.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Checkpoint`] for an unreadable/invalid file,
    /// [`CampaignError::ConfigMismatch`] for a checkpoint produced by a
    /// different configuration, plus everything [`CampaignRunner::run`]
    /// can produce.
    pub fn resume(&self) -> Result<CampaignStatus, CampaignError> {
        self.execute(true)
    }

    fn execute(&self, resume: bool) -> Result<CampaignStatus, CampaignError> {
        let cfg = &self.config;
        let (plan, mut outcomes) = prepare(cfg, resume, |p| p.build_pof_table(cfg.vdd))?;
        let total = outcomes.len();
        let executor = plan.executor();
        let mut new_bins = 0usize;
        for k in 0..total {
            if outcomes[k].is_some() {
                continue;
            }
            if let Some(max) = cfg.max_bins_per_run {
                if new_bins >= max {
                    let completed = outcomes.iter().filter(|o| o.is_some()).count();
                    self.save_checkpoint(&outcomes)?;
                    return Ok(CampaignStatus::Paused { completed, total });
                }
            }
            outcomes[k] = Some(match supervised_bin(&executor, cfg, k, 0) {
                Ok(outcome) => outcome,
                Err(msg) => BinOutcome::Failed {
                    error: format!("bin {k} panicked: {msg}"),
                },
            });
            new_bins += 1;
        }

        if new_bins > 0 {
            self.save_checkpoint(&outcomes)?;
        }
        integrate_outcomes(cfg, &plan, outcomes)
            .map(|report| CampaignStatus::Complete(Box::new(report)))
    }

    fn save_checkpoint(&self, outcomes: &[Option<BinOutcome>]) -> Result<(), CampaignError> {
        let Some(path) = &self.config.checkpoint_path else {
            return Ok(());
        };
        let ck = build_checkpoint(&self.config, outcomes);
        ck.save(path)?;
        Ok(())
    }
}

/// Builds a campaign's [`BinPlan`] and its outcome table (`None` = not
/// yet computed). With `resume` set, the configured checkpoint, if one
/// exists, is loaded, its partial writes classified, its fingerprint
/// checked against the config, and its bins prefilled. Shared by
/// [`CampaignRunner`] and the campaign service's prepare step.
///
/// `pof_table` supplies the validated pipeline's POF table at `cfg.vdd`:
/// [`SerPipeline::build_pof_table`] for the runner, the service's table
/// cache in front of it for the service.
pub(crate) fn prepare(
    cfg: &CampaignConfig,
    resume: bool,
    pof_table: impl FnOnce(&SerPipeline) -> Result<PofTable, CoreError>,
) -> Result<(BinPlan<'static>, Vec<Option<BinOutcome>>), CampaignError> {
    let prior = match &cfg.checkpoint_path {
        Some(path) if resume && path.exists() => {
            let ck = load_checkpoint_classified(path)?;
            let expected = config_fingerprint(&cfg.pipeline, cfg.particle, cfg.vdd);
            if ck.fingerprint != expected {
                return Err(CampaignError::ConfigMismatch {
                    expected,
                    found: ck.fingerprint,
                });
            }
            ck.bins
        }
        _ => Vec::new(),
    };
    cfg.pipeline.validate()?;
    // The expensive, deterministic step: re-characterization on resume
    // rebuilds the identical POF table, so tallies from the prior run
    // compose bit-exactly with freshly computed bins.
    let pipeline = SerPipeline::new(cfg.pipeline.clone());
    let table = pof_table(&pipeline)?;
    let plan = BinPlan::for_particle(&pipeline, cfg.particle, vec![Cow::Owned(table)]);
    let outcomes = prefill_outcomes(prior, &plan.bins)?;
    Ok((plan, outcomes))
}

/// Runs one energy bin inside the supervision envelope shared by
/// [`CampaignRunner`] and the campaign service: fault-plan hooks, panic
/// capture via `catch_unwind`, and per-bin wall-time/outcome metrics.
///
/// `attempt` is the zero-based retry attempt; the fault plan's
/// `panic_bins` entries panic while `attempt` is below their count, which
/// is how the service's retry/backoff path is exercised deterministically.
/// `Ok` carries the bin outcome (possibly a planned [`BinOutcome::Failed`]);
/// `Err` carries the captured panic message so the caller decides between
/// retrying and quarantining.
pub(crate) fn supervised_bin(
    executor: &BinExecutor<'_>,
    cfg: &CampaignConfig,
    k: usize,
    attempt: u32,
) -> Result<BinOutcome, String> {
    #[cfg(not(feature = "fault-injection"))]
    let _ = (cfg, attempt);
    #[cfg(feature = "fault-injection")]
    if cfg.fault_plan.fail_bins.contains(&k) {
        return Ok(BinOutcome::Failed {
            error: format!("injected fault: bin {k} forced to fail"),
        });
    }
    let bin_timer = finrad_observe::span(finrad_observe::keys::CAMPAIGN_BIN_SECONDS);
    let result = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-injection")]
        #[expect(
            clippy::panic,
            reason = "deliberate injected worker crash; the envelope above catches it and the supervisor retries or quarantines"
        )]
        if let Some((_, panics)) = cfg.fault_plan.panic_bins.iter().find(|(b, _)| *b == k) {
            if attempt < *panics {
                panic!("injected fault: bin {k} panicked (attempt {attempt})");
            }
        }
        only_estimate(executor.run_bin(k))
    }));
    drop(bin_timer);
    finrad_observe::counter_add(
        if result.is_ok() {
            finrad_observe::keys::CAMPAIGN_BINS_OK
        } else {
            finrad_observe::keys::CAMPAIGN_BINS_FAILED
        },
        1,
    );
    match result {
        Ok(est) => {
            #[cfg(feature = "fault-injection")]
            let est = {
                let mut est = est;
                if cfg.fault_plan.poison_samples.contains(&k) {
                    est.push(crate::strike::IterationOutcome {
                        pof_total: f64::NAN,
                        pof_seu: f64::NAN,
                        pof_mbu: f64::NAN,
                        cells_struck: 0,
                    });
                }
                est
            };
            #[allow(unused_mut)]
            let mut outcome = executor.plan.outcome(k, &est);
            #[cfg(feature = "fault-injection")]
            if cfg.fault_plan.poison_bins.contains(&k) {
                if let BinOutcome::Ok { bin, .. } = &mut outcome {
                    bin.pof_total = f64::NAN;
                    bin.pof_seu = f64::NAN;
                    bin.pof_mbu = f64::NAN;
                }
            }
            Ok(outcome)
        }
        Err(payload) => Err(payload_message(payload.as_ref())),
    }
}

/// Maps checkpointed bin records back onto a campaign's outcome table
/// (`None` = not yet computed).
fn prefill_outcomes(
    prior: Vec<BinRecord>,
    spectrum_bins: &[SpectrumBin],
) -> Result<Vec<Option<BinOutcome>>, CampaignError> {
    let total = spectrum_bins.len();
    let mut outcomes: Vec<Option<BinOutcome>> = vec![None; total];
    for rec in prior {
        let k = rec.index();
        if k >= total {
            return Err(CheckpointError::Corrupt(format!(
                "bin index {k} out of range for {total} bins"
            ))
            .into());
        }
        outcomes[k] = Some(match rec {
            BinRecord::Ok {
                pof_total,
                pof_seu,
                pof_mbu,
                quarantined,
                ..
            } => BinOutcome::Ok {
                bin: PofBin {
                    spectrum: spectrum_bins[k],
                    pof_total,
                    pof_seu,
                    pof_mbu,
                },
                quarantined,
            },
            BinRecord::Failed { error, .. } => BinOutcome::Failed { error },
        });
    }
    Ok(outcomes)
}

/// Folds per-bin outcomes into a [`CampaignReport`] with
/// [`BinPlan::integrate`]; a bin that never ran counts as failed. Shared
/// by [`CampaignRunner`] and the campaign service.
pub(crate) fn integrate_outcomes(
    cfg: &CampaignConfig,
    plan: &BinPlan<'_>,
    outcomes: Vec<Option<BinOutcome>>,
) -> Result<CampaignReport, CampaignError> {
    let outcomes: Vec<BinOutcome> = outcomes
        .into_iter()
        .map(|o| {
            o.unwrap_or_else(|| BinOutcome::Failed {
                error: "bin never scheduled (internal accounting error)".into(),
            })
        })
        .collect();
    let (fit, coverage) = plan.integrate(&outcomes);
    if coverage.ok_bins == 0 {
        return Err(CampaignError::NoCoverage {
            total_bins: coverage.total_bins,
        });
    }
    Ok(CampaignReport {
        particle: cfg.particle,
        vdd: cfg.vdd,
        fit,
        outcomes,
        coverage,
    })
}

/// Builds the on-disk snapshot for the outcomes computed so far. Shared
/// by [`CampaignRunner::save_checkpoint`] and the service's drain flush.
pub(crate) fn build_checkpoint(
    config: &CampaignConfig,
    outcomes: &[Option<BinOutcome>],
) -> Checkpoint {
    let bins: Vec<BinRecord> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(k, o)| o.as_ref().map(|o| (k, o)))
        .map(|(k, o)| match o {
            BinOutcome::Ok { bin, quarantined } => BinRecord::Ok {
                index: k,
                pof_total: bin.pof_total,
                pof_seu: bin.pof_seu,
                pof_mbu: bin.pof_mbu,
                quarantined: *quarantined,
                energy_joules: bin.spectrum.energy.joules(),
                flux_per_m2_s: bin.spectrum.integral_flux.per_m2_second(),
            },
            BinOutcome::Failed { error } => BinRecord::Failed {
                index: k,
                error: error.clone(),
            },
        })
        .collect();
    Checkpoint {
        fingerprint: config_fingerprint(&config.pipeline, config.particle, config.vdd),
        particle: config.particle,
        vdd_bits: config.vdd.volts().to_bits(),
        total_bins: outcomes.len(),
        bins,
    }
}

/// Loads a checkpoint, classifying partial writes as the typed
/// [`CampaignError::CheckpointTruncated`] instead of generic corruption.
///
/// Two truncation shapes exist: the file ends before its checksum line
/// (the parser's [`CheckpointError::Truncated`]), and the file is cut
/// mid-line — which the grammar can only see as a malformed field. The
/// latter is disambiguated here without touching the parser: a complete
/// snapshot (`Checkpoint::to_text`) always ends with a newline, so a
/// `Corrupt` file whose last byte is not `\n` was interrupted mid-write.
fn load_checkpoint_classified(path: &Path) -> Result<Checkpoint, CampaignError> {
    match Checkpoint::load(path) {
        Err(CheckpointError::Truncated) => Err(CampaignError::CheckpointTruncated {
            path: path.to_path_buf(),
            detail: "file ends before its checksum line".into(),
        }),
        Err(CheckpointError::Corrupt(msg)) => {
            let cut_mid_line = std::fs::read(path)
                .map(|bytes| !bytes.is_empty() && bytes.last() != Some(&b'\n'))
                .unwrap_or(false);
            if cut_mid_line {
                Err(CampaignError::CheckpointTruncated {
                    path: path.to_path_buf(),
                    detail: format!("file cut mid-line: {msg}"),
                })
            } else {
                Err(CheckpointError::Corrupt(msg).into())
            }
        }
        other => other.map_err(CampaignError::from),
    }
}

pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deterministically flips one hex digit inside the checkpoint body so
/// the robustness suite can prove corruption is detected (the parser must
/// report [`CheckpointError::Corrupt`], never a silently-wrong resume).
/// Returns `false` when the file has no corruptible byte.
///
/// # Errors
///
/// Propagates filesystem errors.
#[cfg(feature = "fault-injection")]
pub fn corrupt_checkpoint(path: &std::path::Path, seed: u64) -> std::io::Result<bool> {
    let text = std::fs::read_to_string(path)?;
    // Only touch the body between the version header (flipping the
    // version digit would legitimately read as VersionMismatch) and the
    // checksum line — body corruption is the interesting case.
    let body_start = text.find('\n').map_or(0, |i| i + 1);
    let body_end = text.rfind("\nchecksum ").map_or(text.len(), |i| i + 1);
    let candidates: Vec<usize> = text[body_start..body_end]
        .bytes()
        .enumerate()
        .filter(|(_, b)| b.is_ascii_hexdigit())
        .map(|(i, _)| body_start + i)
        .collect();
    if candidates.is_empty() {
        return Ok(false);
    }
    let pos = candidates[(seed as usize) % candidates.len()];
    let mut bytes = text.into_bytes();
    bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
    std::fs::write(path, &bytes)?;
    Ok(true)
}
