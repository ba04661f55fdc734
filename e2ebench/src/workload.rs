//! The three seeded workloads and one pass over each.
//!
//! A workload is generated from the `--seed` argument, and the program under
//! test receives only the generated configs. Every workload is a closed
//! loop driven by a single client: each call returns before the next is
//! made. One pass runs every job of the workload once; a run repeats a
//! timed set-up and a timed pass.

use crate::measure::{process_cpu_seconds, StageSpan};
use finrad_core::campaign::CampaignConfig;
use finrad_core::pipeline::{PipelineConfig, SerPipeline, SerReport};
use finrad_core::service::{CampaignService, JobResult, ServiceConfig};
use finrad_core::strike::{DepositMode, FlipModel};
use finrad_core::sweep::VddSweep;
use finrad_numerics::rng::{Rng, SplitMix64};
use finrad_sram::{PofTable, Variation};
use finrad_units::{Particle, Voltage};
use std::time::Instant;

/// Seeds are folded onto this many workload variants, so every seed has
/// a stored reference result (`reference.txt`).
pub const VARIANTS: u64 = 16;

/// The supply points of `pv_sweep`, spanning the paper's 0.7–1.1 V range.
const SWEEP_VDDS: [f64; 3] = [0.7, 0.9, 1.1];
/// The single supply point of `strike_nominal`.
const STRIKE_VDD: f64 = 0.8;
/// The supply points of `service_mixed`: every (deposit mode, species)
/// pair runs once at each.
const SERVICE_VDDS: [f64; 5] = [0.7, 0.8, 0.9, 1.0, 1.1];
/// After every this many submissions the client resubmits an earlier
/// campaign verbatim, which the service answers from its result cache.
const RESUBMIT_EVERY: usize = 5;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `VddSweep::run` at figure quick scale under variation Monte Carlo.
    PvSweep,
    /// `SerPipeline::run_with_table` for both species at one supply,
    /// nominal devices, strike MC dominant.
    StrikeNominal,
    /// A mixed stream of campaigns through `CampaignService`.
    ServiceMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PvSweep,
        Workload::StrikeNominal,
        Workload::ServiceMixed,
    ];

    /// The workload's name on the command line and in the reference file.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PvSweep => "pv_sweep",
            Workload::StrikeNominal => "strike_nominal",
            Workload::ServiceMixed => "service_mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: the benchmark's own, or a smoke size for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Bench,
    /// Seconds-scale sizes with the same structure.
    Smoke,
}

/// FIT rates of one operation, compared bit for bit between passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Total FIT.
    pub total: f64,
    /// SEU FIT.
    pub seu: f64,
    /// MBU FIT.
    pub mbu: f64,
}

impl Fit {
    /// Whether two results are bit-identical.
    pub fn same_bits(&self, other: &Fit) -> bool {
        let bits = |f: &Fit| [f.total.to_bits(), f.seu.to_bits(), f.mbu.to_bits()];
        bits(self) == bits(other)
    }
}

/// One operation: a (particle, Vdd) FIT result or one service job.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Stable label, the key into the reference file.
    pub label: String,
    /// Particle species of the result.
    pub particle: Particle,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// The FIT result, or the error the call returned.
    pub fit: Result<Fit, String>,
    /// Whether every energy bin entered the FIT integration (always true
    /// for pipeline results; service reports carry their coverage).
    pub complete: bool,
}

/// Everything one pass produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Operations in submission order.
    pub ops: Vec<Op>,
    /// Latency of each job the client waited on, seconds.
    pub job_seconds: Vec<f64>,
    /// Wall time of the pass, seconds.
    pub wall_s: f64,
    /// Process CPU time (user + system, all threads) over the pass,
    /// seconds.
    pub cpu_s: f64,
    /// Stage spans of a traced pass (empty when untraced).
    pub spans: Vec<StageSpan>,
}

/// One service submission of `service_mixed`.
#[derive(Debug, Clone)]
pub struct ServiceJob {
    /// Label of the submission.
    pub label: String,
    /// The campaign submitted.
    pub config: CampaignConfig,
}

/// A workload set up for one pass.
pub enum Plan {
    /// `pv_sweep`.
    Sweep {
        /// The pipeline under variation Monte Carlo.
        pipeline: SerPipeline,
        /// Supply points.
        vdds: Vec<Voltage>,
    },
    /// `strike_nominal`.
    Strike {
        /// The nominal pipeline.
        pipeline: SerPipeline,
        /// The supply point.
        vdd: Voltage,
        /// The POF table at `vdd`, built at set-up: `run_with_table` takes
        /// it as an input, so the timed calls are the strike MC alone.
        table: Result<PofTable, String>,
    },
    /// `service_mixed`.
    Service {
        /// Submissions in order, resubmissions included.
        jobs: Vec<ServiceJob>,
        /// The started service, its result cache empty.
        service: CampaignService,
    },
}

/// The reference-file variant a seed selects.
pub fn variant(seed: u64) -> u64 {
    seed % VARIANTS
}

/// The `PipelineConfig.seed` of a variant.
fn pipeline_seed(variant: u64) -> u64 {
    SplitMix64::new(0xF1A7_5EED ^ variant).next_u64()
}

fn volts(v: f64) -> Voltage {
    Voltage::from_volts(v)
}

fn sweep_config(scale: Scale) -> PipelineConfig {
    match scale {
        Scale::Bench => finrad_bench::figure_config(finrad_bench::Scale::Quick),
        Scale::Smoke => PipelineConfig {
            variation: Variation::MonteCarlo { samples: 4 },
            iterations_per_energy: 2_000,
            energy_bins: 4,
            ..PipelineConfig::smoke_test()
        },
    }
}

fn strike_config(scale: Scale) -> PipelineConfig {
    match scale {
        Scale::Bench => PipelineConfig {
            variation: Variation::Nominal,
            iterations_per_energy: 100_000,
            energy_bins: 10,
            ..PipelineConfig::paper_baseline()
        },
        Scale::Smoke => PipelineConfig {
            iterations_per_energy: 2_000,
            ..PipelineConfig::smoke_test()
        },
    }
}

fn service_base_config(scale: Scale) -> PipelineConfig {
    match scale {
        Scale::Bench => PipelineConfig {
            variation: Variation::Nominal,
            iterations_per_energy: 10_000,
            energy_bins: 10,
            ..PipelineConfig::paper_baseline()
        },
        Scale::Smoke => PipelineConfig {
            iterations_per_energy: 500,
            energy_bins: 3,
            lut_energy_points: 5,
            lut_samples: 500,
            ..PipelineConfig::smoke_test()
        },
    }
}

/// The `service_mixed` submissions of a variant. Twenty distinct
/// campaigns: paper-faithful LUT-mean deposits with sampled flips and
/// chord-exact deposits with expected flips, each for both species at
/// each supply of `SERVICE_VDDS`. The seed sets their order and pipeline
/// seeds, and which earlier campaign is resubmitted verbatim after every
/// fifth submission; the work per pass is the same for every seed.
fn service_jobs(variant: u64, scale: Scale) -> Vec<ServiceJob> {
    let mut rng = SplitMix64::new(pipeline_seed(variant));
    let base = service_base_config(scale);
    let mut unique = Vec::new();
    for lut in [true, false] {
        for particle in SPECIES {
            for vdd in SERVICE_VDDS {
                let i = unique.len();
                let mut pipeline = PipelineConfig {
                    seed: pipeline_seed(variant).wrapping_add(i as u64),
                    ..base.clone()
                };
                if lut {
                    pipeline.deposit = DepositMode::LutMean;
                    pipeline.flip_model = FlipModel::Sampled;
                }
                let mode = if lut { "lut" } else { "chord" };
                unique.push(ServiceJob {
                    label: format!("{mode}{i:02}.{}@{vdd:.2}V", particle.name()),
                    config: CampaignConfig::new(pipeline, particle, volts(vdd)),
                });
            }
        }
    }
    // Fisher–Yates over the seeded stream interleaves modes and species.
    for i in (1..unique.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        unique.swap(i, j);
    }
    let mut jobs: Vec<ServiceJob> =
        Vec::with_capacity(unique.len() + unique.len() / RESUBMIT_EVERY);
    for (i, job) in unique.iter().enumerate() {
        jobs.push(job.clone());
        if (i + 1) % RESUBMIT_EVERY == 0 {
            jobs.push(unique[(rng.next_u64() % (i as u64 + 1)) as usize].clone());
        }
    }
    // Labels carry the submission position, so a resubmission's label is
    // its own while naming the campaign it repeats.
    for (n, job) in jobs.iter_mut().enumerate() {
        job.label = format!("{n:02}.{}", job.label);
    }
    jobs
}

impl Plan {
    /// Sets the workload up: generates it from `seed` and constructs what
    /// its timed calls run on — the pipeline, the `strike_nominal` POF
    /// table, or a started service.
    pub fn set_up(workload: Workload, seed: u64, scale: Scale) -> Self {
        let v = variant(seed);
        match workload {
            Workload::PvSweep => Plan::Sweep {
                pipeline: SerPipeline::new(PipelineConfig {
                    seed: pipeline_seed(v),
                    ..sweep_config(scale)
                }),
                vdds: SWEEP_VDDS.iter().map(|&x| volts(x)).collect(),
            },
            Workload::StrikeNominal => {
                let pipeline = SerPipeline::new(PipelineConfig {
                    seed: pipeline_seed(v),
                    ..strike_config(scale)
                });
                let vdd = volts(STRIKE_VDD);
                let table = pipeline.build_pof_table(vdd).map_err(|e| e.to_string());
                Plan::Strike {
                    pipeline,
                    vdd,
                    table,
                }
            }
            Workload::ServiceMixed => Plan::Service {
                jobs: service_jobs(v, scale),
                service: start_service(),
            },
        }
    }
}

/// Starts the campaign service the way `service_mixed` uses it: one
/// worker, because each bin's strike estimate already fans out to
/// `available_parallelism()` threads, and more workers would oversubscribe
/// the cores.
fn start_service() -> CampaignService {
    CampaignService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
}

fn pipeline_op(report: &SerReport) -> Op {
    let vdd = report.vdd.volts();
    Op {
        label: format!("{}@{vdd:.2}V", report.particle.name()),
        particle: report.particle,
        vdd,
        fit: Ok(Fit {
            total: report.fit_total,
            seu: report.fit_seu,
            mbu: report.fit_mbu,
        }),
        complete: true,
    }
}

/// The operations at `vdds` that a failed call leaves without a result.
fn failed_ops(vdds: &[Voltage], error: &str) -> Vec<Op> {
    vdds.iter()
        .flat_map(|vdd| SPECIES.map(|particle| (particle, vdd.volts())))
        .map(|(particle, vdd)| Op {
            label: format!("{}@{vdd:.2}V", particle.name()),
            particle,
            vdd,
            fit: Err(error.to_owned()),
            complete: false,
        })
        .collect()
}

const SPECIES: [Particle; 2] = [Particle::Proton, Particle::Alpha];

fn service_op(job: &ServiceJob, result: &JobResult) -> Op {
    let (fit, complete) = match result {
        Ok(report) => (
            Ok(Fit {
                total: report.fit.total,
                seu: report.fit.seu,
                mbu: report.fit.mbu,
            }),
            report.coverage.is_complete(),
        ),
        Err(e) => (Err(e.to_string()), false),
    };
    Op {
        label: job.label.clone(),
        particle: job.config.particle,
        vdd: job.config.vdd.volts(),
        fit,
        complete,
    }
}

/// Stage names of the traced run: the layer whose public function each
/// span wraps.
pub mod stage {
    /// `SerPipeline::build_pof_table`.
    pub const SRAM: &str = "sram";
    /// `SerPipeline::run_with_table`.
    pub const PIPELINE: &str = "core.pipeline";
    /// `SerPipeline::build_ehp_lut`, once per species.
    pub const TRANSPORT: &str = "transport";
    /// `CampaignService::submit` then `wait`, one job.
    pub const SERVICE: &str = "core.service";
}

/// The span recorder of a traced pass: each call into a layer, timed from
/// the benchmark's side. An untraced pass has none and runs calls bare.
struct Tracer {
    origin: Instant,
    spans: Vec<StageSpan>,
}

fn in_span<T>(tracer: &mut Option<Tracer>, stage: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(t) = tracer else {
        return f();
    };
    let start = t.origin.elapsed().as_secs_f64();
    let out = f();
    let end = t.origin.elapsed().as_secs_f64();
    t.spans.push(StageSpan { stage, start, end });
    out
}

/// Runs one pass: every job of the workload once, timed. A plan serves
/// one pass: `service_mixed` needs a service whose cache is still empty.
///
/// Untraced, each workload makes its public calls as a user would.
/// Traced, the pass makes the same calls one layer at a time, each inside
/// a span: `VddSweep::run` becomes its `build_pof_table` and two
/// `run_with_table` calls per supply, and `service_mixed` first builds
/// each species' e–h LUT as a call of its own.
///
/// On `pv_sweep` and `strike_nominal` the client's single request is the
/// whole pass, so the pass is also its one job.
pub fn run_pass(plan: &Plan, traced: bool) -> Pass {
    let cpu_before = process_cpu_seconds();
    let origin = Instant::now();
    let mut tracer = traced.then(|| Tracer {
        origin,
        spans: Vec::new(),
    });
    let mut job_seconds = Vec::new();
    let ops = match plan {
        Plan::Sweep { pipeline, vdds } if !traced => match VddSweep::run(pipeline, vdds) {
            Ok(sweep) => sweep
                .points()
                .iter()
                .flat_map(|p| [pipeline_op(&p.proton), pipeline_op(&p.alpha)])
                .collect(),
            Err(e) => failed_ops(vdds, &e.to_string()),
        },
        Plan::Sweep { pipeline, vdds } => vdds
            .iter()
            .flat_map(|&vdd| both_species(pipeline, vdd, &mut tracer))
            .collect(),
        Plan::Strike {
            pipeline,
            vdd,
            table,
        } => match table {
            Ok(table) => from_table(pipeline, *vdd, table, &mut tracer),
            Err(e) => failed_ops(&[*vdd], e),
        },
        Plan::Service { jobs, service } => {
            if traced {
                let lut_job = jobs
                    .iter()
                    .find(|j| j.config.pipeline.deposit == DepositMode::LutMean)
                    .expect("service_mixed has LUT-mode jobs");
                let pipeline = SerPipeline::new(lut_job.config.pipeline.clone());
                for particle in SPECIES {
                    in_span(&mut tracer, stage::TRANSPORT, || {
                        pipeline.build_ehp_lut(particle)
                    });
                }
            }
            jobs.iter()
                .map(|job| {
                    let submitted = Instant::now();
                    let result = in_span(&mut tracer, stage::SERVICE, || {
                        service.wait(service.submit(job.config.clone()))
                    });
                    job_seconds.push(submitted.elapsed().as_secs_f64());
                    service_op(job, &result)
                })
                .collect()
        }
    };
    let wall_s = origin.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds() - cpu_before;
    if job_seconds.is_empty() {
        job_seconds.push(wall_s);
    }
    Pass {
        ops,
        job_seconds,
        wall_s,
        cpu_s,
        spans: tracer.map(|t| t.spans).unwrap_or_default(),
    }
}

/// One POF table at `vdd`, then both species' FIT from it: the body of
/// `VddSweep::run` for one supply point.
fn both_species(pipeline: &SerPipeline, vdd: Voltage, tracer: &mut Option<Tracer>) -> Vec<Op> {
    match in_span(tracer, stage::SRAM, || pipeline.build_pof_table(vdd)) {
        Ok(table) => from_table(pipeline, vdd, &table, tracer),
        Err(e) => failed_ops(&[vdd], &e.to_string()),
    }
}

/// Both species' FIT at `vdd` from a built POF table.
fn from_table(
    pipeline: &SerPipeline,
    vdd: Voltage,
    table: &PofTable,
    tracer: &mut Option<Tracer>,
) -> Vec<Op> {
    SPECIES
        .iter()
        .map(|&particle| {
            pipeline_op(&in_span(tracer, stage::PIPELINE, || {
                pipeline.run_with_table(particle, vdd, table)
            }))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use finrad_core::checkpoint::config_fingerprint;

    fn fingerprint(job: &ServiceJob) -> u64 {
        let c = &job.config;
        config_fingerprint(&c.pipeline, c.particle, c.vdd)
    }

    #[test]
    fn service_mix_shape() {
        let jobs = service_jobs(3, Scale::Bench);
        assert!(jobs.len() >= 20, "at least 20 jobs per pass");
        let mut seen = std::collections::BTreeSet::new();
        let mut repeats = 0;
        let mut lut = 0;
        for job in &jobs {
            if !seen.insert(fingerprint(job)) {
                repeats += 1;
            } else if job.config.pipeline.deposit == DepositMode::LutMean {
                assert_eq!(job.config.pipeline.flip_model, FlipModel::Sampled);
                lut += 1;
            }
        }
        let unique = 4 * SERVICE_VDDS.len();
        assert_eq!(repeats, unique / RESUBMIT_EVERY);
        assert_eq!(lut, unique / 2);
        for particle in SPECIES {
            assert!(jobs.iter().any(|j| j.config.particle == particle));
        }
    }

    #[test]
    fn seeds_fold_onto_variants_deterministically() {
        let labels = |seed| -> Vec<String> {
            service_jobs(variant(seed), Scale::Bench)
                .into_iter()
                .map(|j| j.label)
                .collect()
        };
        assert_eq!(labels(5), labels(5 + VARIANTS));
        assert_ne!(labels(5), labels(6));
        assert_ne!(pipeline_seed(0), pipeline_seed(1));
    }
}
