//! The per-layer table of a traced run.
//!
//! Stage times come from the benchmark's own spans around each call into a
//! layer ([`crate::workload::stage`]); work counts and busy times come from
//! the counters and histograms the program already records into the
//! installed `finrad_observe` recorder.

use crate::measure::{median, ratio, stage_seconds, unaccounted_seconds};
use crate::workload::{stage, Pass, Plan};
use finrad_core::pipeline::{PipelineConfig, SerPipeline};
use finrad_core::strike::{DepositMode, FlipModel, StrikeSimulator, MC_CHUNK_ITERATIONS};
use finrad_observe::{keys, MetricsSnapshot};
use finrad_sram::Variation;
use finrad_transport::fin::FinTraversal;
use finrad_units::{Energy, Particle, Voltage};
use std::num::NonZeroUsize;
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Recovery-ladder rungs as `finrad_spice` names them in its counter keys.
const RUNGS: [&str; 4] = [
    "direct",
    "gmin-stepping",
    "source-stepping",
    "reduced-timestep",
];

/// Iterations of the thread-scaling probe: a whole number of Monte-Carlo
/// chunks, so every thread count splits the same work evenly.
const SCALING_ITERATIONS: u64 = 16 * MC_CHUNK_ITERATIONS;
/// Paired repetitions of the scaling probe (the median ratio is used).
const SCALING_REPS: usize = 5;

/// Strong-scaling efficiency of `StrikeSimulator::estimate_with_threads`
/// on one fixed bin (nominal 9×9 array at 0.8 V, 2 MeV alphas):
/// t(1 thread) / (n · t(n threads)) with n = `available_parallelism()`.
/// Each repetition times the two sides back to back, so a change in host
/// speed hits both; the median ratio over repetitions is reported.
/// Returns the efficiency and n.
pub fn strike_scaling_efficiency() -> (f64, usize) {
    let pipeline = SerPipeline::new(PipelineConfig {
        variation: Variation::Nominal,
        ..PipelineConfig::paper_baseline()
    });
    let table = pipeline
        .build_pof_table(Voltage::from_volts(0.8))
        .expect("nominal characterization at 0.8 V succeeds");
    let array = pipeline.build_array();
    let sim = StrikeSimulator::new(
        &array,
        FinTraversal::paper_default(),
        &table,
        pipeline.direction_for(Particle::Alpha),
        DepositMode::ChordExact,
        FlipModel::Expected,
        None,
    );
    let threads = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
    let time_with = |n: NonZeroUsize| {
        let t = Instant::now();
        std::hint::black_box(sim.estimate_with_threads(
            Particle::Alpha,
            Energy::from_mev(2.0),
            SCALING_ITERATIONS,
            7,
            n,
        ));
        t.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = (0..SCALING_REPS)
        .map(|_| time_with(NonZeroUsize::MIN) / (threads.get() as f64 * time_with(threads)))
        .collect();
    (median(&ratios), threads.get())
}

/// The inputs of the per-layer table.
pub struct TraceInputs<'a> {
    /// The workload.
    pub plan: &'a Plan,
    /// A pass with no recorder installed.
    pub untraced: &'a Pass,
    /// The same pass with the recorder installed and stage spans.
    pub traced: &'a Pass,
    /// Recorder contents after the traced pass (the untraced pass ran
    /// before installation, so everything here is the traced pass's).
    pub snapshot: &'a MetricsSnapshot,
    /// [`strike_scaling_efficiency`]'s result.
    pub scaling_eff: f64,
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer the
/// workload does not call reports 0 work and 0 time.
pub fn per_layer(inputs: &TraceInputs<'_>) -> Vec<Metric> {
    let snap = inputs.snapshot;
    let spans = &inputs.traced.spans;
    let counter = |key: &str| snap.counter(key) as f64;
    let hist_sum = |key: &str| snap.histogram(key).map_or(0.0, |h| h.sum);

    let newton_iterations = counter(keys::SPICE_NEWTON_ITERATIONS);
    let strike_busy = hist_sum(keys::STRIKE_ESTIMATE_SECONDS);
    let strike_iterations = counter(keys::STRIKE_ITERATIONS);
    let pipeline_span = stage_seconds(spans, stage::PIPELINE);
    // Inside run_with_table spans, all strike time is nested; the service
    // workload's strike time runs inside service jobs instead.
    let pipeline_self = if pipeline_span > 0.0 {
        pipeline_span - strike_busy
    } else {
        0.0
    };
    let transport_s = stage_seconds(spans, stage::TRANSPORT);
    let lut_builds = spans.iter().filter(|s| s.stage == stage::TRANSPORT).count() as f64;
    let lut_traversals = match inputs.plan {
        Plan::Service { jobs, .. } => jobs
            .iter()
            .find(|j| j.config.pipeline.deposit == DepositMode::LutMean)
            .map_or(0.0, |j| {
                let p = &j.config.pipeline;
                lut_builds * p.lut_energy_points as f64 * p.lut_samples as f64
            }),
        _ => 0.0,
    };
    let job_seconds = hist_sum(keys::SERVICE_JOB_SECONDS);
    let cache_hits = counter(keys::SERVICE_CACHE_HITS);
    let total = inputs.traced.wall_s;
    // The transport calls are made by the traced pass only; the overhead
    // compares the calls both passes make.
    let overhead = (total - transport_s) / inputs.untraced.wall_s;

    let mut out = vec![
        Metric::new("sram.build_table_s", stage_seconds(spans, stage::SRAM), "s"),
        Metric::new(
            "sram.characterize.combos",
            counter(keys::SRAM_COMBOS),
            "count",
        ),
        Metric::new(
            "sram.characterize.bisection_steps",
            counter(keys::SRAM_BISECTION_STEPS),
            "count",
        ),
        Metric::new(
            "sram.dcop_cache_hit_ratio",
            ratio(
                counter(keys::SRAM_DCOP_CACHE_HITS),
                counter(keys::SRAM_DCOP_CACHE_HITS) + counter(keys::SRAM_DCOP_CACHE_MISSES),
            ),
            "ratio",
        ),
        Metric::new(
            "sram.characterize.settle_early_exits",
            counter(keys::SRAM_SETTLE_EARLY_EXITS),
            "count",
        ),
        Metric::new("spice.newton.iterations", newton_iterations, "count"),
        Metric::new(
            "spice.newton.iters_per_solve",
            ratio(newton_iterations, counter(keys::SPICE_NEWTON_SOLVES)),
            "iter/solve",
        ),
        Metric::new(
            "spice.newton.failures",
            counter(keys::SPICE_NEWTON_FAILURES),
            "count",
        ),
        Metric::new(
            "spice.newton.jacobian_reuse_ratio",
            ratio(
                counter(keys::SPICE_NEWTON_JACOBIAN_REUSES),
                newton_iterations,
            ),
            "ratio",
        ),
        Metric::new(
            "spice.newton.lu_dense_fallbacks",
            counter(keys::SPICE_LU_DENSE_FALLBACKS),
            "count",
        ),
        Metric::new(
            "spice.transient.lte_step_growths",
            counter(keys::SPICE_TRANSIENT_LTE_STEP_GROWTHS),
            "count",
        ),
    ];
    for rung in RUNGS {
        for outcome in ["ok", "fail"] {
            let key = format!("{}{rung}.{outcome}", keys::SPICE_RECOVERY_RUNG_PREFIX);
            out.push(Metric::new(key.clone(), counter(&key), "count"));
        }
    }
    out.extend([
        Metric::new(
            "finfet.model.batched_evals",
            counter(keys::FINFET_MODEL_BATCHED_EVALS),
            "count",
        ),
        Metric::new("transport.lut_build_s", transport_s, "s"),
        Metric::new("transport.lut_traversals", lut_traversals, "count"),
        Metric::new("core.strike.busy_s", strike_busy, "s"),
        Metric::new(
            "core.strike.iters_per_s",
            ratio(strike_iterations, strike_busy),
            "1/s",
        ),
        Metric::new("core.strike.iterations", strike_iterations, "count"),
        Metric::new(
            "core.strike.quarantined",
            counter(keys::STRIKE_QUARANTINED),
            "count",
        ),
        Metric::new("core.strike.scaling_eff", inputs.scaling_eff, "ratio"),
        Metric::new("core.pipeline.self_s", pipeline_self, "s"),
        Metric::new("core.service.job_seconds", job_seconds, "s"),
        Metric::new(
            "core.service.prepare_s",
            job_seconds - hist_sum(keys::CAMPAIGN_BIN_SECONDS),
            "s",
        ),
        Metric::new(
            "core.service.cache_hit_ratio",
            ratio(cache_hits, cache_hits + counter(keys::SERVICE_CACHE_MISSES)),
            "ratio",
        ),
        Metric::new(
            "core.service.queue_steals",
            counter(keys::SERVICE_QUEUE_STEALS),
            "count",
        ),
        Metric::new(
            "core.service.bin_retries",
            counter(keys::SERVICE_BIN_RETRIES),
            "count",
        ),
        Metric::new(
            "core.service.bins_quarantined",
            counter(keys::SERVICE_BINS_QUARANTINED),
            "count",
        ),
        Metric::new(
            "core.service.queue_depth_max",
            snap.histogram(keys::SERVICE_QUEUE_DEPTH)
                .map_or(0.0, |h| h.max),
            "count",
        ),
        Metric::new("trace.overhead", overhead, "ratio"),
        Metric::new("stage.total_s", total, "s"),
        Metric::new(
            "stage.unaccounted_s",
            unaccounted_seconds(total, spans),
            "s",
        ),
    ]);
    out
}

/// The stage table printed above the traced run's result line.
pub fn stage_table(pass: &Pass) -> String {
    let total = pass.wall_s;
    let mut out = format!(
        "{:<16} {:>6} {:>10} {:>7}\n",
        "stage", "calls", "busy_s", "share"
    );
    for name in [
        stage::SRAM,
        stage::PIPELINE,
        stage::TRANSPORT,
        stage::SERVICE,
    ] {
        let calls = pass.spans.iter().filter(|s| s.stage == name).count();
        if calls == 0 {
            continue;
        }
        let secs = stage_seconds(&pass.spans, name);
        out.push_str(&format!(
            "{name:<16} {calls:>6} {secs:>10.4} {:>6.1}%\n",
            100.0 * secs / total
        ));
    }
    let gap = unaccounted_seconds(total, &pass.spans);
    out.push_str(&format!(
        "{:<16} {:>6} {gap:>10.4} {:>6.1}%\n{:<16} {:>6} {total:>10.4} {:>6.1}%\n",
        "(unaccounted)",
        "",
        100.0 * gap / total,
        "total",
        "",
        100.0
    ));
    out
}
