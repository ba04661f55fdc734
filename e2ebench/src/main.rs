//! The benchmark binary.
//!
//! ```text
//! e2ebench --workload <pv_sweep|strike_nominal|service_mixed> --seed <n>
//!          --seconds <s> --trace <0|1> [--smoke] [--print-reference]
//! ```
//!
//! `--trace 0` repeats, for `--seconds`, a timed set-up followed by a
//! timed pass on what it set up, with no recorder installed, and reports
//! the end-to-end metrics as medians over the passes. `--trace 1` runs one untraced pass, installs the in-memory
//! recorder, runs one traced pass and reports the per-layer table. Every
//! pass is checked. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use finrad_e2ebench::check::{check_pass, reference_key, Expectation, Reference, REFERENCE};
use finrad_e2ebench::measure::{median, percentile, process_max_rss_mb};
use finrad_e2ebench::trace::{
    per_layer, stage_table, strike_scaling_efficiency, Metric, TraceInputs,
};
use finrad_e2ebench::workload::{run_pass, variant, Pass, Plan, Scale, Workload};
use finrad_observe::{json_number, json_string};
use std::process::ExitCode;
use std::time::Instant;

/// Minimum length of one set-up sample. A set-up shorter than this is
/// repeated back to back and the sample is the time per set-up, so a
/// set-up of well under a microsecond is not lost in timer resolution.
const SETUP_SAMPLE_S: f64 = 0.002;

const USAGE: &str = "usage: e2ebench --workload <pv_sweep|strike_nominal|service_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--print-reference]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    print_reference: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Bench;
    let mut print_reference = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => scale = Scale::Smoke,
            "--print-reference" => print_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        scale,
        print_reference,
    })
}

/// Most repeated set-ups alive at once. Repeats are kept until their batch
/// is timed and dropped after, so that tearing a plan down (for
/// `service_mixed`, stopping and joining its service) is not timed as
/// set-up; the cap keeps the batch from inflating `max_rss_mb`.
const SETUP_BATCH: usize = 32;

/// One set-up sample: [`Plan::set_up`] timed, repeated back to back in
/// batches until the sample spans `SETUP_SAMPLE_S`. Returns the first plan
/// and the seconds per set-up.
fn set_up(args: &Args) -> (Plan, f64) {
    let once = || Plan::set_up(args.workload, args.seed, args.scale);
    let started = Instant::now();
    let plan = once();
    let first = started.elapsed().as_secs_f64();
    if first >= SETUP_SAMPLE_S {
        return (plan, first);
    }
    let repeats = (SETUP_SAMPLE_S / first.max(1e-9)).ceil() as usize;
    let mut batch = Vec::with_capacity(repeats.min(SETUP_BATCH));
    let mut timed = 0.0;
    for n in (0..repeats).step_by(SETUP_BATCH) {
        let started = Instant::now();
        batch.extend((n..repeats.min(n + SETUP_BATCH)).map(|_| once()));
        timed += started.elapsed().as_secs_f64();
        batch.clear();
    }
    (plan, timed / repeats as f64)
}

/// Checked operation counts over a run's passes.
struct Tally {
    attempted: usize,
    failed: usize,
    exact: usize,
}

/// Checks every pass against the reference and against the first pass;
/// prints why each failed operation failed to standard error.
fn check_passes(args: &Args, passes: &[Pass], reference: &Reference) -> Tally {
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        exact: 0,
    };
    for (n, pass) in passes.iter().enumerate() {
        let verdict = check_pass(
            &pass.ops,
            &Expectation {
                workload: args.workload,
                scale: args.scale,
                variant: variant(args.seed),
                reference,
                first: (n > 0).then(|| passes[0].ops.as_slice()),
            },
        );
        for why in verdict.failures.values().flatten() {
            eprintln!("check failed (pass {n}): {why}");
        }
        tally.attempted += pass.ops.len();
        tally.failed += verdict.failed_ops();
        tally.exact += verdict.exact;
    }
    tally
}

/// The untraced run: for `--seconds`, a set-up sample then a pass on the
/// plan it built, repeated; then the end-to-end metrics.
fn timed_run(args: &Args) -> (Vec<Pass>, Vec<Metric>, String) {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    // Stop before a set-up and pass that would likely end past the budget.
    while passes
        .last()
        .zip(setups.last())
        .is_none_or(|(p, s)| started.elapsed().as_secs_f64() + s + p.wall_s <= args.seconds)
    {
        let (plan, setup_s) = set_up(args);
        setups.push(setup_s);
        passes.push(run_pass(&plan, false));
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let jobs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.job_seconds.iter().copied())
        .collect();
    // On the two single-request workloads the job is the pass, and a run
    // holds too few of them for a percentile: their median is reported.
    let job_p50 = percentile(&jobs, 0.5).unwrap_or_else(|_| median(&jobs));
    let metrics = vec![
        Metric::new("wall_s", median(&walls), "s"),
        Metric::new("cpu_s", median(&cpus), "s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("max_rss_mb", process_max_rss_mb(), "MiB"),
        Metric::new("job_p50_s", job_p50, "s"),
    ];
    let table = format!(
        "# wall_s, cpu_s, setup_s: median of {} passes; job_p50_s: over {} jobs\n\
         # pass wall_s: {walls:.3?}\n# pass cpu_s: {cpus:.2?}\n# pass setup_s: [{}]\n",
        passes.len(),
        jobs.len(),
        setups
            .iter()
            .map(|s| format!("{s:.3e}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    (passes, metrics, table)
}

/// The traced run: one untraced pass, then the recorder, one traced pass
/// and the thread-scaling probe; reports the per-layer metrics.
fn traced_run(args: &Args) -> (Vec<Pass>, Vec<Metric>, String) {
    let untraced = run_pass(&set_up(args).0, false);
    // Set up before installing the recorder: the snapshot then holds the
    // traced pass alone, as the stage spans do.
    let plan = set_up(args).0;
    let recorder =
        finrad_observe::install_in_memory().expect("nothing installs a recorder before this");
    let traced = run_pass(&plan, true);
    let snapshot = recorder.snapshot();
    let (scaling_eff, threads) = strike_scaling_efficiency();
    let metrics = per_layer(&TraceInputs {
        plan: &plan,
        untraced: &untraced,
        traced: &traced,
        snapshot: &snapshot,
        scaling_eff,
    });
    let table = format!(
        "# traced pass: {:.4} s, untraced pass: {:.4} s, scaling probe on {threads} threads\n{}",
        traced.wall_s,
        untraced.wall_s,
        stage_table(&traced)
    );
    (vec![untraced, traced], metrics, table)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let reference = match Reference::parse(REFERENCE) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: malformed {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_reference {
        let key = reference_key(args.workload, args.scale);
        for op in run_pass(&set_up(&args).0, false).ops {
            match op.fit {
                Ok(fit) => println!("{key} {} {} {:?}", variant(args.seed), op.label, fit.total),
                Err(e) => {
                    eprintln!("error: {}: {e}", op.label);
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let (passes, metrics, table) = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    let tally = check_passes(&args, &passes, &reference);
    print!(
        "# {} seed {} (variant {}): {} passes, {} operations, {} failed, \
         {} equal to the reference bit for bit\n{table}",
        args.workload.name(),
        args.seed,
        variant(args.seed),
        passes.len(),
        tally.attempted,
        tally.failed,
        tally.exact
    );
    for m in &metrics {
        println!("{:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
