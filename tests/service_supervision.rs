//! Determinism-under-faults suite for the supervised campaign service:
//! crashed bins are retried on a reproducible backoff schedule and the
//! recovered report is bit-identical to an unfaulted run; poison bins are
//! quarantined to the dead-letter list without sinking the job; stalls
//! trip the wall-clock deadline as a typed error; checkpoint-write
//! failures at completion are loud; and a daemon killed mid-job flushes a
//! partial checkpoint a successor resumes bit-identically.
//!
//! Run with `cargo test --features fault-injection --test service_supervision`.
//! Both injectors (solver-level and service-level) are process-global, so
//! every test serializes on [`FAULT_LOCK`].
#![cfg(feature = "fault-injection")]

use finrad::core::campaign::{CampaignConfig, CampaignReport, CampaignRunner, CampaignStatus};
use finrad::core::service::fault as service_fault;
use finrad::prelude::*;
use finrad::spice::fault as spice_fault;
use finrad_observe::keys;
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Takes the global injector lock and guarantees both injectors are
/// disarmed on exit, even when the test body panics.
/// A tuple drops its fields in order, so the disarm runs before the lock
/// is released: disarming after the release could undo what the next
/// test has just armed.
fn fault_guard() -> (DisarmOnDrop, MutexGuard<'static, ()>) {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    spice_fault::disarm();
    service_fault::disarm();
    (DisarmOnDrop, guard)
}

struct DisarmOnDrop;

impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        spice_fault::disarm();
        service_fault::disarm();
    }
}

/// One recorder per process, shared by every test in this binary.
fn recorder() -> &'static finrad_observe::InMemoryRecorder {
    static RECORDER: OnceLock<&'static finrad_observe::InMemoryRecorder> = OnceLock::new();
    RECORDER.get_or_init(|| finrad_observe::install_in_memory().expect("first install"))
}

fn tiny_pipeline() -> PipelineConfig {
    let mut c = PipelineConfig::smoke_test();
    c.iterations_per_energy = 100;
    c
}

fn vdd() -> Voltage {
    Voltage::from_volts(0.8)
}

fn campaign_config() -> CampaignConfig {
    CampaignConfig::new(tiny_pipeline(), Particle::Alpha, vdd())
}

/// The unfaulted baseline report, computed once (callers hold FAULT_LOCK).
fn plain_report() -> &'static CampaignReport {
    static PLAIN: OnceLock<CampaignReport> = OnceLock::new();
    PLAIN.get_or_init(|| {
        match CampaignRunner::new(campaign_config())
            .run()
            .expect("baseline campaign")
        {
            CampaignStatus::Complete(report) => *report,
            CampaignStatus::Paused { .. } => unreachable!("unbounded run cannot pause"),
        }
    })
}

/// A per-test temp path, removed on drop so failures don't leak state
/// into reruns.
struct TempCkpt(PathBuf);

impl TempCkpt {
    fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!("finrad-svc-{}-{name}", std::process::id()));
        let _ = fs::remove_file(&p);
        TempCkpt(p)
    }
}

impl Drop for TempCkpt {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

#[test]
fn crashed_bin_is_retried_and_report_is_bit_identical() {
    let _g = fault_guard();
    let recorder = recorder();
    let truth = plain_report();
    let retries_before = recorder.snapshot().counter(keys::SERVICE_BIN_RETRIES);

    // Bin 2 panics on attempts 0 and 1, then succeeds on attempt 2 —
    // inside the retry budget, so the supervision envelope recovers it
    // and the fault leaves no trace in the numbers.
    let mut cfg = campaign_config();
    cfg.fault_plan.panic_bins = vec![(2, 2)];
    let service = CampaignService::start(ServiceConfig {
        workers: 2,
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        ..ServiceConfig::default()
    });
    let job = service.submit(cfg);
    let report = service.wait(job).expect("retried job completes");

    assert_eq!(report.fit.total.to_bits(), truth.fit.total.to_bits());
    assert_eq!(report.fit.seu.to_bits(), truth.fit.seu.to_bits());
    assert_eq!(report.fit.mbu.to_bits(), truth.fit.mbu.to_bits());
    assert!(report.coverage.is_complete());
    assert!(service.dead_letters().is_empty());
    let retries_after = recorder.snapshot().counter(keys::SERVICE_BIN_RETRIES);
    assert_eq!(retries_after, retries_before + 2, "one retry per panic");
}

#[test]
fn poison_bin_is_quarantined_to_the_dead_letter_list() {
    let _g = fault_guard();
    let recorder = recorder();
    let quarantined_before = recorder.snapshot().counter(keys::SERVICE_BINS_QUARANTINED);

    // Bin 1 panics on every attempt: after max_retries + 1 tries it is
    // quarantined, and the job completes with degraded coverage instead
    // of hanging or sinking the worker pool.
    let mut cfg = campaign_config();
    cfg.fault_plan.panic_bins = vec![(1, u32::MAX)];
    let service = CampaignService::start(ServiceConfig {
        workers: 2,
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        ..ServiceConfig::default()
    });
    let job = service.submit(cfg);
    let report = service.wait(job).expect("degraded job still completes");

    assert!(!report.coverage.is_complete());
    assert_eq!(report.coverage.failed_bins, 1);
    let letters = service.dead_letters();
    assert_eq!(letters.len(), 1);
    assert_eq!(letters[0].job, job);
    assert_eq!(letters[0].bin, 1);
    assert_eq!(letters[0].attempts, 3, "first run plus two retries");
    assert!(letters[0].error.contains("injected fault"));
    assert_eq!(
        recorder.snapshot().counter(keys::SERVICE_BINS_QUARANTINED),
        quarantined_before + 1
    );

    // The pool survived the poison job: a clean campaign on the same
    // service still produces the exact baseline.
    let clean = service.submit(campaign_config());
    let clean_report = service.wait(clean).expect("clean job after poison");
    assert_eq!(
        clean_report.fit.total.to_bits(),
        plain_report().fit.total.to_bits()
    );
}

#[test]
fn backoff_schedule_is_reproducible_from_the_campaign_seed() {
    let _g = fault_guard();
    let seed = tiny_pipeline().seed;
    let base = Duration::from_millis(5);
    let cap = Duration::from_millis(100);

    for bin in 0..5 {
        for attempt in 0..4 {
            let a = backoff_schedule(seed, bin, attempt, base, cap);
            let b = backoff_schedule(seed, bin, attempt, base, cap);
            assert_eq!(a, b, "bin {bin} attempt {attempt} must be pure");
            assert!(a <= cap, "bin {bin} attempt {attempt} exceeds the cap");
            assert!(a >= base.min(cap), "delay below base");
        }
    }
    // Different campaign seeds de-correlate the jitter.
    let a = backoff_schedule(seed, 0, 0, base, cap);
    let b = backoff_schedule(seed ^ 1, 0, 0, base, cap);
    assert_ne!(a, b, "jitter must depend on the campaign seed");
}

#[test]
fn solver_stall_trips_the_job_deadline_as_a_typed_error() {
    let _g = fault_guard();
    let _ = recorder();

    // The very first Newton solve stalls for 400 ms against a 50 ms job
    // deadline: the cancellation token fires inside the solver and the
    // job fails with the typed deadline error instead of hanging.
    spice_fault::arm_stall(0, 1, Duration::from_millis(400));
    let strict = CampaignService::start(ServiceConfig {
        workers: 1,
        job_deadline: Some(Duration::from_millis(50)),
        ..ServiceConfig::default()
    });
    let job = strict.submit(campaign_config());
    assert!(matches!(strict.wait(job), Err(JobError::DeadlineExceeded)));
    drop(strict);

    // Injector drained (count = 1): the same campaign on a fresh
    // no-deadline service completes with baseline bits.
    let relaxed = CampaignService::start(ServiceConfig::default());
    let job = relaxed.submit(campaign_config());
    let report = relaxed.wait(job).expect("job after stall drained");
    assert_eq!(
        report.fit.total.to_bits(),
        plain_report().fit.total.to_bits()
    );
}

#[test]
fn variation_samples_poll_the_job_deadline() {
    let _g = fault_guard();
    let recorder = recorder();
    let counter = |key| recorder.snapshot().counter(key);
    let mut cfg = campaign_config();
    cfg.pipeline.variation = Variation::MonteCarlo { samples: 8 };

    // The preparing thread runs the nominal pre-strike solve and the first
    // combo's nominal search before the sample workers spawn; a standalone
    // nominal search makes exactly those Newton solves.
    let before = counter(keys::SPICE_NEWTON_SOLVES);
    CellCharacterizer::new(cfg.pipeline.tech.clone(), cfg.pipeline.characterize.clone())
        .critical_charge(vdd(), StrikeCombo::all()[0], &HashMap::new())
        .expect("nominal search");
    let on_preparing_thread = counter(keys::SPICE_NEWTON_SOLVES) - before;

    // The first solve on a sample worker stalls past the job deadline (the
    // preparing thread takes ~20 ms to reach it in a debug build on a
    // 2-vCPU host). The workers poll the job's token, so the first combo
    // fails there and its remaining samples are not characterized; without
    // the token they would finish every sample and fail only in the second
    // combo.
    spice_fault::arm_stall(on_preparing_thread, 1, Duration::from_millis(500));
    let combos = counter(keys::SRAM_COMBOS);
    let service = CampaignService::start(ServiceConfig {
        workers: 1,
        job_deadline: Some(Duration::from_millis(250)),
        ..ServiceConfig::default()
    });
    let job = service.submit(cfg);
    assert!(matches!(service.wait(job), Err(JobError::DeadlineExceeded)));
    assert_eq!(counter(keys::SRAM_COMBOS), combos + 1);
}

#[test]
fn checkpoint_write_failure_at_completion_is_loud_and_not_cached() {
    let _g = fault_guard();
    let recorder = recorder();
    let ckpt = TempCkpt::new("flushfail");

    let mut cfg = campaign_config();
    cfg.checkpoint_path = Some(ckpt.0.clone());
    let service = CampaignService::start(ServiceConfig::default());

    service_fault::arm_checkpoint_failure(1);
    let job = service.submit(cfg.clone());
    match service.wait(job) {
        Err(JobError::CheckpointFlush(msg)) => {
            assert!(msg.contains("injected"), "unexpected flush error: {msg}")
        }
        other => panic!("expected CheckpointFlush, got {other:?}"),
    }

    // The failed job must not poison the result cache: resubmitting the
    // identical config recomputes (cache miss) and succeeds.
    service_fault::disarm();
    let hits_before = recorder.snapshot().counter(keys::SERVICE_CACHE_HITS);
    let retry = service.submit(cfg);
    let report = service.wait(retry).expect("resubmission succeeds");
    assert_eq!(
        report.fit.total.to_bits(),
        plain_report().fit.total.to_bits()
    );
    assert_eq!(
        recorder.snapshot().counter(keys::SERVICE_CACHE_HITS),
        hits_before,
        "a failed job must not be served from the cache"
    );
}

#[test]
fn failed_characterization_caches_no_pof_table() {
    let _g = fault_guard();
    let recorder = recorder();
    let combos = || recorder.snapshot().counter(keys::SRAM_COMBOS);
    let service = CampaignService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });

    // Every Newton solve fails, past every recovery rung: the prepare
    // step's characterization fails and the job with it.
    spice_fault::arm_nonconvergence(0, u64::MAX);
    let job = service.submit(campaign_config());
    let failed = service.wait(job);
    assert!(
        matches!(failed, Err(JobError::Setup(_))),
        "characterization failure is a setup error, got {failed:?}"
    );

    // The identical campaign, fault disarmed, on the same service: no
    // table was cached, so it characterizes all seven combos afresh.
    spice_fault::disarm();
    let before = combos();
    let report = service
        .wait(service.submit(campaign_config()))
        .expect("job after the fault");
    assert_eq!(combos(), before + 7);
    assert_eq!(
        report.fit.total.to_bits(),
        plain_report().fit.total.to_bits()
    );
}

#[test]
fn killed_daemon_flushes_partial_checkpoint_and_resume_is_bit_identical() {
    let _g = fault_guard();
    let recorder = recorder();
    let ckpt = TempCkpt::new("killresume");
    let truth = plain_report();

    let mut cfg = campaign_config();
    cfg.checkpoint_path = Some(ckpt.0.clone());

    // Slow every bin down so the kill window is wide, then poll until the
    // job is mid-flight: some bins done, some not.
    service_fault::arm_bin_delay(Duration::from_millis(150));
    let flushes_before = recorder.snapshot().counter(keys::SERVICE_DRAIN_FLUSHES);
    let first = CampaignService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let job = first.submit(cfg.clone());
    let mut observed_partial = None;
    for _ in 0..2000 {
        if let JobStatus::Running {
            completed_bins,
            total_bins,
        } = first.status(job)
        {
            if completed_bins >= 1 && completed_bins < total_bins {
                observed_partial = Some((completed_bins, total_bins));
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let (done, total) = observed_partial.expect("job never reached a partial state");
    assert!(done < total);

    // Kill the daemon mid-job: the interrupted job gets its partial
    // tallies flushed to the checkpoint and resolves to a typed error.
    first.shutdown_now();
    assert!(matches!(first.wait(job), Err(JobError::Draining)));
    assert!(ckpt.0.exists(), "shutdown must flush a partial checkpoint");
    assert!(recorder.snapshot().counter(keys::SERVICE_DRAIN_FLUSHES) > flushes_before);
    drop(first);

    // A successor daemon resumes from the flushed checkpoint and lands on
    // bits identical to an uninterrupted run.
    service_fault::disarm();
    let second = CampaignService::start(ServiceConfig::default());
    let resumed = second.submit(cfg);
    let report = second.wait(resumed).expect("resumed job completes");
    assert_eq!(report.fit.total.to_bits(), truth.fit.total.to_bits());
    assert_eq!(report.fit.seu.to_bits(), truth.fit.seu.to_bits());
    assert_eq!(report.fit.mbu.to_bits(), truth.fit.mbu.to_bits());
    assert!(report.coverage.is_complete());
}
