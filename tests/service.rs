//! Integration tests for the supervised campaign service: the threaded
//! job-queue daemon must produce reports bit-identical to the in-process
//! [`CampaignRunner`] and the serial [`SerPipeline`], serve duplicate submissions from its result cache
//! without re-invoking SPICE, coalesce concurrent duplicates onto one
//! in-flight job, enforce per-job wall-clock deadlines as typed errors,
//! and drain gracefully.
//!
//! See `docs/service.md` for the architecture these tests pin down.

use finrad::core::campaign::{CampaignConfig, CampaignRunner, CampaignStatus};
use finrad::prelude::*;
use finrad_observe::keys;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Reduced config: full smoke pipeline, fewer MC iterations per bin.
fn tiny_pipeline() -> PipelineConfig {
    let mut c = PipelineConfig::smoke_test();
    c.iterations_per_energy = 100;
    c
}

fn vdd() -> Voltage {
    Voltage::from_volts(0.8)
}

fn tiny_campaign() -> CampaignConfig {
    CampaignConfig::new(tiny_pipeline(), Particle::Alpha, vdd())
}

/// One recorder per process, shared by every test in this binary.
fn recorder() -> &'static finrad_observe::InMemoryRecorder {
    static RECORDER: OnceLock<&'static finrad_observe::InMemoryRecorder> = OnceLock::new();
    RECORDER.get_or_init(|| finrad_observe::install_in_memory().expect("first install"))
}

/// Counter-delta assertions need the process-wide recorder to themselves:
/// serialize every test in this binary.
fn metrics_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn service_report_is_bit_identical_to_campaign_runner() {
    let _serial = metrics_lock();
    let _ = recorder();

    // Both strike modes of the mixed service workload: chord-exact
    // deposits with the expected flip model, and the e-h LUT with sampled
    // flips. Sampled flips need more iterations to register any upset.
    for (deposit, flip_model, iterations) in [
        (DepositMode::ChordExact, FlipModel::Expected, 100),
        (DepositMode::LutMean, FlipModel::Sampled, 500),
    ] {
        let mut campaign = tiny_campaign();
        campaign.pipeline.deposit = deposit;
        campaign.pipeline.flip_model = flip_model;
        campaign.pipeline.iterations_per_energy = iterations;

        // Ground truth: the single-threaded in-process runner.
        let truth = match CampaignRunner::new(campaign.clone()).run().expect("runner") {
            CampaignStatus::Complete(report) => report,
            CampaignStatus::Paused { .. } => panic!("unbounded run paused"),
        };
        assert!(truth.fit.total > 0.0, "{deposit:?}: no upset to compare");

        // The bare serial pipeline runs the same bins on the same seeds.
        let serial = SerPipeline::new(campaign.pipeline.clone())
            .run(campaign.particle, campaign.vdd)
            .expect("pipeline");
        assert_eq!(serial.fit_total.to_bits(), truth.fit.total.to_bits());
        assert_eq!(serial.fit_seu.to_bits(), truth.fit.seu.to_bits());
        assert_eq!(serial.fit_mbu.to_bits(), truth.fit.mbu.to_bits());
        assert_eq!(serial.bins.len(), truth.outcomes.len());

        // The same campaign through a 3-worker service: bins are sharded
        // across threads and may compute in any order, but per-bin seeds
        // and in-order integration make the report bit-identical.
        let service = CampaignService::start(ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        });
        let job = service.submit(campaign);
        let report = service.wait(job).expect("service job");

        assert_eq!(report.fit.total.to_bits(), truth.fit.total.to_bits());
        assert_eq!(report.fit.seu.to_bits(), truth.fit.seu.to_bits());
        assert_eq!(report.fit.mbu.to_bits(), truth.fit.mbu.to_bits());
        assert_eq!(report.outcomes.len(), truth.outcomes.len());
        assert!(report.coverage.is_complete());
        assert_eq!(service.status(job), JobStatus::Done);
        assert!(service.dead_letters().is_empty());
    }
}

#[test]
fn identical_resubmission_is_served_from_cache_without_spice() {
    let _serial = metrics_lock();
    let recorder = recorder();

    let service = CampaignService::start(ServiceConfig::default());
    let first = service.submit(tiny_campaign());
    let first_report = service.wait(first).expect("first job");

    // Baseline after the first job: any further SPICE solve is a cache
    // miss the service failed to detect.
    let before = recorder.snapshot();
    let solves_before = before.counter(keys::SPICE_NEWTON_SOLVES);
    let hits_before = before.counter(keys::SERVICE_CACHE_HITS);

    let second = service.submit(tiny_campaign());
    let second_report = service.wait(second).expect("second job");

    let after = recorder.snapshot();
    assert_eq!(
        after.counter(keys::SPICE_NEWTON_SOLVES),
        solves_before,
        "cache hit must not re-invoke the SPICE solver"
    );
    assert_eq!(after.counter(keys::SERVICE_CACHE_HITS), hits_before + 1);
    assert_eq!(
        second_report.fit.total.to_bits(),
        first_report.fit.total.to_bits()
    );
    assert_eq!(service.status(second), JobStatus::Done);
}

#[test]
fn concurrent_identical_submissions_coalesce_onto_one_job() {
    let _serial = metrics_lock();
    let recorder = recorder();
    let before = recorder.snapshot().counter(keys::SERVICE_JOBS_COALESCED);

    let service = CampaignService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    // Submitted back-to-back: the second lands while the first is still
    // in its prepare step, so it aliases the in-flight job instead of
    // queueing a duplicate campaign.
    let a = service.submit(tiny_campaign());
    let b = service.submit(tiny_campaign());
    assert_ne!(a, b, "every submission gets its own id");

    let ra = service.wait(a).expect("job a");
    let rb = service.wait(b).expect("job b");
    assert_eq!(ra.fit.total.to_bits(), rb.fit.total.to_bits());

    let after = recorder.snapshot().counter(keys::SERVICE_JOBS_COALESCED);
    assert_eq!(after, before + 1, "second submission coalesced");
}

#[test]
fn deadline_exceeded_is_a_typed_failure_not_a_hang() {
    let _serial = metrics_lock();
    let recorder = recorder();
    let before = recorder
        .snapshot()
        .counter(keys::SERVICE_DEADLINE_CANCELLATIONS);

    // 1 ms is far below the characterization cost of even the smoke
    // pipeline: the cancellation token's deadline fires inside the Newton
    // solver and surfaces as a typed job failure.
    let strict = CampaignService::start(ServiceConfig {
        workers: 1,
        job_deadline: Some(Duration::from_millis(1)),
        ..ServiceConfig::default()
    });
    let job = strict.submit(tiny_campaign());
    assert!(matches!(strict.wait(job), Err(JobError::DeadlineExceeded)));
    assert_eq!(strict.status(job), JobStatus::Done);
    let after = recorder
        .snapshot()
        .counter(keys::SERVICE_DEADLINE_CANCELLATIONS);
    assert!(after > before, "deadline cancellation must be counted");
    drop(strict);

    // The same config under a fresh service with no deadline completes —
    // the failure above was the budget, not the campaign.
    let relaxed = CampaignService::start(ServiceConfig::default());
    let job = relaxed.submit(tiny_campaign());
    let report = relaxed.wait(job).expect("no-deadline job");
    assert!(report.coverage.is_complete());
}

#[test]
fn drain_finishes_queued_jobs_and_rejects_new_ones() {
    let _serial = metrics_lock();
    let _ = recorder();

    let service = CampaignService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    // Two distinct campaigns (different seeds → different fingerprints).
    let mut other = tiny_pipeline();
    other.seed ^= 1;
    let a = service.submit(tiny_campaign());
    let b = service.submit(CampaignConfig::new(other, Particle::Alpha, vdd()));

    // Drain blocks until both jobs are terminal; their results stay
    // queryable afterwards.
    service.drain();
    assert_eq!(service.status(a), JobStatus::Done);
    assert_eq!(service.status(b), JobStatus::Done);
    let ra = service.wait(a).expect("job a");
    let rb = service.wait(b).expect("job b");
    assert!(ra.coverage.is_complete());
    assert!(rb.coverage.is_complete());
    assert_ne!(
        ra.fit.total.to_bits(),
        rb.fit.total.to_bits(),
        "different seeds must not collide in the cache"
    );

    // Post-drain submissions are rejected with a typed error.
    let late = service.submit(tiny_campaign());
    assert!(matches!(service.wait(late), Err(JobError::Draining)));
}
