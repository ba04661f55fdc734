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

/// A fresh in-process runner's report: the ground truth a service job
/// must reproduce bit for bit.
fn runner_report(campaign: CampaignConfig) -> CampaignReport {
    match CampaignRunner::new(campaign).run().expect("runner") {
        CampaignStatus::Complete(report) => *report,
        CampaignStatus::Paused { .. } => panic!("unbounded run paused"),
    }
}

fn assert_same_report(got: &CampaignReport, want: &CampaignReport) {
    assert_eq!(got.fit.total.to_bits(), want.fit.total.to_bits());
    assert_eq!(got.fit.seu.to_bits(), want.fit.seu.to_bits());
    assert_eq!(got.fit.mbu.to_bits(), want.fit.mbu.to_bits());
    assert_eq!(got.outcomes, want.outcomes);
    assert_eq!(got.coverage, want.coverage);
}

#[test]
fn campaigns_with_one_characterization_share_its_pof_table() {
    let _serial = metrics_lock();
    let recorder = recorder();
    let combos = || recorder.snapshot().counter(keys::SRAM_COMBOS);

    // Different particle, seed, deposit mode and flip model; same
    // technology, characterization options, nominal devices and Vdd.
    let first = tiny_campaign();
    let mut second = tiny_campaign();
    second.particle = Particle::Proton;
    second.pipeline.seed ^= 0x5EED;
    second.pipeline.deposit = DepositMode::LutMean;
    second.pipeline.flip_model = FlipModel::Sampled;
    second.pipeline.lut_energy_points = 5;
    second.pipeline.lut_samples = 500;

    let service = CampaignService::start(ServiceConfig::default());
    let before = combos();
    let a = service
        .wait(service.submit(first.clone()))
        .expect("first job");
    assert_eq!(combos(), before + 7, "the first job characterizes");
    let b = service
        .wait(service.submit(second.clone()))
        .expect("second job");
    assert_eq!(combos(), before + 7, "the second job reuses the table");

    assert_same_report(&a, &runner_report(first));
    assert_same_report(&b, &runner_report(second));
}

#[test]
fn variation_mc_campaigns_with_different_seeds_do_not_share_a_table() {
    let _serial = metrics_lock();
    let recorder = recorder();
    let combos = || recorder.snapshot().counter(keys::SRAM_COMBOS);
    let mc = |seed: u64, particle: Particle| {
        let mut c = tiny_campaign();
        c.pipeline.variation = Variation::MonteCarlo { samples: 2 };
        c.pipeline.seed = seed;
        c.particle = particle;
        c
    };

    let service = CampaignService::start(ServiceConfig::default());
    let before = combos();
    let a = service
        .wait(service.submit(mc(11, Particle::Alpha)))
        .expect("seed 11");
    assert_eq!(combos(), before + 7);
    // The seed draws the variation samples: a new seed characterizes anew.
    let b = service
        .wait(service.submit(mc(12, Particle::Alpha)))
        .expect("seed 12");
    assert_eq!(combos(), before + 14);
    assert_ne!(a.fit.total.to_bits(), b.fit.total.to_bits());
    // The same seed for the other species reuses the seed-11 table.
    let c = service
        .wait(service.submit(mc(11, Particle::Proton)))
        .expect("seed 11, protons");
    assert_eq!(combos(), before + 14);
    assert_same_report(&c, &runner_report(mc(11, Particle::Proton)));
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
