//! Campaign service smoke: run the supervised job-queue daemon in-process,
//! submit the same campaign twice (the second is served from the result
//! cache without re-invoking SPICE), and print the supervision metrics.
//!
//! Run with: `cargo run --release --example campaign_service`
//!
//! With the fault-injection feature the demo also exercises the retry
//! envelope — one bin panics twice and is recovered on its third attempt,
//! leaving the FIT bits untouched:
//! `cargo run --release --features fault-injection --example campaign_service`

use finrad::core::campaign::CampaignConfig;
use finrad::prelude::*;
use finrad_observe::keys;
use std::time::Duration;

fn campaign() -> CampaignConfig {
    let mut pipeline = PipelineConfig::smoke_test();
    pipeline.iterations_per_energy = 2_000;
    CampaignConfig::new(pipeline, Particle::Alpha, Voltage::from_volts(0.8))
}

fn main() {
    let recorder = finrad_observe::install_in_memory().expect("first install");

    let service = CampaignService::start(ServiceConfig {
        workers: 4,
        max_retries: 2,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(50),
        job_deadline: Some(Duration::from_secs(120)),
    });

    let cfg = campaign();
    #[cfg(feature = "fault-injection")]
    let cfg = {
        let mut cfg = cfg;
        cfg.fault_plan.panic_bins = vec![(2, 2)];
        println!("fault-injection: bin 2 will panic twice before succeeding");
        cfg
    };

    println!("submitting the campaign to a 4-worker service...");
    let first = service.submit(cfg.clone());
    match service.wait(first) {
        Ok(report) => println!(
            "  {first}: SER = {:.3e} FIT, coverage complete = {}",
            report.fit.total,
            report.coverage.is_complete()
        ),
        Err(e) => println!("  {first} failed: {e}"),
    }

    println!("resubmitting the identical campaign (should be a cache hit)...");
    let second = service.submit(cfg);
    match service.wait(second) {
        Ok(report) => println!("  {second}: SER = {:.3e} FIT", report.fit.total),
        Err(e) => println!("  {second} failed: {e}"),
    }

    for letter in service.dead_letters() {
        println!(
            "  dead letter: {} bin {} after {} attempts: {}",
            letter.job, letter.bin, letter.attempts, letter.error
        );
    }
    service.drain();

    let snap = recorder.snapshot();
    println!("supervision metrics:");
    for key in [
        keys::SERVICE_JOBS_SUBMITTED,
        keys::SERVICE_JOBS_COMPLETED,
        keys::SERVICE_JOBS_FAILED,
        keys::SERVICE_CACHE_HITS,
        keys::SERVICE_CACHE_MISSES,
        keys::SERVICE_BIN_RETRIES,
        keys::SERVICE_BINS_QUARANTINED,
        keys::SERVICE_QUEUE_STEALS,
    ] {
        println!("  {key:<32} {}", snap.counter(key));
    }
}
