//! Checkpoint/resume robustness of the campaign runtime.
//!
//! The load-bearing guarantee: a campaign interrupted at bin boundaries
//! and resumed (re-characterizing from the same seed, reloading per-bin
//! tallies bit-exactly from the checkpoint) produces a FIT rate
//! bit-identical to an uninterrupted pipeline run — and every way a
//! checkpoint file can be wrong surfaces as a typed error, never a panic
//! or a silently-wrong resume.

use finrad::core::campaign::{CampaignConfig, CampaignError, CampaignRunner, CampaignStatus};
use finrad::core::checkpoint::{config_fingerprint, BinRecord, Checkpoint, CheckpointError};
use finrad::prelude::*;
use std::fs;
use std::path::PathBuf;

/// Reduced config: full smoke pipeline, fewer MC iterations per bin.
fn tiny_pipeline() -> PipelineConfig {
    let mut c = PipelineConfig::smoke_test();
    c.iterations_per_energy = 100;
    c
}

fn vdd() -> Voltage {
    Voltage::from_volts(0.8)
}

/// A per-test temp path, removed on drop so failures don't leak state
/// into reruns.
struct TempCkpt(PathBuf);

impl TempCkpt {
    fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!("finrad-ckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_file(&p);
        TempCkpt(p)
    }
}

impl Drop for TempCkpt {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

/// A checkpoint whose fingerprint matches `tiny_pipeline()` but whose
/// tallies are fabricated — good enough for parse-level error tests that
/// never reach the Monte Carlo.
fn fabricated_checkpoint() -> Checkpoint {
    Checkpoint {
        fingerprint: config_fingerprint(&tiny_pipeline(), Particle::Alpha, vdd()),
        particle: Particle::Alpha,
        vdd_bits: vdd().volts().to_bits(),
        total_bins: 5,
        bins: vec![BinRecord::Ok {
            index: 0,
            pof_total: 0.25,
            pof_seu: 0.2,
            pof_mbu: 0.05,
            quarantined: 0,
            energy_joules: 1.0e-13,
            flux_per_m2_s: 1.0e-4,
        }],
    }
}

#[test]
fn kill_and_resume_is_bit_identical_to_uninterrupted_run() {
    let ckpt = TempCkpt::new("resume");
    let pipeline_cfg = tiny_pipeline();

    // Ground truth: one uninterrupted pipeline run.
    let uninterrupted = SerPipeline::new(pipeline_cfg.clone())
        .run(Particle::Alpha, vdd())
        .expect("uninterrupted run");

    // The same campaign, forced to stop every 2 bins — simulating a
    // process killed and restarted between snapshots.
    let mut cfg = CampaignConfig::new(pipeline_cfg, Particle::Alpha, vdd());
    cfg.checkpoint_path = Some(ckpt.0.clone());
    cfg.max_bins_per_run = Some(2);
    let runner = CampaignRunner::new(cfg);

    let mut pauses = Vec::new();
    let report = loop {
        match runner.resume().expect("resume") {
            CampaignStatus::Paused { completed, total } => {
                pauses.push((completed, total));
                assert!(ckpt.0.exists(), "pause must leave a checkpoint");
            }
            CampaignStatus::Complete(report) => break report,
        }
    };
    assert_eq!(pauses, vec![(2, 5), (4, 5)]);

    // Bit-identical, not approximately-equal.
    assert_eq!(
        report.fit.total.to_bits(),
        uninterrupted.fit_total.to_bits()
    );
    assert_eq!(report.fit.seu.to_bits(), uninterrupted.fit_seu.to_bits());
    assert_eq!(report.fit.mbu.to_bits(), uninterrupted.fit_mbu.to_bits());
    assert!(report.coverage.is_complete());
    assert_eq!(report.coverage.flux_fraction, 1.0);

    // Resuming a completed campaign reloads every bin from the checkpoint
    // and integrates to the same bits without re-running any Monte Carlo.
    match runner.resume().expect("resume of complete campaign") {
        CampaignStatus::Complete(again) => {
            assert_eq!(again.fit.total.to_bits(), report.fit.total.to_bits());
        }
        CampaignStatus::Paused { .. } => panic!("complete campaign paused"),
    }

    // Hand-corrupt the file: resume must refuse with a typed error...
    let text = fs::read_to_string(&ckpt.0).unwrap();
    let corrupted = text.replacen("bin 0 ok", "bin 0 ko", 1);
    assert_ne!(corrupted, text);
    fs::write(&ckpt.0, corrupted).unwrap();
    match runner.resume() {
        Err(CampaignError::Checkpoint(CheckpointError::Corrupt(_))) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // ...while a fresh run proceeds, overwriting the bad file.
    match runner.run().expect("fresh run after corruption") {
        CampaignStatus::Paused { completed, total } => {
            assert_eq!((completed, total), (2, 5));
        }
        CampaignStatus::Complete(_) => panic!("max_bins_per_run ignored"),
    }
    assert!(
        Checkpoint::load(&ckpt.0).is_ok(),
        "fresh run rewrote the file"
    );
}

#[test]
fn truncated_checkpoint_is_a_typed_error() {
    // Tail cut into the checksum line: the parser itself sees truncation.
    let ckpt = TempCkpt::new("truncated");
    fabricated_checkpoint().save(&ckpt.0).unwrap();
    let text = fs::read_to_string(&ckpt.0).unwrap();
    fs::write(&ckpt.0, &text[..text.len() - 10]).unwrap();

    let mut cfg = CampaignConfig::new(tiny_pipeline(), Particle::Alpha, vdd());
    cfg.checkpoint_path = Some(ckpt.0.clone());
    match CampaignRunner::new(cfg).resume() {
        Err(CampaignError::CheckpointTruncated { path, .. }) => assert_eq!(path, ckpt.0),
        other => panic!("expected CheckpointTruncated, got {other:?}"),
    }
}

#[test]
fn checkpoint_cut_mid_line_is_truncation_not_corruption() {
    // Cut inside the header line: the parser alone can only call this a
    // bad header (Corrupt), but a complete snapshot always ends with a
    // newline — the loader must classify the partial write as
    // truncation, not corruption.
    let ckpt = TempCkpt::new("midline");
    fabricated_checkpoint().save(&ckpt.0).unwrap();
    let text = fs::read_to_string(&ckpt.0).unwrap();
    fs::write(&ckpt.0, &text[..5]).unwrap();

    let mut cfg = CampaignConfig::new(tiny_pipeline(), Particle::Alpha, vdd());
    cfg.checkpoint_path = Some(ckpt.0.clone());
    match CampaignRunner::new(cfg).resume() {
        Err(CampaignError::CheckpointTruncated { detail, .. }) => {
            assert!(detail.contains("cut mid-line"), "detail: {detail}")
        }
        other => panic!("expected CheckpointTruncated, got {other:?}"),
    }
}

#[test]
fn version_mismatch_is_a_typed_error() {
    let ckpt = TempCkpt::new("version");
    fabricated_checkpoint().save(&ckpt.0).unwrap();
    let text = fs::read_to_string(&ckpt.0).unwrap();
    fs::write(&ckpt.0, text.replacen("finradckpt 1", "finradckpt 99", 1)).unwrap();

    let mut cfg = CampaignConfig::new(tiny_pipeline(), Particle::Alpha, vdd());
    cfg.checkpoint_path = Some(ckpt.0.clone());
    match CampaignRunner::new(cfg).resume() {
        Err(CampaignError::Checkpoint(CheckpointError::VersionMismatch { found: 99 })) => {}
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn checkpoint_from_different_config_is_refused() {
    let ckpt = TempCkpt::new("config");
    fabricated_checkpoint().save(&ckpt.0).unwrap();

    // Same campaign shape, different seed: the tallies in the file would
    // be statistically valid but belong to a different run.
    let mut other = tiny_pipeline();
    other.seed ^= 1;
    let mut cfg = CampaignConfig::new(other, Particle::Alpha, vdd());
    cfg.checkpoint_path = Some(ckpt.0.clone());
    match CampaignRunner::new(cfg).resume() {
        Err(CampaignError::ConfigMismatch { expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn missing_checkpoint_path_runs_fresh() {
    // No checkpoint configured at all: the campaign must behave exactly
    // like the bare pipeline (and never touch the filesystem).
    let cfg = CampaignConfig::new(tiny_pipeline(), Particle::Alpha, vdd());
    let status = CampaignRunner::new(cfg).resume().expect("plain run");
    match status {
        CampaignStatus::Complete(report) => {
            let expect = SerPipeline::new(tiny_pipeline())
                .run(Particle::Alpha, vdd())
                .unwrap();
            assert_eq!(report.fit.total.to_bits(), expect.fit_total.to_bits());
            assert_eq!(report.outcomes.len(), 5);
        }
        CampaignStatus::Paused { .. } => panic!("unbounded run paused"),
    }
}

#[test]
fn invalid_config_is_a_typed_error() {
    // A zero-sample variation Monte Carlo used to reach the
    // characterizer's assertion and panic; the runner reports it instead.
    let pipeline = PipelineConfig {
        variation: Variation::MonteCarlo { samples: 0 },
        ..tiny_pipeline()
    };
    let cfg = CampaignConfig::new(pipeline, Particle::Alpha, vdd());
    match CampaignRunner::new(cfg).run() {
        Err(CampaignError::Pipeline(CoreError::InvalidConfig(_))) => {}
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}
