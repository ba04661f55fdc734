//! Deterministic fault-injection suite: every engineered degradation path
//! must recover or fail loudly with a typed error — never a panic, never
//! a silently-wrong FIT.
//!
//! Run with `cargo test --features fault-injection --test fault_injection`.
//! The solver-level injector is process-global, so every test serializes
//! on [`FAULT_LOCK`] (poison-tolerant: a failed test must not cascade).
#![cfg(feature = "fault-injection")]

use finrad::core::campaign::{
    corrupt_checkpoint, CampaignConfig, CampaignError, CampaignReport, CampaignRunner,
    CampaignStatus,
};
use finrad::core::checkpoint::{config_fingerprint, BinRecord, Checkpoint, CheckpointError};
use finrad::core::CoreError;
use finrad::prelude::*;
use finrad::spice::analysis::{
    dc_operating_point_with_recovery, transient_with_trace, NewtonOptions, Phase, TimeStepPlan,
};
use finrad::spice::{fault, Circuit, RecoveryRung, SpiceError};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Takes the global injector lock and guarantees the injector is disarmed
/// on exit, even when the test body panics.
/// A tuple drops its fields in order, so the disarm runs before the lock
/// is released: disarming after the release could undo what the next
/// test has just armed.
fn fault_guard() -> (DisarmOnDrop, MutexGuard<'static, ()>) {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm();
    (DisarmOnDrop, guard)
}

struct DisarmOnDrop;

impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        fault::disarm();
    }
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

fn run_complete(cfg: CampaignConfig) -> Result<CampaignReport, CampaignError> {
    CampaignRunner::new(cfg).run().map(|status| match status {
        CampaignStatus::Complete(report) => *report,
        CampaignStatus::Paused { .. } => unreachable!("unbounded run cannot pause"),
    })
}

/// The unpoisoned baseline report, computed once (callers hold FAULT_LOCK).
fn plain_report() -> &'static CampaignReport {
    static PLAIN: OnceLock<CampaignReport> = OnceLock::new();
    PLAIN.get_or_init(|| run_complete(campaign_config()).expect("baseline campaign"))
}

fn divider() -> (Circuit, finrad::spice::NodeId) {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let mid = ckt.node("mid");
    ckt.add_vsource(vin, Circuit::GROUND, 1.2);
    ckt.add_resistor(vin, mid, 2.0e3);
    ckt.add_resistor(mid, Circuit::GROUND, 1.0e3);
    (ckt, mid)
}

#[test]
fn single_injected_failure_recovers_via_gmin_ladder() {
    let _g = fault_guard();
    let (ckt, mid) = divider();
    let before = fault::injected_count();
    fault::arm_nonconvergence(0, 1);
    let (op, trace) =
        dc_operating_point_with_recovery(&ckt, &NewtonOptions::default(), &HashMap::new())
            .expect("ladder must recover from a single transient fault");
    assert_eq!(fault::injected_count(), before + 1);
    assert!(
        (op.voltage(mid) - 0.4).abs() < 1e-9,
        "recovered answer must be correct"
    );
    assert!(
        trace.recovered(),
        "trace must show failure then recovery: {trace}"
    );
    let rungs = trace.rungs_attempted();
    assert!(rungs.contains(&RecoveryRung::Direct));
    assert!(rungs.contains(&RecoveryRung::GminStepping));
}

#[test]
fn persistent_failure_exhausts_every_rung_loudly() {
    let _g = fault_guard();
    let (ckt, _mid) = divider();
    fault::arm_nonconvergence(0, u64::MAX);
    let err = dc_operating_point_with_recovery(&ckt, &NewtonOptions::default(), &HashMap::new())
        .expect_err("persistent non-convergence cannot succeed");
    match err {
        SpiceError::NoConvergence { rungs, .. } => {
            assert!(rungs.contains(&RecoveryRung::Direct), "rungs: {rungs:?}");
            assert!(
                rungs.contains(&RecoveryRung::GminStepping),
                "rungs: {rungs:?}"
            );
            assert!(
                rungs.contains(&RecoveryRung::SourceStepping),
                "rungs: {rungs:?}"
            );
        }
        other => panic!("expected NoConvergence, got {other}"),
    }
}

#[test]
fn transient_timestep_halving_recovers_and_is_traced() {
    let _g = fault_guard();
    // 1 kΩ || 1 pF discharging from 1 V.
    let mut ckt = Circuit::new();
    let n = ckt.node("n");
    ckt.add_resistor(n, Circuit::GROUND, 1.0e3);
    ckt.add_capacitor(n, Circuit::GROUND, 1.0e-12);
    let plan = TimeStepPlan::new(vec![Phase {
        duration: 1.0e-9,
        dt: 1.0e-10,
    }]);
    let mut ic = HashMap::new();
    ic.insert(n, 1.0);

    fault::arm_nonconvergence(0, 1);
    let (res, trace) = transient_with_trace(&ckt, &plan, &ic, &[n], &NewtonOptions::default())
        .expect("one rejected step must be absorbed by halving");
    assert!(trace
        .rungs_attempted()
        .contains(&RecoveryRung::ReducedTimestep));
    let (_t, v_end) = res.last_sample(0).expect("samples recorded");
    assert!((v_end - (-1.0f64).exp()).abs() < 5e-2, "v_end {v_end}");
}

#[test]
fn transient_halving_floor_fails_loudly_with_diagnostics() {
    let _g = fault_guard();
    let mut ckt = Circuit::new();
    let n = ckt.node("n");
    ckt.add_resistor(n, Circuit::GROUND, 1.0e3);
    ckt.add_capacitor(n, Circuit::GROUND, 1.0e-12);
    let plan = TimeStepPlan::new(vec![Phase {
        duration: 1.0e-10,
        dt: 1.0e-10,
    }]);

    fault::arm_nonconvergence(0, u64::MAX);
    let err = transient_with_trace(
        &ckt,
        &plan,
        &HashMap::new(),
        &[n],
        &NewtonOptions::default(),
    )
    .expect_err("persistent rejection must hit the halving bound");
    match err {
        SpiceError::NoConvergence { context, rungs, .. } => {
            assert!(
                rungs.contains(&RecoveryRung::ReducedTimestep),
                "rungs: {rungs:?}"
            );
            assert!(
                context.contains("halving") && context.contains("dt ="),
                "diagnostics missing from context: {context}"
            );
        }
        other => panic!("expected NoConvergence, got {other}"),
    }
}

#[test]
fn campaign_characterization_failure_is_typed_not_a_panic() {
    let _g = fault_guard();
    fault::arm_nonconvergence(0, u64::MAX);
    let err =
        run_complete(campaign_config()).expect_err("characterization cannot survive a dead solver");
    match err {
        CampaignError::Pipeline(CoreError::Characterization(SpiceError::NoConvergence {
            ..
        })) => {}
        other => panic!("expected typed characterization failure, got {other}"),
    }
}

#[test]
fn poisoned_samples_are_quarantined_and_fit_stays_bit_identical() {
    let _g = fault_guard();
    let plain = plain_report();
    let mut cfg = campaign_config();
    cfg.fault_plan.poison_samples = vec![1, 3];
    let poisoned = run_complete(cfg).expect("poisoned run completes");
    assert_eq!(
        poisoned.coverage.quarantined_samples,
        plain.coverage.quarantined_samples + 2,
        "each injected NaN iteration must be counted"
    );
    // Quarantine means the NaN never reached the accumulators: the means,
    // and therefore the FIT, are the same bits as the clean run.
    assert_eq!(poisoned.fit.total.to_bits(), plain.fit.total.to_bits());
    assert_eq!(poisoned.fit.seu.to_bits(), plain.fit.seu.to_bits());
    assert_eq!(poisoned.fit.mbu.to_bits(), plain.fit.mbu.to_bits());
}

#[test]
fn failed_bin_degrades_coverage_instead_of_aborting() {
    let _g = fault_guard();
    let plain = plain_report();
    let mut cfg = campaign_config();
    cfg.fault_plan.fail_bins = vec![2];
    let report = run_complete(cfg).expect("campaign must survive one dead bin");
    assert_eq!(report.coverage.total_bins, 5);
    assert_eq!(report.coverage.ok_bins, 4);
    assert_eq!(report.coverage.failed_bins, 1);
    assert!(!report.coverage.is_complete());
    assert!(report.coverage.flux_fraction < 1.0);
    assert!(matches!(
        report.outcomes[2],
        finrad::core::campaign::BinOutcome::Failed { .. }
    ));
    assert!(report.fit.total.is_finite());
    assert!(
        report.fit.total <= plain.fit.total,
        "a dropped bin cannot add FIT"
    );
}

#[test]
fn poisoned_bin_is_excluded_from_integration() {
    let _g = fault_guard();
    let mut cfg = campaign_config();
    cfg.fault_plan.poison_bins = vec![1];
    let report = run_complete(cfg).expect("campaign must survive a NaN bin");
    assert_eq!(report.coverage.non_finite_bins, 1);
    assert!(!report.coverage.is_complete());
    assert!(report.coverage.flux_fraction < 1.0);
    assert!(report.fit.total.is_finite(), "NaN must not reach the FIT");
}

#[test]
fn all_bins_failed_is_no_coverage_not_zero_fit() {
    let _g = fault_guard();
    let mut cfg = campaign_config();
    cfg.fault_plan.fail_bins = (0..5).collect();
    match run_complete(cfg) {
        Err(CampaignError::NoCoverage { total_bins: 5 }) => {}
        other => panic!("expected NoCoverage, got {other:?}"),
    }
}

#[test]
fn seeded_checkpoint_corruption_is_always_detected() {
    let _g = fault_guard();
    let path = std::env::temp_dir().join(format!(
        "finrad-ckpt-{}-seeded-corruption",
        std::process::id()
    ));
    let ck = Checkpoint {
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
    };
    for seed in 0..32u64 {
        ck.save(&path).unwrap();
        assert!(corrupt_checkpoint(&path, seed).unwrap());
        match Checkpoint::load(&path) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("seed {seed}: corruption undetected: {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}
