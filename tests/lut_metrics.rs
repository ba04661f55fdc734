//! The device-level e–h LUT's metrics: a LUT-mode supply sweep builds
//! each species' LUT once, however many supply points it covers, and
//! records one build span and `points × samples` traversals per build.

use finrad::core::sweep::VddSweep;
use finrad::prelude::*;
use finrad_observe::keys;

#[test]
fn lut_mode_sweep_builds_each_species_lut_once() {
    // One recorder per process: this is the only test in this binary.
    let recorder = finrad_observe::install_in_memory().expect("first install");

    let cfg = PipelineConfig {
        deposit: DepositMode::LutMean,
        flip_model: FlipModel::Sampled,
        iterations_per_energy: 200,
        energy_bins: 3,
        lut_energy_points: 5,
        lut_samples: 300,
        ..PipelineConfig::smoke_test()
    };
    let per_build = cfg.lut_energy_points as u64 * cfg.lut_samples;
    let pipeline = SerPipeline::new(cfg);
    let vdds = [Voltage::from_volts(0.7), Voltage::from_volts(1.1)];
    let sweep = VddSweep::run(&pipeline, &vdds).expect("sweep");
    assert_eq!(sweep.points().len(), 2);

    // Two Vdds × two species, but one build per species.
    let snap = recorder.snapshot();
    assert_eq!(snap.counter(keys::TRANSPORT_LUT_TRAVERSALS), 2 * per_build);
    let builds = snap
        .histogram(keys::TRANSPORT_LUT_BUILD_SECONDS)
        .expect("LUT build span recorded");
    assert_eq!(builds.count, 2);
    assert!(builds.sum >= 0.0);
}
