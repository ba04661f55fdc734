//! Integration test for the observability layer: a smoke-scale pipeline
//! run with the in-memory recorder installed must populate the solver and
//! Monte-Carlo metrics end-to-end (device LUT → SPICE characterization →
//! array strike MC). See `docs/observability.md` for the key catalogue.

use finrad_core::pipeline::{PipelineConfig, SerPipeline};
use finrad_observe::keys;
use finrad_sram::{PofCurve, PofTable, StrikeCombo};
use finrad_units::{Particle, Voltage};

#[test]
fn smoke_pipeline_populates_solver_and_mc_metrics() {
    // One recorder per process: this is the only test in this binary that
    // installs one.
    let recorder = finrad_observe::install_in_memory().expect("first install");

    let pipeline = SerPipeline::new(PipelineConfig::smoke_test());
    let report = pipeline
        .run(Particle::Alpha, Voltage::from_volts(0.8))
        .expect("smoke run succeeds");
    assert!(report.fit_total.is_finite());

    let snap = recorder.snapshot();

    // Circuit layer: the characterization bisections drive Newton solves.
    let newton = snap.counter(keys::SPICE_NEWTON_ITERATIONS);
    assert!(newton > 0, "expected Newton iterations, got {newton}");
    assert!(snap.counter(keys::SPICE_NEWTON_SOLVES) > 0);
    assert!(snap.counter(keys::SRAM_BISECTION_STEPS) > 0);
    assert_eq!(
        snap.counter(keys::SRAM_COMBOS),
        7,
        "all seven strike combos"
    );

    // Array layer: every requested MC iteration is accounted for.
    let cfg = PipelineConfig::smoke_test();
    assert_eq!(
        snap.counter(keys::STRIKE_ITERATIONS),
        cfg.iterations_per_energy * cfg.energy_bins as u64
    );
    assert_eq!(snap.counter(keys::STRIKE_QUARANTINED), 0);

    // Throughput histogram: one observation per energy bin, positive mean.
    let throughput = snap
        .histogram(keys::STRIKE_ITERS_PER_SEC)
        .expect("MC throughput recorded");
    assert_eq!(throughput.count, cfg.energy_bins as u64);
    assert!(
        throughput.mean() > 0.0,
        "MC throughput must be non-zero, got {}",
        throughput.mean()
    );

    // Wall-time histograms exist and are non-negative.
    let combo_seconds = snap
        .histogram(keys::SRAM_COMBO_SECONDS)
        .expect("per-combo timing recorded");
    assert_eq!(combo_seconds.count, 7);
    assert!(combo_seconds.sum >= 0.0);

    // The `Expected` flip model sums a nominal curve term by term: it has
    // no block of variation samples to expand.
    assert_eq!(snap.counter(keys::STRIKE_EXCEEDANCE_BLOCKS_EXPANDED), 0);
    let exact_terms = snap.counter(keys::STRIKE_EXCEEDANCE_TERMS_EXACT);
    assert!(exact_terms > 0, "no exceedance term was counted");

    // A 64-sample variation table (two blocks per curve) is expanded.
    let vdd = Voltage::from_volts(0.8);
    let qcrits: Vec<f64> = (0..64)
        .map(|i| 0.3e-15 * (0.9 + 0.2 * f64::from(i) / 63.0))
        .collect();
    let curves = StrikeCombo::all()
        .into_iter()
        .map(|combo| (combo, PofCurve::from_critical_charges(qcrits.clone())))
        .collect();
    pipeline.run_with_table(Particle::Alpha, vdd, &PofTable::new(vdd, curves));
    let snap = recorder.snapshot();
    assert!(snap.counter(keys::STRIKE_EXCEEDANCE_BLOCKS_EXPANDED) > 0);
    assert!(snap.counter(keys::STRIKE_EXCEEDANCE_TERMS_EXACT) > exact_terms);
}
