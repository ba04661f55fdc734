//! Smoke tests of every figure-regeneration path at miniature scale: each
//! paper figure's code path must run end to end and show the right
//! qualitative shape.

use finrad::prelude::*;

#[test]
fn fig2_spectra_shapes() {
    // 2(a): proton spectrum decreasing over its whole domain.
    let proton = ProtonSpectrum::sea_level();
    let es = finrad::numerics::interp::log_space(0.1, 1.0e7, 25);
    for w in es.windows(2) {
        assert!(
            proton.differential(Energy::from_mev(w[0]))
                >= proton.differential(Energy::from_mev(w[1]))
        );
    }
    // 2(b): alpha spectrum normalized to the paper's emission rate.
    let alpha = AlphaSpectrum::paper_default();
    assert!((alpha.total_flux().per_cm2_hour() - 0.001).abs() / 0.001 < 0.01);
}

#[test]
fn fig4_lut_shape() {
    let sim = FinTraversal::paper_default();
    let alpha = EhpLut::tabulate(
        &sim,
        Particle::Alpha,
        Energy::from_mev(0.5),
        Energy::from_mev(100.0),
        6,
        4_000,
        4,
    );
    let proton = EhpLut::tabulate(
        &sim,
        Particle::Proton,
        Energy::from_mev(0.5),
        Energy::from_mev(100.0),
        6,
        4_000,
        5,
    );
    // Alpha above proton; both decreasing over the decade 3 -> 100 MeV.
    for e_mev in [1.0, 10.0, 80.0] {
        let e = Energy::from_mev(e_mev);
        assert!(alpha.mean_pairs(e) > proton.mean_pairs(e));
    }
    assert!(alpha.mean_pairs(Energy::from_mev(3.0)) > alpha.mean_pairs(Energy::from_mev(90.0)));
    assert!(proton.mean_pairs(Energy::from_mev(3.0)) > proton.mean_pairs(Energy::from_mev(90.0)));
}

fn smoke() -> SerPipeline {
    let mut cfg = PipelineConfig::smoke_test();
    cfg.iterations_per_energy = 2_000;
    SerPipeline::new(cfg)
}

#[test]
fn fig8_pof_vs_energy_shape() {
    let pipeline = smoke();
    let vdd = Voltage::from_volts(0.8);
    let table = pipeline.build_pof_table(vdd).expect("table");
    let energies = [
        Energy::from_mev(1.0),
        Energy::from_mev(10.0),
        Energy::from_mev(100.0),
    ];
    let alpha = pipeline.pof_vs_energy_with_table(Particle::Alpha, &table, &energies);
    let proton = pipeline.pof_vs_energy_with_table(Particle::Proton, &table, &energies);
    // Alpha POF far above proton POF at each energy (Fig. 8's gap).
    for ((_, a), (_, p)) in alpha.iter().zip(&proton) {
        assert!(a.total.mean() > p.total.mean());
    }
    // Both decrease from 1 MeV to 100 MeV.
    assert!(alpha[0].1.total.mean() > alpha[2].1.total.mean());
    assert!(proton[0].1.total.mean() > proton[2].1.total.mean());
}

#[test]
fn fig9_fit_shape() {
    let pipeline = smoke();
    let low = pipeline
        .run(Particle::Alpha, Voltage::from_volts(0.7))
        .expect("low");
    let high = pipeline
        .run(Particle::Alpha, Voltage::from_volts(1.1))
        .expect("high");
    assert!(low.fit_total > high.fit_total);
}

#[test]
fn fig10_mbu_seu_shape() {
    // MBU exists for alpha and is a small fraction of SEU.
    let mut cfg = PipelineConfig::smoke_test();
    cfg.rows = 6;
    cfg.cols = 6;
    cfg.iterations_per_energy = 30_000;
    let pipeline = SerPipeline::new(cfg);
    let report = pipeline
        .run(Particle::Alpha, Voltage::from_volts(0.7))
        .expect("run");
    let ratio = report.mbu_to_seu_percent();
    assert!(ratio > 0.0, "alpha MBU must be observable: {ratio}%");
    assert!(ratio < 50.0, "MBU must stay a minority: {ratio}%");
}

#[test]
fn fig11_variation_raises_ser() {
    let vdd = Voltage::from_volts(0.8);
    let mut nominal_cfg = PipelineConfig::smoke_test();
    nominal_cfg.iterations_per_energy = 4_000;
    let mut mc_cfg = nominal_cfg.clone();
    mc_cfg.variation = Variation::MonteCarlo { samples: 40 };

    let nominal = SerPipeline::new(nominal_cfg)
        .run(Particle::Alpha, vdd)
        .expect("nominal");
    let with_pv = SerPipeline::new(mc_cfg)
        .run(Particle::Alpha, vdd)
        .expect("mc");
    assert!(
        with_pv.fit_total > nominal.fit_total,
        "variation must raise SER: {} vs {}",
        with_pv.fit_total,
        nominal.fit_total
    );
}

#[test]
fn pulse_shape_study_invariance() {
    // The paper's Section 4 finding at integration-test scale.
    let tech = Technology::soi_finfet_14nm();
    let vdd = Voltage::from_volts(0.8);
    let combo = StrikeCombo::single(StrikeTarget::I1);
    let none = std::collections::HashMap::new();
    let qcrit = |options: CharacterizeOptions| {
        CellCharacterizer::new(tech.clone(), options)
            .critical_charge(vdd, combo, &none)
            .expect("qcrit")
            .femtocoulombs()
    };
    let base = qcrit(CharacterizeOptions {
        bisect_rel_tol: 0.01,
        ..CharacterizeOptions::default()
    });
    let wide = qcrit(CharacterizeOptions {
        pulse_width: Some(1.6e-13),
        bisect_rel_tol: 0.01,
        ..CharacterizeOptions::default()
    });
    let tri = qcrit(CharacterizeOptions {
        shape: PulseShape::Triangular,
        bisect_rel_tol: 0.01,
        ..CharacterizeOptions::default()
    });
    assert!((wide - base).abs() / base < 0.15, "width: {base} vs {wide}");
    assert!((tri - base).abs() / base < 0.15, "shape: {base} vs {tri}");
}
