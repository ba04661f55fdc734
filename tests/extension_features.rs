//! Integration tests of the features that go beyond the paper: noise
//! margins, upset-multiplicity spectra and the programmatic voltage sweep.

use finrad::core::array::{DataPattern, MemoryArray};
use finrad::core::strike::{
    multiplicity_pmf, DepositMode, DirectionLaw, FlipModel, StrikeSimulator,
};
use finrad::core::sweep::VddSweep;
use finrad::prelude::*;
use finrad::sram::snm;

fn quick_table() -> PofTable {
    CellCharacterizer::new(
        Technology::soi_finfet_14nm(),
        CharacterizeOptions {
            settle: 5.0e-12,
            bisect_rel_tol: 0.1,
            ..CharacterizeOptions::default()
        },
    )
    .build_table(Voltage::from_volts(0.8), Variation::Nominal, 5)
    .expect("characterization")
}

#[test]
fn snm_and_qcrit_agree_on_the_vdd_trend() {
    // Both robustness metrics must weaken toward low Vdd.
    let tech = Technology::soi_finfet_14nm();
    let snm_lo = snm::hold_snm(&tech, Voltage::from_volts(0.7), 41).unwrap();
    let snm_hi = snm::hold_snm(&tech, Voltage::from_volts(1.1), 41).unwrap();
    assert!(snm_lo.snm.volts() < snm_hi.snm.volts());

    let ch = CellCharacterizer::new(
        tech,
        CharacterizeOptions {
            settle: 5.0e-12,
            bisect_rel_tol: 0.1,
            ..CharacterizeOptions::default()
        },
    );
    let none = std::collections::HashMap::new();
    let q_lo = ch
        .critical_charge(
            Voltage::from_volts(0.7),
            StrikeCombo::single(StrikeTarget::I1),
            &none,
        )
        .unwrap();
    let q_hi = ch
        .critical_charge(
            Voltage::from_volts(1.1),
            StrikeCombo::single(StrikeTarget::I1),
            &none,
        )
        .unwrap();
    assert!(q_lo.coulombs() < q_hi.coulombs());
}

#[test]
fn multiplicity_spectrum_dominated_by_single_bit() {
    let tech = Technology::soi_finfet_14nm();
    let array = MemoryArray::build(&tech, 5, 5, DataPattern::Checkerboard);
    let table = quick_table();
    let sim = StrikeSimulator::new(
        &array,
        FinTraversal::paper_default(),
        &table,
        DirectionLaw::IsotropicDown,
        DepositMode::ChordExact,
        FlipModel::Expected,
        None,
    );
    let pmf = sim.estimate_multiplicity(Particle::Alpha, Energy::from_mev(2.0), 8_000, 4, 3);
    assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(
        pmf[1] > 10.0 * pmf[2],
        "1-bit {} vs 2-bit {}",
        pmf[1],
        pmf[2]
    );
}

#[test]
fn multiplicity_pmf_is_a_distribution() {
    let pmf = multiplicity_pmf(&[0.1, 0.9, 0.5]);
    assert_eq!(pmf.len(), 4);
    assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    assert!(pmf.iter().all(|&p| (0.0..=1.0).contains(&p)));
}

#[test]
fn sweep_reproduces_fig9_trends_programmatically() {
    let mut cfg = PipelineConfig::smoke_test();
    cfg.iterations_per_energy = 2_000;
    let pipeline = SerPipeline::new(cfg);
    let sweep = VddSweep::run(
        &pipeline,
        &[
            Voltage::from_volts(0.7),
            Voltage::from_volts(0.9),
            Voltage::from_volts(1.1),
        ],
    )
    .expect("sweep");
    for particle in Particle::ALL {
        let fit = sweep.fit_series(particle);
        assert!(fit[0].1 > fit[2].1, "{particle}: {fit:?}");
    }
    assert!(sweep.proton_to_alpha_steepness() > 1.0);
}

#[test]
fn waveform_csv_export_from_real_simulation() {
    use finrad::spice::analysis::{self, NewtonOptions, Phase, TimeStepPlan};
    let cell = SramCell::new(&Technology::soi_finfet_14nm(), Voltage::from_volts(0.8));
    let plan = TimeStepPlan::new(vec![Phase {
        duration: 1.0e-12,
        dt: 1.0e-13,
    }]);
    let ic = cell.initial_conditions(CellState::One);
    let res = analysis::transient(
        cell.circuit(),
        &plan,
        &ic,
        &[cell.q(), cell.qb()],
        &NewtonOptions::default(),
    )
    .expect("transient");
    let mut buf = Vec::new();
    res.write_csv(&mut buf).expect("csv");
    let text = String::from_utf8(buf).expect("utf8");
    assert!(text.starts_with("time_s,q,qb"));
    assert_eq!(text.lines().count(), res.times().len() + 1);
}
