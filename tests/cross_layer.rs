//! Cross-crate consistency tests: the layers must agree where their
//! domains overlap.

use finrad::core::array::{DataPattern, MemoryArray};
use finrad::core::strike::{DepositMode, DirectionLaw, FlipModel, StrikeSimulator};
use finrad::prelude::*;
use finrad::transport::straggling::{deposit_exceedance, landau_params};
use finrad_numerics::rng::Xoshiro256pp;
use std::collections::HashMap;

fn quick_table(vdd_v: f64, variation: Variation) -> PofTable {
    let ch = CellCharacterizer::new(
        Technology::soi_finfet_14nm(),
        CharacterizeOptions {
            settle: 5.0e-12,
            bisect_rel_tol: 0.1,
            ..CharacterizeOptions::default()
        },
    );
    ch.build_table(Voltage::from_volts(vdd_v), variation, 3)
        .expect("characterization")
}

#[test]
fn sampled_and_expected_flip_models_agree_in_expectation() {
    // The Expected model is a variance-reduced estimator of the same
    // quantity the Sampled model estimates; on alpha at moderate energy
    // (where the Sampled model has enough events) they must agree.
    let tech = Technology::soi_finfet_14nm();
    let array = MemoryArray::build(&tech, 4, 4, DataPattern::Checkerboard);
    let table = quick_table(0.8, Variation::Nominal);
    let energy = Energy::from_mev(1.0);
    let build = |model| {
        StrikeSimulator::new(
            &array,
            FinTraversal::paper_default(),
            &table,
            DirectionLaw::CosineDown,
            DepositMode::ChordExact,
            model,
            None,
        )
    };
    let sampled = build(FlipModel::Sampled)
        .estimate(Particle::Alpha, energy, 60_000, 5)
        .remove(0);
    let expected = build(FlipModel::Expected)
        .estimate(Particle::Alpha, energy, 30_000, 6)
        .remove(0);
    let (s, e) = (sampled.total.mean(), expected.total.mean());
    assert!(s > 0.0 && e > 0.0, "both must see flips: {s} vs {e}");
    let rel = (s - e).abs() / e;
    assert!(rel < 0.25, "models disagree: sampled {s} vs expected {e}");
    // The Expected model's per-iteration spread never exceeds the Sampled
    // model's (it integrates one noise source out); in the saturated-alpha
    // regime the two are close, so compare with slack. The dramatic
    // variance win shows up for protons, where Sampled sees almost no
    // events at all — covered by the proton bound below.
    assert!(expected.total.stddev() <= sampled.total.stddev() * 1.1);
    let proton_expected = build(FlipModel::Expected)
        .estimate(Particle::Proton, energy, 30_000, 7)
        .remove(0);
    assert!(
        proton_expected.total.mean() > 0.0,
        "Expected model must resolve rare proton flips"
    );
}

#[test]
fn transport_exceedance_consistent_with_pof_curve_lookup() {
    // For a deterministic deposit (scale -> 0), the analytic exceedance
    // against a PofCurve's samples must equal the curve's own CDF lookup.
    let curve = PofCurve::from_critical_charges(vec![1.0e-17, 2.0e-17, 4.0e-17]);
    let pair_energy_ev = 3.6;
    let electron = 1.602_176_634e-19;
    for q_c in [0.5e-17, 1.5e-17, 3.0e-17, 8.0e-17] {
        let deposit_ev = q_c / electron * pair_energy_ev;
        let params = finrad::transport::straggling::LandauParams {
            mean: Energy::from_ev(deposit_ev),
            scale: Energy::ZERO,
        };
        let analytic: f64 = curve
            .qcrit_samples()
            .iter()
            .map(|&qc| {
                let threshold = Energy::from_ev(qc / electron * pair_energy_ev);
                deposit_exceedance(&params, threshold, Energy::from_mev(10.0))
            })
            .sum::<f64>()
            / curve.sample_count() as f64;
        let direct = curve.pof(Charge::from_coulombs(q_c));
        assert!(
            (analytic - direct).abs() < 1e-12,
            "q={q_c}: analytic {analytic} vs direct {direct}"
        );
    }
}

#[test]
fn lut_deposits_match_traversal_statistics() {
    // The EhpLut rows must agree with fresh traversal sampling at the same
    // energy (they are built from the same kernel).
    let sim = FinTraversal::paper_default();
    let lut = EhpLut::tabulate(
        &sim,
        Particle::Alpha,
        Energy::from_mev(0.5),
        Energy::from_mev(50.0),
        6,
        20_000,
        9,
    );
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let e = Energy::from_mev(2.0);
    let n = 20_000;
    let fresh: f64 = (0..n)
        .map(|_| sim.simulate(Particle::Alpha, e, &mut rng).pairs as f64)
        .sum::<f64>()
        / n as f64;
    let from_lut = lut.mean_pairs(e);
    let rel = (fresh - from_lut).abs() / from_lut;
    assert!(rel < 0.1, "LUT {from_lut} vs fresh {fresh}");
}

#[test]
fn landau_params_mean_matches_stopping_model() {
    let model = StoppingModel::silicon();
    let e = Energy::from_mev(3.0);
    let chord = Length::from_nm(25.0);
    let params = landau_params(&model, Particle::Proton, e, chord);
    let mean = model.mean_energy_loss(Particle::Proton, e, chord);
    assert_eq!(params.mean, mean);
    assert!(params.scale.ev() > 0.0);
}

#[test]
fn characterized_qcrit_flips_in_direct_simulation() {
    // Round trip: the critical charge extracted by the characterizer must
    // actually flip (just above) and hold (just below) in a direct
    // simulation of the same cell.
    let ch = CellCharacterizer::new(
        Technology::soi_finfet_14nm(),
        CharacterizeOptions {
            settle: 5.0e-12,
            bisect_rel_tol: 0.02,
            ..CharacterizeOptions::default()
        },
    );
    let vdd = Voltage::from_volts(0.8);
    let combo = StrikeCombo::single(StrikeTarget::I2);
    let none = HashMap::new();
    let qcrit = ch.critical_charge(vdd, combo, &none).expect("qcrit");
    assert!(ch
        .flips(vdd, combo, qcrit * 1.1, &none)
        .expect("above flips"));
    assert!(!ch
        .flips(vdd, combo, qcrit * 0.9, &none)
        .expect("below holds"));
}

#[test]
fn variation_table_pof_bounds_nominal() {
    // Variation spreads Qcrit around the nominal value, so at charges well
    // below (above) nominal Qcrit the variation POF is >= 0 (<= 1) and
    // crosses 0.5 near the nominal threshold.
    let nominal = quick_table(0.8, Variation::Nominal);
    let mc = quick_table(0.8, Variation::MonteCarlo { samples: 24 });
    let combo = StrikeCombo::single(StrikeTarget::I1);
    let q_nom = nominal.curve(combo).expect("characterized").median_qcrit();
    let pof_at_nominal = mc.pof(combo, q_nom).expect("characterized");
    assert!(
        pof_at_nominal > 0.05 && pof_at_nominal < 0.95,
        "pof at nominal qcrit: {pof_at_nominal}"
    );
}
