//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! 1. **Straggling on/off** — how much of the array POF comes from
//!    energy-loss fluctuations rather than mean deposits (for protons:
//!    nearly all of it).
//! 2. **Deposit mode** — chord-exact physics vs the paper's
//!    chord-independent LUT lookup.
//! 3. **Data pattern** — checkerboard vs solid patterns (geometry of the
//!    sensitive-transistor sets).
//! 4. **Arrival-direction law** — cosine-weighted vs isotropic downward
//!    flux (grazing tracks drive MBU).
//!
//! Usage: `cargo run --release -p finrad-bench --bin ablation_study`

use finrad_bench::{figure_config, Scale};
use finrad_core::array::{DataPattern, MemoryArray};
use finrad_core::pipeline::SerPipeline;
use finrad_core::strike::{DepositMode, DirectionLaw, FlipModel, StrikeSimulator};
use finrad_finfet::Technology;
use finrad_sram::{CellCharacterizer, CharacterizeOptions, PofTable, Variation};
use finrad_transport::fin::{FinGeometry, FinTraversal};
use finrad_transport::lut::EhpLut;
use finrad_transport::stopping::StoppingModel;
use finrad_transport::straggling::StragglingModel;
use finrad_units::{Energy, Particle, Voltage};

fn table(scale: Scale) -> PofTable {
    CellCharacterizer::new(
        Technology::soi_finfet_14nm(),
        CharacterizeOptions::default(),
    )
    .build_table(
        Voltage::from_volts(0.8),
        Variation::MonteCarlo {
            samples: scale.variation_samples(),
        },
        11,
    )
    .expect("characterization failed")
}

fn main() {
    let scale = Scale::from_env();
    let iters = scale.strike_iterations();
    let tech = Technology::soi_finfet_14nm();
    let pof = table(scale);
    let array = MemoryArray::build(&tech, 9, 9, DataPattern::Checkerboard);

    let traversal_with = |strag: StragglingModel| {
        FinTraversal::new(FinGeometry::paper_14nm(), StoppingModel::silicon(), strag)
    };

    println!("## Ablation 1: straggling on/off (array POF at 0.8 V, forced hits)");
    println!(
        "# {:>8}  {:>10}  {:>14}  {:>14}",
        "particle", "E (MeV)", "with straggle", "mean-only"
    );
    for (particle, e_mev) in [
        (Particle::Alpha, 1.0),
        (Particle::Alpha, 10.0),
        (Particle::Proton, 0.3),
        (Particle::Proton, 3.0),
    ] {
        let e = Energy::from_mev(e_mev);
        let with = StrikeSimulator::new(
            &array,
            traversal_with(StragglingModel::Auto),
            &pof,
            DirectionLaw::CosineDown,
            DepositMode::ChordExact,
            FlipModel::Expected,
            None,
        )
        .estimate(particle, e, iters, 21)[0]
            .total
            .mean();
        // Mean-only: sample the deposit without fluctuations.
        let without = StrikeSimulator::new(
            &array,
            traversal_with(StragglingModel::None),
            &pof,
            DirectionLaw::CosineDown,
            DepositMode::ChordExact,
            FlipModel::Sampled,
            None,
        )
        .estimate(particle, e, iters, 22)[0]
            .total
            .mean();
        println!("{particle:>10}  {e_mev:>10.1}  {with:>14.4e}  {without:>14.4e}");
    }
    println!();

    println!("## Ablation 2: chord-exact vs paper LUT deposits (alpha, 0.8 V)");
    let lut = EhpLut::tabulate(
        &traversal_with(StragglingModel::Auto),
        Particle::Alpha,
        Energy::from_mev(0.1),
        Energy::from_mev(100.0),
        13,
        scale.lut_samples(),
        23,
    );
    println!(
        "# {:>10}  {:>14}  {:>14}",
        "E (MeV)", "chord-exact", "LUT-mean"
    );
    for e_mev in [0.5, 2.0, 10.0] {
        let e = Energy::from_mev(e_mev);
        let exact = StrikeSimulator::new(
            &array,
            traversal_with(StragglingModel::Auto),
            &pof,
            DirectionLaw::IsotropicDown,
            DepositMode::ChordExact,
            FlipModel::Expected,
            None,
        )
        .estimate(Particle::Alpha, e, iters, 24)
        .remove(0);
        let lut_mode = StrikeSimulator::new(
            &array,
            traversal_with(StragglingModel::Auto),
            &pof,
            DirectionLaw::IsotropicDown,
            DepositMode::LutMean,
            FlipModel::Sampled,
            Some(&lut),
        )
        .estimate(Particle::Alpha, e, iters, 25)
        .remove(0);
        println!(
            "{e_mev:>12.1}  {:>14.4e}  {:>14.4e}",
            exact.total.mean(),
            lut_mode.total.mean()
        );
    }
    println!();

    println!("## Ablation 3: data pattern (alpha POF / MBU fraction at 2 MeV, 0.8 V)");
    println!("# {:>14}  {:>14}  {:>12}", "pattern", "POF", "MBU/SEU %");
    for (name, pattern) in [
        ("checkerboard", DataPattern::Checkerboard),
        ("all-ones", DataPattern::AllOnes),
        ("all-zeros", DataPattern::AllZeros),
    ] {
        let arr = MemoryArray::build(&tech, 9, 9, pattern);
        let est = StrikeSimulator::new(
            &arr,
            traversal_with(StragglingModel::Auto),
            &pof,
            DirectionLaw::IsotropicDown,
            DepositMode::ChordExact,
            FlipModel::Expected,
            None,
        )
        .estimate(Particle::Alpha, Energy::from_mev(2.0), iters, 26)
        .remove(0);
        println!(
            "{name:>16}  {:>14.4e}  {:>12.3}",
            est.total.mean(),
            100.0 * est.mbu_to_seu()
        );
    }
    println!();

    println!("## Ablation 4: arrival-direction law (alpha at 2 MeV, 0.8 V)");
    println!("# {:>14}  {:>14}  {:>12}", "law", "POF", "MBU/SEU %");
    for (name, law) in [
        ("cosine-down", DirectionLaw::CosineDown),
        ("isotropic-down", DirectionLaw::IsotropicDown),
    ] {
        let est = StrikeSimulator::new(
            &array,
            traversal_with(StragglingModel::Auto),
            &pof,
            law,
            DepositMode::ChordExact,
            FlipModel::Expected,
            None,
        )
        .estimate(Particle::Alpha, Energy::from_mev(2.0), iters, 27)
        .remove(0);
        println!(
            "{name:>16}  {:>14.4e}  {:>12.3}",
            est.total.mean(),
            100.0 * est.mbu_to_seu()
        );
    }
    println!();

    println!("## Context: FIT at 0.8 V from the default pipeline");
    let pipeline = SerPipeline::new(figure_config(scale));
    for particle in Particle::ALL {
        let report = pipeline.run_with_table(particle, Voltage::from_volts(0.8), &pof);
        println!(
            "  {particle:>7}: {:.4e} FIT (MBU/SEU {:.3}%)",
            report.fit_total,
            report.mbu_to_seu_percent()
        );
    }
}
