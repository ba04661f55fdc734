//! Regenerates the paper's Fig. 11: alpha-particle SER vs Vdd with and
//! without process variation.
//!
//! Expected shape (paper): neglecting Vth variation underestimates SER by
//! up to ~45 %.
//!
//! Usage: `cargo run --release -p finrad-bench --bin fig11_process_variation`
//! (`FINRAD_FULL=1` for paper-scale statistics)

use finrad_bench::{figure_config, Scale, VDD_SWEEP};
use finrad_core::pipeline::{PipelineConfig, SerPipeline};
use finrad_core::strike::{DepositMode, FlipModel};
use finrad_sram::{PofTable, Variation};
use finrad_units::{Particle, Voltage};

/// One Fig. 11 table for the deposit mode of `base`. `tables[k]` holds the
/// with-PV and no-PV POF tables at `VDD_SWEEP[k]`; neither depends on the
/// deposit mode, so both modes share them.
fn run_mode(label: &str, base: PipelineConfig, tables: &[(PofTable, PofTable)]) {
    let with_pv = SerPipeline::new(base.clone());
    let mut nominal_cfg = base;
    nominal_cfg.variation = Variation::Nominal;
    let without_pv = SerPipeline::new(nominal_cfg);

    println!("# Fig. 11: alpha SER vs Vdd, with vs without process variation ({label})");
    println!(
        "# {:>6}  {:>14}  {:>14}  {:>16}",
        "Vdd", "FIT (with PV)", "FIT (no PV)", "underestimate %"
    );
    for (&vdd_v, (pv_table, nominal_table)) in VDD_SWEEP.iter().zip(tables) {
        let vdd = Voltage::from_volts(vdd_v);
        let pv = with_pv.run_with_table(Particle::Alpha, vdd, pv_table);
        let nom = without_pv.run_with_table(Particle::Alpha, vdd, nominal_table);
        let under = if pv.fit_total > 0.0 {
            100.0 * (pv.fit_total - nom.fit_total) / pv.fit_total
        } else {
            0.0
        };
        println!(
            "{:>8.2}  {:>14.6e}  {:>14.6e}  {:>16.2}",
            vdd_v, pv.fit_total, nom.fit_total, under
        );
    }
    println!();
}

fn main() {
    let scale = Scale::from_env();

    let with_pv = SerPipeline::new(figure_config(scale));
    let mut nominal_cfg = figure_config(scale);
    nominal_cfg.variation = Variation::Nominal;
    let without_pv = SerPipeline::new(nominal_cfg);
    let tables: Vec<(PofTable, PofTable)> = VDD_SWEEP
        .iter()
        .map(|&vdd_v| {
            let vdd = Voltage::from_volts(vdd_v);
            let build = |p: &SerPipeline| p.build_pof_table(vdd).expect("characterization failed");
            (build(&with_pv), build(&without_pv))
        })
        .collect();

    // Paper-faithful LUT deposits: each struck fin receives the energy's
    // mean pair count, so Vth variation is the only smoothing of the flip
    // threshold — the regime where neglecting it bites hardest (this is
    // the paper's own methodology).
    let mut lut_cfg = figure_config(scale);
    lut_cfg.deposit = DepositMode::LutMean;
    lut_cfg.flip_model = FlipModel::Sampled;
    run_mode("paper LUT deposits", lut_cfg, &tables);

    // Chord-exact physics mode: the deposit distribution (chords +
    // straggling) already spreads the threshold, so the variation effect
    // is diluted.
    run_mode("chord-exact deposits", figure_config(scale), &tables);

    println!("# paper: neglecting PV underestimates SER by up to ~45%");
}
