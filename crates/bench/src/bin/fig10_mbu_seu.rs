//! Regenerates the paper's Fig. 10: MBU/SEU ratio (%) vs supply voltage
//! for proton and alpha radiation.
//!
//! Expected shape (paper): alpha ≈ 6–7 % roughly flat in Vdd; proton < 2 %
//! and falling with Vdd.
//!
//! Usage: `cargo run --release -p finrad-bench --bin fig10_mbu_seu`
//! (`FINRAD_FULL=1` for paper-scale statistics)

use finrad_bench::{figure_config, Scale, VDD_SWEEP};
use finrad_core::pipeline::SerPipeline;
use finrad_core::strike::{DepositMode, FlipModel};
use finrad_sram::PofTable;
use finrad_units::{Particle, Voltage};

fn main() {
    let scale = Scale::from_env();

    // Physics mode: chord-exact deposits with analytic straggling.
    let chord_exact = SerPipeline::new(figure_config(scale));
    // Paper-faithful LUT mode: every struck fin receives the device-level
    // LUT's mean pair count for the particle energy, independent of the
    // actual chord (the paper's Section 5.1 step 2). Clipped fins then
    // carry full charge, which raises the multi-cell upset rates.
    let mut lut_cfg = figure_config(scale);
    lut_cfg.deposit = DepositMode::LutMean;
    lut_cfg.flip_model = FlipModel::Sampled;
    let lut_mode = SerPipeline::new(lut_cfg);

    // The POF table depends on neither the deposit mode nor the flip
    // model, so each Vdd is characterized once for both modes.
    let tables: Vec<PofTable> = VDD_SWEEP
        .iter()
        .map(|&vdd_v| {
            let vdd = Voltage::from_volts(vdd_v);
            debug_assert_eq!(
                chord_exact.table_fingerprint(vdd),
                lut_mode.table_fingerprint(vdd)
            );
            chord_exact
                .build_pof_table(vdd)
                .expect("characterization failed")
        })
        .collect();

    for (label, pipeline) in [
        ("chord-exact deposits", &chord_exact),
        ("paper LUT deposits", &lut_mode),
    ] {
        println!("# Fig. 10: MBU/SEU ratio vs Vdd ({label})");
        println!(
            "# {:>6}  {:>16}  {:>16}",
            "Vdd", "proton MBU/SEU %", "alpha MBU/SEU %"
        );
        for (&vdd_v, table) in VDD_SWEEP.iter().zip(&tables) {
            let vdd = Voltage::from_volts(vdd_v);
            let alpha = pipeline.run_with_table(Particle::Alpha, vdd, table);
            let proton = pipeline.run_with_table(Particle::Proton, vdd, table);
            println!(
                "{:>8.2}  {:>16.4}  {:>16.4}",
                vdd_v,
                proton.mbu_to_seu_percent(),
                alpha.mbu_to_seu_percent()
            );
        }
        println!();
    }
}
