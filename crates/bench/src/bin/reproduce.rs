//! Regenerates the paper's Figs. 9–11 from one supply-voltage sweep
//! (0.7–1.1 V): the normalized FIT rate vs Vdd (Fig. 9), the MBU/SEU ratio
//! vs Vdd (Fig. 10) and alpha SER with vs without process variation
//! (Fig. 11). Each (Vdd, variation) POF table is characterized once and
//! each distinct strike run happens once; see [`SweepFigures`].
//!
//! Expected shapes (paper): SER rises as Vdd falls, with proton comparable
//! to alpha at 0.7 V and falling much faster; alpha MBU/SEU ≈ 6–7 % and
//! roughly flat, proton < 2 % and falling; neglecting Vth variation
//! underestimates SER by up to ~45 %.
//!
//! Usage: `cargo run --release -p finrad-bench --bin reproduce`
//! (`FINRAD_FULL=1` for paper-scale statistics)

use finrad_bench::{figure_config, Scale, SweepFigures, VDD_SWEEP};

fn main() -> std::io::Result<()> {
    let figures = SweepFigures::run(&figure_config(Scale::from_env()), &VDD_SWEEP)
        .expect("characterization failed");
    figures.write(&mut std::io::stdout().lock())
}
