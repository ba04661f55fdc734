//! Regenerates the paper's Fig. 4: normalized number of electrons
//! generated in a single fin by alpha-particle and proton interaction,
//! vs particle energy (0.1–100 MeV).
//!
//! This is the device-level (Geant4-substitute) Monte Carlo: 3-D fin
//! geometry, random traversal directions/positions, stopping-power energy
//! deposition with Landau straggling, 3.6 eV per pair.
//!
//! Usage: `cargo run --release -p finrad-bench --bin fig4_ehp_lut`
//! (`FINRAD_FULL=1` for paper-scale sampling)

use finrad_bench::Scale;
use finrad_transport::fin::FinTraversal;
use finrad_transport::lut::EhpLut;
use finrad_units::{Energy, Particle};

fn main() {
    let scale = Scale::from_env();
    let sim = FinTraversal::paper_default();

    let mut luts = Vec::new();
    for (particle, seed) in Particle::ALL.into_iter().zip([4, 5]) {
        let lut = EhpLut::tabulate(
            &sim,
            particle,
            Energy::from_mev(0.1),
            Energy::from_mev(100.0),
            17,
            scale.lut_samples(),
            seed,
        );
        luts.push(lut);
    }

    // Normalize both curves by the single global peak, like the figure.
    let peak = luts
        .iter()
        .map(EhpLut::peak_mean_pairs)
        .fold(0.0f64, f64::max);

    println!("# Fig. 4: normalized e-h pairs per fin traversal");
    println!(
        "# {:>12}  {:>14}  {:>14}  {:>10}",
        "E (MeV)", "mean pairs", "normalized", "particle"
    );
    for lut in &luts {
        for row in lut.rows() {
            println!(
                "{:>14.6e}  {:>14.4}  {:>14.6e}  {:>10}",
                row.energy_mev,
                row.mean_pairs,
                row.mean_pairs / peak,
                lut.particle()
            );
        }
        println!();
    }

    // The figure's qualitative claims, checked numerically.
    for e_mev in [1.0, 10.0] {
        let e = finrad_units::Energy::from_mev(e_mev);
        let ratio = luts[1].mean_pairs(e) / luts[0].mean_pairs(e).max(1e-9);
        println!("# check: alpha/proton pair ratio at {e_mev} MeV = {ratio:.2} (paper: order-of-magnitude gap)");
    }
}
