//! Device-level study: charged-particle transport through a single fin.
//!
//! Exercises the Geant4-substitute layer on its own: stopping-power curves
//! for protons and alphas in silicon, CSDA ranges, the paper's Eq. 1/2
//! timescale separation, and the electron–hole pair LUT of Fig. 4.
//!
//! Run with: `cargo run --release --example particle_transport`

use finrad::prelude::*;
use finrad::transport::timing;

fn main() {
    let model = StoppingModel::silicon();

    println!("## Electronic stopping power of silicon, keV/um");
    println!("{:>10}  {:>10}  {:>10}", "E (MeV)", "proton", "alpha");
    for e_mev in [0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0] {
        let e = Energy::from_mev(e_mev);
        println!(
            "{e_mev:>10.1}  {:>10.2}  {:>10.2}",
            model.stopping(Particle::Proton, e).kev_per_um(),
            model.stopping(Particle::Alpha, e).kev_per_um()
        );
    }

    println!();
    println!("## CSDA ranges in silicon");
    for (p, e_mev) in [(Particle::Alpha, 5.0), (Particle::Proton, 1.0)] {
        let r = model.csda_range(p, Energy::from_mev(e_mev));
        println!("  {e_mev} MeV {p}: {:.1} um", r.micrometers());
    }

    println!();
    println!("## Timescales (paper Eqs. 1-2)");
    let fin = FinGeometry::paper_14nm();
    let tau = timing::transit_time(fin.length, Voltage::from_volts(1.0));
    println!(
        "  carrier transit time tau at 1 V: {:.1} fs",
        tau.femtoseconds()
    );
    for (p, e_mev) in [(Particle::Alpha, 5.0), (Particle::Proton, 5.0)] {
        let tp = timing::passage_time(p, Energy::from_mev(e_mev), fin.width);
        println!(
            "  {e_mev} MeV {p} passage time through the fin: {:.3} fs",
            tp.femtoseconds()
        );
    }
    println!("  tau >> tau_p justifies the instantaneous-generation pulse model");

    println!();
    println!("## Electron-hole pair LUT (Fig. 4 kernel, 5000 traversals/point)");
    let sim = FinTraversal::paper_default();
    for (particle, seed) in Particle::ALL.into_iter().zip([11, 12]) {
        let lut = EhpLut::tabulate(
            &sim,
            particle,
            Energy::from_mev(0.1),
            Energy::from_mev(100.0),
            7,
            5_000,
            seed,
        );
        print!("  {particle:>7}:");
        for row in lut.rows() {
            print!("  {:.2e}@{:.1}MeV", row.mean_pairs, row.energy_mev);
        }
        println!();
    }
}
