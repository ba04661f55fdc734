//! The figure quick-scale `VddSweep` against a one-table run of each of
//! its reports. At this scale the variation tables hold 150 samples, so
//! the alpha and proton passes score every ray with the block-moment
//! exceedance kernel on three tables at once.
//!
//! Release-only (a few seconds): `cargo test --release -p finrad-bench
//! -- --ignored`.

use finrad_bench::{figure_config, Scale};
use finrad_core::pipeline::{SerPipeline, SerReport};
use finrad_core::sweep::VddSweep;
use finrad_units::{Particle, Voltage};

fn bits(r: &SerReport) -> [u64; 3] {
    [r.fit_total, r.fit_seu, r.fit_mbu].map(f64::to_bits)
}

#[test]
#[ignore = "quick-scale release check: cargo test --release -p finrad-bench -- --ignored"]
fn quick_sweep_matches_per_table_runs() {
    let pipeline = SerPipeline::new(figure_config(Scale::Quick));
    let vdds = [0.7, 0.9, 1.1].map(Voltage::from_volts);
    let sweep = VddSweep::run(&pipeline, &vdds).expect("sweep");
    assert_eq!(sweep.points().len(), vdds.len());
    for (point, &vdd) in sweep.points().iter().zip(&vdds) {
        assert_eq!(point.vdd, vdd);
        let table = pipeline.build_pof_table(vdd).expect("characterization");
        for (report, particle) in [
            (&point.proton, Particle::Proton),
            (&point.alpha, Particle::Alpha),
        ] {
            let alone = pipeline.run_with_table(particle, vdd, &table);
            assert_eq!(report.particle, particle);
            assert_eq!(bits(report), bits(&alone), "{particle:?} at {vdd:?}");
            assert_eq!(report.bins.len(), alone.bins.len());
            for (a, b) in report.bins.iter().zip(&alone.bins) {
                assert_eq!(
                    [a.pof_total, a.pof_seu, a.pof_mbu].map(f64::to_bits),
                    [b.pof_total, b.pof_seu, b.pof_mbu].map(f64::to_bits),
                    "{particle:?} at {vdd:?}"
                );
            }
        }
    }
}
