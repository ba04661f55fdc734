//! Smoke-scale pins of the shared Figs. 9–11 sweep behind the `reproduce`
//! binary: every report is the run its (deposit mode, variation,
//! particle) cell would give on its own, and the printed figures are
//! deterministic.

use finrad_bench::SweepFigures;
use finrad_core::pipeline::{PipelineConfig, SerPipeline, SerReport};
use finrad_core::strike::{DepositMode, FlipModel};
use finrad_sram::Variation;
use finrad_units::{Particle, Voltage};

/// Two sweep points: the check lines of Fig. 9 read the sweep's ends.
const VDDS: [f64; 2] = [0.7, 1.1];

/// A tiny with-variation, chord-exact configuration.
fn smoke_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::smoke_test();
    cfg.variation = Variation::MonteCarlo { samples: 8 };
    cfg.iterations_per_energy = 300;
    cfg.energy_bins = 5;
    cfg.lut_energy_points = 5;
    cfg.lut_samples = 200;
    cfg
}

fn bits(r: &SerReport) -> [u64; 3] {
    [
        r.fit_total.to_bits(),
        r.fit_seu.to_bits(),
        r.fit_mbu.to_bits(),
    ]
}

#[test]
fn every_report_matches_an_independent_run() {
    let chord_pv = smoke_config();
    let mut chord_nominal = chord_pv.clone();
    chord_nominal.variation = Variation::Nominal;
    let mut lut_pv = chord_pv.clone();
    lut_pv.deposit = DepositMode::LutMean;
    lut_pv.flip_model = FlipModel::Sampled;
    let mut lut_nominal = lut_pv.clone();
    lut_nominal.variation = Variation::Nominal;

    let sweep = SweepFigures::run(&chord_pv, &VDDS).expect("sweep");
    assert_eq!(sweep.points.len(), VDDS.len());
    for (point, &vdd_v) in sweep.points.iter().zip(&VDDS) {
        assert_eq!(point.vdd.to_bits(), vdd_v.to_bits());
        let vdd = Voltage::from_volts(vdd_v);
        let cells = [
            (
                "chord PV proton",
                &point.chord.proton,
                &chord_pv,
                Particle::Proton,
            ),
            (
                "chord PV alpha",
                &point.chord.alpha,
                &chord_pv,
                Particle::Alpha,
            ),
            (
                "chord nominal alpha",
                &point.chord.alpha_nominal,
                &chord_nominal,
                Particle::Alpha,
            ),
            (
                "LUT PV proton",
                &point.lut.proton,
                &lut_pv,
                Particle::Proton,
            ),
            ("LUT PV alpha", &point.lut.alpha, &lut_pv, Particle::Alpha),
            (
                "LUT nominal alpha",
                &point.lut.alpha_nominal,
                &lut_nominal,
                Particle::Alpha,
            ),
        ];
        for (label, report, cfg, particle) in cells {
            let alone = SerPipeline::new(cfg.clone())
                .run(particle, vdd)
                .expect("independent run");
            assert_eq!(report.particle, particle, "{label} at {vdd_v} V");
            assert_eq!(bits(report), bits(&alone), "{label} at {vdd_v} V");
        }
        // The cells are told apart at this scale, so a swapped table or
        // mode cannot pass the comparison above by coincidence.
        let alphas = [
            &point.chord.alpha,
            &point.chord.alpha_nominal,
            &point.lut.alpha,
            &point.lut.alpha_nominal,
        ];
        for (i, a) in alphas.iter().enumerate() {
            for b in &alphas[i + 1..] {
                assert_ne!(bits(a), bits(b), "alpha cells coincide at {vdd_v} V");
            }
        }
    }
}

#[test]
fn two_runs_write_identical_bytes() {
    let write = || {
        let mut out = Vec::new();
        SweepFigures::run(&smoke_config(), &VDDS)
            .expect("sweep")
            .write(&mut out)
            .expect("write to a Vec");
        String::from_utf8(out).expect("UTF-8 output")
    };
    let first = write();
    assert_eq!(first, write());
    for heading in ["# Fig. 9:", "# Fig. 10:", "# Fig. 11:"] {
        assert!(first.contains(heading), "missing {heading}\n{first}");
    }
    assert!(
        first.contains("# check: proton SER fall 0.7->1.1 V"),
        "Fig. 9 checks span the sweep's ends\n{first}"
    );
}
