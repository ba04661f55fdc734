//! Array-level kernels: the 3-D strike Monte Carlo whose 10⁷-iteration
//! runtime the paper quotes as ≈ 2 hours for a 9×9 array (Section 6).
//! These benches measure our per-iteration cost so the same throughput
//! claim can be checked on any machine.

use finrad_bench::harness::Harness;
use finrad_core::array::{DataPattern, MemoryArray};
use finrad_core::strike::{
    combine_cell_pofs, DepositMode, DirectionLaw, FlipModel, StrikeScratch, StrikeSimulator,
};
use finrad_finfet::Technology;
use finrad_geometry::trace::TraceScratch;
use finrad_geometry::{Ray, Vec3};
use finrad_numerics::rng::Xoshiro256pp;
use finrad_sram::{CellCharacterizer, CharacterizeOptions, PofCurve, PofTable, Variation};
use finrad_transport::fin::FinTraversal;
use finrad_transport::straggling::sample_standard_normal;
use finrad_units::{Energy, Particle, Voltage};
use std::hint::black_box;

fn nominal_table() -> PofTable {
    CellCharacterizer::new(
        Technology::soi_finfet_14nm(),
        CharacterizeOptions {
            settle: 5.0e-12,
            bisect_rel_tol: 0.1,
            ..CharacterizeOptions::default()
        },
    )
    .build_table(Voltage::from_volts(0.8), Variation::Nominal, 1)
    .expect("characterization")
}

/// `table` with each combo's critical charge spread into `samples`
/// Gaussian draws (σ = 6% of it): a variation table of the size the
/// figures use, without the characterization cost.
fn synthetic_variation_table(table: &PofTable, samples: usize) -> PofTable {
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let curves = table
        .combos()
        .filter_map(|combo| {
            let q = table.curve(combo)?.median_qcrit().coulombs();
            let qcrits = (0..samples)
                .map(|_| (q * (1.0 + 0.06 * sample_standard_normal(&mut rng))).max(0.0))
                .collect();
            Some((combo, PofCurve::from_critical_charges(qcrits)))
        })
        .collect();
    PofTable::new(table.vdd(), curves)
}

fn bench_ray_trace(c: &mut Harness) {
    // Tracing one ray through the 486 fin boxes of the paper's 9x9 array,
    // on the bucketed index the strike Monte Carlo uses.
    let array = MemoryArray::build(
        &Technology::soi_finfet_14nm(),
        9,
        9,
        DataPattern::Checkerboard,
    );
    let bounds = array.bounds();
    let center = bounds.center();
    let ray = Ray::new(
        Vec3::new(center.x, center.y, bounds.max_corner().z + 1e-7),
        Vec3::new(0.3, 0.2, -1.0),
    );
    let mut scratch = TraceScratch::default();
    c.bench_function("trace_9x9_array_indexed", |b| {
        b.iter(|| black_box(array.trace_into(black_box(&ray), &mut scratch).len()))
    });
}

fn bench_strike_iteration(c: &mut Harness) {
    // One full Section 5.1 iteration (the paper's 10^7-count kernel).
    let array = MemoryArray::build(
        &Technology::soi_finfet_14nm(),
        9,
        9,
        DataPattern::Checkerboard,
    );
    let nominal = nominal_table();
    // The `Expected` per-hit sum runs over every critical-charge sample, so
    // it is timed on the nominal table and on 150- (quick figure scale)
    // and 1000-sample (paper scale) variation tables.
    let pv150 = synthetic_variation_table(&nominal, 150);
    let pv1000 = synthetic_variation_table(&nominal, 1000);
    for (name, model, table) in [
        ("sampled", FlipModel::Sampled, &nominal),
        ("expected", FlipModel::Expected, &nominal),
        ("expected_pv150", FlipModel::Expected, &pv150),
        ("expected_pv1000", FlipModel::Expected, &pv1000),
    ] {
        let sim = StrikeSimulator::new(
            &array,
            FinTraversal::paper_default(),
            table,
            DirectionLaw::CosineDown,
            DepositMode::ChordExact,
            model,
            None,
        );
        // Through one reused scratch, as each `estimate` chunk runs it.
        c.bench_function(&format!("fig8_strike_iteration/{name}"), |b| {
            let mut rng = Xoshiro256pp::seed_from_u64(7);
            let mut scratch = StrikeScratch::default();
            b.iter(|| {
                black_box(sim.simulate_one_with(
                    Particle::Alpha,
                    Energy::from_mev(2.0),
                    &mut rng,
                    &mut scratch,
                ))
            })
        });
    }
}

fn bench_eqs_4_to_6(c: &mut Harness) {
    let pofs = [0.31, 0.02, 0.77, 0.001, 0.5];
    c.bench_function("combine_cell_pofs_eqs4to6", |b| {
        b.iter(|| black_box(combine_cell_pofs(black_box(&pofs))))
    });
}

fn bench_array_build(c: &mut Harness) {
    let tech = Technology::soi_finfet_14nm();
    c.bench_function("build_9x9_array", |b| {
        b.iter(|| black_box(MemoryArray::build(&tech, 9, 9, DataPattern::Checkerboard)))
    });
}

fn main() {
    let mut h = Harness::from_env();
    bench_ray_trace(&mut h);
    bench_strike_iteration(&mut h);
    bench_eqs_4_to_6(&mut h);
    bench_array_build(&mut h);
}
